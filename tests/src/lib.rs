//! Shared helpers for the SPECTRE integration test suite.
//!
//! The tests in `tests/` compare every execution mode of the workspace —
//! the sequential reference, the T-REX style automaton engine, the
//! deterministic simulation runtime and the threaded runtime — against each
//! other on the paper's queries and datasets. This crate hosts the small
//! amount of common scaffolding.

use std::sync::Arc;

use spectre_core::{Fold, MetricsSnapshot, Report, Scope, SpectreConfig, SpectreEngine};
use spectre_events::Event;
use spectre_query::window::compute_ranges;
use spectre_query::{ComplexEvent, ConsumptionPolicy, Query, WindowDetector};

/// The execution mode of an engine session under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The deterministic virtual-time scheduler.
    Simulated,
    /// Real OS threads: one splitter plus `instances` worker threads.
    Threaded,
}

/// Runs one single-query engine session over `events` in `mode` and
/// returns its report, panicking on any engine error.
pub fn run(
    query: &Arc<Query>,
    events: impl IntoIterator<Item = Event>,
    config: &SpectreConfig,
    mode: Mode,
) -> Report {
    let builder = SpectreEngine::builder(query).config(config.clone());
    let builder = match mode {
        Mode::Simulated => builder.simulated(),
        Mode::Threaded => builder.threaded(),
    };
    builder
        .try_build()
        .and_then(|engine| engine.run(events))
        .unwrap_or_else(|e| panic!("{mode:?} run failed: {e}"))
}

/// `query`'s pattern, window and selection without its consumption
/// policy: no consumption groups, so no speculation — the query shape
/// that runs on the speculation-free lane.
pub fn without_consumption(query: &Query) -> Arc<Query> {
    Arc::new(
        Query::builder(&format!("{}-NC", query.name()))
            .pattern_arc(Arc::clone(query.pattern()))
            .window(query.window().clone())
            .selection(query.selection())
            .consumption(ConsumptionPolicy::None)
            .build()
            .expect("a query without consumption is valid"),
    )
}

/// The exact `events_processed` of a consumption-free `query` over
/// `events` on the lane: each window is fed to a fresh detector until the
/// detector is spent or the window ends. Windows an ingestion prefilter
/// skips are counted too, so the count is exact only for queries whose
/// windows all attach (a window that opens on the pattern's start element
/// always does).
pub fn lane_events_processed(query: &Arc<Query>, events: &[Event]) -> u64 {
    let mut actions = Vec::new();
    let mut fed = 0;
    for range in compute_ranges(query.window(), events) {
        let mut detector = WindowDetector::new(Arc::clone(query), range.bounds.id);
        for ev in &events[range.bounds.start_pos as usize..range.end_pos as usize] {
            detector.on_event(ev, &mut actions);
            actions.clear();
            fed += 1;
            if detector.is_spent() {
                break;
            }
        }
    }
    fed
}

/// Renders a complex event compactly for assertion diffs.
pub fn fmt_complex(ce: &ComplexEvent) -> String {
    format!("w{}@{}{:?}", ce.window_id, ce.ts, ce.constituents)
}

/// Renders a whole output stream compactly.
pub fn fmt_all(ces: &[ComplexEvent]) -> Vec<String> {
    ces.iter().map(fmt_complex).collect()
}

/// Asserts two outputs are identical, with a readable diff on mismatch.
pub fn assert_same_output(label: &str, got: &[ComplexEvent], expected: &[ComplexEvent]) {
    assert_eq!(
        fmt_all(got),
        fmt_all(expected),
        "{label}: output differs from the sequential reference"
    );
}

/// Runs the simulation runtime for each `k` and asserts output equality
/// with the sequential reference (the paper's central correctness claim,
/// §2.3: no false positives, no false negatives).
pub fn assert_sim_matches_sequential(query: &Arc<Query>, events: &[Event], ks: &[usize]) {
    let expected = spectre_baselines::run_sequential(query, events).complex_events;
    for &k in ks {
        let config = SpectreConfig::with_instances(k);
        let report = run(query, events.to_vec(), &config, Mode::Simulated);
        assert_same_output(&format!("sim k={k}"), &report.complex_events, &expected);
    }
}

/// A tiny deterministic schema + stream builder for hand-written scenarios.
pub mod mini {
    use spectre_events::{AttrKey, Event, EventType, Schema};

    /// Single-attribute event vocabulary used by hand-written streams.
    #[derive(Debug, Clone, Copy)]
    pub struct MiniVocab {
        /// The only event type.
        pub ty: EventType,
        /// The only attribute (`x`).
        pub x: AttrKey,
    }

    /// Interns the mini vocabulary.
    pub fn vocab(schema: &mut Schema) -> MiniVocab {
        MiniVocab {
            ty: schema.event_type("E"),
            x: schema.attr("x"),
        }
    }

    /// Builds a stream of events whose `x` attribute takes the given values.
    pub fn stream(v: MiniVocab, xs: &[f64]) -> Vec<Event> {
        xs.iter()
            .enumerate()
            .map(|(i, &x)| {
                Event::builder(v.ty)
                    .seq(i as u64)
                    .ts(i as u64)
                    .attr(v.x, x)
                    .build()
            })
            .collect()
    }
}

/// Asserts that `total` decomposes over `shares` (per-query shares or
/// per-tenant rollups), row by row of the engine's counter table: a
/// per-query `Sum` counter equals the sum of the shares, a per-query `Max`
/// counter is at least the largest share, and an engine-scoped counter is
/// zero in every share. `what` names the shares in failure messages.
pub fn assert_decomposes<'a>(
    total: &MetricsSnapshot,
    shares: impl IntoIterator<Item = &'a MetricsSnapshot>,
    what: &str,
) {
    let mut folded = MetricsSnapshot::default();
    for share in shares {
        for (name, value, _, scope) in share.counters() {
            if scope == Scope::Engine {
                assert_eq!(value, 0, "engine-scoped {name} must be zero in the {what}");
            }
        }
        folded.accumulate(share);
    }
    for ((name, total, fold, scope), (_, folded, ..)) in total.counters().zip(folded.counters()) {
        match (scope, fold) {
            (Scope::Engine, _) => {}
            (Scope::Query, Fold::Sum) => {
                assert_eq!(total, folded, "{name} must equal the sum of the {what}")
            }
            (Scope::Query, Fold::Max) => {
                assert!(
                    total >= folded,
                    "{name} {total} is below the largest of the {what}"
                )
            }
        }
    }
}
