//! Shared helpers for the SPECTRE integration test suite.
//!
//! The tests in `tests/` compare every execution mode of the workspace —
//! the sequential reference, the wait-based parallel baseline, the T-REX
//! style automaton engine, the deterministic simulation runtime and the
//! threaded runtime — against each other on the paper's queries and
//! datasets. This crate hosts the small amount of common scaffolding.

use std::sync::Arc;

use spectre_core::{Report, SpectreConfig, SpectreEngine};
use spectre_events::Event;
use spectre_query::{ComplexEvent, Query};

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
