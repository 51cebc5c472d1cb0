//! Threaded runtime: one splitter thread plus k operator-instance threads
//! over shared memory — the paper's deployment model (§2.2: "the splitter
//! and operator instances are executed by independent threads running on
//! dedicated CPU cores").
//!
//! The output is identical to the sequential reference engine regardless of
//! thread interleavings; the consistency checks and the final validation at
//! retirement make speculation transparent. Consumption-heavy workloads
//! lean on the lazy dependency tree: the splitter thread creates
//! consumption groups in O(1) and clones a completion branch only when it
//! actually schedules it onto an instance, which is what lets
//! million-event speculative streams sustain throughput.

use std::sync::Arc;
use std::time::Duration;

use spectre_events::Event;
use spectre_query::{ComplexEvent, Query};

use crate::config::SpectreConfig;
use crate::engine::SpectreEngine;
use crate::metrics::MetricsSnapshot;

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Complex events in window order.
    pub complex_events: Vec<ComplexEvent>,
    /// Metric counters.
    pub metrics: MetricsSnapshot,
    /// Number of input events, counted by the splitter as it ingests (so
    /// the figure is exact even for sessions whose stream length is
    /// unknown up front).
    pub input_events: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl ThreadedReport {
    /// Measured throughput in events per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.input_events as f64 / secs
        }
    }
}

/// Runs SPECTRE with real threads: the calling thread becomes the splitter,
/// `config.instances` worker threads run operator instances.
///
/// This is the legacy one-shot surface, kept (with an unchanged signature
/// and identical results) as a thin wrapper over an incremental
/// [`SpectreEngine`] session — `builder(query).threaded().build()`, feed
/// everything, `finish()`. New code, and anything that cannot afford to
/// materialize its stream as a `Vec`, should use the session directly
/// (which can also host several queries at once — see
/// `SpectreEngine::multi_builder`; this wrapper is the single-query
/// `QueryId(0)` special case).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_events::Schema;
/// use spectre_datasets::{NyseConfig, NyseGenerator};
/// use spectre_query::queries;
/// use spectre_core::{run_threaded, SpectreConfig};
///
/// let mut schema = Schema::new();
/// let events: Vec<_> =
///     NyseGenerator::new(NyseConfig::small(500, 1), &mut schema).collect();
/// let query = Arc::new(queries::q1(&mut schema, 2, 100, Default::default()));
/// let report = run_threaded(&query, events, &SpectreConfig::with_instances(2));
/// assert_eq!(report.input_events, 500);
/// ```
pub fn run_threaded(
    query: &Arc<Query>,
    events: Vec<Event>,
    config: &SpectreConfig,
) -> ThreadedReport {
    let report = SpectreEngine::builder(query)
        .config(config.clone())
        .threaded()
        .build()
        .run(events);
    ThreadedReport {
        complex_events: report.complex_events,
        metrics: report.metrics,
        input_events: report.input_events,
        wall: report.wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_baselines::run_sequential;
    use spectre_datasets::{NyseConfig, NyseGenerator};
    use spectre_events::Schema;
    use spectre_query::queries::{self, Direction};

    #[test]
    fn threaded_output_matches_sequential() {
        let mut schema = Schema::new();
        let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 13), &mut schema).collect();
        let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
        let expected = run_sequential(&query, &events).complex_events;
        for k in [1usize, 2, 4] {
            let report = run_threaded(&query, events.clone(), &SpectreConfig::with_instances(k));
            assert_eq!(report.complex_events, expected, "k = {k}");
        }
    }

    #[test]
    fn threaded_run_is_repeatable_across_interleavings() {
        let mut schema = Schema::new();
        let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 29), &mut schema).collect();
        let query = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 300, 60));
        let expected = run_sequential(&query, &events).complex_events;
        // Several runs: thread schedules differ, output must not.
        for _ in 0..3 {
            let report = run_threaded(&query, events.clone(), &SpectreConfig::with_instances(3));
            assert_eq!(report.complex_events, expected);
        }
    }

    #[test]
    fn empty_input_terminates() {
        let mut schema = Schema::new();
        let _ = NyseGenerator::new(NyseConfig::small(1, 1), &mut schema);
        let query = Arc::new(queries::q1(&mut schema, 2, 50, Direction::Rising));
        let report = run_threaded(&query, vec![], &SpectreConfig::with_instances(2));
        assert!(report.complex_events.is_empty());
        assert!(report.throughput() >= 0.0);
    }
}
