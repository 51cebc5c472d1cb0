//! Shared harness utilities for regenerating the paper's evaluation figures
//! (paper §4).
//!
//! Every figure has a binary in `src/bin/` (`fig10a` … `fig10f`, `fig11`,
//! `trex_compare`) printing the same rows/series the paper plots. Absolute
//! numbers depend on hardware; the *shape* — who wins, scaling factors,
//! crossovers — is the reproduction target. Performance claims about the
//! engine itself are measured by the separate `benchmark/` package.
//!
//! Scale knobs (environment variables):
//!
//! * `SPECTRE_BENCH_EVENTS` — input stream length (default 1 000 000; the
//!   paper streams 24 M NYSE quotes),
//! * `SPECTRE_BENCH_REPEATS` — repetitions per configuration (default 3;
//!   paper: 10),
//! * `SPECTRE_BENCH_KS` — comma-separated operator-instance counts
//!   (default `1,2,4,8,16,32`).

use std::sync::Arc;

use spectre_core::{run_simulated, SimReport, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::{Event, Schema, SymbolId};
use spectre_query::Query;

/// Calibration constant: events/second one operator instance processes.
/// Chosen so the k = 1 Q1 throughput lands near the paper's ≈10,800 events/s
/// (§4.2.1); only affects the absolute scale of reported throughputs, never
/// their ratios.
pub const PER_INSTANCE_EVENT_RATE: f64 = 10_800.0;

/// Reads the benchmark stream length for the simulator-driven figure
/// binaries: 1 M events by default — the consumption-heavy figure
/// workloads sustain it since group creation went O(1) (lazy dependency
/// tree); use `SPECTRE_BENCH_EVENTS` to scale further toward the paper's
/// 24 M.
pub fn bench_events() -> usize {
    std::env::var("SPECTRE_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Reads the per-configuration repetition count.
pub fn bench_repeats() -> usize {
    std::env::var("SPECTRE_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Reads the operator-instance sweep.
pub fn bench_ks() -> Vec<usize> {
    std::env::var("SPECTRE_BENCH_KS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&k| k > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32])
}

/// The NYSE generator configuration of the Q1/Q2 experiments.
///
/// The scaled-down symbol universe keeps MLE density comparable to the
/// paper (16 leaders / 3000 symbols) at shorter stream lengths.
fn nyse_config(events: usize, seed: u64) -> NyseConfig {
    NyseConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed,
        ..NyseConfig::default()
    }
}

fn rand_config(events: usize, seed: u64) -> RandConfig {
    RandConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed,
        ..RandConfig::default()
    }
}

/// The NYSE event *source* of the Q1/Q2 experiments: an owned generator
/// that streams straight into an engine session. Nothing is materialized —
/// at paper scale (24 M quotes) the figure binaries never hold the stream
/// in memory; only the sequential ground-truth passes do (the sequential
/// baseline computes window ranges over the full slice).
pub fn nyse_source(events: usize, seed: u64, schema: &mut Schema) -> NyseGenerator {
    NyseGenerator::new(nyse_config(events, seed), schema)
}

/// The RAND event source of the Q3 / Markov experiments (streaming
/// counterpart of [`rand_stream`]; `symbols()` on the returned generator
/// gives the symbol universe the Q3 pattern is built from).
pub fn rand_source(events: usize, seed: u64, schema: &mut Schema) -> RandGenerator {
    RandGenerator::new(rand_config(events, seed), schema)
}

/// Builds the synthetic NYSE stream used by the Q1/Q2 experiments,
/// materialized as a `Vec` — for the sequential ground-truth passes.
/// Throughput measurements should feed [`nyse_source`] into the engine
/// instead.
pub fn nyse_stream(events: usize, seed: u64) -> (Schema, Vec<Event>) {
    let mut schema = Schema::new();
    let stream: Vec<Event> = nyse_source(events, seed, &mut schema).collect();
    (schema, stream)
}

/// Builds the RAND stream used by the Q3 / Markov experiments, materialized
/// as a `Vec` — for the sequential ground-truth passes. Throughput
/// measurements should feed [`rand_source`] into the engine instead.
pub fn rand_stream(events: usize, seed: u64) -> (Schema, Vec<Event>, Vec<SymbolId>) {
    let mut schema = Schema::new();
    let gen = rand_source(events, seed, &mut schema);
    let symbols = gen.symbols().to_vec();
    let stream: Vec<Event> = gen.collect();
    (schema, stream, symbols)
}

/// Runs SPECTRE in the virtual-time simulator and reports throughput in
/// events/second (calibrated by [`PER_INSTANCE_EVENT_RATE`]).
pub fn sim_throughput(query: &Arc<Query>, events: &[Event], config: &SpectreConfig) -> f64 {
    sim_report(query, events, config).throughput(PER_INSTANCE_EVENT_RATE)
}

/// Runs SPECTRE in the simulator and returns the full report.
///
/// The virtual-time calibration defines a round as *one event per
/// instance* ([`SimReport::throughput`]), so the figure harness pins
/// `batch_size` to 1 regardless of the passed configuration — a batched
/// round would process up to `batch_size` events and inflate the
/// calibrated events/s by that factor. The batched data path is a
/// real-thread optimization; its win is measured by `benchmark/`.
pub fn sim_report(query: &Arc<Query>, events: &[Event], config: &SpectreConfig) -> SimReport {
    let config = SpectreConfig {
        batch_size: 1,
        ..config.clone()
    };
    // `run_simulated` is itself a thin wrapper over a `SpectreEngine`
    // session; the figure harness wants exactly its `SimReport` shape
    // (virtual rounds drive the calibrated throughput).
    run_simulated(query, events.to_vec(), &config)
}

/// [`sim_report`] over a *streaming* source: the generator feeds the
/// simulated engine session directly, with no `Vec` fixture at any point —
/// the figure binaries' measurement path, which must scale to the paper's
/// 24 M-quote stream without materializing it. Pins `batch_size` to 1 for
/// the same calibration reason as [`sim_report`]; the virtual rounds and
/// outputs are identical to the materialized path on the same stream.
pub fn sim_report_streamed(
    query: &Arc<Query>,
    source: impl IntoIterator<Item = Event>,
    config: &SpectreConfig,
) -> SimReport {
    let config = SpectreConfig {
        batch_size: 1,
        ..config.clone()
    };
    let report = SpectreEngine::builder(query)
        .config(config)
        .simulated()
        .build()
        .run(source);
    SimReport {
        complex_events: report.complex_events,
        metrics: report.metrics,
        rounds: report.rounds.expect("simulated sessions report rounds"),
        input_events: report.input_events,
        splitter_wall: report
            .splitter_wall
            .expect("simulated sessions report splitter wall time"),
        total_wall: report.wall,
    }
}

/// [`sim_throughput`] over a streaming source.
pub fn sim_throughput_streamed(
    query: &Arc<Query>,
    source: impl IntoIterator<Item = Event>,
    config: &SpectreConfig,
) -> f64 {
    sim_report_streamed(query, source, config).throughput(PER_INSTANCE_EVENT_RATE)
}

/// The paper's candlestick summary: 0th, 25th, 50th, 75th and 100th
/// percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candlestick {
    /// Minimum (0th percentile).
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum (100th percentile).
    pub max: f64,
}

impl Candlestick {
    /// Summarizes samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Candlestick {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let idx = p * (s.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let w = idx - lo as f64;
            s[lo] * (1.0 - w) + s[hi] * w
        };
        Candlestick {
            min: s[0],
            p25: q(0.25),
            p50: q(0.5),
            p75: q(0.75),
            max: *s.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for Candlestick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} [{:.0}/{:.0}/{:.0}/{:.0}]",
            self.p50, self.min, self.p25, self.p75, self.max
        )
    }
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candlestick_of_constant_samples() {
        let c = Candlestick::of(&[5.0, 5.0, 5.0]);
        assert_eq!(c.min, 5.0);
        assert_eq!(c.p50, 5.0);
        assert_eq!(c.max, 5.0);
    }

    #[test]
    fn candlestick_percentiles() {
        let c = Candlestick::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.p25, 2.0);
        assert_eq!(c.p50, 3.0);
        assert_eq!(c.p75, 4.0);
        assert_eq!(c.max, 5.0);
    }

    #[test]
    fn candlestick_unordered_input() {
        let c = Candlestick::of(&[9.0, 1.0, 5.0]);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.p50, 5.0);
        assert_eq!(c.max, 9.0);
    }

    #[test]
    fn env_defaults() {
        assert!(bench_events() > 0);
        assert!(bench_repeats() >= 1);
        assert!(!bench_ks().is_empty());
    }

    #[test]
    fn streams_are_deterministic() {
        let (_, a) = nyse_stream(100, 7);
        let (_, b) = nyse_stream(100, 7);
        assert_eq!(a, b);
        let (_, c, syms) = rand_stream(100, 7);
        let (_, d, _) = rand_stream(100, 7);
        assert_eq!(c, d);
        assert_eq!(syms.len(), 300);
    }

    #[test]
    fn sources_match_materialized_streams() {
        let (_, expected) = nyse_stream(200, 9);
        let mut schema = Schema::new();
        let streamed: Vec<Event> = nyse_source(200, 9, &mut schema).collect();
        assert_eq!(streamed, expected);
        let (_, expected, syms) = rand_stream(200, 9);
        let mut schema = Schema::new();
        let gen = rand_source(200, 9, &mut schema);
        assert_eq!(gen.symbols(), &syms[..]);
        let streamed: Vec<Event> = gen.collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn streamed_sim_report_matches_the_materialized_path() {
        use spectre_query::queries::{self, Direction};
        let (mut schema, events) = nyse_stream(2000, 11);
        let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
        let config = SpectreConfig::with_instances(4);
        let fixture = sim_report(&query, &events, &config);
        let mut schema2 = Schema::new();
        let source = nyse_source(2000, 11, &mut schema2);
        let streamed = sim_report_streamed(&query, source, &config);
        assert_eq!(streamed.complex_events, fixture.complex_events);
        assert_eq!(streamed.rounds, fixture.rounds);
        assert_eq!(streamed.input_events, fixture.input_events);
    }
}
