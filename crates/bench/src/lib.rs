//! The paper's evaluation (§4) as one checked harness.
//!
//! The `figures` binary prints the nine tables of the evaluation: Fig. 10(a)
//! … 10(f), the two panels of Fig. 11 and the T-REX comparison (§4.2.3).
//! Absolute numbers depend on hardware; the *shape* — who wins, scaling
//! factors, crossovers — is the reproduction target. Performance claims
//! about the engine itself are measured by the separate `benchmark/`
//! package.
//!
//! The tables share their runs ([`Figures`]): the Q1 ratio pass feeds
//! 10(a) and 10(d), and its q = 1 % row also 10(c) and 10(f); one set of
//! Q2 price bands feeds 10(b) and 10(e). Every engine run on seed 42 is
//! checked against the sequential reference output of the same stream,
//! and a mismatch panics with the row's label.
//!
//! Scale knobs ([`Scale::from_env`]):
//!
//! * `SPECTRE_BENCH_EVENTS` — input stream length (default 1 000 000; the
//!   paper streams 24 M NYSE quotes),
//! * `SPECTRE_BENCH_REPEATS` — repetitions per configuration (default 3;
//!   paper: 10),
//! * `SPECTRE_BENCH_KS` — comma-separated operator-instance counts
//!   (default `1,2,4,8,16,32`); Fig. 11 runs at the largest,
//! * `SPECTRE_BENCH_WS` — window size (default 800 for Q1/Q2, 1000 for Q3).

use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use spectre_baselines::{run_sequential, SequentialResult, TrexEngine};
use spectre_core::{PredictorKind, Report, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::{Event, Schema, SymbolId};
use spectre_query::queries::{self, Direction, StockVocab};
use spectre_query::{ComplexEvent, Query};

/// Calibration constant: events/second one operator instance processes.
/// Chosen so the k = 1 Q1 throughput lands near the paper's ≈10,800 events/s
/// (§4.2.1); only affects the absolute scale of reported throughputs, never
/// their ratios.
pub const PER_INSTANCE_EVENT_RATE: f64 = 10_800.0;

/// Makes one figure's tables.
pub type Tables = fn(&Figures) -> Vec<Table>;

/// The tables `figures` prints, by the names it accepts and in the order
/// it prints them; `fig11` is both panels of Fig. 11. Each table panics if
/// an engine run's output differs from the sequential reference.
pub const FIGURES: [(&str, Tables); 8] = [
    ("fig10a", |f| vec![f.fig10a()]),
    ("fig10b", |f| vec![f.fig10b()]),
    ("fig10c", |f| vec![f.fig10c()]),
    ("fig10d", |f| vec![f.fig10d()]),
    ("fig10e", |f| vec![f.fig10e()]),
    ("fig10f", |f| vec![f.fig10f()]),
    ("fig11", Figures::fig11),
    ("trex", |f| vec![f.trex()]),
];

/// Q1 pattern-size/window-size ratios of Fig. 10(a) and 10(d) (paper:
/// q ∈ {40, …, 2560} at ws = 8000).
const RATIOS: [f64; 7] = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32];

/// The index in [`RATIOS`] of the Q1 that Fig. 10(c), 10(f) and the T-REX
/// comparison run: q = 1 % of the window (paper: q = 80 at ws = 8000).
const ONE_PERCENT: usize = 1;

/// Lower price percentiles of the Q2 bands, narrowest band first: narrow
/// bands → frequent limit crossings → small patterns; wide bands → large
/// patterns. The band of percentile p spans p to 100 − p.
const BAND_PERCENTILES: [u32; 8] = [45, 40, 35, 30, 25, 20, 15, 10];

/// Virtual throughput of a simulated run in events/second:
/// `input_events / rounds × PER_INSTANCE_EVENT_RATE` (see
/// `SpectreEngineBuilder::simulated` for the virtual-time model). Zero for
/// a run without rounds (a threaded report, or an empty stream).
///
/// The calibration assumes one event per instance per round, i.e.
/// `batch_size: 1` — a batched round handles up to `batch_size` events and
/// would inflate this number by that factor; [`sim_report`] pins the batch
/// size accordingly.
pub fn calibrated_throughput(report: &Report) -> f64 {
    match report.rounds {
        Some(rounds) if rounds > 0 => {
            report.input_events as f64 / rounds as f64 * PER_INSTANCE_EVENT_RATE
        }
        _ => 0.0,
    }
}

/// Real scheduling cycles per second of splitter wall time in a simulated
/// run (paper Fig. 10(c)). Zero for a threaded report.
pub fn scheduling_cycles_per_sec(report: &Report) -> f64 {
    let secs = report.splitter_wall.map_or(0.0, |w| w.as_secs_f64());
    if secs == 0.0 {
        0.0
    } else {
        report.metrics.sched_cycles as f64 / secs
    }
}

/// How large the figure runs are. Repetition `r` of a configuration
/// streams seed `42 + r`; the sequential reference streams seed 42.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Input stream length.
    pub events: usize,
    /// Repetitions per configuration (at least 1).
    pub repeats: usize,
    /// Operator-instance counts (non-empty, all positive).
    pub ks: Vec<usize>,
    /// Window size; `None` keeps each query's default (800 for Q1/Q2,
    /// 1000 for Q3).
    pub ws: Option<u64>,
}

impl Scale {
    /// Reads the four `SPECTRE_BENCH_*` variables (see [`Scale::parse`]).
    ///
    /// # Errors
    ///
    /// Names the first variable whose value is malformed.
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(|name| std::env::var(name).ok())
    }

    /// Builds a scale from `var`, which maps each `SPECTRE_BENCH_*` name to
    /// its value (`None` when unset). An unset variable keeps its default.
    ///
    /// # Errors
    ///
    /// Names the first variable that is set but is not a positive integer
    /// (for `SPECTRE_BENCH_KS`: a comma-separated list of them).
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        fn get<T: std::str::FromStr + Default + PartialEq>(
            var: &impl Fn(&str) -> Option<String>,
            name: &str,
        ) -> Result<Option<T>, String> {
            var(name).map(|v| parse_positive(name, &v)).transpose()
        }
        const KS: &str = "SPECTRE_BENCH_KS";
        let ks = var(KS).map(|v| {
            let ks: Result<Vec<usize>, String> =
                v.split(',').map(|k| parse_positive(KS, k)).collect();
            ks.map_err(|_| format!("{KS}={v:?} is not a comma-separated list of positive integers"))
        });
        Ok(Scale {
            events: get(&var, "SPECTRE_BENCH_EVENTS")?.unwrap_or(1_000_000),
            repeats: get(&var, "SPECTRE_BENCH_REPEATS")?.unwrap_or(3),
            ks: ks.transpose()?.unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32]),
            ws: get(&var, "SPECTRE_BENCH_WS")?,
        })
    }

    fn max_k(&self) -> usize {
        self.ks.iter().copied().max().expect("ks is non-empty")
    }
}

/// Parses `value`, set for the variable `name`, as a positive integer.
///
/// # Errors
///
/// Names the variable and the value when the value is not one.
pub fn parse_positive<T: std::str::FromStr + Default + PartialEq>(
    name: &str,
    value: &str,
) -> Result<T, String> {
    value
        .trim()
        .parse()
        .ok()
        .filter(|v| *v != T::default())
        .ok_or_else(|| format!("{name}={value:?} is not a positive integer"))
}

/// The NYSE event *source* of the Q1/Q2 experiments: an owned generator
/// that streams straight into an engine session, so the engine runs never
/// hold the stream in memory. The scaled-down symbol universe keeps MLE
/// density comparable to the paper (16 leaders / 3000 symbols) at shorter
/// stream lengths.
fn nyse_source(events: usize, seed: u64, schema: &mut Schema) -> NyseGenerator {
    let config = NyseConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed,
        ..NyseConfig::default()
    };
    NyseGenerator::new(config, schema)
}

/// The RAND event source of the Q3 / Markov experiments.
fn rand_source(events: usize, seed: u64, schema: &mut Schema) -> RandGenerator {
    let config = RandConfig {
        symbols: 300,
        leaders: 16,
        events,
        seed,
        ..RandConfig::default()
    };
    RandGenerator::new(config, schema)
}

/// [`nyse_source`] materialized as a `Vec`, for the sequential passes
/// (they compute window ranges over the full slice).
fn nyse_stream(events: usize, seed: u64) -> (Schema, Vec<Event>) {
    let mut schema = Schema::new();
    let stream: Vec<Event> = nyse_source(events, seed, &mut schema).collect();
    (schema, stream)
}

/// [`rand_source`] materialized as a `Vec`, with the symbol universe the
/// Q3 pattern is built from.
fn rand_stream(events: usize, seed: u64) -> (Schema, Vec<Event>, Vec<SymbolId>) {
    let mut schema = Schema::new();
    let gen = rand_source(events, seed, &mut schema);
    let symbols = gen.symbols().to_vec();
    let stream: Vec<Event> = gen.collect();
    (schema, stream, symbols)
}

/// Runs SPECTRE in a simulated session fed straight from `source` and
/// returns the report.
///
/// The virtual-time calibration defines a round as *one event per
/// instance* ([`calibrated_throughput`]), so the figure harness pins
/// `batch_size` to 1 regardless of the passed configuration — a batched
/// round would process up to `batch_size` events and inflate the
/// calibrated events/s by that factor. The batched data path is a
/// real-thread optimization; its win is measured by `benchmark/`.
///
/// # Panics
///
/// Panics if the configuration or query is rejected by the engine.
pub fn sim_report(
    query: &Arc<Query>,
    source: impl IntoIterator<Item = Event>,
    config: &SpectreConfig,
) -> Report {
    let config = SpectreConfig {
        batch_size: 1,
        ..config.clone()
    };
    SpectreEngine::builder(query)
        .config(config)
        .simulated()
        .try_build()
        .and_then(|engine| engine.run(source))
        .unwrap_or_else(|e| panic!("simulated run failed: {e}"))
}

/// Panics unless an engine run reproduced the sequential reference output.
fn check(label: &str, got: &[ComplexEvent], reference: &[ComplexEvent]) {
    assert!(
        got == reference,
        "{label}: {} complex events differ from the sequential reference's {}",
        got.len(),
        reference.len()
    );
}

/// Which generator a row's engine runs stream from.
#[derive(Clone, Copy)]
enum Dataset {
    Nyse,
    Rand,
}

/// A figure configuration and the name a failed check reports it by.
type Config = (String, SpectreConfig);

/// One swept value of a figure: the sequential pass over seed 42, and the
/// simulated runs of the same query.
struct Row {
    /// The cells that name the swept value: a Q1 ratio and its q, a Q2
    /// band with its mean complex-event length and that length's share of
    /// the window, or a Fig. 11 panel.
    lead: Vec<String>,
    /// The sequential pass: ground truth and reference output.
    truth: SequentialResult,
    /// `runs[i][r]` ran the row's `i`-th configuration on seed `42 + r`.
    runs: Vec<Vec<Report>>,
}

impl Row {
    /// Runs `build`'s query sequentially over `reference` (seed 42), then
    /// `repeats` simulated runs per configuration on streams of the same
    /// length and seed `42 + r`; each seed-42 run must reproduce the
    /// sequential output. The runs' complex events are dropped once
    /// checked.
    fn run(
        lead: Vec<String>,
        reference: &(Schema, Vec<Event>),
        (dataset, repeats): (Dataset, usize),
        configs: &[Config],
        build: &dyn Fn(&mut Schema) -> Query,
    ) -> Row {
        let truth = run_sequential(&Arc::new(build(&mut reference.0.clone())), &reference.1);
        let events = reference.1.len();
        let run = |(name, config): &Config, seed: u64| {
            let mut schema = Schema::new();
            let source: Box<dyn Iterator<Item = Event>> = match dataset {
                Dataset::Nyse => Box::new(nyse_source(events, seed, &mut schema)),
                Dataset::Rand => Box::new(rand_source(events, seed, &mut schema)),
            };
            let query = Arc::new(build(&mut schema));
            let mut report = sim_report(&query, source, config);
            if seed == 42 {
                let label = format!("{} {}, {name}", query.name(), lead[0]);
                check(&label, &report.complex_events, &truth.complex_events);
            }
            report.complex_events = Vec::new();
            report.queries.clear();
            report
        };
        let seeds = 42..42 + repeats as u64;
        let runs = (configs.iter())
            .map(|config| seeds.clone().map(|seed| run(config, seed)).collect())
            .collect();
        Row { lead, truth, runs }
    }

    /// The candlestick of configuration `i`'s virtual throughputs.
    fn candlestick(&self, i: usize) -> String {
        let samples: Vec<f64> = self.runs[i].iter().map(calibrated_throughput).collect();
        Candlestick::of(&samples).to_string()
    }
}

/// One printed table: `#` notes, a header and its rows, right-aligned.
pub struct Table {
    /// Lines printed above the header, each after `# `.
    notes: String,
    /// Column names.
    header: Vec<String>,
    /// One row per swept value, as many cells as `header`.
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with `notes`, the whitespace-separated column names of
    /// `header`, and `rows`.
    fn new(notes: String, header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> Table {
        let header = header.split_whitespace().map(String::from).collect();
        let rows = rows.into_iter().collect();
        Table {
            notes,
            header,
            rows,
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for note in self.notes.lines() {
            writeln!(f, "# {note}")?;
        }
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let widths: Vec<usize> = (0..self.header.len())
            .map(|c| lines().map(|r| r[c].chars().count().max(8)).max())
            .map(|w| w.unwrap_or(8))
            .collect();
        for line in lines() {
            let cells = line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
            writeln!(f, "{}", cells.collect::<Vec<_>>().join("  "))?;
        }
        Ok(())
    }
}

/// The figure runs at one [`Scale`], each made at most once however many
/// tables read it, and none before a table asks.
pub struct Figures {
    scale: Scale,
    nyse: OnceCell<(Schema, Vec<Event>)>,
    q1: [OnceCell<Row>; RATIOS.len()],
    q2: OnceCell<Vec<Row>>,
}

impl Figures {
    /// Runs nothing yet.
    pub fn new(scale: Scale) -> Figures {
        let (nyse, q1, q2) = Default::default();
        Figures {
            scale,
            nyse,
            q1,
            q2,
        }
    }

    fn ws(&self) -> u64 {
        self.scale.ws.unwrap_or(800)
    }

    /// The NYSE stream of seed 42, materialized for the sequential passes.
    fn nyse(&self) -> &(Schema, Vec<Event>) {
        (self.nyse).get_or_init(|| nyse_stream(self.scale.events, 42))
    }

    fn k_configs(&self) -> Vec<Config> {
        let ks = self.scale.ks.iter();
        ks.map(|&k| (format!("k={k}"), SpectreConfig::with_instances(k)))
            .collect()
    }

    /// Q1 at `RATIOS[i]` (paper setting: ws = 8000; here q = ratio·ws at the
    /// scaled window, so the x-axis is the paper's) for every k.
    fn q1(&self, i: usize) -> &Row {
        self.q1[i].get_or_init(|| {
            let (ws, q) = (self.ws(), q1_size(RATIOS[i], self.ws()));
            let build = |s: &mut Schema| queries::q1(s, q, ws, Direction::Rising);
            let (lead, data) = (vec![RATIOS[i].to_string(), q.to_string()], self.nyse_runs());
            Row::run(lead, self.nyse(), data, &self.k_configs(), &build)
        })
    }

    fn q1_rows(&self) -> impl Iterator<Item = &Row> {
        (0..RATIOS.len()).map(|i| self.q1(i))
    }

    fn nyse_runs(&self) -> (Dataset, usize) {
        (Dataset::Nyse, self.scale.repeats)
    }

    /// Q2 over price-quantile bands of decreasing width (the paper arranges
    /// its price limits so average pattern sizes span ≈180–2223 events),
    /// plus an inverted band where no pattern can complete ("0cplx").
    fn q2(&self) -> &[Row] {
        self.q2.get_or_init(|| {
            let (ws, slide) = (self.ws(), (self.ws() / 8).max(1));
            let reference = self.nyse();
            let close = StockVocab::install(&mut reference.0.clone()).close_price;
            // Stride sampling keeps the sample buffer at ≤ ~1 M f64s at the
            // paper's 24 M-quote scale; it preserves the quantiles of a
            // stationary price process.
            let stride = (self.scale.events / 1_000_000).max(1);
            let closes = reference.1.iter().filter_map(|e| e.f64(close));
            let mut closes: Vec<f64> = closes.step_by(stride).collect();
            closes.sort_by(f64::total_cmp);
            let quantile = |p: f64| closes[((closes.len() - 1) as f64 * p).round() as usize];
            let bands = BAND_PERCENTILES.iter().map(|&p| {
                let (lo, hi) = (p as f64 / 100.0, (100 - p) as f64 / 100.0);
                (format!("q{p}-q{}", 100 - p), quantile(lo), quantile(hi))
            });
            // Lower below every price: the A step (close < lower) never fires.
            let none = (
                "0cplx".to_string(),
                quantile(0.0) - 1.0,
                quantile(1.0) + 1.0,
            );
            let configs = self.k_configs();
            (bands.chain([none]))
                .map(|(name, lower, upper)| {
                    let build = |s: &mut Schema| queries::q2(s, lower, upper, ws, slide);
                    let mut row =
                        Row::run(vec![name], reference, self.nyse_runs(), &configs, &build);
                    let ces = &row.truth.complex_events;
                    let avg = ces.iter().map(|c| c.len() as f64).sum::<f64>() / ces.len() as f64;
                    row.lead
                        .extend([format!("{avg:.0}"), format!("{:.3}", avg / ws as f64)]);
                    row
                })
                .collect()
        })
    }

    /// Fig. 10(a) and 10(b): each row's lead, its ground-truth completion
    /// probability and its virtual throughput per k.
    fn throughput_table<'a>(
        &self,
        notes: String,
        lead: &str,
        rows: impl Iterator<Item = &'a Row>,
    ) -> Table {
        let ks: String = self.scale.ks.iter().map(|k| format!(" k={k}")).collect();
        let rows = rows.map(|row| {
            let gt = format!("{:.2}", row.truth.completion_probability());
            let ks = (0..self.scale.ks.len()).map(|i| row.candlestick(i));
            row.lead.iter().cloned().chain([gt]).chain(ks).collect()
        });
        Table::new(notes, &format!("{lead} gt_prob{ks}"), rows)
    }

    /// Fig. 10(d) and 10(e): each row's lead, and the completion %, groups
    /// created and groups completed of its sequential pass.
    fn truth_table<'a>(
        &self,
        notes: String,
        lead: &str,
        rows: impl Iterator<Item = &'a Row>,
    ) -> Table {
        let rows = rows.map(|row| {
            let t = &row.truth;
            let completion = format!("{:.1}", t.completion_probability() * 100.0);
            let counts = [
                completion,
                t.cgs_created.to_string(),
                t.cgs_completed.to_string(),
            ];
            row.lead.iter().cloned().chain(counts).collect()
        });
        Table::new(notes, &format!("{lead} completion_% cgs complex"), rows)
    }

    fn fig10a(&self) -> Table {
        let (ws, s) = (self.ws(), &self.scale);
        let notes = format!(
            "Figure 10(a): Q1 on NYSE — throughput (events/s) vs ratio q/ws\n\
             ws = {ws}, events = {}, repeats = {}",
            s.events, s.repeats
        );
        self.throughput_table(notes, "ratio q", self.q1_rows())
    }

    fn fig10b(&self) -> Table {
        let (ws, s) = (self.ws(), &self.scale);
        let notes = format!(
            "Figure 10(b): Q2 on NYSE — throughput (events/s) vs avg pattern size / ws\n\
             ws = {ws}, slide = {}, events = {}, repeats = {}",
            (ws / 8).max(1),
            s.events,
            s.repeats
        );
        self.throughput_table(notes, "band avg_len ratio", self.q2().iter())
    }

    /// Fig. 10(c): splitter maintenance + scheduling cycles per second of
    /// real splitter wall time vs. k (best repetition; the cycle does the
    /// same work simulated and threaded).
    fn fig10c(&self) -> Table {
        let notes = format!(
            "Figure 10(c): scheduling decisions per second vs #operator instances\n{}",
            self.one_percent_note()
        );
        let runs = self.scale.ks.iter().zip(&self.q1(ONE_PERCENT).runs);
        let rows = runs.map(|(k, runs)| {
            let rate = scheduling_cycles_per_sec;
            let best = (runs.iter())
                .max_by(|a, b| rate(a).total_cmp(&rate(b)))
                .expect("at least one repetition");
            let wall_ms = best.splitter_wall.map_or(0.0, |w| w.as_secs_f64() * 1e3);
            let cycles = best.metrics.sched_cycles.to_string();
            vec![
                k.to_string(),
                format!("{:.0}", rate(best)),
                cycles,
                format!("{wall_ms:.1}"),
            ]
        });
        Table::new(notes, "k cycles/s cycles splitter_ms", rows)
    }

    fn fig10d(&self) -> Table {
        let notes = format!(
            "Figure 10(d): Q1 ground-truth completion probability vs ratio\n\
             ws = {}, events = {}",
            self.ws(),
            self.scale.events
        );
        self.truth_table(notes, "ratio q", self.q1_rows())
    }

    fn fig10e(&self) -> Table {
        let ws = self.ws();
        let notes = format!(
            "Figure 10(e): Q2 ground-truth completion probability vs ratio\n\
             ws = {ws}, slide = {}, events = {}",
            (ws / 8).max(1),
            self.scale.events
        );
        self.truth_table(notes, "band avg_len ratio", self.q2().iter())
    }

    /// Fig. 10(f): peak dependency-tree size and the tree and predictor
    /// counters vs. k (maximum over repetitions).
    fn fig10f(&self) -> Table {
        let notes = format!(
            "Figure 10(f): max dependency-tree size vs #operator instances\n{}\n\
             wasted-speculation accounting includes the lazy tree:\n  \
             versions_mat  = clones actually taken (scheduled/completed branches)\n  \
             lazy_dropped  = completion branches discarded before any clone\n\
             predictor cost: refreshes = completion-vector rebuilds,\n  \
             refresh_ms = cumulative wall-clock spent in them",
            self.one_percent_note()
        );
        let runs = self.scale.ks.iter().zip(&self.q1(ONE_PERCENT).runs);
        let rows = runs.map(|(k, runs)| {
            let max = |f: fn(&Report) -> u64| runs.iter().map(f).max().unwrap_or(0).to_string();
            vec![
                k.to_string(),
                max(|r| r.metrics.max_tree_versions),
                max(|r| r.metrics.versions_created),
                max(|r| r.metrics.versions_dropped),
                max(|r| r.metrics.versions_materialized),
                max(|r| r.metrics.lazy_versions_dropped),
                max(|r| r.metrics.predictor_refreshes),
                refresh_ms(runs),
            ]
        });
        let header = "k max_tree versions_made versions_drop versions_mat lazy_dropped \
                      refreshes refresh_ms";
        Table::new(notes, header, rows)
    }

    fn one_percent_note(&self) -> String {
        let (ws, events) = (self.ws(), self.scale.events);
        let q = q1_size(RATIOS[ONE_PERCENT], ws);
        format!("Q1, q = {q}, ws = {ws}, events = {events}")
    }

    /// Fig. 11: the Markov completion-probability model vs. fixed
    /// probabilities, Q3 on RAND at the largest k. Paper setting: ws = 1000,
    /// slide = 100; (a) ratio 0.002 — ground truth 100 %, where the fixed
    /// 100 % model wins and Markov must match it; (b) ratio 0.1 — ground
    /// truth ≈ 32 %, where a fixed ≈ 20 % model wins and Markov must come
    /// close. Wrong fixed probabilities pay a large throughput penalty.
    fn fig11(&self) -> Vec<Table> {
        let ws = self.scale.ws.unwrap_or(1000);
        let (slide, k, events) = (ws / 10, self.scale.max_k(), self.scale.events);
        let (schema, stream, symbols) = rand_stream(events, 42);
        let reference = (schema, stream);
        let fixed = (0..=5).map(|i| (format!("{}%", i * 20), PredictorKind::Fixed(i as f64 * 0.2)));
        let models = fixed.chain([("Markov".to_string(), PredictorKind::default())]);
        let models: Vec<Config> = (models.map(|(name, predictor)| {
            let mut config = SpectreConfig::with_instances(k);
            config.predictor = predictor;
            (name, config)
        }))
        .collect();
        let panels = [("a", 0.002), ("b", 0.1)].map(|(panel, ratio)| {
            let pattern_size = ((ratio * ws as f64).round() as usize).max(2);
            let members = &symbols[1..pattern_size]; // Q3 = leader + SET(members)
            let build = |s: &mut Schema| queries::q3(s, symbols[0], members, ws, slide);
            let (lead, data) = (
                vec![format!("Fig. 11({panel})")],
                (Dataset::Rand, self.scale.repeats),
            );
            let row = Row::run(lead, &reference, data, &models, &build);
            let notes = format!(
                "Figure 11({panel}): Q3 ratio {ratio} (pattern size {pattern_size}), \
                 ws = {ws}, slide = {slide}, k = {k}, events = {events}\n\
                 ground-truth completion probability: {:.1}%",
                row.truth.completion_probability() * 100.0
            );
            let rows = models
                .iter()
                .zip(&row.runs)
                .enumerate()
                .map(|(i, ((name, _), runs))| {
                    let refreshes = runs.iter().map(|r| r.metrics.predictor_refreshes);
                    let refreshes = refreshes.max().unwrap_or(0).to_string();
                    vec![
                        name.clone(),
                        row.candlestick(i),
                        refreshes,
                        refresh_ms(runs),
                    ]
                });
            Table::new(notes, "model throughput refreshes refresh_ms", rows)
        });
        panels.into()
    }

    /// §4.2.3: the paper measured Q1 at ≈ 1,000 events/s in T-REX against
    /// SPECTRE's ≈ 10,800 at one instance. Rows: the automaton-interpreting
    /// baseline and the UDF-style sequential engine (one thread, measured),
    /// SPECTRE on real threads here (measured), and its simulated
    /// multi-core scaling (calibrated). Every row must report the
    /// sequential output.
    fn trex(&self) -> Table {
        let (ws, q) = (self.ws(), q1_size(RATIOS[ONE_PERCENT], self.ws()));
        let (schema, events) = self.nyse();
        let query = Arc::new(queries::q1(&mut schema.clone(), q, ws, Direction::Rising));
        let timed = |run: &dyn Fn() -> Vec<ComplexEvent>| {
            let start = Instant::now();
            let out = run();
            (events.len() as f64 / start.elapsed().as_secs_f64(), out)
        };
        let trex = timed(&|| {
            TrexEngine::new(Arc::clone(&query))
                .run(events)
                .complex_events
        });
        let sequential = timed(&|| run_sequential(&query, events).complex_events);
        let reference = sequential.1.clone();
        let mut rows = vec![
            ("T-REX-style (1 thread, measured)".to_string(), trex),
            ("SPECTRE UDF sequential (measured)".to_string(), sequential),
        ];
        for k in [1usize, 2, 4] {
            let engine = SpectreEngine::builder(&query).config(SpectreConfig::with_instances(k));
            let report = (engine.threaded().try_build())
                .and_then(|engine| engine.run(events.iter().cloned()))
                .unwrap_or_else(|e| panic!("threaded run failed: {e}"));
            let label = format!("SPECTRE threaded k={k} (measured)");
            rows.push((label, (report.throughput(), report.complex_events)));
        }
        for k in [1usize, 8, 32] {
            let config = SpectreConfig::with_instances(k);
            let report = sim_report(&query, events.iter().cloned(), &config);
            let label = format!("SPECTRE simulated k={k} (calibrated)");
            rows.push((
                label,
                (calibrated_throughput(&report), report.complex_events),
            ));
        }
        let rows = rows.into_iter().map(|(label, (eps, out))| {
            check(&label, &out, &reference);
            vec![label, format!("{eps:.0}"), out.len().to_string()]
        });
        let n = events.len();
        let notes =
            format!("§4.2.3: SPECTRE vs T-REX-style engine (Q1, q = {q}, ws = {ws}, {n} events)");
        Table::new(notes, "engine events/s complex", rows)
    }
}

/// Q1's pattern size at `ratio` of the window.
fn q1_size(ratio: f64, ws: u64) -> usize {
    ((ratio * ws as f64).round() as usize).max(1)
}

/// Largest predictor refresh time over repetitions, in milliseconds.
fn refresh_ms(runs: &[Report]) -> String {
    let nanos = runs.iter().map(|r| r.metrics.predictor_refresh_nanos);
    format!("{:.1}", nanos.max().unwrap_or(0) as f64 / 1e6)
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

    /// `parse` over a fixed set of variables, as if the rest were unset.
    fn parse_vars(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(|name| {
            let value = vars.iter().find(|(n, _)| *n == name)?.1;
            Some(value.to_string())
        })
    }

    #[test]
    fn env_defaults() {
        let defaults = Scale {
            events: 1_000_000,
            repeats: 3,
            ks: vec![1, 2, 4, 8, 16, 32],
            ws: None,
        };
        assert_eq!(parse_vars(&[]), Ok(defaults));
        let scale = parse_vars(&[
            ("SPECTRE_BENCH_EVENTS", "2000"),
            ("SPECTRE_BENCH_REPEATS", "1"),
            ("SPECTRE_BENCH_KS", "1, 4"),
            ("SPECTRE_BENCH_WS", "200"),
        ]);
        let want = Scale {
            events: 2000,
            repeats: 1,
            ks: vec![1, 4],
            ws: Some(200),
        };
        assert_eq!(scale, Ok(want));
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (name, value) in [
            ("SPECTRE_BENCH_EVENTS", "2k"),
            ("SPECTRE_BENCH_REPEATS", "0"),
            ("SPECTRE_BENCH_WS", "-5"),
            ("SPECTRE_BENCH_KS", "0,x"),
            ("SPECTRE_BENCH_KS", "1,x"),
            ("SPECTRE_BENCH_KS", ""),
        ] {
            let err = parse_vars(&[(name, value)]).unwrap_err();
            assert!(err.contains(name), "{err}");
            assert!(err.contains(&format!("{value:?}")), "{err}");
        }
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
        let (mut schema, events) = nyse_stream(2000, 11);
        let query = Arc::new(queries::q1(&mut schema, 3, 200, Direction::Rising));
        let config = SpectreConfig::with_instances(4);
        let fixture = sim_report(&query, events, &config);
        let mut schema2 = Schema::new();
        let source = nyse_source(2000, 11, &mut schema2);
        let streamed = sim_report(&query, source, &config);
        assert_eq!(streamed.complex_events, fixture.complex_events);
        assert_eq!(streamed.rounds, fixture.rounds);
        assert_eq!(streamed.input_events, fixture.input_events);
    }

    #[test]
    fn report_accessors() {
        let (mut schema, events) = nyse_stream(500, 2);
        let query = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
        let report = sim_report(&query, events, &SpectreConfig::with_instances(2));
        assert_eq!(report.input_events, 500);
        let rounds = report.rounds.expect("simulated runs report rounds");
        assert_eq!(
            calibrated_throughput(&report),
            500.0 / rounds as f64 * PER_INSTANCE_EVENT_RATE
        );
        assert!(scheduling_cycles_per_sec(&report) >= 0.0);
        assert!(report.metrics.sched_cycles > 0);
        let threaded = Report {
            rounds: None,
            splitter_wall: None,
            ..report
        };
        assert_eq!(calibrated_throughput(&threaded), 0.0);
        assert_eq!(scheduling_cycles_per_sec(&threaded), 0.0);
    }

    /// Every table at a small scale: each run on seed 42 must reproduce
    /// the sequential output (a mismatch panics), each table has one row
    /// per swept value, and where every consumption group completes the
    /// virtual-time model scales with k. Rows with uncertain groups are
    /// left out: their speedup can fall as k grows (the wide-window
    /// regime), which needs a test of its own.
    ///
    /// Only Q2's sliding windows are never spent, so only its certain
    /// rows must scale by ≈ k. Q1's anchored windows stop at their one
    /// match: one instance then feeds exactly the events the sequential
    /// pass feeds, few enough that more instances add little, but never
    /// slow the run down.
    #[test]
    fn every_table_has_its_rows_and_the_model_speedup() {
        let scale = Scale {
            events: 1500,
            repeats: 1,
            ks: vec![1, 2, 4],
            ws: None,
        };
        let figures = Figures::new(scale.clone());
        let tables: Vec<Table> = FIGURES
            .iter()
            .flat_map(|(_, tables)| tables(&figures))
            .collect();
        let rows: Vec<usize> = tables.iter().map(|t| t.rows.len()).collect();
        assert_eq!(rows, [7, 9, 3, 7, 9, 3, 7, 7, 8]);
        for table in &tables {
            assert!(table.rows.iter().all(|r| r.len() == table.header.len()));
        }
        let lead = |t: &Table, n: usize| t.rows.iter().map(|r| r[..n].to_vec()).collect::<Vec<_>>();
        assert_eq!(
            lead(&tables[1], 3),
            lead(&tables[4], 3),
            "10(e) lists 10(b)'s bands"
        );
        assert_eq!(
            lead(&tables[0], 2),
            lead(&tables[3], 2),
            "10(d) lists 10(a)'s ratios"
        );

        // Virtual throughput of a row's configuration `i`, seed-42 run.
        let eps = |row: &Row, i: usize| calibrated_throughput(&row.runs[i][0]);
        let certain = |row: &&Row| row.truth.completion_probability() == 1.0;
        let sliding: Vec<&Row> = figures.q2().iter().filter(certain).collect();
        assert!(sliding.iter().any(|r| r.lead[0] == "0cplx"));
        for row in sliding {
            for (i, &k) in scale.ks.iter().enumerate() {
                let speedup = eps(row, i) / eps(row, 0);
                assert!(
                    speedup >= 0.9 * k as f64,
                    "{}: virtual speedup {speedup:.2} at k = {k}",
                    row.lead[0]
                );
            }
        }
        let anchored: Vec<&Row> = figures.q1_rows().filter(certain).collect();
        assert!(!anchored.is_empty());
        for row in anchored {
            let fed = row.runs[0][0].metrics.events_processed;
            assert_eq!(fed, row.truth.events_processed, "{}: k = 1", row.lead[0]);
            for (i, &k) in scale.ks.iter().enumerate() {
                let speedup = eps(row, i) / eps(row, 0);
                assert!(
                    speedup >= 1.0,
                    "{}: virtual speedup {speedup:.2} at k = {k}",
                    row.lead[0]
                );
            }
        }
        // Where nothing is consumed, one instance spends exactly one round
        // on each window event the sequential pass processes: k = 1 runs at
        // the calibrated per-instance rate.
        let free = figures.q2().last().expect("the 0cplx band");
        assert_eq!(free.truth.consumed_events, 0);
        let per_instance = eps(free, 0) * free.truth.events_processed as f64 / 1500.0;
        assert!((per_instance / PER_INSTANCE_EVENT_RATE - 1.0).abs() < 1e-9);
    }
}
