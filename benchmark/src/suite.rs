//! The parent side: plan the runs of one workload, execute each in a child
//! process under a deadline, check every run against the oracle and fold
//! the reports into the declared metrics.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::fixture::{self, Oracle};
use crate::json;
use crate::layers;
use crate::run::{Kind, RunReport};
use crate::spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats;

/// How many runs of each kind one measurement makes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub closed: usize,
    pub paced: usize,
    /// Also make the traced run and the isolation timings, and report the
    /// per-layer metrics.
    pub layers: bool,
}

impl Plan {
    /// `--trace 0`: end-to-end metrics from untraced runs only. Seven
    /// paced repeats: the commit lag is a few thread wake-ups long and
    /// moves more with the host's noise than anything else measured here,
    /// and the median of seven shrugs off a burst that spoils three.
    pub const END_TO_END: Plan = Plan {
        closed: 5,
        paced: 7,
        layers: false,
    };
    /// `--trace 1`: fewer repeats, plus the traced run and isolation timings.
    pub const LAYERS: Plan = Plan {
        closed: 3,
        paced: 1,
        layers: true,
    };
    /// The full suite: both of the above in one measurement.
    pub const FULL: Plan = Plan {
        closed: 5,
        paced: 7,
        layers: true,
    };
    pub const SMOKE: Plan = Plan {
        closed: 1,
        paced: 1,
        layers: true,
    };
}

/// How long a paced run lasts at `RUN_SECONDS`.
const PACED_SECONDS: f64 = 1.2;

/// One invocation must end well inside the caller's 180 s limit even if
/// runs hang: past this, remaining runs are counted failed, not started.
const INVOCATION_BUDGET: Duration = Duration::from_secs(140);

#[derive(Debug)]
pub struct Measured {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs equal the oracle's on every run and the workload had the
    /// shape its metrics rely on.
    pub correct: bool,
    /// Why the measurement is not correct; empty when it is.
    pub notes: Vec<String>,
    /// Observations that do not bear on correctness.
    pub remarks: Vec<String>,
    /// `(metric, value, samples behind it)`, every declared metric in order.
    pub end_to_end: Vec<(&'static str, f64, usize)>,
    /// Every declared per-layer metric in order; empty unless planned.
    pub per_layer: Vec<(&'static str, f64)>,
}

fn run_child(
    w: &Workload,
    kind: Kind,
    seed: u64,
    events: usize,
    deadline: Duration,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--one-run", w.name, kind.name()])
        .args([seed.to_string(), events.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Read concurrently: a report larger than the pipe buffer would
    // otherwise block the child before it can exit.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "killed at its {:.0} s deadline",
                    deadline.as_secs_f64()
                ));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("wait: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "the report reader panicked".to_string())?
        .map_err(|e| format!("read report: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    RunReport::read(&text)
}

/// Events of one run of `kind`, and ten times the seed's expected wall.
/// A paced run feeds a prefix of the stream: what its fixed rate offers in
/// `PACED_SECONDS` when a closed-loop run is sized for `RUN_SECONDS`.
fn size_and_deadline(w: &Workload, kind: Kind, events: usize) -> (usize, Duration) {
    let events = if kind == Kind::Paced {
        let at_full_scale = w.paced_rate as f64 * PACED_SECONDS;
        ((at_full_scale * events as f64 / w.events as f64) as usize).clamp(1, events)
    } else {
        events
    };
    let run_s = match kind {
        Kind::Paced => events as f64 / w.paced_rate as f64,
        _ => events as f64 / w.seed_eps,
    };
    // Fixture generation and window ranges: about a microsecond per event.
    let expected_s = run_s + events as f64 * 1e-6;
    (events, Duration::from_secs_f64(10.0 * expected_s + 5.0))
}

struct Runs {
    closed: Vec<RunReport>,
    paced: Vec<RunReport>,
    inproc: Vec<RunReport>,
    traced: Option<RunReport>,
}

/// Checks one run's report against the oracle; returns failed operations
/// (windows whose complex events differ).
fn check_run(
    w: &Workload,
    kind: Kind,
    report: &RunReport,
    expected: &Oracle,
    notes: &mut Vec<String>,
) -> u64 {
    let queries = w.queries;
    let all = expected.windows * queries as u64;
    let label = format!("{} {}", w.name, kind.name());
    let value = |key: &str| report.get(key).unwrap_or(f64::NAN);
    if value("input_events") != value("events_offered") {
        notes.push(format!(
            "{label}: ingested {} of {} offered events",
            value("input_events"),
            value("events_offered")
        ));
        return all;
    }
    let mut failed = 0;
    for qid in 0..queries as u32 {
        let got: Vec<(u64, u64)> = report
            .outputs
            .iter()
            .filter(|(q, _, _)| *q == qid)
            .map(|(_, window, fp)| (*window, *fp))
            .collect();
        failed += fixture::failed_windows(&expected.outputs, &got);
    }
    if report
        .outputs
        .iter()
        .any(|(q, _, _)| *q as usize >= queries)
    {
        notes.push(format!("{label}: output from an unknown query"));
        failed = all;
    }
    if failed > 0 {
        notes.push(format!(
            "{label}: {failed} of {all} windows differ from the oracle"
        ));
    }
    if value("lag_min_ms") < 0.0 {
        notes.push(format!(
            "{label}: negative commit lag {} ms",
            value("lag_min_ms")
        ));
    }
    failed.min(all)
}

/// The workload shape the metrics rely on, asserted on a closed-loop run.
fn check_shape(w: &Workload, report: &RunReport, notes: &mut Vec<String>) {
    let value = |key: &str| report.get(key).unwrap_or(f64::NAN);
    let mut require = |ok: bool, what: &str| {
        if !ok {
            notes.push(format!("{}: shape violated: {what}", w.name));
        }
    };
    if w.consume {
        require(
            value("c.cgs_created") > 0.0,
            "consumption groups are created",
        );
    } else {
        require(value("c.cgs_created") == 0.0, "no consumption groups");
    }
    if w.name == "spec_complete" {
        require(
            value("c.versions_materialized") > 0.0,
            "versions_materialized > 0",
        );
        require(value("c.rollbacks") > 0.0, "rollbacks > 0");
    }
    if w.disorder {
        require(value("c.events_reordered") > 0.0, "events_reordered > 0");
        require(value("c.late_events_dropped") == 0.0, "no late events");
    }
    if w.socket {
        require(value("s.decode_errors") == 0.0, "decode_errors = 0");
    }
}

fn median_of(reports: &[RunReport], f: impl Fn(&RunReport) -> Option<f64>) -> (Option<f64>, usize) {
    let samples = stats::sorted(reports.iter().filter_map(f).collect());
    (stats::median(&samples), samples.len())
}

fn throughput(report: &RunReport) -> Option<f64> {
    Some(report.get("events_offered")? / report.get("wall_s")?)
}

pub fn measure(w: &'static Workload, seed: u64, events: usize, plan: Plan) -> Measured {
    let started = Instant::now();
    let fx = fixture::build(w, seed, events);
    // Paced runs feed a prefix of the stream, so they get their own oracle;
    // every other kind feeds all of it.
    let (paced_events, _) = size_and_deadline(w, Kind::Paced, events);
    let oracle_full = fixture::oracle(&fx.queries[0], &fx.in_order);
    let oracle_paced = fixture::oracle(&fx.queries[0], &fx.in_order[..paced_events]);
    let iso = plan.layers.then(|| layers::isolation(&fx, seed));
    drop(fx);

    // Kinds take turns: noise on a shared box comes in bursts of seconds,
    // and a burst should not land on every repeat of one kind.
    let mut per_kind = vec![(Kind::Closed, plan.closed), (Kind::Paced, plan.paced)];
    if plan.layers {
        per_kind.push((Kind::Traced, 1));
        if w.socket {
            // The hosted query in an in-process closed loop: the base of
            // `server.socket_ratio`, and the only place the socket
            // workload's saturated lag is observable.
            per_kind.push((Kind::Inproc, plan.paced.min(3)));
        }
    }
    let mut schedule = Vec::new();
    while per_kind.iter().any(|(_, left)| *left > 0) {
        for (kind, left) in &mut per_kind {
            if *left > 0 {
                *left -= 1;
                schedule.push(*kind);
            }
        }
    }

    let mut runs = Runs {
        closed: Vec::new(),
        paced: Vec::new(),
        inproc: Vec::new(),
        traced: None,
    };
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for kind in schedule {
        let (size, deadline) = size_and_deadline(w, kind, events);
        let expected = if kind == Kind::Paced {
            &oracle_paced
        } else {
            &oracle_full
        };
        let per_run = expected.windows * w.queries as u64;
        attempted += per_run;
        let outcome = if started.elapsed() > INVOCATION_BUDGET {
            Err("not started: the invocation is out of time".to_string())
        } else {
            run_child(w, kind, seed, size, deadline)
        };
        let report = match outcome {
            Ok(report) => report,
            Err(why) => {
                notes.push(format!("{} {} run failed: {why}", w.name, kind.name()));
                failed += per_run;
                continue;
            }
        };
        let run_failed = check_run(w, kind, &report, expected, &mut notes);
        failed += run_failed;
        if run_failed > 0 {
            continue;
        }
        match kind {
            Kind::Closed => {
                check_shape(w, &report, &mut notes);
                runs.closed.push(report);
            }
            Kind::Paced => runs.paced.push(report),
            Kind::Inproc => runs.inproc.push(report),
            Kind::Traced => runs.traced = Some(report),
        }
    }

    // End-to-end metrics, from untraced runs only.
    let setup_runs: Vec<&RunReport> = if w.socket {
        runs.closed.iter().collect()
    } else {
        runs.closed.iter().chain(&runs.paced).collect()
    };
    let setup = stats::sorted(setup_runs.iter().filter_map(|r| r.get("setup_s")).collect());
    let (eps, eps_n) = median_of(&runs.closed, throughput);
    let (cpu, cpu_n) = median_of(&runs.closed, |r| {
        Some(r.get("cpu_s")? * 1e6 / r.get("events_offered")?)
    });
    let (p50, p50_n) = median_of(&runs.paced, |r| r.get("lag_p50_ms"));
    let values = [
        (stats::median(&setup), setup.len()),
        (eps, eps_n),
        (cpu, cpu_n),
        (p50, p50_n),
    ];
    let mut end_to_end = Vec::new();
    for (metric, (value, n)) in END_TO_END.iter().zip(values) {
        if value.is_none() {
            notes.push(format!("{}: no sample for {}", w.name, metric.name));
        }
        end_to_end.push((metric.name, value.unwrap_or(0.0), n));
    }
    let mut remarks = Vec::new();
    for run in &runs.paced {
        if run.get("push_full").unwrap_or(0.0) > 0.0 {
            remarks.push(format!(
                "{}: the paced rate was not sustained ({} Full results)",
                w.name,
                run.get("push_full").unwrap_or(0.0)
            ));
        }
    }

    let per_layer = match iso {
        Some(iso) => layer_table(w, &runs, &iso, eps),
        None => Vec::new(),
    };
    Measured {
        workload: w.name,
        attempted,
        failed,
        correct: notes.is_empty(),
        notes,
        remarks,
        end_to_end,
        per_layer,
    }
}

fn layer_table(
    w: &Workload,
    runs: &Runs,
    iso: &[(&'static str, f64)],
    eps: Option<f64>,
) -> Vec<(&'static str, f64)> {
    let mut table: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = table
            .iter_mut()
            .find(|row| row.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    };
    for (name, value) in iso {
        set(name, *value);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sequential = iso
        .iter()
        .find(|row| row.0 == "baselines.sequential.eps")
        .map_or(0.0, |row| row.1);
    set(
        "baselines.sequential.speedup",
        ratio(eps.unwrap_or(0.0), sequential),
    );

    // Counters of the closed-loop run with the median throughput.
    let mut by_eps: Vec<&RunReport> = runs.closed.iter().collect();
    by_eps.sort_by(|a, b| {
        throughput(a)
            .unwrap_or(0.0)
            .total_cmp(&throughput(b).unwrap_or(0.0))
    });
    if let Some(run) = by_eps.get(by_eps.len() / 2) {
        let c = |key: &str| run.get(key).unwrap_or(0.0);
        let input = c("input_events");
        for (metric, key) in [
            ("core.reorder.events_reordered", "c.events_reordered"),
            ("core.reorder.late_events_dropped", "c.late_events_dropped"),
            ("core.reorder.watermarks_advanced", "c.watermarks_advanced"),
            ("core.splitter.sched_cycles", "c.sched_cycles"),
            ("core.splitter.windows_retired", "c.windows_retired"),
            ("core.splitter.windows_skipped", "c.windows_skipped"),
            (
                "core.splitter.store_windows_opened",
                "c.store_windows_opened",
            ),
            ("core.tree.cgs_created", "c.cgs_created"),
            ("core.tree.cgs_completed", "c.cgs_completed"),
            ("core.tree.cgs_abandoned", "c.cgs_abandoned"),
            ("core.tree.versions_created", "c.versions_created"),
            ("core.tree.versions_dropped", "c.versions_dropped"),
            ("core.tree.versions_materialized", "c.versions_materialized"),
            ("core.tree.lazy_versions_dropped", "c.lazy_versions_dropped"),
            ("core.tree.peak_versions", "c.max_tree_versions"),
            ("core.tree.rollbacks", "c.rollbacks"),
            ("core.markov.refreshes", "c.predictor_refreshes"),
            ("core.instance.events_processed", "c.events_processed"),
            ("core.instance.events_suppressed", "c.events_suppressed"),
            ("core.instance.idle_steps", "c.idle_steps"),
            ("core.instance.stalled_steps", "c.stalled_steps"),
            ("server.conn.frames", "s.frames"),
            ("server.conn.decode_errors", "s.decode_errors"),
            ("server.feed.credits_granted", "s.credits_granted"),
            ("server.feed.seq_gaps_skipped", "s.seq_gaps_skipped"),
            ("server.feed.seq_stale_dropped", "s.seq_stale_dropped"),
            ("server.middleware.rate_dropped", "s.rate_dropped"),
            ("server.client.throttled_ms", "s.throttled_ms"),
        ] {
            set(metric, c(key));
        }
        set(
            "core.splitter.events_per_cycle",
            ratio(input, c("c.sched_cycles")),
        );
        set(
            "core.tree.version_survival_ratio",
            ratio(
                c("c.versions_created") - c("c.versions_dropped"),
                c("c.versions_created"),
            ),
        );
        set(
            "core.markov.refresh_ms_total",
            c("c.predictor_refresh_nanos") / 1e6,
        );
        set(
            "core.instance.work_amplification",
            ratio(c("c.events_processed"), input),
        );
        set(
            "core.instance.worker_skew",
            ratio(c("w.max_processed"), c("w.min_processed")),
        );
        set(
            "server.feed.events_per_credit",
            ratio(c("s.events"), c("s.credits_granted")),
        );
    }

    if let Some(run) = &runs.traced {
        let t = |key: &str| run.get(key).unwrap_or(0.0);
        let offered = t("events_offered");
        if w.socket {
            set("server.start_ms", t("t.server_start_ms"));
            set(
                "server.client.send_ns_per_event",
                ratio(t("t.send_ns"), offered),
            );
            set("server.client.finish_ms", t("t.client_finish_ms"));
            set("server.drain_ms", t("t.server_drain_ms"));
            set("server.http.scrape_p50_ms", t("t.scrape_p50_ms"));
            set("server.control.ping_p50_ms", t("t.ping_p50_ms"));
        } else {
            set(
                "core.engine.push_ns_per_event",
                ratio(t("t.push_self_ns"), offered),
            );
            set(
                "core.engine.push_full_ratio",
                ratio(t("push_full"), t("push_attempts")),
            );
            set(
                "core.engine.drain_ns_per_output",
                ratio(t("t.drain_self_ns"), run.outputs.len() as f64),
            );
            set("core.engine.finish_ms", t("t.finish_ms"));
            set("core.engine.build_ms", t("t.build_ms"));
        }
        set(
            "bench.trace_overhead_ratio",
            ratio(throughput(run).unwrap_or(0.0), eps.unwrap_or(0.0)),
        );
    }
    if let (Some(socket), (Some(inproc), _)) = (eps, median_of(&runs.inproc, throughput)) {
        set("server.socket_ratio", ratio(socket, inproc));
    }

    let saturated = if w.socket { &runs.inproc } else { &runs.closed };
    let (sat_lag, _) = median_of(saturated, |r| r.get("lag_p50_ms"));
    set("bench.sat_lag_p50_ms", sat_lag.unwrap_or(0.0));
    let paced = |key: &str| median_of(&runs.paced, |r| r.get(key)).0.unwrap_or(0.0);
    set("bench.paced_gen_late_p99_ms", paced("gen_late_p99_ms"));
    set("bench.lag_p90_ms", paced("lag_p90_ms"));
    set("bench.lag_p99_ms", paced("lag_p99_ms"));
    set("bench.lag_max_ms", paced("lag_max_ms"));
    let (full, attempts) = runs.paced.iter().fold((0.0, 0.0), |(f, a), r| {
        (
            f + r.get("push_full").unwrap_or(0.0),
            a + r.get("push_attempts").unwrap_or(0.0),
        )
    });
    set("bench.paced_full_ratio", ratio(full, attempts));
    let closed_eps = stats::sorted(runs.closed.iter().filter_map(throughput).collect());
    set(
        "bench.closed_iqr_ratio",
        stats::iqr_ratio(&closed_eps).unwrap_or(0.0),
    );
    table
}

/// Events of one closed-loop run when a run measures for `seconds`.
pub fn scaled_events(w: &Workload, seconds: u64) -> usize {
    (w.events as u64 * seconds / RUN_SECONDS).max(10_000) as usize
}

/// `<workload> <metric> <value> <unit>`, one line per metric measured.
pub fn print_lines(m: &Measured) {
    for ((name, value, n), spec) in m.end_to_end.iter().zip(&END_TO_END) {
        println!("{} {name} {value} {} (n={n})", m.workload, spec.unit);
    }
    for ((name, value), spec) in m.per_layer.iter().zip(&PER_LAYER) {
        println!("{} {name} {value} {}", m.workload, spec.1);
    }
    println!("{} attempted {} count", m.workload, m.attempted);
    println!("{} failed {} count", m.workload, m.failed);
    for note in m.notes.iter().chain(&m.remarks) {
        println!("# {note}");
    }
}

/// The driver's result object: the last line of standard output.
pub fn result_line(m: &Measured, per_layer: bool) -> String {
    let metric = |name: &str, value: f64, unit: &str| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::num(value),
            json::quote(unit)
        )
    };
    let metrics: Vec<String> = if per_layer {
        let rows = m.per_layer.iter().zip(&PER_LAYER);
        rows.map(|((name, value), spec)| metric(name, *value, spec.1))
            .collect()
    } else {
        let rows = m.end_to_end.iter().zip(&END_TO_END);
        rows.map(|((name, value, _), spec)| metric(name, *value, spec.unit))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}
