//! What the instrument measures: the six workloads, the four end-to-end
//! metrics with their bounds, and the per-layer metric table. `manifest()`
//! renders the same tables as `/BENCHMARK.json`; a self-test keeps the
//! checked-in file equal to it, so a name exists in exactly one place.

/// Operator instances of every session. Pinned: on the 2-core sandbox
/// k ∈ {4, 8} hung in 3–4 % of runs while sizing this benchmark (README).
pub const INSTANCES: usize = 2;
/// Events per push chunk: the unit of pacing, stamping and `push_chunk` spans.
pub const CHUNK: usize = 64;
/// NYSE generator shape shared by every workload.
pub const SYMBOLS: usize = 300;
pub const LEADERS: usize = 16;
/// One symbol slot of the generator in timestamp ticks (one minute / symbols).
pub const SLOT_TICKS: u64 = 60_000 / SYMBOLS as u64;
/// Bounded lateness of the `disorder` workload, in symbol slots.
pub const DISORDER_SLOTS: u64 = 1024;
/// How long one run measures when the caller does not say (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;
/// Isolation timings use at most this many events of the workload's stream.
pub const ISO_EVENTS: usize = 1_000_000;
/// Set-ups a child rehearses before the one its run uses; `setup_s` is the
/// median of all of them.
pub const SETUP_REHEARSALS: usize = 14;
/// How long a child spins its cores before the timed part of a run.
pub const WARM_UP_MS: u64 = 50;
/// Scrape and ping cadence of the socket workload.
pub const SIDE_READ_EVERY_MS: u64 = 250;

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Q1 pattern length (RE steps after the MLE).
    pub q: usize,
    /// Q1's consumption policy (`All`) on, or `None` for the data-path query.
    pub consume: bool,
    /// Same-spec copies of the query hosted in one session.
    pub queries: usize,
    pub disorder: bool,
    pub socket: bool,
    /// Events of one closed-loop run at `RUN_SECONDS`; sized on the seed so
    /// the run lasts ≈ 1.4 s. Scales linearly with `--seconds`.
    pub events: usize,
    /// Open-loop rate in events/s: at most half the seed's saturation, and
    /// low enough that the lag repeats from run to run.
    pub paced_rate: u64,
    /// The seed's closed-loop throughput, used only to size run deadlines.
    pub seed_eps: f64,
}

pub const WS: u64 = 200;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "datapath",
        why: "Q1 q=3 without consumption: splitter ingest, store and instance hand-off do all the work; speculation, predictor, reorder and server do none",
        q: 3,
        consume: false,
        queries: 1,
        disorder: false,
        socket: false,
        events: 2_400_000,
        paced_rate: 250_000,
        seed_eps: 2_400_000.0,
    },
    Workload {
        name: "spec_complete",
        why: "Q1 q=40 with consumption: groups likely complete, so completion branches are scheduled, materialized and sometimes rolled back; the paper's central bet runs only here",
        q: 40,
        consume: true,
        queries: 1,
        disorder: false,
        socket: false,
        events: 400_000,
        paced_rate: 150_000,
        seed_eps: 290_000.0,
    },
    Workload {
        name: "spec_abandon",
        why: "Q1 q=130 with consumption: every group abandons, lazy thunks drop unmaterialized and the Markov predictor refreshes; the tree used the other way round",
        q: 130,
        consume: true,
        queries: 1,
        disorder: false,
        socket: false,
        events: 100_000,
        paced_rate: 35_000,
        seed_eps: 74_000.0,
    },
    Workload {
        name: "multi_4q",
        why: "four same-spec datapath queries in one session: registry fan-out, per-query prefilters, refcounted shared windows and top-k merge do the extra work",
        q: 3,
        consume: false,
        queries: 4,
        disorder: false,
        socket: false,
        events: 1_000_000,
        paced_rate: 250_000,
        seed_eps: 750_000.0,
    },
    Workload {
        name: "disorder",
        why: "datapath query on a stream shuffled within 1024 symbol slots with the reorder stage on: core::reorder does the added work and does none elsewhere",
        q: 3,
        consume: false,
        queries: 1,
        disorder: true,
        socket: false,
        events: 1_800_000,
        paced_rate: 400_000,
        seed_eps: 2_200_000.0,
    },
    Workload {
        name: "socket_2c",
        why: "datapath query behind Server::start, two FeedClients over loopback with scrapes and pings beside the writes: codec, conn, feed, middleware and sequencer do most of the work",
        q: 3,
        consume: false,
        queries: 1,
        disorder: false,
        socket: true,
        events: 500_000,
        paced_rate: 250_000,
        seed_eps: 380_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "lag_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit, higher is better)`. Module names are the layers.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    ("events.codec.encode_ns_per_event", "ns", false),
    ("events.codec.decode_ns_per_event", "ns", false),
    ("events.codec.bytes_per_event", "bytes", false),
    ("query.window.assign_ns_per_event", "ns", false),
    ("query.window.windows_opened", "count", false),
    ("query.filter.relevant_ns_per_event", "ns", false),
    ("baselines.sequential.eps", "1/s", true),
    ("baselines.sequential.speedup", "ratio", true),
    ("datasets.nyse.gen_ns_per_event", "ns", false),
    ("datasets.disorder.shuffle_ms", "ms", false),
    ("core.reorder.offer_pop_ns_per_event", "ns", false),
    ("core.reorder.peak_len", "count", false),
    ("core.reorder.events_reordered", "count", false),
    ("core.reorder.late_events_dropped", "count", false),
    ("core.reorder.watermarks_advanced", "count", false),
    ("core.engine.push_ns_per_event", "ns", false),
    ("core.engine.push_full_ratio", "ratio", false),
    ("core.engine.drain_ns_per_output", "ns", false),
    ("core.engine.finish_ms", "ms", false),
    ("core.engine.build_ms", "ms", false),
    ("core.splitter.sched_cycles", "count", false),
    ("core.splitter.events_per_cycle", "count", true),
    ("core.splitter.windows_retired", "count", true),
    ("core.splitter.windows_skipped", "count", true),
    ("core.splitter.store_windows_opened", "count", false),
    ("core.tree.cgs_created", "count", false),
    ("core.tree.cgs_completed", "count", true),
    ("core.tree.cgs_abandoned", "count", false),
    ("core.tree.versions_created", "count", false),
    ("core.tree.versions_dropped", "count", false),
    ("core.tree.versions_materialized", "count", false),
    ("core.tree.lazy_versions_dropped", "count", false),
    ("core.tree.peak_versions", "count", false),
    ("core.tree.rollbacks", "count", false),
    ("core.tree.version_survival_ratio", "ratio", true),
    ("core.markov.refreshes", "count", false),
    ("core.markov.refresh_ms_total", "ms", false),
    ("core.markov.refresh_ms", "ms", false),
    ("core.instance.events_processed", "count", false),
    ("core.instance.events_suppressed", "count", false),
    ("core.instance.work_amplification", "ratio", false),
    ("core.instance.idle_steps", "count", false),
    ("core.instance.stalled_steps", "count", false),
    ("core.instance.worker_skew", "ratio", false),
    ("server.start_ms", "ms", false),
    ("server.client.send_ns_per_event", "ns", false),
    ("server.client.throttled_ms", "ms", false),
    ("server.client.finish_ms", "ms", false),
    ("server.drain_ms", "ms", false),
    ("server.conn.frames", "count", false),
    ("server.conn.decode_errors", "count", false),
    ("server.feed.credits_granted", "count", false),
    ("server.feed.events_per_credit", "ratio", true),
    ("server.feed.seq_gaps_skipped", "count", false),
    ("server.feed.seq_stale_dropped", "count", false),
    ("server.middleware.rate_dropped", "count", false),
    ("server.http.scrape_p50_ms", "ms", false),
    ("server.control.ping_p50_ms", "ms", false),
    ("server.socket_ratio", "ratio", true),
    ("bench.paced_gen_late_p99_ms", "ms", false),
    ("bench.paced_full_ratio", "ratio", false),
    ("bench.sat_lag_p50_ms", "ms", false),
    ("bench.lag_p90_ms", "ms", false),
    ("bench.lag_p99_ms", "ms", false),
    ("bench.lag_max_ms", "ms", false),
    ("bench.trace_overhead_ratio", "ratio", true),
    ("bench.closed_iqr_ratio", "ratio", false),
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `/BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better(*higher)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &all {
            assert!(name_ok(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// The names the binary emits are these tables (`suite` prints nothing
    /// else), so the checked-in manifest must be exactly their rendering.
    #[test]
    fn checked_in_manifest_is_the_rendered_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest());
        let parsed = crate::json::parse(&on_disk).expect("manifest parses");
        let names = |key: &str| -> Vec<String> {
            parsed
                .get(key)
                .and_then(crate::json::Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(crate::json::Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads").len(), WORKLOADS.len());
        assert_eq!(names("end_to_end").len(), END_TO_END.len());
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
    }
}
