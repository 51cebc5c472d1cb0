//! One run of one workload, executed in a child process (`--one-run`): the
//! load generator, its stamps and spans, and the text it reports back.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectre_core::{MetricsSnapshot, PushResult, QueryId, SpectreEngine, TenantId};
use spectre_events::{Event, Schema};
use spectre_query::{ComplexEvent, Query};
use spectre_server::{FeedClient, IngestOrder, Server, ServerConfig, ServerCounters, ServerHandle};

use crate::fixture::{self, Fixture};
use crate::span::{self, Recorder, Span};
use crate::spec::{Workload, CHUNK, INSTANCES, SETUP_REHEARSALS, SIDE_READ_EVERY_MS, WARM_UP_MS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Push as fast as the system accepts, retrying on `Full`.
    Closed,
    /// Open loop at the workload's fixed rate; in-process sessions only.
    Paced,
    /// A closed-loop run with spans recorded.
    Traced,
    /// The socket workload's hosted query in an in-process closed loop: the
    /// server has no output subscription, so saturated lag is observable
    /// only there.
    Inproc,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Closed => "closed",
            Kind::Paced => "paced",
            Kind::Traced => "traced",
            Kind::Inproc => "inproc",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Closed, Kind::Paced, Kind::Traced, Kind::Inproc]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// What a run reports: named measurements and every output's identity.
#[derive(Debug, Default)]
pub struct RunReport {
    pub values: Vec<(String, f64)>,
    /// `(query id, window id, fingerprint)` in delivery order.
    pub outputs: Vec<(u32, u64, u64)>,
}

impl RunReport {
    fn set(&mut self, key: &str, value: f64) {
        self.values.push((key.to_string(), value));
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The child's stdout: `v <key> <value>`, `o <query> <window>
    /// <fingerprint>`, and a final `end` so a truncated report is
    /// recognisable.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (key, value) in &self.values {
            writeln!(out, "v {key} {value}")?;
        }
        for (qid, window, fp) in &self.outputs {
            writeln!(out, "o {qid} {window} {fp:x}")?;
        }
        writeln!(out, "end")
    }

    pub fn read(text: &str) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let mut complete = false;
        for line in text.lines() {
            let bad = || format!("unexpected line {line:?}");
            match line.split(' ').collect::<Vec<_>>()[..] {
                ["v", key, value] => {
                    report
                        .values
                        .push((key.to_string(), value.parse().map_err(|_| bad())?));
                }
                ["o", qid, window, fp] => report.outputs.push((
                    qid.parse().map_err(|_| bad())?,
                    window.parse().map_err(|_| bad())?,
                    u64::from_str_radix(fp, 16).map_err(|_| bad())?,
                )),
                ["end"] => complete = true,
                _ => return Err(bad()),
            }
        }
        if complete {
            Ok(report)
        } else {
            Err("the run's report is truncated".into())
        }
    }
}

/// Spins every core the session is about to use. A child spends its first
/// second generating the fixture on one thread; a core left idle that long
/// starts the run slow, the instances fall behind the pusher at once, and a
/// backlog that forms in the first milliseconds can outlast a short run.
fn warm_cores() {
    let until = Instant::now() + Duration::from_millis(WARM_UP_MS);
    std::thread::scope(|scope| {
        for _ in 0..=INSTANCES {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

pub fn execute(w: &Workload, kind: Kind, seed: u64, events: usize) -> Result<RunReport, String> {
    let fx = fixture::build(w, seed, events);
    let via_socket = w.socket && matches!(kind, Kind::Closed | Kind::Traced);
    let mut report = if via_socket {
        socket_run(w, kind, seed, fx)?
    } else {
        inproc_run(w, kind, seed, fx)?
    };
    report.set("events_offered", events as f64);
    Ok(report)
}

fn write_trace(w: &Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", w.name));
    let run_id = format!("{}-traced-{seed}", w.name);
    std::fs::write(&path, span::to_json(w.name, &run_id, spans))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn set_counters(report: &mut RunReport, m: &MetricsSnapshot) {
    for (key, value) in [
        ("c.events_processed", m.events_processed),
        ("c.events_suppressed", m.events_suppressed),
        ("c.cgs_created", m.cgs_created),
        ("c.cgs_completed", m.cgs_completed),
        ("c.cgs_abandoned", m.cgs_abandoned),
        ("c.versions_created", m.versions_created),
        ("c.versions_dropped", m.versions_dropped),
        ("c.versions_materialized", m.versions_materialized),
        ("c.lazy_versions_dropped", m.lazy_versions_dropped),
        ("c.predictor_refreshes", m.predictor_refreshes),
        ("c.predictor_refresh_nanos", m.predictor_refresh_nanos),
        ("c.rollbacks", m.rollbacks),
        ("c.sched_cycles", m.sched_cycles),
        ("c.max_tree_versions", m.max_tree_versions),
        ("c.windows_retired", m.windows_retired),
        ("c.idle_steps", m.idle_steps),
        ("c.stalled_steps", m.stalled_steps),
        ("c.store_windows_opened", m.store_windows_opened),
        ("c.windows_skipped", m.windows_skipped),
        ("c.events_reordered", m.events_reordered),
        ("c.late_events_dropped", m.late_events_dropped),
        ("c.watermarks_advanced", m.watermarks_advanced),
    ] {
        report.set(key, value as f64);
    }
}

/// What the load generator sees of a session from outside: the complex
/// events it drains, and when each window commits. Windows retire in id
/// order and a window's complex events are emitted in the same step, so
/// `metrics().windows_retired` passing a window's id is the instant its
/// output (if it has any) becomes drainable — observable for every window,
/// not only for the few that match in an abandon-heavy workload.
struct Observer {
    outputs: Vec<(u32, u64, u64)>,
    /// Instant (ns since the epoch) window `i` was seen committed.
    committed_ns: Vec<u64>,
    /// Hosted queries: each retires every window once, in step with the
    /// others, so the i-th window is committed after `queries·(i+1)` retirements.
    queries: u64,
}

impl Observer {
    fn take(&mut self, batch: impl IntoIterator<Item = (QueryId, ComplexEvent)>) {
        for (qid, ce) in batch {
            self.outputs
                .push((qid.0, ce.window_id, fixture::fingerprint(&ce)));
        }
    }

    fn commit_up_to(&mut self, retired: u64, at_ns: u64) {
        let committed = (retired / self.queries) as usize;
        if committed > self.committed_ns.len() {
            self.committed_ns.resize(committed, at_ns);
        }
    }

    /// Drains outputs, notes newly committed windows, returns the instant.
    fn poll(&mut self, engine: &mut SpectreEngine, rec: &Recorder) -> Result<u64, String> {
        let batch = engine.try_drain_outputs().map_err(|e| e.to_string())?;
        let retired = engine.metrics().windows_retired;
        let at_ns = rec.now_ns();
        self.take(batch);
        self.commit_up_to(retired, at_ns);
        Ok(at_ns)
    }
}

/// The workload's session: every hosted copy of the query, threaded, at
/// the pinned configuration.
fn build_session(w: &Workload, queries: &[Arc<Query>]) -> Result<SpectreEngine, String> {
    let mut builder = SpectreEngine::multi_builder();
    for (i, query) in queries.iter().enumerate() {
        // One tenant per hosted copy: at this commit the scheduler shares
        // slots fairly between tenants but starves every query after the
        // first *within* a tenant, until their pending windows reach the
        // version cap and the feed blocks for good (README, open findings).
        let tenant = if queries.len() == 1 {
            TenantId::DEFAULT
        } else {
            TenantId(i as u32 + 1)
        };
        builder.add_query_for(tenant, query);
    }
    builder
        .config(fixture::engine_config(w))
        .threaded()
        .try_build()
        .map_err(|e| e.to_string())
}

/// Sets the session up `SETUP_REHEARSALS` times — build, first event
/// accepted, torn down again — and returns each duration in seconds. The
/// first set-up of a process costs 0.1–0.2 ms of one-off thread start-up
/// that scatters by half; the rehearsed ones repeat within a few percent,
/// and anything a commit moves into `try_build` shows in all of them.
fn rehearse_setup(w: &Workload, queries: &[Arc<Query>], first: &Event) -> Result<Vec<f64>, String> {
    let mut seconds = Vec::with_capacity(SETUP_REHEARSALS);
    for _ in 0..SETUP_REHEARSALS {
        let started = Instant::now();
        let mut engine = build_session(w, queries)?;
        let accepted = engine.try_push(first.clone()).map_err(|e| e.to_string())?;
        seconds.push(started.elapsed().as_secs_f64());
        if !accepted.is_accepted() {
            return Err("a fresh session refused its first event".into());
        }
        drop(engine); // joins the workers
    }
    Ok(seconds)
}

fn inproc_run(w: &Workload, kind: Kind, seed: u64, fx: Fixture) -> Result<RunReport, String> {
    let traced = kind == Kind::Traced;
    let paced = kind == Kind::Paced;
    let closing = fixture::closing_positions(&fx.queries[0], &fx.in_order);
    let mut report = RunReport::default();
    // Feed order; `feed_index[seq]` is where the event with that sequence
    // number sits in it (identity unless shuffled).
    let (fed, feed_index) = if w.disorder {
        let (fed, _) = fixture::shuffled(&fx.in_order, seed);
        let mut index = vec![0usize; fed.len()];
        for (i, ev) in fed.iter().enumerate() {
            index[ev.seq() as usize] = i;
        }
        (fed, Some(index))
    } else {
        (fx.in_order, None)
    };
    let total = fed.len();
    let chunks = total.div_ceil(CHUNK);
    let chunk_period_ns = CHUNK as f64 * 1e9 / w.paced_rate as f64;

    warm_cores();
    let mut setups = rehearse_setup(w, &fx.queries, &fed[0])?;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let cpu_before = stats::process_cpu_seconds();
    let build_start = rec.now_ns();
    let mut engine = build_session(w, &fx.queries)?;
    let build_end = rec.now_ns();

    let mut seen = Observer {
        outputs: Vec::new(),
        committed_ns: Vec::with_capacity(closing.len()),
        queries: fx.queries.len() as u64,
    };
    // Closed loop: instant each chunk was accepted. Paced: instant it was due.
    let mut stamps: Vec<u64> = Vec::with_capacity(chunks);
    let mut late_ns: Vec<f64> = Vec::new();
    let (mut attempts, mut full) = (0u64, 0u64);
    let mut setup_end = None;
    let first_push = rec.now_ns();
    let mut source = fed.into_iter();
    for chunk in 0..chunks {
        if paced {
            let due = first_push + (chunk as f64 * chunk_period_ns) as u64;
            // An idle driver keeps the session progressing between arrivals.
            while rec.now_ns() < due {
                seen.poll(&mut engine, &rec)?;
            }
            late_ns.push((rec.now_ns() - due) as f64);
            stamps.push(due);
        }
        let push_start = rec.now_ns();
        for mut event in source.by_ref().take(CHUNK) {
            loop {
                attempts += 1;
                match engine.try_push(event).map_err(|e| e.to_string())? {
                    PushResult::Accepted => break,
                    PushResult::Full(back) => {
                        full += 1;
                        event = back;
                    }
                }
            }
            if setup_end.is_none() {
                setup_end = Some(rec.now_ns());
            }
        }
        let push_end = rec.now_ns();
        if !paced {
            stamps.push(push_end);
        }
        let drain_end = seen.poll(&mut engine, &rec)?;
        if traced {
            rec.spans
                .push(Span::under_root("push_chunk", push_start, push_end));
            rec.spans
                .push(Span::under_root("drain", push_end, drain_end));
        }
    }
    let finish_start = rec.now_ns();
    let session = engine.try_finish().map_err(|e| e.to_string())?;
    let finish_end = rec.now_ns();
    let cpu_after = stats::process_cpu_seconds();
    for (qid, query) in session.queries {
        seen.take(query.complex_events.into_iter().map(|ce| (qid, ce)));
    }
    seen.commit_up_to(session.metrics.windows_retired, finish_end);

    // Commit lag per window, from the event that closes it.
    let mut lags_ms = Vec::with_capacity(closing.len());
    for (at_ns, close) in seen.committed_ns.iter().zip(&closing) {
        let Some(pos) = close else {
            continue; // tail window: only the end of the stream closes it
        };
        let fed_at = feed_index.as_ref().map_or(*pos, |index| index[*pos]);
        lags_ms.push((*at_ns as f64 - stamps[fed_at / CHUNK] as f64) / 1e6);
    }
    let lags_ms = stats::sorted(lags_ms);

    let wall_s = (finish_end - first_push) as f64 / 1e9;
    report.set("wall_s", wall_s);
    report.set("cpu_s", cpu_after - cpu_before);
    setups.push((setup_end.unwrap_or(build_end) - build_start) as f64 / 1e9);
    report.set(
        "setup_s",
        stats::median(&stats::sorted(setups)).unwrap_or(0.0),
    );
    report.set("input_events", session.input_events as f64);
    report.set("push_attempts", attempts as f64);
    report.set("push_full", full as f64);
    if let Some(p50) = stats::percentile(&lags_ms, 50.0) {
        report.set("lag_p50_ms", p50);
        report.set(
            "lag_p90_ms",
            stats::percentile(&lags_ms, 90.0).unwrap_or(p50),
        );
        report.set(
            "lag_p99_ms",
            stats::percentile(&lags_ms, 99.0).unwrap_or(p50),
        );
        report.set("lag_max_ms", lags_ms[lags_ms.len() - 1]);
        report.set("lag_min_ms", lags_ms[0]);
    }
    if paced {
        let late = stats::sorted(late_ns);
        report.set(
            "gen_late_p99_ms",
            stats::percentile(&late, 99.0).unwrap_or(0.0) / 1e6,
        );
    }
    set_counters(&mut report, &session.metrics);
    let per_worker: Vec<u64> = engine
        .worker_metrics()
        .iter()
        .map(|worker| worker.events_processed)
        .collect();
    report.set(
        "w.max_processed",
        per_worker.iter().copied().max().unwrap_or(0) as f64,
    );
    report.set(
        "w.min_processed",
        per_worker.iter().copied().min().unwrap_or(0) as f64,
    );
    if traced {
        // `run` is span 0; the chunk spans above named it as parent already.
        let mut spans = vec![
            Span::root(build_start, finish_end),
            Span::under_root("build", build_start, build_end),
        ];
        spans.extend(rec.spans);
        spans.push(Span::under_root("finish", finish_start, finish_end));
        report.set("t.build_ms", (build_end - build_start) as f64 / 1e6);
        report.set("t.push_self_ns", span::self_ns(&spans, "push_chunk") as f64);
        report.set("t.drain_self_ns", span::self_ns(&spans, "drain") as f64);
        report.set("t.finish_ms", (finish_end - finish_start) as f64 / 1e6);
        write_trace(w, seed, &spans)?;
    }
    report.outputs = seen.outputs;
    Ok(report)
}

/// One GET of the Prometheus endpoint, response read to the end.
fn scrape(addr: SocketAddr) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body)?;
    Ok(body.len())
}

/// What one feeding client thread hands back.
struct ClientDone {
    rec: Recorder,
    throttled_ns: u64,
}

fn client_thread(
    mut client: FeedClient,
    events: &[Event],
    lane: u64,
    skip_first: bool,
    mut rec: Recorder,
    traced: bool,
) -> Result<ClientDone, String> {
    let mine = events
        .iter()
        .filter(|e| e.seq() % 2 == lane)
        .skip(usize::from(skip_first));
    let mut sent_in_chunk = 0usize;
    let mut chunk_start = rec.now_ns();
    for event in mine {
        client.send_event(event).map_err(|e| e.to_string())?;
        sent_in_chunk += 1;
        if sent_in_chunk == CHUNK {
            if traced {
                rec.record("send_chunk", chunk_start, Some(0));
            }
            sent_in_chunk = 0;
            chunk_start = rec.now_ns();
        }
    }
    if traced && sent_in_chunk > 0 {
        rec.record("send_chunk", chunk_start, Some(0));
    }
    let throttled_ns = client.throttled_nanos();
    let finish_start = rec.now_ns();
    client.finish().map_err(|e| e.to_string())?;
    if traced {
        rec.record("client_finish", finish_start, Some(0));
    }
    Ok(ClientDone { rec, throttled_ns })
}

/// Scrapes `/metrics` and pings the control socket on a fixed cadence
/// while the clients write — reads beside writes.
fn side_reader(
    http: SocketAddr,
    control: SocketAddr,
    stop: &AtomicBool,
    mut rec: Recorder,
) -> Result<Recorder, String> {
    let ctl = TcpStream::connect(control).map_err(|e| e.to_string())?;
    ctl.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut ctl_write = ctl.try_clone().map_err(|e| e.to_string())?;
    let mut ctl_read = BufReader::new(ctl);
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        next += Duration::from_millis(SIDE_READ_EVERY_MS);
        let start = rec.now_ns();
        scrape(http).map_err(|e| format!("scrape: {e}"))?;
        rec.record("scrape", start, Some(0));
        let start = rec.now_ns();
        ctl_write
            .write_all(b"PING\n")
            .map_err(|e| format!("ping: {e}"))?;
        let mut reply = String::new();
        ctl_read
            .read_line(&mut reply)
            .map_err(|e| format!("ping: {e}"))?;
        if !reply.starts_with("OK") {
            return Err(format!("control socket answered {reply:?}"));
        }
        rec.record("ping", start, Some(0));
    }
    Ok(rec)
}

/// A started server with both clients connected and the first event sent.
struct Hosted {
    handle: ServerHandle,
    clients: Vec<FeedClient>,
    /// Instants (ns on the recorder's clock) `Server::start` returned and
    /// the first `send_event` began.
    started: u64,
    first_push: u64,
}

/// `Server::start`, both clients' `HELLO`, and the first event accepted:
/// `send_event` returns once the server's first credit grant covers it.
fn start_server(
    w: &Workload,
    schema: &Schema,
    query: &Arc<Query>,
    first: &Event,
    rec: &Recorder,
) -> Result<Hosted, String> {
    let config = ServerConfig {
        engine: fixture::engine_config(w),
        threaded: true,
        order: IngestOrder::Seq,
        ..ServerConfig::default()
    };
    let handle = Server::start(
        config,
        schema.clone(),
        vec![(TenantId::DEFAULT, Arc::clone(query))],
    )
    .map_err(|e| e.to_string())?;
    let started = rec.now_ns();
    let mut clients = Vec::new();
    for _ in 0..2 {
        clients.push(FeedClient::connect(handle.ingest_addr(), 0).map_err(|e| e.to_string())?);
    }
    let first_push = rec.now_ns();
    clients[0].send_event(first).map_err(|e| e.to_string())?;
    Ok(Hosted {
        handle,
        clients,
        started,
        first_push,
    })
}

fn socket_run(w: &Workload, kind: Kind, seed: u64, fx: Fixture) -> Result<RunReport, String> {
    let traced = kind == Kind::Traced;
    let mut report = RunReport::default();
    let events = fx.in_order;
    warm_cores();
    // Rehearsed set-ups, as in-process (see `rehearse_setup`): start, both
    // HELLOs, first event accepted, then the clients finish and the server
    // drains again.
    let mut setups = Vec::with_capacity(SETUP_REHEARSALS + 1);
    for _ in 0..SETUP_REHEARSALS {
        let rehearsal = Recorder::new(Instant::now(), 0);
        let hosted = start_server(w, &fx.schema, &fx.queries[0], &events[0], &rehearsal)?;
        setups.push(rehearsal.now_ns() as f64 / 1e9);
        for client in hosted.clients {
            client.finish().map_err(|e| e.to_string())?;
        }
        hosted.handle.join().map_err(|e| e.to_string())?;
    }
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let cpu_before = stats::process_cpu_seconds();
    let start = rec.now_ns();
    let hosted = start_server(w, &fx.schema, &fx.queries[0], &events[0], &rec)?;
    let setup_end = rec.now_ns();
    let Hosted {
        handle,
        mut clients,
        started,
        first_push,
    } = hosted;
    let counters: Arc<ServerCounters> = handle.counters();

    let stop = AtomicBool::new(false);
    let (http, control) = (handle.http_addr(), handle.control_addr());
    let (done, side) = std::thread::scope(|scope| {
        let side = scope.spawn(|| side_reader(http, control, &stop, Recorder::new(epoch, 3)));
        let feeders: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(lane, client)| {
                let events = &events;
                let rec = Recorder::new(epoch, lane as u32 + 1);
                scope.spawn(move || {
                    client_thread(client, events, lane as u64, lane == 0, rec, traced)
                })
            })
            .collect();
        let done: Vec<_> = feeders
            .into_iter()
            .map(|t| t.join().map_err(|_| "a client thread panicked".to_string()))
            .collect();
        stop.store(true, Ordering::Release);
        let side = side
            .join()
            .map_err(|_| "the side reader panicked".to_string());
        (done, side)
    });
    let drain_start = rec.now_ns();
    handle.drain();
    let outcome = handle.join().map_err(|e| e.to_string())?;
    let end = rec.now_ns();
    let cpu_after = stats::process_cpu_seconds();

    let mut throttled_ns = 0u64;
    let mut spans = vec![
        Span::root(start, end),
        Span::under_root("server_start", start, started),
    ];
    for client in done {
        let client = client??;
        throttled_ns += client.throttled_ns;
        rec.merge(client.rec);
    }
    rec.merge(side??);
    spans.extend(rec.spans);
    spans.push(Span::under_root("server_drain", drain_start, end));

    report.set("wall_s", (end - first_push) as f64 / 1e9);
    report.set("cpu_s", cpu_after - cpu_before);
    setups.push((setup_end - start) as f64 / 1e9);
    report.set(
        "setup_s",
        stats::median(&stats::sorted(setups)).unwrap_or(0.0),
    );
    report.set("input_events", outcome.report.input_events as f64);
    set_counters(&mut report, &outcome.report.metrics);
    for (key, counter) in [
        ("s.frames", &counters.frames),
        ("s.events", &counters.events),
        ("s.decode_errors", &counters.decode_errors),
        ("s.credits_granted", &counters.credits_granted),
        ("s.seq_gaps_skipped", &counters.seq_gaps_skipped),
        ("s.seq_stale_dropped", &counters.seq_stale_dropped),
        ("s.rate_dropped", &counters.rate_dropped),
    ] {
        report.set(key, ServerCounters::get(counter) as f64);
    }
    report.set("s.throttled_ms", throttled_ns as f64 / 1e6);
    if traced {
        report.set("t.server_start_ms", (started - start) as f64 / 1e6);
        report.set("t.send_ns", span::self_ns(&spans, "send_chunk") as f64);
        let finishes = stats::sorted(span::durations_ms(&spans, "client_finish"));
        report.set(
            "t.client_finish_ms",
            finishes.last().copied().unwrap_or(0.0),
        );
        report.set("t.server_drain_ms", (end - drain_start) as f64 / 1e6);
        let scrapes = stats::sorted(span::durations_ms(&spans, "scrape"));
        report.set("t.scrape_p50_ms", stats::median(&scrapes).unwrap_or(0.0));
        let pings = stats::sorted(span::durations_ms(&spans, "ping"));
        report.set("t.ping_p50_ms", stats::median(&pings).unwrap_or(0.0));
        write_trace(w, seed, &spans)?;
    }
    for (qid, outputs) in &outcome.outputs {
        report.outputs.extend(
            outputs
                .iter()
                .map(|ce| (qid.0, ce.window_id, fixture::fingerprint(ce))),
        );
    }
    Ok(report)
}
