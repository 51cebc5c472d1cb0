//! End-to-end tests of the spectre-server front-end: N loopback clients
//! streaming strided slices of one seeded stream must merge back into a
//! session bit-identical to a solo engine fed the ordered stream; a
//! client dying mid-stream must leave the survivors undisturbed; watermark
//! frames must drive the engine's reorder stage; the
//! rate limiter, idle timeout, panic isolation, `/metrics` sidecar, and
//! control plane must all hold up under real sockets.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spectre_baselines::run_sequential;
use spectre_core::{
    QueryId, ReorderConfig, SpectreConfig, SpectreEngine, TenantId, WatermarkPolicy,
};
use spectre_datasets::{bounded_shuffle, max_disorder, NyseConfig, NyseGenerator};
use spectre_events::codec::{DecodeError, MAX_FRAME_LEN};
use spectre_events::{AttrKey, Event, Schema, Value};
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, Query};
use spectre_server::{
    FeedClient, IngestOrder, OverLimitPolicy, RateLimitConfig, Server, ServerConfig, ServerError,
    ServerOutcome,
};

/// A seeded NYSE stream plus two queries on different tenants.
fn fixture(events: usize, seed: u64) -> (Schema, Arc<Query>, Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
    let a = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    let b = Arc::new(queries::q1(&mut schema, 2, 100, Direction::Rising));
    (schema, a, b, events)
}

/// The solo reference: one engine, the ordered stream, end-of-stream.
fn solo_outputs(
    queries: &[(TenantId, Arc<Query>)],
    config: SpectreConfig,
    events: &[Event],
) -> BTreeMap<QueryId, Vec<ComplexEvent>> {
    let mut builder = SpectreEngine::multi_builder();
    for (tenant, query) in queries {
        builder.add_query_for(*tenant, query);
    }
    let report = builder
        .config(config)
        .try_build()
        .unwrap()
        .run(events.to_vec())
        .unwrap();
    report
        .queries
        .into_iter()
        .map(|(qid, qr)| (qid, qr.complex_events))
        .collect()
}

/// Streams the `index`-of-`stride` slice from its own thread.
fn spawn_client(
    addr: std::net::SocketAddr,
    tenant: u32,
    events: Vec<Event>,
    index: u64,
    stride: u64,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut client = FeedClient::connect(addr, tenant).expect("connect");
        let mut sent = 0u64;
        for event in &events {
            if event.seq() % stride != index {
                continue;
            }
            client.send_event(event).expect("send");
            sent += 1;
        }
        client.finish().expect("finish");
        sent
    })
}

fn drain_and_join(handle: spectre_server::ServerHandle) -> ServerOutcome {
    handle.drain();
    handle.join().expect("server drains cleanly")
}

#[test]
fn strided_clients_merge_bit_identical_to_solo_across_the_matrix() {
    let (schema, a, b, events) = fixture(3_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a)), (TenantId(3), Arc::clone(&b))];
    for k in [1usize, 2] {
        let config = SpectreConfig::with_instances(k);
        let expected = solo_outputs(&queries, config.clone(), &events);
        let cfg = ServerConfig {
            engine: config,
            order: IngestOrder::Seq,
            ..ServerConfig::default()
        };
        let handle = Server::start(cfg, schema.clone(), queries.clone()).expect("server starts");
        let clients: Vec<_> = (0..3)
            .map(|i| spawn_client(handle.ingest_addr(), 0, events.clone(), i, 3))
            .collect();
        let sent: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
        assert_eq!(sent, events.len() as u64);
        let outcome = drain_and_join(handle);
        assert_eq!(outcome.report.input_events, events.len() as u64);
        for (qid, expected_outputs) in &expected {
            let got = outcome.outputs.get(qid).map(Vec::as_slice).unwrap_or(&[]);
            assert_same_output(&format!("server {qid} k={k}"), got, expected_outputs);
        }
    }
}

#[test]
fn a_spent_credit_window_never_waits_for_a_read_tick() {
    // A 64-event window against 20 k events: each client spends its window
    // hundreds of times before the feed thread has released anything. If a
    // grant ever waited for the connection's next read or tick, one such
    // wait alone would cost the 2 s `read_tick` this run must beat.
    const READ_TICK: Duration = Duration::from_secs(2);
    let (schema, a, _, events) = fixture(20_000, 23);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let expected = solo_outputs(&queries, SpectreConfig::default(), &events);
    // Two strided clients need the sequencer: the engine takes its input in
    // sequence order. Arrival order is a single client's.
    for (order, clients) in [(IngestOrder::Seq, 2u64), (IngestOrder::Arrival, 1)] {
        let cfg = ServerConfig {
            order,
            credit_window: 64,
            read_tick: READ_TICK,
            ..ServerConfig::default()
        };
        let handle = Server::start(cfg, schema.clone(), queries.clone()).expect("server starts");
        let counters = handle.counters();
        let started = Instant::now();
        let feeders: Vec<_> = (0..clients)
            .map(|i| spawn_client(handle.ingest_addr(), 0, events.clone(), i, clients))
            .collect();
        let sent: u64 = feeders.into_iter().map(|c| c.join().expect("client")).sum();
        let outcome = drain_and_join(handle);
        let took = started.elapsed();
        assert_eq!(sent, events.len() as u64);
        assert_eq!(outcome.report.input_events, sent);
        for (qid, expected_outputs) in &expected {
            let got = outcome.outputs.get(qid).map(Vec::as_slice).unwrap_or(&[]);
            assert_same_output(&format!("{order:?} {qid}"), got, expected_outputs);
        }
        assert!(took < READ_TICK, "{order:?}: {took:?} for {sent} events");
        let load = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(counters.credit_starved_ticks.load(load), 0, "{order:?}");
        assert!(counters.credit_frames.load(load) > sent / 64, "{order:?}");
    }
}

#[test]
fn an_oversized_event_is_refused_by_the_client_and_the_connection_keeps_serving() {
    // The server ends a connection whose frame exceeds MAX_FRAME_LEN; the
    // client refuses such an event before writing any of it, so the
    // connection and the rest of the stream are unaffected.
    let (schema, a, _, events) = fixture(500, 29);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let expected = solo_outputs(&queries, SpectreConfig::default(), &events);
    let handle = Server::start(ServerConfig::default(), schema, queries).expect("server starts");
    let counters = handle.counters();
    let mut client = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    let huge = Event::builder(events[1].event_type())
        .seq(events[1].seq())
        .ts(events[1].ts())
        .attr(AttrKey::new(0), Value::Str(Arc::new("x".repeat(2 << 20))))
        .build();
    client.send_event(&events[0]).expect("send");
    match client.send_event(&huge) {
        Err(ServerError::Decode(DecodeError::FrameTooLarge(len))) => {
            assert!(len > MAX_FRAME_LEN, "{len}")
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    for event in &events[1..] {
        client
            .send_event(event)
            .expect("the connection stays usable");
    }
    client.finish().expect("finish");
    let outcome = drain_and_join(handle);
    assert_eq!(outcome.report.input_events, events.len() as u64);
    for (qid, expected_outputs) in &expected {
        let got = outcome.outputs.get(qid).map(Vec::as_slice).unwrap_or(&[]);
        assert_same_output(&format!("{qid}"), got, expected_outputs);
    }
    let load = std::sync::atomic::Ordering::Relaxed;
    assert_eq!(counters.decode_errors.load(load), 0);
    assert_eq!(counters.closed_abnormal.load(load), 0);
}

#[test]
fn punctuated_watermarks_over_the_socket_reorder_a_shuffled_stream() {
    // The paper's client shape for an out-of-order source: one connection
    // sends a boundedly shuffled stream with WATERMARK frames interleaved,
    // the server ingests in arrival order, and only those punctuations
    // advance the engine's reorder stage. The output must equal the
    // sequential reference on the ordered stream.
    let (schema, a, _, events) = fixture(3_000, 17);
    let step = events[1].ts() - events[0].ts();
    let delay = 8 * step;
    let shuffled = bounded_shuffle(&events, delay, 5);
    assert!(
        max_disorder(&shuffled) > 0,
        "the fixture must be out of order"
    );
    let expected = run_sequential(&a, &events).complex_events;
    assert!(!expected.is_empty());

    let reorder = ReorderConfig::bounded(delay).with_watermark(WatermarkPolicy::Punctuated);
    let cfg = ServerConfig {
        engine: SpectreConfig {
            reorder: Some(reorder),
            ..SpectreConfig::with_instances(2)
        },
        order: IngestOrder::Arrival,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, vec![(TenantId(0), a)]).expect("server starts");
    let mut client = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    // Every 50 events, punctuate at the largest timestamp sent so far:
    // under a disorder bound of `delay`, no later event falls below
    // `max_ts - delay`, the watermark this advances the stage to.
    let (mut max_ts, mut watermarks) = (0u64, 0u64);
    for (i, event) in shuffled.iter().enumerate() {
        client.send_event(event).expect("send");
        max_ts = max_ts.max(event.ts());
        if i % 50 == 49 {
            client.send_watermark(max_ts).expect("send watermark");
            watermarks += 1;
        }
    }
    client.finish().expect("finish");
    let outcome = drain_and_join(handle);

    let m = &outcome.report.metrics;
    assert_eq!(outcome.report.input_events, events.len() as u64);
    assert_eq!(m.late_events_dropped, 0, "{m:?}");
    assert!(m.events_reordered > 0, "{m:?}");
    // End-of-stream releases the rest without counting an advance, so
    // every counted advance came from a frame on the socket.
    assert!(m.watermarks_advanced > 0, "{m:?}");
    assert!(m.watermarks_advanced <= watermarks, "{m:?}");
    let got = outcome
        .outputs
        .get(&QueryId(0))
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    assert_same_output("punctuated over the socket", got, &expected);
}

#[test]
fn mid_stream_disconnect_leaves_survivors_undisturbed() {
    // Seq mode, two strided clients. The even-slice client dies (no BYE)
    // after 300 events; the odd-slice survivor streams to completion. The
    // sequencer flushes past the dead client's gaps, the drain completes,
    // and the books balance exactly.
    let (schema, a, _, events) = fixture(3_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let cfg = ServerConfig {
        order: IngestOrder::Seq,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, queries).expect("server starts");
    let addr = handle.ingest_addr();

    // The survivor streams its whole odd-seq slice concurrently.
    let survivor = spawn_client(addr, 0, events.clone(), 1, 2);

    let mut dying = FeedClient::connect(addr, 0).expect("connect");
    let mut died_after = 0u64;
    for event in events.iter().filter(|e| e.seq() % 2 == 0).take(300) {
        dying.send_event(event).expect("send");
        died_after += 1;
    }
    dying.flush().expect("flush");
    // Let the server consume the flushed events before the rug-pull.
    std::thread::sleep(Duration::from_millis(300));
    dying.abort();

    let survivor_sent = survivor.join().expect("survivor");
    assert_eq!(survivor_sent, events.len() as u64 / 2);

    let counters = handle.counters();
    let outcome = drain_and_join(handle);
    assert_eq!(
        outcome.report.input_events,
        died_after + survivor_sent,
        "every delivered event is ingested, none double-counted"
    );
    assert_eq!(
        counters
            .closed_abnormal
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the rug-pulled client closes abnormally"
    );
    assert_eq!(
        counters
            .closed_clean
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the survivor closes cleanly"
    );
    assert!(
        counters
            .seq_gaps_skipped
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the sequencer skipped the dead client's gaps"
    );
    assert!(
        !outcome.outputs.is_empty(),
        "the survivor's events still match"
    );
}

#[test]
fn rate_limiter_drops_over_budget_events_and_still_returns_credit() {
    let (schema, a, _, events) = fixture(1_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let cfg = ServerConfig {
        // Arrival order: dropped events must not leave sequencer gaps.
        order: IngestOrder::Arrival,
        rate_limit: Some(RateLimitConfig::per_conn(
            500.0,
            50.0,
            OverLimitPolicy::Drop,
        )),
        // A small window forces several credit round-trips through the
        // dropped-event accounting; an unreturned credit would stall here.
        credit_window: 64,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, queries).expect("server starts");
    let mut client = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    for event in &events {
        client.send_event(event).expect("send");
    }
    client.finish().expect("finish");
    let counters = handle.counters();
    let outcome = drain_and_join(handle);
    let dropped = counters
        .rate_dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        dropped > 0,
        "a 1000-event burst must overrun 500 eps / burst 50"
    );
    assert_eq!(
        outcome.report.input_events + dropped,
        events.len() as u64,
        "dropped + ingested covers the stream exactly"
    );
}

#[test]
fn throttle_and_credit_frames_share_one_connection_without_tearing() {
    // Every over-limit event makes the connection thread queue a THROTTLE
    // frame while the feed thread writes CREDIT frames for the 64-event
    // window on the same socket. `FeedClient` decodes its side with
    // `next_server_frame`, so a torn or interleaved frame fails the send
    // (or loses credit and stalls it).
    let (schema, a, _, events) = fixture(4_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let cfg = ServerConfig {
        order: IngestOrder::Arrival,
        rate_limit: Some(RateLimitConfig::per_conn(
            500.0,
            50.0,
            OverLimitPolicy::Throttle,
        )),
        credit_window: 64,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, queries).expect("server starts");
    let mut client = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    client.ignore_throttle();
    for event in &events {
        client.send_event(event).expect("send");
    }
    assert!(
        client.throttled_nanos() > 0,
        "throttle frames reached the client"
    );
    client.finish().expect("finish");
    let counters = handle.counters();
    let outcome = drain_and_join(handle);
    let load = std::sync::atomic::Ordering::Relaxed;
    assert!(counters.rate_throttled.load(load) > 0);
    assert!(counters.credit_frames.load(load) > events.len() as u64 / 64);
    assert_eq!(
        outcome.report.input_events,
        events.len() as u64,
        "throttled events are still forwarded"
    );
}

#[test]
fn an_idle_client_is_closed_once_and_the_server_keeps_serving() {
    const IDLE: Duration = Duration::from_millis(250);
    let (schema, a, _, events) = fixture(1_000, 17);
    let cfg = ServerConfig {
        order: IngestOrder::Arrival,
        read_tick: Duration::from_millis(20),
        idle_timeout: IDLE,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, vec![(TenantId(0), a)]).expect("server starts");
    let counters = handle.counters();
    let load = std::sync::atomic::Ordering::Relaxed;

    // A client that connects and never sends a byte: the server grants it
    // credit, then closes it once the idle budget has passed.
    let opened = Instant::now();
    let mut idle = TcpStream::connect(handle.ingest_addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut credit = Vec::new();
    idle.read_to_end(&mut credit)
        .expect("the server closes the idle connection");
    assert!(
        opened.elapsed() >= IDLE,
        "closed after {:?}",
        opened.elapsed()
    );
    assert!(!credit.is_empty(), "the initial credit grant came first");
    let deadline = Instant::now() + Duration::from_secs(10);
    while counters.active.load(load) > 0 {
        assert!(Instant::now() < deadline, "the idle close was not counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counters.idle_closed.load(load), 1);
    assert_eq!(counters.closed_abnormal.load(load), 1);

    // A fresh client is served in full, and every frame it sends is
    // counted once: HELLO, the events, one watermark and BYE.
    let mut fresh = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    for event in &events {
        fresh.send_event(event).expect("send");
    }
    fresh
        .send_watermark(events.last().expect("events").ts())
        .expect("send watermark");
    fresh.finish().expect("finish");
    let outcome = drain_and_join(handle);
    assert_eq!(outcome.report.input_events, events.len() as u64);
    assert_eq!(counters.idle_closed.load(load), 1);
    assert_eq!(counters.closed_abnormal.load(load), 1);
    assert_eq!(counters.closed_clean.load(load), 1);
    assert_eq!(counters.accepted.load(load), 2);
    assert_eq!(counters.active.load(load), 0);
    assert_eq!(counters.events.load(load), events.len() as u64);
    assert_eq!(counters.watermarks.load(load), 1);
    assert_eq!(counters.frames.load(load), events.len() as u64 + 3);
}

#[test]
fn a_panicking_connection_is_contained_and_the_server_keeps_serving() {
    let (schema, a, _, events) = fixture(2_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let cfg = ServerConfig {
        order: IngestOrder::Arrival,
        chaos_panic_tenant: Some(7),
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, schema, queries).expect("server starts");
    let addr = handle.ingest_addr();

    // The first half of the stream arrives before the chaos client.
    let (first, second) = events.split_at(events.len() / 2);
    let mut good = FeedClient::connect(addr, 0).expect("connect");
    for event in first {
        good.send_event(event).expect("send");
    }
    good.finish().expect("finish");

    // The poisoned tenant's first event panics its connection thread
    // (before the event reaches the engine).
    let mut chaos = FeedClient::connect(addr, 7).expect("connect");
    let _ = chaos.send_event(&events[0]);
    let _ = chaos.flush();
    let deadline = Instant::now() + Duration::from_secs(10);
    let counters = handle.counters();
    while counters
        .panics_caught
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(Instant::now() < deadline, "panic not caught in time");
        std::thread::sleep(Duration::from_millis(20));
    }
    chaos.abort();

    // A fresh client after the panic is served as if nothing happened.
    let mut late = FeedClient::connect(addr, 0).expect("connect");
    for event in second {
        late.send_event(event).expect("send");
    }
    late.finish().expect("finish");

    let outcome = drain_and_join(handle);
    assert_eq!(
        counters
            .panics_caught
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        outcome.report.input_events,
        events.len() as u64,
        "the poisoned client contributed nothing; both good clients count fully"
    );
}

/// Scrapes `GET {path}` off the HTTP sidecar, returning the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("http write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("http read");
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("http response has headers");
    assert!(headers.starts_with("HTTP/1.0"), "{headers}");
    body.to_string()
}

/// Parses one un-labelled metric value out of a Prometheus text body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| {
            let (metric_name, value) = line.split_once(' ')?;
            (metric_name == name).then(|| value.parse().expect("metric value"))
        })
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Sends one control line, returns the reply.
fn control(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("control connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("control write");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("control read");
    reply.trim_end().to_string()
}

#[test]
fn control_plane_and_metrics_sidecar_drive_a_live_session() {
    let (schema, a, _, events) = fixture(2_000, 17);
    let queries = vec![(TenantId(0), Arc::clone(&a))];
    let handle = Server::start(ServerConfig::default(), schema, queries).expect("server starts");

    assert_eq!(control(handle.control_addr(), "PING"), "OK pong");
    assert_eq!(http_get(handle.http_addr(), "/healthz"), "ok\n");
    assert!(http_get(handle.http_addr(), "/nope").contains("not found"));

    // Live-deploy a second query for tenant 2 (the parser-grammar text),
    // set its quota, and check the registry.
    let deploy = control(
        handle.control_addr(),
        "DEPLOY TENANT 2 PATTERN (MLE RE1 RE2) \
         DEFINE MLE AS (MLE.closePrice > MLE.openPrice AND MLE.leading == 1), \
         RE1 AS (RE1.closePrice > RE1.openPrice), \
         RE2 AS (RE2.closePrice > RE2.openPrice) \
         WITHIN 2000 EVENTS FROM MLE CONSUME (MLE RE1 RE2)",
    );
    assert_eq!(deploy, "OK deployed q1");
    assert_eq!(
        control(handle.control_addr(), "QUOTA 2 WEIGHT 3"),
        "OK quota set for t2"
    );
    assert_eq!(control(handle.control_addr(), "QUERIES"), "OK q0:t0 q1:t2");
    assert!(control(handle.control_addr(), "BOGUS").starts_with("ERR"));

    let mut client = FeedClient::connect(handle.ingest_addr(), 0).expect("connect");
    for event in &events {
        client.send_event(event).expect("send");
    }
    client.finish().expect("finish");

    // The retired query reports its undrained outputs.
    let retire = control(handle.control_addr(), "RETIRE 1");
    assert!(retire.starts_with("OK retired q1"), "{retire}");

    // STATS is a live snapshot: the splitter may still be pulling the
    // tail of the push queue, so only the shape is asserted here — the
    // exact totals are checked post-drain off /metrics.
    let stats = control(handle.control_addr(), "STATS");
    assert!(stats.starts_with("OK input_events="), "{stats}");
    assert!(stats.ends_with("queries=1"), "{stats}");

    // DRAIN over the control socket; the sidecar reports it immediately.
    assert_eq!(control(handle.control_addr(), "DRAIN"), "OK draining");
    assert_eq!(http_get(handle.http_addr(), "/healthz"), "draining\n");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "drain did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The post-drain scrape is frozen at the final report: the aggregate
    // matches, and the per-query shares sum to it.
    let body = http_get(handle.http_addr(), "/metrics");
    assert_eq!(metric(&body, "spectre_engine_input_events"), 2_000);
    assert_eq!(metric(&body, "spectre_server_finished"), 1);
    let aggregate = metric(&body, "spectre_engine_events_processed");
    let per_query: u64 = body
        .lines()
        .filter(|line| line.starts_with("spectre_engine_query_events_processed{"))
        .map(|line| {
            line.rsplit_once(' ')
                .expect("labelled metric value")
                .1
                .parse::<u64>()
                .expect("metric value")
        })
        .sum();
    assert_eq!(
        per_query, aggregate,
        "per-query events_processed must sum to the aggregate"
    );

    let outcome = handle.join().expect("join");
    assert_eq!(outcome.report.metrics.events_processed, aggregate);
    assert_eq!(outcome.report.input_events, 2_000);
    assert!(outcome.summary_json.contains("\"input_events\":2000"));
}

/// A control line longer than the server's 64 KiB cap is answered with
/// `ERR line too long` and its connection closed, without waiting for a
/// newline that never comes; the control socket keeps serving fresh
/// connections. The client reads with a timeout, so a server that buffers
/// the line forever fails the test instead of hanging it.
#[test]
fn an_overlong_control_line_is_refused_and_its_connection_closed() {
    let (schema, a, _, _) = fixture(100, 3);
    let handle = Server::start(ServerConfig::default(), schema, vec![(TenantId(0), a)])
        .expect("server starts");
    let stream = TcpStream::connect(handle.control_addr()).expect("control connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // The server stops reading once the cap is passed, so the write may
    // block or fail: it runs beside the read, and its result is ignored.
    let mut writer = stream.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("a reply before the timeout");
    assert_eq!(reply, "ERR line too long\n");
    let mut rest = Vec::new();
    // A close with unread bytes may reach the client as a reset.
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing follows the refusal"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    flood.join().expect("flood thread");
    assert_eq!(control(handle.control_addr(), "PING"), "OK pong");
    drain_and_join(handle);
}
