//! Engine-session streaming equivalence: feeding the incremental
//! [`SpectreEngine`] — in chunks, or one pushed event at a time with
//! back-pressure retries — must produce output bit-identical to the legacy
//! one-shot `Vec` path, in both execution modes, across the seeded NYSE
//! equivalence matrix (k × batch). Plus the socket-free wire-framing
//! round trip: NYSE stream → length-prefixed frames → [`FramedSource`] →
//! engine session.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{run_simulated, run_threaded, PushResult, SpectreConfig, SpectreEngine};
use spectre_datasets::net::{FramedSource, StreamServer, TcpSource};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::codec::encode_all;
use spectre_events::{Event, Schema};
use spectre_integration::assert_same_output;
use spectre_query::queries::{self, Direction};
use spectre_query::{ComplexEvent, Query};

fn fixture(events: usize, seed: u64) -> (Arc<Query>, Vec<Event>) {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
    let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
    (query, events)
}

/// Streams `events` through an engine session in chunks of `chunk`,
/// draining committed outputs between chunks; returns the concatenation.
fn stream_in_chunks(
    query: &Arc<Query>,
    events: &[Event],
    config: SpectreConfig,
    threaded: bool,
    chunk: usize,
) -> Vec<ComplexEvent> {
    let builder = SpectreEngine::builder(query).config(config);
    let mut engine = if threaded {
        builder.threaded().build()
    } else {
        builder.simulated().build()
    };
    let mut out = Vec::new();
    for chunk in events.chunks(chunk) {
        engine.ingest(chunk.iter().cloned());
        out.append(&mut engine.drain_events());
    }
    let report = engine.finish();
    out.extend(report.complex_events);
    assert_eq!(report.input_events, events.len() as u64);
    out
}

/// Streams `events` through an engine session one `push` at a time,
/// retrying on back-pressure; returns all outputs.
fn stream_by_push(
    query: &Arc<Query>,
    events: &[Event],
    config: SpectreConfig,
    threaded: bool,
) -> Vec<ComplexEvent> {
    let builder = SpectreEngine::builder(query).config(config);
    let mut engine = if threaded {
        builder.threaded().build()
    } else {
        builder.simulated().build()
    };
    let mut out = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let mut event = event.clone();
        loop {
            match engine.push(event) {
                PushResult::Accepted => break,
                PushResult::Full(back) => event = back,
            }
        }
        if i % 500 == 499 {
            out.append(&mut engine.drain_events());
        }
    }
    out.extend(engine.finish().complex_events);
    out
}

#[test]
fn sim_streaming_matches_vec_path_across_the_matrix() {
    let (query, events) = fixture(2_000, 42);
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
            let expected = run_simulated(&query, events.clone(), &config).complex_events;
            assert!(!expected.is_empty());
            let chunked = stream_in_chunks(&query, &events, config.clone(), false, 97);
            assert_same_output(
                &format!("sim chunked k={k} batch={batch}"),
                &chunked,
                &expected,
            );
            let pushed = stream_by_push(&query, &events, config, false);
            assert_same_output(
                &format!("sim pushed k={k} batch={batch}"),
                &pushed,
                &expected,
            );
        }
    }
}

#[test]
fn threaded_streaming_matches_vec_path_across_the_matrix() {
    let (query, events) = fixture(1_000, 83);
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
            let expected = run_threaded(&query, events.clone(), &config).complex_events;
            let chunked = stream_in_chunks(&query, &events, config.clone(), true, 97);
            assert_same_output(
                &format!("threaded chunked k={k} batch={batch}"),
                &chunked,
                &expected,
            );
            let pushed = stream_by_push(&query, &events, config, true);
            assert_same_output(
                &format!("threaded pushed k={k} batch={batch}"),
                &pushed,
                &expected,
            );
        }
    }
}

#[test]
fn outputs_are_committed_incrementally() {
    // The windows of the first half of the stream retire long before the
    // stream ends: draining between chunks must surface outputs before
    // finish() — the session is a streaming engine, not a deferred batch.
    let (query, events) = fixture(3_000, 7);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(expected.len() >= 4, "fixture must produce several outputs");
    let mut engine = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(2))
        .simulated()
        .build();
    let mut streamed = Vec::new();
    for chunk in events.chunks(200) {
        engine.ingest(chunk.iter().cloned());
        streamed.append(&mut engine.drain_events());
    }
    let before_finish = streamed.len();
    streamed.extend(engine.finish().complex_events);
    assert_same_output("incremental drain", &streamed, &expected);
    assert!(
        before_finish > 0,
        "no output committed before end-of-stream"
    );
}

#[test]
fn framed_wire_roundtrip_feeds_engine_without_sockets() {
    // NYSE stream → length-prefixed wire frames → FramedSource decode →
    // engine session, entirely in memory: the exact TcpSource framing path
    // with the socket replaced by a Cursor.
    let (query, events) = fixture(1_200, 19);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    let wire = encode_all(&events);
    let source = FramedSource::new(std::io::Cursor::new(wire.to_vec()));
    let mut engine = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(4))
        .simulated()
        .build();
    let fed = engine.ingest(source);
    assert_eq!(fed, events.len() as u64);
    let report = engine.finish();
    assert_same_output("framed roundtrip", &report.complex_events, &expected);
}

#[test]
fn tcp_source_streams_into_threaded_engine() {
    // The paper's deployment shape end to end: a TCP peer streams framed
    // events, TcpSource decodes them, and a threaded engine session
    // processes them incrementally — no Vec materialization engine-side.
    let (query, events) = fixture(800, 67);
    let expected = run_sequential(&query, &events).complex_events;
    let server = StreamServer::spawn(events.clone()).unwrap();
    let source = TcpSource::connect(server.addr()).unwrap();
    let report = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(2))
        .threaded()
        .build()
        .run(source);
    assert_eq!(server.join(), events.len() as u64);
    assert_eq!(report.input_events, events.len() as u64);
    assert_same_output("tcp source", &report.complex_events, &expected);
}
