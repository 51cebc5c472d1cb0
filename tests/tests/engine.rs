//! Engine-session streaming equivalence: feeding the incremental
//! [`SpectreEngine`] — in chunks, or one pushed event at a time with
//! back-pressure retries — must produce output bit-identical to the
//! sequential reference, in both execution modes, across the seeded NYSE
//! equivalence matrix (k × batch).

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{PushResult, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
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
    let mut engine = build(query, config, threaded);
    let mut out = Vec::new();
    for chunk in events.chunks(chunk) {
        engine.ingest(chunk.iter().cloned()).unwrap();
        out.extend(drain(&mut engine));
    }
    let report = engine.try_finish().unwrap();
    out.extend(report.complex_events);
    assert_eq!(report.input_events, events.len() as u64);
    out
}

/// Streams `events` through an engine session one `try_push` at a time,
/// retrying on back-pressure; returns all outputs.
fn stream_by_push(
    query: &Arc<Query>,
    events: &[Event],
    config: SpectreConfig,
    threaded: bool,
) -> Vec<ComplexEvent> {
    let mut engine = build(query, config, threaded);
    let mut out = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let mut event = event.clone();
        loop {
            match engine.try_push(event).unwrap() {
                PushResult::Accepted => break,
                PushResult::Full(back) => event = back,
            }
        }
        if i % 500 == 499 {
            out.extend(drain(&mut engine));
        }
    }
    out.extend(engine.try_finish().unwrap().complex_events);
    out
}

fn build(query: &Arc<Query>, config: SpectreConfig, threaded: bool) -> SpectreEngine {
    let builder = SpectreEngine::builder(query).config(config);
    let builder = if threaded {
        builder.threaded()
    } else {
        builder.simulated()
    };
    builder.try_build().unwrap()
}

/// The committed outputs of a single-query session, without the query tag.
fn drain(engine: &mut SpectreEngine) -> impl Iterator<Item = ComplexEvent> {
    engine
        .try_drain_outputs()
        .unwrap()
        .into_iter()
        .map(|(_, ce)| ce)
}

#[test]
fn sim_streaming_matches_sequential_across_the_matrix() {
    let (query, events) = fixture(2_000, 42);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
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
fn threaded_streaming_matches_sequential_across_the_matrix() {
    let (query, events) = fixture(1_000, 83);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(!expected.is_empty());
    for k in [1usize, 2, 4] {
        for batch in [1usize, 64] {
            let config = SpectreConfig::with_batching(k, batch, 8);
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
    // try_finish() — the session is a streaming engine, not a deferred batch.
    let (query, events) = fixture(3_000, 7);
    let expected = run_sequential(&query, &events).complex_events;
    assert!(expected.len() >= 4, "fixture must produce several outputs");
    let mut engine = build(&query, SpectreConfig::with_instances(2), false);
    let mut streamed = Vec::new();
    for chunk in events.chunks(200) {
        engine.ingest(chunk.iter().cloned()).unwrap();
        streamed.extend(drain(&mut engine));
    }
    let before_finish = streamed.len();
    streamed.extend(engine.try_finish().unwrap().complex_events);
    assert_same_output("incremental drain", &streamed, &expected);
    assert!(
        before_finish > 0,
        "no output committed before end-of-stream"
    );
}
