//! Layers timed in isolation: the benchmark calls each layer's public
//! functions directly on a prefix of the workload's stream, outside any
//! session, so a layer's own cost is known apart from the run it sits in.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use spectre_baselines::run_sequential;
use spectre_core::markov::{MarkovConfig, MarkovModel};
use spectre_core::reorder::{Offer, ReorderBuffer, ReorderConfig};
use spectre_events::codec::{encode, Decoder};
use spectre_query::window::WindowAssigner;
use spectre_query::EventFilter;

use crate::fixture::{self, Fixture};
use crate::spec::ISO_EVENTS;

/// `(metric name, value)` for every isolation-timed layer metric, on the
/// first `ISO_EVENTS` events of the fixture's stream.
pub fn isolation(fx: &Fixture, seed: u64) -> Vec<(&'static str, f64)> {
    let events = &fx.in_order[..fx.in_order.len().min(ISO_EVENTS)];
    let n = events.len().max(1) as f64;
    let per_event = |started: Instant| started.elapsed().as_nanos() as f64 / n;
    let mut out = vec![("datasets.nyse.gen_ns_per_event", fx.gen_ns_per_event)];

    // events::codec — encode every event, then decode the bytes the way a
    // connection's read loop does, in socket-read sized pieces.
    let mut wire = BytesMut::new();
    let started = Instant::now();
    for event in events {
        encode(event, &mut wire);
    }
    out.push(("events.codec.encode_ns_per_event", per_event(started)));
    out.push(("events.codec.bytes_per_event", wire.len() as f64 / n));
    let mut decoder = Decoder::new();
    let mut decoded = 0usize;
    let started = Instant::now();
    for piece in wire.chunks(16 * 1024) {
        decoder.extend(piece);
        while let Ok(Some(frame)) = decoder.next_client_frame() {
            black_box(&frame);
            decoded += 1;
        }
    }
    out.push(("events.codec.decode_ns_per_event", per_event(started)));
    assert_eq!(
        decoded,
        events.len(),
        "the codec must round-trip the stream"
    );
    drop(wire);

    // query::window and query::filter.
    let query = &fx.queries[0];
    let mut assigner = WindowAssigner::new(query.window().clone());
    let mut closed = Vec::new();
    let started = Instant::now();
    for event in events {
        black_box(assigner.ingest(event, &mut closed));
        closed.clear();
    }
    out.push(("query.window.assign_ns_per_event", per_event(started)));
    out.push((
        "query.window.windows_opened",
        assigner.windows_opened() as f64,
    ));
    let mut relevant = 0u64;
    let started = Instant::now();
    if let Some(filter) = EventFilter::for_query(query) {
        for event in events {
            relevant += u64::from(filter.relevant(event));
        }
    }
    black_box(relevant);
    out.push(("query.filter.relevant_ns_per_event", per_event(started)));

    // baselines::sequential — the single-threaded run of the same job.
    let started = Instant::now();
    black_box(run_sequential(query, events).complex_events.len());
    out.push((
        "baselines.sequential.eps",
        n / started.elapsed().as_secs_f64(),
    ));

    // datasets::disorder and core::reorder on the shuffled stream.
    let (fed, shuffle_ms) = fixture::shuffled(events, seed);
    out.push(("datasets.disorder.shuffle_ms", shuffle_ms));
    let mut buffer = ReorderBuffer::new(ReorderConfig::bounded(fixture::disorder_delay()));
    let mut peak = 0usize;
    let mut released = 0usize;
    let started = Instant::now();
    for event in fed {
        // Per-event watermarks hold back about one lateness bound of events
        // (1024), a quarter of the buffer's capacity: it never fills.
        assert!(
            !matches!(buffer.offer(event), Offer::Rejected(_)),
            "the reorder buffer filled below its lateness bound"
        );
        peak = peak.max(buffer.len());
        while let Some(ready) = buffer.pop_ready() {
            black_box(&ready);
            released += 1;
        }
    }
    buffer.finish();
    while buffer.pop_ready().is_some() {
        released += 1;
    }
    out.push(("core.reorder.offer_pop_ns_per_event", per_event(started)));
    out.push(("core.reorder.peak_len", peak as f64));
    assert_eq!(released, events.len(), "bounded disorder loses no event");

    // core::markov — one refresh at the default state cap, fed the
    // advance-or-stay transitions a Q1 match produces.
    let config = MarkovConfig::default();
    let (states, rho) = (config.state_cap as u32, config.rho);
    let mut model = MarkovModel::new(config.state_cap, config);
    let transitions: Vec<(u32, u32)> = (0..rho as u32)
        .map(|i| {
            let from = 1 + i % states;
            (from, from - (i / states) % 2)
        })
        .collect();
    let mut refresh_ms = Vec::new();
    for _ in 0..5 {
        model.observe_batch(&transitions);
        let started = Instant::now();
        assert!(model.refresh_if_due(), "a full rho-window was observed");
        refresh_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let refresh_ms = crate::stats::sorted(refresh_ms);
    out.push((
        "core.markov.refresh_ms",
        crate::stats::median(&refresh_ms).unwrap_or(0.0),
    ));
    out
}
