//! Events of at most four attributes own no heap memory: building, cloning
//! and dropping one, encoding them into a grown write buffer, decoding a
//! buffer of their frames, generating a NYSE stream and cycling them
//! through a reorder buffer at steady state all allocate nothing; pushing
//! them into a session allocates only the splitter's chunks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use bytes::BytesMut;
use spectre_core::reorder::{Offer, ReorderBuffer, ReorderConfig};
use spectre_core::{PushResult, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::codec::{encode, ClientFrame, Decoder, StreamItem};
use spectre_events::{AttrKey, Event, EventType, Schema, SymbolId, Value};
use spectre_query::{ConsumptionPolicy, Expr, Pattern, Query, WindowSpec};

/// Counts this thread's allocations (libtest runs tests on parallel
/// threads, so a process-wide count would see the neighbours').
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates (const-initialized `Cell`, no destructor) nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `ptr`, `layout` and `new_size`, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A quote-shaped event: the four attribute kinds the generators build.
fn quote(seq: u64, ts: u64) -> Event {
    Event::builder(EventType::new(1))
        .seq(seq)
        .ts(ts)
        .attr(AttrKey::new(3), Value::Bool(seq.is_multiple_of(2)))
        .attr(AttrKey::new(0), Value::Symbol(SymbolId::new(seq as u32)))
        .attr(AttrKey::new(2), seq as f64 * 0.5)
        .attr(AttrKey::new(1), seq as i64)
        .build()
}

#[test]
fn an_event_fits_in_128_bytes() {
    // Up to 128 bytes LLVM moves an event on x86-64 with at most eight
    // inline 16-byte stores; past that every move (a feed push, a batch
    // push, a reorder pop, a channel send) is a call to libc `memcpy`.
    assert!(size_of::<Event>() <= 128, "{} bytes", size_of::<Event>());
}

#[test]
fn building_cloning_and_dropping_a_four_attribute_event_allocates_nothing() {
    let n = allocations_in(|| {
        for seq in 0..1_000 {
            let ev = quote(seq, seq * 10);
            assert_eq!(ev.attr_count(), 4);
            let copy = black_box(ev.clone());
            assert_eq!(copy, ev);
            drop(black_box(copy));
        }
    });
    assert_eq!(n, 0);
}

#[test]
fn decoding_four_attribute_frames_allocates_nothing() {
    let mut wire = BytesMut::new();
    for seq in 0..1_000 {
        encode(&quote(seq, seq * 10), &mut wire);
    }
    let mut decoder = Decoder::new();
    decoder.extend(&wire);
    let mut decoded = 0u64;
    let n = allocations_in(|| {
        while let Some(frame) = decoder.next_client_frame().unwrap() {
            let ClientFrame::Item(StreamItem::Event(ev)) = frame else {
                panic!("only event frames were encoded");
            };
            assert_eq!(ev, quote(decoded, decoded * 10));
            decoded += 1;
        }
    });
    assert_eq!(decoded, 1_000);
    assert_eq!(n, 0);
}

#[test]
fn encoding_into_a_grown_buffer_allocates_nothing_per_event() {
    // A `FeedClient`'s write buffer: one `BytesMut`, cleared each time it
    // passes the flush threshold, so it stops growing after the first fill.
    const FLUSH_THRESHOLD: usize = 32 * 1024;
    let mut wbuf = BytesMut::new();
    let mut fill = |from: u64, to: u64| {
        let mut flushes = 0;
        for seq in from..to {
            encode(&quote(seq, seq * 10), &mut wbuf);
            if wbuf.len() >= FLUSH_THRESHOLD {
                black_box(&wbuf[..]);
                wbuf.clear();
                flushes += 1;
            }
        }
        flushes
    };
    assert!(fill(0, 1_000) > 0, "the first fill reached the threshold");
    let mut flushes = 0;
    let n = allocations_in(|| flushes = fill(1_000, 11_000));
    assert!(flushes > 10, "flushed {flushes} times");
    assert_eq!(n, 0);
}

#[test]
fn generating_a_nyse_stream_allocates_nothing_per_event() {
    let mut schema = Schema::new();
    let mut generator = NyseGenerator::new(NyseConfig::small(2_000, 5), &mut schema);
    let n = allocations_in(|| {
        for ev in generator.by_ref() {
            assert_eq!(ev.attr_count(), 4);
            black_box(ev);
        }
    });
    assert_eq!(n, 0);
}

#[test]
fn a_reorder_buffer_at_steady_state_allocates_nothing() {
    let mut buf = ReorderBuffer::new(ReorderConfig::bounded(64));
    // Timestamps run 16 per tick with a jitter of up to 48 ticks back, so
    // the buffer holds a bounded, oscillating number of events.
    let ts = |seq: u64| (seq * 16).saturating_sub(seq * 7919 % 48);
    let mut cycle = |from: u64, to: u64| {
        let mut released = 0;
        for seq in from..to {
            assert!(matches!(buf.offer(quote(seq, ts(seq))), Offer::Buffered));
            while let Some(ev) = buf.pop_ready() {
                black_box(ev);
                released += 1;
            }
        }
        released
    };
    // The first thousand offers grow the heap and the slab to their peak.
    assert!(cycle(0, 1_000) > 900);
    let mut released = 0;
    let n = allocations_in(|| released = cycle(1_000, 11_000));
    assert!(released > 9_900, "released {released}");
    assert_eq!(n, 0);
}

#[test]
fn a_session_allocates_one_chunk_per_batch_of_pushed_events() {
    // The query's windows open on an event type the stream never carries,
    // so every cycle is pure ingestion: with 5 events per cycle and
    // 64-event chunks, a cycle cut mid-chunk must not split or copy it.
    let x = AttrKey::new(2);
    let query = Arc::new(
        Query::builder("never")
            .pattern(
                Pattern::builder()
                    .one("A", Expr::current(x).gt(Expr::value(0.0)))
                    .build()
                    .unwrap(),
            )
            .window(
                WindowSpec::on_match_count(Some(EventType::new(9)), Expr::value(true), 8).unwrap(),
            )
            .consumption(ConsumptionPolicy::None)
            .build()
            .unwrap(),
    );
    let config = SpectreConfig {
        ingest_per_cycle: 5,
        batch_size: 64,
        ..SpectreConfig::with_instances(2)
    };
    let mut engine = SpectreEngine::builder(&query)
        .config(config)
        .simulated()
        .try_build()
        .unwrap();
    let mut push = |from: u64, to: u64| {
        for seq in from..to {
            let result = engine.try_push(quote(seq, seq)).unwrap();
            assert!(matches!(result, PushResult::Accepted), "push {seq} refused");
        }
    };
    // Warm-up: the chunk queue and every reusable buffer reach their size.
    push(0, 6_400);
    let n = allocations_in(|| push(6_400, 12_800));
    // Each chunk is one `Vec` of events and one `Arc`.
    assert!(n <= 2 * 100, "{n} allocations for 100 chunks of events");
    let report = engine.try_finish().unwrap();
    assert_eq!(report.metrics.store_windows_opened, 0);
}
