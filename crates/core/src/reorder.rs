//! The watermark-driven reorder stage: bounded-lateness buffering ahead of
//! the splitter.
//!
//! Every engine path downstream of the splitter assumes events arrive in
//! timestamp order — the window assigner closes time windows by comparing
//! each event's timestamp against open window starts, and the warm-up
//! window-size estimate feeds the predictor under the same assumption. The
//! paper's target feeds deliver late and out of order, so an opt-in
//! [`ReorderBuffer`] sits between the session surface
//! (`try_push`/`ingest`) and [`Splitter::feed`]
//! (see [`SpectreConfig::reorder`](crate::SpectreConfig::reorder)):
//!
//! * arriving events are buffered in a binary min-heap keyed by
//!   `(timestamp, arrival)` — the arrival counter keeps duplicate
//!   timestamps stable and makes every key unique, so the heap pops in
//!   exactly key order,
//! * a **watermark** tracks event-time progress under a fixed
//!   bounded-lateness assumption: no event arrives more than
//!   [`ReorderConfig::max_delay`] timestamp ticks after a later-stamped
//!   event already seen ([`WatermarkPolicy::Periodic`] re-derives it from
//!   the maximum seen timestamp on every arrival;
//!   [`WatermarkPolicy::Punctuated`] advances it only on explicit
//!   punctuation, e.g. a decoded watermark frame),
//! * events at or below the watermark are **released** in timestamp order
//!   ([`pop_ready`](ReorderBuffer::pop_ready)) — anything still buffered is
//!   strictly above it, so the released stream is timestamp-monotone,
//! * an event arriving *below* the watermark is **late**: it violated the
//!   lateness bound, so it is counted and dropped
//!   ([`ReorderStats::late_dropped`]) and the output stays exactly the
//!   in-order output of the on-time stream,
//! * the buffer is **bounded** ([`ReorderConfig::capacity`]): an offer
//!   beyond the cap hands the event back intact, which the engine surfaces
//!   as the existing `PushResult::Full` back-pressure.
//!
//! The structure follows the event-time window managers of dataflow
//! systems (allocate on watermark advance, emit on watermark pass).
//!
//! [`Splitter::feed`]: crate::splitter::Splitter::feed

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spectre_events::Event;

/// How the watermark advances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WatermarkPolicy {
    /// Re-derive the watermark as `max_seen_ts − max_delay` on every
    /// arrival (the default).
    #[default]
    Periodic,
    /// The watermark advances only on explicit punctuation
    /// ([`ReorderBuffer::advance_watermark`] — fed by watermark frames on
    /// the wire, see `spectre_events::codec::encode_watermark`). Without
    /// punctuation nothing is ever released, so a full buffer
    /// back-pressures until the source emits one.
    Punctuated,
}

/// Configuration of the reorder stage (see
/// [`SpectreConfig::reorder`](crate::SpectreConfig::reorder)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderConfig {
    /// The bounded-lateness assumption, in timestamp ticks: an event may
    /// arrive at most `max_delay` ticks of event time after a
    /// later-stamped event. `0` asserts in-order arrival (any disorder is
    /// late).
    pub max_delay: u64,
    /// Watermark emission cadence.
    pub watermark: WatermarkPolicy,
    /// Maximum buffered events; offers beyond it are handed back
    /// ([`Offer::Rejected`]), which the engine surfaces as
    /// `PushResult::Full`.
    pub capacity: usize,
}

impl ReorderConfig {
    /// The standard bounded-lateness configuration: per-event watermarks
    /// at `max_delay` ticks of slack, late events dropped, a 4096-event
    /// buffer.
    pub fn bounded(max_delay: u64) -> Self {
        ReorderConfig {
            max_delay,
            watermark: WatermarkPolicy::default(),
            capacity: 4096,
        }
    }

    /// Returns the configuration with the watermark policy replaced.
    #[must_use]
    pub fn with_watermark(mut self, policy: WatermarkPolicy) -> Self {
        self.watermark = policy;
        self
    }

    /// Returns the configuration with the buffer capacity replaced.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Validates the configuration, reporting the first violated
    /// constraint as an error.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("reorder buffer capacity must be positive".into());
        }
        Ok(())
    }
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig::bounded(0)
    }
}

/// Counter deltas accumulated by a [`ReorderBuffer`] since the last
/// [`take_stats`](ReorderBuffer::take_stats); the engine flushes them into
/// the session metrics (aggregate and per-query, see
/// [`MetricsSnapshot`](crate::MetricsSnapshot)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Events that arrived with a timestamp below the maximum already seen
    /// (the disorder the buffer repaired).
    pub reordered: u64,
    /// Late events discarded.
    pub late_dropped: u64,
    /// Watermark advances (initial emission included).
    pub watermarks: u64,
}

impl ReorderStats {
    /// `true` if every delta is zero.
    pub fn is_empty(&self) -> bool {
        *self == ReorderStats::default()
    }
}

/// Outcome of offering one event to a [`ReorderBuffer`].
#[derive(Debug)]
#[must_use = "Rejected hands the event back; dropping it loses it"]
pub enum Offer {
    /// The event was buffered; it will be released once the watermark
    /// passes its timestamp.
    Buffered,
    /// The event is late and was discarded (counted in
    /// [`ReorderStats::late_dropped`]).
    DroppedLate,
    /// The buffer is at [`ReorderConfig::capacity`]; the event is handed
    /// back intact. Release some events (advance the watermark, or drain
    /// [`pop_ready`](ReorderBuffer::pop_ready)) and retry.
    Rejected(Event),
}

/// A min-heap of values keyed by unique `(u64, u64)` keys.
///
/// The heap sifts small `(key, slot)` entries; the values sit in a slab
/// and do not move until they are popped, so a sift never copies a whole
/// event. Freed slots are reused, so a heap that stays within its peak
/// length allocates nothing.
#[derive(Debug)]
pub struct KeyedHeap<T> {
    heap: BinaryHeap<Reverse<((u64, u64), usize)>>,
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for KeyedHeap<T> {
    fn default() -> Self {
        KeyedHeap {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> KeyedHeap<T> {
    /// Number of held values.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no value is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Holds `value` under `key`. Keys must be unique: equal keys pop in
    /// slot order, which is not arrival order.
    pub fn push(&mut self, key: (u64, u64), value: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((key, slot)));
    }

    /// The smallest key held.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse((key, _))| *key)
    }

    /// Removes and returns the value with the smallest key.
    pub fn pop(&mut self) -> Option<T> {
        let Reverse((_, slot)) = self.heap.pop()?;
        self.free.push(slot);
        self.slots[slot].take()
    }
}

/// The bounded reorder buffer — see the [module docs](self) for the
/// semantics.
///
/// # Example
///
/// ```
/// use spectre_core::reorder::{Offer, ReorderBuffer, ReorderConfig};
/// use spectre_events::{Event, EventType};
///
/// let ev = |seq: u64, ts: u64| Event::builder(EventType::new(0)).seq(seq).ts(ts).build();
/// let mut buf = ReorderBuffer::new(ReorderConfig::bounded(10));
/// assert!(matches!(buf.offer(ev(0, 25)), Offer::Buffered));
/// assert!(matches!(buf.offer(ev(1, 20)), Offer::Buffered)); // within the bound
/// // Watermark = 25 − 10 = 15: nothing is ready yet …
/// assert!(buf.pop_ready().is_none());
/// assert!(matches!(buf.offer(ev(2, 40)), Offer::Buffered));
/// // … now it is 30: the two early events drain, back in timestamp order.
/// assert_eq!(buf.pop_ready().unwrap().ts(), 20);
/// assert_eq!(buf.pop_ready().unwrap().ts(), 25);
/// assert!(buf.pop_ready().is_none());
/// ```
#[derive(Debug)]
pub struct ReorderBuffer {
    config: ReorderConfig,
    /// Buffered events in a min-heap keyed by `(timestamp, arrival)` —
    /// the arrival counter makes duplicate timestamps drain in arrival
    /// order. An offer is a sift-up and a release a sift-down of a small
    /// key entry, with no per-event allocation. It holds at most
    /// [`ReorderConfig::capacity`] events and grows on demand, so building
    /// a buffer allocates nothing.
    buf: KeyedHeap<Event>,
    /// Monotone arrival counter (tie-breaker for duplicate timestamps).
    arrivals: u64,
    /// Maximum timestamp seen so far (`None` before the first event).
    max_ts: Option<u64>,
    /// Current watermark (`None` until first emitted — nothing is released
    /// and nothing is late before then).
    watermark: Option<u64>,
    stats: ReorderStats,
}

impl ReorderBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics with [`ReorderConfig::try_validate`]'s message if the
    /// configuration is invalid.
    pub fn new(config: ReorderConfig) -> Self {
        if let Err(msg) = config.try_validate() {
            panic!("{msg}");
        }
        ReorderBuffer {
            config,
            buf: KeyedHeap::default(),
            arrivals: 0,
            max_ts: None,
            watermark: None,
            stats: ReorderStats::default(),
        }
    }

    /// Number of buffered (not yet released) events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// `true` if the buffer is at its capacity — the next non-late offer
    /// will be [`Offer::Rejected`].
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.config.capacity
    }

    /// The current watermark, or `None` if none was emitted yet.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// The configuration the buffer was built with.
    pub fn config(&self) -> &ReorderConfig {
        &self.config
    }

    /// Offers one event. Late events (timestamp below the watermark) are
    /// dropped without consuming buffer space; a full buffer hands the
    /// event back ([`Offer::Rejected`]).
    pub fn offer(&mut self, event: Event) -> Offer {
        let ts = event.ts();
        if self.watermark.is_some_and(|w| ts < w) {
            self.stats.late_dropped += 1;
            return Offer::DroppedLate;
        }
        if self.is_full() {
            return Offer::Rejected(event);
        }
        if self.max_ts.is_some_and(|m| ts < m) {
            self.stats.reordered += 1;
        } else {
            self.max_ts = Some(ts);
        }
        self.buf.push((ts, self.arrivals), event);
        self.arrivals += 1;
        if self.config.watermark == WatermarkPolicy::Periodic {
            let max = self.max_ts.expect("an event was just offered");
            self.advance_to(max.saturating_sub(self.config.max_delay));
        }
        Offer::Buffered
    }

    /// Punctuated watermark advance: event time has progressed to
    /// `stream_ts`, so the watermark moves to
    /// `stream_ts − max_delay` (if that is ahead of the current one —
    /// watermarks never regress). Works under either policy; periodic
    /// buffers simply treat it as an extra punctuation.
    pub fn advance_watermark(&mut self, stream_ts: u64) {
        self.advance_to(stream_ts.saturating_sub(self.config.max_delay));
    }

    fn advance_to(&mut self, candidate: u64) {
        if self.watermark.is_none_or(|w| candidate > w) {
            self.watermark = Some(candidate);
            self.stats.watermarks += 1;
        }
    }

    /// Releases the next ready event — the buffered event with the
    /// smallest `(timestamp, arrival)` key, provided its timestamp is at
    /// or below the watermark (a watermark *equal* to a buffered timestamp
    /// flushes it: later events are stamped strictly above a passed
    /// watermark under the lateness bound). Returns `None` when nothing is
    /// ready. The released sequence is timestamp-monotone by construction.
    pub fn pop_ready(&mut self) -> Option<Event> {
        let w = self.watermark?;
        if self.buf.peek_key()?.0 <= w {
            self.buf.pop()
        } else {
            None
        }
    }

    /// End of stream: opens the gate so every buffered event drains
    /// through [`pop_ready`](Self::pop_ready) in `(timestamp, arrival)`
    /// order. Emits nothing by itself — an empty buffer stays empty — and
    /// counts no watermark advance (it is a flush, not an emission).
    pub fn finish(&mut self) {
        self.watermark = Some(u64::MAX);
    }

    /// Takes the counter deltas accumulated since the last call.
    pub fn take_stats(&mut self) -> ReorderStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::EventType;

    fn ev(seq: u64, ts: u64) -> Event {
        Event::builder(EventType::new(0)).seq(seq).ts(ts).build()
    }

    fn drain(buf: &mut ReorderBuffer) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(e) = buf.pop_ready() {
            out.push(e.seq());
        }
        out
    }

    #[test]
    fn in_order_stream_passes_through_with_zero_delay() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(0));
        for seq in 0..10u64 {
            assert!(matches!(buf.offer(ev(seq, seq * 100)), Offer::Buffered));
            // Period-1 watermark == the event's own ts: released at once.
            assert_eq!(drain(&mut buf), vec![seq]);
        }
        let stats = buf.take_stats();
        assert_eq!(stats.reordered, 0);
        assert_eq!(stats.late_dropped, 0);
        assert_eq!(stats.watermarks, 10);
    }

    #[test]
    fn bounded_disorder_is_repaired_in_timestamp_order() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(25));
        // ts order 30, 10, 20, 40 — disorder ≤ 20, within the bound.
        for (seq, ts) in [(0u64, 30u64), (1, 10), (2, 20), (3, 40)] {
            assert!(matches!(buf.offer(ev(seq, ts)), Offer::Buffered));
        }
        buf.finish();
        // Drained back in ts order: 10, 20, 30, 40.
        assert_eq!(drain(&mut buf), vec![1, 2, 0, 3]);
        let stats = buf.take_stats();
        assert_eq!(stats.reordered, 2);
        assert_eq!(stats.late_dropped, 0);
    }

    #[test]
    fn duplicate_timestamps_preserve_arrival_order() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(100));
        for seq in 0..5u64 {
            assert!(matches!(buf.offer(ev(seq, 50)), Offer::Buffered));
        }
        buf.finish();
        assert_eq!(drain(&mut buf), vec![0, 1, 2, 3, 4], "stable for equal ts");
    }

    #[test]
    fn watermark_equal_to_buffered_timestamp_flushes_it() {
        let mut buf = ReorderBuffer::new(
            ReorderConfig::bounded(0).with_watermark(WatermarkPolicy::Punctuated),
        );
        assert!(matches!(buf.offer(ev(0, 42)), Offer::Buffered));
        buf.advance_watermark(41);
        assert!(buf.pop_ready().is_none(), "below the ts: stays buffered");
        buf.advance_watermark(42);
        assert_eq!(drain(&mut buf), vec![0], "equal to the ts: released");
    }

    #[test]
    fn empty_stream_finish_emits_nothing() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(64));
        buf.finish();
        assert!(buf.pop_ready().is_none());
        assert!(buf.is_empty());
        assert!(buf.take_stats().is_empty());
    }

    #[test]
    fn buffer_full_returns_the_rejected_event_intact() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(1_000).with_capacity(2));
        assert!(matches!(buf.offer(ev(0, 100)), Offer::Buffered));
        assert!(matches!(buf.offer(ev(1, 200)), Offer::Buffered));
        let held = ev(2, 150);
        match buf.offer(held.clone()) {
            Offer::Rejected(back) => assert_eq!(back, held),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(buf.len(), 2, "a rejected offer consumes no space");
        // Releasing makes room again.
        buf.advance_watermark(1_000 + 100);
        assert_eq!(drain(&mut buf), vec![0]);
        assert!(matches!(buf.offer(held), Offer::Buffered));
    }

    #[test]
    fn late_event_is_dropped_and_counted() {
        let mut buf = ReorderBuffer::new(ReorderConfig::bounded(10));
        assert!(matches!(buf.offer(ev(0, 100)), Offer::Buffered));
        // Watermark = 90; ts 50 is below it → late.
        assert!(matches!(buf.offer(ev(1, 50)), Offer::DroppedLate));
        // ts 90 equals the watermark → on time.
        assert!(matches!(buf.offer(ev(2, 90)), Offer::Buffered));
        let stats = buf.take_stats();
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(stats.reordered, 1, "the on-time ts-90 event was disordered");
        buf.finish();
        assert_eq!(drain(&mut buf), vec![2, 0]);
    }

    #[test]
    fn punctuated_buffer_releases_nothing_without_punctuation() {
        let mut buf = ReorderBuffer::new(
            ReorderConfig::bounded(0).with_watermark(WatermarkPolicy::Punctuated),
        );
        for seq in 0..20u64 {
            assert!(matches!(buf.offer(ev(seq, seq)), Offer::Buffered));
        }
        assert!(buf.pop_ready().is_none());
        assert_eq!(buf.watermark(), None);
        buf.advance_watermark(9);
        assert_eq!(drain(&mut buf).len(), 10, "ts 0..=9 released");
        assert_eq!(buf.len(), 10);
        let stats = buf.take_stats();
        assert_eq!(stats.watermarks, 1);
    }

    #[test]
    fn watermarks_never_regress() {
        let mut buf = ReorderBuffer::new(
            ReorderConfig::bounded(0).with_watermark(WatermarkPolicy::Punctuated),
        );
        buf.advance_watermark(100);
        buf.advance_watermark(50);
        assert_eq!(buf.watermark(), Some(100));
        assert_eq!(buf.take_stats().watermarks, 1, "the regression was ignored");
    }

    /// The reference the heap is checked against: a plain `Vec` of held
    /// `(ts, arrival, seq)` triples, released by sorting the ones at or
    /// below the watermark.
    struct Model {
        config: ReorderConfig,
        held: Vec<(u64, u64, u64)>,
        arrivals: u64,
        max_ts: Option<u64>,
        watermark: Option<u64>,
        stats: ReorderStats,
    }

    /// What an offer did, with the handed-back event's seq.
    #[derive(Debug, PartialEq, Eq)]
    enum Outcome {
        Buffered,
        DroppedLate,
        Rejected(u64),
    }

    impl From<Offer> for Outcome {
        fn from(offer: Offer) -> Self {
            match offer {
                Offer::Buffered => Outcome::Buffered,
                Offer::DroppedLate => Outcome::DroppedLate,
                Offer::Rejected(e) => Outcome::Rejected(e.seq()),
            }
        }
    }

    impl Model {
        fn new(config: ReorderConfig) -> Self {
            Model {
                config,
                held: Vec::new(),
                arrivals: 0,
                max_ts: None,
                watermark: None,
                stats: ReorderStats::default(),
            }
        }

        fn advance_to(&mut self, candidate: u64) {
            if self.watermark.is_none_or(|w| candidate > w) {
                self.watermark = Some(candidate);
                self.stats.watermarks += 1;
            }
        }

        fn offer(&mut self, seq: u64, ts: u64) -> Outcome {
            if self.watermark.is_some_and(|w| ts < w) {
                self.stats.late_dropped += 1;
                return Outcome::DroppedLate;
            }
            if self.held.len() >= self.config.capacity {
                return Outcome::Rejected(seq);
            }
            match self.max_ts {
                Some(m) if ts < m => self.stats.reordered += 1,
                _ => self.max_ts = Some(ts),
            }
            self.held.push((ts, self.arrivals, seq));
            self.arrivals += 1;
            if self.config.watermark == WatermarkPolicy::Periodic {
                let max = self.max_ts.unwrap();
                self.advance_to(max.saturating_sub(self.config.max_delay));
            }
            Outcome::Buffered
        }

        /// Releases up to `n` ready events, smallest `(ts, arrival)` first.
        fn pop(&mut self, n: usize) -> Vec<u64> {
            let Some(w) = self.watermark else {
                return Vec::new();
            };
            let mut ready: Vec<_> = self.held.iter().copied().filter(|e| e.0 <= w).collect();
            ready.sort_unstable();
            ready.truncate(n);
            self.held.retain(|e| !ready.contains(e));
            ready.into_iter().map(|e| e.2).collect()
        }
    }

    /// xorshift64: a seeded, dependency-free source for the model test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// How often each case the model test must cover came up.
    #[derive(Debug, Default, Clone, Copy)]
    struct Seen {
        dup_ts: u64,
        dropped: u64,
        rejected: u64,
        punctuated: u64,
        finished: u64,
    }

    #[test]
    fn the_heap_releases_like_a_sorted_vec_model() {
        // How often each case the model must cover came up, over all runs.
        let mut seen = Seen::default();
        for seed in 1..=240u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let max_delay = [0, 3, 16, 64][rng.below(4) as usize];
            let watermark = match rng.below(3) {
                0 => WatermarkPolicy::Punctuated,
                _ => WatermarkPolicy::Periodic,
            };
            let config = ReorderConfig::bounded(max_delay)
                .with_watermark(watermark)
                .with_capacity([1, 4, 16, 256][rng.below(4) as usize]);
            let mut buf = ReorderBuffer::new(config.clone());
            let mut model = Model::new(config);
            let mut stream_ts = 0u64;
            for seq in 0..300u64 {
                let step = format!("seed {seed} step {seq}");
                match rng.below(20) {
                    0 => {
                        stream_ts += rng.below(8);
                        buf.advance_watermark(stream_ts);
                        model.advance_to(stream_ts.saturating_sub(max_delay));
                        seen.punctuated += 1;
                    }
                    1 if rng.below(8) == 0 => {
                        buf.finish();
                        model.watermark = Some(u64::MAX);
                        seen.finished += 1;
                    }
                    2..=5 => {
                        let n = rng.below(6) as usize;
                        let got: Vec<u64> = std::iter::from_fn(|| buf.pop_ready())
                            .take(n)
                            .map(|e| e.seq())
                            .collect();
                        assert_eq!(got, model.pop(n), "{step}: partial release");
                    }
                    _ => {
                        // A small jittered range makes equal timestamps
                        // common; the occasional deep dip is late.
                        stream_ts += rng.below(3);
                        let back = match rng.below(10) {
                            0 => rng.below(4 * max_delay + 8),
                            _ => rng.below(max_delay + 2),
                        };
                        let ts = stream_ts.saturating_sub(back);
                        if model.held.iter().any(|e| e.0 == ts) {
                            seen.dup_ts += 1;
                        }
                        let got = Outcome::from(buf.offer(ev(seq, ts)));
                        let want = model.offer(seq, ts);
                        match want {
                            Outcome::DroppedLate => seen.dropped += 1,
                            Outcome::Rejected(_) => seen.rejected += 1,
                            Outcome::Buffered => {}
                        }
                        assert_eq!(got, want, "{step}: offer of ts {ts}");
                    }
                }
                assert_eq!(buf.len(), model.held.len(), "{step}");
                assert_eq!(buf.is_full(), model.held.len() >= model.config.capacity);
                assert_eq!(buf.watermark(), model.watermark, "{step}");
                if rng.below(16) == 0 {
                    assert_eq!(buf.take_stats(), std::mem::take(&mut model.stats), "{step}");
                }
            }
            buf.finish();
            model.watermark = Some(u64::MAX);
            assert_eq!(
                drain(&mut buf),
                model.pop(usize::MAX),
                "seed {seed}: final drain"
            );
            assert!(buf.is_empty());
            assert_eq!(buf.take_stats(), model.stats, "seed {seed}: final stats");
        }
        let Seen {
            dup_ts,
            dropped,
            rejected,
            punctuated,
            finished,
        } = seen;
        assert!(
            [dup_ts, dropped, rejected, punctuated, finished]
                .iter()
                .all(|&n| n > 0),
            "every case came up: {seen:?}"
        );
    }

    #[test]
    fn keyed_heap_pops_in_key_order_and_reuses_freed_slots() {
        let mut heap = KeyedHeap::default();
        for (i, key) in [(5, 0), (1, 1), (5, 2), (3, 3)].into_iter().enumerate() {
            heap.push(key, i);
        }
        assert_eq!(heap.peek_key(), Some((1, 1)));
        assert_eq!(heap.pop(), Some(1));
        assert_eq!(heap.pop(), Some(3));
        heap.push((0, 4), 4);
        heap.push((9, 5), 5);
        assert_eq!(heap.slots.len(), 4, "the two freed slots were reused");
        let drained: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(drained, vec![4, 0, 2, 5]);
        assert!(heap.is_empty());
        assert_eq!(heap.peek_key(), None);
    }

    #[test]
    #[should_panic(expected = "reorder buffer capacity must be positive")]
    fn zero_capacity_rejected() {
        ReorderBuffer::new(ReorderConfig::bounded(0).with_capacity(0));
    }
}
