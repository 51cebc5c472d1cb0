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
//! * arriving events are buffered keyed by `(timestamp, arrival)` — the
//!   arrival counter keeps duplicate timestamps stable,
//! * a **watermark** tracks event-time progress under a fixed
//!   bounded-lateness assumption: no event arrives more than
//!   [`ReorderConfig::max_delay`] timestamp ticks after a later-stamped
//!   event already seen ([`WatermarkPolicy::Periodic`] re-derives it from
//!   the maximum seen timestamp; [`WatermarkPolicy::Punctuated`] advances
//!   it only on explicit punctuation, e.g. a decoded watermark frame),
//! * events at or below the watermark are **released** in timestamp order
//!   ([`pop_ready`](ReorderBuffer::pop_ready)) — anything still buffered is
//!   strictly above it, so the released stream is timestamp-monotone,
//! * an event arriving *below* the watermark is **late**: the violation of
//!   the lateness bound is handled by the configured [`LatePolicy`] —
//!   counted and dropped, or admitted for best-effort routing to
//!   still-open windows,
//! * the buffer is **bounded** ([`ReorderConfig::capacity`]): an offer
//!   beyond the cap hands the event back intact, which the engine surfaces
//!   as the existing `PushResult::Full` back-pressure.
//!
//! The structure follows the event-time window managers of dataflow
//! systems (allocate on watermark advance, emit on watermark pass); the
//! lateness handling is a pluggable policy rather than a baked-in
//! constant.
//!
//! [`Splitter::feed`]: crate::splitter::Splitter::feed

use std::collections::BTreeMap;

use spectre_events::Event;

/// What to do with a late event — one whose timestamp is already below the
/// watermark, i.e. the bounded-lateness assumption
/// ([`ReorderConfig::max_delay`]) was violated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LatePolicy {
    /// Count the event ([`ReorderStats::late_dropped`]) and discard it —
    /// the default: downstream output stays exactly the in-order output of
    /// the on-time stream.
    #[default]
    Drop,
    /// Hand the event back for best-effort routing straight to still-open
    /// windows ([`Offer::AdmittedLate`]); the engine feeds it past the
    /// monotonicity check. Windows that already closed stay closed — an
    /// admitted event can only reach windows still accumulating.
    Admit,
}

/// How the watermark advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkPolicy {
    /// Re-derive the watermark as `max_seen_ts − max_delay` every `period`
    /// arrivals (`period = 1` re-evaluates on every event — the tightest,
    /// default cadence; larger periods trade latency for fewer
    /// re-evaluations).
    Periodic {
        /// Arrivals between watermark re-evaluations (must be positive).
        period: u64,
    },
    /// The watermark advances only on explicit punctuation
    /// ([`ReorderBuffer::advance_watermark`] — fed by watermark frames on
    /// the wire, see `spectre_events::codec::encode_watermark`). Without
    /// punctuation nothing is ever released, so a full buffer
    /// back-pressures until the source emits one.
    Punctuated,
}

impl Default for WatermarkPolicy {
    fn default() -> Self {
        WatermarkPolicy::Periodic { period: 1 }
    }
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
    /// Policy for events that violate the lateness bound.
    pub late_policy: LatePolicy,
    /// Maximum buffered events; offers beyond it are handed back
    /// ([`Offer::Rejected`]), which the engine surfaces as
    /// `PushResult::Full`.
    pub capacity: usize,
}

impl ReorderConfig {
    /// The standard bounded-lateness configuration: periodic per-event
    /// watermarks at `max_delay` ticks of slack, late events dropped,
    /// a 4096-event buffer.
    pub fn bounded(max_delay: u64) -> Self {
        ReorderConfig {
            max_delay,
            watermark: WatermarkPolicy::default(),
            late_policy: LatePolicy::default(),
            capacity: 4096,
        }
    }

    /// Returns the configuration with the late policy replaced.
    ///
    /// # Example
    ///
    /// ```
    /// use spectre_core::reorder::{LatePolicy, ReorderConfig};
    ///
    /// let admit = ReorderConfig::bounded(64).with_late_policy(LatePolicy::Admit);
    /// assert_eq!(admit.late_policy, LatePolicy::Admit);
    /// assert_eq!(ReorderConfig::bounded(64).late_policy, LatePolicy::Drop);
    /// ```
    #[must_use]
    pub fn with_late_policy(mut self, policy: LatePolicy) -> Self {
        self.late_policy = policy;
        self
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
        if let WatermarkPolicy::Periodic { period } = self.watermark {
            if period == 0 {
                return Err("watermark period must be positive".into());
            }
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero buffer capacity or a zero periodic watermark
    /// period. [`try_validate`](Self::try_validate) is the non-panicking
    /// equivalent.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
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
    /// Late events discarded under [`LatePolicy::Drop`].
    pub late_dropped: u64,
    /// Late events handed through under [`LatePolicy::Admit`].
    pub late_admitted: u64,
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
#[must_use = "AdmittedLate and Rejected hand the event back; dropping them loses it"]
pub enum Offer {
    /// The event was buffered; it will be released once the watermark
    /// passes its timestamp.
    Buffered,
    /// The event is late and [`LatePolicy::Admit`] hands it back for
    /// direct routing to still-open windows.
    AdmittedLate(Event),
    /// The event is late and [`LatePolicy::Drop`] discarded it (counted in
    /// [`ReorderStats::late_dropped`]).
    DroppedLate,
    /// The buffer is at [`ReorderConfig::capacity`]; the event is handed
    /// back intact. Release some events (advance the watermark, or drain
    /// [`pop_ready`](ReorderBuffer::pop_ready)) and retry.
    Rejected(Event),
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
    /// Buffered events keyed by `(timestamp, arrival)` — the arrival
    /// counter makes duplicate timestamps drain in arrival order.
    buf: BTreeMap<(u64, u64), Event>,
    /// Monotone arrival counter (tie-breaker for duplicate timestamps).
    arrivals: u64,
    /// Arrivals since the last periodic watermark re-evaluation.
    since_eval: u64,
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
    /// Panics if the configuration is invalid ([`ReorderConfig::validate`]).
    pub fn new(config: ReorderConfig) -> Self {
        config.validate();
        ReorderBuffer {
            config,
            buf: BTreeMap::new(),
            arrivals: 0,
            since_eval: 0,
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
    /// resolved by the [`LatePolicy`] without consuming buffer space; a
    /// full buffer hands the event back ([`Offer::Rejected`]).
    pub fn offer(&mut self, event: Event) -> Offer {
        let ts = event.ts();
        if self.watermark.is_some_and(|w| ts < w) {
            return match self.config.late_policy {
                LatePolicy::Drop => {
                    self.stats.late_dropped += 1;
                    Offer::DroppedLate
                }
                LatePolicy::Admit => {
                    self.stats.late_admitted += 1;
                    Offer::AdmittedLate(event)
                }
            };
        }
        if self.is_full() {
            return Offer::Rejected(event);
        }
        if self.max_ts.is_some_and(|m| ts < m) {
            self.stats.reordered += 1;
        } else {
            self.max_ts = Some(ts);
        }
        self.buf.insert((ts, self.arrivals), event);
        self.arrivals += 1;
        if let WatermarkPolicy::Periodic { period } = self.config.watermark {
            self.since_eval += 1;
            if self.since_eval >= period {
                self.since_eval = 0;
                let max = self.max_ts.expect("an event was just offered");
                self.advance_to(max.saturating_sub(self.config.max_delay));
            }
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
        let (&key, _) = self.buf.first_key_value()?;
        if key.0 <= w {
            self.buf.remove(&key)
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
    fn late_event_is_admitted_under_admit_policy() {
        let mut buf =
            ReorderBuffer::new(ReorderConfig::bounded(10).with_late_policy(LatePolicy::Admit));
        assert!(matches!(buf.offer(ev(0, 100)), Offer::Buffered));
        let late = ev(1, 50);
        match buf.offer(late.clone()) {
            Offer::AdmittedLate(back) => assert_eq!(back, late),
            other => panic!("expected AdmittedLate, got {other:?}"),
        }
        assert_eq!(buf.take_stats().late_admitted, 1);
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
    fn periodic_watermark_respects_the_period() {
        let mut buf = ReorderBuffer::new(
            ReorderConfig::bounded(0).with_watermark(WatermarkPolicy::Periodic { period: 4 }),
        );
        for seq in 0..3u64 {
            assert!(matches!(buf.offer(ev(seq, seq * 10)), Offer::Buffered));
        }
        assert_eq!(buf.watermark(), None, "period not reached");
        assert!(matches!(buf.offer(ev(3, 30)), Offer::Buffered));
        assert_eq!(buf.watermark(), Some(30), "fourth arrival re-evaluates");
        assert_eq!(drain(&mut buf).len(), 4);
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

    #[test]
    #[should_panic(expected = "reorder buffer capacity must be positive")]
    fn zero_capacity_rejected() {
        ReorderBuffer::new(ReorderConfig::bounded(0).with_capacity(0));
    }

    #[test]
    #[should_panic(expected = "watermark period must be positive")]
    fn zero_period_rejected() {
        ReorderBuffer::new(
            ReorderConfig::bounded(0).with_watermark(WatermarkPolicy::Periodic { period: 0 }),
        );
    }
}
