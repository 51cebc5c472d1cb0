//! Window specifications and the stream-to-window assigner (splitter logic).

use std::collections::VecDeque;
use std::fmt;

use spectre_events::{Event, EventType, Seq, Timestamp};

use crate::expr::Expr;

/// When a new window opens (paper §2.2: windows based on time, count or
/// logical predicates).
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOpen {
    /// A new window opens every `slide` events (`FROM EVERY s EVENTS`); the
    /// first window opens on the first event of the stream.
    EverySlide(u64),
    /// A new window opens on every event matching the predicate (`FROM MLE`),
    /// e.g. "a window with a scope of 1 minute is opened whenever an A event
    /// occurs" (paper §2.1).
    OnMatch {
        /// Optional event-type filter.
        event_type: Option<EventType>,
        /// Predicate over the candidate start event (self-references only).
        pred: Expr,
    },
}

/// When an open window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowClose {
    /// The window spans `ws` consecutive events including its start event
    /// (`WITHIN ws EVENTS`).
    Count(u64),
    /// The window spans events with `ts < start_ts + duration`
    /// (`WITHIN 1 MIN`).
    Time(Timestamp),
}

/// A complete window specification: open condition plus scope.
///
/// Specs compare structurally (`PartialEq`): two queries whose specs are
/// equal produce identical window boundaries over the same stream, which
/// is what lets a multi-query engine share one assigner — and one stored
/// copy of each window — between them.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    open: WindowOpen,
    close: WindowClose,
}

/// Error raised for degenerate window specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowSpecError {
    /// Slide of zero events.
    ZeroSlide,
    /// Scope of zero events / zero duration.
    ZeroScope,
}

impl fmt::Display for WindowSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpecError::ZeroSlide => write!(f, "window slide must be positive"),
            WindowSpecError::ZeroScope => write!(f, "window scope must be positive"),
        }
    }
}

impl std::error::Error for WindowSpecError {}

impl WindowSpec {
    /// Creates a window specification.
    ///
    /// # Errors
    ///
    /// Returns [`WindowSpecError`] if the slide or scope is zero.
    pub fn new(open: WindowOpen, close: WindowClose) -> Result<Self, WindowSpecError> {
        if let WindowOpen::EverySlide(0) = open {
            return Err(WindowSpecError::ZeroSlide);
        }
        match close {
            WindowClose::Count(0) | WindowClose::Time(0) => return Err(WindowSpecError::ZeroScope),
            _ => {}
        }
        Ok(WindowSpec { open, close })
    }

    /// Count-based sliding window: scope `ws` events, slide `s` events.
    pub fn count_sliding(ws: u64, s: u64) -> Result<Self, WindowSpecError> {
        Self::new(WindowOpen::EverySlide(s), WindowClose::Count(ws))
    }

    /// Predicate-opened window with a count scope.
    pub fn on_match_count(
        event_type: Option<EventType>,
        pred: Expr,
        ws: u64,
    ) -> Result<Self, WindowSpecError> {
        Self::new(
            WindowOpen::OnMatch { event_type, pred },
            WindowClose::Count(ws),
        )
    }

    /// Predicate-opened window with a time scope.
    pub fn on_match_time(
        event_type: Option<EventType>,
        pred: Expr,
        duration: Timestamp,
    ) -> Result<Self, WindowSpecError> {
        Self::new(
            WindowOpen::OnMatch { event_type, pred },
            WindowClose::Time(duration),
        )
    }

    /// The open condition.
    pub fn open(&self) -> &WindowOpen {
        &self.open
    }

    /// The close condition.
    pub fn close(&self) -> WindowClose {
        self.close
    }
}

/// Boundaries of one window instance, as stored by the splitter in shared
/// memory ("`wi` from event X to event Y", paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBounds {
    /// Monotonically increasing window id; also the total order of windows
    /// (paper §3.1: windows are ordered by their start events).
    pub id: u64,
    /// Sequence number of the start event.
    pub start_seq: Seq,
    /// Timestamp of the start event.
    pub start_ts: Timestamp,
    /// Position of the start event in the stream (0-based event counter).
    pub start_pos: u64,
}

/// Outcome of observing one event in the [`WindowAssigner`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssignResult {
    /// Window opened by this event (the event belongs to it).
    pub opened: Option<WindowBounds>,
    /// Windows that closed *before* this event (the event is outside them).
    pub closed: Vec<WindowBounds>,
    /// Ids of all windows containing this event, oldest first.
    pub members: Vec<u64>,
}

/// Splits the totally ordered input stream into (possibly overlapping)
/// windows according to a [`WindowSpec`] — the splitter's window logic
/// (paper §2.2).
///
/// The assigner is deterministic and engine-independent: the sequential
/// reference engine, the T-REX-style baseline and SPECTRE's splitter all use
/// it, guaranteeing identical window boundaries.
///
/// # Example
///
/// ```
/// use spectre_events::{Event, Schema};
/// use spectre_query::{WindowSpec, window::WindowAssigner};
///
/// let mut schema = Schema::new();
/// let t = schema.event_type("E");
/// let spec = WindowSpec::count_sliding(3, 2)?;
/// let mut wa = WindowAssigner::new(spec);
/// let mk = |seq| Event::builder(t).seq(seq).ts(seq).build();
/// assert_eq!(wa.observe(&mk(0)).members, vec![0]);       // w0 opens
/// assert_eq!(wa.observe(&mk(1)).members, vec![0]);
/// assert_eq!(wa.observe(&mk(2)).members, vec![0, 1]);    // w1 opens
/// let r = wa.observe(&mk(3));
/// assert_eq!(r.closed.len(), 1);                          // w0 closed
/// assert_eq!(r.members, vec![1]);
/// # Ok::<(), spectre_query::window::WindowSpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WindowAssigner {
    spec: WindowSpec,
    pos: u64,
    next_id: u64,
    open: VecDeque<WindowBounds>,
}

struct SelfCtx<'a>(&'a Event);

impl crate::expr::EvalContext for SelfCtx<'_> {
    fn current(&self) -> &Event {
        self.0
    }
    fn bound(&self, _: crate::pattern::ElemId) -> Option<&Event> {
        None
    }
}

impl WindowAssigner {
    /// Creates an assigner for the given specification.
    pub fn new(spec: WindowSpec) -> Self {
        WindowAssigner {
            spec,
            pos: 0,
            next_id: 0,
            open: VecDeque::new(),
        }
    }

    /// The window specification.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Number of events observed so far.
    pub fn events_observed(&self) -> u64 {
        self.pos
    }

    /// Number of windows opened so far — also the id the next window will
    /// get. A consumer subscribing mid-stream uses this as its id offset so
    /// its own window numbering starts at zero from the next boundary.
    pub fn windows_opened(&self) -> u64 {
        self.next_id
    }

    /// Currently open windows, oldest first.
    pub fn open_windows(&self) -> impl Iterator<Item = &WindowBounds> {
        self.open.iter()
    }

    /// Observes the next stream event: closes windows whose scope excludes
    /// it, possibly opens a new window starting at it, and reports the
    /// windows it belongs to.
    pub fn observe(&mut self, ev: &Event) -> AssignResult {
        let mut closed = Vec::new();
        let opened = self.ingest(ev, &mut closed);
        AssignResult {
            opened,
            closed,
            // Memberships: all still-open windows contain this event.
            members: self.open.iter().map(|w| w.id).collect(),
        }
    }

    /// Allocation-free variant of [`observe`](Self::observe) for the
    /// splitter's hot path: windows the event closes are appended to
    /// `closed` (a caller-owned, reusable buffer), the window the event
    /// opens — if any — is returned, and no per-event membership list is
    /// built (every still-open window contains the event by construction,
    /// so callers that mirror the open set need none).
    pub fn ingest(&mut self, ev: &Event, closed: &mut Vec<WindowBounds>) -> Option<WindowBounds> {
        let pos = self.pos;
        self.pos += 1;

        // 1. Close windows that do not include this event (oldest first;
        //    start positions and timestamps are non-decreasing, so the scan
        //    can stop at the first still-included window).
        while let Some(front) = self.open.front() {
            let excluded = match self.spec.close {
                WindowClose::Count(ws) => pos >= front.start_pos + ws,
                WindowClose::Time(d) => ev.ts() >= front.start_ts.saturating_add(d),
            };
            if excluded {
                closed.push(self.open.pop_front().expect("front exists"));
            } else {
                break;
            }
        }

        // 2. Maybe open a new window starting at this event.
        let opens = match &self.spec.open {
            WindowOpen::EverySlide(s) => pos.is_multiple_of(*s),
            WindowOpen::OnMatch { event_type, pred } => {
                let type_ok = event_type.is_none_or(|t| ev.event_type() == t);
                type_ok && pred.matches(&SelfCtx(ev))
            }
        };
        if opens {
            let bounds = WindowBounds {
                id: self.next_id,
                start_seq: ev.seq(),
                start_ts: ev.ts(),
                start_pos: pos,
            };
            self.next_id += 1;
            self.open.push_back(bounds);
            return Some(bounds);
        }
        None
    }

    /// Flushes the stream end: every still-open window closes.
    pub fn finish(&mut self) -> Vec<WindowBounds> {
        self.open.drain(..).collect()
    }
}

/// A window's bounds together with its (exclusive) end position in the
/// stream, known once the window has closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRange {
    /// The window's boundaries.
    pub bounds: WindowBounds,
    /// Position (0-based event index) of the first event *outside* the
    /// window.
    pub end_pos: u64,
}

impl WindowRange {
    /// Number of events the window spans.
    pub fn len(&self) -> u64 {
        self.end_pos - self.bounds.start_pos
    }

    /// `true` for zero-length windows (cannot occur: a window always contains
    /// its start event).
    pub fn is_empty(&self) -> bool {
        self.end_pos == self.bounds.start_pos
    }

    /// `true` if this window overlaps `other`.
    pub fn overlaps(&self, other: &WindowRange) -> bool {
        self.bounds.start_pos < other.end_pos && other.bounds.start_pos < self.end_pos
    }
}

/// Computes all window ranges of a finite stream in window-id order — the
/// batch counterpart of [`WindowAssigner`], used by the reference engines.
pub fn compute_ranges(spec: &WindowSpec, events: &[Event]) -> Vec<WindowRange> {
    let mut wa = WindowAssigner::new(spec.clone());
    let mut ranges: Vec<WindowRange> = Vec::new();
    for (pos, ev) in events.iter().enumerate() {
        let r = wa.observe(ev);
        for closed in r.closed {
            ranges.push(WindowRange {
                bounds: closed,
                end_pos: pos as u64,
            });
        }
    }
    let end = events.len() as u64;
    for closed in wa.finish() {
        ranges.push(WindowRange {
            bounds: closed,
            end_pos: end,
        });
    }
    ranges.sort_by_key(|r| r.bounds.id);
    ranges
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use spectre_events::Schema;

    fn mk(seq: Seq) -> Event {
        Event::builder(EventType::new(0)).seq(seq).ts(seq).build()
    }

    #[test]
    fn ranges_for_count_sliding() {
        let spec = WindowSpec::count_sliding(4, 2).unwrap();
        let events: Vec<_> = (0..7).map(mk).collect();
        let ranges = compute_ranges(&spec, &events);
        assert_eq!(ranges.len(), 4);
        // w0: [0,4) w1: [2,6) w2: [4,7) (truncated by stream end) w3: [6,7)
        assert_eq!(ranges[0].bounds.start_pos, 0);
        assert_eq!(ranges[0].end_pos, 4);
        assert_eq!(ranges[1].bounds.start_pos, 2);
        assert_eq!(ranges[1].end_pos, 6);
        assert_eq!(ranges[2].bounds.start_pos, 4);
        assert_eq!(ranges[2].end_pos, 7);
        assert_eq!(ranges[3].bounds.start_pos, 6);
        assert_eq!(ranges[3].end_pos, 7);
        assert!(ranges[0].overlaps(&ranges[1]));
        assert!(!ranges[0].overlaps(&ranges[3]));
        assert_eq!(ranges[0].len(), 4);
        assert!(!ranges[0].is_empty());
    }

    #[test]
    fn predicate_windows_for_time_scope() {
        let mut schema = Schema::new();
        let x = schema.attr("x");
        let spec =
            WindowSpec::on_match_time(None, Expr::current(x).eq_(Expr::value(1.0)), 5).unwrap();
        let mkx = |seq: Seq, ts: Timestamp, x_val: f64| {
            Event::builder(EventType::new(0))
                .seq(seq)
                .ts(ts)
                .attr(x, x_val)
                .build()
        };
        let events = vec![
            mkx(0, 0, 1.0),
            mkx(1, 2, 0.0),
            mkx(2, 4, 1.0),
            mkx(3, 6, 0.0),
            mkx(4, 11, 0.0),
        ];
        let ranges = compute_ranges(&spec, &events);
        assert_eq!(ranges.len(), 2);
        // w0: ts [0,5) → positions [0,3); w1: ts [4,9) → positions [2,4)
        assert_eq!((ranges[0].bounds.start_pos, ranges[0].end_pos), (0, 3));
        assert_eq!((ranges[1].bounds.start_pos, ranges[1].end_pos), (2, 4));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::{AttrKey, Schema};

    fn mk(seq: Seq, ts: Timestamp, x: f64) -> Event {
        Event::builder(EventType::new(0))
            .seq(seq)
            .ts(ts)
            .attr(AttrKey::new(0), x)
            .build()
    }

    #[test]
    fn count_sliding_windows_overlap() {
        let spec = WindowSpec::count_sliding(4, 2).unwrap();
        let mut wa = WindowAssigner::new(spec);
        let mut memberships = Vec::new();
        for i in 0..8 {
            let r = wa.observe(&mk(i, i, 0.0));
            memberships.push(r.members);
        }
        assert_eq!(
            memberships,
            vec![
                vec![0],
                vec![0],
                vec![0, 1],
                vec![0, 1],
                vec![1, 2],
                vec![1, 2],
                vec![2, 3],
                vec![2, 3],
            ]
        );
        assert_eq!(wa.finish().len(), 2);
    }

    #[test]
    fn tumbling_windows_when_slide_equals_scope() {
        let spec = WindowSpec::count_sliding(3, 3).unwrap();
        let mut wa = WindowAssigner::new(spec);
        for i in 0..9 {
            let r = wa.observe(&mk(i, i, 0.0));
            assert_eq!(r.members.len(), 1);
            assert_eq!(r.members[0], i / 3);
        }
    }

    #[test]
    fn predicate_open_with_time_scope() {
        let mut schema = Schema::new();
        let _ = schema.event_type("E");
        let x = schema.attr("x");
        // windows open on x == 1.0 events, scope 10 time units
        let spec =
            WindowSpec::on_match_time(None, Expr::current(x).eq_(Expr::value(1.0)), 10).unwrap();
        let mut wa = WindowAssigner::new(spec);
        // event at ts 0 doesn't open
        assert!(wa.observe(&mk(0, 0, 0.0)).members.is_empty());
        // opener at ts 5
        let r = wa.observe(&mk(1, 5, 1.0));
        assert_eq!(r.opened.map(|w| w.id), Some(0));
        assert_eq!(r.members, vec![0]);
        // ts 14 still inside [5, 15)
        assert_eq!(wa.observe(&mk(2, 14, 0.0)).members, vec![0]);
        // ts 15 outside; closes w0
        let r = wa.observe(&mk(3, 15, 0.0));
        assert_eq!(r.closed.len(), 1);
        assert!(r.members.is_empty());
    }

    #[test]
    fn overlapping_predicate_windows() {
        let mut schema = Schema::new();
        let _ = schema.event_type("E");
        let x = schema.attr("x");
        let spec =
            WindowSpec::on_match_count(None, Expr::current(x).eq_(Expr::value(1.0)), 4).unwrap();
        let mut wa = WindowAssigner::new(spec);
        assert_eq!(wa.observe(&mk(0, 0, 1.0)).members, vec![0]);
        assert_eq!(wa.observe(&mk(1, 1, 1.0)).members, vec![0, 1]);
        assert_eq!(wa.observe(&mk(2, 2, 0.0)).members, vec![0, 1]);
        assert_eq!(wa.observe(&mk(3, 3, 0.0)).members, vec![0, 1]);
        // pos 4: w0 (start 0, ws 4) closes
        let r = wa.observe(&mk(4, 4, 0.0));
        assert_eq!(r.closed.len(), 1);
        assert_eq!(r.closed[0].id, 0);
        assert_eq!(r.members, vec![1]);
    }

    #[test]
    fn event_type_filter_on_open() {
        let mut schema = Schema::new();
        let a = schema.event_type("A");
        let b = schema.event_type("B");
        let spec = WindowSpec::on_match_count(Some(a), Expr::truth(), 2).unwrap();
        let mut wa = WindowAssigner::new(spec);
        let mk_typed = |seq, ty| Event::builder(ty).seq(seq).ts(seq).build();
        assert!(wa.observe(&mk_typed(0, b)).opened.is_none());
        assert!(wa.observe(&mk_typed(1, a)).opened.is_some());
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert_eq!(
            WindowSpec::count_sliding(4, 0).unwrap_err(),
            WindowSpecError::ZeroSlide
        );
        assert_eq!(
            WindowSpec::count_sliding(0, 1).unwrap_err(),
            WindowSpecError::ZeroScope
        );
        assert_eq!(
            WindowSpec::on_match_time(None, Expr::truth(), 0).unwrap_err(),
            WindowSpecError::ZeroScope
        );
    }

    #[test]
    fn ingest_matches_observe() {
        // The allocation-free hot-path entry point must report exactly the
        // opens and closes of `observe` on the same stream.
        let mk_pair = || WindowAssigner::new(WindowSpec::count_sliding(4, 2).unwrap());
        let (mut a, mut b) = (mk_pair(), mk_pair());
        let mut closed = Vec::new();
        for i in 0..16 {
            let ev = mk(i, i, 0.0);
            let r = a.observe(&ev);
            closed.clear();
            let opened = b.ingest(&ev, &mut closed);
            assert_eq!(opened, r.opened, "event {i}");
            assert_eq!(closed, r.closed, "event {i}");
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn bounds_record_start_metadata() {
        let spec = WindowSpec::count_sliding(8, 4).unwrap();
        let mut wa = WindowAssigner::new(spec);
        for i in 0..5 {
            wa.observe(&mk(100 + i, 1000 + i, 0.0));
        }
        let w1 = wa.open_windows().nth(1).copied().unwrap();
        assert_eq!(w1.id, 1);
        assert_eq!(w1.start_seq, 104);
        assert_eq!(w1.start_ts, 1004);
        assert_eq!(w1.start_pos, 4);
    }
}
