//! Window buffers and window bookkeeping.
//!
//! The splitter hands each sealed [`EventBatch`] chunk of the feed to every
//! window that overlaps it — one `Arc` clone and one buffer-lock
//! acquisition per (window, run of the chunk a cycle read), never per
//! event — and operator instances read their
//! scheduled window's events back by *window-relative index* as
//! [`EventRun`] slices of those shared batches. Window boundaries are
//! described by [`WindowInfo`] cells shared between the splitter (which
//! discovers the end position during ingestion) and all versions of the
//! window (paper §2.2: window boundaries are kept in shared memory).
//!
//! # Ownership and locking
//!
//! Every holder of a window holds its buffer: a [`WindowInfo`] carries the
//! window's [`WindowBuf`], so the splitter appends to it and instances read
//! from it without looking it up. Each buffer has its own lock, so the
//! splitter appending to one window never blocks an instance reading
//! another.
//!
//! # Batching
//!
//! A window's buffer is a list of *segments*, each a sub-range of one
//! shared hand-off batch. Writers ([`WindowBuf::extend`]) append one
//! segment per (window, batch); readers ([`WindowBuf::read_run`]) fetch
//! up to a whole batch of events under a single buffer-lock acquisition.
//! Event payloads live inside the batches and are shared by every
//! overlapping window — per-event allocation and reference counting are
//! gone from the hot path entirely.
//!
//! # Release
//!
//! Each buffer counts its subscribers (the queries whose windows read it).
//! The last [`WindowBuf::release`] — on whichever thread makes it — takes
//! the segments out, so a batch is freed when the last window referencing
//! it goes, even while `WindowInfo` cells of the window live on in
//! versions or scheduling slots. A released buffer reads as empty and
//! drops the slices still queued for it.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use spectre_events::{Event, Seq, Timestamp};

use crate::splitter::EventBatch;

/// Sentinel for "window end not yet known".
pub const END_UNKNOWN: u64 = u64::MAX;

/// Shared, immutable-except-end description of one window.
#[derive(Debug)]
pub struct WindowInfo {
    /// Query-local window id (a query's windows are totally ordered by id,
    /// paper §3.1). Dependency-tree ordering, revocation filtering and
    /// retirement order all compare these, so they restart at 0 for each
    /// deployed query.
    pub id: u64,
    /// The window's event buffer. Same-spec windows of different queries
    /// carry *distinct* `WindowInfo` cells (their local `id`s differ) but
    /// the *same* buffer, so the events are buffered once.
    pub buf: Arc<WindowBuf>,
    /// Position of the window's start event.
    pub start_pos: u64,
    /// Sequence number of the start event.
    pub start_seq: Seq,
    /// Timestamp of the start event.
    pub start_ts: Timestamp,
    /// Exclusive end position; [`END_UNKNOWN`] until the splitter observes
    /// the close condition.
    end_pos: AtomicU64,
}

impl WindowInfo {
    /// Creates a window whose end is not yet known, reading its events from
    /// `buf` (which other queries' windows may share).
    pub fn new(
        id: u64,
        buf: Arc<WindowBuf>,
        start_pos: u64,
        start_seq: Seq,
        start_ts: Timestamp,
    ) -> Self {
        WindowInfo {
            id,
            buf,
            start_pos,
            start_seq,
            start_ts,
            end_pos: AtomicU64::new(END_UNKNOWN),
        }
    }

    /// The exclusive end position, if known.
    pub fn end_pos(&self) -> Option<u64> {
        match self.end_pos.load(Ordering::Acquire) {
            END_UNKNOWN => None,
            v => Some(v),
        }
    }

    /// `true` once window-relative index `pos` is at or past the known end.
    pub fn ends_at(&self, pos: u64) -> bool {
        self.end_pos()
            .is_some_and(|end| self.start_pos + pos >= end)
    }

    /// Publishes the end position (idempotent; called by the splitter).
    pub fn set_end_pos(&self, end: u64) {
        self.end_pos.store(end, Ordering::Release);
    }
}

/// A contiguous run of window events handed to an operator instance: one
/// shared hand-off batch plus the sub-range of it that belongs to the
/// reading window. Holding the run keeps the batch alive; the events are
/// read in place, with no per-event copies or reference counts.
#[derive(Debug, Clone)]
pub struct EventRun {
    batch: Arc<EventBatch>,
    range: Range<usize>,
}

impl EventRun {
    /// The run's events, in stream order.
    pub fn events(&self) -> &[Event] {
        &self.batch.events()[self.range.clone()]
    }
}

/// One segment of a window's buffer: a sub-range of one shared batch.
#[derive(Debug)]
struct Seg {
    /// Window-relative index of the segment's first event.
    first: u64,
    batch: Arc<EventBatch>,
    range: Range<usize>,
}

/// One window's event buffer: the segments covering window-relative
/// indices `[0, len)`, ascending, behind a *per-window* lock, plus the
/// count of subscribers that have not released it yet.
///
/// The buffered length is also published in an atomic, so a reader that
/// is ahead of ingestion (a stalled instance polling for its next event)
/// finds out without touching the lock the splitter appends under.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_core::splitter::EventBatch;
/// use spectre_core::store::WindowBuf;
/// use spectre_events::{Event, EventType};
///
/// let buf = WindowBuf::new(1); // one subscriber
/// let events = (0..3)
///     .map(|seq| Event::builder(EventType::new(0)).seq(seq).ts(seq).build())
///     .collect();
/// let batch = Arc::new(EventBatch::new(0, events));
/// buf.extend(&batch, 0..3); // one lock + one Arc clone for the run
///
/// let mut runs = Vec::new();
/// assert_eq!(buf.read_run(1, 16, &mut runs), 2); // events 1 and 2
/// assert_eq!(runs[0].events()[0].seq(), 1);
///
/// assert!(buf.release()); // the last subscriber frees the events
/// assert!(buf.is_empty());
/// assert!(!buf.release(), "a released buffer stays released");
/// ```
pub struct WindowBuf {
    /// Events buffered, stored under the write lock after each append.
    len: AtomicU64,
    /// Subscribers not yet released; 0 once released.
    subscribers: AtomicUsize,
    segs: RwLock<Vec<Seg>>,
}

/// Leaves the segments out: every version and slot that prints its window
/// would otherwise print the window's events.
impl fmt::Debug for WindowBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowBuf")
            .field("len", &self.len())
            .field("subscribers", &self.subscribers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WindowBuf {
    /// Creates an empty buffer read by `subscribers` queries.
    pub fn new(subscribers: usize) -> Self {
        WindowBuf {
            len: AtomicU64::new(0),
            subscribers: AtomicUsize::new(subscribers),
            segs: RwLock::new(Vec::new()),
        }
    }

    /// Number of events currently buffered (0 once released).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// `true` while nothing has been ingested into the buffer, and once it
    /// is released.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `batch[range]` as one segment, under the buffer's own lock
    /// and one `Arc` clone. The segment continues the window's event
    /// sequence. An empty range, or a released buffer, drops the slice.
    pub fn extend(&self, batch: &Arc<EventBatch>, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        debug_assert!(range.end <= batch.len(), "segment range out of batch");
        let mut segs = self.segs.write();
        // Checked under the lock the last release empties the buffer
        // under: once that release is done, no slice gets in again.
        if self.subscribers.load(Ordering::Acquire) == 0 {
            return;
        }
        let first = self.len.load(Ordering::Relaxed);
        segs.push(Seg {
            first,
            batch: Arc::clone(batch),
            range: range.clone(),
        });
        self.len
            .store(first + range.len() as u64, Ordering::Release);
    }

    /// Collects up to `max` events starting at window-relative index `from`
    /// into `out` as [`EventRun`] slices (appended; `out` is *not*
    /// cleared). Returns the number of events covered — `0` when the events
    /// are not yet ingested or the buffer is released.
    pub fn read_run(&self, from: u64, max: usize, out: &mut Vec<EventRun>) -> usize {
        if from >= self.len() {
            return 0;
        }
        let segs = self.segs.read();
        let mut idx = segs.partition_point(|s| s.first + s.range.len() as u64 <= from);
        let mut remaining = max;
        let mut covered = 0usize;
        while remaining > 0 {
            let Some(seg) = segs.get(idx) else { break };
            let skip = (from.max(seg.first) - seg.first) as usize;
            let take = (seg.range.len() - skip).min(remaining);
            if take == 0 {
                break;
            }
            let start = seg.range.start + skip;
            out.push(EventRun {
                batch: Arc::clone(&seg.batch),
                range: start..start + take,
            });
            covered += take;
            remaining -= take;
            idx += 1;
        }
        covered
    }

    /// Drops one subscriber. The last one takes the segments out (hand-off
    /// batches shared with other live windows stay alive through their
    /// segments) and returns `true`; exactly one call does. Releasing a
    /// released buffer is a no-op that returns `false`.
    pub fn release(&self) -> bool {
        let last = self
            .subscribers
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            == Ok(1);
        if last {
            let segs = {
                let mut segs = self.segs.write();
                self.len.store(0, Ordering::Release);
                std::mem::take(&mut *segs)
            };
            // Freed outside the buffer lock, which readers take.
            drop(segs);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::EventType;
    use std::sync::Barrier;

    impl WindowInfo {
        fn contains_pos(&self, pos: u64) -> bool {
            pos >= self.start_pos && self.end_pos().is_none_or(|e| pos < e)
        }
    }

    fn batch(first_pos: u64, seqs: Range<u64>) -> Arc<EventBatch> {
        let events = seqs
            .map(|seq| Event::builder(EventType::new(0)).seq(seq).ts(seq).build())
            .collect();
        Arc::new(EventBatch::new(first_pos, events))
    }

    fn read_seqs(buf: &WindowBuf, from: u64, max: usize) -> Vec<Seq> {
        let mut runs = Vec::new();
        buf.read_run(from, max, &mut runs);
        runs.iter()
            .flat_map(|r| r.events().iter().map(|e| e.seq()))
            .collect()
    }

    fn get(buf: &WindowBuf, idx: u64) -> Option<Seq> {
        read_seqs(buf, idx, 1).first().copied()
    }

    #[test]
    fn extend_and_read_runs() {
        let buf = WindowBuf::new(1);
        buf.extend(&batch(10, 10..14), 0..4);
        buf.extend(&batch(14, 14..20), 0..6);
        assert_eq!(buf.len(), 10);
        assert_eq!(get(&buf, 3), Some(13));
        assert_eq!(get(&buf, 10), None);

        // Runs can start inside a segment and span segment boundaries.
        assert_eq!(read_seqs(&buf, 0, 3), vec![10, 11, 12]);
        assert_eq!(read_seqs(&buf, 3, usize::MAX), (13..20).collect::<Vec<_>>());
        assert_eq!(read_seqs(&buf, 5, 3), vec![15, 16, 17]);
        let mut out = Vec::new();
        assert_eq!(buf.read_run(10, 16, &mut out), 0, "past the buffer");
    }

    #[test]
    fn partial_batch_ranges_are_respected() {
        // A window that opened mid-batch owns only its slice.
        let buf = WindowBuf::new(1);
        let b = batch(10, 10..16);
        buf.extend(&b, 2..6); // events 12..16
        assert_eq!(buf.len(), 4);
        assert_eq!(read_seqs(&buf, 0, 16), vec![12, 13, 14, 15]);
        assert_eq!(get(&buf, 1), Some(13));
    }

    #[test]
    fn unknown_windows_are_inert() {
        // Once every subscriber released a window, none knows it: reads
        // find nothing, late slices are dropped, releases are no-ops.
        let buf = WindowBuf::new(1);
        let b = batch(0, 0..2);
        buf.extend(&b, 0..1);
        assert!(buf.release());
        let mut out = Vec::new();
        assert_eq!(buf.read_run(0, 8, &mut out), 0);
        buf.extend(&b, 1..2); // dropped, not kept
        assert!(buf.is_empty());
        assert_eq!(Arc::strong_count(&b), 1, "no segment holds the batch");
        assert!(!buf.release());
    }

    #[test]
    fn overlapping_windows_share_batches() {
        let (w0, w1) = (WindowBuf::new(1), WindowBuf::new(1));
        let b = batch(0, 0..4);
        w0.extend(&b, 0..4);
        w1.extend(&b, 2..4); // w1 starts at event 2
        assert_eq!(w0.len() + w1.len(), 6, "six referenced slots, one batch");
        assert_eq!(
            Arc::strong_count(&b),
            3,
            "one Arc per window, not per event"
        );
        assert!(w0.release());
        assert_eq!(get(&w1, 0), Some(2), "still alive via w1");
        assert!(w1.release());
        assert_eq!(Arc::strong_count(&b), 1, "batch freed with its windows");
    }

    #[test]
    fn a_lane_and_a_tree_subscriber_released_from_two_threads_remove_once() {
        // One buffer shared by a lane query (released by the instance that
        // finished the window) and a tree query (released by the splitter
        // at retirement): whichever release comes last removes it, once.
        let start = Barrier::new(2);
        for round in 0..200u64 {
            let buf = WindowBuf::new(2);
            buf.extend(&batch(round, round..round + 2), 0..2);
            let (lane, tree) = std::thread::scope(|s| {
                let lane = s.spawn(|| {
                    start.wait();
                    buf.release()
                });
                start.wait();
                let tree = buf.release();
                (lane.join().unwrap(), tree)
            });
            assert!(lane != tree, "round {round}: exactly one release removes");
            assert!(buf.is_empty());
            assert!(!buf.release(), "a removed buffer stays removed");
        }
    }

    #[test]
    fn a_reader_racing_the_last_release_gets_a_whole_run_or_nothing() {
        let start = Barrier::new(2);
        for round in 0..200u64 {
            let buf = WindowBuf::new(1);
            buf.extend(&batch(round, round..round + 3), 0..3);
            buf.extend(&batch(round + 3, round + 3..round + 8), 0..5);
            let reads = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    start.wait();
                    let mut reads = Vec::new();
                    loop {
                        let seqs = read_seqs(&buf, 1, usize::MAX);
                        let done = seqs.is_empty();
                        reads.push(seqs);
                        if done {
                            return reads;
                        }
                    }
                });
                start.wait();
                assert!(buf.release());
                reader.join().unwrap()
            });
            let whole: Vec<Seq> = (round + 1..round + 8).collect();
            for seqs in &reads {
                assert!(seqs.is_empty() || *seqs == whole, "round {round}: {seqs:?}");
            }
        }
    }

    #[test]
    fn window_info_end_publishing() {
        let w = WindowInfo::new(3, Arc::new(WindowBuf::new(1)), 10, 10, 1000);
        assert_eq!(w.end_pos(), None);
        assert!(w.contains_pos(10));
        assert!(w.contains_pos(1_000_000)); // end unknown: optimistic
        assert!(!w.contains_pos(9));
        w.set_end_pos(20);
        assert_eq!(w.end_pos(), Some(20));
        assert!(w.contains_pos(19));
        assert!(!w.contains_pos(20));
    }
}
