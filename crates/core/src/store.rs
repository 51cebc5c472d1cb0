//! Sharded window store and window bookkeeping.
//!
//! The splitter hands each sealed [`EventBatch`] to every window that
//! overlaps it — one `Arc` clone and one shard-lock acquisition per
//! (window, batch), never per event — and operator instances read their
//! scheduled window's events back by *window-relative index* as
//! [`EventRun`] slices of those shared batches. Window boundaries are
//! described by [`WindowInfo`] cells shared between the splitter (which
//! discovers the end position during ingestion) and all versions of the
//! window (paper §2.2: window boundaries are kept in shared memory).
//!
//! # Sharding and per-window locking
//!
//! Buffers live in [`WindowStore`], which is sharded by window-id hash:
//! window `w` belongs to shard `w mod shards`. Window ids are allocated
//! sequentially, so consecutive — and therefore concurrently live — windows
//! land on *different* shards. The shard lock guards only the window *map*
//! (open/remove take it for writing; lookups read it); each buffer carries
//! its own lock ([`WindowBuf`]), so the splitter appending to one window
//! never blocks instances reading any other window — not even one on the
//! same shard — and instances cache the buffer `Arc` across steps
//! ([`WindowStore::window_buf`]) to skip the map lookup entirely. With
//! `shards = 1` the store degenerates to a single map lock; the output is
//! identical for every shard count (the shard map is pure placement, never
//! ordering).
//!
//! # Batching
//!
//! A window's buffer is a list of *segments*, each a sub-range of one
//! shared hand-off batch. Writers ([`WindowStore::extend`]) append one
//! segment per (window, batch); readers ([`WindowBuf::read_run`]) fetch
//! up to a whole batch of events under a single buffer-lock acquisition.
//! Event payloads live inside the batches and are shared by every
//! overlapping window — per-event allocation and reference counting are
//! gone from the hot path entirely.
//!
//! Because every window's buffer references exactly the window's own
//! events, pruning is trivial: each buffer counts its subscribers (the
//! queries whose windows read it), the last [`WindowStore::release`]
//! removes it — on whichever thread makes that call — and a batch is freed
//! when the last window referencing it goes.

use std::collections::HashMap;
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
    /// Id of the event buffer in the shared [`WindowStore`]. Engine-global:
    /// same-spec windows of different queries carry *distinct* `WindowInfo`
    /// cells (their local `id`s differ) but the *same* `store_id`, so the
    /// events are buffered once. In a single-query session `store_id == id`.
    pub store_id: u64,
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
    /// Creates a window whose end is not yet known, with `store_id == id`
    /// (the single-query layout).
    pub fn new(id: u64, start_pos: u64, start_seq: Seq, start_ts: Timestamp) -> Self {
        Self::with_store(id, id, start_pos, start_seq, start_ts)
    }

    /// Creates a window whose end is not yet known, reading its events from
    /// the shared buffer `store_id` (which other queries' windows may share).
    pub fn with_store(
        id: u64,
        store_id: u64,
        start_pos: u64,
        start_seq: Seq,
        start_ts: Timestamp,
    ) -> Self {
        WindowInfo {
            id,
            store_id,
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

/// The mutable part of a window's buffer, behind the per-window lock.
#[derive(Debug, Default)]
struct BufState {
    segs: Vec<Seg>,
}

/// One window's event buffer: the segments covering window-relative
/// indices `[0, len)`, ascending, behind a *per-window* lock.
///
/// Shard locks only guard the window map (open/remove); appends and reads
/// synchronize here, per window. The splitter extending window `w` therefore
/// never blocks an instance reading window `w'` on the same shard — shard
/// traffic is read-mostly, and the write path of one window contends only
/// with its own readers. Instances hold a clone of the buffer's `Arc`
/// (via [`WindowStore::window_buf`]) across steps of the same window, so
/// the per-step shard-map lookup disappears from the run-read hot path.
///
/// The buffered length is also published in an atomic, so a reader that
/// is ahead of ingestion (a stalled instance polling for its next event)
/// finds out without touching the lock the splitter appends under.
#[derive(Debug)]
pub struct WindowBuf {
    /// Events buffered, stored under the write lock after each append.
    len: AtomicU64,
    /// Subscribers not yet released (see [`WindowStore::release`]).
    subscribers: AtomicUsize,
    state: RwLock<BufState>,
}

impl WindowBuf {
    fn new(subscribers: usize) -> Self {
        WindowBuf {
            len: AtomicU64::new(0),
            subscribers: AtomicUsize::new(subscribers),
            state: RwLock::new(BufState::default()),
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// `true` while nothing has been ingested into the buffer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn extend(&self, batch: &Arc<EventBatch>, range: Range<usize>) {
        let mut st = self.state.write();
        let first = self.len.load(Ordering::Relaxed);
        let len = first + range.len() as u64;
        st.segs.push(Seg {
            first,
            batch: Arc::clone(batch),
            range,
        });
        self.len.store(len, Ordering::Release);
    }

    /// Collects up to `max` events starting at window-relative index `from`
    /// into `out` as [`EventRun`] slices (appended; `out` is *not*
    /// cleared). Returns the number of events covered — `0` when the events
    /// are not yet ingested.
    pub fn read_run(&self, from: u64, max: usize, out: &mut Vec<EventRun>) -> usize {
        if from >= self.len() {
            return 0;
        }
        let st = self.state.read();
        let mut idx = st
            .segs
            .partition_point(|s| s.first + s.range.len() as u64 <= from);
        let mut remaining = max;
        let mut covered = 0usize;
        while remaining > 0 {
            let Some(seg) = st.segs.get(idx) else { break };
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
}

/// One shard: the buffers of all live windows hashing to it. The map holds
/// `Arc`s so lookups can hand the buffer out and drop the shard lock
/// immediately.
#[derive(Debug, Default)]
struct Shard {
    windows: HashMap<u64, Arc<WindowBuf>>,
}

/// Sharded per-window event store (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spectre_core::splitter::EventBatch;
/// use spectre_core::store::WindowStore;
/// use spectre_events::{Event, EventType};
///
/// let store = WindowStore::new(8);
/// store.open_window(0, 1); // one subscriber
/// let mut batch = EventBatch::with_capacity(0, 3);
/// for seq in 0..3 {
///     batch.push(Event::builder(EventType::new(0)).seq(seq).ts(seq).build());
/// }
/// let batch = Arc::new(batch);
/// store.extend(0, &batch, 0..3); // one lock + one Arc clone for the run
///
/// let buf = store.window_buf(0).unwrap(); // instances cache this handle
/// let mut runs = Vec::new();
/// assert_eq!(buf.read_run(1, 16, &mut runs), 2); // events 1 and 2
/// assert_eq!(runs[0].events()[0].seq(), 1);
///
/// assert!(store.release(0)); // the last subscriber frees the buffer
/// assert!(store.window_buf(0).is_none());
/// ```
#[derive(Debug)]
pub struct WindowStore {
    shards: Box<[RwLock<Shard>]>,
}

impl WindowStore {
    /// Creates a store with the given number of shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "store shard count must be positive");
        WindowStore {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, window_id: u64) -> &RwLock<Shard> {
        // Window ids are dense and sequential, so modulo is a perfect hash
        // here: consecutive (concurrently live) windows map to distinct
        // shards.
        &self.shards[(window_id % self.shards.len() as u64) as usize]
    }

    /// Registers a window read by `subscribers` queries; its buffer starts
    /// empty. Idempotent: re-opening an existing window is a no-op.
    pub fn open_window(&self, window_id: u64, subscribers: usize) {
        let mut shard = self.shard(window_id).write();
        shard
            .windows
            .entry(window_id)
            .or_insert_with(|| Arc::new(WindowBuf::new(subscribers)));
    }

    /// Drops one subscriber of `window_id`'s buffer; the last one removes
    /// the buffer and returns `true`. A batch slice may still be queued
    /// for a removed buffer: [`extend`](Self::extend) drops slices for
    /// removed windows.
    pub fn release(&self, window_id: u64) -> bool {
        let Some(buf) = self.window_buf(window_id) else {
            return false;
        };
        let last = buf.subscribers.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            self.remove_window(window_id);
        }
        last
    }

    /// Hands out `window_id`'s buffer, or `None` for an unknown (already
    /// retired) window. Instances cache the `Arc` across the steps of one
    /// scheduled window, skipping the shard-map lookup on every subsequent
    /// run read.
    pub fn window_buf(&self, window_id: u64) -> Option<Arc<WindowBuf>> {
        let shard = self.shard(window_id).read();
        shard.windows.get(&window_id).cloned()
    }

    /// Appends `batch[range]` to `window_id`'s buffer as one segment, under
    /// the window's own lock and one `Arc` clone (the shard lock is only
    /// read to find the buffer). The segment continues the window's event
    /// sequence. Appending to an unknown (already retired) window or an
    /// empty range is a no-op.
    pub fn extend(&self, window_id: u64, batch: &Arc<EventBatch>, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        debug_assert!(range.end <= batch.len(), "segment range out of batch");
        let buf = self.window_buf(window_id);
        if let Some(buf) = buf {
            buf.extend(batch, range);
        }
    }

    /// Drops `window_id`'s buffer whatever its subscribers (hand-off
    /// batches shared with other live windows stay alive through their
    /// segments).
    pub fn remove_window(&self, window_id: u64) {
        let removed = self.shard(window_id).write().windows.remove(&window_id);
        // Freed outside the shard lock, which the splitter's appends read.
        drop(removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::EventType;

    impl WindowInfo {
        fn contains_pos(&self, pos: u64) -> bool {
            pos >= self.start_pos && self.end_pos().is_none_or(|e| pos < e)
        }
    }

    /// Test conveniences: lookups by window id that the hot path, which
    /// caches [`WindowBuf`] handles, does without.
    impl WindowStore {
        pub(crate) fn window_len(&self, window_id: u64) -> Option<u64> {
            self.window_buf(window_id).map(|b| b.len())
        }

        pub(crate) fn live_windows(&self) -> usize {
            self.shards.iter().map(|s| s.read().windows.len()).sum()
        }

        fn read_run(
            &self,
            window_id: u64,
            from: u64,
            max: usize,
            out: &mut Vec<EventRun>,
        ) -> usize {
            self.window_buf(window_id)
                .map_or(0, |buf| buf.read_run(from, max, out))
        }

        fn get(&self, window_id: u64, idx: u64) -> Option<Event> {
            let mut runs = Vec::new();
            self.read_run(window_id, idx, 1, &mut runs);
            runs.first().map(|run| run.events()[0].clone())
        }

        /// Buffered events summed over all windows.
        fn resident(&self) -> usize {
            let shards = self.shards.iter();
            shards
                .map(|s| {
                    s.read()
                        .windows
                        .values()
                        .map(|b| b.len() as usize)
                        .sum::<usize>()
                })
                .sum()
        }
    }

    fn batch(first_pos: u64, seqs: Range<u64>) -> Arc<EventBatch> {
        let mut b = EventBatch::with_capacity(first_pos, (seqs.end - seqs.start) as usize);
        for seq in seqs {
            b.push(Event::builder(EventType::new(0)).seq(seq).ts(seq).build());
        }
        Arc::new(b)
    }

    fn read_seqs(store: &WindowStore, w: u64, from: u64, max: usize) -> Vec<Seq> {
        let mut runs = Vec::new();
        store.read_run(w, from, max, &mut runs);
        runs.iter()
            .flat_map(|r| r.events().iter().map(|e| e.seq()))
            .collect()
    }

    #[test]
    fn extend_and_read_runs() {
        let store = WindowStore::new(4);
        store.open_window(7, 1);
        store.extend(7, &batch(10, 10..14), 0..4);
        store.extend(7, &batch(14, 14..20), 0..6);
        assert_eq!(store.window_len(7), Some(10));
        assert_eq!(store.get(7, 3).unwrap().seq(), 13);
        assert!(store.get(7, 10).is_none());

        // Runs can start inside a segment and span segment boundaries.
        assert_eq!(read_seqs(&store, 7, 0, 3), vec![10, 11, 12]);
        assert_eq!(
            read_seqs(&store, 7, 3, usize::MAX),
            (13..20).collect::<Vec<_>>()
        );
        assert_eq!(read_seqs(&store, 7, 5, 3), vec![15, 16, 17]);
        let mut out = Vec::new();
        assert_eq!(store.read_run(7, 10, 16, &mut out), 0, "past the buffer");
    }

    #[test]
    fn partial_batch_ranges_are_respected() {
        // A window that opened mid-batch owns only its slice.
        let store = WindowStore::new(2);
        store.open_window(3, 1);
        let b = batch(10, 10..16);
        store.extend(3, &b, 2..6); // events 12..16
        assert_eq!(store.window_len(3), Some(4));
        assert_eq!(read_seqs(&store, 3, 0, 16), vec![12, 13, 14, 15]);
        assert_eq!(store.get(3, 1).unwrap().seq(), 13);
    }

    #[test]
    fn unknown_windows_are_inert() {
        let store = WindowStore::new(2);
        let mut out = Vec::new();
        assert_eq!(store.read_run(5, 0, 8, &mut out), 0);
        assert!(store.get(5, 0).is_none());
        assert_eq!(store.window_len(5), None);
        store.extend(5, &batch(0, 0..1), 0..1); // no-op, not a panic
        store.remove_window(5); // idempotent
        assert_eq!(store.resident(), 0);
    }

    #[test]
    fn overlapping_windows_share_batches() {
        let store = WindowStore::new(3);
        store.open_window(0, 1);
        store.open_window(1, 1);
        let b = batch(0, 0..4);
        store.extend(0, &b, 0..4);
        store.extend(1, &b, 2..4); // w1 starts at event 2
        assert_eq!(store.resident(), 6, "six referenced slots, one batch");
        assert_eq!(
            Arc::strong_count(&b),
            3,
            "one Arc per window, not per event"
        );
        store.remove_window(0);
        assert_eq!(store.live_windows(), 1);
        assert_eq!(store.get(1, 0).unwrap().seq(), 2, "still alive via w1");
        store.remove_window(1);
        assert_eq!(Arc::strong_count(&b), 1, "batch freed with its windows");
    }

    #[test]
    fn a_lane_and_a_tree_subscriber_released_from_two_threads_remove_once() {
        // One buffer shared by a lane query (released by the instance that
        // finished the window) and a tree query (released by the splitter
        // at retirement): whichever release comes last removes it, once.
        let store = Arc::new(WindowStore::new(2));
        for round in 0..200u64 {
            store.open_window(round, 2);
            store.extend(round, &batch(round, round..round + 2), 0..2);
            let lane = {
                let store = Arc::clone(&store);
                std::thread::spawn(move || store.release(round))
            };
            let tree = store.release(round);
            let lane = lane.join().unwrap();
            assert!(lane != tree, "round {round}: exactly one release removes");
            assert_eq!(store.window_len(round), None);
            assert!(!store.release(round), "a removed buffer stays removed");
        }
        assert_eq!(store.live_windows(), 0);
    }

    #[test]
    fn single_shard_behaves_identically() {
        // The shard count is pure placement: the same call sequence gives
        // the same observable state for 1 and many shards.
        for shards in [1usize, 2, 8] {
            let store = WindowStore::new(shards);
            assert_eq!(store.shard_count(), shards);
            for w in 0..10u64 {
                store.open_window(w, 1);
                store.extend(w, &batch(w * 2, w * 2..w * 2 + 4), 0..4);
            }
            for w in 0..10u64 {
                assert_eq!(
                    read_seqs(&store, w, 1, 2),
                    vec![w * 2 + 1, w * 2 + 2],
                    "shards = {shards}"
                );
            }
            assert_eq!(store.resident(), 40);
            store.remove_window(3);
            assert_eq!(store.live_windows(), 9);
        }
    }

    #[test]
    #[should_panic(expected = "store shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = WindowStore::new(0);
    }

    #[test]
    fn open_window_is_idempotent() {
        let store = WindowStore::new(2);
        store.open_window(1, 1);
        store.extend(1, &batch(5, 5..6), 0..1);
        store.open_window(1, 1); // must not clear the buffer
        assert_eq!(store.window_len(1), Some(1));
    }

    #[test]
    fn window_info_end_publishing() {
        let w = WindowInfo::new(3, 10, 10, 1000);
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
