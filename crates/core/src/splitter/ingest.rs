//! Cycle phase (c): ingestion. Events leave the feed in [`EventBatch`]
//! units; each spec group opens and closes its windows, and each batch is
//! flushed to the window store with one write per touched buffer.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use spectre_events::Event;
use spectre_query::window::{WindowAssigner, WindowBounds};

use super::registry::SplitterFactory;
use super::Splitter;
use crate::shared::QueryId;
use crate::store::{WindowInfo, WindowStore};

/// One splitter→store hand-off unit: a run of consecutive stream events
/// starting at stream position [`first_pos`](Self::first_pos).
///
/// The splitter accumulates up to
/// [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size) events
/// per batch, wraps the batch in *one* `Arc`, and hands each window its
/// slice of it with a single
/// [`WindowStore::extend`](crate::store::WindowStore::extend) call — so
/// allocation, reference-count and lock traffic all scale with batches,
/// not events, and overlapping windows share the event payloads through
/// the batch. A batch size of 1 reproduces the original event-at-a-time
/// hand-off exactly.
///
/// # Example
///
/// ```
/// use spectre_core::splitter::EventBatch;
/// use spectre_events::{Event, EventType};
///
/// let mut batch = EventBatch::with_capacity(100, 64);
/// for seq in 100..104 {
///     batch.push(Event::builder(EventType::new(0)).seq(seq).ts(seq).build());
/// }
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.first_pos(), 100);
/// // A window that opened at the batch's third event owns the slice
/// // from index 2 on:
/// assert_eq!(batch.events()[2..].len(), 2);
/// assert_eq!(batch.events()[2].seq(), 102);
/// ```
#[derive(Debug, Default)]
pub struct EventBatch {
    first_pos: u64,
    events: Vec<Event>,
}

impl EventBatch {
    /// Creates an empty batch starting at stream position `first_pos` with
    /// room for `cap` events.
    pub fn with_capacity(first_pos: u64, cap: usize) -> Self {
        EventBatch {
            first_pos,
            events: Vec::with_capacity(cap),
        }
    }

    /// Appends the next event (stream position `first_pos() + len()`).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Stream position of the batch's first event.
    pub fn first_pos(&self) -> u64 {
        self.first_pos
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events accumulated so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// A not-yet-closed window of one spec group: the shared store buffer, the
/// batch-relative index of its first pending event, and the subscribed
/// members' window cells.
pub(super) struct GroupOpenWindow {
    /// Group-local window id (the assigner's numbering), for close matching.
    group_id: u64,
    /// Shared store buffer id.
    store_id: u64,
    /// Batch-relative index of the first batch event belonging to the
    /// window (reset to 0 at each flush).
    pending: usize,
    /// Each subscribed member's own `WindowInfo` cell for this window.
    pub(super) infos: Vec<(QueryId, Arc<WindowInfo>)>,
}

/// One window-spec equivalence class: the queries whose specs compare
/// equal, the single assigner driving their shared window boundaries, and
/// the reference counts that keep each shared store buffer alive until its
/// last subscriber retires the window.
pub(super) struct SpecGroup {
    pub(super) assigner: WindowAssigner,
    /// Stream position at group creation; the assigner's positions are
    /// relative to it (a group deployed mid-stream starts counting at its
    /// own first event).
    pub(super) base_pos: u64,
    /// Member queries (in deployment order). May be empty after retires;
    /// an empty group opens no windows but stays reusable for later
    /// same-spec deploys.
    pub(super) members: Vec<QueryId>,
    /// Not-yet-closed windows, mirroring the assigner's open set.
    pub(super) open: Vec<GroupOpenWindow>,
    /// Live subscriber count per store buffer; the buffer is removed from
    /// the store when the count hits zero.
    pub(super) refs: HashMap<u64, usize>,
}

impl SpecGroup {
    /// Drops one subscriber's reference to store buffer `store_id`; the
    /// last one removes the buffer from `store`. A batch slice may still be
    /// queued for a removed buffer: `WindowStore::extend` drops slices for
    /// removed windows, so the next flush stays correct.
    pub(super) fn release(&mut self, store_id: u64, store: &WindowStore) {
        if let Some(r) = self.refs.get_mut(&store_id) {
            *r -= 1;
            if *r == 0 {
                self.refs.remove(&store_id);
                store.remove_window(store_id);
            }
        }
    }
}

/// Why [`Splitter::fill_batch`] stopped collecting events.
enum FillOutcome {
    /// The batch reached its size cap.
    Full,
    /// Speculative back-pressure: some query's dependency tree is oversized
    /// and its root window is fully ingested; stop ingesting for this cycle.
    BackPressure,
    /// The feed queue is empty but end-of-stream has not been signalled;
    /// stop ingesting until the session feeds more events.
    SourceDry,
    /// The feed queue is empty and [`Splitter::end_of_stream`] was called.
    SourceExhausted,
}

impl Splitter {
    pub(super) fn ingest(&mut self) {
        if self.ingest_done {
            return;
        }
        let mut budget = self.config.ingest_per_cycle;
        while budget > 0 {
            let cap = budget.min(self.config.batch_size);
            let outcome = self.fill_batch(cap);
            budget -= self.batch.len();
            self.flush_batch();
            match outcome {
                FillOutcome::Full => {}
                FillOutcome::BackPressure | FillOutcome::SourceDry => return,
                FillOutcome::SourceExhausted => {
                    self.finish_ingest();
                    return;
                }
            }
        }
    }

    /// Speculative back-pressure (paper §3.2.2): stall ingestion while any
    /// query's tree is oversized — but never starve a root window of its
    /// remaining events (it must be able to finish so the tree can shrink).
    /// One slow query therefore throttles the whole shared feed; that is
    /// the deliberate semantics of a shared-stream session (all queries see
    /// the same prefix).
    fn backpressured(&self) -> bool {
        self.queries.iter().any(|q| {
            q.tree.speculative_load() >= self.config.max_tree_versions
                && q.tree.oldest_window().is_none_or(|w| w.end_pos().is_some())
        })
    }

    /// Collects up to `cap` source events into the hand-off batch, applying
    /// window opens/closes of every spec group as they are discovered. The
    /// batch's event slices are distributed to their store buffers by
    /// [`flush_batch`](Self::flush_batch).
    fn fill_batch(&mut self, cap: usize) -> FillOutcome {
        debug_assert_eq!(
            self.batch.first_pos() + self.batch.len() as u64,
            self.next_pos,
            "batch continues the stream"
        );
        while self.batch.len() < cap {
            // The load counts windows pending on attach markers alongside
            // live versions: lazy attach keeps the version count low while
            // windows accumulate, and each holds its buffered events, so
            // unbounded pending windows are unbounded memory.
            if self.backpressured() {
                return FillOutcome::BackPressure;
            }
            let Some(event) = self.feed.pop_front() else {
                return if self.eos {
                    FillOutcome::SourceExhausted
                } else {
                    FillOutcome::SourceDry
                };
            };
            self.progress = true;
            let pos = self.next_pos;
            self.next_pos += 1;
            for gi in 0..self.groups.len() {
                let mut closed = std::mem::take(&mut self.closed_buf);
                let opened = self.groups[gi].assigner.ingest(&event, &mut closed);
                // Closes exclude the current event, which is not yet in
                // the batch, so the closing window's slice is exactly the
                // batch tail so far.
                for bounds in closed.drain(..) {
                    self.close_group_window(gi, bounds.id, pos);
                }
                self.closed_buf = closed;
                // The current event proves relevance for the group's
                // deferred windows — all still open (a window closing
                // while deferred was just skipped above), so all of them
                // contain it. Attach before any window opening *on* this
                // event so each tree's window sequence stays ascending.
                self.flush_deferred(gi, &event);
                if let Some(opened) = opened {
                    // The window contains its start event — the one about
                    // to be pushed, at batch-relative index `batch.len()`.
                    self.open_group_window(gi, opened, &event);
                }
            }
            self.batch.push(event);
        }
        FillOutcome::Full
    }

    /// Attaches every deferred window of group `gi`'s members for which
    /// `event` is relevant. Deferral is all-or-nothing per query: the
    /// event is in every open window, so one relevant event attaches the
    /// query's whole deferred suffix (oldest first, keeping the tree's
    /// window ids ascending). The per-query fast path is one
    /// `VecDeque::is_empty` check.
    fn flush_deferred(&mut self, gi: usize, event: &Event) {
        let shared = Arc::clone(&self.shared);
        for mi in 0..self.groups[gi].members.len() {
            let qid = self.groups[gi].members[mi];
            let qi = *self
                .query_index
                .get(&qid)
                .expect("group member is registered");
            let qs = &mut self.queries[qi];
            if qs.deferred.is_empty() {
                continue;
            }
            if qs.filter.as_ref().is_some_and(|f| !f.relevant(event)) {
                continue;
            }
            let mut factory = SplitterFactory::for_query(&shared, qs);
            while let Some(info) = qs.deferred.pop_front() {
                qs.tree.new_window(&info, &mut factory);
            }
        }
    }

    /// Opens group `gi`'s next window: allocates the shared store buffer
    /// (once) and subscribes every current member with its own
    /// query-local [`WindowInfo`] cell. A group without members opens
    /// nothing — no buffer, no subscriptions. `event` is the window's
    /// start event: a member whose filter rejects it defers the attach
    /// (the buffer and close bookkeeping are shared and unaffected).
    fn open_group_window(&mut self, gi: usize, bounds: WindowBounds, event: &Event) {
        let g = &mut self.groups[gi];
        if g.members.is_empty() {
            return;
        }
        let store_id = self.next_store_id;
        self.next_store_id += 1;
        let start_pos = g.base_pos + bounds.start_pos;
        let members = g.members.clone();
        g.refs.insert(store_id, members.len());
        g.open.push(GroupOpenWindow {
            group_id: bounds.id,
            store_id,
            pending: self.batch.len(),
            infos: Vec::with_capacity(members.len()),
        });
        let ow = g.open.len() - 1;
        self.shared.store.open_window(store_id, start_pos);
        self.shared
            .metrics
            .store_windows_opened
            .fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        for qid in members {
            let qi = *self
                .query_index
                .get(&qid)
                .expect("group member is registered");
            let qs = &mut self.queries[qi];
            let info = Arc::new(WindowInfo::with_store(
                bounds.id - qs.offset,
                store_id,
                start_pos,
                bounds.start_seq,
                bounds.start_ts,
            ));
            if qs.filter.as_ref().is_some_and(|f| !f.relevant(event)) {
                // The start event is irrelevant to this member: defer the
                // attach until a relevant event arrives (or skip the
                // window outright if none does before it closes).
                qs.deferred.push_back(Arc::clone(&info));
            } else {
                let mut factory = SplitterFactory::for_query(&shared, qs);
                qs.tree.new_window(&info, &mut factory);
            }
            self.groups[gi].open[ow].infos.push((qid, info));
        }
    }

    /// Closes group `gi`'s window `group_id` at exclusive end `end_pos`:
    /// records the buffer's final batch slice (distributed at the next
    /// flush), publishes the end position to every subscriber's cell and
    /// feeds each subscriber's running window-size average (paper Fig. 5:
    /// `Splitter.avgWindowSize`).
    fn close_group_window(&mut self, gi: usize, group_id: u64, end_pos: u64) {
        let batch_len = self.batch.len();
        let g = &mut self.groups[gi];
        let Some(i) = g.open.iter().position(|ow| ow.group_id == group_id) else {
            return;
        };
        let ow = g.open.remove(i);
        if ow.pending < batch_len {
            self.batch_closed.push((ow.store_id, ow.pending..batch_len));
        }
        for (qid, info) in &ow.infos {
            info.set_end_pos(end_pos);
            let len = (end_pos - info.start_pos) as f64;
            let Some(&qi) = self.query_index.get(qid) else {
                continue;
            };
            let qs = &mut self.queries[qi];
            qs.closed_windows += 1;
            let n = qs.closed_windows as f64;
            qs.avg_window_size += (len - qs.avg_window_size) / n;
            // Still deferred at close: no event of the window passed the
            // filter, so the query can never match in it — skip it
            // entirely (no versions, no retirement, buffer ref released).
            if let Some(di) = qs.deferred.iter().position(|w| Arc::ptr_eq(w, info)) {
                qs.deferred.remove(di);
                self.shared
                    .metrics
                    .add_shared(&qs.metrics, |m| &m.windows_skipped, 1);
                self.groups[gi].release(ow.store_id, &self.shared.store);
            }
        }
    }

    /// Seals the batch into one shared `Arc`, hands every touched store
    /// buffer its slice (one store write and one `Arc` clone per buffer —
    /// not per subscribing query), and publishes the ingestion watermark
    /// once.
    fn flush_batch(&mut self) {
        let len = self.batch.len();
        if len == 0 {
            debug_assert!(self.batch_closed.is_empty());
            return;
        }
        let next = EventBatch::with_capacity(self.next_pos, self.config.batch_size);
        let sealed = Arc::new(std::mem::replace(&mut self.batch, next));
        for (store_id, range) in self.batch_closed.drain(..) {
            self.shared.store.extend(store_id, &sealed, range);
        }
        for g in &mut self.groups {
            for ow in &mut g.open {
                self.shared
                    .store
                    .extend(ow.store_id, &sealed, ow.pending..len);
                ow.pending = 0; // relative to the next batch
            }
        }
        self.shared.ingested.store(self.next_pos, Ordering::Release);
    }

    fn finish_ingest(&mut self) {
        let total = self.next_pos;
        for gi in 0..self.groups.len() {
            let closed = self.groups[gi].assigner.finish();
            for bounds in closed {
                self.close_group_window(gi, bounds.id, total);
            }
        }
        self.ingest_done = true;
        self.shared.ingest_done.store(true, Ordering::Release);
    }
}
