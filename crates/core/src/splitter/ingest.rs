//! Cycle phase (c): ingestion. The feed is a queue of sealed
//! [`EventBatch`] chunks, read in place from a cursor; each spec group
//! opens and closes its windows, and the run a cycle read from a chunk is
//! flushed with one write per touched window buffer.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use spectre_events::Event;
use spectre_query::window::{WindowAssigner, WindowBounds};

use super::Splitter;
use crate::shared::QueryId;
use crate::store::{WindowBuf, WindowInfo};

/// One splitter→window hand-off unit: a run of consecutive stream events
/// starting at stream position [`first_pos`](Self::first_pos).
///
/// [`Splitter::feed`](super::Splitter::feed) writes each fed event
/// straight into a staging batch of up to
/// [`SpectreConfig::batch_size`](crate::SpectreConfig::batch_size) events
/// and seals a full one into *one* `Arc` chunk. Ingestion reads the chunk
/// in place and hands each window its slice of it with a single
/// [`WindowBuf::extend`](crate::store::WindowBuf::extend) call, so an
/// event is copied once, allocation, reference-count and lock traffic all
/// scale with chunks, not events, and overlapping windows share the event
/// payloads through the chunk. A batch size of 1 reproduces the original
/// event-at-a-time hand-off exactly.
///
/// # Example
///
/// ```
/// use spectre_core::splitter::EventBatch;
/// use spectre_events::{Event, EventType};
///
/// let events = (100..104)
///     .map(|seq| Event::builder(EventType::new(0)).seq(seq).ts(seq).build())
///     .collect();
/// let batch = EventBatch::new(100, events);
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
    /// Creates the batch of `events`, the first at stream position
    /// `first_pos` (the vector is kept, not copied).
    pub fn new(first_pos: u64, events: Vec<Event>) -> Self {
        EventBatch { first_pos, events }
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

/// A not-yet-closed window of one spec group: the shared window buffer,
/// the front-chunk offset of its first unflushed event, and the subscribed
/// members' window cells.
pub(super) struct GroupOpenWindow {
    /// Group-local window id (the assigner's numbering), for close matching.
    group_id: u64,
    /// The buffer every member's cell shares.
    buf: Arc<WindowBuf>,
    /// Offset in the front chunk of the window's first event not yet
    /// handed to its buffer (the cursor after each flush, 0 once the
    /// chunk is popped).
    pending: usize,
    /// Each subscribed member's own `WindowInfo` cell for this window.
    pub(super) infos: Vec<(QueryId, Arc<WindowInfo>)>,
}

/// One window-spec equivalence class: the queries whose specs compare
/// equal and the single assigner driving their shared window boundaries.
/// Each shared window buffer counts its subscribers itself (see
/// [`WindowBuf::release`](crate::store::WindowBuf::release)).
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
    /// Deferred windows across the members (`QueryState::deferred`).
    pub(super) deferred: usize,
}

/// Why [`Splitter::fill_batch`] stopped reading events.
enum FillOutcome {
    /// The cycle's budget ran out or the cursor reached the chunk's end.
    Full,
    /// Speculative back-pressure: some query's dependency tree is oversized
    /// and its root window is fully ingested; stop ingesting for this cycle.
    BackPressure,
    /// No sealed chunk is waiting and end-of-stream has not been
    /// signalled (or events still wait in staging): stop ingesting until
    /// the next cycle seals them, or the session feeds more events.
    SourceDry,
    /// The feed is empty and [`Splitter::end_of_stream`] was called.
    SourceExhausted,
}

impl Splitter {
    pub(super) fn ingest(&mut self) {
        if self.ingest_done {
            return;
        }
        // Events that filled no whole chunk before the cycle are sealed
        // now; within the cycle, only sealed chunks are read.
        if self.chunks.is_empty() {
            self.seal();
        }
        let mut budget = self.config.ingest_per_cycle;
        while budget > 0 {
            let start = self.next_pos;
            let outcome = self.fill_batch(budget);
            let read = (self.next_pos - start) as usize;
            budget -= read;
            if read > 0 {
                self.flush_batch();
            }
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

    /// Seals the staged events into a chunk at the back of the feed (one
    /// `Arc`; the next staging `Vec` is the chunk's one other allocation).
    /// No-op while nothing is staged.
    pub(super) fn seal(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let next = Vec::with_capacity(self.config.batch_size);
        let events = std::mem::replace(&mut self.staging, next);
        let first_pos = self.fed - events.len() as u64;
        self.chunks
            .push_back(Arc::new(EventBatch::new(first_pos, events)));
    }

    /// Speculative back-pressure (paper §3.2.2): stall ingestion while any
    /// query's tree — or lane of unretired windows — is oversized, but
    /// never starve the oldest window of its remaining events (it must be
    /// able to finish so the load can shrink). One slow query therefore
    /// throttles the whole shared feed; that is the deliberate semantics of
    /// a shared-stream session (all queries see the same prefix).
    pub(super) fn backpressured(&self) -> bool {
        self.queries.iter().any(|q| {
            let (load, oldest) = match q.lane {
                Some(_) => (q.cells.len(), q.cells.front().map(|c| &c.window)),
                None => (q.tree.speculative_load(), q.tree.oldest_window()),
            };
            load >= self.config.max_tree_versions && oldest.is_none_or(|w| w.end_pos().is_some())
        })
    }

    /// Reads up to `cap` events of the front chunk in place from the
    /// cursor, applying window opens/closes of every spec group as they
    /// are discovered. The run read is distributed to the window buffers by
    /// [`flush_batch`](Self::flush_batch).
    fn fill_batch(&mut self, cap: usize) -> FillOutcome {
        let Some(chunk) = self.chunks.front().map(Arc::clone) else {
            return if self.eos && self.staging.is_empty() {
                FillOutcome::SourceExhausted
            } else {
                FillOutcome::SourceDry
            };
        };
        debug_assert_eq!(
            chunk.first_pos() + self.cursor as u64,
            self.next_pos,
            "the cursor continues the stream"
        );
        let end = chunk.len().min(self.cursor + cap);
        while self.cursor < end {
            // The load counts windows pending on attach markers alongside
            // live versions: lazy attach keeps the version count low while
            // windows accumulate, and each holds its buffered events, so
            // unbounded pending windows are unbounded memory.
            if self.backpressured() {
                return FillOutcome::BackPressure;
            }
            let event = &chunk.events()[self.cursor];
            self.progress = true;
            let pos = self.next_pos;
            self.next_pos += 1;
            for gi in 0..self.groups.len() {
                let mut closed = std::mem::take(&mut self.closed_buf);
                let opened = self.groups[gi].assigner.ingest(event, &mut closed);
                // Closes exclude the current event, at the cursor, so the
                // closing window's slice ends just before it.
                for bounds in closed.drain(..) {
                    self.close_group_window(gi, bounds.id, pos);
                }
                self.closed_buf = closed;
                // The current event proves relevance for the group's
                // deferred windows — all still open (a window closing
                // while deferred was just skipped above), so all of them
                // contain it. Attach before any window opening *on* this
                // event so each tree's window sequence stays ascending.
                self.flush_deferred(gi, event);
                if let Some(opened) = opened {
                    // The window contains its start event, the one at the
                    // cursor.
                    self.open_group_window(gi, opened, event);
                }
            }
            self.cursor += 1;
        }
        FillOutcome::Full
    }

    /// Attaches every deferred window of group `gi`'s members for which
    /// `event` is relevant. Deferral is all-or-nothing per query: the
    /// event is in every open window, so one relevant event attaches the
    /// query's whole deferred suffix (oldest first, keeping the tree's
    /// window ids ascending). Free while no member defers a window.
    fn flush_deferred(&mut self, gi: usize, event: &Event) {
        if self.groups[gi].deferred == 0 {
            return;
        }
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
            self.groups[gi].deferred -= qs.deferred.len();
            while let Some(info) = qs.deferred.pop_front() {
                qs.attach(&info, &shared);
            }
        }
    }

    /// Opens group `gi`'s next window: creates the shared window buffer
    /// (once) and subscribes every current member with its own
    /// query-local [`WindowInfo`] cell. A group without members opens
    /// nothing — no buffer, no subscriptions. `event` is the window's
    /// start event: a member whose filter rejects it defers the attach
    /// (the buffer and close bookkeeping are shared and unaffected).
    fn open_group_window(&mut self, gi: usize, bounds: WindowBounds, event: &Event) {
        let g = &mut self.groups[gi];
        let members = g.members.len();
        if members == 0 {
            return;
        }
        let start_pos = g.base_pos + bounds.start_pos;
        let buf = Arc::new(WindowBuf::new(members));
        g.open.push(GroupOpenWindow {
            group_id: bounds.id,
            buf: Arc::clone(&buf),
            pending: self.cursor,
            infos: Vec::with_capacity(members),
        });
        let ow = g.open.len() - 1;
        self.shared
            .metrics
            .store_windows_opened
            .fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        for mi in 0..members {
            let qid = self.groups[gi].members[mi];
            let qi = *self
                .query_index
                .get(&qid)
                .expect("group member is registered");
            let qs = &mut self.queries[qi];
            let info = Arc::new(WindowInfo::new(
                bounds.id - qs.offset,
                Arc::clone(&buf),
                start_pos,
                bounds.start_seq,
                bounds.start_ts,
            ));
            if qs.filter.as_ref().is_some_and(|f| !f.relevant(event)) {
                // The start event is irrelevant to this member: defer the
                // attach until a relevant event arrives (or skip the
                // window outright if none does before it closes).
                qs.deferred.push_back(Arc::clone(&info));
                self.groups[gi].deferred += 1;
            } else {
                qs.attach(&info, &shared);
            }
            self.groups[gi].open[ow].infos.push((qid, info));
        }
    }

    /// Closes group `gi`'s window `group_id` at exclusive end `end_pos`:
    /// records the buffer's final chunk slice (distributed at the next
    /// flush), publishes the end position to every subscriber's cell and
    /// feeds each subscriber's running window-size average (paper Fig. 5:
    /// `Splitter.avgWindowSize`).
    fn close_group_window(&mut self, gi: usize, group_id: u64, end_pos: u64) {
        let cursor = self.cursor;
        let g = &mut self.groups[gi];
        let Some(i) = g.open.iter().position(|ow| ow.group_id == group_id) else {
            return;
        };
        let ow = g.open.remove(i);
        if ow.pending < cursor {
            self.batch_closed
                .push((Arc::clone(&ow.buf), ow.pending..cursor));
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
                self.groups[gi].deferred -= 1;
                self.shared
                    .metrics
                    .add_shared(&qs.metrics, |m| &m.windows_skipped, 1);
                ow.buf.release();
            }
        }
    }

    /// Hands every touched window buffer its slice of the front chunk up
    /// to the cursor (one buffer write and one `Arc` clone per buffer, not
    /// per subscribing query), pops the chunk once the cursor reached its
    /// end, and publishes the ingestion watermark once. A chunk cut
    /// mid-way stays at the front, unsplit: the next flush hands out the
    /// rest of the same `Arc`.
    fn flush_batch(&mut self) {
        let chunk = self.chunks.front().expect("a flush follows a read");
        let cursor = self.cursor;
        for (buf, range) in self.batch_closed.drain(..) {
            buf.extend(chunk, range);
        }
        let done = cursor == chunk.len();
        let next = if done { 0 } else { cursor };
        for g in &mut self.groups {
            for ow in &mut g.open {
                ow.buf.extend(chunk, ow.pending..cursor);
                ow.pending = next;
            }
        }
        if done {
            self.chunks.pop_front();
            self.cursor = 0;
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
        // Every window is closed and fully ingested: the frontier moves past
        // every stall, which wakes a worker stalled on a window that just
        // closed without a new event.
        self.shared.ingested.store(u64::MAX, Ordering::Release);
    }
}
