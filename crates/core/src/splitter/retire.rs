//! Cycle phase (d): retirement. Each query's finished, confirmed root
//! version passes the final validation, emits its buffered complex events
//! in window order and hands its child the root; a lane query's done
//! windows leave the front of its deque the same way.

use std::sync::Arc;

use super::registry::SplitterFactory;
use super::Splitter;

impl Splitter {
    /// Retires finished, confirmed root windows of every query, in query-id
    /// order (the deterministic commit order of one cycle).
    pub(super) fn retire(&mut self) {
        for qi in 0..self.queries.len() {
            if self.queries[qi].lane.is_some() {
                self.retire_lane_of(qi);
            } else {
                while self.retire_root_of(qi) {}
            }
        }
    }

    /// Retires lane query `qi`'s done windows off the front of its deque
    /// (their finishers released the buffer subscriptions). A window whose
    /// detector was spent early is done before it closes; it still commits
    /// only once closed, so commits stay in window order and never precede
    /// the window's closing event.
    fn retire_lane_of(&mut self, qi: usize) {
        let (qs, global) = (&mut self.queries[qi], &self.shared.metrics);
        let mut retired = 0;
        while let Some(cell) = qs
            .cells
            .pop_front_if(|c| c.is_done() && c.window.end_pos().is_some())
        {
            let outputs = cell.take_outputs();
            global.add_shared(&qs.metrics, |m| &m.outputs_emitted, outputs.len() as u64);
            self.outputs
                .extend(outputs.into_iter().map(|ce| (qs.id, ce)));
            retired += 1;
        }
        global.add_shared(&qs.metrics, |m| &m.windows_retired, retired);
        self.progress |= retired > 0;
    }

    /// Tries to retire query `qi`'s root window. Returns `true` when a
    /// window retired (there may be more behind it), `false` when the root
    /// is not ready — or was rolled back by the final validation.
    ///
    /// A finished root is ready only once it is acked
    /// ([`VersionState::is_acked`](crate::version::VersionState::is_acked)):
    /// its `WvFinished` op comes after every other op about it, so the ack
    /// means the tree reflects every group the root created or resolved.
    fn retire_root_of(&mut self, qi: usize) -> bool {
        let shared = Arc::clone(&self.shared);
        let qs = &mut self.queries[qi];
        let Some(root) = qs.tree.root_version() else {
            return false;
        };
        // A root spent early finishes before its window closes; like a
        // lane window it commits only once closed.
        if !root.is_finished()
            || !root.is_acked()
            || root.window().end_pos().is_none()
            || qs.tree.root_blocked_by_cg()
        {
            return false;
        }
        let root = Arc::clone(root);
        let mut factory = SplitterFactory::for_query(&shared, qs);
        let global = &shared.metrics;
        // Final validation: the surviving version must never have processed
        // an event a suppressed (now final) group consumed.
        if !root.is_consistent() {
            global.add_shared(&qs.metrics, |m| &m.rollbacks, 1);
            let (revoked, discarded) = root.rollback_locked(&mut root.lock());
            global.add_shared(&qs.metrics, |m| &m.cgs_discarded, discarded);
            let dropped = qs.tree.rollback_rebuild(root.id(), &mut factory)
                + qs.revoke(&revoked, &mut factory);
            global.add_shared(&qs.metrics, |m| &m.versions_dropped, dropped as u64);
            return false;
        }
        // Emit buffered complex events in detection order (paper §3.3).
        let emitted = std::mem::take(&mut root.lock().outputs);
        self.progress = true;
        // Retirement materializes a pending-attach child, so it takes the
        // factory too.
        let retired = qs.tree.retire_root(&mut factory);
        global.add_shared(&qs.metrics, |m| &m.windows_retired, 1);
        global.add_shared(&qs.metrics, |m| &m.outputs_emitted, emitted.len() as u64);
        // The buffer dies with its last subscriber (payloads shared with
        // younger windows stay alive through their own buffers).
        retired.window().buf.release();
        let qid = qs.id;
        self.outputs.extend(emitted.into_iter().map(|ce| (qid, ce)));
        true
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::instance::{InstanceCore, StepOutcome};
    use crate::shared::SharedState;
    use crate::splitter::tests::{ab_query, ev, single};
    use crate::SpectreConfig;

    #[test]
    fn a_finished_root_waits_for_its_finish_op_before_it_retires() {
        let config = SpectreConfig::with_instances(1);
        let shared = SharedState::for_config(&config);
        let mut splitter = single(ab_query(), config, Arc::clone(&shared));
        // The root window matches A then B: its group ops precede its
        // `WvFinished` in the op queue.
        for (seq, x) in [(0, 1.0), (1, 2.0), (2, 9.0), (3, 9.0)] {
            splitter.feed(ev(seq, x));
        }
        splitter.end_of_stream();
        // One cycle ingests the stream, closes the windows and schedules
        // the root; the instance then runs it to the end.
        splitter.cycle();
        let mut inst = InstanceCore::new(0, 64);
        let finished = (0..100).any(|_| inst.step(&shared) == StepOutcome::Finished);
        assert!(finished, "the root finishes");
        let root = Arc::clone(splitter.queries[0].tree.root_version().unwrap());
        assert!(root.is_finished() && !root.is_acked());

        // Its `WvFinished` op is still queued: the root does not retire.
        splitter.retire();
        let still_root = splitter.queries[0].tree.root_version().map(|v| v.id());
        assert_eq!(still_root, Some(root.id()));
        assert_eq!(shared.metrics.snapshot().windows_retired, 0);

        // Draining the op acks the root, and it retires.
        splitter.apply_ops();
        assert!(root.is_acked());
        splitter.retire();
        assert_eq!(shared.metrics.snapshot().windows_retired, 1);
        let next_root = splitter.queries[0].tree.root_version().map(|v| v.id());
        assert_ne!(next_root, Some(root.id()));
    }
}
