//! The bookkeeping every connection goes through, as plain functions the
//! read loop (`conn.rs`) and the accept thread (`listener.rs`) call
//! directly: the idle-timeout check and the traffic counters. The rate
//! limit lives in `rate_limit.rs`; the panic count is the accept thread's
//! `catch_unwind`.

/// The idle timeout.
pub(crate) mod timeout {
    use crate::stats::ServerCounters;

    /// Whether a connection whose last read brought bytes at
    /// `last_activity_ms` has been silent for more than `idle_ms` at
    /// `now_ms`. A `true` is counted in `idle_closed`: the caller closes
    /// the connection.
    pub(crate) fn expired(
        counters: &ServerCounters,
        last_activity_ms: u64,
        now_ms: u64,
        idle_ms: u64,
    ) -> bool {
        let expired = now_ms.saturating_sub(last_activity_ms) > idle_ms;
        if expired {
            ServerCounters::bump(&counters.idle_closed);
        }
        expired
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn idle_connections_are_closed_after_the_budget() {
            let counters = ServerCounters::default();
            let last_activity = 1000;
            assert!(!expired(&counters, last_activity, 1050, 100));
            assert!(!expired(&counters, last_activity, 1100, 100));
            assert!(expired(&counters, last_activity, 1101, 100));
            assert_eq!(ServerCounters::get(&counters.idle_closed), 1);
            // Fresh activity resets the clock.
            let last_activity = 2000;
            assert!(!expired(&counters, last_activity, 2100, 100));
            assert_eq!(ServerCounters::get(&counters.idle_closed), 1);
        }
    }
}

/// The traffic counters.
pub(crate) mod metrics {
    use std::sync::atomic::Ordering;

    use spectre_events::codec::ClientFrame;
    use spectre_events::StreamItem;

    use crate::stats::ServerCounters;

    /// Counts a connection that has been accepted and is now served.
    pub(crate) fn opened(counters: &ServerCounters) {
        ServerCounters::bump(&counters.accepted);
        ServerCounters::bump(&counters.active);
    }

    /// The frames a connection let through the rate limit since it last
    /// published them. The read loop counts each frame here and publishes
    /// once per read, so a frame costs no shared atomic.
    #[derive(Debug, Default)]
    pub(crate) struct Admitted {
        frames: u64,
        events: u64,
        watermarks: u64,
    }

    impl Admitted {
        /// Counts one frame the rate limit let through.
        pub(crate) fn count(&mut self, frame: &ClientFrame) {
            self.frames += 1;
            match frame {
                ClientFrame::Item(StreamItem::Event(_)) => self.events += 1,
                ClientFrame::Item(StreamItem::Watermark(_)) => self.watermarks += 1,
                ClientFrame::Hello(_) | ClientFrame::Bye => {}
            }
        }

        /// Adds what was counted to the shared counters, each with one
        /// add, and starts counting afresh.
        pub(crate) fn publish(&mut self, counters: &ServerCounters) {
            for (counter, n) in [
                (&counters.frames, self.frames),
                (&counters.events, self.events),
                (&counters.watermarks, self.watermarks),
            ] {
                if n > 0 {
                    ServerCounters::add(counter, n);
                }
            }
            *self = Admitted::default();
        }
    }

    /// Counts the end of a served connection; `clean` is a BYE then EOF.
    pub(crate) fn closed(counters: &ServerCounters, clean: bool) {
        counters.active.fetch_sub(1, Ordering::Relaxed);
        ServerCounters::bump(if clean {
            &counters.closed_clean
        } else {
            &counters.closed_abnormal
        });
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use spectre_events::{Event, EventType};

        #[test]
        fn admitted_traffic_is_tallied() {
            let counters = ServerCounters::default();
            opened(&counters);
            let ev = ClientFrame::Item(StreamItem::Event(
                Event::builder(EventType::new(0)).seq(0).ts(0).build(),
            ));
            let mut admitted = Admitted::default();
            admitted.count(&ev);
            admitted.count(&ClientFrame::Item(StreamItem::Watermark(5)));
            admitted.count(&ClientFrame::Bye);
            // Nothing is shared until the read publishes its tally.
            assert_eq!(ServerCounters::get(&counters.frames), 0);
            admitted.publish(&counters);
            admitted.publish(&counters); // a second publish adds nothing
            closed(&counters, true);
            assert_eq!(ServerCounters::get(&counters.accepted), 1);
            assert_eq!(ServerCounters::get(&counters.active), 0);
            assert_eq!(ServerCounters::get(&counters.frames), 3);
            assert_eq!(ServerCounters::get(&counters.events), 1);
            assert_eq!(ServerCounters::get(&counters.watermarks), 1);
            assert_eq!(ServerCounters::get(&counters.closed_clean), 1);
            assert_eq!(ServerCounters::get(&counters.closed_abnormal), 0);
        }
    }
}
