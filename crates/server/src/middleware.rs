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

    /// Counts one frame the rate limit let through.
    pub(crate) fn admitted(counters: &ServerCounters, frame: &ClientFrame) {
        ServerCounters::bump(&counters.frames);
        match frame {
            ClientFrame::Item(StreamItem::Event(_)) => ServerCounters::bump(&counters.events),
            ClientFrame::Item(StreamItem::Watermark(_)) => {
                ServerCounters::bump(&counters.watermarks);
            }
            ClientFrame::Hello(_) | ClientFrame::Bye => {}
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
            admitted(&counters, &ev);
            admitted(&counters, &ClientFrame::Item(StreamItem::Watermark(5)));
            admitted(&counters, &ClientFrame::Bye);
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
