//! The accept loop: thread per connection, panics contained.
//!
//! Every connection handler runs under `catch_unwind` inside its own
//! thread — a panicking connection (a decode bug, the chaos hook) is
//! caught, counted in `panics_caught`, logged, and closed abnormally; the
//! accept loop and every other connection continue untouched.

use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use crate::conn::serve_conn;
use crate::feed::{ConnGate, Msg};
use crate::middleware::metrics;
use crate::stats::ServerCounters;
use crate::ServerShared;

/// Accepts connections until draining starts. Connection threads outlive
/// the loop; the feed thread tracks them through `Opened`/`Closed`
/// messages.
pub(crate) fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, tx: SyncSender<Msg>) {
    let mut next_id = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if !shared.accepting.load(Ordering::Acquire) {
                    // Drain started: refuse (the wake-up dummy connection
                    // lands here too) and stop accepting.
                    break;
                }
                let id = next_id;
                next_id += 1;
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    // The gate owns the write half. The write timeout keeps
                    // a client that stopped reading from parking the feed
                    // thread in a credit write.
                    let Ok(writer) = stream.try_clone() else {
                        return;
                    };
                    if writer
                        .set_write_timeout(Some(shared.cfg.read_tick))
                        .is_err()
                    {
                        return;
                    }
                    let gate = Arc::new(ConnGate::new(
                        shared.cfg.credit_window,
                        Box::new(writer),
                        Arc::clone(&shared.counters),
                    ));
                    if tx
                        .send(Msg::Opened {
                            conn: id,
                            gate: Arc::clone(&gate),
                        })
                        .is_err()
                    {
                        return;
                    }
                    let counters = &shared.counters;
                    metrics::opened(counters);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        serve_conn(&stream, id, peer, &gate, &shared, &tx)
                    }));
                    let clean = result.unwrap_or_else(|_| {
                        ServerCounters::bump(&counters.panics_caught);
                        eprintln!(
                            "spectre-server: connection {id} ({peer}) panicked; \
                             connection dropped, server continues"
                        );
                        false
                    });
                    gate.kill();
                    metrics::closed(counters, clean);
                    let _ = tx.send(Msg::Closed { conn: id, clean });
                });
            }
            Err(_) => {
                if !shared.accepting.load(Ordering::Acquire) {
                    break;
                }
                // Transient accept error; keep serving.
            }
        }
    }
}
