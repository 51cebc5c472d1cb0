//! The per-connection read loop: framed decode, middleware chain, forward
//! to the feed thread a read's worth of events at a time.
//!
//! Credit protocol: the server grants an initial window of
//! `credit_window` events and replenishes as the feed thread releases
//! events into the engine (or the rate limiter drops them — a spent
//! client credit must always come back, or the client stalls). The
//! connection's [`ConnGate`] keeps the books and writes the frames; this
//! thread tells it what it has seen and dropped, and hands it the
//! `THROTTLE` advisories to write.

use std::fmt::Display;
use std::io::Read;
use std::net::TcpStream;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use bytes::BytesMut;
use spectre_events::codec::{encode_throttle, ClientFrame, Decoder};
use spectre_events::{Event, StreamItem};

use crate::feed::{ConnGate, Msg};
use crate::middleware::{ConnInfo, Decision};
use crate::stats::ServerCounters;
use crate::ServerShared;

/// Most bytes taken off the socket per read. Every read's decoded events go
/// to the feed thread as one `Msg::Events`, so this is the conn → feed
/// hand-off size. Decoding a frame costs the same whatever is buffered
/// behind it (the decoder reads through a cursor), so the size does not
/// matter for decoding: 16, 32 and 64 KiB gave the same `socket_2c`
/// throughput within noise on 2 cores.
const READ_BYTES: usize = 16 * 1024;

/// Runs one connection to completion. Returns `true` for a clean close
/// (BYE then EOF). The caller (listener) wraps this in `catch_unwind` and
/// reports the close to the stack and the feed thread.
pub(crate) fn serve_conn(
    stream: &TcpStream,
    conn: &ConnInfo,
    gate: &ConnGate,
    shared: &Arc<ServerShared>,
    tx: &SyncSender<Msg>,
) -> bool {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(shared.cfg.read_tick)).is_err()
    {
        return false;
    }
    if shared.stack.on_accept(conn) != Decision::Forward {
        return false;
    }
    let mut seen = 0u64; // event frames decoded: forwarded or dropped
    let mut dropped = 0u64; // event frames discarded by the chain
    let mut saw_bye = false;
    let mut decoder = Decoder::new();
    let mut read_buf = vec![0u8; READ_BYTES];
    let mut throttles = BytesMut::new();
    let mut batch: Vec<Event> = Vec::new();
    // Initial grant: the client may send a full window before any release.
    gate.top_up(&mut throttles);
    loop {
        match (&mut (&*stream)).read(&mut read_buf) {
            Ok(0) => return saw_bye,
            Ok(n) => {
                decoder.extend(&read_buf[..n]);
                let now_ms = shared.now_ms();
                conn.touch(now_ms);
                let close = loop {
                    let frame = match decoder.next_client_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break false,
                        Err(e) => {
                            ServerCounters::bump(&shared.counters.decode_errors);
                            log_close(conn, e);
                            break true;
                        }
                    };
                    match shared.stack.on_frame(conn, &frame, now_ms) {
                        Decision::Forward => {}
                        Decision::Drop => {
                            if matches!(frame, ClientFrame::Item(StreamItem::Event(_))) {
                                seen += 1;
                                dropped += 1;
                            }
                            continue;
                        }
                        Decision::Throttle(nanos) => encode_throttle(nanos, &mut throttles),
                        Decision::Close => break true,
                    }
                    match frame {
                        ClientFrame::Hello(tenant) => {
                            conn.set_tenant(u32::try_from(tenant).unwrap_or(u32::MAX));
                        }
                        ClientFrame::Bye => saw_bye = true,
                        ClientFrame::Item(StreamItem::Event(event)) => {
                            // The chaos hook: a poisoned tenant's events
                            // blow up the connection thread, exercising
                            // the panic layer end to end.
                            if let Some(poison) = shared.cfg.chaos_panic_tenant {
                                assert!(
                                    conn.tenant() != poison,
                                    "chaos: poisoned tenant {poison} on connection {}",
                                    conn.id
                                );
                            }
                            seen += 1;
                            batch.push(event);
                        }
                        ClientFrame::Item(StreamItem::Watermark(ts)) => {
                            // The events ahead of it on the wire go first.
                            if !forward(tx, gate, conn.id, &mut batch, seen, dropped)
                                || tx.send(Msg::Watermark(ts)).is_err()
                            {
                                return false;
                            }
                        }
                    }
                };
                if !forward(tx, gate, conn.id, &mut batch, seen, dropped) {
                    return false;
                }
                gate.top_up(&mut throttles);
                if close {
                    return false;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let now_ms = shared.now_ms();
                if shared.stack.on_tick(conn, now_ms) == Decision::Close {
                    return false;
                }
                if shared.past_drain_deadline(now_ms) {
                    log_close(conn, "still open past the drain grace period");
                    return false;
                }
                if gate.remaining() == 0 {
                    ServerCounters::bump(&shared.counters.credit_starved_ticks);
                }
            }
            Err(_) => return false,
        }
    }
}

/// Publishes the connection's totals to its gate, then hands the pending
/// batch (if any) to the feed thread. Returns `false` once the feed thread
/// is gone: the server is done.
fn forward(
    tx: &SyncSender<Msg>,
    gate: &ConnGate,
    conn: u64,
    batch: &mut Vec<Event>,
    seen: u64,
    dropped: u64,
) -> bool {
    gate.note(seen, dropped);
    if batch.is_empty() {
        return true;
    }
    let events = std::mem::replace(batch, Vec::with_capacity(batch.len()));
    tx.send(Msg::Events { conn, events }).is_ok()
}

/// The one place a connection's abnormal end is logged.
fn log_close(conn: &ConnInfo, why: impl Display) {
    eprintln!(
        "spectre-server: connection {} ({}): {why}; closing",
        conn.id, conn.peer
    );
}
