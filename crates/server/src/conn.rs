//! The per-connection read loop: framed decode, the idle timeout, the
//! rate limit and the frame counters (tallied locally and published once
//! per read), then forward to the feed thread a read's worth of events at
//! a time.
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
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use bytes::BytesMut;
use spectre_events::codec::{encode_throttle, ClientFrame, Decoder};
use spectre_events::{Event, StreamItem};

use crate::feed::{ConnGate, Msg};
use crate::middleware::{metrics, timeout};
use crate::stats::ServerCounters;
use crate::{OverLimitPolicy, ServerShared};

/// Most bytes taken off the socket per read. Every read's decoded events go
/// to the feed thread as one `Msg::Events`, so this is the conn → feed
/// hand-off size. Decoding a frame costs the same whatever is buffered
/// behind it (the decoder reads through a cursor), so the size does not
/// matter for decoding: 16, 32 and 64 KiB gave the same `socket_2c`
/// throughput within noise on 2 cores.
const READ_BYTES: usize = 16 * 1024;

/// Runs connection `id` to completion. Returns `true` for a clean close
/// (BYE then EOF). The caller (listener) wraps this in `catch_unwind` and
/// reports the close to the counters and the feed thread.
pub(crate) fn serve_conn(
    stream: &TcpStream,
    id: u64,
    peer: SocketAddr,
    gate: &ConnGate,
    shared: &Arc<ServerShared>,
    tx: &SyncSender<Msg>,
) -> bool {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(shared.cfg.read_tick)).is_err()
    {
        return false;
    }
    let counters = &shared.counters;
    // Tenant declared by the `HELLO` frame (0, the default tenant, until
    // one arrives) and the clock of the last read that brought bytes.
    let mut tenant = 0u32;
    let mut last_activity_ms = shared.now_ms();
    // This connection's own bucket; only the tenant buckets are shared.
    let mut limit = shared
        .rate_limit
        .as_ref()
        .map(|limiter| (limiter, limiter.conn_bucket(last_activity_ms)));
    let mut seen = 0u64; // event frames decoded: forwarded or dropped
    let mut dropped = 0u64; // event frames discarded by the rate limiter
    let mut admitted = metrics::Admitted::default();
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
                last_activity_ms = now_ms;
                let decode_failed = loop {
                    let frame = match decoder.next_client_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break false,
                        Err(e) => {
                            ServerCounters::bump(&counters.decode_errors);
                            log_close(id, peer, e);
                            break true;
                        }
                    };
                    // Only event frames spend tokens; a dropped frame is
                    // not counted below as served traffic.
                    if let (Some((limiter, bucket)), ClientFrame::Item(StreamItem::Event(_))) =
                        (&mut limit, &frame)
                    {
                        if let Err(wait_nanos) = limiter.admit(bucket, tenant, now_ms) {
                            if limiter.cfg.policy == OverLimitPolicy::Drop {
                                ServerCounters::bump(&counters.rate_dropped);
                                seen += 1;
                                dropped += 1;
                                continue;
                            }
                            ServerCounters::bump(&counters.rate_throttled);
                            encode_throttle(wait_nanos, &mut throttles);
                        }
                    }
                    admitted.count(&frame);
                    match frame {
                        ClientFrame::Hello(declared) => {
                            tenant = u32::try_from(declared).unwrap_or(u32::MAX);
                        }
                        ClientFrame::Bye => saw_bye = true,
                        ClientFrame::Item(StreamItem::Event(event)) => {
                            // The chaos hook: a poisoned tenant's events
                            // blow up the connection thread, exercising
                            // the listener's panic containment end to end.
                            if shared.cfg.chaos_panic_tenant == Some(tenant) {
                                admitted.publish(counters);
                                panic!("chaos: poisoned tenant {tenant} on connection {id}");
                            }
                            seen += 1;
                            batch.push(event);
                        }
                        ClientFrame::Item(StreamItem::Watermark(ts)) => {
                            // The events ahead of it on the wire go first.
                            admitted.publish(counters);
                            if !forward(tx, gate, id, &mut batch, seen, dropped)
                                || tx.send(Msg::Watermark(ts)).is_err()
                            {
                                return false;
                            }
                        }
                    }
                };
                // Published before the events are forwarded, so the
                // counters never trail what the feed thread has seen.
                admitted.publish(counters);
                if !forward(tx, gate, id, &mut batch, seen, dropped) {
                    return false;
                }
                gate.top_up(&mut throttles);
                if decode_failed {
                    return false;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let now_ms = shared.now_ms();
                let idle_ms = shared.cfg.idle_timeout_ms;
                if timeout::expired(counters, last_activity_ms, now_ms, idle_ms) {
                    log_close(id, peer, format_args!("idle for over {idle_ms}ms"));
                    return false;
                }
                if shared.past_drain_deadline(now_ms) {
                    log_close(id, peer, "still open past the drain grace period");
                    return false;
                }
                if gate.remaining() == 0 {
                    ServerCounters::bump(&counters.credit_starved_ticks);
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
fn log_close(id: u64, peer: SocketAddr, why: impl Display) {
    eprintln!("spectre-server: connection {id} ({peer}): {why}; closing");
}
