//! The feed thread: single owner of the engine session.
//!
//! Every connection thread funnels its decoded events, a read's worth per
//! message, into one bounded channel; this thread is the only one that
//! touches the [`SpectreEngine`]. Back-pressure composes end to end: the
//! engine's [`PushResult::Full`](spectre_core::PushResult) blocks the feed
//! thread in its retry loop (each retry runs a maintenance round), so it
//! stops releasing events and with that stops granting credit — a fast
//! client is ultimately throttled by the engine's speculative bound, never
//! by unbounded buffering.
//!
//! In [`IngestOrder::Seq`] mode a sequencer releases events to the engine
//! in dense sequence-number order, which makes the merged multi-client
//! stream deterministic (bit-identical to a solo session fed the ordered
//! stream). Credit is released only when an event leaves the sequencer,
//! so the reorder buffer is bounded by the sum of the per-connection
//! credit windows.
//!
//! Credit is *release-driven*: each connection's [`ConnGate`] holds the
//! credit state and the socket's write half, and this thread writes the
//! `CREDIT` frame the moment a release makes a grant due. The invariant is
//! `granted − (released + dropped) ≤ window`: a client never has more than
//! one window of events in flight between its socket and the engine.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::BytesMut;
use spectre_core::{PushResult, QueryId, Report, SpectreEngine, TenantId, TenantQuota};
use spectre_events::codec::encode_credit;
use spectre_events::{Event, Schema};
use spectre_query::parser::parse_query;
use spectre_query::ComplexEvent;

use crate::error::ServerError;
use crate::stats::{PublishedStats, ServerCounters};
use crate::{IngestOrder, ServerShared};

/// A connection's write half as its gate sees it: the socket in service, a
/// fake in tests.
pub(crate) trait GateWriter: Write + Send {
    /// Forces the connection closed, so its read loop returns and the
    /// ordinary `Closed` path runs.
    fn close(&mut self);
}

impl GateWriter for TcpStream {
    fn close(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Per-connection credit gate, shared by the connection thread (which
/// publishes what it has seen and dropped) and the feed thread (which
/// counts releases). Whichever of the two makes a grant due writes the
/// `CREDIT` frame, under the one lock that also carries the connection's
/// `THROTTLE` frames, so frames never interleave.
pub(crate) struct ConnGate {
    window: u64,
    counters: Arc<ServerCounters>,
    /// Events of this connection released by the feed thread.
    released: AtomicU64,
    /// Event frames the connection thread has decoded (forwarded or
    /// dropped: the client spent a credit either way).
    seen: AtomicU64,
    /// Event frames the middleware chain discarded.
    dropped: AtomicU64,
    out: Mutex<GateOut>,
}

struct GateOut {
    /// Total credit granted so far.
    credited: u64,
    /// A write failed or the connection ended: nothing more is written.
    dead: bool,
    writer: Box<dyn GateWriter>,
}

impl GateOut {
    fn kill(&mut self) {
        self.dead = true;
        self.writer.close();
    }
}

impl ConnGate {
    pub fn new(window: u64, writer: Box<dyn GateWriter>, counters: Arc<ServerCounters>) -> Self {
        ConnGate {
            window,
            counters,
            released: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            out: Mutex::new(GateOut {
                credited: 0,
                dead: false,
                writer,
            }),
        }
    }

    /// Feed thread: `n` more events left for the engine (or were dropped
    /// as stale). Tops the client up if that makes a grant due.
    pub fn release(&self, n: u64) {
        self.released.fetch_add(n, Ordering::Release);
        self.top_up(&mut BytesMut::new());
    }

    /// Connection thread: totals of event frames decoded and discarded so
    /// far. Stored before the events are handed to the feed thread, so a
    /// release never runs ahead of `seen`.
    pub fn note(&self, seen: u64, dropped: u64) {
        self.seen.store(seen, Ordering::Release);
        self.dropped.store(dropped, Ordering::Release);
    }

    /// Writes `frames` (the connection thread's pending `THROTTLE`
    /// advisories; empty from the feed thread) plus a `CREDIT` frame if a
    /// grant is due: at least a quarter window has come back, or the client
    /// is down to its last quarter. A failed or timed-out write kills the
    /// connection instead of parking the caller.
    pub fn top_up(&self, frames: &mut BytesMut) {
        let mut out = self.out.lock().expect("no gate user panics in a write");
        if out.dead {
            frames.clear();
            return;
        }
        let returned = self.released.load(Ordering::Acquire) + self.dropped.load(Ordering::Acquire);
        let grant = (returned + self.window).saturating_sub(out.credited);
        let remaining = out
            .credited
            .saturating_sub(self.seen.load(Ordering::Acquire));
        if grant > 0 && (grant * 4 >= self.window || remaining * 4 <= self.window) {
            encode_credit(grant, frames);
            out.credited += grant;
            debug_assert!(out.credited - returned <= self.window);
            ServerCounters::add(&self.counters.credits_granted, grant);
            ServerCounters::bump(&self.counters.credit_frames);
        }
        if !frames.is_empty() && out.writer.write_all(frames).is_err() {
            out.kill();
        }
        frames.clear();
    }

    /// Credit the client has been granted and not yet spent.
    pub fn remaining(&self) -> u64 {
        let out = self.out.lock().expect("no gate user panics in a write");
        out.credited
            .saturating_sub(self.seen.load(Ordering::Acquire))
    }

    /// The connection ended: stop writing and close the socket, so the
    /// client sees EOF without waiting for the feed thread to let go of
    /// its handle on the gate.
    pub fn kill(&self) {
        self.out
            .lock()
            .expect("no gate user panics in a write")
            .kill();
    }
}

/// A command the control plane forwards to the feed thread (the engine
/// and the schema live there).
#[derive(Debug)]
pub(crate) enum ControlCmd {
    /// Parse and deploy a query for a tenant.
    Deploy { tenant: u32, text: String },
    /// Retire a deployed query.
    Retire { qid: u32 },
    /// Set a tenant's quota.
    Quota { tenant: u32, quota: TenantQuota },
    /// List deployed queries.
    Queries,
    /// One-line ingestion statistics.
    Stats,
}

/// Messages into the feed thread.
pub(crate) enum Msg {
    /// A connection opened; its gate is registered for credit accounting.
    Opened { conn: u64, gate: Arc<ConnGate> },
    /// A read's worth of decoded events from a connection, in wire order.
    Events { conn: u64, events: Vec<Event> },
    /// A watermark (sent after the events that preceded it on the wire).
    Watermark(u64),
    /// A connection closed (`clean` = BYE before EOF).
    Closed { conn: u64, clean: bool },
    /// A control command with a reply channel.
    Control {
        cmd: ControlCmd,
        reply: Sender<Result<String, ServerError>>,
    },
    /// Begin graceful drain: stop expecting new connections, finish when
    /// the open ones are gone.
    Drain,
}

/// What a drained server leaves behind.
#[derive(Debug)]
pub struct ServerOutcome {
    /// The engine's final report.
    pub report: Report,
    /// Every committed complex event, per query in commit order — the
    /// mid-run drains concatenated with the final report's remainder.
    pub outputs: BTreeMap<QueryId, Vec<ComplexEvent>>,
    /// The final report as a one-line JSON summary.
    pub summary_json: String,
}

/// Sequence-order release buffer for [`IngestOrder::Seq`].
#[derive(Default)]
struct Sequencer {
    next: u64,
    pending: BTreeMap<u64, (u64, Event)>,
    /// Releases of the current run per connection, settled with one
    /// [`ConnGate::release`] each when the run ends.
    owed: Vec<(u64, u64)>,
}

impl Sequencer {
    fn owe(&mut self, conn: u64) {
        match self.owed.iter_mut().find(|(c, _)| *c == conn) {
            Some((_, n)) => *n += 1,
            None => self.owed.push((conn, 1)),
        }
    }

    fn settle(&mut self, gates: &HashMap<u64, Arc<ConnGate>>) {
        for (conn, n) in self.owed.drain(..) {
            release_credit(gates, conn, n);
        }
    }
}

/// The feed loop. Returns once a drain completes (all connections closed
/// after [`Msg::Drain`]) with the final outcome.
pub(crate) fn feed_loop(
    mut engine: SpectreEngine,
    mut schema: Schema,
    rx: Receiver<Msg>,
    shared: Arc<ServerShared>,
) -> Result<ServerOutcome, ServerError> {
    let mut gates: HashMap<u64, Arc<ConnGate>> = HashMap::new();
    let mut open_conns = 0usize;
    let mut draining = false;
    let mut outputs: BTreeMap<QueryId, Vec<ComplexEvent>> = BTreeMap::new();
    let mut outputs_total = 0u64;
    let mut sequencer = match shared.cfg.order {
        IngestOrder::Seq => Some(Sequencer::default()),
        IngestOrder::Arrival => None,
    };
    let mut last_publish = Instant::now();
    publish(&engine, &shared, outputs_total, false);
    loop {
        let mut disconnected = false;
        match rx.recv_timeout(shared.cfg.read_tick) {
            Ok(msg) => {
                handle_msg(
                    msg,
                    &mut engine,
                    &mut schema,
                    &shared.counters,
                    &mut gates,
                    &mut open_conns,
                    &mut draining,
                    &mut sequencer,
                );
                // Opportunistically drain a burst without sleeping again.
                for _ in 0..256 {
                    match rx.try_recv() {
                        Ok(msg) => handle_msg(
                            msg,
                            &mut engine,
                            &mut schema,
                            &shared.counters,
                            &mut gates,
                            &mut open_conns,
                            &mut draining,
                            &mut sequencer,
                        ),
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // No traffic: keep the engine progressing anyway.
                let _ = engine.maintain();
            }
            Err(RecvTimeoutError::Disconnected) => disconnected = true,
        }
        if let Ok(tagged) = engine.try_drain_outputs() {
            for (qid, ce) in tagged {
                outputs_total += 1;
                outputs.entry(qid).or_default().push(ce);
            }
        }
        if last_publish.elapsed() >= shared.cfg.publish_every {
            publish(&engine, &shared, outputs_total, false);
            last_publish = Instant::now();
        }
        if (draining && open_conns == 0) || disconnected {
            break;
        }
    }
    // End of service: flush whatever the sequencer still holds (a drain
    // with a died client can leave gaps), then finish the session.
    if let Some(seq) = sequencer.as_mut() {
        flush_sequencer(seq, &mut engine, &gates, &shared.counters);
    }
    let report = engine.try_finish()?;
    for (qid, qr) in &report.queries {
        let slot = outputs.entry(*qid).or_default();
        outputs_total += qr.complex_events.len() as u64;
        slot.extend(qr.complex_events.iter().cloned());
    }
    let mut stats = snapshot_stats(&engine, outputs_total, true);
    stats.snapshot = report.metrics;
    stats.input_events = report.input_events;
    shared.stats.publish(stats);
    let summary_json = report.summary_json();
    Ok(ServerOutcome {
        report,
        outputs,
        summary_json,
    })
}

#[allow(clippy::too_many_arguments)]
fn handle_msg(
    msg: Msg,
    engine: &mut SpectreEngine,
    schema: &mut Schema,
    counters: &ServerCounters,
    gates: &mut HashMap<u64, Arc<ConnGate>>,
    open_conns: &mut usize,
    draining: &mut bool,
    sequencer: &mut Option<Sequencer>,
) {
    match msg {
        Msg::Opened { conn, gate } => {
            gates.insert(conn, gate);
            *open_conns += 1;
        }
        Msg::Events { conn, events } => match sequencer {
            Some(seq) => {
                for event in events {
                    seq.pending.insert(event.seq(), (conn, event));
                }
                release_ready(seq, engine, gates, counters);
            }
            None => {
                let n = events.len() as u64;
                for event in events {
                    push_blocking(engine, event);
                }
                release_credit(gates, conn, n);
            }
        },
        Msg::Watermark(ts) => {
            // Watermarks are punctuation, not payload: they bypass the
            // sequencer (which orders events by seq) and advance the
            // reorder stage directly. A finished session has no stage
            // left to advance, so its `SessionFinished` is dropped.
            let _ = engine.advance_watermark(ts);
        }
        Msg::Closed { conn, clean } => {
            *open_conns = open_conns.saturating_sub(1);
            if !clean {
                // An abnormal disconnect may have taken undelivered
                // sequence numbers with it; flush past the gaps so the
                // survivors' buffered events keep flowing.
                if let Some(seq) = sequencer.as_mut() {
                    flush_sequencer(seq, engine, gates, counters);
                }
            }
            gates.remove(&conn);
        }
        Msg::Control { cmd, reply } => {
            let _ = reply.send(handle_control(cmd, engine, schema));
        }
        Msg::Drain => *draining = true,
    }
}

/// Pushes one event, retrying through back-pressure (each retry runs a
/// maintenance round, so this always terminates).
fn push_blocking(engine: &mut SpectreEngine, mut event: Event) {
    loop {
        match engine.try_push(event) {
            Ok(PushResult::Accepted) => return,
            Ok(PushResult::Full(back)) => event = back,
            Err(_) => return, // finished mid-drain: drop the straggler
        }
    }
}

fn release_credit(gates: &HashMap<u64, Arc<ConnGate>>, conn: u64, n: u64) {
    if let Some(gate) = gates.get(&conn) {
        gate.release(n);
    }
}

/// Releases the dense prefix the sequencer now holds as one run; drops
/// stale duplicates below the release point (their credit is still
/// returned, or the sender would stall).
fn release_ready(
    seq: &mut Sequencer,
    engine: &mut SpectreEngine,
    gates: &HashMap<u64, Arc<ConnGate>>,
    counters: &ServerCounters,
) {
    while let Some(entry) = seq.pending.first_entry() {
        let key = *entry.key();
        if key > seq.next {
            break;
        }
        let (conn, event) = entry.remove();
        seq.owe(conn);
        if key < seq.next {
            ServerCounters::bump(&counters.seq_stale_dropped);
            continue;
        }
        push_blocking(engine, event);
        seq.next += 1;
    }
    seq.settle(gates);
}

/// Releases everything the sequencer holds, in order, skipping gaps —
/// used when a disconnect or drain guarantees the missing numbers can
/// never arrive.
fn flush_sequencer(
    seq: &mut Sequencer,
    engine: &mut SpectreEngine,
    gates: &HashMap<u64, Arc<ConnGate>>,
    counters: &ServerCounters,
) {
    let mut gaps = 0u64;
    while let Some(entry) = seq.pending.first_entry() {
        let key = *entry.key();
        if key > seq.next {
            gaps += 1;
            seq.next = key;
        }
        let (conn, event) = entry.remove();
        seq.owe(conn);
        if key < seq.next {
            ServerCounters::bump(&counters.seq_stale_dropped);
            continue;
        }
        push_blocking(engine, event);
        seq.next += 1;
    }
    seq.settle(gates);
    ServerCounters::add(&counters.seq_gaps_skipped, gaps);
}

fn handle_control(
    cmd: ControlCmd,
    engine: &mut SpectreEngine,
    schema: &mut Schema,
) -> Result<String, ServerError> {
    match cmd {
        ControlCmd::Deploy { tenant, text } => {
            let query = parse_query(&text, schema)
                .map_err(|e| ServerError::Control(format!("bad query: {e}")))?;
            let qid = engine.deploy_query_for(TenantId(tenant), &Arc::new(query))?;
            Ok(format!("deployed {qid}"))
        }
        ControlCmd::Retire { qid } => {
            let drained = engine.retire_query(QueryId(qid))?;
            Ok(format!(
                "retired q{qid} ({} undrained outputs)",
                drained.len()
            ))
        }
        ControlCmd::Quota { tenant, quota } => {
            engine.set_tenant_quota(TenantId(tenant), quota)?;
            Ok(format!("quota set for t{tenant}"))
        }
        ControlCmd::Queries => {
            let rows: Vec<String> = engine
                .query_ids()
                .into_iter()
                .map(|qid| {
                    let tenant = engine
                        .query_tenant(qid)
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "?".into());
                    format!("{qid}:{tenant}")
                })
                .collect();
            Ok(if rows.is_empty() {
                "none".into()
            } else {
                rows.join(" ")
            })
        }
        ControlCmd::Stats => Ok(format!(
            "input_events={} queries={}",
            engine.events_ingested(),
            engine.query_ids().len()
        )),
    }
}

fn snapshot_stats(engine: &SpectreEngine, outputs: u64, finished: bool) -> PublishedStats {
    PublishedStats {
        snapshot: engine.metrics(),
        per_query: engine
            .per_query_metrics()
            .into_iter()
            .map(|(qid, m)| {
                let tenant = engine.query_tenant(qid).unwrap_or(TenantId::DEFAULT);
                (qid, tenant, m)
            })
            .collect(),
        tenants: engine.tenant_metrics(),
        input_events: engine.events_ingested(),
        outputs,
        finished,
    }
}

fn publish(engine: &SpectreEngine, shared: &ServerShared, outputs: u64, finished: bool) {
    shared
        .stats
        .publish(snapshot_stats(engine, outputs, finished));
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_datasets::{NyseConfig, NyseGenerator};
    use spectre_events::codec::{Decoder, ServerFrame};
    use spectre_query::queries::{self, Direction};
    use std::sync::atomic::AtomicBool;

    /// A write half that records what it is given, or fails every write.
    struct FakeWriter {
        fail: Option<std::io::ErrorKind>,
        written: Arc<Mutex<Vec<u8>>>,
        closed: Arc<AtomicBool>,
    }

    impl Write for FakeWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.fail {
                Some(kind) => Err(kind.into()),
                None => {
                    self.written.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl GateWriter for FakeWriter {
        fn close(&mut self) {
            self.closed.store(true, Ordering::Release);
        }
    }

    struct Wire {
        gate: Arc<ConnGate>,
        written: Arc<Mutex<Vec<u8>>>,
        closed: Arc<AtomicBool>,
    }

    fn wire(window: u64, fail: Option<std::io::ErrorKind>, counters: &Arc<ServerCounters>) -> Wire {
        let written = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let writer = FakeWriter {
            fail,
            written: Arc::clone(&written),
            closed: Arc::clone(&closed),
        };
        let gate = Arc::new(ConnGate::new(
            window,
            Box::new(writer),
            Arc::clone(counters),
        ));
        Wire {
            gate,
            written,
            closed,
        }
    }

    /// Total credit in the frames written so far; panics on a torn frame.
    fn credit_on_wire(written: &Mutex<Vec<u8>>) -> u64 {
        let mut decoder = Decoder::new();
        decoder.extend(&written.lock().unwrap());
        let mut credit = 0;
        while let Some(frame) = decoder.next_server_frame().expect("whole frames only") {
            match frame {
                ServerFrame::Credit(n) => credit += n,
                ServerFrame::Throttle(_) => panic!("nobody throttles here"),
            }
        }
        assert_eq!(decoder.buffered(), 0, "no partial frame left behind");
        credit
    }

    #[test]
    fn a_failed_credit_write_kills_its_gate_and_the_survivor_keeps_its_window() {
        const WINDOW: u64 = 8;
        for (order, kind) in [
            (IngestOrder::Seq, std::io::ErrorKind::WouldBlock),
            (IngestOrder::Arrival, std::io::ErrorKind::BrokenPipe),
        ] {
            let mut schema = Schema::new();
            let events: Vec<Event> =
                NyseGenerator::new(NyseConfig::small(402, 5), &mut schema).collect();
            let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
            let mut engine = SpectreEngine::builder(&query)
                .simulated()
                .try_build()
                .unwrap();
            let counters = Arc::new(ServerCounters::default());
            let survivor = wire(WINDOW, None, &counters);
            let doomed = wire(WINDOW, Some(kind), &counters);
            let mut gates = HashMap::new();
            let (mut open_conns, mut draining) = (0usize, false);
            let mut sequencer = (order == IngestOrder::Seq).then(Sequencer::default);
            let mut feed = |msg: Msg| {
                handle_msg(
                    msg,
                    &mut engine,
                    &mut schema,
                    &counters,
                    &mut gates,
                    &mut open_conns,
                    &mut draining,
                    &mut sequencer,
                );
            };
            for (conn, w) in [(0, &survivor), (1, &doomed)] {
                feed(Msg::Opened {
                    conn,
                    gate: Arc::clone(&w.gate),
                });
                // The connection thread's initial grant.
                w.gate.top_up(&mut BytesMut::new());
            }
            assert_eq!(credit_on_wire(&survivor.written), WINDOW);
            // The doomed connection's first write fails: dead, socket shut
            // so its read loop returns, nothing on the wire.
            assert!(doomed.gate.out.lock().unwrap().dead, "{order:?}");
            assert!(doomed.closed.load(Ordering::Acquire), "{order:?}");
            assert!(!survivor.closed.load(Ordering::Acquire));

            // Batches of three, dealt alternately. In arrival order the
            // doomed connection goes down after three batches; the
            // sequencer would hold the survivor behind the missing numbers
            // from then on, so there every doomed batch was already in
            // flight.
            let doomed_batches = match order {
                IngestOrder::Seq => usize::MAX,
                IngestOrder::Arrival => 3,
            };
            let mut seen = 0u64;
            for (i, pair) in events.chunks(6).enumerate() {
                let (ours, theirs) = pair.split_at(3);
                // A client never sends past its credit.
                seen += ours.len() as u64;
                assert!(
                    seen <= credit_on_wire(&survivor.written),
                    "{order:?} step {i}"
                );
                survivor.gate.note(seen, 0);
                feed(Msg::Events {
                    conn: 0,
                    events: ours.to_vec(),
                });
                if i < doomed_batches {
                    feed(Msg::Events {
                        conn: 1,
                        events: theirs.to_vec(),
                    });
                } else if i == doomed_batches {
                    feed(Msg::Closed {
                        conn: 1,
                        clean: false,
                    });
                }
                let granted = credit_on_wire(&survivor.written);
                let returned = survivor.gate.released.load(Ordering::Acquire);
                assert!(
                    granted - returned <= WINDOW,
                    "{order:?} step {i}: granted {granted}, returned {returned}"
                );
            }
            // Everything the survivor sent was released, and its client is
            // topped back up to a full window.
            assert_eq!(survivor.gate.released.load(Ordering::Acquire), seen);
            assert_eq!(credit_on_wire(&survivor.written), seen + WINDOW);
            assert!(doomed.written.lock().unwrap().is_empty());
        }
    }
}
