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
//! stream). An event that is due passes straight through; only an early
//! one is held. Credit is released only when an event leaves the
//! sequencer, so it holds at most the sum of the per-connection credit
//! windows — duplicate sequence numbers included, since each copy is held
//! until it leaves.
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
use std::time::{Duration, Instant};

use bytes::BytesMut;
use spectre_core::reorder::KeyedHeap;
use spectre_core::{PushResult, QueryId, Report, SpectreEngine, TenantId, TenantQuota};
use spectre_events::codec::encode_credit;
use spectre_events::{Event, Schema};
use spectre_query::parser::parse_query;
use spectre_query::ComplexEvent;

use crate::error::ServerError;
use crate::stats::{PublishedStats, ServerCounters};
use crate::{IngestOrder, ServerShared};

/// How often the feed thread publishes engine stats for `/metrics` and
/// `STATS`.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);

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
    /// Event frames the rate limiter discarded.
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

/// Sequence-order release for [`IngestOrder::Seq`]. An event whose seq is
/// `next` is due: it goes straight to the engine, and so does every held
/// event it makes due. Only an early event (seq above `next`) is held, in a
/// [`KeyedHeap`] keyed by `(seq, arrival)`; every release leaves the held
/// set above `next`, so an event at `next` never has a held event at or
/// below it to wait for. The arrival counter makes every key unique, so a
/// second event with an already-held `seq` is held beside the first instead
/// of replacing it; the later copy pops after the first is released and is
/// dropped as stale, as is an event that arrives below `next`, with its
/// credit returned and counted. The release order is therefore a sort by
/// `(seq, arrival)` of the first copy of each seq. Credit comes back only
/// when an event leaves, so the held set is at most the sum of the
/// connections' credit windows.
#[derive(Default)]
struct Sequencer {
    /// The next sequence number due for release.
    next: u64,
    /// Events held so far (the key's tie-breaker).
    arrivals: u64,
    /// The early events with their connection ids.
    pending: KeyedHeap<(u64, Event)>,
    /// The connection and length of the current run of held events
    /// released from one connection (see [`owe_held`](Self::owe_held)).
    run: Option<(u64, u64)>,
    /// Credit owed per connection, settled with one [`ConnGate::release`]
    /// each.
    owed: Vec<(u64, u64)>,
}

impl Sequencer {
    /// Takes a read's worth of events from `conn`, in wire order: each due
    /// one is handed to `push` (with the held events it makes due), each
    /// stale one is dropped and each early one is held. The credit of the
    /// events that did not wait is owed once for the whole read.
    fn accept(
        &mut self,
        conn: u64,
        events: Vec<Event>,
        push: &mut impl FnMut(Event),
        counters: &ServerCounters,
    ) {
        let mut passed = 0u64;
        for event in events {
            let seq = event.seq();
            if seq > self.next {
                self.pending.push((seq, self.arrivals), (conn, event));
                self.arrivals += 1;
                continue;
            }
            passed += 1;
            if seq < self.next {
                ServerCounters::bump(&counters.seq_stale_dropped);
                continue;
            }
            debug_assert!(self.pending.peek_key().is_none_or(|(s, _)| s > seq));
            push(event);
            self.next += 1;
            self.release(false, push, counters);
        }
        self.owe(conn, passed);
    }

    /// Hands the dense prefix it holds to `push` in seq order, dropping
    /// stale duplicates below the release point (their credit is still
    /// owed, or the sender would stall). With `skip_gaps` it releases
    /// everything it holds, jumping over missing numbers, and returns how
    /// many gaps it skipped.
    fn release(
        &mut self,
        skip_gaps: bool,
        push: &mut impl FnMut(Event),
        counters: &ServerCounters,
    ) -> u64 {
        let mut gaps = 0u64;
        while let Some((seq, _)) = self.pending.peek_key() {
            if seq > self.next {
                if !skip_gaps {
                    break;
                }
                gaps += 1;
                self.next = seq;
            }
            let (conn, event) = self.pending.pop().expect("a key was peeked");
            self.owe_held(conn);
            if seq < self.next {
                ServerCounters::bump(&counters.seq_stale_dropped);
                continue;
            }
            push(event);
            self.next += 1;
        }
        gaps
    }

    /// Counts a held event of `conn` leaving. A run of one connection's
    /// events is owed at once, when another connection's event ends it or
    /// at [`settle`](Self::settle).
    fn owe_held(&mut self, conn: u64) {
        match &mut self.run {
            Some((c, n)) if *c == conn => *n += 1,
            _ => {
                if let Some((c, n)) = self.run.replace((conn, 1)) {
                    self.owe(c, n);
                }
            }
        }
    }

    fn owe(&mut self, conn: u64, n: u64) {
        if n == 0 {
            return;
        }
        match self.owed.iter_mut().find(|(c, _)| *c == conn) {
            Some((_, owed)) => *owed += n,
            None => self.owed.push((conn, n)),
        }
    }

    fn settle(&mut self, gates: &HashMap<u64, Arc<ConnGate>>) {
        if let Some((conn, n)) = self.run.take() {
            self.owe(conn, n);
        }
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
        if last_publish.elapsed() >= PUBLISH_EVERY {
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
                seq.accept(conn, events, &mut |e| push_blocking(engine, e), counters);
                seq.settle(gates);
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

/// Releases everything the sequencer holds, in order, skipping gaps —
/// used when a disconnect or drain guarantees the missing numbers can
/// never arrive.
fn flush_sequencer(
    seq: &mut Sequencer,
    engine: &mut SpectreEngine,
    gates: &HashMap<u64, Arc<ConnGate>>,
    counters: &ServerCounters,
) {
    let gaps = seq.release(true, &mut |e| push_blocking(engine, e), counters);
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
    use spectre_events::EventType;
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
            let (mut engine, mut schema, events) = session(402, 5);
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

    /// A simulated single-query session and a seeded stream whose seq
    /// order is its timestamp order.
    fn session(events: usize, seed: u64) -> (SpectreEngine, Schema, Vec<Event>) {
        let mut schema = Schema::new();
        let events: Vec<Event> =
            NyseGenerator::new(NyseConfig::small(events, seed), &mut schema).collect();
        let query = Arc::new(queries::q1(&mut schema, 3, 150, Direction::Rising));
        let engine = SpectreEngine::builder(&query)
            .simulated()
            .try_build()
            .unwrap();
        (engine, schema, events)
    }

    #[test]
    fn sequencer_releases_interleaved_runs_in_seq_order_and_owes_each_conn_its_credit() {
        const N: usize = 60;
        let (mut engine, _, events) = session(80, 403);
        let counters = Arc::new(ServerCounters::default());
        let wires = [
            wire(1 << 10, None, &counters),
            wire(1 << 10, None, &counters),
        ];
        let gates: HashMap<u64, Arc<ConnGate>> = (0u64..)
            .zip(&wires)
            .map(|(conn, w)| (conn, Arc::clone(&w.gate)))
            .collect();
        let mut seq = Sequencer::default();
        let mut released = Vec::new();
        let mut owed = [0u64; 2];
        // Connection `s % 2` owns seq `s`. Each sends its numbers in runs of
        // three, every run reversed, the two interleaved with connection 1
        // first — so each run lands above a gap the other one fills.
        let runs = |conn: u64| -> Vec<Vec<u64>> {
            let mine: Vec<u64> = (conn..N as u64).step_by(2).collect();
            mine.chunks(3)
                .map(|run| run.iter().rev().copied().collect())
                .collect()
        };
        for (i, (even, odd)) in runs(0).into_iter().zip(runs(1)).enumerate() {
            for (conn, mut run) in [(1usize, odd), (0, even)] {
                if conn == 0 && i == 2 {
                    // A resent number already released: stale.
                    run.push(0);
                }
                let run: Vec<Event> = run.iter().map(|&s| events[s as usize].clone()).collect();
                owed[conn] += run.len() as u64;
                seq.accept(conn as u64, run, &mut |e| released.push(e.seq()), &counters);
                seq.settle(&gates);
                // Connection 1's run waits on connection 0's; connection
                // 0's completes both.
                let dense = 6 * i as u64 + if conn == 0 { 6 } else { 0 };
                assert_eq!(
                    released,
                    (0..dense).collect::<Vec<_>>(),
                    "run {i} of conn {conn}"
                );
            }
        }
        assert_eq!(released.len(), N, "the whole stream came out");
        assert!(seq.pending.is_empty());
        assert_eq!(ServerCounters::get(&counters.seq_stale_dropped), 1);
        for (conn, w) in wires.iter().enumerate() {
            assert_eq!(
                w.gate.released.load(Ordering::Acquire),
                owed[conn],
                "conn {conn}: credit back for every released and stale event"
            );
        }

        // Connection 0 dies holding N + 2, N + 3 and N + 6: the flush skips
        // the two gaps below them and releases all three in order.
        let early = [N + 6, N + 2, N + 3].map(|s| events[s].clone());
        seq.accept(
            0,
            early.to_vec(),
            &mut |_| panic!("nothing is due yet"),
            &counters,
        );
        flush_sequencer(&mut seq, &mut engine, &gates, &counters);
        assert_eq!(engine.try_finish().unwrap().input_events, 3);
        assert_eq!(seq.next, N as u64 + 7);
        assert!(seq.pending.is_empty());
        assert_eq!(ServerCounters::get(&counters.seq_gaps_skipped), 2);
        assert_eq!(wires[0].gate.released.load(Ordering::Acquire), owed[0] + 3);
    }

    /// The sequencer's specification, the slow way: every event is held in
    /// arrival order; after each read the held set is sorted by
    /// `(seq, arrival)` and its dense prefix released, copies below the
    /// release point dropped as stale; an abnormal close releases all of
    /// it, jumping the gaps.
    #[derive(Default)]
    struct Model {
        next: u64,
        /// `(seq, arrival, conn)`.
        held: Vec<(u64, u64, u64)>,
        arrivals: u64,
        released: Vec<u64>,
        credit: HashMap<u64, u64>,
        stale: u64,
        gaps: u64,
    }

    impl Model {
        fn read(&mut self, conn: u64, seqs: &[u64]) {
            for &seq in seqs {
                self.held.push((seq, self.arrivals, conn));
                self.arrivals += 1;
            }
            self.release(false);
        }

        fn release(&mut self, skip_gaps: bool) {
            self.held.sort_unstable();
            let held = std::mem::take(&mut self.held);
            for (i, &(seq, _, conn)) in held.iter().enumerate() {
                if seq > self.next {
                    if !skip_gaps {
                        self.held = held[i..].to_vec();
                        return;
                    }
                    self.gaps += 1;
                    self.next = seq;
                }
                *self.credit.entry(conn).or_default() += 1;
                if seq < self.next {
                    self.stale += 1;
                } else {
                    self.released.push(seq);
                    self.next += 1;
                }
            }
        }
    }

    /// xorshift64: a seeded, dependency-free source for the interleavings.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// Each connection's reads: its share of `0..n` in runs of one to
    /// eight, each run ascending or reversed, with some numbers also sent
    /// by another connection and some resent after a later run. The
    /// `doomed` connection sends only its first few runs, so the numbers in
    /// the rest never arrive.
    fn interleaving(rng: &mut Rng, conns: u64, n: u64, doomed: Option<u64>) -> Vec<Vec<Vec<u64>>> {
        let owner: Vec<u64> = (0..n).map(|_| rng.below(conns)).collect();
        let mut reads: Vec<Vec<Vec<u64>>> = (0..conns)
            .map(|conn| {
                let mine: Vec<u64> = (0..n).filter(|&s| owner[s as usize] == conn).collect();
                let mut runs = Vec::new();
                let mut rest = &mine[..];
                while !rest.is_empty() {
                    let (run, tail) = rest.split_at((1 + rng.below(8) as usize).min(rest.len()));
                    rest = tail;
                    let mut run = run.to_vec();
                    if rng.below(2) == 0 {
                        run.reverse();
                    }
                    runs.push(run);
                }
                runs
            })
            .collect();
        for _ in 0..n / 16 {
            // A duplicate from another connection.
            let s = rng.below(n);
            let conn = (owner[s as usize] + 1 + rng.below(conns - 1)) % conns;
            let runs = &mut reads[conn as usize];
            if !runs.is_empty() {
                let at = rng.below(runs.len() as u64) as usize;
                runs[at].push(s);
            }
            // A resend of a number sent in an earlier run.
            let conn = rng.below(conns) as usize;
            if reads[conn].len() > 1 {
                let at = 1 + rng.below(reads[conn].len() as u64 - 1) as usize;
                let earlier = reads[conn][at - 1][0];
                reads[conn][at].push(earlier);
            }
        }
        if let Some(doomed) = doomed {
            let runs = &mut reads[doomed as usize];
            runs.truncate(runs.len() / 2);
        }
        reads
    }

    /// Seeded multi-connection interleavings driven through `handle_msg`:
    /// the engine receives each number's first copy sorted by
    /// `(seq, arrival)`, every connection gets back the credit of every
    /// event it sent, and the stale and gap counters match the model.
    #[test]
    fn the_sequencer_releases_what_a_sorted_model_releases() {
        let mut rng = Rng(0x5e9_c0de_2b1d_0042);
        let (mut stale, mut gaps, mut held) = (0, 0, 0);
        for case in 0..60 {
            let conns = 2 + rng.below(3);
            let n = 100 + rng.below(150);
            let doomed = (case % 3 != 0).then(|| rng.below(conns));
            let mut reads = interleaving(&mut rng, conns, n, doomed);
            let mut schema = Schema::new();
            let query = parse_query(
                "PATTERN (A) WITHIN 1 EVENTS FROM EVERY 1 EVENTS",
                &mut schema,
            )
            .unwrap();
            let mut engine = SpectreEngine::builder(&Arc::new(query))
                .simulated()
                .try_build()
                .unwrap();
            let counters = Arc::new(ServerCounters::default());
            let wires: Vec<Wire> = (0..conns).map(|_| wire(1 << 20, None, &counters)).collect();
            let mut gates = HashMap::new();
            let (mut open_conns, mut draining) = (0usize, false);
            let mut sequencer = Some(Sequencer::default());
            let mut model = Model::default();
            let mut sent = vec![0u64; conns as usize];
            let mut outputs: Vec<ComplexEvent> = Vec::new();
            let mut feed = |msg: Msg, engine: &mut SpectreEngine| {
                handle_msg(
                    msg,
                    engine,
                    &mut schema,
                    &counters,
                    &mut gates,
                    &mut open_conns,
                    &mut draining,
                    &mut sequencer,
                );
            };
            for (conn, w) in (0..).zip(&wires) {
                let gate = Arc::clone(&w.gate);
                feed(Msg::Opened { conn, gate }, &mut engine);
            }
            for run in reads.iter_mut() {
                run.reverse(); // popped from the back
            }
            let mut live: Vec<u64> = (0..conns).collect();
            while !live.is_empty() {
                let pick = rng.below(live.len() as u64) as usize;
                let conn = live[pick];
                let Some(run) = reads[conn as usize].pop() else {
                    live.swap_remove(pick);
                    if doomed == Some(conn) {
                        model.release(true);
                        feed(Msg::Closed { conn, clean: false }, &mut engine);
                    }
                    continue;
                };
                sent[conn as usize] += run.len() as u64;
                model.read(conn, &run);
                let events = run
                    .iter()
                    .map(|&s| Event::builder(EventType::new(0)).seq(s).ts(s).build())
                    .collect();
                feed(Msg::Events { conn, events }, &mut engine);
                held = held.max(model.held.len());
                outputs.extend(
                    engine
                        .try_drain_outputs()
                        .unwrap()
                        .into_iter()
                        .map(|(_, ce)| ce),
                );
            }
            // The end of service releases what is still held.
            model.release(true);
            let seq = sequencer.as_mut().unwrap();
            flush_sequencer(seq, &mut engine, &gates, &counters);
            assert!(seq.pending.is_empty(), "case {case}");
            let report = engine.try_finish().unwrap();
            outputs.extend(report.queries.into_values().flat_map(|q| q.complex_events));
            outputs.sort_by_key(|ce| ce.window_id);
            let released: Vec<u64> = outputs
                .iter()
                .flat_map(|ce| ce.constituents.clone())
                .collect();
            assert_eq!(released, model.released, "case {case}: release order");
            assert!(released.windows(2).all(|w| w[0] < w[1]), "case {case}");
            assert_eq!(
                ServerCounters::get(&counters.seq_stale_dropped),
                model.stale,
                "case {case}"
            );
            assert_eq!(
                ServerCounters::get(&counters.seq_gaps_skipped),
                model.gaps,
                "case {case}"
            );
            for (conn, w) in wires.iter().enumerate() {
                let returned = w.gate.released.load(Ordering::Acquire);
                assert_eq!(returned, sent[conn], "case {case}: conn {conn}'s credit");
                assert_eq!(
                    model.credit.get(&(conn as u64)).copied().unwrap_or(0),
                    sent[conn]
                );
            }
            stale += model.stale;
            gaps += model.gaps;
        }
        assert!(stale > 200, "only {stale} stale copies");
        assert!(gaps > 20, "only {gaps} gaps skipped");
        assert!(held > 50, "the held set peaked at {held}");
    }

    #[test]
    fn a_duplicate_seq_held_above_the_release_point_is_dropped_once_and_credited() {
        let (mut engine, mut schema, events) = session(16, 404);
        let counters = Arc::new(ServerCounters::default());
        let wires = [wire(64, None, &counters), wire(64, None, &counters)];
        let mut gates = HashMap::new();
        let (mut open_conns, mut draining) = (0usize, false);
        let mut sequencer = Some(Sequencer::default());
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
        for (conn, w) in (0u64..).zip(&wires) {
            feed(Msg::Opened {
                conn,
                gate: Arc::clone(&w.gate),
            });
        }
        // Seq 5 arrives twice, once from each client, before 0..=4.
        for conn in [0, 1] {
            feed(Msg::Events {
                conn,
                events: vec![events[5].clone()],
            });
        }
        feed(Msg::Events {
            conn: 0,
            events: events[..5].to_vec(),
        });
        assert_eq!(ServerCounters::get(&counters.seq_stale_dropped), 1);
        let sent = [6, 1];
        for (conn, w) in wires.iter().enumerate() {
            assert_eq!(
                w.gate.released.load(Ordering::Acquire),
                sent[conn],
                "conn {conn} got back the credit of every event it sent"
            );
        }
        let pending = sequencer.as_ref().map(|s| s.pending.len());
        assert_eq!(pending, Some(0));
        let report = engine.try_finish().unwrap();
        assert_eq!(report.input_events, 6, "seq 5 reached the engine once");
    }
}
