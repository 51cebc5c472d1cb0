//! Server-side counters and the engine-stats publication slot.
//!
//! The engine lives on the feed thread; everything another thread wants to
//! observe (the `/metrics` endpoint, the control plane's `STATS`) reads a
//! [`PublishedStats`] snapshot the feed thread refreshes on its tick. The
//! connection-layer counters in [`ServerCounters`] are plain atomics
//! bumped in place by the connection threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spectre_core::{MetricsSnapshot, QueryId, TenantId};

/// Connection- and frame-level counters of the server front-end, exported
/// under `spectre_server_*` on `/metrics`. All relaxed atomics: they are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted by the listener.
    pub accepted: AtomicU64,
    /// Connections currently open.
    pub active: AtomicU64,
    /// Connections that ended with a `BYE` frame (clean end-of-stream).
    pub closed_clean: AtomicU64,
    /// Connections that ended without one — disconnect, error, timeout.
    pub closed_abnormal: AtomicU64,
    /// Connection-thread panics caught by the accept thread's
    /// `catch_unwind`.
    pub panics_caught: AtomicU64,
    /// Client frames of any kind decoded, minus event frames the rate
    /// limiter dropped.
    pub frames: AtomicU64,
    /// Event frames forwarded to the feed thread (rate-dropped ones are
    /// not).
    pub events: AtomicU64,
    /// Watermark frames forwarded.
    pub watermarks: AtomicU64,
    /// Event frames dropped by the rate limiter.
    pub rate_dropped: AtomicU64,
    /// Throttle frames sent to over-limit clients.
    pub rate_throttled: AtomicU64,
    /// Connections closed for sending nothing for longer than
    /// `idle_timeout`.
    pub idle_closed: AtomicU64,
    /// Frame decode errors (each ends its connection abnormally).
    pub decode_errors: AtomicU64,
    /// Credit grants (in events) sent to clients.
    pub credits_granted: AtomicU64,
    /// `CREDIT` frames written (each carries one grant).
    pub credit_frames: AtomicU64,
    /// Read timeouts that fired while the client had no credit left: both
    /// sides sat out a `read_tick` waiting for each other.
    pub credit_starved_ticks: AtomicU64,
    /// Events dropped by the sequencer as duplicates of an already-released
    /// sequence number (seq mode only).
    pub seq_stale_dropped: AtomicU64,
    /// Sequence-number gaps skipped when an abnormal disconnect forced the
    /// sequencer to flush past missing events (seq mode only).
    pub seq_gaps_skipped: AtomicU64,
}

impl ServerCounters {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The engine-side statistics the feed thread publishes for the sidecar
/// endpoints: a consistent-enough snapshot taken between engine calls.
/// After a graceful drain ([`finished`](Self::finished) set) it is exact —
/// the engine has quiesced and the final numbers are frozen here.
#[derive(Debug, Default, Clone)]
pub struct PublishedStats {
    /// Aggregate engine counters.
    pub snapshot: MetricsSnapshot,
    /// Per-query shares with the owning tenant, in deployment order.
    pub per_query: Vec<(QueryId, TenantId, MetricsSnapshot)>,
    /// Per-tenant rollups, in first-deploy order.
    pub tenants: Vec<(TenantId, MetricsSnapshot)>,
    /// Events ingested by the engine so far.
    pub input_events: u64,
    /// Complex events committed (drained by the feed thread) so far.
    pub outputs: u64,
    /// Set once the session finished and the final report exists.
    pub finished: bool,
}

/// Shared slot the feed thread writes and the sidecars read.
#[derive(Debug, Default)]
pub struct StatsSlot(Mutex<PublishedStats>);

impl StatsSlot {
    /// Replaces the published snapshot.
    pub fn publish(&self, stats: PublishedStats) {
        *self.0.lock().expect("stats slot poisoned") = stats;
    }

    /// Clones the latest published snapshot.
    pub fn read(&self) -> PublishedStats {
        self.0.lock().expect("stats slot poisoned").clone()
    }
}
