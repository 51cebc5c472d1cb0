//! spectre-server: a standing multi-client ingestion front-end for one
//! [`spectre_core::SpectreEngine`] session.
//!
//! The server binds three sockets:
//!
//! * an **ingestion** socket speaking the framed wire protocol of
//!   [`spectre_events::codec`] — events and watermarks in, credit and
//!   throttle frames out, one thread per connection, every connection
//!   funneled through a bounded channel into the single feed thread that
//!   owns the engine;
//! * an **HTTP sidecar** serving `GET /metrics` (Prometheus text
//!   exposition) and `GET /healthz`;
//! * a **control** socket speaking a line protocol (`DEPLOY`, `RETIRE`,
//!   `QUOTA`, `QUERIES`, `STATS`, `DRAIN`, `PING`) for live operations.
//!
//! Each connection's thread makes the front-end's checks itself, in its
//! read loop: the idle timeout, optional token-bucket rate limiting (per
//! connection and per tenant, see [`RateLimitConfig`]) and the frame
//! counters of [`ServerCounters`]. The accept thread runs every connection
//! under `catch_unwind`, so a panicking connection is counted and closed
//! while the server keeps serving.
//!
//! ```no_run
//! use std::sync::Arc;
//! use spectre_events::Schema;
//! use spectre_query::queries::{self, Direction};
//! use spectre_server::{FeedClient, ServerConfig, Server};
//!
//! let mut schema = Schema::new();
//! let query = Arc::new(queries::q1(&mut schema, 2, 2000, Direction::Rising));
//! let handle = Server::start(
//!     ServerConfig::default(),
//!     schema.clone(),
//!     vec![(spectre_core::TenantId::DEFAULT, query)],
//! )
//! .unwrap();
//! let client = FeedClient::connect(handle.ingest_addr(), 0).unwrap();
//! // ... send_event / send_watermark ...
//! client.finish().unwrap();
//! handle.drain();
//! let outcome = handle.join().unwrap();
//! println!("{}", outcome.summary_json);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spectre_core::{SpectreConfig, SpectreEngine, TenantId, TenantQuota};
use spectre_events::Schema;
use spectre_query::Query;

mod client;
mod conn;
mod control;
mod error;
mod feed;
mod http;
mod listener;
mod middleware;
mod prom;
mod rate_limit;
mod stats;

pub use client::FeedClient;
pub use error::ServerError;
pub use feed::ServerOutcome;
pub use rate_limit::{OverLimitPolicy, RateLimitConfig};
pub use stats::ServerCounters;

use feed::Msg;
use rate_limit::RateLimiter;
use stats::StatsSlot;

/// Bound of the connections→feed channel, in messages.
const FEED_QUEUE: usize = 1024;

/// How long a drain waits for open connections before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// In which order the feed thread releases multi-client events into the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOrder {
    /// Release in dense event sequence-number order (a reorder buffer in
    /// front of the engine). Clients streaming disjoint slices of one
    /// sequenced stream merge back into it exactly, making the session
    /// bit-identical to a solo engine fed the ordered stream.
    Seq,
    /// Release in arrival order, interleaving clients as the scheduler
    /// happens to run them. Maximum throughput, no cross-client ordering.
    Arrival,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine configuration for the hosted session.
    pub engine: SpectreConfig,
    /// Run the engine in threaded mode (default: the deterministic
    /// simulation mode, where only the feed thread does engine work).
    pub threaded: bool,
    /// Multi-client merge order (default [`IngestOrder::Seq`]).
    pub order: IngestOrder,
    /// Ingestion socket address (default `127.0.0.1:0` — an ephemeral
    /// port, reported by [`ServerHandle::ingest_addr`]).
    pub ingest_addr: SocketAddr,
    /// Metrics/health HTTP sidecar address (default `127.0.0.1:0`).
    pub http_addr: SocketAddr,
    /// Control socket address (default `127.0.0.1:0`).
    pub control_addr: SocketAddr,
    /// Per-connection credit window: the most events one client may have
    /// in flight between its socket and the engine (default 8192).
    pub credit_window: u64,
    /// Socket read timeout; also the cadence of the idle-timeout check and
    /// the feed thread's idle maintenance (default 50 ms; must be
    /// positive).
    pub read_tick: Duration,
    /// Close connections idle longer than this (default 30 s).
    pub idle_timeout: Duration,
    /// Optional token-bucket rate limiting (default off).
    pub rate_limit: Option<RateLimitConfig>,
    /// Chaos hook for panic-containment tests: event frames from this
    /// tenant panic their connection thread (default off).
    pub chaos_panic_tenant: Option<u32>,
    /// Tenant quotas applied at session build.
    pub quotas: Vec<(TenantId, TenantQuota)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
        ServerConfig {
            engine: SpectreConfig::default(),
            threaded: false,
            order: IngestOrder::Seq,
            ingest_addr: loopback,
            http_addr: loopback,
            control_addr: loopback,
            credit_window: 8192,
            read_tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            rate_limit: None,
            chaos_panic_tenant: None,
            quotas: Vec::new(),
        }
    }
}

/// The runtime slice of [`ServerConfig`] the worker threads consult.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeCfg {
    pub order: IngestOrder,
    pub credit_window: u64,
    pub read_tick: Duration,
    pub idle_timeout_ms: u64,
    pub chaos_panic_tenant: Option<u32>,
}

/// State shared by every server thread.
pub(crate) struct ServerShared {
    pub cfg: RuntimeCfg,
    pub counters: Arc<ServerCounters>,
    pub rate_limit: Option<RateLimiter>,
    pub stats: StatsSlot,
    /// New ingestion connections are admitted.
    pub accepting: AtomicBool,
    /// A drain has started (healthz reports `draining`).
    pub draining: AtomicBool,
    /// The aux accept loops (http/control) should exit.
    pub stopping: AtomicBool,
    /// Milliseconds (on the shared clock) after which a drain force-closes
    /// lingering connections; `u64::MAX` until a drain starts.
    pub drain_deadline_ms: AtomicU64,
    /// Epoch of the shared millisecond clock.
    pub start: Instant,
    /// Bound ingestion address, for the drain wake-up connection.
    pub ingest_addr: SocketAddr,
}

impl ServerShared {
    /// Milliseconds since server start — the clock every rate-limit and
    /// timeout decision uses.
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Whether a drain is past its grace period.
    pub fn past_drain_deadline(&self, now_ms: u64) -> bool {
        now_ms >= self.drain_deadline_ms.load(Ordering::Acquire)
    }
}

/// The server: a namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds the three listeners, builds the engine session with the
    /// given initial queries, and spawns the feed, accept, HTTP, and
    /// control threads. Returns once the server is ready to accept
    /// clients.
    pub fn start(
        cfg: ServerConfig,
        schema: Schema,
        queries: Vec<(TenantId, Arc<Query>)>,
    ) -> Result<ServerHandle, ServerError> {
        if cfg.credit_window == 0 {
            return Err(ServerError::Config("credit window must be positive".into()));
        }
        if cfg.read_tick.is_zero() {
            // Sockets reject a zero timeout, so every connection would fail.
            return Err(ServerError::Config("read tick must be positive".into()));
        }
        if let Some(rate) = &cfg.rate_limit {
            rate.check()?;
        }
        let ingest_listener = TcpListener::bind(cfg.ingest_addr)?;
        let http_listener = TcpListener::bind(cfg.http_addr)?;
        let control_listener = TcpListener::bind(cfg.control_addr)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let http_addr = http_listener.local_addr()?;
        let control_addr = control_listener.local_addr()?;

        let mut builder = SpectreEngine::multi_builder();
        for (tenant, query) in &queries {
            builder.add_query_for(*tenant, query);
        }
        for (tenant, quota) in &cfg.quotas {
            builder.set_quota(*tenant, quota.clone());
        }
        let builder = builder.config(cfg.engine.clone());
        let builder = if cfg.threaded {
            builder.threaded()
        } else {
            builder.simulated()
        };
        let engine = builder.try_build()?;

        let shared = Arc::new(ServerShared {
            cfg: RuntimeCfg {
                order: cfg.order,
                credit_window: cfg.credit_window,
                read_tick: cfg.read_tick,
                idle_timeout_ms: u64::try_from(cfg.idle_timeout.as_millis()).unwrap_or(u64::MAX),
                chaos_panic_tenant: cfg.chaos_panic_tenant,
            },
            counters: Arc::new(ServerCounters::default()),
            rate_limit: cfg.rate_limit.map(RateLimiter::new),
            stats: StatsSlot::default(),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            drain_deadline_ms: AtomicU64::new(u64::MAX),
            start: Instant::now(),
            ingest_addr,
        });

        let (tx, rx) = sync_channel::<Msg>(FEED_QUEUE);
        let feed = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("spectre-feed".into())
                .spawn(move || feed::feed_loop(engine, schema, rx, shared))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("spectre-accept".into())
                .spawn(move || listener::accept_loop(ingest_listener, shared, tx))?
        };
        let http = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("spectre-http".into())
                .spawn(move || http::http_loop(http_listener, shared))?
        };
        let control = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("spectre-control".into())
                .spawn(move || control::control_loop(control_listener, shared, tx))?
        };
        Ok(ServerHandle {
            shared,
            tx: Some(tx),
            feed: Some(feed),
            accept: Some(accept),
            http: Some(http),
            control: Some(control),
            ingest_addr,
            http_addr,
            control_addr,
        })
    }
}

/// Starts the graceful drain: refuse new connections, arm the grace
/// deadline, tell the feed thread to finish once the open connections are
/// gone. Idempotent.
pub(crate) fn initiate_drain(shared: &Arc<ServerShared>, tx: &SyncSender<Msg>) {
    if shared.draining.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.accepting.store(false, Ordering::Release);
    let grace = u64::try_from(DRAIN_GRACE.as_millis()).unwrap_or(u64::MAX);
    shared
        .drain_deadline_ms
        .store(shared.now_ms().saturating_add(grace), Ordering::Release);
    // Wake the accept loop out of its blocking accept; the dummy
    // connection is refused because `accepting` is already false.
    let _ = TcpStream::connect(shared.ingest_addr);
    let _ = tx.send(Msg::Drain);
}

/// A running server. Dropping the handle without [`join`](Self::join)
/// abandons the session (threads stop on a best-effort basis).
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    tx: Option<SyncSender<Msg>>,
    feed: Option<JoinHandle<Result<ServerOutcome, ServerError>>>,
    accept: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    control_addr: SocketAddr,
}

impl ServerHandle {
    /// The bound ingestion address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound metrics/health HTTP address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The bound control-socket address.
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// The live server front-end counters.
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// Whether the session has finished (the final report is published).
    pub fn is_finished(&self) -> bool {
        self.shared.stats.read().finished
    }

    /// Starts the graceful drain (idempotent; also triggered by the
    /// control command `DRAIN`).
    pub fn drain(&self) {
        if let Some(tx) = &self.tx {
            initiate_drain(&self.shared, tx);
        }
    }

    /// Drains (if not already draining) and waits for the session to
    /// finish, returning the final outcome.
    pub fn join(mut self) -> Result<ServerOutcome, ServerError> {
        self.drain();
        let outcome = match self.feed.take() {
            Some(feed) => match feed.join() {
                Ok(outcome) => outcome,
                Err(_) => Err(ServerError::Control("the feed thread panicked".into())),
            },
            None => Err(ServerError::Control("already joined".into())),
        };
        self.shutdown_aux();
        outcome
    }

    /// Stops the accept/http/control loops and joins their threads.
    fn shutdown_aux(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.accepting.store(false, Ordering::Release);
        // The feed channel must die so lingering control roundtrips fail
        // fast instead of timing out.
        drop(self.tx.take());
        // Wake each blocking accept with a dummy connection.
        let _ = TcpStream::connect(self.ingest_addr);
        let _ = TcpStream::connect(self.http_addr);
        let _ = TcpStream::connect(self.control_addr);
        for handle in [self.accept.take(), self.http.take(), self.control.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.feed.is_some() {
            // Abandoned without join: unblock the threads so the process
            // can exit. The feed thread ends when the channel closes.
            self.shared.draining.store(true, Ordering::Release);
            self.shutdown_aux();
            if let Some(feed) = self.feed.take() {
                let _ = feed.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts a server with no queries and returns its configuration error.
    fn config_error(cfg: ServerConfig) -> String {
        match Server::start(cfg, Schema::new(), Vec::new()) {
            Err(ServerError::Config(msg)) => msg,
            Err(other) => panic!("expected a configuration error, got {other}"),
            Ok(_) => panic!("expected a configuration error, the server started"),
        }
    }

    fn rate_limited(rate: RateLimitConfig) -> ServerConfig {
        ServerConfig {
            rate_limit: Some(rate),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn a_zero_read_tick_is_a_config_error() {
        let msg = config_error(ServerConfig {
            read_tick: Duration::ZERO,
            ..ServerConfig::default()
        });
        assert!(msg.contains("read tick"), "{msg}");
    }

    #[test]
    fn a_rate_that_is_not_finite_and_positive_is_a_config_error() {
        for eps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let per_conn = RateLimitConfig::per_conn(eps, 10.0, OverLimitPolicy::Drop);
            let msg = config_error(rate_limited(per_conn));
            assert!(msg.contains("events per second"), "{eps}: {msg}");
            let per_tenant = RateLimitConfig {
                per_tenant_eps: Some(eps),
                ..RateLimitConfig::per_conn(100.0, 10.0, OverLimitPolicy::Drop)
            };
            let msg = config_error(rate_limited(per_tenant));
            assert!(msg.contains("events per second"), "tenant {eps}: {msg}");
        }
    }

    #[test]
    fn a_burst_below_one_event_is_a_config_error() {
        for burst in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let rate = RateLimitConfig::per_conn(100.0, burst, OverLimitPolicy::Throttle);
            let msg = config_error(rate_limited(rate));
            assert!(msg.contains("burst"), "{burst}: {msg}");
        }
    }
}
