//! # SPECTRE — speculative window-based parallel CEP with consumption policies
//!
//! A reproduction of *SPECTRE: Supporting Consumption Policies in
//! Window-Based Parallel Complex Event Processing* (Mayer et al.,
//! Middleware '17). Consumption policies make overlapping windows
//! interdependent: an event consumed by a pattern instance in window `w`
//! must be excluded from every later window. SPECTRE processes dependent
//! windows in parallel anyway by *speculating* on the outcome of each
//! partial match (consumption group):
//!
//! * [`tree::DependencyTree`] keeps one window version per combination of
//!   assumed consumption-group outcomes (paper §3.1),
//! * [`markov::MarkovModel`] predicts each group's completion probability
//!   from run-time statistics (paper §3.2.1),
//! * the splitter schedules the top-k most-likely-to-survive versions onto
//!   k operator instances (paper §3.2.2),
//! * instances process events, suppress assumed-consumed events, buffer
//!   speculative outputs and roll back on consistency violations
//!   (paper §3.3).
//!
//! The runtime is one incremental **engine session**, [`SpectreEngine`]:
//! built with a builder (`SpectreEngine::builder(&query).config(cfg)
//! .threaded()/.simulated().try_build()`), fed with `try_push` /
//! `ingest` (any `Iterator<Item = Event>` — a dataset generator, a decoded
//! file — streams in without ever being materialized), drained with
//! `try_drain_outputs` (complex events as they are committed, tagged with
//! the producing query), observed with `metrics`, and closed with
//! `try_finish() -> Report`. Back-pressure is part of the surface:
//! `try_push` returns `Full(event)` instead of buffering without bound, so
//! memory stays bounded by the speculative-load cap regardless of stream
//! length. Two execution modes share the session: deterministic
//! virtual-time simulation (used for the paper's scalability figures) and
//! real OS threads. Every mode delivers exactly the sequential-semantics
//! output: no false positives, no false negatives, in window order.
//!
//! Streams need not arrive in timestamp order: the opt-in
//! [`SpectreConfig::reorder`] knob interposes a watermark-driven
//! [`reorder::ReorderBuffer`] ahead of the splitter — events arriving up
//! to a bounded lateness out of order are buffered and released in
//! timestamp order, later ones are counted and dropped, and the output
//! stays bit-identical to the in-order run.
//!
//! One session hosts any number of **concurrent queries** over the shared
//! splitter, store and instance pool ([`shared::QueryId`] keys the
//! per-query state): add them with `SpectreEngineBuilder::add_query`, or
//! deploy/retire on the live session mid-stream (`deploy_query` /
//! `retire_query`). Queries with equal window specs share their window
//! buffers — each window's events are stored once — and every query's
//! output stream is bit-identical to what it would produce in a session
//! of its own. Misuse of the session surface is reported as an
//! [`engine::EngineError`] value, never as a panic.
//!
//! Sessions are **tenant-aware**: each query belongs to a
//! [`shared::TenantId`] (the default tenant unless deployed with
//! `add_query_for` / `deploy_query_for`), and per-tenant
//! [`config::TenantQuota`]s set a scheduling weight (weighted fair share
//! of the k instance slots, deficit-round-robin carryover), a speculation
//! cap (`max_versions`) and a query cap. Queries also derive a
//! conservative per-event prefilter from their pattern
//! ([`spectre_query::EventFilter`]): windows containing no relevant event
//! are skipped outright ([`MetricsSnapshot::windows_skipped`]). A
//! tenant's share is split evenly among its queries with work, so
//! queries of one tenant take turns; tagging every query with one tenant
//! schedules bit-identically to the untenanted engine, and per-tenant
//! rollups ([`SpectreEngine::tenant_metrics`],
//! [`engine::Report::tenants`]) sum exactly to the aggregate counters.
//!
//! ## The batched data path
//!
//! The hot path moves data in batches end to end (see
//! `docs/ARCHITECTURE.md` at the repository root for the full map):
//!
//! * [`Splitter::feed`] writes each event once, into an [`EventBatch`]
//!   chunk of up to [`SpectreConfig::batch_size`] events sealed in one
//!   `Arc`; ingestion reads the chunk in place and flushes each run it
//!   read with one write per touched window buffer ([`store::WindowBuf`]),
//! * every window owns its buffer and lock: a window's
//!   [`store::WindowInfo`] carries the buffer, so instances working on
//!   different windows take different locks and nobody looks a window up,
//! * instances fetch and process events in runs of up to `batch_size`
//!   under one buffer read-lock plus one version-lock acquisition, and
//!   flush their buffered dependency-tree operations with one queue
//!   operation per step.
//!
//! `batch_size: 1` reproduces the original event-at-a-time data path; the
//! output is bit-identical for every batch size (enforced by
//! `tests/tests/smoke.rs` and `tests/tests/threaded.rs`).
//!
//! ## The lazy dependency tree
//!
//! Creating a consumption group nominally doubles the creator's dependent
//! subtree. Instead the completion branch is a single *lazy vertex* — a
//! thunk over the sibling abandon edge — and group creation is O(1) in
//! tree size. The branch's version state is cloned only when the top-k
//! selection first schedules it or its group completes; branches dropped
//! by an abandonment, a rollback or a losing outer branch cost nothing
//! (counted by [`MetricsSnapshot::lazy_versions_dropped`]). Window attach
//! is deferred the same way: the tree owns the sequence of live windows,
//! a leaf lineage's unscheduled tail is one *pending-attach marker* (the
//! id of its first pending window), and a fresh version is created only
//! when the selection actually schedules the lineage — one version per
//! pop. A completion, a rollback or a poisoned-version replacement
//! likewise rebuilds one version and leaves the rest of the sequence
//! pending, so no tree operation costs in proportion to the windows
//! waiting behind the versions that hold processing state. The eager
//! tree of the paper's figures survives only as a test reference: the
//! small-tree harness in `tree/tests.rs` checks exhaustively that the lazy tree
//! stands for exactly the versions the eager one holds.
//!
//! ## The sparse Markov predictor
//!
//! The completion-probability prediction (paper Fig. 5) only reads entry
//! `[δ][0]` of the precomputed transition-matrix powers, so
//! [`markov::MarkovModel`] maintains just those *columns*
//! (`v_{i+1} = T^ℓ·v_i`), and because a partial match advances or stays
//! the transition matrix is nearly bidiagonal, so it lives in the sorted
//! sparse rows of [`matrix::SparseMatrix`]. A statistics refresh is one
//! smoothing pass over `nnz(T1)` plus a handful of sparse products for
//! `T^ℓ`, in buffers the model owns; completion levels are advanced on
//! demand, so the cost is O(nnz(T^ℓ) · levels read) instead of
//! O(max_levels · n²). Every sum adds its stored terms in ascending
//! column order — the order a dense kernel adds them — so predictions are
//! bit-identical to the dense formulation. Refreshes apply one
//! exponential-smoothing step per full ρ-window of pending observations
//! (remainder carried over) — the paper's per-ρ cadence even when
//! statistics arrive in bulk; at this cost the cadence needs no throttle,
//! and there is none. The splitter accounts the cost in
//! [`MetricsSnapshot::predictor_refreshes`] /
//! [`MetricsSnapshot::predictor_refresh_nanos`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use spectre_events::Schema;
//! use spectre_datasets::{NyseConfig, NyseGenerator};
//! use spectre_query::queries;
//! use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
//!
//! # fn main() -> Result<(), EngineError> {
//! let mut schema = Schema::new();
//! let query = Arc::new(queries::q1(&mut schema, 3, 100, Default::default()));
//! // The generator streams straight into the session — no Vec fixture.
//! let report = SpectreEngine::builder(&query)
//!     .config(SpectreConfig::with_instances(8))
//!     .simulated()
//!     .try_build()?
//!     .run(NyseGenerator::new(NyseConfig::small(1000, 42), &mut schema))?;
//! println!("{} complex events from {} input events",
//!          report.complex_events.len(), report.input_events);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod config;
pub mod engine;
pub mod instance;
pub mod markov;
pub mod matrix;
pub mod metrics;
pub mod predictor;
pub mod reorder;
pub mod shared;
pub mod splitter;
pub mod store;
pub mod tree;
pub mod version;

pub use config::{PredictorKind, SpectreConfig, TenantQuota};
pub use engine::{
    EngineError, PushResult, QueryReport, Report, SpectreEngine, SpectreEngineBuilder,
};
pub use metrics::{Fold, MetricsSnapshot, Scope, WorkerSnapshot};
pub use reorder::{ReorderConfig, WatermarkPolicy};
pub use shared::{QueryId, TenantId};
pub use splitter::{EventBatch, Splitter};
