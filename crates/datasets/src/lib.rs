//! Datasets for the SPECTRE evaluation (paper §4.1).
//!
//! The paper evaluates on two datasets:
//!
//! * **NYSE** — real intra-day quotes of ≈3000 NYSE symbols collected from
//!   Google Finance (24 M quotes, 1 quote per minute per symbol). That trace
//!   is not redistributable, so this crate provides a *synthetic equivalent*
//!   ([`nyse`]): per-symbol geometric random walks interleaved round-robin at
//!   one quote per minute, with 16 designated blue-chip "leading" symbols.
//!   The evaluation's independent variable — the ratio of pattern size to
//!   window size, which sets the consumption-group completion probability —
//!   is fully reproducible on this substitute: it depends on the pattern
//!   and window parameters and on the rising/falling mix of the walks, not
//!   on the real prices.
//!
//! * **RAND** — a random sequence of events over 300 equally likely symbols
//!   ([`rand_stream`]).
//!
//! [`csv`] persists streams to disk and loads real traces; [`disorder`]
//! shuffles a stream within a bounded lateness for the reorder stage. The
//! paper's TCP client, which sends a stream over the binary codec, is
//! `spectre_server::FeedClient`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod disorder;
pub mod nyse;
pub mod rand_stream;

pub use disorder::{bounded_shuffle, max_disorder};
pub use nyse::{NyseConfig, NyseGenerator};
pub use rand_stream::{RandConfig, RandGenerator};
