//! Event model for the SPECTRE complex event processing engine.
//!
//! This crate provides the substrate every other SPECTRE crate builds on:
//!
//! * [`Value`] — dynamically typed attribute values (floats, integers,
//!   booleans, interned strings and symbols),
//! * [`Schema`] — interning registry mapping attribute and event-type names to
//!   dense numeric ids ([`AttrKey`], [`EventType`], [`SymbolId`]),
//! * [`Event`] — a timestamped, totally ordered attribute–value record,
//! * [`codec`] — a length-prefixed binary framing for events (the paper feeds
//!   SPECTRE over TCP; we keep the serialization path without the socket).
//!
//! # Example
//!
//! ```
//! use spectre_events::{Schema, Event, Value};
//!
//! let mut schema = Schema::new();
//! let quote = schema.event_type("Quote");
//! let close = schema.attr("closePrice");
//! let ev = Event::builder(quote)
//!     .seq(1)
//!     .ts(60_000)
//!     .attr(close, Value::F64(101.25))
//!     .build();
//! assert_eq!(ev.f64(close), Some(101.25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod schema;
mod value;

pub mod codec;

pub use codec::StreamItem;
pub use event::{Event, EventBuilder};
pub use schema::{AttrKey, EventType, Schema, SymbolId};
pub use value::Value;

/// The position of an event in the totally ordered input stream of an
/// operator.
///
/// Sequence numbers are assigned by the ingestion layer (the server's
/// sequencer merges its clients' streams) and are unique and dense per
/// operator. All window
/// boundaries, consumption groups and suppression sets in SPECTRE identify
/// events by their sequence number.
pub type Seq = u64;

/// Milliseconds since the start of the stream (or epoch); the unit is opaque
/// to the engine, only the ordering matters.
pub type Timestamp = u64;
