//! Reference engines for the SPECTRE reproduction.
//!
//! * [`sequential`] — windows processed strictly in order with a global
//!   consumed-event set. This is the semantics SPECTRE must reproduce
//!   exactly (paper §2.3: "deliver exactly those complex events that would
//!   be produced in sequential processing") and the source of the
//!   ground-truth consumption-group completion probabilities of
//!   Fig. 10(d)/(e).
//! * [`trex`] — a T-REX-style general-purpose engine: queries are compiled
//!   into explicit finite automata whose predicates run on a small stack
//!   bytecode VM (paper §4.2.3: "T-REX … automatically translates queries
//!   into state machines"). Single-threaded, no parallel consumption
//!   support.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sequential;
pub mod trex;

pub use sequential::{run_sequential, SequentialResult};
pub use trex::TrexEngine;
