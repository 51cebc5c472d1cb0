//! Server-side error type: every failure the front-end can hit is a value
//! it can log and recover from, never a panic on the serving path.

use std::fmt;

use spectre_core::EngineError;
use spectre_events::codec::DecodeError;

/// Any failure of the server front-end: socket I/O, a malformed frame, an
/// engine misuse, a bad control command, or an invalid configuration
/// (e.g. a rate limit no event could ever pass).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// A socket or listener operation failed.
    Io(std::io::Error),
    /// The engine rejected an operation (see [`EngineError`]).
    Engine(EngineError),
    /// A client sent bytes that do not decode as frames.
    Decode(DecodeError),
    /// A control command was malformed or referenced something unknown.
    Control(String),
    /// The server configuration is invalid: one under which the server
    /// would refuse every connection or every event.
    Config(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::Decode(e) => write!(f, "frame decode error: {e}"),
            ServerError::Control(msg) => write!(f, "control error: {msg}"),
            ServerError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Engine(e) => Some(e),
            ServerError::Decode(e) => Some(e),
            ServerError::Control(_) | ServerError::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<DecodeError> for ServerError {
    fn from(e: DecodeError) -> Self {
        ServerError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display_are_non_panicking() {
        let io: ServerError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        let eng: ServerError = EngineError::SessionFinished.into();
        assert!(eng.to_string().contains("finished"));
        let dec: ServerError = DecodeError::Truncated.into();
        assert!(dec.to_string().contains("truncated"));
        // std::error::Error is wired through, with sources.
        let as_err: &dyn std::error::Error = &eng;
        assert!(as_err.source().is_some());
    }
}
