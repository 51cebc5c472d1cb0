//! A credit-aware framed client for the ingestion socket.
//!
//! [`FeedClient`] is both the building block for the integration tests and
//! the engine of the `spectre-feed` load binary. It speaks the wire
//! protocol in full: `HELLO` on connect, event/watermark frames out,
//! `CREDIT`/`THROTTLE` frames in, `BYE` plus a half-close on finish.
//!
//! Flow control is the client's half of the credit invariant: an event is
//! only written once a credit covers it. When the budget runs out the
//! client blocks on the socket until the server replenishes — which the
//! server only does as the engine (or the rate limiter) consumes earlier
//! events, so a client can never run ahead of the engine by more than one
//! window.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use spectre_events::codec::{
    encode, encode_bye, encode_hello, encode_watermark, DecodeError, Decoder, ServerFrame,
    MAX_FRAME_LEN,
};
use spectre_events::Event;

use crate::error::ServerError;

/// How long a client waits for credit before giving up on the server.
const CREDIT_DEADLINE: Duration = Duration::from_secs(30);

/// Flush the write buffer once it grows past this.
const FLUSH_THRESHOLD: usize = 32 * 1024;

/// A blocking, credit-aware connection to a spectre-server ingestion
/// socket.
#[derive(Debug)]
pub struct FeedClient {
    stream: TcpStream,
    decoder: Decoder,
    wbuf: BytesMut,
    credit: u64,
    /// Total advisory throttle time the server has requested so far.
    throttled_nanos: u64,
    /// Honor throttle frames by sleeping (the load generator does; tests
    /// that only assert counters turn this off to stay fast).
    honor_throttle: bool,
}

impl FeedClient {
    /// Connects and sends the `HELLO` tenant declaration.
    pub fn connect(addr: impl ToSocketAddrs, tenant: u32) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let mut client = FeedClient {
            stream,
            decoder: Decoder::new(),
            wbuf: BytesMut::new(),
            credit: 0,
            throttled_nanos: 0,
            honor_throttle: true,
        };
        encode_hello(u64::from(tenant), &mut client.wbuf);
        client.flush()?;
        Ok(client)
    }

    /// Disables sleeping on `THROTTLE` frames (they are still counted).
    pub fn ignore_throttle(&mut self) {
        self.honor_throttle = false;
    }

    /// Total advisory pause the server has requested, in nanoseconds.
    pub fn throttled_nanos(&self) -> u64 {
        self.throttled_nanos
    }

    /// Sends one event, blocking for credit if the budget is spent.
    ///
    /// An event whose frame is longer than [`MAX_FRAME_LEN`], which the
    /// server would refuse by ending the connection, is refused here
    /// instead with [`DecodeError::FrameTooLarge`]: nothing of it is
    /// written, no credit is spent, and the connection stays usable.
    pub fn send_event(&mut self, event: &Event) -> Result<(), ServerError> {
        while self.credit == 0 {
            self.wait_feedback()?;
        }
        let start = self.wbuf.len();
        encode(event, &mut self.wbuf);
        let frame_len = self.wbuf.len() - start - 4;
        if frame_len > MAX_FRAME_LEN {
            self.wbuf.truncate(start);
            return Err(ServerError::Decode(DecodeError::FrameTooLarge(frame_len)));
        }
        self.credit -= 1;
        if self.wbuf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends a watermark. Watermarks are punctuation and spend no credit.
    pub fn send_watermark(&mut self, stream_ts: u64) -> Result<(), ServerError> {
        encode_watermark(stream_ts, &mut self.wbuf);
        if self.wbuf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes buffered frames to the socket.
    pub fn flush(&mut self) -> Result<(), ServerError> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Blocks until the server sends at least one feedback frame (credit
    /// or throttle), or the deadline passes.
    fn wait_feedback(&mut self) -> Result<(), ServerError> {
        // Credit may be waiting behind an unflushed burst.
        self.flush()?;
        let deadline = Instant::now() + CREDIT_DEADLINE;
        let mut chunk = [0u8; 4096];
        loop {
            if self.drain_feedback()? {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(ServerError::Control(
                    "timed out waiting for credit from the server".into(),
                ));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ServerError::Control(
                        "server closed the connection while the client waited for credit".into(),
                    ));
                }
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Applies every decoded server frame; returns whether any arrived.
    fn drain_feedback(&mut self) -> Result<bool, ServerError> {
        let mut any = false;
        while let Some(frame) = self.decoder.next_server_frame()? {
            any = true;
            match frame {
                ServerFrame::Credit(n) => self.credit += n,
                ServerFrame::Throttle(nanos) => {
                    self.throttled_nanos += nanos;
                    if self.honor_throttle {
                        // Cap the advisory pause so a hostile server can't
                        // park the client forever.
                        std::thread::sleep(Duration::from_nanos(nanos.min(1_000_000_000)));
                    }
                }
            }
        }
        Ok(any)
    }

    /// Cleanly finishes: `BYE`, flush, half-close, then read to EOF so the
    /// server observes the close after consuming everything.
    pub fn finish(mut self) -> Result<(), ServerError> {
        encode_bye(&mut self.wbuf);
        self.flush()?;
        self.stream.shutdown(Shutdown::Write)?;
        self.stream
            .set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(_) => {} // discard trailing credit frames
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(()); // server is busy draining; close anyway
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drops the connection on the floor — an abnormal close, as seen by
    /// the server (no `BYE`).
    pub fn abort(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::codec::encode_credit;
    use spectre_events::{AttrKey, EventType, Value};
    use std::net::TcpListener;
    use std::sync::Arc;

    #[test]
    fn an_oversized_event_is_refused_before_anything_is_written() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = FeedClient::connect(listener.local_addr().unwrap(), 0).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let mut grant = BytesMut::new();
        encode_credit(2, &mut grant);
        server.write_all(&grant).unwrap();
        let event = |payload: &str| {
            Event::builder(EventType::new(0))
                .attr(AttrKey::new(0), Value::Str(Arc::new(payload.to_string())))
                .build()
        };
        let huge = event(&"x".repeat(2 << 20));
        match client.send_event(&huge) {
            Err(ServerError::Decode(DecodeError::FrameTooLarge(len))) => {
                assert!(len > MAX_FRAME_LEN, "{len}")
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(client.credit, 2, "the refused event spent no credit");
        assert!(client.wbuf.is_empty(), "nothing of it was buffered");
        client.send_event(&event("small")).unwrap();
        assert_eq!(client.credit, 1);
    }
}
