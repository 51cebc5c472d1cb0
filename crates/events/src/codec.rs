//! Length-prefixed binary framing for events.
//!
//! The paper's deployment feeds SPECTRE from a client program over TCP
//! (paper §4.1). This module reproduces the serialization path — a compact
//! binary frame per event with a `u32` length prefix — without requiring a
//! socket: any `bytes` buffer, file or in-memory pipe can carry frames.
//!
//! Frame layout (little endian):
//!
//! ```text
//! u32 frame_len   (bytes after this field)
//! u64 seq
//! u64 ts
//! u16 event_type
//! u16 attr_count
//! per attribute:
//!   u16 key
//!   u8  tag        (0=F64, 1=I64, 2=Bool, 3=Symbol, 4=Str)
//!   payload        (8 bytes for F64/I64, 1 for Bool, 4 for Symbol,
//!                   u32 len + bytes for Str)
//! ```
//!
//! Writing and reading an event frame each take one pass. [`encode`] stages
//! the fields in a stack buffer and appends them to the output with one
//! write (a string payload is appended from the string itself, and a frame
//! larger than the stage takes one write per full stage), then patches the
//! length in; every event takes this one path. The [`Decoder`] decodes a
//! frame in place from its buffered bytes, filling one builder's
//! attributes through `&mut`, and then consumes the bytes.
//!
//! A second frame kind carries **watermark punctuations** for out-of-order
//! streams: the length field holds the sentinel [`WATERMARK_MAGIC`]
//! (`u32::MAX`, unreachable as a real length since frames are capped at
//! [`MAX_FRAME_LEN`]), followed by the `u64` stream timestamp — a fixed
//! 12-byte frame. Both kinds are [`StreamItem`]s.
//!
//! The server front-end (`spectre-server`) adds four more length-sentinel
//! frames, split by direction. Client → server: [`HELLO_MAGIC`] declares
//! the connection's tenant (`u32 magic | u64 tenant`) and [`BYE_MAGIC`]
//! (bare `u32 magic`) marks a clean end of the client's stream, letting the
//! server distinguish a finished client from one that died mid-slice.
//! Server → client: [`CREDIT_MAGIC`] grants the client `n` more event
//! frames (`u32 magic | u64 n` — the back-pressure window) and
//! [`THROTTLE_MAGIC`] advises a pause (`u32 magic | u64 nanoseconds`, the
//! rate limiter's signal). [`Decoder::next_client_frame`] /
//! [`Decoder::next_server_frame`] decode each direction; a frame of the
//! wrong direction is [`DecodeError::UnexpectedFrame`], never silently
//! skipped.

use std::fmt;

use bytes::{Buf, BufMut, BytesMut};

use crate::schema::{AttrKey, EventType, SymbolId};
use crate::value::Value;
use crate::Event;

/// Maximum accepted frame length; guards against corrupt length prefixes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Length-field sentinel marking a watermark frame (`u32 magic | u64 ts`).
/// Safely distinguishable from a real length: event frames are capped at
/// [`MAX_FRAME_LEN`], far below it.
pub const WATERMARK_MAGIC: u32 = u32::MAX;

/// Length-field sentinel of a server → client **credit** frame
/// (`u32 magic | u64 n`): the server grants the client permission to send
/// `n` more event frames. See the module docs for the direction split.
pub const CREDIT_MAGIC: u32 = u32::MAX - 1;

/// Length-field sentinel of a server → client **throttle** frame
/// (`u32 magic | u64 nanos`): the rate limiter advises the client to pause
/// for the given number of nanoseconds before sending more.
pub const THROTTLE_MAGIC: u32 = u32::MAX - 2;

/// Length-field sentinel of a client → server **hello** frame
/// (`u32 magic | u64 tenant`): declares the tenant the connection's events
/// belong to. Optional; connections without one land on the default tenant.
pub const HELLO_MAGIC: u32 = u32::MAX - 3;

/// Length-field sentinel of a client → server **bye** frame (bare `u32`
/// magic, no payload): a clean end-of-stream marker. A connection that
/// closes without one disconnected abnormally.
pub const BYE_MAGIC: u32 = u32::MAX - 4;

/// Smallest length-field value reserved as a frame-kind sentinel; length
/// prefixes at or above it are never event-frame lengths.
const SENTINEL_FLOOR: u32 = BYE_MAGIC;

/// One decoded unit of a framed stream: an event, or a watermark
/// punctuation asserting that no later event will carry a timestamp below
/// the given stream timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// A regular event frame.
    Event(Event),
    /// A watermark punctuation with its stream timestamp.
    Watermark(u64),
}

/// One frame of the client → server direction: stream payload (events and
/// watermarks), a tenant declaration, or a clean end-of-stream marker.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// An event or watermark frame — the stream payload.
    Item(StreamItem),
    /// A [`HELLO_MAGIC`] tenant declaration.
    Hello(u64),
    /// A [`BYE_MAGIC`] clean end-of-stream marker.
    Bye,
}

/// One frame of the server → client direction: flow-control feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFrame {
    /// A [`CREDIT_MAGIC`] grant of `n` more event frames.
    Credit(u64),
    /// A [`THROTTLE_MAGIC`] advisory pause, in nanoseconds.
    Throttle(u64),
}

/// Error produced when decoding a malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame declared a length larger than [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The buffer ended in the middle of a declared frame.
    Truncated,
    /// An unknown value tag was encountered.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A sentinel frame that does not belong in the direction being
    /// decoded (e.g. a server → client credit frame showing up on the
    /// ingestion path). The payload is the offending length-field value.
    UnexpectedFrame(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::FrameTooLarge(n) => write!(f, "frame length {n} exceeds maximum"),
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadUtf8 => write!(f, "string payload was not valid utf-8"),
            DecodeError::UnexpectedFrame(m) => {
                write!(f, "sentinel frame {m:#x} not valid in this direction")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes [`encode`] stages on the stack before appending them to `out`:
/// enough for the 24-byte header and four attributes of at most 11 bytes
/// each, so a frame of up to four attributes without a string takes one
/// write.
const STAGE: usize = 80;

/// Appends one encoded event frame to `out`.
pub fn encode(event: &Event, out: &mut BytesMut) {
    let start = out.len();
    let mut frame = Staged {
        out,
        buf: [0; STAGE],
        len: 0,
    };
    frame.put(0u32.to_le_bytes()); // the length, patched below
    frame.put(event.seq().to_le_bytes());
    frame.put(event.ts().to_le_bytes());
    frame.put((event.event_type().as_u32() as u16).to_le_bytes());
    frame.put((event.attr_count() as u16).to_le_bytes());
    for (key, value) in event.attrs() {
        frame.put((key.as_u32() as u16).to_le_bytes());
        match value {
            Value::F64(v) => frame.put_tagged(0, v.to_le_bytes()),
            Value::I64(v) => frame.put_tagged(1, v.to_le_bytes()),
            Value::Bool(v) => frame.put_tagged(2, [u8::from(*v)]),
            Value::Symbol(v) => frame.put_tagged(3, v.as_u32().to_le_bytes()),
            Value::Str(v) => {
                frame.put_tagged(4, (v.len() as u32).to_le_bytes());
                frame.flush();
                frame.out.put_slice(v.as_bytes());
            }
        }
    }
    frame.flush();
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// The frame [`encode`] is writing: fields are staged in `buf` and
/// appended to `out` in one write when the stage is full, before a string
/// payload (which is appended from the string itself) and at the end.
struct Staged<'a> {
    out: &'a mut BytesMut,
    buf: [u8; STAGE],
    len: usize,
}

impl Staged<'_> {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        if self.len + N > STAGE {
            self.flush();
        }
        self.buf[self.len..self.len + N].copy_from_slice(&bytes);
        self.len += N;
    }

    /// A value's tag byte, then its payload.
    fn put_tagged<const N: usize>(&mut self, tag: u8, payload: [u8; N]) {
        self.put([tag]);
        self.put(payload);
    }

    fn flush(&mut self) {
        self.out.put_slice(&self.buf[..self.len]);
        self.len = 0;
    }
}

/// Appends one encoded watermark frame (see [`WATERMARK_MAGIC`]) to `out`.
pub fn encode_watermark(stream_ts: u64, out: &mut BytesMut) {
    out.put_u32_le(WATERMARK_MAGIC);
    out.put_u64_le(stream_ts);
}

/// Appends one encoded credit frame (see [`CREDIT_MAGIC`]) to `out`.
pub fn encode_credit(events: u64, out: &mut BytesMut) {
    out.put_u32_le(CREDIT_MAGIC);
    out.put_u64_le(events);
}

/// Appends one encoded throttle frame (see [`THROTTLE_MAGIC`]) to `out`.
pub fn encode_throttle(pause_nanos: u64, out: &mut BytesMut) {
    out.put_u32_le(THROTTLE_MAGIC);
    out.put_u64_le(pause_nanos);
}

/// Appends one encoded hello frame (see [`HELLO_MAGIC`]) to `out`.
pub fn encode_hello(tenant: u64, out: &mut BytesMut) {
    out.put_u32_le(HELLO_MAGIC);
    out.put_u64_le(tenant);
}

/// Appends one encoded bye frame (see [`BYE_MAGIC`]) to `out`.
pub fn encode_bye(out: &mut BytesMut) {
    out.put_u32_le(BYE_MAGIC);
}

/// Incremental frame decoder.
///
/// Feed bytes with [`Decoder::extend`] and pull complete frames with
/// [`Decoder::next_client_frame`] or [`Decoder::next_server_frame`];
/// partial frames are buffered until completed, so the decoder works over
/// arbitrarily fragmented input.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: BytesMut,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not yet consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to decode the next complete client → server frame — a
    /// stream item, a hello tenant declaration, or a bye end-of-stream
    /// marker. Server → client feedback frames (credit, throttle) are
    /// [`DecodeError::UnexpectedFrame`]. This is the view a server's
    /// per-connection read loop decodes.
    ///
    /// Returns `Ok(None)` if the buffer holds no complete frame yet.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the buffered bytes are malformed; the
    /// decoder should be discarded afterwards.
    pub fn next_client_frame(&mut self) -> Result<Option<ClientFrame>, DecodeError> {
        match self.next_raw()? {
            None => Ok(None),
            Some(RawFrame::Event(ev)) => Ok(Some(ClientFrame::Item(StreamItem::Event(ev)))),
            Some(RawFrame::Watermark(ts)) => Ok(Some(ClientFrame::Item(StreamItem::Watermark(ts)))),
            Some(RawFrame::Hello(tenant)) => Ok(Some(ClientFrame::Hello(tenant))),
            Some(RawFrame::Bye) => Ok(Some(ClientFrame::Bye)),
            Some(RawFrame::Credit(_)) => Err(DecodeError::UnexpectedFrame(CREDIT_MAGIC)),
            Some(RawFrame::Throttle(_)) => Err(DecodeError::UnexpectedFrame(THROTTLE_MAGIC)),
        }
    }

    /// Attempts to decode the next complete server → client feedback frame
    /// — a credit grant or a throttle advisory. Anything else (including
    /// event frames) is [`DecodeError::UnexpectedFrame`]. This is the view
    /// a client decodes on its receive side.
    ///
    /// Returns `Ok(None)` if the buffer holds no complete frame yet.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the buffered bytes are malformed; the
    /// decoder should be discarded afterwards.
    pub fn next_server_frame(&mut self) -> Result<Option<ServerFrame>, DecodeError> {
        match self.next_raw()? {
            None => Ok(None),
            Some(RawFrame::Credit(n)) => Ok(Some(ServerFrame::Credit(n))),
            Some(RawFrame::Throttle(nanos)) => Ok(Some(ServerFrame::Throttle(nanos))),
            Some(RawFrame::Event(_)) => Err(DecodeError::UnexpectedFrame(0)),
            Some(RawFrame::Watermark(_)) => Err(DecodeError::UnexpectedFrame(WATERMARK_MAGIC)),
            Some(RawFrame::Hello(_)) => Err(DecodeError::UnexpectedFrame(HELLO_MAGIC)),
            Some(RawFrame::Bye) => Err(DecodeError::UnexpectedFrame(BYE_MAGIC)),
        }
    }

    /// Decodes the next complete frame of any kind; the direction-specific
    /// views above map the raw kinds to their surface.
    fn next_raw(&mut self) -> Result<Option<RawFrame>, DecodeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes"));
        if len >= SENTINEL_FLOOR {
            if len == BYE_MAGIC {
                self.buf.advance(4);
                return Ok(Some(RawFrame::Bye));
            }
            // The other sentinels all carry one u64 payload.
            if self.buf.len() < 4 + 8 {
                return Ok(None);
            }
            self.buf.advance(4);
            let v = self.buf.get_u64_le();
            return Ok(Some(match len {
                WATERMARK_MAGIC => RawFrame::Watermark(v),
                CREDIT_MAGIC => RawFrame::Credit(v),
                THROTTLE_MAGIC => RawFrame::Throttle(v),
                _ => RawFrame::Hello(v),
            }));
        }
        let len = len as usize;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        // Decode in place from the buffered bytes, then consume them.
        let event = decode_frame(&self.buf[4..4 + len]);
        self.buf.advance(4 + len);
        event.map(|ev| Some(RawFrame::Event(ev)))
    }
}

/// Internal decoded frame of any kind; the public decoder methods map this
/// to the direction-specific surfaces.
enum RawFrame {
    Event(Event),
    Watermark(u64),
    Credit(u64),
    Throttle(u64),
    Hello(u64),
    Bye,
}

/// Decodes one event frame's bytes (after the length field). The only heap
/// memory the event owns is its string payloads and, past four attributes,
/// its attribute list.
fn decode_frame(mut buf: &[u8]) -> Result<Event, DecodeError> {
    let seq = u64::from_le_bytes(take(&mut buf)?);
    let ts = u64::from_le_bytes(take(&mut buf)?);
    let etype = EventType::new(u16::from_le_bytes(take(&mut buf)?));
    let attr_count = u16::from_le_bytes(take(&mut buf)?);
    let mut builder = Event::builder(etype).seq(seq).ts(ts);
    for _ in 0..attr_count {
        let key = AttrKey::new(u16::from_le_bytes(take(&mut buf)?));
        let [tag] = take(&mut buf)?;
        let value = match tag {
            0 => Value::F64(f64::from_le_bytes(take(&mut buf)?)),
            1 => Value::I64(i64::from_le_bytes(take(&mut buf)?)),
            2 => Value::Bool(take::<1>(&mut buf)?[0] != 0),
            3 => Value::Symbol(SymbolId::new(u32::from_le_bytes(take(&mut buf)?))),
            4 => {
                let len = u32::from_le_bytes(take(&mut buf)?) as usize;
                let (raw, rest) = buf.split_at_checked(len).ok_or(DecodeError::Truncated)?;
                buf = rest;
                let s = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
                Value::from(s)
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        builder.insert(key, value);
    }
    Ok(builder.build())
}

/// Pops the leading `N` bytes of `buf`, or reports the frame truncated.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> Event {
        Event::builder(EventType::new(3))
            .seq(seq)
            .ts(seq * 10)
            .attr(AttrKey::new(0), Value::F64(1.25 * seq as f64))
            .attr(AttrKey::new(1), Value::Symbol(SymbolId::new(7)))
            .attr(AttrKey::new(2), Value::from("hello"))
            .attr(AttrKey::new(3), Value::Bool(true))
            .attr(AttrKey::new(4), Value::I64(-9))
            .build()
    }

    /// The encoded frames of `items`.
    fn encode_stream(items: &[StreamItem]) -> BytesMut {
        let mut buf = BytesMut::new();
        for item in items {
            match item {
                StreamItem::Event(ev) => encode(ev, &mut buf),
                StreamItem::Watermark(ts) => encode_watermark(*ts, &mut buf),
            }
        }
        buf
    }

    /// Decodes `bytes` fed in `piece`-byte chunks back into stream items,
    /// asserting that nothing is left buffered.
    fn decode_stream(bytes: &[u8], piece: usize) -> Vec<StreamItem> {
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for chunk in bytes.chunks(piece) {
            dec.extend(chunk);
            while let Some(frame) = dec.next_client_frame().unwrap() {
                match frame {
                    ClientFrame::Item(item) => out.push(item),
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }
        assert_eq!(dec.buffered(), 0);
        out
    }

    #[test]
    fn round_trip_single() {
        let items = vec![StreamItem::Event(sample(1))];
        let bytes = encode_stream(&items);
        assert_eq!(decode_stream(&bytes, bytes.len()), items);
    }

    #[test]
    fn round_trip_many() {
        let items: Vec<_> = (0..100).map(|seq| StreamItem::Event(sample(seq))).collect();
        let bytes = encode_stream(&items);
        assert_eq!(decode_stream(&bytes, bytes.len()), items);
    }

    #[test]
    fn fragmented_input() {
        let items: Vec<_> = (0..10).map(|seq| StreamItem::Event(sample(seq))).collect();
        assert_eq!(decode_stream(&encode_stream(&items), 3), items);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        // u32::MAX is the watermark sentinel, so the smallest invalid
        // length is one past the cap.
        let bad = MAX_FRAME_LEN as u32 + 1;
        let mut dec = Decoder::new();
        dec.extend(&bad.to_le_bytes());
        assert_eq!(
            dec.next_client_frame(),
            Err(DecodeError::FrameTooLarge(bad as usize))
        );
    }

    #[test]
    fn watermark_frames_round_trip() {
        let items = vec![
            StreamItem::Event(sample(1)),
            StreamItem::Watermark(10),
            StreamItem::Event(sample(2)),
            StreamItem::Watermark(u64::MAX),
        ];
        let bytes = encode_stream(&items);
        assert_eq!(decode_stream(&bytes, bytes.len()), items);
    }

    #[test]
    fn fragmented_watermark_frames_decode() {
        let items = vec![
            StreamItem::Watermark(7),
            StreamItem::Event(sample(3)),
            StreamItem::Watermark(99),
        ];
        assert_eq!(decode_stream(&encode_stream(&items), 1), items);
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut dec = decoder_with(|b| {
            encode(&sample(1), b);
            // Corrupt the first attribute's tag byte: 4 len + 8 seq + 8 ts
            // + 2 ty + 2 count + 2 key = offset 26.
            b[26] = 99;
        });
        assert_eq!(dec.next_client_frame(), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn empty_event_round_trips() {
        let ev = Event::builder(EventType::new(0)).seq(5).ts(6).build();
        let items = vec![StreamItem::Event(ev)];
        let bytes = encode_stream(&items);
        assert_eq!(decode_stream(&bytes, bytes.len()), items);
    }

    /// One event carrying every value kind, its keys added out of order,
    /// and its frame byte for byte: the wire format is pinned.
    #[test]
    fn the_wire_format_is_pinned() {
        let event = Event::builder(EventType::new(3))
            .seq(0x0102_0304_0506_0708)
            .ts(0x1112_1314_1516_1718)
            .attr(AttrKey::new(9), Value::from("hé"))
            .attr(AttrKey::new(2), Value::Bool(true))
            .attr(AttrKey::new(0), Value::F64(1.5))
            .attr(AttrKey::new(3), Value::Symbol(SymbolId::new(7)))
            .attr(AttrKey::new(1), Value::I64(-2))
            .build();
        #[rustfmt::skip]
        let frame: [u8; 67] = [
            63, 0, 0, 0,                                  // frame_len
            8, 7, 6, 5, 4, 3, 2, 1,                       // seq
            0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // ts
            3, 0,                                         // event_type
            5, 0,                                         // attr_count
            0, 0, 0, 0, 0, 0, 0, 0, 0, 248, 63,           // key 0: F64 1.5
            1, 0, 1, 254, 255, 255, 255, 255, 255, 255, 255, // key 1: I64 -2
            2, 0, 2, 1,                                   // key 2: Bool true
            3, 0, 3, 7, 0, 0, 0,                          // key 3: Symbol 7
            9, 0, 4, 3, 0, 0, 0, 104, 195, 169,           // key 9: Str "hé"
        ];
        let mut out = BytesMut::from(b"xy".to_vec());
        encode(&event, &mut out);
        assert_eq!(&out[..2], b"xy", "encode appends");
        assert_eq!(&out[2..], &frame[..]);
        let mut dec = Decoder::new();
        dec.extend(&frame);
        let decoded = dec.next_client_frame().unwrap();
        assert_eq!(decoded, Some(ClientFrame::Item(StreamItem::Event(event))));
    }

    /// The bytes of an event frame whose attributes are written in the
    /// given order, duplicates included, as a client other than [`encode`]
    /// may write them.
    fn raw_frame(seq: u64, etype: u16, attrs: &[(u16, Value)]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend(seq.to_le_bytes());
        body.extend((seq * 3).to_le_bytes());
        body.extend(etype.to_le_bytes());
        body.extend((attrs.len() as u16).to_le_bytes());
        for (key, value) in attrs {
            body.extend(key.to_le_bytes());
            match value {
                Value::F64(v) => body.extend([0].into_iter().chain(v.to_le_bytes())),
                Value::I64(v) => body.extend([1].into_iter().chain(v.to_le_bytes())),
                Value::Bool(v) => body.extend([2, u8::from(*v)]),
                Value::Symbol(v) => body.extend([3].into_iter().chain(v.as_u32().to_le_bytes())),
                Value::Str(v) => {
                    body.push(4);
                    body.extend((v.len() as u32).to_le_bytes());
                    body.extend(v.as_bytes());
                }
            }
        }
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend(body);
        frame
    }

    /// The decoder fills attributes in place; whatever order and repeats a
    /// frame carries its keys in, the event equals the one `EventBuilder`
    /// builds from the same inserts (the last value of a key wins), inline
    /// or spilled past four, with string payloads.
    #[test]
    fn decoded_frames_equal_the_builders_event() {
        let mut rng = Rng(0x0dec_0de5_eed5_f00d);
        let (mut unsorted, mut repeated, mut spilled, mut strings) = (0, 0, 0, 0);
        for case in 0..600u64 {
            let attrs: Vec<(u16, Value)> = (0..rng.below(11))
                .map(|_| {
                    let key = rng.below(9) as u16;
                    let value = match rng.below(5) {
                        0 => Value::F64(rng.below(4000) as f64 * 0.25 - 500.0),
                        1 => Value::I64(rng.below(4000) as i64 - 2000),
                        2 => Value::Bool(rng.below(2) == 1),
                        3 => Value::Symbol(SymbolId::new(rng.below(64) as u32)),
                        _ => Value::from("é".repeat(rng.below(12)).as_str()),
                    };
                    (key, value)
                })
                .collect();
            let mut builder = Event::builder(EventType::new(case as u16 % 7))
                .seq(case)
                .ts(case * 3);
            for (key, value) in &attrs {
                builder = builder.attr(AttrKey::new(*key), value.clone());
            }
            let want = builder.build();
            let mut dec = Decoder::new();
            dec.extend(&raw_frame(case, case as u16 % 7, &attrs));
            let got = dec.next_client_frame();
            assert_eq!(
                got,
                Ok(Some(ClientFrame::Item(StreamItem::Event(want.clone())))),
                "case {case}"
            );
            assert_eq!(dec.buffered(), 0);
            let keys: Vec<u16> = attrs.iter().map(|(k, _)| *k).collect();
            unsorted += usize::from(keys.windows(2).any(|w| w[0] > w[1]));
            repeated += usize::from(want.attr_count() < keys.len());
            spilled += usize::from(want.attr_count() > 4);
            strings += usize::from(attrs.iter().any(|(_, v)| matches!(v, Value::Str(_))));
        }
        for (what, n) in [
            ("unsorted", unsorted),
            ("repeated", repeated),
            ("spilled", spilled),
            ("string", strings),
        ] {
            assert!(n > 100, "only {n} {what} cases");
        }
    }

    #[test]
    fn client_frames_round_trip() {
        let mut dec = decoder_with(|b| {
            encode_hello(7, b);
            encode(&sample(1), b);
            encode_watermark(10, b);
            encode_bye(b);
        });
        assert_eq!(
            dec.next_client_frame().unwrap(),
            Some(ClientFrame::Hello(7))
        );
        assert_eq!(
            dec.next_client_frame().unwrap(),
            Some(ClientFrame::Item(StreamItem::Event(sample(1))))
        );
        assert_eq!(
            dec.next_client_frame().unwrap(),
            Some(ClientFrame::Item(StreamItem::Watermark(10)))
        );
        assert_eq!(dec.next_client_frame().unwrap(), Some(ClientFrame::Bye));
        assert_eq!(dec.next_client_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn server_frames_round_trip_even_fragmented() {
        let mut buf = BytesMut::new();
        encode_credit(4096, &mut buf);
        encode_throttle(1_500_000, &mut buf);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for chunk in buf.chunks(1) {
            dec.extend(chunk);
            while let Some(f) = dec.next_server_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(
            out,
            vec![ServerFrame::Credit(4096), ServerFrame::Throttle(1_500_000)]
        );
    }

    /// A decoder holding the frames `write` encodes.
    fn decoder_with(write: impl FnOnce(&mut BytesMut)) -> Decoder {
        let mut buf = BytesMut::new();
        write(&mut buf);
        let mut dec = Decoder::new();
        dec.extend(&buf);
        dec
    }

    #[test]
    fn feedback_frames_are_rejected_on_the_stream_view() {
        let credit = decoder_with(|b| encode_credit(1, b)).next_client_frame();
        assert_eq!(credit, Err(DecodeError::UnexpectedFrame(CREDIT_MAGIC)));
        let throttle = decoder_with(|b| encode_throttle(2, b)).next_client_frame();
        assert_eq!(throttle, Err(DecodeError::UnexpectedFrame(THROTTLE_MAGIC)));
    }

    #[test]
    fn wrong_direction_frames_are_rejected() {
        // Every client → server frame is unexpected on the server → client
        // path; an event frame reports length field 0.
        let cases = [
            (decoder_with(|b| encode(&sample(1), b)), 0),
            (decoder_with(|b| encode_watermark(3, b)), WATERMARK_MAGIC),
            (decoder_with(|b| encode_hello(2, b)), HELLO_MAGIC),
            (decoder_with(encode_bye), BYE_MAGIC),
        ];
        for (mut dec, magic) in cases {
            let got = dec.next_server_frame();
            assert_eq!(got, Err(DecodeError::UnexpectedFrame(magic)));
        }
    }

    #[test]
    fn partial_sentinel_frames_wait_for_more_bytes() {
        let mut buf = BytesMut::new();
        encode_credit(99, &mut buf);
        let mut dec = Decoder::new();
        dec.extend(&buf[..7]); // magic + 3 of the 8 payload bytes
        assert_eq!(dec.next_server_frame().unwrap(), None);
        dec.extend(&buf[7..]);
        assert_eq!(
            dec.next_server_frame().unwrap(),
            Some(ServerFrame::Credit(99))
        );
    }

    /// Streams 10 MB through a decoder in 16 KiB pieces, draining as it
    /// goes: the consumed prefix must be reclaimed, not accumulated.
    #[test]
    fn streaming_decode_memory_stays_bounded() {
        const PIECE: usize = 16 * 1024;
        let mut block = BytesMut::new();
        for seq in 0..1000 {
            encode(&sample(seq), &mut block);
        }
        let mut dec = Decoder::new();
        let (mut fed, mut decoded, mut at) = (0usize, 0usize, 0usize);
        let mut peak = 0;
        while fed < 10_000_000 {
            let piece: Vec<u8> = (0..PIECE).map(|i| block[(at + i) % block.len()]).collect();
            at = (at + PIECE) % block.len();
            dec.extend(&piece);
            fed += PIECE;
            peak = peak.max(dec.buf.capacity());
            while dec.next_client_frame().unwrap().is_some() {
                decoded += 1;
            }
        }
        assert!(decoded > 100_000);
        assert!(
            peak <= 2 * (PIECE + MAX_FRAME_LEN),
            "decoder capacity reached {peak} bytes"
        );
    }

    /// xorshift64: a seeded, dependency-free source for the byte fuzz.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// A valid client → server stream with frame-start offsets.
    fn client_stream(rng: &mut Rng) -> (Vec<u8>, Vec<usize>) {
        let mut buf = BytesMut::new();
        let mut starts = Vec::new();
        starts.push(buf.len());
        encode_hello(rng.below(4) as u64, &mut buf);
        for seq in 0..rng.below(60) as u64 {
            starts.push(buf.len());
            match rng.below(8) {
                0 => encode_watermark(seq * 10, &mut buf),
                1 => {
                    let text = "x".repeat(rng.below(300));
                    let ev = Event::builder(EventType::new(1))
                        .seq(seq)
                        .attr(AttrKey::new(0), Value::from(text.as_str()))
                        .build();
                    encode(&ev, &mut buf);
                }
                _ => encode(&sample(seq), &mut buf),
            }
        }
        starts.push(buf.len());
        encode_bye(&mut buf);
        (buf.to_vec(), starts)
    }

    /// One of the mutations the fuzz applies, or none (`kind == 0`).
    fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, starts: &[usize], kind: usize) {
        match kind {
            1 => {
                for _ in 0..1 + rng.below(4) {
                    let i = rng.below(bytes.len());
                    bytes[i] ^= 1 << rng.below(8);
                }
            }
            2 => bytes.truncate(rng.below(bytes.len())),
            3 => {
                let magic = [
                    WATERMARK_MAGIC,
                    CREDIT_MAGIC,
                    THROTTLE_MAGIC,
                    HELLO_MAGIC,
                    BYE_MAGIC,
                    SENTINEL_FLOOR - 1,
                ][rng.below(6)];
                let at = if rng.below(2) == 0 {
                    starts[rng.below(starts.len())]
                } else {
                    rng.below(bytes.len() + 1)
                };
                bytes.splice(at..at, magic.to_le_bytes());
            }
            _ => {
                let len = match rng.below(4) {
                    0 => MAX_FRAME_LEN,
                    1 => MAX_FRAME_LEN + 1,
                    2 => MAX_FRAME_LEN + 1 + rng.below(1000),
                    _ => rng.below(MAX_FRAME_LEN + 1),
                } as u32;
                let at = starts[rng.below(starts.len())];
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
                // Sometimes supply the whole declared frame.
                if rng.below(3) == 0 {
                    bytes.resize(bytes.len() + (len as usize).min(MAX_FRAME_LEN), 0);
                }
            }
        }
    }

    /// The frames decoded from `bytes` fed in pieces from `piece`, each
    /// re-encoded (so NaN payloads compare bitwise), and the error that
    /// ended the stream, if any. Checks after every drain that the decoder
    /// holds no complete frame and at most one partial one.
    fn decode_in_pieces(
        bytes: &[u8],
        mut piece: impl FnMut() -> usize,
    ) -> (Vec<Vec<u8>>, Option<DecodeError>) {
        let mut dec = Decoder::new();
        let mut frames = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let end = (at + piece()).min(bytes.len());
            dec.extend(&bytes[at..end]);
            at = end;
            loop {
                match dec.next_client_frame() {
                    Ok(Some(frame)) => frames.push(reencode(&frame)),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e)),
                }
            }
            let held = &dec.buf[..];
            if held.len() >= 4 {
                let len = u32::from_le_bytes(held[..4].try_into().unwrap());
                let frame_len = match len {
                    BYE_MAGIC => 4,
                    HELLO_MAGIC.. => 12,
                    _ => 4 + len as usize,
                };
                assert!(len as usize <= MAX_FRAME_LEN || len >= SENTINEL_FLOOR);
                assert!(held.len() < frame_len, "a complete frame was left buffered");
            }
        }
        (frames, None)
    }

    fn reencode(frame: &ClientFrame) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match frame {
            ClientFrame::Item(StreamItem::Event(ev)) => encode(ev, &mut buf),
            ClientFrame::Item(StreamItem::Watermark(ts)) => encode_watermark(*ts, &mut buf),
            ClientFrame::Hello(tenant) => encode_hello(*tenant, &mut buf),
            ClientFrame::Bye => encode_bye(&mut buf),
        }
        buf.to_vec()
    }

    /// Deterministic byte fuzz of the client-direction decoder: mutated
    /// streams fed in random pieces never panic, and fragmentation never
    /// changes what is decoded or where decoding fails.
    #[test]
    fn fuzzed_client_streams_decode_like_the_whole_buffer() {
        let mut rng = Rng(0x5eed_2023_c0de_cafe);
        let mut errors = 0;
        for case in 0..400 {
            let (mut bytes, starts) = client_stream(&mut rng);
            let kind = case % 5;
            if kind != 0 {
                mutate(&mut rng, &mut bytes, &starts, kind);
            }
            let whole = decode_in_pieces(&bytes, || usize::MAX);
            let max_piece = [1, 7, 64, 1500, 16 * 1024][rng.below(5)];
            let mut piece_rng = Rng(rng.0 | 1);
            let pieces = decode_in_pieces(&bytes, || 1 + piece_rng.below(max_piece));
            assert_eq!(
                pieces, whole,
                "case {case}: fragmentation changed the decode"
            );
            if kind == 0 {
                assert_eq!(whole.1, None);
                assert_eq!(whole.0.concat(), bytes, "case {case}");
            }
            errors += usize::from(whole.1.is_some());
        }
        assert!(errors > 50, "only {errors} mutated cases failed to decode");
    }
}
