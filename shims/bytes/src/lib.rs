//! Offline stand-in for the `bytes` crate.
//!
//! Implements the [`BytesMut`]/[`Bytes`] pair plus the [`Buf`]/[`BufMut`]
//! accessor traits over a plain `Vec<u8>`, covering exactly the surface the
//! SPECTRE event codec and dataset replay paths use. Swap for the real crate
//! once the registry is reachable.
//!
//! Like the real crate, [`BytesMut`] reads through a cursor: the buffer is a
//! `Vec<u8>` plus the offset of its first live byte. `advance` and
//! `take_array` (and so every `get_*`) move the cursor and never touch the
//! bytes behind it, so a reader can decode a frame from the borrowed live
//! bytes and then `advance` past it. Appends reclaim the consumed prefix by
//! moving the live bytes to the front, but only once that prefix is at least
//! as long as the live bytes, so each byte is moved at most once per byte
//! consumed (amortized O(1)) and, right after an append, the buffer holds at
//! most twice the live bytes plus the appended ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable byte buffer with a read cursor, analogous to `bytes::BytesMut`.
///
/// Equality, cloning and formatting see only the unread bytes.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Offset of the first unread byte; `data[..start]` is consumed.
    start: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Number of unread bytes in the buffer.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether the buffer has no unread bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bytes the buffer can hold, counted from the cursor, without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity() - self.start
    }

    /// Appends `slice` to the end of the buffer.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.compact();
        self.data.extend_from_slice(slice);
    }

    /// Keeps the first `len` unread bytes and drops the rest (no-op when
    /// `len` is at least the buffer's length).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(self.start + len);
    }

    /// Removes all bytes from the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
        self.start = 0;
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.data.drain(..self.start);
        Bytes { data: self.data }
    }

    /// Moves the unread bytes to the front once the consumed prefix is at
    /// least as long as they are (see the module docs for why that bound).
    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(self.to_vec())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("data", &&**self).finish()
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data, start: 0 }
    }
}

/// An immutable byte buffer, analogous to `bytes::Bytes`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Read-side accessors over a byte buffer (little/big-endian integer pops).
pub trait Buf {
    /// Discards the first `n` bytes.
    fn advance(&mut self, n: usize);

    /// Pops the leading `N` bytes as an array.
    ///
    /// Implementations panic if fewer than `N` bytes remain; callers are
    /// expected to length-check first (the codec does).
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    /// Pops a `u8`.
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Pops a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_array())
    }

    /// Pops a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }
}

impl Buf for BytesMut {
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self[..N]);
        self.start += N;
        out
    }
}

/// Write-side accessors over a byte buffer (little/big-endian integer puts).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_integers() {
        let mut b = BytesMut::new();
        b.put_u32_le(7);
        b.put_u64_le(u64::MAX);
        b.put_i64_le(-5);
        b.put_f64_le(1.5);
        b.put_u16_le(300);
        b.put_u8(9);
        assert_eq!(b.get_u32_le(), 7);
        assert_eq!(b.get_u64_le(), u64::MAX);
        assert_eq!(b.get_i64_le(), -5);
        assert_eq!(b.get_f64_le(), 1.5);
        assert_eq!(b.get_u16_le(), 300);
        assert_eq!(b.get_u8(), 9);
        assert!(b.is_empty());
    }

    #[test]
    fn equality_clone_and_freeze_see_only_unread_bytes() {
        let mut a = BytesMut::from(b"xxabc".to_vec());
        a.advance(2);
        let b = BytesMut::from(b"abc".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_eq!(a.clone().start, 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(&a.freeze()[..], b"abc");
    }

    #[test]
    fn clear_resets_the_cursor() {
        let mut b = BytesMut::from(b"hello".to_vec());
        b.advance(3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.start, 0);
        b.extend_from_slice(b"ok");
        assert_eq!(&b[..], b"ok");
    }

    #[test]
    fn appends_compact_only_once_the_consumed_prefix_covers_the_live_bytes() {
        let mut b = BytesMut::from(vec![7u8; 10]);
        b.advance(4); // 4 consumed < 6 live: keep the prefix
        b.extend_from_slice(&[1]);
        assert_eq!(b.start, 4);
        b.advance(3); // 7 consumed ≥ 4 live: move them to the front
        b.put_u8(2);
        assert_eq!(b.start, 0);
        assert_eq!(&b[..], &[7, 7, 7, 1, 2]);
    }

    /// Seeded op sequence checked against a `VecDeque<u8>` model: every
    /// read must see the model's bytes, across many compactions.
    #[test]
    fn cursor_matches_a_deque_model() {
        use std::collections::VecDeque;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut b = BytesMut::new();
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut next = 0u8;
        let mut compactions = 0;
        for _ in 0..20_000 {
            let before = b.start;
            match rand(6) {
                0 | 1 => {
                    let chunk: Vec<u8> = (0..rand(40))
                        .map(|_| {
                            next = next.wrapping_add(1);
                            next
                        })
                        .collect();
                    if rand(2) == 0 {
                        b.extend_from_slice(&chunk);
                    } else {
                        b.put_slice(&chunk);
                    }
                    model.extend(&chunk);
                    // The consumed prefix never outgrows the live bytes.
                    assert!(b.data.len() <= 2 * b.len());
                }
                2 => {
                    let n = rand(model.len() + 1);
                    b.advance(n);
                    model.drain(..n);
                }
                3 => {
                    // Read a prefix in place, then consume it.
                    let n = rand(model.len() + 1);
                    let want: Vec<u8> = model.drain(..n).collect();
                    assert_eq!(&b[..n], &want[..]);
                    b.advance(n);
                }
                4 if model.len() >= 8 => {
                    let want: Vec<u8> = model.drain(..8).collect();
                    assert_eq!(b.get_u64_le(), u64::from_le_bytes(want.try_into().unwrap()));
                }
                _ if model.len() >= 4 => {
                    let want: Vec<u8> = model.drain(..4).collect();
                    assert_eq!(b.get_u32_le(), u32::from_le_bytes(want.try_into().unwrap()));
                }
                _ => {}
            }
            if before > 0 && b.start == 0 {
                compactions += 1;
            }
            assert_eq!(b.len(), model.len());
            assert!(b.iter().eq(model.iter()));
        }
        assert!(
            compactions > 100,
            "only {compactions} compactions exercised"
        );
    }
}
