//! Offline shim of the small `bytes` surface this workspace uses.
//!
//! [`Bytes`] is a cheaply cloneable, sliceable view into shared
//! immutable storage ([`std::sync::Arc`]`<[u8]>`); [`BytesMut`] is a growable
//! buffer that freezes into a [`Bytes`]. The [`Buf`]/[`BufMut`] traits
//! carry the little-endian cursor methods the storage codec calls.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer; reading through [`Buf`]
/// advances the view in place (cursor semantics).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer over `owner`'s bytes. The shim's storage is an
    /// `Arc<[u8]>`, so an `Arc<[u8]>` owner is taken as is, without a
    /// copy; any other owner is copied into one.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + 'static + Into<Arc<[u8]>>,
    {
        let data: Arc<[u8]> = owner.into();
        let end = data.len();
        Bytes { data, start: 0, end }
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes remaining in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off and return the first `n` bytes, advancing `self` past
    /// them. Panics if fewer than `n` bytes remain.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to past end of buffer");
        let head = Bytes { data: Arc::clone(&self.data), start: self.start, end: self.start + n };
        self.start += n;
        head
    }

    /// A sub-view of the given range, sharing storage (no copy).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: v.into(), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Growable byte buffer with little-endian append methods; freezes into
/// a [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { buf: v.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

macro_rules! get_le {
    ($($fn:ident -> $t:ty),* $(,)?) => {$(
        /// Read a little-endian value, advancing the cursor.
        /// Panics if fewer than `size_of` bytes remain.
        fn $fn(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Cursor-style reads over a byte source (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copy `dst.len()` bytes out, advancing. Panics if too few remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Advance the cursor by `n` bytes. Panics if fewer remain.
    fn advance(&mut self, n: usize);

    /// Read one byte, advancing.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    get_le! {
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i16_le -> i16,
        get_i32_le -> i32,
        get_i64_le -> i64,
    }

    /// Read a little-endian f64, advancing.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "copy_to_slice past end of buffer");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past end of buffer");
        self.start += n;
    }
}

macro_rules! put_le {
    ($($fn:ident($t:ty)),* $(,)?) => {$(
        /// Append a value in little-endian byte order.
        #[inline]
        fn $fn(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-style writes to a byte sink (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i16_le(i16),
        put_i32_le(i32),
        put_i64_le(i64),
    }

    /// Append a little-endian f64.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes fill the slice from the front and advance it past what they
/// wrote. Panics if the slice is too short.
impl BufMut for &mut [u8] {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        assert!(src.len() <= self.len(), "put_slice past end of buffer");
        let (head, rest) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut b = BytesMut::with_capacity(64);
        b.put_u8(7);
        b.put_u16_le(513);
        b.put_u32_le(70_000);
        b.put_u64_le(1 << 40);
        b.put_i32_le(-9);
        b.put_i64_le(-1 << 33);
        b.put_slice(b"abc");
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_i32_le(), -9);
        assert_eq!(r.get_i64_le(), -1 << 33);
        let mut s = [0u8; 3];
        r.copy_to_slice(&mut s);
        assert_eq!(&s, b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slices_share_storage_and_compare_by_content() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(s, Bytes::from(vec![2, 3, 4]));
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn slice_writes_advance_and_owned_arcs_are_not_copied() {
        let mut data: Arc<[u8]> = Arc::from(vec![0u8; 7]);
        let mut out: &mut [u8] = Arc::get_mut(&mut data).unwrap();
        out.put_u8(1);
        out.put_u16_le(0x0302);
        out.put_slice(b"abcd");
        assert!(out.is_empty());
        let ptr = data.as_ptr();
        let b = Bytes::from_owner(data);
        assert_eq!(b.as_ref(), &[1, 2, 3, b'a', b'b', b'c', b'd']);
        assert_eq!(b.as_ptr(), ptr, "the Arc's bytes are shared, not copied");
    }

    #[test]
    #[should_panic(expected = "put_slice past end")]
    fn writing_past_a_slice_end_panics() {
        let mut buf = [0u8; 2];
        let mut out: &mut [u8] = &mut buf;
        out.put_u32_le(1);
    }

    #[test]
    #[should_panic(expected = "copy_to_slice past end")]
    fn reading_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        let mut dst = [0u8; 2];
        b.copy_to_slice(&mut dst);
    }
}
