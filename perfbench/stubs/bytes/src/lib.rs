//! Offline stand-in for the `bytes` crate.
//!
//! The container that builds this benchmark has no crates.io access, so
//! the four external crates the engine depends on are replaced by small
//! API-compatible crates under `perfbench/stubs/` (wired through
//! `[patch.crates-io]` in `perfbench/Cargo.toml`). This one provides the
//! slice of `bytes` the engine uses: a cheaply cloneable, sliceable
//! [`Bytes`] and a growable [`BytesMut`] whose storage survives a
//! `freeze` → `try_into_mut` round trip (the buffer pool depends on that).
//!
//! Safe code only: a `Bytes` is an `Arc<Vec<u8>>` plus a range.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, reference-counted view of a byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes { repr: Repr::Static(&[]), off: 0, len: 0 }
    }

    /// A view of static data (no allocation).
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(data), off: 0, len: data.len() }
    }

    /// A freshly allocated copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing the same storage. Panics when out of range.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of range {}", self.len);
        Bytes { repr: self.repr.clone(), off: self.off + start, len: end - start }
    }

    /// Reclaim the storage for writing when this is the only handle to it.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { repr, off, len } = self;
        match repr {
            Repr::Static(s) => Err(Bytes { repr: Repr::Static(s), off, len }),
            Repr::Shared(arc) => match Arc::try_unwrap(arc) {
                Ok(mut vec) => {
                    vec.truncate(off + len);
                    if off > 0 {
                        vec.drain(..off);
                    }
                    Ok(BytesMut { vec })
                }
                Err(arc) => Err(Bytes { repr: Repr::Shared(arc), off, len }),
            },
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => &s[self.off..self.off + self.len],
            Repr::Shared(v) => &v[self.off..self.off + self.len],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        let len = vec.len();
        Bytes { repr: Repr::Shared(Arc::new(vec)), off: 0, len }
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A uniquely owned, growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { vec: Vec::with_capacity(capacity) }
    }

    /// Bytes written.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when nothing is written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional)
    }

    /// Drop the contents, keep the storage.
    pub fn clear(&mut self) {
        self.vec.clear()
    }

    /// Resize to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value)
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data)
    }

    /// Make the buffer immutable and shareable; the storage is kept.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.vec.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_and_reclaim_keep_the_storage() {
        let mut b = BytesMut::with_capacity(64);
        b.extend_from_slice(&[7; 64]);
        let ptr = b.as_ptr();
        let again = b.freeze().try_into_mut().expect("sole handle");
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn shared_storage_is_not_reclaimed() {
        let frozen = Bytes::from(vec![1, 2, 3, 4]);
        let alias = frozen.slice(1..3);
        assert!(frozen.try_into_mut().is_err());
        assert_eq!(&alias[..], &[2, 3]);
        assert!(alias.try_into_mut().is_ok());
    }

    #[test]
    fn slices_view_the_same_bytes() {
        let b = Bytes::from_static(b"abcdef");
        assert_eq!(b.slice(2..4), Bytes::from_static(b"cd"));
        assert_eq!(&b.slice(..2)[..], b"ab");
        assert_eq!(&b.slice(4..).slice(1..)[..], b"f");
    }
}
