//! `Sect<T>` — a typed array that is either owned or a borrowed window of a
//! read-only file mapping.
//!
//! Index structures (`CsrGraph`, `WalkIndex`, `PropagationIndex`, and,
//! through [`crate::Csr`], `TopicSpace`, `Vocabulary` and `TopicRepIndex`)
//! store their arrays as `Sect<T>` fields: built in memory they are
//! `Owned`, loaded from a flat snapshot they are `Mapped` — and because
//! `Sect` derefs to `&[T]`, every accessor, iterator, and algorithm in the
//! workspace keeps slicing exactly as before. Cloning a mapped section is
//! an `Arc` bump, which is what makes `PitEngine::with_delta`'s
//! copy-then-refresh cheap on a mapped engine.

use crate::mmap::Mapping;
use crate::pod::Pod;
use std::ops::Deref;
use std::sync::Arc;

/// A typed array backed by owned memory or by a snapshot mapping.
#[derive(Clone)]
pub enum Sect<T: Pod> {
    /// Built in memory (or deep-copied off disk by the owned loader).
    Owned(Vec<T>),
    /// A window of `len` elements at `offset` bytes into the mapping.
    /// Invariants (established by `FlatFile` validation, relied on by
    /// `Deref`): `offset + len * size_of::<T>() <= map.len()`, and
    /// `offset` is a multiple of the section alignment (16), which covers
    /// every `Pod` alignment.
    Mapped {
        map: Arc<Mapping>,
        offset: usize,
        len: usize,
    },
}

impl<T: Pod> Sect<T> {
    /// True when the elements are served by the snapshot mapping rather
    /// than owned memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Sect::Mapped { .. })
    }

    /// Bytes of this section that are borrowed from a mapping (0 when
    /// owned). Feeds the `pit_reload_bytes_mapped` gauge.
    pub fn mapped_bytes(&self) -> usize {
        match self {
            Sect::Owned(_) => 0,
            Sect::Mapped { len, .. } => len.saturating_mul(std::mem::size_of::<T>()),
        }
    }

    /// Logical size in bytes (`len * size_of::<T>()`) regardless of
    /// backing — the number `heap_size_bytes` inventories have always
    /// reported.
    pub fn size_bytes(&self) -> usize {
        self.len().saturating_mul(std::mem::size_of::<T>())
    }

    /// Deep-copy into owned memory (no-op clone of the data for `Owned`).
    pub fn to_owned_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// Mutable access to owned elements, copying a mapped window into
    /// owned memory first (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if self.is_mapped() {
            *self = Sect::Owned(self.to_owned_vec());
        }
        match self {
            Sect::Owned(v) => v,
            Sect::Mapped { .. } => unreachable!("mapped sections were copied above"),
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            Sect::Owned(v) => v.as_slice(),
            Sect::Mapped { map, offset, len } => {
                let bytes = map.bytes();
                debug_assert!(offset + len * std::mem::size_of::<T>() <= bytes.len());
                debug_assert_eq!(offset % std::mem::align_of::<T>(), 0);
                // SAFETY: FlatFile validated at open that the window
                // [offset, offset + len * size_of::<T>()) lies inside the
                // mapping and that `offset` is 16-byte aligned (>= align of
                // any Pod); `Pod` guarantees T is valid for every bit
                // pattern and padding-free; the mapping is read-only and
                // lives as long as the `Arc` held here.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().add(*offset).cast::<T>(), *len) }
            }
        }
    }
}

impl<T: Pod> Deref for Sect<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Pod> IntoIterator for &'a Sect<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Pod> From<Vec<T>> for Sect<T> {
    fn from(v: Vec<T>) -> Self {
        Sect::Owned(v)
    }
}

impl<T: Pod> Default for Sect<T> {
    fn default() -> Self {
        Sect::Owned(Vec::new())
    }
}

impl<T: Pod + PartialEq> PartialEq for Sect<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Sect<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_mapped() { "Mapped" } else { "Owned" };
        write!(f, "Sect::{tag}(")?;
        std::fmt::Debug::fmt(&self.as_slice(), f)?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_sect_derefs_like_a_slice() {
        let s: Sect<u32> = vec![1, 2, 3].into();
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_mapped());
        assert_eq!(s.mapped_bytes(), 0);
        assert_eq!(s.size_bytes(), 12);
        let mut s = s;
        s.to_mut().push(4);
        assert_eq!(&s[..], &[1, 2, 3, 4]);
    }
}
