//! `Csr<T>` — compressed sparse rows over two [`Sect`]s, the shape every
//! variable-length per-id list in a flat snapshot takes (topic members,
//! term bags, representative sets, vocabulary strings).
//!
//! Row `i` is `data[offsets[i]..offsets[i + 1]]`. [`Csr::from_parts`]
//! checks that geometry once — offsets start at 0, never decrease, and end
//! at `data.len()` — so [`Csr::row`] can slice without re-checking and a
//! corrupt snapshot is rejected at load instead of panicking at query time.

use crate::pod::Pod;
use crate::sect::Sect;
use std::ops::Range;

/// Variable-length rows stored as one offsets array plus one data array,
/// either owned or viewed in place from a snapshot mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T: Pod> {
    offsets: Sect<u64>,
    data: Sect<T>,
}

impl<T: Pod> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: Sect::Owned(vec![0]),
            data: Sect::default(),
        }
    }
}

impl<T: Pod> Csr<T> {
    /// Pack `rows` into an owned CSR.
    pub fn from_rows<R: AsRef<[T]>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut csr = Csr::default();
        for row in rows {
            csr.push_row(row.as_ref());
        }
        csr
    }

    /// Append one row, copying mapped arrays into owned memory first.
    pub fn push_row(&mut self, row: &[T]) {
        let data = self.data.to_mut();
        data.extend_from_slice(row);
        let end = data.len() as u64;
        self.offsets.to_mut().push(end);
    }

    /// Wrap stored arrays after checking the row geometry: at least one
    /// offset, the first 0, non-decreasing, the last equal to `data.len()`.
    /// O(rows).
    ///
    /// # Errors
    /// A message naming the first violated rule.
    pub fn from_parts(offsets: Sect<u64>, data: Sect<T>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets do not start at 0".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets are not monotone".into());
        }
        if offsets.last().copied() != Some(data.len() as u64) {
            return Err(format!(
                "offsets end at {:?}, not at the data length {}",
                offsets.last(),
                data.len()
            ));
        }
        Ok(Csr { offsets, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Element range of row `i` within [`Csr::data`].
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[self.range(i)]
    }

    /// Iterator over every row in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.rows()).map(move |i| self.row(i))
    }

    /// All rows' elements, concatenated.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// The `rows() + 1` row boundaries.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Bytes borrowed from a snapshot mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.data.mapped_bytes()
    }

    /// Logical size of both arrays in bytes, regardless of backing.
    pub fn size_bytes(&self) -> usize {
        self.offsets.size_bytes() + self.data.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_through_parts() {
        let csr = Csr::<u32>::from_rows([vec![1, 2], vec![], vec![7]]);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.iter().collect::<Vec<_>>(), vec![&[1, 2][..], &[], &[7]]);
        let back = Csr::from_parts(csr.offsets().to_vec().into(), csr.data().to_vec().into());
        assert_eq!(back, Ok(csr));
        assert_eq!(Csr::<u32>::default().rows(), 0);
    }

    #[test]
    fn from_parts_rejects_bad_geometry() {
        let parts = |o: Vec<u64>, d: Vec<u32>| Csr::from_parts(o.into(), d.into());
        assert!(parts(vec![], vec![]).is_err(), "no offsets");
        assert!(parts(vec![1, 1], vec![5]).is_err(), "nonzero start");
        assert!(parts(vec![0, 2, 1], vec![5]).is_err(), "non-monotone");
        assert!(parts(vec![0, 1], vec![5, 6]).is_err(), "short of the data");
        assert!(parts(vec![0, 3], vec![5, 6]).is_err(), "past the data");
        assert!(parts(vec![0, 1, 2], vec![5, 6]).is_ok());
    }
}
