//! Term vocabulary: interned keyword strings.
//!
//! Stands in for the paper's HetRec-2011 tag vocabulary (53,388 tags). Query
//! keywords and topic term bags both reference terms by [`TermId`].

use pit_graph::TermId;
use pit_store::Csr;
use rustc_hash::FxHashMap;

/// Bidirectional term interner. The strings are one [`Csr`] of UTF-8
/// bytes (owned, or viewed in place from a flat snapshot); the
/// string-to-id map is derived from them.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    /// Row `i` = the UTF-8 bytes of term `i`.
    text: Csr<u8>,
    lookup: FxHashMap<Box<str>, TermId>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble a vocabulary from stored term bytes, rejecting a term that
    /// is not UTF-8 or that repeats an earlier one.
    ///
    /// # Errors
    /// A message naming the offending term id.
    pub fn from_raw_parts(text: Csr<u8>) -> Result<Vocabulary, String> {
        let mut lookup = FxHashMap::default();
        lookup.reserve(text.rows());
        for (i, bytes) in text.iter().enumerate() {
            let term = std::str::from_utf8(bytes).map_err(|_| format!("term {i} is not UTF-8"))?;
            if lookup.insert(term.into(), TermId::from_index(i)).is_some() {
                return Err(format!("term {i} duplicates an earlier term"));
            }
        }
        Ok(Vocabulary { text, lookup })
    }

    /// The term bytes, one row per term id.
    pub fn raw_parts(&self) -> &Csr<u8> {
        &self.text
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.text.rows()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `term`, returning its id (existing id if already present).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id = TermId::from_index(self.len());
        self.text.push_row(term.as_bytes());
        self.lookup.insert(term.into(), id);
        id
    }

    /// Look up an existing term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.lookup.get(term).copied()
    }

    /// The string of a term id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this vocabulary.
    pub fn term(&self, id: TermId) -> &str {
        std::str::from_utf8(self.text.row(id.index())).expect("terms are validated UTF-8")
    }

    /// Bytes of the term text borrowed from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        self.text.mapped_bytes()
    }

    /// Generate a synthetic vocabulary of `n` tags: `tag-0 .. tag-{n-1}`.
    pub fn synthetic(n: usize) -> Self {
        let mut v = Vocabulary::new();
        for i in 0..n {
            v.intern(&format!("tag-{i}"));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("phone");
        let b = v.intern("phone");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn roundtrip_lookup() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let s = v.intern("samsung");
        assert_eq!(v.get("apple"), Some(a));
        assert_eq!(v.get("samsung"), Some(s));
        assert_eq!(v.get("htc"), None);
        assert_eq!(v.term(a), "apple");
        assert_eq!(v.term(s), "samsung");
    }

    #[test]
    fn synthetic_has_distinct_terms() {
        let v = Vocabulary::synthetic(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.term(TermId(0)), "tag-0");
        assert_eq!(v.term(TermId(99)), "tag-99");
        assert!(v.get("tag-50").is_some());
    }

    #[test]
    fn raw_parts_roundtrip_and_reject_bad_terms() {
        let v = Vocabulary::synthetic(5);
        let text = v.raw_parts().clone();
        let back = Vocabulary::from_raw_parts(text).unwrap();
        assert_eq!(back.get("tag-2"), Some(TermId(2)));
        assert_eq!(back.term(TermId(4)), "tag-4");

        let bad_utf8 = Csr::from_rows([&b"ok"[..], &[0xFF, 0xFE]]);
        assert!(Vocabulary::from_raw_parts(bad_utf8).is_err());
        let dup = Csr::from_rows([&b"phone"[..], b"phone"]);
        assert!(Vocabulary::from_raw_parts(dup).is_err());
    }
}
