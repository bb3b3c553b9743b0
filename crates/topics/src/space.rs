//! The topic space: which users mention which topics, in both directions.

use pit_graph::{NodeId, TermId, TopicId};
use pit_store::Csr;

/// Immutable topic space with the two inverted indexes of the paper:
/// `topic → topic-node set V_t` and `node → topic set T(v)`, plus the
/// `topic → term bag` mapping that connects topics to keyword queries.
///
/// All four maps are [`Csr`] rows, owned when built in memory and viewed in
/// place when loaded from a flat snapshot. Every row is strictly ascending.
#[derive(Clone, Debug)]
pub struct TopicSpace {
    /// Row `t` = `V_t`.
    topic_nodes: Csr<NodeId>,
    /// Row `v` = `T(v)`; the transpose of `topic_nodes`.
    node_topics: Csr<TopicId>,
    /// Row `t` = the term bag of topic `t`.
    topic_terms: Csr<TermId>,
    /// Row `term` = the topics whose bag holds it; the transpose of
    /// `topic_terms`, aligned to the vocabulary.
    term_topics: Csr<TopicId>,
}

impl TopicSpace {
    /// Assemble a space from stored rows, checking in one linear pass
    /// everything the accessors rely on: the forward rows
    /// (`topic_nodes`, `topic_terms`, one per topic) are strictly ascending
    /// and in range, and each inverse (`node_topics` over `node_count`
    /// rows, `term_topics` over `term_count` rows) is exactly the
    /// transpose of its forward map.
    ///
    /// # Errors
    /// A message naming the first violated rule.
    pub fn from_raw_parts(
        topic_nodes: Csr<NodeId>,
        node_topics: Csr<TopicId>,
        topic_terms: Csr<TermId>,
        term_topics: Csr<TopicId>,
    ) -> Result<TopicSpace, String> {
        if topic_nodes.rows() != topic_terms.rows() {
            return Err(format!(
                "{} member lists for {} term bags",
                topic_nodes.rows(),
                topic_terms.rows()
            ));
        }
        check_transpose(
            &topic_nodes,
            &node_topics,
            NodeId::index,
            TopicId::from_index,
        )
        .map_err(|e| format!("topic members: {e}"))?;
        check_transpose(
            &topic_terms,
            &term_topics,
            TermId::index,
            TopicId::from_index,
        )
        .map_err(|e| format!("topic terms: {e}"))?;
        Ok(TopicSpace {
            topic_nodes,
            node_topics,
            topic_terms,
            term_topics,
        })
    }

    /// The four row maps, in [`TopicSpace::from_raw_parts`] argument order.
    pub fn raw_parts(&self) -> (&Csr<NodeId>, &Csr<TopicId>, &Csr<TermId>, &Csr<TopicId>) {
        (
            &self.topic_nodes,
            &self.node_topics,
            &self.topic_terms,
            &self.term_topics,
        )
    }

    /// Number of topics `|T|`.
    #[inline]
    pub fn topic_count(&self) -> usize {
        self.topic_nodes.rows()
    }

    /// Number of nodes the space was built for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_topics.rows()
    }

    /// Number of terms in the vocabulary this space references.
    #[inline]
    pub fn term_count(&self) -> usize {
        self.term_topics.rows()
    }

    /// The topic node set `V_t` (paper: "inverted node index"). Sorted.
    #[inline]
    pub fn topic_nodes(&self, t: TopicId) -> &[NodeId] {
        self.topic_nodes.row(t.index())
    }

    /// The topic set `T(v)` of a node. Sorted.
    #[inline]
    pub fn node_topics(&self, v: NodeId) -> &[TopicId] {
        self.node_topics.row(v.index())
    }

    /// The term bag of a topic. Sorted.
    #[inline]
    pub fn topic_terms(&self, t: TopicId) -> &[TermId] {
        self.topic_terms.row(t.index())
    }

    /// All topics whose term bag contains `term` (the q-related topics for a
    /// single-keyword query). Sorted.
    #[inline]
    pub fn topics_for_term(&self, term: TermId) -> &[TopicId] {
        self.term_topics.row(term.index())
    }

    /// Whether node `v` mentions topic `t`.
    pub fn node_has_topic(&self, v: NodeId, t: TopicId) -> bool {
        self.node_topics(v).binary_search(&t).is_ok()
    }

    /// Iterator over all topic ids.
    pub fn topics(&self) -> impl Iterator<Item = TopicId> + '_ {
        (0..self.topic_count() as u32).map(TopicId)
    }

    /// Mean `|V_t|` over all topics.
    pub fn avg_topic_node_count(&self) -> f64 {
        if self.topic_count() == 0 {
            return 0.0;
        }
        self.topic_nodes.data().len() as f64 / self.topic_count() as f64
    }

    /// Copy this space back into a builder, e.g. to apply new topic
    /// assignments and rebuild (spaces are immutable).
    pub fn to_builder(&self) -> TopicSpaceBuilder {
        TopicSpaceBuilder {
            node_count: self.node_count(),
            term_count: self.term_count(),
            topic_nodes: self.topic_nodes.iter().map(<[NodeId]>::to_vec).collect(),
            topic_terms: self.topic_terms.iter().map(<[TermId]>::to_vec).collect(),
        }
    }

    /// Bytes of the space borrowed from a snapshot mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        self.topic_nodes.mapped_bytes()
            + self.node_topics.mapped_bytes()
            + self.topic_terms.mapped_bytes()
            + self.term_topics.mapped_bytes()
    }

    /// Size of the four row maps in bytes, regardless of backing.
    pub fn heap_size_bytes(&self) -> usize {
        self.topic_nodes.size_bytes()
            + self.node_topics.size_bytes()
            + self.topic_terms.size_bytes()
            + self.term_topics.size_bytes()
    }
}

/// Check that every `fwd` row is strictly ascending with ids below
/// `inv.rows()`, and that `inv` is exactly the transpose of `fwd`: id `x`
/// sits in `fwd` row `r` iff `r` sits in `inv` row `x`. Walking `fwd` in
/// row order with one cursor per `inv` row makes this linear, and it also
/// proves every `inv` row strictly ascending.
fn check_transpose<A: pit_store::Pod + Ord, B: pit_store::Pod + PartialEq>(
    fwd: &Csr<A>,
    inv: &Csr<B>,
    index: impl Fn(A) -> usize,
    id: impl Fn(usize) -> B,
) -> Result<(), String> {
    let n = inv.rows();
    let (ends, data) = (&inv.offsets()[1..], inv.data());
    let mut cursor: Vec<usize> = inv.offsets()[..n].iter().map(|&o| o as usize).collect();
    for r in 0..fwd.rows() {
        let row = fwd.row(r);
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("row {r} is not strictly ascending"));
        }
        for &x in row {
            let x = index(x);
            if x >= n {
                return Err(format!("row {r} holds id {x}, out of range {n}"));
            }
            let c = cursor[x];
            if c as u64 >= ends[x] || data[c] != id(r) {
                return Err(format!("inverse row {x} disagrees with row {r}"));
            }
            cursor[x] = c + 1;
        }
    }
    if let Some(x) = (0..n).find(|&x| cursor[x] as u64 != ends[x]) {
        return Err(format!("inverse row {x} holds ids its forward rows lack"));
    }
    Ok(())
}

/// Incremental [`TopicSpace`] construction.
///
/// ```
/// use pit_topics::TopicSpaceBuilder;
/// use pit_graph::{NodeId, TermId, TopicId};
///
/// let mut b = TopicSpaceBuilder::new(4, 8);
/// let apple = b.add_topic(vec![TermId(0), TermId(1)]); // {phone, apple}
/// b.assign(NodeId(1), apple);
/// b.assign(NodeId(2), apple);
/// let space = b.build();
/// assert_eq!(space.topic_nodes(apple), &[NodeId(1), NodeId(2)]);
/// assert_eq!(space.topics_for_term(TermId(0)), &[apple]);
/// ```
#[derive(Clone, Debug)]
pub struct TopicSpaceBuilder {
    node_count: usize,
    term_count: usize,
    topic_nodes: Vec<Vec<NodeId>>,
    topic_terms: Vec<Vec<TermId>>,
}

impl TopicSpaceBuilder {
    /// Start a builder for `node_count` users and a vocabulary of
    /// `term_count` terms.
    pub fn new(node_count: usize, term_count: usize) -> Self {
        TopicSpaceBuilder {
            node_count,
            term_count,
            topic_nodes: Vec::new(),
            topic_terms: Vec::new(),
        }
    }

    /// Register a new topic with its term bag; returns its id.
    ///
    /// # Panics
    /// Panics if any term id is out of the vocabulary range.
    pub fn add_topic(&mut self, mut terms: Vec<TermId>) -> TopicId {
        for t in &terms {
            assert!(
                t.index() < self.term_count,
                "term {t} out of vocabulary range {}",
                self.term_count
            );
        }
        terms.sort_unstable();
        terms.dedup();
        let id = TopicId::from_index(self.topic_terms.len());
        self.topic_terms.push(terms);
        self.topic_nodes.push(Vec::new());
        id
    }

    /// Record that node `v` mentions topic `t` (idempotent after `build`).
    ///
    /// # Panics
    /// Panics if `v` or `t` is out of range.
    pub fn assign(&mut self, v: NodeId, t: TopicId) {
        assert!(v.index() < self.node_count, "node {v} out of range");
        assert!(t.index() < self.topic_nodes.len(), "topic {t} out of range");
        self.topic_nodes[t.index()].push(v);
    }

    /// Number of topics registered so far.
    pub fn topic_count(&self) -> usize {
        self.topic_terms.len()
    }

    /// Finalize: sorts/deduplicates all postings and derives the reverse
    /// indexes.
    pub fn build(mut self) -> TopicSpace {
        for nodes in &mut self.topic_nodes {
            nodes.sort_unstable();
            nodes.dedup();
        }
        let mut node_topics = vec![Vec::new(); self.node_count];
        for (t, nodes) in self.topic_nodes.iter().enumerate() {
            for v in nodes {
                node_topics[v.index()].push(TopicId::from_index(t));
            }
        }
        // node_topics built in ascending t order, already sorted.
        let mut term_topics = vec![Vec::new(); self.term_count];
        for (t, terms) in self.topic_terms.iter().enumerate() {
            for term in terms {
                term_topics[term.index()].push(TopicId::from_index(t));
            }
        }
        TopicSpace {
            topic_nodes: Csr::from_rows(&self.topic_nodes),
            node_topics: Csr::from_rows(&node_topics),
            topic_terms: Csr::from_rows(&self.topic_terms),
            term_topics: Csr::from_rows(&term_topics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopicSpace {
        let mut b = TopicSpaceBuilder::new(5, 4);
        let t0 = b.add_topic(vec![TermId(0), TermId(1)]);
        let t1 = b.add_topic(vec![TermId(0), TermId(2)]);
        let t2 = b.add_topic(vec![TermId(3)]);
        b.assign(NodeId(0), t0);
        b.assign(NodeId(1), t0);
        b.assign(NodeId(1), t1);
        b.assign(NodeId(4), t2);
        b.assign(NodeId(4), t2); // duplicate assignment collapses
        b.build()
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.topic_count(), 3);
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.term_count(), 4);
    }

    #[test]
    fn forward_and_reverse_indexes_agree() {
        let s = sample();
        assert_eq!(s.topic_nodes(TopicId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(s.topic_nodes(TopicId(2)), &[NodeId(4)]);
        assert_eq!(s.node_topics(NodeId(1)), &[TopicId(0), TopicId(1)]);
        assert_eq!(s.node_topics(NodeId(3)), &[] as &[TopicId]);
        assert!(s.node_has_topic(NodeId(1), TopicId(1)));
        assert!(!s.node_has_topic(NodeId(0), TopicId(1)));
    }

    #[test]
    fn term_index() {
        let s = sample();
        assert_eq!(s.topics_for_term(TermId(0)), &[TopicId(0), TopicId(1)]);
        assert_eq!(s.topics_for_term(TermId(1)), &[TopicId(0)]);
        assert_eq!(s.topics_for_term(TermId(3)), &[TopicId(2)]);
    }

    #[test]
    fn topic_terms_sorted_dedup() {
        let mut b = TopicSpaceBuilder::new(1, 5);
        let t = b.add_topic(vec![TermId(3), TermId(1), TermId(3)]);
        let s = b.build();
        assert_eq!(s.topic_terms(t), &[TermId(1), TermId(3)]);
    }

    #[test]
    fn avg_topic_node_count() {
        let s = sample();
        // |V_t| = 2, 1, 1.
        assert!((s.avg_topic_node_count() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn assign_out_of_range_node_panics() {
        let mut b = TopicSpaceBuilder::new(2, 1);
        let t = b.add_topic(vec![TermId(0)]);
        b.assign(NodeId(9), t);
    }

    #[test]
    #[should_panic]
    fn add_topic_with_bad_term_panics() {
        let mut b = TopicSpaceBuilder::new(2, 1);
        b.add_topic(vec![TermId(5)]);
    }

    #[test]
    fn heap_size_positive() {
        assert!(sample().heap_size_bytes() > 0);
    }
}
