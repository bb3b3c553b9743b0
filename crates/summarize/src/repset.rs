//! Weighted representative node sets — the output of social summarization.

use pit_graph::{NodeId, TopicId};

/// The social summarization of one topic: representative nodes with the local
/// influence weight each carries (the `weight(u, t)` of Definition 1).
///
/// Nodes are kept sorted by id so the online search can intersect a
/// representative set with the propagation index `Γ(v)` by merge/probe.
/// Weights are non-negative and, for both paper algorithms, sum to at most 1
/// (each topic node contributes `1/|V_t|` of local influence, distributed —
/// possibly partially — over the representatives).
#[derive(Clone, Debug, PartialEq)]
pub struct RepresentativeSet {
    topic: TopicId,
    nodes: Vec<NodeId>,
    weights: Vec<f64>,
}

impl RepresentativeSet {
    /// Build from `(node, weight)` pairs; sorts by node and merges duplicate
    /// nodes by summing their weights.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite.
    pub fn new(topic: TopicId, mut pairs: Vec<(NodeId, f64)>) -> Self {
        for &(n, w) in &pairs {
            assert!(
                w.is_finite() && w >= 0.0,
                "representative {n} has invalid weight {w}"
            );
        }
        pairs.sort_unstable_by_key(|&(n, _)| n);
        let mut nodes: Vec<NodeId> = Vec::with_capacity(pairs.len());
        let mut weights: Vec<f64> = Vec::with_capacity(pairs.len());
        for (n, w) in pairs {
            if nodes.last() == Some(&n) {
                *weights.last_mut().expect("parallel arrays") += w;
            } else {
                nodes.push(n);
                weights.push(w);
            }
        }
        RepresentativeSet {
            topic,
            nodes,
            weights,
        }
    }

    /// The topic this set summarizes.
    #[inline]
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// Number of representative nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sorted representative node ids.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Weights parallel to [`RepresentativeSet::nodes`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// A borrowed view of this set.
    #[inline]
    pub fn view(&self) -> RepView<'_> {
        RepView {
            topic: self.topic,
            nodes: &self.nodes,
            weights: &self.weights,
        }
    }

    /// The weight of `node`, or `None` if it is not a representative.
    pub fn weight_of(&self, node: NodeId) -> Option<f64> {
        self.view().weight_of(node)
    }

    /// Whether `node` is a representative.
    pub fn contains(&self, node: NodeId) -> bool {
        self.view().contains(node)
    }

    /// Sum of all weights (≤ 1 for the paper's algorithms).
    pub fn total_weight(&self) -> f64 {
        self.view().total_weight()
    }

    /// Iterate `(node, weight)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.view().iter()
    }

    /// Keep only the `k` heaviest representatives; see
    /// [`RepView::truncate_to_top`].
    pub fn truncate_to_top(&self, k: usize) -> RepresentativeSet {
        self.view().truncate_to_top(k)
    }

    /// Estimated resident heap size in bytes.
    pub fn heap_size_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }
}

/// A representative set borrowed from wherever it is stored — a
/// [`RepresentativeSet`] or one row of a flat representative index. Nodes
/// are strictly ascending; weights are parallel to them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepView<'a> {
    topic: TopicId,
    nodes: &'a [NodeId],
    weights: &'a [f64],
}

impl<'a> RepView<'a> {
    /// View parallel `nodes` / `weights` slices as the set of `topic`. The
    /// caller guarantees the set invariants (ascending nodes, equal
    /// lengths, finite non-negative weights).
    #[inline]
    pub fn new(topic: TopicId, nodes: &'a [NodeId], weights: &'a [f64]) -> Self {
        debug_assert_eq!(nodes.len(), weights.len());
        RepView {
            topic,
            nodes,
            weights,
        }
    }

    /// The topic this set summarizes.
    #[inline]
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// Number of representative nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sorted representative node ids.
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Weights parallel to [`RepView::nodes`].
    #[inline]
    pub fn weights(&self) -> &'a [f64] {
        self.weights
    }

    /// The weight of `node`, or `None` if it is not a representative.
    pub fn weight_of(&self, node: NodeId) -> Option<f64> {
        self.nodes
            .binary_search(&node)
            .ok()
            .map(|i| self.weights[i])
    }

    /// Whether `node` is a representative.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Sum of all weights (≤ 1 for the paper's algorithms).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Iterate `(node, weight)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + 'a {
        self.nodes.iter().copied().zip(self.weights.iter().copied())
    }

    /// Keep only the `k` heaviest representatives (ties broken by node id),
    /// preserving node-sorted order. Used by the experiments that vary the
    /// materialized representative-set size (paper Figures 7 and 12).
    pub fn truncate_to_top(&self, k: usize) -> RepresentativeSet {
        let mut order: Vec<usize> = (0..self.len()).collect();
        if k < self.len() {
            order.sort_unstable_by(|&a, &b| {
                self.weights[b]
                    .total_cmp(&self.weights[a])
                    .then(self.nodes[a].cmp(&self.nodes[b]))
            });
            order.truncate(k);
        }
        let pairs = order
            .into_iter()
            .map(|i| (self.nodes[i], self.weights[i]))
            .collect();
        RepresentativeSet::new(self.topic, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_merges_duplicates() {
        let s = RepresentativeSet::new(
            TopicId(0),
            vec![(NodeId(5), 0.2), (NodeId(1), 0.3), (NodeId(5), 0.1)],
        );
        assert_eq!(s.nodes(), &[NodeId(1), NodeId(5)]);
        assert_eq!(s.weights(), &[0.3, 0.30000000000000004]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn weight_lookup() {
        let s = RepresentativeSet::new(TopicId(1), vec![(NodeId(2), 0.4), (NodeId(7), 0.6)]);
        assert_eq!(s.weight_of(NodeId(2)), Some(0.4));
        assert_eq!(s.weight_of(NodeId(3)), None);
        assert!(s.contains(NodeId(7)));
        assert!(!s.contains(NodeId(0)));
        assert!((s.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weight() {
        let _ = RepresentativeSet::new(TopicId(0), vec![(NodeId(0), -0.1)]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_weight() {
        let _ = RepresentativeSet::new(TopicId(0), vec![(NodeId(0), f64::NAN)]);
    }

    #[test]
    fn truncate_keeps_heaviest() {
        let s = RepresentativeSet::new(
            TopicId(0),
            vec![
                (NodeId(0), 0.1),
                (NodeId(1), 0.5),
                (NodeId(2), 0.05),
                (NodeId(3), 0.35),
            ],
        );
        let t = s.truncate_to_top(2);
        assert_eq!(t.nodes(), &[NodeId(1), NodeId(3)]);
        assert_eq!(t.weights(), &[0.5, 0.35]);
        // k >= len is identity.
        assert_eq!(s.truncate_to_top(10), s);
    }

    #[test]
    fn empty_set_behaves() {
        let s = RepresentativeSet::new(TopicId(0), vec![]);
        assert!(s.is_empty());
        assert_eq!(s.total_weight(), 0.0);
        assert!(s.truncate_to_top(3).is_empty());
    }
}
