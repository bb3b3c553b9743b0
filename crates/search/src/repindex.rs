//! The topic-to-representative-user index (offline stage output).

use pit_graph::{NodeId, TopicId};
use pit_store::{Csr, Sect};
use pit_summarize::{RepView, RepresentativeSet, SummarizeContext, Summarizer};

/// Materialized representative sets for every topic — the paper's
/// "topic-to-representative user index", built once offline (Algorithm 5
/// line 2 / Algorithm 9 lines 2–3) and probed by every query.
///
/// Stored as one [`Csr`] of node ids (row `t` = topic `t`'s
/// representatives, ascending) plus a parallel weight array, owned when
/// built and viewed in place when loaded from a flat snapshot.
#[derive(Clone, Debug)]
pub struct TopicRepIndex {
    nodes: Csr<NodeId>,
    /// `weights[i]` is the weight of `nodes.data()[i]`.
    weights: Sect<f64>,
}

impl TopicRepIndex {
    /// Build the index by summarizing every topic in the space, fanning the
    /// topics out over worker threads.
    pub fn build<S: Summarizer + Sync>(ctx: &SummarizeContext<'_>, summarizer: &S) -> Self {
        let topics: Vec<TopicId> = ctx.space.topics().collect();
        Self::build_for_topics(ctx, summarizer, &topics)
    }

    /// Build the index for a subset of topics only (other topics get empty
    /// sets). Useful when benchmarking a single query's topic universe.
    pub fn build_for_topics<S: Summarizer + Sync>(
        ctx: &SummarizeContext<'_>,
        summarizer: &S,
        topics: &[TopicId],
    ) -> Self {
        let n_topics = ctx.space.topic_count();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(topics.len().max(1));
        let chunk = topics.len().div_ceil(threads);

        let mut computed: Vec<RepresentativeSet> = Vec::with_capacity(topics.len());
        crossbeam::scope(|s| {
            let mut handles = Vec::new();
            for part in topics.chunks(chunk.max(1)) {
                handles.push(s.spawn(move |_| {
                    part.iter()
                        .map(|&t| summarizer.summarize(ctx, t))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                computed.extend(h.join().expect("summarization worker panicked"));
            }
        })
        .expect("crossbeam scope failed");

        Self::empty(n_topics).with_sets(computed)
    }

    /// An index of `topics` empty sets.
    fn empty(topics: usize) -> Self {
        TopicRepIndex {
            nodes: Csr::from_rows(vec![[]; topics]),
            weights: Sect::default(),
        }
    }

    /// Wrap pre-computed sets (tests, benchmarks).
    ///
    /// # Panics
    /// Panics if `sets[i].topic() != i` for some `i`.
    pub fn from_sets(sets: Vec<RepresentativeSet>) -> Self {
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(
                s.topic().index(),
                i,
                "set at position {i} belongs to topic {}",
                s.topic()
            );
        }
        Self::pack(sets.iter().map(RepresentativeSet::view))
    }

    fn pack<'a>(sets: impl Iterator<Item = RepView<'a>>) -> Self {
        let mut nodes = Csr::default();
        let mut weights = Vec::new();
        for set in sets {
            nodes.push_row(set.nodes());
            weights.extend_from_slice(set.weights());
        }
        TopicRepIndex {
            nodes,
            weights: weights.into(),
        }
    }

    /// Assemble an index from stored arrays, checking in one linear pass
    /// what every set guarantees: one weight per node, each row strictly
    /// ascending, every node below `node_count`, and every weight finite
    /// and non-negative.
    ///
    /// # Errors
    /// A message naming the first violated rule.
    pub fn from_raw_parts(
        node_count: usize,
        nodes: Csr<NodeId>,
        weights: Sect<f64>,
    ) -> Result<Self, String> {
        if weights.len() != nodes.data().len() {
            return Err(format!(
                "{} weights for {} representatives",
                weights.len(),
                nodes.data().len()
            ));
        }
        for (t, row) in nodes.iter().enumerate() {
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("topic {t}: representatives not strictly ascending"));
            }
            if let Some(v) = row.last().filter(|v| v.index() >= node_count) {
                return Err(format!(
                    "topic {t}: representative {v} out of range {node_count}"
                ));
            }
        }
        if let Some(w) = weights.iter().find(|w| !(w.is_finite() && **w >= 0.0)) {
            return Err(format!("invalid representative weight {w}"));
        }
        Ok(TopicRepIndex { nodes, weights })
    }

    /// The node rows and the parallel weights, in
    /// [`TopicRepIndex::from_raw_parts`] order.
    pub fn raw_parts(&self) -> (&Csr<NodeId>, &[f64]) {
        (&self.nodes, &self.weights)
    }

    /// The representative set of `topic`.
    #[inline]
    pub fn get(&self, topic: TopicId) -> RepView<'_> {
        let r = self.nodes.range(topic.index());
        RepView::new(topic, &self.nodes.data()[r.clone()], &self.weights[r])
    }

    /// Number of topics covered (= topic count of the space).
    pub fn len(&self) -> usize {
        self.nodes.rows()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sets(&self) -> impl Iterator<Item = RepView<'_>> + '_ {
        (0..self.len()).map(|t| self.get(TopicId::from_index(t)))
    }

    /// Replace every set with its `k` heaviest representatives — the
    /// experiment knob of Figures 7 and 12 ("vary the materialized sizes of
    /// representative nodes for each topic").
    pub fn truncated(&self, k: usize) -> TopicRepIndex {
        let cut: Vec<RepresentativeSet> = self.sets().map(|s| s.truncate_to_top(k)).collect();
        Self::pack(cut.iter().map(RepresentativeSet::view))
    }

    /// A copy with the given topics' sets replaced (used by incremental
    /// maintenance when topics are re-summarized). One pass over the index.
    ///
    /// # Panics
    /// Panics if a set's topic id is out of range.
    pub fn with_sets(&self, sets: Vec<RepresentativeSet>) -> TopicRepIndex {
        let mut fresh: Vec<Option<&RepresentativeSet>> = vec![None; self.len()];
        for set in &sets {
            let i = set.topic().index();
            assert!(i < fresh.len(), "topic {} out of range", set.topic());
            fresh[i] = Some(set);
        }
        Self::pack(
            self.sets()
                .zip(fresh)
                .map(|(old, new)| new.map_or(old, RepresentativeSet::view)),
        )
    }

    /// Total representatives across all topics.
    pub fn total_reps(&self) -> usize {
        self.nodes.data().len()
    }

    /// Bytes of the index borrowed from a snapshot mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        self.nodes.mapped_bytes() + self.weights.mapped_bytes()
    }

    /// Size of the index arrays in bytes, regardless of backing.
    pub fn heap_size_bytes(&self) -> usize {
        self.nodes.size_bytes() + self.weights.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::{fixtures, NodeId, TermId};
    use pit_summarize::{LrwConfig, LrwSummarizer};
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::{WalkConfig, WalkIndex};

    fn setup() -> (pit_graph::CsrGraph, pit_topics::TopicSpace, WalkIndex) {
        let g = fixtures::figure1_graph();
        let mut b = TopicSpaceBuilder::new(g.node_count(), 1);
        for nodes in &fixtures::figure1_topics() {
            let t = b.add_topic(vec![TermId(0)]);
            for &n in nodes {
                b.assign(n, t);
            }
        }
        let space = b.build();
        let walks = WalkIndex::build(&g, WalkConfig::new(4, 16).with_seed(11));
        (g, space, walks)
    }

    #[test]
    fn builds_one_set_per_topic() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build(&ctx, &LrwSummarizer::new(LrwConfig::default()));
        assert_eq!(idx.len(), 3);
        for t in space.topics() {
            assert_eq!(idx.get(t).topic(), t);
            assert!(!idx.get(t).is_empty());
        }
        assert!(idx.total_reps() >= 3);
    }

    #[test]
    fn subset_build_leaves_others_empty() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build_for_topics(
            &ctx,
            &LrwSummarizer::new(LrwConfig::default()),
            &[pit_graph::TopicId(1)],
        );
        assert!(idx.get(pit_graph::TopicId(0)).is_empty());
        assert!(!idx.get(pit_graph::TopicId(1)).is_empty());
    }

    #[test]
    fn truncated_caps_every_set() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build(
            &ctx,
            &LrwSummarizer::new(LrwConfig {
                mu: 1.0,
                ..LrwConfig::default()
            }),
        );
        let cut = idx.truncated(1);
        for t in space.topics() {
            assert!(cut.get(t).len() <= 1);
        }
    }

    #[test]
    #[should_panic]
    fn from_sets_validates_alignment() {
        let s =
            pit_summarize::RepresentativeSet::new(pit_graph::TopicId(5), vec![(NodeId(0), 1.0)]);
        let _ = TopicRepIndex::from_sets(vec![s]);
    }
}
