//! The end-to-end PIT-Search engine: offline pipeline + online queries.

use pit_graph::{CsrGraph, NodeId, TermId};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_search_core::{
    CancelToken, PersonalizedSearcher, SearchConfig, SearchError, SearchOutcome, TopicRepIndex,
};
use pit_summarize::{LrwConfig, LrwSummarizer, RclConfig, RclSummarizer, SummarizeContext};
use pit_topics::{KeywordQuery, TopicSpace, Vocabulary};
use pit_walk::{WalkConfig, WalkIndex, WalkIndexParts};

/// Which summarization algorithm the offline stage runs.
#[derive(Clone, Debug)]
pub enum SummarizerKind {
    /// RCL-A (Section 3): random clustering + centroid selection.
    Rcl(RclConfig),
    /// LRW-A (Section 4): diversified PageRank + absorbing migration.
    Lrw(LrwConfig),
}

impl SummarizerKind {
    /// LRW-A with default parameters — the paper's recommended method.
    pub fn default_lrw() -> Self {
        SummarizerKind::Lrw(LrwConfig::default())
    }

    /// RCL-A with default parameters.
    pub fn default_rcl() -> Self {
        SummarizerKind::Rcl(RclConfig::default())
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SummarizerKind::Rcl(_) => "RCL-A",
            SummarizerKind::Lrw(_) => "LRW-A",
        }
    }
}

/// Configures and builds a [`PitEngine`].
#[derive(Clone, Debug)]
pub struct PitEngineBuilder {
    walk: WalkConfig,
    prop: PropIndexConfig,
    summarizer: SummarizerKind,
    max_expand_rounds: usize,
}

impl Default for PitEngineBuilder {
    fn default() -> Self {
        PitEngineBuilder {
            walk: WalkConfig::new(5, 100),
            prop: PropIndexConfig::default(),
            summarizer: SummarizerKind::default_lrw(),
            max_expand_rounds: 4,
        }
    }
}

impl PitEngineBuilder {
    /// Walk-index parameters (`L`, `R`, seed, policy).
    pub fn walk(mut self, config: WalkConfig) -> Self {
        self.walk = config;
        self
    }

    /// Propagation-index parameters (`θ`, depth cap).
    pub fn propagation(mut self, config: PropIndexConfig) -> Self {
        self.prop = config;
        self
    }

    /// Summarization algorithm.
    pub fn summarizer(mut self, kind: SummarizerKind) -> Self {
        self.summarizer = kind;
        self
    }

    /// Cap on online EXPAND rounds.
    pub fn max_expand_rounds(mut self, rounds: usize) -> Self {
        self.max_expand_rounds = rounds;
        self
    }

    /// Run the full offline stage: walk index, per-topic representative
    /// sets, and the personalized propagation index.
    pub fn build(self, graph: CsrGraph, space: TopicSpace) -> PitEngine {
        self.build_with_vocab(graph, space, None)
    }

    /// As [`PitEngineBuilder::build`] but retaining a vocabulary so queries
    /// can be issued by keyword string.
    pub fn build_with_vocab(
        self,
        graph: CsrGraph,
        space: TopicSpace,
        vocab: Option<Vocabulary>,
    ) -> PitEngine {
        let parts = match self.summarizer {
            SummarizerKind::Rcl(_) => WalkIndexParts::ALL,
            SummarizerKind::Lrw(_) => WalkIndexParts::FOR_LRW,
        };
        let walks = WalkIndex::build_parts(&graph, self.walk, parts);
        let reps = {
            let ctx = SummarizeContext {
                graph: &graph,
                space: &space,
                walks: &walks,
            };
            match &self.summarizer {
                SummarizerKind::Rcl(cfg) => TopicRepIndex::build(&ctx, &RclSummarizer::new(*cfg)),
                SummarizerKind::Lrw(cfg) => TopicRepIndex::build(&ctx, &LrwSummarizer::new(*cfg)),
            }
        };
        let prop = PropagationIndex::build(&graph, self.prop);
        PitEngine {
            graph,
            space,
            vocab,
            walks,
            prop,
            reps,
            summarizer: self.summarizer,
            max_expand_rounds: self.max_expand_rounds,
        }
    }
}

/// A fully materialized PIT-Search system: owns the graph, topic space and
/// all three offline indexes, and answers online top-k queries.
pub struct PitEngine {
    graph: CsrGraph,
    space: TopicSpace,
    vocab: Option<Vocabulary>,
    walks: WalkIndex,
    prop: PropagationIndex,
    reps: TopicRepIndex,
    summarizer: SummarizerKind,
    max_expand_rounds: usize,
}

impl PitEngine {
    /// Start configuring an engine.
    pub fn builder() -> PitEngineBuilder {
        PitEngineBuilder::default()
    }

    /// Assemble an engine from pre-built parts (e.g. loaded from a
    /// [`crate::store`] directory), skipping the offline stage entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        graph: CsrGraph,
        space: TopicSpace,
        vocab: Option<Vocabulary>,
        walks: WalkIndex,
        prop: PropagationIndex,
        reps: TopicRepIndex,
        summarizer: SummarizerKind,
        max_expand_rounds: usize,
    ) -> Self {
        PitEngine {
            graph,
            space,
            vocab,
            walks,
            prop,
            reps,
            summarizer,
            max_expand_rounds,
        }
    }

    /// Run a query built from term ids.
    ///
    /// # Panics
    /// Panics if `query.user` is outside the graph; use
    /// [`PitEngine::try_search`] for a typed error instead.
    pub fn search(&self, query: &KeywordQuery, k: usize) -> SearchOutcome {
        match self.try_search(query, k, &CancelToken::none()) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run a query under a cancellation/deadline token, without panicking.
    ///
    /// # Errors
    /// [`SearchError::UserOutOfRange`] for an unindexed user, or
    /// [`SearchError::Cancelled`] when `cancel` fires mid-search.
    pub fn try_search(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
    ) -> Result<SearchOutcome, SearchError> {
        self.try_search_traced(query, k, cancel, &mut pit_search_core::NoTracer)
    }

    /// [`PitEngine::try_search`] with stage callbacks for the serving
    /// stack's per-query traces (see [`pit_search_core::SearchTracer`]).
    ///
    /// # Errors
    /// Same as [`PitEngine::try_search`].
    pub fn try_search_traced(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn pit_search_core::SearchTracer,
    ) -> Result<SearchOutcome, SearchError> {
        let mut scratch = pit_search_core::SearchScratch::new();
        self.try_search_traced_with(query, k, cancel, tracer, &mut scratch)
    }

    /// [`PitEngine::try_search_traced`] with a caller-owned
    /// [`pit_search_core::SearchScratch`]: serving workers keep one scratch
    /// per thread so repeated queries reuse every per-query buffer.
    ///
    /// # Errors
    /// Same as [`PitEngine::try_search`].
    pub fn try_search_traced_with(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn pit_search_core::SearchTracer,
        scratch: &mut pit_search_core::SearchScratch,
    ) -> Result<SearchOutcome, SearchError> {
        let config = SearchConfig {
            k,
            max_expand_rounds: self.max_expand_rounds,
            prune: true,
        };
        PersonalizedSearcher::new(&self.space, &self.prop, &self.reps, config)
            .try_search_traced_with(query, cancel, tracer, scratch)
    }

    /// Convenience: single-term query by id.
    pub fn search_user_term(&self, user: NodeId, term: TermId, k: usize) -> SearchOutcome {
        self.search(&KeywordQuery::new(user, vec![term]), k)
    }

    /// Convenience: query by keyword strings. Unknown keywords are reported
    /// rather than silently dropped.
    ///
    /// # Errors
    /// Returns the offending keyword when it is not in the vocabulary, or
    /// when the engine was built without one.
    pub fn search_keywords(
        &self,
        user: NodeId,
        keywords: &[&str],
        k: usize,
    ) -> Result<SearchOutcome, String> {
        let vocab = self
            .vocab
            .as_ref()
            .ok_or_else(|| "engine was built without a vocabulary".to_string())?;
        let terms = keywords
            .iter()
            .map(|kw| {
                vocab
                    .get(kw)
                    .ok_or_else(|| format!("unknown keyword: {kw}"))
            })
            .collect::<Result<Vec<TermId>, String>>()?;
        Ok(self.search(&KeywordQuery::new(user, terms), k))
    }

    /// The social graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The topic space.
    pub fn space(&self) -> &TopicSpace {
        &self.space
    }

    /// The vocabulary, when retained.
    pub fn vocab(&self) -> Option<&Vocabulary> {
        self.vocab.as_ref()
    }

    /// The sampled-walk index.
    pub fn walks(&self) -> &WalkIndex {
        &self.walks
    }

    /// The personalized propagation index.
    pub fn propagation(&self) -> &PropagationIndex {
        &self.prop
    }

    /// The topic-to-representative index.
    pub fn reps(&self) -> &TopicRepIndex {
        &self.reps
    }

    /// Which summarizer built the representative sets.
    pub fn summarizer(&self) -> &SummarizerKind {
        &self.summarizer
    }

    /// The online EXPAND round cap.
    pub fn max_expand_rounds(&self) -> usize {
        self.max_expand_rounds
    }

    /// Total resident size of the three offline indexes, in bytes.
    pub fn index_bytes(&self) -> usize {
        self.walks.heap_size_bytes() + self.prop.heap_size_bytes() + self.reps.heap_size_bytes()
    }

    /// Bytes of index data served zero-copy from a flat snapshot mapping
    /// (0 for engines built in memory or deep-copied off disk). Feeds the
    /// `pit_reload_bytes_mapped` gauge.
    pub fn mapped_bytes(&self) -> usize {
        self.graph.mapped_bytes()
            + self.space.mapped_bytes()
            + self.vocab.as_ref().map_or(0, Vocabulary::mapped_bytes)
            + self.walks.mapped_bytes()
            + self.prop.mapped_bytes()
            + self.reps.mapped_bytes()
    }

    /// How this engine's arrays are backed: `"flat-mapped"` when any index
    /// section is a borrowed window of the snapshot mapping, `"owned"`
    /// otherwise. Surfaced as the `snapshot_format` STATS key.
    pub fn snapshot_format(&self) -> &'static str {
        if self.mapped_bytes() > 0 {
            "flat-mapped"
        } else {
            "owned"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::fixtures;
    use pit_topics::TopicSpaceBuilder;

    fn fig1_engine(kind: SummarizerKind) -> PitEngine {
        let graph = fixtures::figure1_graph();
        let mut b = TopicSpaceBuilder::new(graph.node_count(), 1);
        for nodes in &fixtures::figure1_topics() {
            let t = b.add_topic(vec![TermId(0)]);
            for &n in nodes {
                b.assign(n, t);
            }
        }
        PitEngine::builder()
            .walk(WalkConfig::new(4, 32).with_seed(9))
            .propagation(PropIndexConfig::with_theta(0.01))
            .summarizer(kind)
            .build(graph, b.build())
    }

    #[test]
    fn lrw_engine_answers_example1() {
        let engine = fig1_engine(SummarizerKind::default_lrw());
        let out = engine.search_user_term(fixtures::user(3), TermId(0), 3);
        assert_eq!(out.candidate_topics, 3);
        assert_eq!(out.top_k.len(), 3);
        // All three topics scored; scores descending.
        assert!(out.top_k.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn rcl_engine_runs() {
        let engine = fig1_engine(SummarizerKind::Rcl(RclConfig {
            c_size: 2,
            sample_rate: 1.0,
            ..RclConfig::default()
        }));
        let out = engine.search_user_term(fixtures::user(3), TermId(0), 2);
        assert_eq!(out.top_k.len(), 2);
        assert!(engine.index_bytes() > 0);
    }

    #[test]
    fn keyword_search_requires_vocab() {
        let engine = fig1_engine(SummarizerKind::default_lrw());
        let err = engine
            .search_keywords(fixtures::user(3), &["phone"], 1)
            .unwrap_err();
        assert!(err.contains("vocabulary"));
    }

    #[test]
    fn keyword_search_with_vocab() {
        let graph = fixtures::figure1_graph();
        let mut vocab = Vocabulary::new();
        let phone = vocab.intern("phone");
        let mut b = TopicSpaceBuilder::new(graph.node_count(), 1);
        for nodes in &fixtures::figure1_topics() {
            let t = b.add_topic(vec![phone]);
            for &n in nodes {
                b.assign(n, t);
            }
        }
        let engine = PitEngine::builder()
            .walk(WalkConfig::new(4, 16))
            .build_with_vocab(graph, b.build(), Some(vocab));
        let out = engine
            .search_keywords(fixtures::user(3), &["phone"], 2)
            .unwrap();
        assert_eq!(out.top_k.len(), 2);
        let err = engine
            .search_keywords(fixtures::user(3), &["tablet"], 2)
            .unwrap_err();
        assert!(err.contains("tablet"));
    }
}
