//! # pit-summarize
//!
//! Topic-aware social summarization (Definition 1 of the paper): given a
//! topic `t` with topic-node set `V_t`, select a bounded set of
//! *representative nodes* with weights that approximates the influence of all
//! of `V_t` over the network.
//!
//! Two approaches, as in the paper:
//!
//! * [`rcl`] — **RCL-A** (Section 3, Algorithms 1–5): cluster topic nodes by
//!   common reachability over a sampled probe set, pick one *central* node
//!   per cluster by closeness centrality, weight it by cluster size.
//! * [`lrw`] — **LRW-A** (Section 4, Algorithms 7–9): rank nodes with a
//!   vertex-reinforced *diversified PageRank* driven by the time-variant
//!   visiting frequencies of sampled walks, keep the top `μ·|V_t|`, and
//!   migrate the topic nodes' local influence onto them with absorbing
//!   random walks.
//!
//! Both implement the [`Summarizer`] trait and produce a
//! [`RepresentativeSet`] the online search (`pit-search-core`) consumes.

#![forbid(unsafe_code)]

pub mod lrw;
pub mod rcl;
pub mod repset;

pub use lrw::pagerank::PageRankInit;
pub use lrw::{LrwConfig, LrwSummarizer};
pub use rcl::{RclConfig, RclSummarizer};
pub use repset::{RepView, RepresentativeSet};

use pit_graph::{CsrGraph, TopicId};
use pit_topics::TopicSpace;
use pit_walk::WalkIndex;

/// Shared inputs of a summarization run.
pub struct SummarizeContext<'a> {
    /// The social graph.
    pub graph: &'a CsrGraph,
    /// The topic space (source of `V_t`).
    pub space: &'a TopicSpace,
    /// The sampled-walk index of Algorithm 6.
    pub walks: &'a WalkIndex,
}

/// A topic-aware social summarization strategy.
pub trait Summarizer {
    /// Select and weight representative nodes for `topic`.
    fn summarize(&self, ctx: &SummarizeContext<'_>, topic: TopicId) -> RepresentativeSet;

    /// Human-readable name for reports ("RCL-A", "LRW-A").
    fn name(&self) -> &'static str;
}
