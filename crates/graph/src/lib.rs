//! # pit-graph
//!
//! Directed social-network graph substrate for the PIT-Search system
//! (*Personalized Influential Topic Search via Social Network Summarization*,
//! ICDE 2017).
//!
//! The paper models a social network as `G = (V, E, T, Λ)`: users `V`, directed
//! influence edges `E`, a topic space `T`, and per-edge transition
//! probabilities `Λ`. This crate provides `V`, `E` and `Λ`:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row graph holding **both**
//!   out-adjacency (forward influence propagation) and in-adjacency (reverse
//!   BFS for the personalized propagation index), with an `f64` transition
//!   probability per edge.
//! * [`GraphBuilder`] — incremental edge-list construction with validation,
//!   deduplication and several probability models ([`ProbabilityModel`]).
//! * [`fixtures`] — the hand-built graphs of the paper's Figure 1 (worked
//!   Example 1) and Figure 3 (propagation-index example), used by unit and
//!   integration tests throughout the workspace.
//! * [`stats`] — degree distributions and summary statistics used when
//!   generating the paper's synthetic datasets.
//!
//! Topic assignment (`T`) lives in the `pit-topics` crate; this crate is
//! topic-agnostic.
//!
//! ## Example
//!
//! ```
//! use pit_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.out_degree(NodeId(0)), 1);
//! let (tgt, p) = g.out_edges(NodeId(0)).first();
//! assert_eq!(tgt, NodeId(1));
//! assert!((p - 0.5).abs() < 1e-12);
//! ```

// `deny` rather than `forbid`: the single sanctioned exception is the
// `Pod` impl for the id newtypes in `ids` (see the SAFETY comment there),
// which lets flat snapshots view id arrays in place.
#![deny(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod error;
pub mod fixtures;
pub mod ids;
pub mod prob;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::{GraphError, Result};
pub use ids::{NodeId, TermId, TopicId};
pub use prob::ProbabilityModel;
pub use stats::GraphStats;
