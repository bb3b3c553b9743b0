//! # pit-walk
//!
//! The L-length random-walk machinery of Section 4 of the paper.
//!
//! [`WalkIndex::build`] implements **Algorithm 6** (`INVERTTVHIT_INDEX`): for
//! every node `w` it takes `R` samples of L-length random walks and derives
//! the three indexes the rest of the pipeline consumes:
//!
//! * `I[R][n]` — the sampled walks themselves ([`WalkIndex::walk`]), stored
//!   as first-visit sequences exactly as the algorithm appends them;
//! * `H[L][n]` — the *time-variant visiting frequency* index
//!   ([`WalkIndex::visit_freq`]): the maximum per-walk visit frequency of a
//!   node at each iteration `1..=L`, which reinforces the diversified
//!   PageRank of Algorithm 7;
//! * `I_L[n]` — the reachability index ([`WalkIndex::reach_set`]): for each
//!   node, the set of walk origins that reached it within `L` hops, used by
//!   the RCL-A grouping probabilities (Algorithm 1) and centroid voting
//!   (Algorithm 4).
//!
//! Construction is deterministic for a given [`WalkConfig::seed`], regardless
//! of thread count: each start node derives its own RNG stream.
//!
//! [`hoeffding::sample_size`] gives the paper's bound on `R` (Section 4.1
//! cites the Hoeffding inequality for balancing sample size against
//! estimation accuracy).

#![forbid(unsafe_code)]

pub mod engine;
pub mod hoeffding;
pub mod index;

pub use engine::{sample_walk, WalkConfig, WalkPolicy};
pub use index::{WalkIndex, WalkIndexParts};
