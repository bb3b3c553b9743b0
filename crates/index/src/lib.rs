//! # pit-index
//!
//! The **personalized influence propagation index** of Section 5.1.
//!
//! For every node `v`, the index materializes the "nearby" nodes: every node
//! `u` with at least one simple propagation path `u ↪ v` whose probability
//! (product of edge transition probabilities) is at least a threshold `θ`.
//! Construction is a reverse breadth/depth expansion from `v` over in-edges,
//! terminating a branch as soon as its path probability drops below `θ`; a
//! node may appear on many branches, and its per-path probabilities are
//! **aggregated** into a single lookup value — the paper's per-node hash map.
//!
//! A node `x ∈ Γ(v)` is *marked* (`Γ*(v)`, "potential node to be expanded")
//! when it has an in-neighbor that is neither in `Γ(v)` nor `v` itself: the
//! influence behind `x` is unexplored, and the online search may need to
//! expand through `x` (Algorithm 11). This is exactly the Figure-3 criterion:
//! node 11 is marked because its feeder arrives below `θ`, while nodes whose
//! in-neighbors are all already indexed are not.

#![forbid(unsafe_code)]

pub mod node;
pub mod prop;

pub use node::{Gamma, NodePropagation};
pub use prop::{PropIndexConfig, PropagationIndex};
