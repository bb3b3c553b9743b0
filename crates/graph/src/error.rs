//! Error type for graph construction and validation.

use crate::ids::NodeId;
use std::fmt;

/// Convenience alias used across the graph crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors raised while constructing or validating a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint refers to a node `>= node_count`.
    NodeOutOfRange { node: NodeId, node_count: usize },
    /// An edge probability is not a finite value in `[0, 1]`.
    InvalidProbability { from: NodeId, to: NodeId, prob: f64 },
    /// A self-loop was supplied (the influence model forbids them: a user
    /// does not "influence" themselves through an edge).
    SelfLoop { node: NodeId },
    /// The same directed edge was supplied twice with conflicting weights.
    DuplicateEdge { from: NodeId, to: NodeId },
    /// The graph is empty (zero nodes) where at least one node is required.
    EmptyGraph,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => write!(
                f,
                "node {node} out of range for graph with {node_count} nodes"
            ),
            GraphError::InvalidProbability { from, to, prob } => write!(
                f,
                "edge {from}->{to} has invalid transition probability {prob} (must be finite and in [0,1])"
            ),
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node} is not allowed"),
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from}->{to} with conflicting weight")
            }
            GraphError::EmptyGraph => write!(f, "graph must contain at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: NodeId(9),
            node_count: 4,
        };
        assert!(e.to_string().contains("out of range"));
        let e = GraphError::InvalidProbability {
            from: NodeId(0),
            to: NodeId(1),
            prob: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        let e = GraphError::SelfLoop { node: NodeId(3) };
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<GraphError>();
    }
}
