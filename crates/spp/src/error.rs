//! Error type for the SPP substrate.

use std::error::Error;
use std::fmt;

use crate::graph::NodeId;

/// Errors produced while constructing or validating SPP artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SppError {
    /// A path was constructed from an empty node sequence.
    EmptyPath,
    /// A path repeats a node and is therefore not simple.
    PathNotSimple { repeated: NodeId },
    /// A path uses an edge absent from the instance graph.
    MissingEdge { from: NodeId, to: NodeId },
    /// A path does not terminate at the instance destination.
    WrongDestination { path_dest: NodeId, expected: NodeId },
    /// A permitted path is registered at a node other than its source.
    WrongSource { path_source: NodeId, expected: NodeId },
    /// A node id is out of range for the graph.
    UnknownNode { node: NodeId, node_count: usize },
    /// A node name was not found while parsing or building.
    UnknownName { name: String },
    /// Two permitted paths at the same node with *different* next hops share a
    /// rank, which Sec. 2.1 forbids.
    RankTie { node: NodeId, rank: u32 },
    /// The same path was registered twice at a node.
    DuplicatePath { node: NodeId },
    /// The destination node must not have non-trivial permitted paths.
    DestinationPaths,
    /// An edge endpoint equals the other endpoint (self loop).
    SelfLoop { node: NodeId },
    /// Search exceeded the configured work budget.
    BudgetExceeded { budget: u64 },
    /// Parse failure for the text instance format.
    Parse { line: usize, message: String },
    /// The graph is not connected to the destination, so some node can never
    /// learn any route. (Only reported by validation helpers that demand it.)
    Disconnected { node: NodeId },
    /// A generator was asked for fewer nodes than a destination and one
    /// other node.
    TooFewNodes { nodes: usize },
}

impl fmt::Display for SppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SppError::EmptyPath => write!(f, "path has no nodes"),
            SppError::PathNotSimple { repeated } => {
                write!(f, "path repeats node {repeated}")
            }
            SppError::MissingEdge { from, to } => {
                write!(f, "path uses missing edge {from}-{to}")
            }
            SppError::WrongDestination { path_dest, expected } => {
                write!(f, "path ends at {path_dest} but the instance destination is {expected}")
            }
            SppError::WrongSource { path_source, expected } => {
                write!(f, "path starts at {path_source} but was registered at {expected}")
            }
            SppError::UnknownNode { node, node_count } => {
                write!(f, "node {node} out of range for a graph with {node_count} nodes")
            }
            SppError::UnknownName { name } => write!(f, "unknown node name {name:?}"),
            SppError::RankTie { node, rank } => write!(
                f,
                "two permitted paths at node {node} with different next hops share rank {rank}"
            ),
            SppError::DuplicatePath { node } => {
                write!(f, "duplicate permitted path at node {node}")
            }
            SppError::DestinationPaths => {
                write!(f, "the destination only permits its trivial path")
            }
            SppError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            SppError::BudgetExceeded { budget } => {
                write!(f, "search budget of {budget} steps exceeded")
            }
            SppError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            SppError::Disconnected { node } => {
                write!(f, "node {node} cannot reach the destination")
            }
            SppError::TooFewNodes { nodes } => write!(
                f,
                "an instance needs at least 2 nodes, a destination and one other, but got {nodes}"
            ),
        }
    }
}

impl Error for SppError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            SppError::EmptyPath,
            SppError::PathNotSimple { repeated: NodeId(3) },
            SppError::MissingEdge { from: NodeId(0), to: NodeId(1) },
            SppError::WrongDestination { path_dest: NodeId(1), expected: NodeId(0) },
            SppError::WrongSource { path_source: NodeId(1), expected: NodeId(2) },
            SppError::UnknownNode { node: NodeId(9), node_count: 3 },
            SppError::UnknownName { name: "zz".into() },
            SppError::RankTie { node: NodeId(1), rank: 4 },
            SppError::DuplicatePath { node: NodeId(1) },
            SppError::DestinationPaths,
            SppError::SelfLoop { node: NodeId(2) },
            SppError::BudgetExceeded { budget: 10 },
            SppError::Parse { line: 3, message: "bad token".into() },
            SppError::Disconnected { node: NodeId(5) },
            SppError::TooFewNodes { nodes: 1 },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SppError>();
    }
}
