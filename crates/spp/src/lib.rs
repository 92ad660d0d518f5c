//! Stable Paths Problem (SPP) substrate.
//!
//! This crate implements the abstract interdomain-routing problem that the
//! paper's routing algorithm solves (Sec. 2.1 of Jaggard–Ramachandran–Wright,
//! *The Impact of Communication Models on Routing-Algorithm Convergence*):
//!
//! * [`NodeId`], [`Path`] and [`Graph`] — the network substrate,
//! * [`SppInstance`] — a graph with a destination, per-node permitted paths
//!   and ranking functions (lower rank = more preferred),
//! * [`gadgets`] — the instance corpus used throughout the paper
//!   (DISAGREE, the Fig. 6–9 instances) plus classics from the SPP
//!   literature (BAD-GADGET, GOOD-GADGET),
//! * [`solve`] — brute-force enumeration of stable path assignments,
//! * [`dispute`] — dispute-wheel detection and the dispute digraph,
//! * [`generator`] — random instance generators (uniform random policies and
//!   Gao–Rexford-style customer/peer/provider policies),
//! * [`table`] — interned route tables ([`RouteTable`]) backing the engine's
//!   allocation-free hot path,
//! * [`format`](mod@format) — a small text format for instances.
//!
//! # Example
//!
//! ```
//! use routelab_spp::gadgets;
//! use routelab_spp::solve::enumerate_stable_assignments;
//!
//! let disagree = gadgets::disagree();
//! let solutions = enumerate_stable_assignments(&disagree, 10_000)?;
//! // DISAGREE famously has exactly two stable solutions.
//! assert_eq!(solutions.len(), 2);
//! # Ok::<(), routelab_spp::SppError>(())
//! ```

pub mod automorphism;
pub mod dispute;
pub mod error;
pub mod format;
pub mod gadgets;
pub mod generator;
pub mod graph;
pub mod instance;
pub mod path;
pub mod solve;
pub mod table;

pub use automorphism::{automorphisms, Automorphism};
pub use error::SppError;
pub use graph::{Channel, Graph, NodeId};
pub use instance::{RankedPath, SppBuilder, SppInstance};
pub use path::{Path, Route};
pub use table::{RouteId, RouteTable, NO_CANDIDATE};
