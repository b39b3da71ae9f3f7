//! Directed-graph substrate for the `selfstab` toolkit.
//!
//! This crate provides the graph machinery that the local-reasoning method of
//! Farahat & Ebnenasir (*Local Reasoning for Global Convergence of
//! Parameterized Rings*, ICDCS 2012) is built on:
//!
//! * [`DiGraph`] — a compact directed graph over integer vertices with
//!   adjacency lists, used for Right Continuation Graphs (RCGs), Local
//!   Transition Graphs (LTGs) and global transition systems.
//! * [`scc`] — iterative Tarjan strongly-connected components and the
//!   vertices on cycles (used by the Theorem 4.2 deadlock-freedom check).
//! * [`cycles`] — Johnson-style enumeration of simple directed cycles with
//!   budget limits (used to produce deadlock witness cycles and the ring
//!   sizes they correspond to).
//! * [`hitting`] — enumeration of minimal hitting sets (used to compute the
//!   `Resolve` sets of the Section 6 synthesis methodology: minimal feedback
//!   subsets of the RCG restricted to illegitimate local deadlocks).
//! * [`bitset`] — a small fixed-capacity bit set used throughout the
//!   workspace for vertex and local-state sets.
//! * [`dot`] — Graphviz DOT export for reproducing the paper's figures.
//!
//! # Examples
//!
//! Detect that a 3-cycle is strongly connected and enumerate it:
//!
//! ```
//! use selfstab_graph::{DiGraph, scc, cycles};
//!
//! let mut g = DiGraph::new(3);
//! g.add_arc(0, 1);
//! g.add_arc(1, 2);
//! g.add_arc(2, 0);
//!
//! let comps = scc::strongly_connected_components(&g);
//! assert_eq!(comps.components().len(), 1);
//!
//! let cs = cycles::simple_cycles(&g, cycles::CycleBudget::default());
//! assert_eq!(cs.cycles.len(), 1);
//! assert_eq!(cs.cycles[0].len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cycles;
pub mod digraph;
pub mod dot;
pub mod hitting;
pub mod scc;

pub use bitset::BitSet;
pub use cycles::{simple_cycles, CycleBudget, CycleEnumeration};
pub use digraph::DiGraph;
pub use scc::{strongly_connected_components, SccDecomposition};
