//! # pgraph — property-graph storage substrate
//!
//! An in-memory property graph supporting **mixed directed and undirected
//! edges**, the data model required by the paper *Aggregation Support for
//! Modern Graph Analytics in TigerGraph* (SIGMOD 2020). The upper layers
//! (`darpe`, `accum`, `gsql-core`) are built on top of this crate.
//!
//! Contents:
//!
//! * [`value`] — the dynamically-typed attribute [`value::Value`]
//!   with total ordering and hashing (usable as grouping keys),
//! * [`schema`] — vertex/edge type definitions with typed attributes,
//! * [`graph`] — vertex/edge stores plus per-vertex CSR adjacency grouped
//!   by `(edge type, direction)`, chunked and structurally shared so that
//!   cloning a graph is cheap and a mutation batch costs O(batch),
//! * [`bigcount`] — arbitrary-precision unsigned counters for path
//!   multiplicities (the experiments count up to `2^30` paths and the
//!   engine must not overflow on adversarial inputs),
//! * [`fxhash`] — a small FxHash-style hasher so hot hash maps do not pay
//!   for SipHash,
//! * [`generators`] — synthetic graphs used across tests and benchmarks
//!   (diamond chain, cycles, grids, Erdős–Rényi, Barabási–Albert, the
//!   paper's SalesGraph and LinkedIn examples),
//! * [`algo`] — native reference implementations (BFS shortest-path
//!   counting, PageRank, WCC, SSSP, triangles) used to cross-validate the
//!   GSQL interpreter,
//! * [`loader`] — a plain-text serialization format for graphs.
//!
//! # Example
//!
//! ```
//! use pgraph::generators::diamond_chain;
//! use pgraph::bigcount::BigCount;
//!
//! // The paper's Example 11 gadget: 2^k shortest paths per k diamonds,
//! // counted in polynomial time without enumeration.
//! let (graph, spine) = diamond_chain(100);
//! let (len, count) =
//!     pgraph::algo::count_shortest_paths(&graph, spine[0], spine[100]).unwrap();
//! assert_eq!(len, 200);
//! assert_eq!(count, BigCount::pow2(100));
//! ```

pub mod algo;
pub mod bigcount;
mod cow;
pub mod datetime;
pub mod fxhash;
pub mod generators;
pub mod graph;
pub mod loader;
pub mod mutate;
pub mod schema;
pub mod value;
pub mod wal;

pub use bigcount::BigCount;
pub use graph::{Dir, EdgeId, Graph, GraphBuilder, VertexId};
pub use mutate::{BatchSummary, MutationOp};
pub use wal::{CommitError, FlushPolicy, LiveGraph, RecoveryError, RecoveryReport};
pub use schema::{AttrDef, ETypeId, EdgeTypeDef, Schema, VTypeId, VertexTypeDef};
pub use value::{Value, ValueType};
