//! # gsql-core — the GSQL-subset graph query language
//!
//! The paper's primary contribution: a pattern-based declarative graph
//! query language with **accumulator-based aggregation**, implemented as
//! a lexer, recursive-descent parser and tree-walking interpreter over a
//! [`pgraph::Graph`].
//!
//! Supported surface (everything the paper exercises):
//!
//! * `CREATE QUERY name(params) FOR GRAPH g { ... }` with typed
//!   parameters (including `VERTEX<Type>`),
//! * accumulator declarations of every built-in type (`SumAccum`,
//!   `Min/MaxAccum`, `AvgAccum`, `And/OrAccum`, `Set/Bag/List/ArrayAccum`,
//!   `MapAccum` (recursively nested), `HeapAccum`, `GroupByAccum`, user-
//!   defined), vertex-attached `@a` and global `@@a`, with initializers,
//! * `SELECT ... FROM ... WHERE ... ACCUM ... POST_ACCUM ...` query
//!   blocks with DARPE path patterns, multi-output `SELECT ... INTO`,
//!   SQL-borrowed `GROUP BY` (incl. `GROUPING SETS`/`CUBE`/`ROLLUP`),
//!   `HAVING`, `ORDER BY`, `LIMIT`, `DISTINCT`,
//! * joins between graph patterns and relational tables (paper Ex. 1),
//! * control flow: `WHILE ... LIMIT ... DO ... END`, `IF/ELSE`,
//!   `FOREACH`, plus `PRINT` and `RETURN`,
//! * composition: accumulator scope spans all blocks; vertex-set
//!   variables flow between blocks; `v.@a'` reads the pre-block snapshot.
//!
//! Pattern-match legality is **pluggable** ([`semantics::PathSemantics`]):
//! the default is the paper's all-shortest-paths semantics evaluated by
//! *counting* (polynomial, Theorems 6.1/7.1); the alternatives
//! (non-repeated-edge/vertex, enumerate-all-shortest, SPARQL-style
//! boolean) are implemented by explicit enumeration and serve as the
//! baselines of the paper's experiments.
//!
//! # Example
//!
//! ```
//! use gsql_core::Engine;
//! use pgraph::generators::sales_graph;
//! use pgraph::value::Value;
//!
//! let graph = sales_graph();
//! let engine = Engine::new(&graph);
//! let out = engine.run_text(r#"
//!     CREATE QUERY ToyRevenue () {
//!       SumAccum<float> @@total;
//!       S = SELECT c
//!           FROM  Customer:c -(Bought>:b)- Product:p
//!           WHERE p.category == 'toy'
//!           ACCUM @@total += b.quantity * p.list_price * (1.0 - b.discount);
//!       PRINT @@total;
//!     }
//! "#, &[]).unwrap();
//! assert_eq!(out.prints, vec!["@@total = 144.0".to_string()]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod datetime;
pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod governor;
pub mod lexer;
pub mod lint;
pub mod morsel;
pub mod parser;
pub mod plan;
pub mod prepared;
pub mod profile;
pub mod semantics;
pub mod stdlib;
pub mod table;
pub mod tractable;

pub use error::{Error, ErrorKind, ResourceError, Result};
pub use exec::{Engine, QueryOutput, ReturnValue};
pub use explain::{explain, explain_plan, Plan, PlanNode};
pub use governor::{Budget, CancelHandle, QueryGuard, ResourceReport};
pub use lint::{lint_query, lint_query_with, Diagnostic, Severity};
pub use morsel::{MorselTable, DEFAULT_MORSEL_SIZE};
pub use parser::{parse_query, parse_query_with_mode, QueryMode};
pub use plan::{BlockPlan, QueryPlan};
pub use prepared::{BindError, BindErrorKind, PreparedQuery};
pub use profile::{Profile, ProfileNode};
pub use semantics::{MatchStats, PathSemantics};
pub use table::Table;
