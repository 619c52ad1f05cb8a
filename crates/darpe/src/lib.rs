//! # darpe — Direction-Aware Regular Path Expressions
//!
//! Section 2 of the paper extends classical regular path expressions to
//! graphs mixing directed and undirected edges. For each edge type `E`
//! the *direction-adorned alphabet* contains three symbols:
//!
//! * `E>` — a directed `E`-edge traversed along its direction,
//! * `<E` — a directed `E`-edge traversed against its direction,
//! * `E`  — an undirected `E`-edge.
//!
//! A DARPE is a regular expression over this alphabet, with wildcard
//! `_` / `_>` / `<_` (any edge type), concatenation `.`, alternation `|`,
//! and Kleene repetition `*` with optional bounds `*min..max`.
//!
//! This crate provides:
//! * [`ast`] — the DARPE abstract syntax plus a text parser for the
//!   grammar in the paper (`E> . (F> | <G)* . H . <J`),
//! * [`nfa`]  — Thompson construction over adorned-symbol specs, resolved
//!   against a [`pgraph::Schema`], plus explicit-path matching,
//! * [`dfa`]  — the deterministic automaton as a dense transition table,
//!   filled lazily one whole row at a time when a state is first
//!   expanded, with each state's live edge types beside its row.
//!   Determinization is what makes **path counting exact**: each graph
//!   path has exactly one DFA run, so the BFS product construction of
//!   Theorem 6.1 never counts a path twice.
//!
//! # Example
//!
//! ```
//! // Example 2 of the paper: E> . (F> | <G)* . H . <J
//! let d = darpe::parse("E>.(F>|<G)*.H.<J").unwrap();
//! assert!(d.has_unbounded_repeat());
//! assert_eq!(d.fixed_unique_length(), None);
//! // The fixed-unique-length pattern of Section 6:
//! let f = darpe::parse("A>.(B>|D>)._>.A>").unwrap();
//! assert_eq!(f.fixed_unique_length(), Some(4));
//! ```

pub mod ast;
pub mod dfa;
pub mod nfa;

pub use ast::{parse, Darpe, DarpeDir, ParseError, Symbol};
pub use dfa::{Dfa, DfaStateId};
pub use nfa::{resolve_symbol, CompileError, CompiledDarpe, SymbolSpec};
