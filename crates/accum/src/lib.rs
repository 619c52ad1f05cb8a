//! # accum — GSQL-style accumulators
//!
//! Accumulators (Section 3 of the paper) are data containers holding an
//! internal value `V` and aggregating inputs `I` through a binary
//! combiner `⊕ : V × I → V`. Two assignment operators exist:
//!
//! * `a  = i` — set the internal value,
//! * `a += i` — combine: `a.val ← a.val ⊕ i`.
//!
//! This crate provides:
//!
//! * [`types::AccumType`] — the declared type of an accumulator
//!   (`SumAccum<INT>`, `MapAccum<K, SumAccum<DOUBLE>>`,
//!   `HeapAccum(cap, field ASC, ...)`, `GroupByAccum`, user-defined),
//! * [`instance::Accum`] — a live instance with `combine`, `assign`,
//!   snapshot `value()` and — crucially for Theorem 7.1 — multiplicity-
//!   aware combining [`instance::Accum::combine_with_multiplicity`]: a
//!   binding row carrying multiplicity `μ` (the number of shortest paths
//!   witnessing it) feeds `μ·i` into a `SumAccum`, bumps a `BagAccum`
//!   count by `μ`, and feeds multiplicity-insensitive accumulators
//!   (Min/Max/Set/Or/And/...) exactly once — avoiding the `μ`-fold
//!   (worst-case exponential) re-execution of the ACCUM clause,
//! * order-invariance and multiplicity-sensitivity classification
//!   (Section 4.3's determinism analysis and Section 7's tractable
//!   class), and
//! * [`user`] — the extensible accumulator interface (the paper's C++
//!   extension point, as a Rust trait + registry).

#![warn(missing_docs)]

pub mod instance;
pub mod types;
pub mod user;

pub use instance::{Accum, AccumError, GroupKey, GroupTable, Input, KeyFields};
pub use types::{AccumType, HeapSpec};
pub use user::{UserAccum, UserAccumRegistry};
