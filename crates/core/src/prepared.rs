//! Reusable parsed-query handles — the serving hot path.
//!
//! A long-running service executes the same parameterized query text
//! thousands of times ([`crate::Engine::run`] is already `&self` and
//! stateless across runs), so re-lexing and re-parsing on every request
//! is pure waste. [`PreparedQuery`] parses once, pins the AST behind an
//! `Arc`, and carries a stable [`fingerprint`] of the source text usable
//! as a plan-cache key. The handle is `Clone + Send + Sync`: one parse
//! can be shared by every worker thread of a server and re-executed
//! concurrently against the same graph with different `args`.
//!
//! ```
//! use gsql_core::{Engine, PreparedQuery};
//! use pgraph::generators::sales_graph;
//!
//! let graph = sales_graph();
//! let engine = Engine::new(&graph);
//! let prepared = PreparedQuery::prepare(r#"
//!     CREATE QUERY CountCustomers () {
//!       SumAccum<int> @@n;
//!       S = SELECT c FROM Customer:c ACCUM @@n += 1;
//!       PRINT @@n;
//!     }
//! "#).unwrap();
//! let a = engine.run_prepared(&prepared, &[]).unwrap();
//! let b = engine.run_prepared(&prepared, &[]).unwrap();
//! assert_eq!(a.prints, b.prints);
//! ```

use crate::ast::{Param, ParamType, Query};
use crate::error::Result;
use crate::lint::QueryFacts;
use crate::plan::QueryPlan;
use crate::semantics::PathSemantics;
use pgraph::value::Value;
use std::sync::{Arc, Mutex, OnceLock};

/// Stable 64-bit FNV-1a hash of query source text. Deliberately *not*
/// `std::hash::Hash` (which is documented as unstable across releases):
/// the fingerprint doubles as a wire-visible prepared-statement id, so
/// two processes built from different toolchains must agree on it.
pub fn fingerprint(src: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for b in src.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// How a parameter binding failed [`PreparedQuery::check_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindErrorKind {
    /// A declared parameter has no binding.
    Missing,
    /// A binding's value type does not match the declared type.
    TypeMismatch,
    /// A binding names a parameter the query does not declare.
    Unknown,
}

/// A structured parameter-binding error: which parameter, what the
/// query declared, what the caller sent. The server maps this to a
/// `422` response with the same fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The parameter name at fault.
    pub param: String,
    /// The declared type (as rendered in [`PreparedQuery::signature`]),
    /// or `"(none)"` for [`BindErrorKind::Unknown`].
    pub expected: String,
    /// A short description of the value actually supplied, or
    /// `"(missing)"` for [`BindErrorKind::Missing`].
    pub got: String,
    /// What went wrong.
    pub kind: BindErrorKind,
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BindErrorKind::Missing => {
                write!(f, "missing argument `{}` (expects {})", self.param, self.expected)
            }
            BindErrorKind::TypeMismatch => write!(
                f,
                "parameter `{}` expects {}, got {}",
                self.param, self.expected, self.got
            ),
            BindErrorKind::Unknown => {
                write!(f, "unknown parameter `{}`", self.param)
            }
        }
    }
}

/// Renders a [`ParamType`] the way [`PreparedQuery::signature`] does.
fn param_type_label(ty: &ParamType) -> String {
    match ty {
        ParamType::Scalar(t) => t.to_string(),
        ParamType::Vertex(Some(t)) => format!("VERTEX<{t}>"),
        ParamType::Vertex(None) => "VERTEX".to_string(),
        ParamType::VertexSet => "SET<VERTEX>".to_string(),
    }
}

/// A short human label for a bound value's type.
fn value_label(v: &Value) -> &'static str {
    match v {
        Value::Null => "NULL",
        Value::Bool(_) => "BOOL",
        Value::Int(_) => "INT",
        Value::Double(_) => "DOUBLE",
        Value::Str(_) => "STRING",
        Value::DateTime(_) => "DATETIME",
        Value::Vertex(_) => "VERTEX",
        Value::Edge(_) => "EDGE",
        Value::Tuple(_) => "TUPLE",
        Value::List(_) => "LIST",
        Value::Set(_) => "SET",
        Value::Map(_) => "MAP",
    }
}

/// A query parsed once and reusable for any number of executions, from
/// any number of threads.
///
/// Besides the parsed AST, the handle carries a shared **plan slot**:
/// the first execution against a given graph snapshot lowers the query
/// through the cost-based planner and caches the resulting
/// [`QueryPlan`]; subsequent executions with *different parameter
/// bindings* reuse that one optimized plan (the slot is keyed on the
/// graph's finalize epoch and the ambient semantics, so a re-finalized
/// graph or a semantics switch re-plans). Clones share the slot.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    source: Arc<str>,
    query: Arc<Query>,
    fingerprint: u64,
    /// `(graph finalize epoch, semantics, plan)` — one cached optimized
    /// plan serving arbitrarily many parameter bindings.
    plan: PlanSlot,
    /// The abstract interpreter's result, which depends only on the
    /// AST: computed once per statement, read by every re-plan and every
    /// pre-admission gate.
    facts: Arc<OnceLock<QueryFacts>>,
}

/// Shared cache slot for the statement's one optimized plan, keyed on
/// the graph finalize epoch and semantics it was lowered under.
type PlanSlot = Arc<Mutex<Option<(u64, PathSemantics, Arc<QueryPlan>)>>>;

impl PreparedQuery {
    /// Parses `src` into a reusable handle. All lexer/parser rejections
    /// surface here; a successfully prepared query can still fail at
    /// run time (compile-stage name resolution happens against a graph).
    pub fn prepare(src: &str) -> Result<Self> {
        let query = crate::parser::parse_query(src)?;
        Ok(PreparedQuery {
            source: Arc::from(src),
            query: Arc::new(query),
            fingerprint: fingerprint(src),
            plan: Arc::new(Mutex::new(None)),
            facts: Arc::new(OnceLock::new()),
        })
    }

    /// Returns the cached optimized plan for `(epoch, semantics)`,
    /// building (and caching) it with `build` on the first call or when
    /// the graph has been re-finalized / the semantics changed since the
    /// cached plan was built. All clones of this handle share the slot.
    pub fn plan_for(
        &self,
        epoch: u64,
        semantics: PathSemantics,
        build: impl FnOnce() -> Arc<QueryPlan>,
    ) -> Arc<QueryPlan> {
        let mut slot = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((e, s, plan)) = slot.as_ref() {
            if *e == epoch && *s == semantics {
                return plan.clone();
            }
        }
        let plan = build();
        *slot = Some((epoch, semantics, plan.clone()));
        plan
    }

    /// Type-checks a set of parameter bindings against the declared
    /// parameters *before* execution, so servers can reject bad requests
    /// with a structured error (422) instead of a mid-query runtime
    /// failure. Mirrors the engine's binding rules: scalars must match
    /// their declared type (`INT` coerces to `DOUBLE` and `DATETIME`),
    /// `VERTEX` parameters need a vertex value, `SET<VERTEX>` needs a
    /// set. Extra bindings that name no declared parameter are rejected.
    pub fn check_args(&self, args: &[(&str, Value)]) -> std::result::Result<(), BindError> {
        for p in &self.query.params {
            let expected = param_type_label(&p.ty);
            let Some((_, v)) = args.iter().find(|(n, _)| *n == p.name) else {
                return Err(BindError {
                    param: p.name.clone(),
                    expected,
                    got: "(missing)".into(),
                    kind: BindErrorKind::Missing,
                });
            };
            let ok = match (&p.ty, v) {
                (ParamType::Vertex(_), Value::Vertex(_)) => true,
                (ParamType::VertexSet, Value::Set(_)) => true,
                (ParamType::Scalar(t), v) => {
                    use pgraph::value::ValueType;
                    matches!(
                        (t, v),
                        (ValueType::Bool, Value::Bool(_))
                            | (ValueType::Int, Value::Int(_))
                            | (ValueType::Double, Value::Double(_) | Value::Int(_))
                            | (ValueType::Str, Value::Str(_))
                            | (ValueType::DateTime, Value::DateTime(_) | Value::Int(_))
                    )
                }
                _ => false,
            };
            if !ok {
                return Err(BindError {
                    param: p.name.clone(),
                    expected,
                    got: value_label(v).into(),
                    kind: BindErrorKind::TypeMismatch,
                });
            }
        }
        for (n, v) in args {
            if !self.has_param(n) {
                return Err(BindError {
                    param: (*n).into(),
                    expected: "(none)".into(),
                    got: value_label(v).into(),
                    kind: BindErrorKind::Unknown,
                });
            }
        }
        Ok(())
    }

    /// The exact source text this handle was prepared from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed AST (accepted by [`crate::Engine::run`]).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The query's declared name.
    pub fn name(&self) -> &str {
        &self.query.name
    }

    /// The declared parameters, in order.
    pub fn params(&self) -> &[Param] {
        &self.query.params
    }

    /// `true` if the query declares a parameter called `name`.
    pub fn has_param(&self, name: &str) -> bool {
        self.query.params.iter().any(|p| p.name == name)
    }

    /// Human-readable `name(TYPE, ...)` signature line, used by the
    /// server's `/prepare` response.
    pub fn signature(&self) -> String {
        let params: Vec<String> = self
            .query
            .params
            .iter()
            .map(|p| format!("{} {}", p.name, param_type_label(&p.ty)))
            .collect();
        format!("{}({})", self.query.name, params.join(", "))
    }

    /// Stable FNV-1a fingerprint of the source text (plan-cache key /
    /// prepared-statement id).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Runs the static analyzer ([`crate::lint`]) over the prepared AST
    /// under the given ambient path semantics. Servers call this at
    /// prepare time to reject `Error`-severity queries before any
    /// execution budget is spent.
    pub fn diagnostics(
        &self,
        semantics: crate::PathSemantics,
    ) -> Vec<crate::lint::Diagnostic> {
        crate::lint::lint_query(&self.query, semantics)
    }

    /// Diagnostics together with the abstract-interpretation
    /// [`crate::lint::QueryFacts`] (pass 6) — one analysis run serving
    /// both the lint envelope and budget-aware admission gating.
    pub fn diagnostics_and_facts(
        &self,
        semantics: crate::PathSemantics,
    ) -> (Vec<crate::lint::Diagnostic>, crate::lint::QueryFacts) {
        crate::lint::lint_query_and_facts(
            &self.query,
            semantics,
            &accum::UserAccumRegistry::new(),
        )
    }

    /// The abstract-interpretation facts alone (no diagnostics),
    /// computed on the first call and cached beside the plan slot
    /// (clones share it) — what the server's per-request pre-admission
    /// gate and every re-plan read, under any semantics.
    pub fn facts(&self) -> &QueryFacts {
        self.facts.get_or_init(|| {
            crate::lint::compute_facts(&self.query, &accum::UserAccumRegistry::new())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_text_sensitive() {
        // Pinned value: the fingerprint is a wire-visible id, so it must
        // never drift across refactors.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint("SELECT a"), fingerprint("SELECT b"));
    }

    #[test]
    fn prepare_reports_parse_errors() {
        let e = PreparedQuery::prepare("CREATE QUERY broken (").unwrap_err();
        assert_eq!(e.kind(), crate::ErrorKind::Parse);
    }

    #[test]
    fn signature_renders_param_types() {
        let p = PreparedQuery::prepare(
            "CREATE QUERY q (INT n, VERTEX<Person> p, SET<VERTEX> seeds) { PRINT n; }",
        )
        .unwrap();
        assert_eq!(p.name(), "q");
        assert_eq!(p.signature(), "q(n INT, p VERTEX<Person>, seeds SET<VERTEX>)");
        assert!(p.has_param("seeds"));
        assert!(!p.has_param("missing"));
    }

    #[test]
    fn plan_slot_caches_per_epoch_and_semantics() {
        let p = PreparedQuery::prepare("CREATE QUERY q (INT n) { PRINT n; }").unwrap();
        let mk = || {
            Arc::new(crate::plan::lower_query(
                p.query(),
                PathSemantics::AllShortestPaths,
                None,
            ))
        };
        let a = p.plan_for(7, PathSemantics::AllShortestPaths, mk);
        // Same key: the builder must not run again.
        let b = p.plan_for(7, PathSemantics::AllShortestPaths, || {
            panic!("plan slot missed on identical key")
        });
        assert!(Arc::ptr_eq(&a, &b));
        // Clones share the slot.
        let c = p.clone().plan_for(7, PathSemantics::AllShortestPaths, || {
            panic!("clone does not share the plan slot")
        });
        assert!(Arc::ptr_eq(&a, &c));
        // New epoch or different semantics re-plan.
        let d = p.plan_for(8, PathSemantics::AllShortestPaths, mk);
        assert!(!Arc::ptr_eq(&a, &d));
        let e = p.plan_for(8, PathSemantics::NonRepeatedEdge, mk);
        assert!(!Arc::ptr_eq(&d, &e));
    }

    #[test]
    fn facts_are_computed_once_per_statement_and_shared_by_clones() {
        let p = PreparedQuery::prepare(
            "CREATE QUERY q () { SumAccum<int> @@n; S = SELECT v FROM V:v ACCUM @@n += 1; }",
        )
        .unwrap();
        let a = p.facts();
        assert!(a.blocks[0].accum_parallel);
        // Later calls, also through a clone: the cached analysis.
        assert!(std::ptr::eq(a, p.facts()));
        assert!(std::ptr::eq(a, p.clone().facts()));
        // The facts index the prepared AST's block ids, so plans lowered
        // from them find their blocks.
        let Some(crate::ast::Stmt::VSetAssign {
            source: crate::ast::VSetSource::Select(block), ..
        }) = p.query().body.get(1)
        else {
            panic!("unexpected AST shape");
        };
        assert_eq!(block.id, 0);
        assert!(a.blocks.get(block.id).is_some());
    }

    #[test]
    fn check_args_reports_structured_bind_errors() {
        let p = PreparedQuery::prepare(
            "CREATE QUERY q (INT n, DOUBLE x, VERTEX<Person> v) { PRINT n; }",
        )
        .unwrap();
        let person = Value::Vertex(pgraph::VertexId(0));
        // All bound, with Int→Double coercion: OK.
        p.check_args(&[("n", Value::Int(1)), ("x", Value::Int(2)), ("v", person.clone())])
            .unwrap();
        // Missing param.
        let e = p.check_args(&[("n", Value::Int(1))]).unwrap_err();
        assert_eq!(e.kind, BindErrorKind::Missing);
        assert_eq!(e.param, "x");
        assert_eq!(e.expected, "DOUBLE");
        // Scalar type mismatch.
        let e = p
            .check_args(&[
                ("n", Value::Str("nope".into())),
                ("x", Value::Double(0.5)),
                ("v", person.clone()),
            ])
            .unwrap_err();
        assert_eq!(e.kind, BindErrorKind::TypeMismatch);
        assert_eq!(e.param, "n");
        assert_eq!(e.got, "STRING");
        // Vertex param needs a vertex.
        let e = p
            .check_args(&[
                ("n", Value::Int(1)),
                ("x", Value::Double(0.5)),
                ("v", Value::Int(3)),
            ])
            .unwrap_err();
        assert_eq!(e.kind, BindErrorKind::TypeMismatch);
        assert_eq!(e.param, "v");
        assert_eq!(e.expected, "VERTEX<Person>");
        // Unknown extra binding.
        let e = p
            .check_args(&[
                ("n", Value::Int(1)),
                ("x", Value::Double(0.5)),
                ("v", person),
                ("zz", Value::Int(9)),
            ])
            .unwrap_err();
        assert_eq!(e.kind, BindErrorKind::Unknown);
        assert_eq!(e.param, "zz");
    }
}
