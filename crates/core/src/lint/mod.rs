//! `gsql check` — a multi-pass static analyzer for GSQL queries.
//!
//! The paper's aggregation story rests on invariants the grammar cannot
//! express: ACCUM runs under snapshot Map/Reduce semantics, so its
//! writes must be commutative-associative combines (Sections 3–4); and
//! all-shortest-paths legality is what lets the engine *count* paths
//! instead of enumerating them (Theorems 6.1/7.1). This module checks
//! those invariants — plus ordinary hygiene — *before* execution and
//! reports structured [`Diagnostic`]s with stable rule codes.
//!
//! Six passes (catalog with examples in `docs/LINTS.md`):
//!
//! | pass | codes | checks |
//! |------|-------|--------|
//! | dataflow | `A001`–`A006` | accumulator read/write dataflow: unread/unwritten accumulators, order-dependent `=` writes in ACCUM, global assignment races, no-effect snapshot reads, undeclared names |
//! | typecheck | `T001`–`T003` | combine operand vs. element type, lossy numeric literals, Min/Max over unordered values |
//! | tractability | `P001`–`P004` | Kleene patterns under enumerative semantics (Theorem 7.1), edge variables inside Kleene scope, multiplicity-sensitive accumulators under counting, per-hop fan-out estimates |
//! | hygiene | `H001`–`H004` | unused vertex sets, shadowed names, constant-false WHERE, loop-invariant WHILE conditions |
//! | mutation | `M001` | DELETE statements with no WHERE clause (full-wipe hazard) |
//! | absint | `D001`–`D004` | abstract interpretation (pass 6): proven-false WHERE intervals, provably non-terminating WHILE, guaranteed budget trips, order-dependent ACCUM combines — and the [`QueryFacts`] proofs the planner/executor/server consume |
//!
//! Entry points: [`lint_query`] (default accumulator registry) and
//! [`lint_query_with`] (engine-supplied registry, used by
//! [`crate::Engine::check`]). Severity semantics: `Error` findings are
//! queries the service refuses at prepare time (nondeterministic or
//! intractable), `Warn` are likely mistakes, `Info` is advisory.

mod absint;
mod dataflow;
mod diag;
pub mod facts;
mod hygiene;
mod mutation;
mod tractability;
mod typecheck;

pub use diag::{
    caret_snippet, has_errors, render_error_snippet, render_json, render_text, Diagnostic,
    Severity,
};
pub use facts::{budget_findings, BlockFacts, LoopBound, LoopFacts, QueryFacts};
pub(crate) use absint::reads_own_target;

use crate::ast::{
    AccStmt, AccumDecl, Expr, FromItem, PrintItem, Query, SelectBlock, Span, Stmt, VSetSource,
};
use crate::semantics::PathSemantics;
use accum::{AccumType, UserAccumRegistry};
use pgraph::fxhash::FxHashMap;

/// Lints a parsed query under `ambient` path semantics with an empty
/// user-accumulator registry.
///
/// `ambient` is the semantics the engine would start the query with
/// (`USE SEMANTICS` statements inside the query override it from that
/// point on, exactly as execution does).
pub fn lint_query(q: &Query, ambient: PathSemantics) -> Vec<Diagnostic> {
    lint_query_with(q, ambient, &UserAccumRegistry::new())
}

/// Lints a parsed query with the given user-accumulator registry (the
/// registry decides order-invariance/multiplicity properties of
/// [`AccumType::User`] accumulators, rule `P003`).
pub fn lint_query_with(
    q: &Query,
    ambient: PathSemantics,
    registry: &UserAccumRegistry,
) -> Vec<Diagnostic> {
    lint_query_and_facts(q, ambient, registry).0
}

/// Lints a parsed query and returns the diagnostics together with the
/// abstract-interpretation [`QueryFacts`] (pass 6) — the form consumed
/// by the shell's `CHECK`, `POST /lint` and the server admission gate.
pub fn lint_query_and_facts(
    q: &Query,
    ambient: PathSemantics,
    registry: &UserAccumRegistry,
) -> (Vec<Diagnostic>, QueryFacts) {
    let cx = Ctx::build(q, ambient, registry);
    let mut diags = Vec::new();
    // Pass 6 runs first: its facts feed the dataflow pass (proven
    // row-invariant `=` writes are exempt from the A003/A004 races).
    let facts = absint::run(&cx, &mut diags);
    dataflow::run(&cx, &facts, &mut diags);
    typecheck::run(&cx, &mut diags);
    tractability::run(&cx, &mut diags);
    hygiene::run(&cx, &mut diags);
    mutation::run(&q.body, &mut diags);
    // Deterministic order: by source position, then rule code.
    diags.sort_by(|a, b| {
        (a.span.line, a.span.col, a.code).cmp(&(b.span.line, b.span.col, b.code))
    });
    (diags, facts)
}

/// Computes [`QueryFacts`] alone (no diagnostics) — the planner's entry
/// point.
pub fn compute_facts(
    q: &Query,
    ambient: PathSemantics,
    registry: &UserAccumRegistry,
) -> QueryFacts {
    let cx = Ctx::build(q, ambient, registry);
    let mut diags = Vec::new();
    absint::run(&cx, &mut diags)
}

/// One declared accumulator.
pub(crate) struct AccInfo<'a> {
    pub ty: &'a AccumType,
    pub init: Option<&'a Expr>,
    pub span: Span,
}

/// One SELECT block together with the path semantics in force when it
/// executes and whether that semantics was set by an inline
/// `USE SEMANTICS` statement (vs. the engine's ambient default).
pub(crate) struct BlockCtx<'a> {
    pub block: &'a SelectBlock,
    pub semantics: PathSemantics,
    pub inline_semantics: bool,
}

/// Shared analysis context built once per lint run.
pub(crate) struct Ctx<'a> {
    pub q: &'a Query,
    pub registry: &'a UserAccumRegistry,
    pub vaccs: FxHashMap<&'a str, AccInfo<'a>>,
    pub gaccs: FxHashMap<&'a str, AccInfo<'a>>,
    pub blocks: Vec<BlockCtx<'a>>,
}

impl<'a> Ctx<'a> {
    fn build(q: &'a Query, ambient: PathSemantics, registry: &'a UserAccumRegistry) -> Ctx<'a> {
        let mut cx = Ctx {
            q,
            registry,
            vaccs: FxHashMap::default(),
            gaccs: FxHashMap::default(),
            blocks: Vec::new(),
        };
        let mut sem = (ambient, false);
        cx.collect(&q.body, &mut sem);
        cx
    }

    /// Walks statements in execution order, threading the effective path
    /// semantics the way the executor does (a `USE SEMANTICS` statement
    /// affects everything after it, including loop bodies).
    fn collect(&mut self, stmts: &'a [Stmt], sem: &mut (PathSemantics, bool)) {
        for stmt in stmts {
            match stmt {
                Stmt::AccumDecl { ty, decls } => {
                    for d in decls {
                        let info = AccInfo { ty, init: d.init.as_ref(), span: d.span };
                        if d.global {
                            self.gaccs.insert(&d.name, info);
                        } else {
                            self.vaccs.insert(&d.name, info);
                        }
                    }
                }
                Stmt::UseSemantics(s) => *sem = (*s, true),
                Stmt::VSetAssign { source: VSetSource::Select(b), .. } => {
                    self.push_block(b, sem)
                }
                Stmt::Select(b) => self.push_block(b, sem),
                Stmt::While { body, .. } | Stmt::Foreach { body, .. } => self.collect(body, sem),
                Stmt::If { then_branch, else_branch, .. } => {
                    self.collect(then_branch, sem);
                    self.collect(else_branch, sem);
                }
                _ => {}
            }
        }
    }

    fn push_block(&mut self, b: &'a SelectBlock, sem: &(PathSemantics, bool)) {
        self.blocks.push(BlockCtx { block: b, semantics: sem.0, inline_semantics: sem.1 });
    }
}

/// Per-declarator view of accumulator declarations, in source order.
pub(crate) fn accum_decls(q: &Query) -> impl Iterator<Item = (&AccumType, &AccumDecl)> {
    q.body.iter().filter_map(|s| match s {
        Stmt::AccumDecl { ty, decls } => Some(decls.iter().map(move |d| (ty, d))),
        _ => None,
    })
    .flatten()
}

// ---- expression walkers -------------------------------------------------
//
// The passes share one recursive statement walker that surfaces every
// top-level expression together with the span of the nearest enclosing
// spanned construct (SELECT block, WHILE, vertex-set assignment,
// accumulator declarator). Sub-expressions are reached via `Expr::walk`.

/// Visits every top-level expression of a SELECT block. `f` receives the
/// expression and the block's span.
pub(crate) fn block_exprs(b: &SelectBlock, f: &mut impl FnMut(&Expr, Span)) {
    for frag in &b.outputs {
        for it in &frag.items {
            f(&it.expr, b.span);
        }
    }
    if let Some(w) = &b.where_clause {
        f(w, b.span);
    }
    for s in b.accum.iter().chain(&b.post_accum) {
        acc_stmt_expr(s, b.span, f);
    }
    if let Some(g) = &b.group_by {
        for k in &g.keys {
            f(k, b.span);
        }
    }
    if let Some(h) = &b.having {
        f(h, b.span);
    }
    for o in &b.order_by {
        f(&o.expr, b.span);
    }
    if let Some(l) = &b.limit {
        f(l, b.span);
    }
}

fn acc_stmt_expr(s: &AccStmt, span: Span, f: &mut impl FnMut(&Expr, Span)) {
    match s {
        AccStmt::LocalDecl { expr, .. }
        | AccStmt::VAcc { expr, .. }
        | AccStmt::GAcc { expr, .. } => f(expr, span),
    }
}

/// Visits every top-level expression in the query, threading the nearest
/// enclosing span.
pub(crate) fn query_exprs(q: &Query, f: &mut impl FnMut(&Expr, Span)) {
    stmts_exprs(&q.body, Span::default(), f);
}

fn stmts_exprs(stmts: &[Stmt], outer: Span, f: &mut impl FnMut(&Expr, Span)) {
    for stmt in stmts {
        match stmt {
            Stmt::AccumDecl { decls, .. } => {
                for d in decls {
                    if let Some(init) = &d.init {
                        f(init, d.span);
                    }
                }
            }
            Stmt::TupleTypedef { .. } | Stmt::UseSemantics(_) => {}
            Stmt::VSetAssign { source: VSetSource::Select(b), .. } => block_exprs(b, f),
            Stmt::VSetAssign { .. } => {}
            Stmt::Select(b) => block_exprs(b, f),
            Stmt::GAccAssign { expr, .. } => f(expr, outer),
            Stmt::While { cond, limit, body, span } => {
                f(cond, *span);
                if let Some(l) = limit {
                    f(l, *span);
                }
                stmts_exprs(body, *span, f);
            }
            Stmt::If { cond, then_branch, else_branch } => {
                f(cond, outer);
                stmts_exprs(then_branch, outer, f);
                stmts_exprs(else_branch, outer, f);
            }
            Stmt::Foreach { iterable, body, .. } => {
                f(iterable, outer);
                stmts_exprs(body, outer, f);
            }
            Stmt::Print(items) => {
                for item in items {
                    match item {
                        PrintItem::Expr { expr, .. } => f(expr, outer),
                        PrintItem::VSetProjection { items, .. } => {
                            for it in items {
                                f(&it.expr, outer);
                            }
                        }
                    }
                }
            }
            Stmt::Return(e) => f(e, outer),
            Stmt::InsertVertex { values, span, .. } => {
                for e in values {
                    f(e, *span);
                }
            }
            Stmt::InsertEdge { src, dst, values, span, .. } => {
                f(src, *span);
                f(dst, *span);
                for e in values {
                    f(e, *span);
                }
            }
            Stmt::Update { sets, where_clause, span, .. } => {
                for (_, _, e) in sets {
                    f(e, *span);
                }
                if let Some(w) = where_clause {
                    f(w, *span);
                }
            }
            Stmt::Delete { where_clause, span, .. } => {
                if let Some(w) = where_clause {
                    f(w, *span);
                }
            }
        }
    }
}

/// The single binding variable of a block that is guaranteed to bind each
/// vertex **at most once per Map phase** — only a hopless single-pattern
/// FROM (a pure vertex-set scan) provides that guarantee. Used to decide
/// when `v.@a = e` inside ACCUM is deterministic (rule `A003`).
pub(crate) fn unique_binding_var(b: &SelectBlock) -> Option<&str> {
    match b.from.as_slice() {
        [FromItem::Table { alias, .. }] => Some(alias),
        [FromItem::Pattern { start, hops, .. }] if hops.is_empty() => start.var.as_deref(),
        _ => None,
    }
}
