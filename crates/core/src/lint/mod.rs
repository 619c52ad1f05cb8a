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
pub(crate) use absint::own_target_reads;

use crate::ast::{
    AccStmt, AccumDecl, Expr, FromItem, PrintItem, Query, SelectBlock, Span, Stmt, VSetSource,
};
use crate::semantics::PathSemantics;
use accum::{AccumType, UserAccumRegistry};

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
/// point. The facts read declarations, never the path semantics, so one
/// analysis serves a query under every semantics.
pub fn compute_facts(q: &Query, registry: &UserAccumRegistry) -> QueryFacts {
    let cx = Ctx::build(q, PathSemantics::AllShortestPaths, registry);
    let mut diags = Vec::new();
    absint::run(&cx, &mut diags)
}

/// What can reach a statement, in the order the walk first reached it:
/// the path semantics it can run under, each with whether an inline
/// `USE SEMANTICS` statement set it (vs. the engine's ambient default),
/// and the accumulator declarations that can be in force there, each as
/// `(name, global, type)`. `must` holds the `(name, global)` accumulators
/// a declaration is in force for on *every* path there: a name `decls`
/// holds and `must` lacks is reached by some path with no declaration in
/// force (one in an IF branch that may not run, or in a loop body that
/// may run zero times).
#[derive(Clone)]
pub(crate) struct Reach<'a> {
    pub semantics: Vec<(PathSemantics, bool)>,
    pub decls: Vec<(&'a str, bool, &'a AccumType)>,
    pub must: Vec<(&'a str, bool)>,
}

impl<'a> Reach<'a> {
    /// Joins what reaches along `from` into `self`: adds the semantics and
    /// declarations `from` holds and `self` lacks, and keeps in `must`
    /// only what both have. `true` when anything changed.
    fn union(&mut self, from: &Reach<'a>) -> bool {
        let must = self.must.len();
        self.must.retain(|m| from.must.contains(m));
        union_into(&mut self.semantics, &from.semantics)
            | union_into(&mut self.decls, &from.decls)
            | (self.must.len() < must)
    }

    /// Whether a declaration of `@name` (`@@name` when `global`) is in
    /// force on every path here.
    pub fn declared_on_every_path(&self, name: &str, global: bool) -> bool {
        self.must.contains(&(name, global))
    }

    /// The types `@name` (`@@name` when `global`) can have here: one per
    /// declaration that can be in force, none when no declaration reaches.
    pub fn types<'s>(&'s self, name: &'s str, global: bool) -> impl Iterator<Item = &'a AccumType> + 's {
        self.decls.iter().filter(move |&&(n, g, _)| (n, g) == (name, global)).map(|d| d.2)
    }
}

/// One SELECT block together with everything that can reach it.
pub(crate) struct BlockCtx<'a> {
    pub block: &'a SelectBlock,
    pub reach: Reach<'a>,
}

/// A statement-level expression together with what can reach it: a
/// declarator's initializer, the value of `@@a = e` / `@@a += e`, a
/// WHILE/IF/FOREACH condition, a PRINT item, a RETURN value or a
/// mutation expression.
pub(crate) struct SiteCtx<'a> {
    pub expr: &'a Expr,
    pub sink: Sink<'a>,
    /// The nearest enclosing spanned construct.
    pub span: Span,
    pub reach: Reach<'a>,
}

/// Where a statement-level value goes.
#[derive(Clone, Copy)]
pub(crate) enum Sink<'a> {
    /// Into no accumulator.
    Read,
    /// Into `@@name`, as whichever declaration reaches the statement.
    Global(&'a str),
    /// Into the declarator it initializes, as its own type.
    Init(&'a AccumType, &'a AccumDecl),
}

/// Shared analysis context built once per lint run. [`Ctx::collect`] is
/// the one place that decides which accumulator declarations are in
/// force where; every pass reads the [`Reach`] it recorded.
pub(crate) struct Ctx<'a> {
    pub q: &'a Query,
    pub registry: &'a UserAccumRegistry,
    /// Every accumulator declarator, once each, in source order (nested
    /// ones included).
    pub decls: Vec<(&'a AccumType, &'a AccumDecl)>,
    /// Every SELECT block, once each, in source order, so
    /// `blocks[i].block.id == i`.
    pub blocks: Vec<BlockCtx<'a>>,
    /// Every statement-level expression, once each, in source order.
    pub sites: Vec<SiteCtx<'a>>,
}

impl<'a> Ctx<'a> {
    fn build(q: &'a Query, ambient: PathSemantics, registry: &'a UserAccumRegistry) -> Ctx<'a> {
        let mut cx = Ctx::empty(q, registry);
        let mut reach =
            Reach { semantics: vec![(ambient, false)], decls: Vec::new(), must: Vec::new() };
        cx.collect(&q.body, &mut reach, Span::default());
        cx
    }

    fn empty(q: &'a Query, registry: &'a UserAccumRegistry) -> Ctx<'a> {
        Ctx { q, registry, decls: Vec::new(), blocks: Vec::new(), sites: Vec::new() }
    }

    /// What reaches block `b`.
    pub fn reach_of(&self, b: &SelectBlock) -> &Reach<'a> {
        &self.blocks[b.id].reach
    }

    /// Walks statements in execution order, recording what reaches each
    /// block and statement-level expression, and threading it as the
    /// executor runs them: a `USE SEMANTICS` or an accumulator
    /// declaration holds for everything after it until the next one
    /// replaces it. Each IF branch starts from what reached the IF, and
    /// either branch's exit may hold after it. A loop body is walked
    /// once, from what holds at the loop head (see [`Ctx::loop_head`]).
    /// `outer` is the span of the nearest enclosing spanned construct.
    fn collect(&mut self, stmts: &'a [Stmt], reach: &mut Reach<'a>, outer: Span) {
        for stmt in stmts {
            match stmt {
                Stmt::AccumDecl { ty, decls } => {
                    for d in decls {
                        self.decls.push((ty, d));
                        if let Some(init) = &d.init {
                            self.site(init, Sink::Init(ty, d), d.span, reach);
                        }
                        reach.decls.retain(|&(n, g, _)| (n, g) != (d.name.as_str(), d.global));
                        reach.decls.push((&d.name, d.global, ty));
                        union_into(&mut reach.must, &[(d.name.as_str(), d.global)]);
                    }
                }
                Stmt::UseSemantics(s) => reach.semantics = vec![(*s, true)],
                Stmt::Select(b) | Stmt::VSetAssign { source: VSetSource::Select(b), .. } => {
                    self.blocks.push(BlockCtx { block: b, reach: reach.clone() })
                }
                Stmt::GAccAssign { name, expr, span, .. } => {
                    self.site(expr, Sink::Global(name), *span, reach)
                }
                Stmt::While { cond, limit, body, span, .. } => {
                    if let Some(l) = limit {
                        self.site(l, Sink::Read, *span, reach);
                    }
                    self.loop_head(body, reach, *span);
                    self.site(cond, Sink::Read, *span, reach);
                    self.collect(body, &mut reach.clone(), *span);
                }
                Stmt::Foreach { iterable, body, .. } => {
                    self.site(iterable, Sink::Read, outer, reach);
                    self.loop_head(body, reach, outer);
                    self.collect(body, &mut reach.clone(), outer);
                }
                Stmt::If { cond, then_branch, else_branch } => {
                    self.site(cond, Sink::Read, outer, reach);
                    let mut then_exit = reach.clone();
                    self.collect(then_branch, &mut then_exit, outer);
                    self.collect(else_branch, reach, outer);
                    reach.union(&then_exit);
                }
                _ => output_exprs(stmt, &mut |e, span| self.site(e, Sink::Read, span, reach)),
            }
        }
    }

    /// Grows `reach` to what holds at the head of a loop over `body`. The
    /// body runs zero or more times, so it is walked, recording nothing,
    /// until what it starts from — the loop's entry plus the body's own
    /// exits — stops growing.
    fn loop_head(&self, body: &'a [Stmt], reach: &mut Reach<'a>, outer: Span) {
        loop {
            let mut exit = reach.clone();
            Ctx::empty(self.q, self.registry).collect(body, &mut exit, outer);
            if !reach.union(&exit) {
                break;
            }
        }
    }

    fn site(&mut self, expr: &'a Expr, sink: Sink<'a>, span: Span, reach: &Reach<'a>) {
        self.sites.push(SiteCtx { expr, sink, span, reach: reach.clone() });
    }
}

/// Adds the members of `from` that `set` lacks; `true` when it grew.
fn union_into<T: PartialEq + Copy>(set: &mut Vec<T>, from: &[T]) -> bool {
    let before = set.len();
    for s in from {
        if !set.contains(s) {
            set.push(*s);
        }
    }
    set.len() > before
}

// ---- expression walkers -------------------------------------------------
//
// The passes share one recursive statement walker that surfaces every
// top-level expression together with the span of the nearest enclosing
// spanned construct (SELECT block, WHILE, vertex-set assignment,
// accumulator declarator, PRINT, RETURN, `@@` assignment, mutation).
// Sub-expressions are reached via `Expr::walk`.

/// Visits every top-level expression of a SELECT block. `f` receives the
/// expression and the block's span.
pub(crate) fn block_exprs<'e>(b: &'e SelectBlock, f: &mut impl FnMut(&'e Expr, Span)) {
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

fn acc_stmt_expr<'e>(s: &'e AccStmt, span: Span, f: &mut impl FnMut(&'e Expr, Span)) {
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
            Stmt::Select(b) | Stmt::VSetAssign { source: VSetSource::Select(b), .. } => {
                block_exprs(b, f)
            }
            Stmt::GAccAssign { expr, span, .. } => f(expr, *span),
            Stmt::While { cond, limit, body, span, .. } => {
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
            _ => output_exprs(stmt, f),
        }
    }
}

/// Visits the expressions of a PRINT, RETURN or mutation statement, each
/// with its statement's own span; other statements have none here.
fn output_exprs<'e>(stmt: &'e Stmt, f: &mut impl FnMut(&'e Expr, Span)) {
    match stmt {
        Stmt::Print { items, span } => {
            for item in items {
                match item {
                    PrintItem::Expr { expr, .. } => f(expr, *span),
                    PrintItem::VSetProjection { items, .. } => {
                        for it in items {
                            f(&it.expr, *span);
                        }
                    }
                }
            }
        }
        Stmt::Return { expr, span } => f(expr, *span),
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
        Stmt::Delete { where_clause: Some(w), span, .. } => f(w, *span),
        _ => {}
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
