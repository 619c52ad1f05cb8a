//! Pass 1 — accumulator dataflow (`A001`–`A006`).
//!
//! ACCUM executes under snapshot Map/Reduce semantics (paper Section 4):
//! the Map phase emits messages against a frozen snapshot, the Reduce
//! phase folds them with the accumulator's combiner. That model makes
//! `+=` order-insensitive — and makes plain `=` writes from multiple
//! binding rows *order-dependent*, which is the central hazard this
//! pass hunts.

use super::facts::QueryFacts;
use super::{query_exprs, unique_binding_var, Ctx, Diagnostic};
use crate::ast::{AccStmt, Expr, Span, Stmt};
use pgraph::fxhash::FxHashMap;

pub(super) fn run(cx: &Ctx, facts: &QueryFacts, out: &mut Vec<Diagnostic>) {
    // ---- read/write sets over the whole query --------------------------
    let mut vacc_reads: FxHashMap<String, Span> = FxHashMap::default();
    let mut gacc_reads: FxHashMap<String, Span> = FxHashMap::default();
    query_exprs(cx.q, &mut |e, span| {
        e.walk(&mut |e| match e {
            Expr::VAcc { name, .. } => {
                vacc_reads.entry(name.clone()).or_insert(span);
            }
            Expr::GAcc(name) => {
                gacc_reads.entry(name.clone()).or_insert(span);
            }
            _ => {}
        });
    });
    let mut vacc_writes: FxHashMap<String, Span> = FxHashMap::default();
    let mut gacc_writes: FxHashMap<String, Span> = FxHashMap::default();
    // Statement-level assignment can only target global accumulators;
    // vertex-accumulator writes happen inside blocks (folded in below).
    collect_writes(&cx.q.body, Span::default(), &mut gacc_writes);
    for bc in &cx.blocks {
        for s in bc.block.accum.iter().chain(&bc.block.post_accum) {
            match s {
                AccStmt::VAcc { name, .. } => {
                    vacc_writes.entry(name.clone()).or_insert(bc.block.span);
                }
                AccStmt::GAcc { name, .. } => {
                    gacc_writes.entry(name.clone()).or_insert(bc.block.span);
                }
                AccStmt::LocalDecl { .. } => {}
            }
        }
    }

    // ---- A001 written-never-read / declared-never-used ------------------
    // ---- A002 read-never-written (and no initializer) -------------------
    for (global, decls, reads, writes) in [
        (false, &cx.vaccs, &vacc_reads, &vacc_writes),
        (true, &cx.gaccs, &gacc_reads, &gacc_writes),
    ] {
        let sigil = if global { "@@" } else { "@" };
        for (name, info) in decls.iter() {
            let read = reads.contains_key(*name);
            let written = writes.contains_key(*name);
            if !read {
                let msg = if written {
                    format!(
                        "accumulator `{sigil}{name}` is written but its value is never read; \
                         the aggregation result is discarded"
                    )
                } else {
                    format!("accumulator `{sigil}{name}` is declared but never used")
                };
                out.push(Diagnostic::warn("A001", info.span, msg));
            } else if !written && info.init.is_none() {
                out.push(Diagnostic::warn(
                    "A002",
                    info.span,
                    format!(
                        "accumulator `{sigil}{name}` is read but never written and has no \
                         initializer; every read yields the type's default value"
                    ),
                ));
            }
        }
    }

    // ---- A006 undeclared accumulator references -------------------------
    // One report per name, whether the reference is a read or a write.
    let mut refs: Vec<(bool, &str, Span)> = Vec::new();
    for (name, span) in vacc_reads.iter().chain(&vacc_writes) {
        if !cx.vaccs.contains_key(name.as_str()) {
            refs.push((false, name, *span));
        }
    }
    for (name, span) in gacc_reads.iter().chain(&gacc_writes) {
        if !cx.gaccs.contains_key(name.as_str()) {
            refs.push((true, name, *span));
        }
    }
    refs.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    refs.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
    for (global, name, span) in refs {
        let sigil = if global { "@@" } else { "@" };
        out.push(Diagnostic::error(
            "A006",
            span,
            format!("reference to undeclared accumulator `{sigil}{name}`"),
        ));
    }

    // ---- per-block rules A003/A004/A005 ---------------------------------
    for bc in &cx.blocks {
        let safe_var = unique_binding_var(bc.block);
        // Pass 6 exemption: an `=` write whose RHS is proven
        // row-invariant assigns the same value from every binding row,
        // so the "arbitrary last writer" is no hazard — the proven
        // parallel gate even folds such clauses in parallel.
        let row_invariant = |idx: usize| {
            facts
                .blocks
                .get(bc.block.id)
                .is_some_and(|f| f.accum_row_invariant.get(idx).copied().unwrap_or(false))
        };
        for (idx, s) in bc.block.accum.iter().enumerate() {
            match s {
                AccStmt::VAcc { var, name, combine: false, .. }
                    if safe_var != Some(var.as_str()) && !row_invariant(idx) =>
                {
                    out.push(
                        Diagnostic::error(
                            "A003",
                            bc.block.span,
                            format!(
                                "`{var}.@{name} = ...` inside ACCUM: the Map phase delivers \
                                 one message per binding row, and `{var}` can be reached by \
                                 multiple rows, so plain assignment keeps an arbitrary \
                                 last-writer value (order-dependent under snapshot \
                                 Map/Reduce, paper Section 4)"
                            ),
                        )
                        .with_suggestion(format!(
                            "combine with `{var}.@{name} += ...` (deterministic reduce), or \
                             assign in POST_ACCUM where each vertex is visited exactly once"
                        )),
                    );
                }
                AccStmt::GAcc { name, combine: false, .. } if !row_invariant(idx) => {
                    out.push(
                        Diagnostic::warn(
                            "A004",
                            bc.block.span,
                            format!(
                                "`@@{name} = ...` inside ACCUM races under the parallel Map \
                                 phase: concurrent binding rows overwrite each other in \
                                 arbitrary order"
                            ),
                        )
                        .with_suggestion(format!(
                            "combine with `@@{name} += ...`, or assign at statement level \
                             outside the SELECT block"
                        )),
                    );
                }
                _ => {}
            }
        }
        // A005: a `v.@a'` snapshot read in a block that never writes @a —
        // the snapshot equals the live value, so the apostrophe has no
        // effect and likely signals a misunderstanding.
        let mut written_here: Vec<&str> = Vec::new();
        for s in bc.block.accum.iter().chain(&bc.block.post_accum) {
            if let AccStmt::VAcc { name, .. } = s {
                written_here.push(name);
            }
        }
        let mut seen_prev: Vec<String> = Vec::new();
        super::block_exprs(bc.block, &mut |e, span| {
            e.walk(&mut |e| {
                if let Expr::VAcc { name, prev: true, .. } = e {
                    if !written_here.iter().any(|w| w == name)
                        && !seen_prev.iter().any(|s| s == name)
                    {
                        seen_prev.push(name.clone());
                        out.push(Diagnostic::info(
                            "A005",
                            span,
                            format!(
                                "snapshot read `@{name}'` in a block that never writes \
                                 `@{name}`: the pre-block snapshot equals the live value, \
                                 so the apostrophe has no effect"
                            ),
                        ));
                    }
                }
            });
        });
    }
}

fn collect_writes(stmts: &[Stmt], outer: Span, gacc: &mut FxHashMap<String, Span>) {
    for stmt in stmts {
        match stmt {
            Stmt::GAccAssign { name, .. } => {
                gacc.entry(name.clone()).or_insert(outer);
            }
            Stmt::While { body, span, .. } => collect_writes(body, *span, gacc),
            Stmt::Foreach { body, .. } => collect_writes(body, outer, gacc),
            Stmt::If { then_branch, else_branch, .. } => {
                collect_writes(then_branch, outer, gacc);
                collect_writes(else_branch, outer, gacc);
            }
            _ => {}
        }
    }
}
