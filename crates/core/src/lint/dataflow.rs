//! Pass 1 — accumulator dataflow (`A001`–`A006`).
//!
//! ACCUM executes under snapshot Map/Reduce semantics (paper Section 4):
//! the Map phase emits messages against a frozen snapshot, the Reduce
//! phase folds them with the accumulator's combiner. That model makes
//! `+=` order-insensitive — and makes plain `=` writes from multiple
//! binding rows *order-dependent*, which is the central hazard this
//! pass hunts.

use super::facts::QueryFacts;
use super::{unique_binding_var, Ctx, Diagnostic, Reach, Sink};
use crate::ast::{AccStmt, Expr, Span};
use pgraph::fxhash::FxHashSet;

pub(super) fn run<'a>(cx: &Ctx<'a>, facts: &QueryFacts, out: &mut Vec<Diagnostic>) {
    // ---- read/write sets, and references a declaration may not reach ---
    // Keyed `(global, name)`. `unreached` marks whether no declaration
    // reaches the reference at all (else one reaches on some paths only).
    let mut reads: FxHashSet<(bool, &str)> = FxHashSet::default();
    let mut writes: FxHashSet<(bool, &str)> = FxHashSet::default();
    let mut unreached: Vec<(bool, &str, bool, Span)> = Vec::new();
    let mut note = |write: bool, key: (bool, &'a str), reach: &Reach, span: Span| {
        if !reach.declared_on_every_path(key.1, key.0) {
            let none = reach.types(key.1, key.0).next().is_none();
            unreached.push((key.0, key.1, none, span));
        }
        if write { &mut writes } else { &mut reads }.insert(key);
    };
    for bc in &cx.blocks {
        super::block_exprs(bc.block, &mut |e, span| {
            e.walk(&mut |e| match e {
                Expr::VAcc { name, .. } => note(false, (false, name), &bc.reach, span),
                Expr::GAcc(name) => note(false, (true, name), &bc.reach, span),
                _ => {}
            })
        });
        for s in bc.block.accum.iter().chain(&bc.block.post_accum) {
            match s {
                AccStmt::VAcc { name, .. } => note(true, (false, name), &bc.reach, bc.block.span),
                AccStmt::GAcc { name, .. } => note(true, (true, name), &bc.reach, bc.block.span),
                AccStmt::LocalDecl { .. } => {}
            }
        }
    }
    for site in &cx.sites {
        site.expr.walk(&mut |e| match e {
            Expr::VAcc { name, .. } => note(false, (false, name), &site.reach, site.span),
            Expr::GAcc(name) => note(false, (true, name), &site.reach, site.span),
            _ => {}
        });
        if let Sink::Global(name) = site.sink {
            note(true, (true, name), &site.reach, site.span);
        }
    }

    // ---- A001 written-never-read / declared-never-used ------------------
    // ---- A002 read-never-written (and no initializer) -------------------
    // One report per name, at its last declarator.
    let mut reported: FxHashSet<(bool, &str)> = FxHashSet::default();
    for &(_, d) in cx.decls.iter().rev() {
        let (sigil, name, key) = (if d.global { "@@" } else { "@" }, &d.name, (d.global, d.name.as_str()));
        if !reported.insert(key) {
            continue;
        }
        let written = writes.contains(&key);
        if !reads.contains(&key) {
            let msg = if written {
                format!(
                    "accumulator `{sigil}{name}` is written but its value is never read; \
                     the aggregation result is discarded"
                )
            } else {
                format!("accumulator `{sigil}{name}` is declared but never used")
            };
            out.push(Diagnostic::warn("A001", d.span, msg));
        } else if !written && d.init.is_none() {
            out.push(Diagnostic::warn(
                "A002",
                d.span,
                format!(
                    "accumulator `{sigil}{name}` is read but never written and has no \
                     initializer; every read yields the type's default value"
                ),
            ));
        }
    }

    // ---- A006 references a declaration may not reach -------------------
    // One report per name: an error at its first reference no declaration
    // reaches, else a warning at its first reference some path reaches
    // with no declaration in force (blocks first).
    unreached.sort_by_key(|&(global, name, none, _)| (global, name, !none));
    unreached.dedup_by_key(|&mut (global, name, _, _)| (global, name));
    for (global, name, none, span) in unreached {
        let sigil = if global { "@@" } else { "@" };
        out.push(if none {
            let msg = format!("reference to undeclared accumulator `{sigil}{name}`");
            Diagnostic::error("A006", span, msg)
        } else {
            Diagnostic::warn(
                "A006",
                span,
                format!(
                    "accumulator `{sigil}{name}` may be undeclared here: a declaration reaches \
                     this reference on some paths only, so a run that takes another path fails"
                ),
            )
        });
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
