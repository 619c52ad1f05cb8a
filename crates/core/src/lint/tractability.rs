//! Pass 3 — tractability analysis (`P001`–`P004`).
//!
//! The static mirror of [`crate::tractable::check_block`], run before an
//! engine exists. Theorem 7.1: aggregation over Kleene patterns is
//! polynomial exactly when legal paths are all-shortest-paths (so the
//! kernel counts) and the accumulators absorb multiplicities; every
//! enumerative semantics pays worst-case exponential path
//! materialization for the same query text.

use super::{Ctx, Diagnostic};
use crate::ast::{FromItem, SelectBlock};
use crate::semantics::PathSemantics;
use accum::AccumType;
use darpe::Darpe;

pub(super) fn run(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    for bc in &cx.blocks {
        // Each block is checked once per semantics it can run under; a
        // finding an earlier semantics made already is kept once.
        let first = out.len();
        for &(semantics, inline) in &bc.semantics {
            let mut found = Vec::new();
            check_block(cx, bc.block, semantics, inline, &mut found);
            let earlier = out.len();
            found.retain(|d| !out[first..earlier].contains(d));
            out.extend(found);
        }
    }
}

/// Checks one block as it runs under `semantics` (`inline` when a
/// `USE SEMANTICS` statement in the query set it).
fn check_block(
    cx: &Ctx,
    block: &SelectBlock,
    semantics: PathSemantics,
    inline: bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut has_kleene = false;
    let mut hop_no = 0usize;
    for item in &block.from {
        let FromItem::Pattern { hops, .. } = item else { continue };
        for hop in hops {
            hop_no += 1;
            let single = hop.darpe.as_single_symbol().is_some();
            if single {
                continue;
            }
            has_kleene = true;
            // P002 — an edge variable inside Kleene scope has no
            // single edge to bind; always outside the tractable class
            // (tractable.rs rejects it at run time under every
            // semantics).
            if let Some(ev) = &hop.edge_var {
                out.push(Diagnostic::error(
                    "P002",
                    block.span,
                    format!(
                        "edge variable `{ev}` binds inside the composite/Kleene DARPE \
                         `{}` — variables in the scope of a Kleene star are outside \
                         the tractable class (paper Section 7); bind variables on \
                         single-edge hops only",
                        hop.darpe
                    ),
                ));
            }
            if semantics.is_enumerative() {
                if hop.darpe.has_unbounded_repeat() {
                    // P001 — Theorem 7.1's exponential blowup: an
                    // unbounded Kleene pattern evaluated by
                    // enumeration. Error when the query text itself
                    // asked for the enumerative semantics (the fix is
                    // a one-line edit); Warn when the semantics is
                    // the engine's ambient default (a deployment
                    // choice the query author may not control).
                    let d = Diagnostic {
                        code: "P001",
                        severity: if inline {
                            super::Severity::Error
                        } else {
                            super::Severity::Warn
                        },
                        message: format!(
                            "unbounded Kleene pattern `{}` under enumerative \
                             {:?} semantics: the kernel materializes every legal \
                             path, worst-case exponential in path length \
                             (Theorem 7.1); all-shortest-paths counting evaluates \
                             the same query in polynomial time",
                            hop.darpe, semantics
                        ),
                        span: block.span,
                        suggestion: Some(
                            "USE SEMANTICS 'all_shortest_paths';".to_string(),
                        ),
                    };
                    out.push(d);
                } else if let Some(k) = max_word_len(&hop.darpe) {
                    // P004 — bounded repeats still fan out
                    // multiplicatively under enumeration; estimate
                    // with the explain-plan vocabulary.
                    if k > 1 {
                        out.push(Diagnostic::info(
                            "P004",
                            block.span,
                            format!(
                                "hop {hop_no} `{}`: enumerative kernel may \
                                 materialize up to d^{k} paths per source vertex \
                                 (d = max adjacency fan-out); the counting kernel \
                                 visits each product state once",
                                hop.darpe
                            ),
                        ));
                    }
                }
            }
        }
    }
    // P003 — counting semantics must fold path multiplicities into
    // the accumulators, which only multiplicity-shortcut types
    // support (paper Appendix A); mirrors the runtime check that
    // would otherwise reject the query mid-execution.
    if has_kleene && !semantics.is_enumerative() {
        check_multiplicity(cx, block, semantics, out);
    }
}

fn check_multiplicity(
    cx: &Ctx,
    block: &SelectBlock,
    semantics: PathSemantics,
    out: &mut Vec<Diagnostic>,
) {
    use crate::ast::AccStmt;
    for stmt in block.accum.iter().chain(&block.post_accum) {
        let (name, ty, sigil) = match stmt {
            AccStmt::VAcc { name, combine: true, .. } => {
                (name, cx.vaccs.get(name.as_str()).map(|i| i.ty), "@")
            }
            AccStmt::GAcc { name, combine: true, .. } => {
                (name, cx.gaccs.get(name.as_str()).map(|i| i.ty), "@@")
            }
            _ => continue,
        };
        let Some(ty) = ty else { continue };
        if !ty.supports_multiplicity_shortcut(cx.registry) {
            let alt = alternative_for(ty);
            out.push(
                Diagnostic::error(
                    "P003",
                    block.span,
                    format!(
                        "accumulator `{sigil}{name}` of type {ty} is multiplicity-sensitive \
                         and order-dependent; it cannot absorb path multiplicities from a \
                         Kleene pattern under {:?} counting semantics (paper Section 7)",
                        semantics
                    ),
                )
                .with_suggestion(format!(
                    "{alt}, or switch to an enumerative semantics (accepting exponential \
                     path materialization)"
                )),
            );
        }
    }
}

fn alternative_for(ty: &AccumType) -> &'static str {
    match ty {
        AccumType::List | AccumType::Array => {
            "use SetAccum (dedup) or BagAccum (multiplicity-aware counts) instead"
        }
        AccumType::Sum(_) => "use a numeric SumAccum instead of string concatenation",
        _ => "use a Sum/Avg/Bag or multiplicity-insensitive accumulator",
    }
}

/// Longest word the DARPE accepts, when bounded.
fn max_word_len(d: &Darpe) -> Option<u32> {
    match d {
        Darpe::Symbol(_) => Some(1),
        Darpe::Concat(xs) => xs.iter().map(max_word_len).sum(),
        Darpe::Alt(xs) => xs.iter().map(max_word_len).try_fold(0, |m, l| Some(m.max(l?))),
        Darpe::Repeat { inner, max, .. } => Some(max_word_len(inner)? * (*max)?),
    }
}
