//! Pass 3 — tractability analysis (`P001`–`P004`).
//!
//! Maps each block's [`crate::tractable::Class`], the one the planner
//! records and the executor raises, to diagnostics before an engine
//! exists. Theorem 7.1: aggregation over Kleene patterns is polynomial
//! exactly when legal paths are all-shortest-paths (so the kernel counts)
//! and the accumulators absorb multiplicities; every enumerative
//! semantics pays worst-case exponential path materialization.

use super::{BlockCtx, Ctx, Diagnostic};
use crate::semantics::PathSemantics;
use crate::tractable::classify;
use accum::AccumType;

pub(super) fn run(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    for bc in &cx.blocks {
        // Each block is checked once per semantics it can run under; a
        // finding an earlier semantics made already is kept once.
        let first = out.len();
        for &sem in &bc.reach.semantics {
            let mut found = diagnose(cx, bc, sem);
            let earlier = out.len();
            found.retain(|d| !out[first..earlier].contains(d));
            out.extend(found);
        }
    }
}

/// Diagnoses one block as it runs under `semantics` (`inline` when a
/// `USE SEMANTICS` statement in the query set it).
fn diagnose(cx: &Ctx, bc: &BlockCtx, sem: (PathSemantics, bool)) -> Vec<Diagnostic> {
    let ((semantics, inline), mut out) = (sem, Vec::new());
    let span = bc.block.span;
    let class = classify(bc.block, semantics);
    for hop in &class.kleene_hops {
        // P002 — an edge variable inside Kleene scope has no single edge
        // to bind; the engine fails the block under every semantics.
        if let Some(ev) = &hop.edge_var {
            out.push(Diagnostic::error(
                "P002",
                span,
                format!(
                    "edge variable `{ev}` binds inside the composite/Kleene DARPE `{}` — \
                     variables in the scope of a Kleene star are outside the tractable \
                     class (paper Section 7); bind variables on single-edge hops only",
                    hop.darpe
                ),
            ));
        }
        if !semantics.is_enumerative() {
            continue;
        }
        if hop.unbounded {
            // P001 — Theorem 7.1's exponential blowup. Error when the
            // query text asked for the enumerative semantics (a one-line
            // fix); Warn under the engine's ambient default (a deployment
            // choice the query author may not control).
            out.push(Diagnostic {
                code: "P001",
                severity: if inline { super::Severity::Error } else { super::Severity::Warn },
                message: format!(
                    "unbounded Kleene pattern `{}` under enumerative {:?} semantics: the \
                     kernel materializes every legal path, worst-case exponential in path \
                     length (Theorem 7.1); all-shortest-paths counting evaluates the same \
                     query in polynomial time",
                    hop.darpe, semantics
                ),
                span,
                suggestion: Some("USE SEMANTICS 'all_shortest_paths';".to_string()),
            });
        } else if let Some(k) = hop.max_word_len.filter(|&k| k > 1) {
            // P004 — bounded repeats still fan out multiplicatively
            // under enumeration.
            out.push(Diagnostic::info(
                "P004",
                span,
                format!(
                    "hop {} `{}`: enumerative kernel may materialize up to d^{k} paths \
                     per source vertex (d = max adjacency fan-out); the counting kernel \
                     visits each product state once",
                    hop.number, hop.darpe
                ),
            ));
        }
    }
    // P003 — counting folds path multiplicities into the accumulators
    // (paper Appendix A). A target is typed by every declaration that
    // can reach the block; the engine, by the one in force when it runs.
    let reaching = |name, global| bc.reach.types(name, global);
    for (name, global, ty) in class.sensitive_targets(reaching, cx.registry) {
        let sigil = if global { "@@" } else { "@" };
        out.push(
            Diagnostic::error(
                "P003",
                span,
                format!(
                    "accumulator `{sigil}{name}` of type {ty} is multiplicity-sensitive \
                     and order-dependent; it cannot absorb path multiplicities from a \
                     Kleene pattern under {:?} counting semantics (paper Section 7)",
                    semantics
                ),
            )
            .with_suggestion(format!(
                "{}, or switch to an enumerative semantics (accepting exponential \
                 path materialization)",
                alternative_for(ty)
            )),
        );
    }
    out
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
