//! `QueryFacts` — the stable, consumer-facing result of the abstract
//! interpretation pass (`absint`, pass 6).
//!
//! The interpreter proves properties the syntactic passes can only
//! approximate: per-block WHERE constancy (interval analysis), proven
//! parallel-fold gates for ACCUM / POST-ACCUM clauses, and WHILE loop
//! bounds. Everything here is *facts*, not heuristics: a `true` gate or
//! a `Some(false)` conjunct is a proof obligation the planner, the
//! morsel executor and the server admission gate are all allowed to act
//! on.
//!
//! The JSON rendering ([`QueryFacts::render_json`]) is a stable schema
//! consumed by `gsql_shell CHECK` and `POST /lint` (under a `"facts"`
//! key); it is golden-tested, so field names and order are contract.

use crate::ast::Span;
use crate::explain::json_string;
use crate::governor::Budget;
use crate::lint::Diagnostic;

/// Proven upper bound of a WHILE loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBound {
    /// The loop provably runs at most this many iterations.
    Bounded(u64),
    /// The condition is invariantly TRUE and there is no LIMIT: the
    /// loop provably never terminates (diagnostic `D002`).
    Infinite,
    /// No bound could be proven.
    Unknown,
}

/// Facts about one WHILE loop, in source order.
#[derive(Debug, Clone)]
pub struct LoopFacts {
    /// Source anchor of the `WHILE`.
    pub span: Span,
    /// Proven upper bound.
    pub bound: LoopBound,
    /// Proven *lower* bound on iterations of one entry into the loop
    /// (`u64::MAX` when the loop provably never terminates).
    pub min_iters: u64,
    /// `min_iters` multiplied by the number of times the loop itself is
    /// guaranteed to be entered (0 inside unproven IF branches or
    /// FOREACH bodies). These sum to [`QueryFacts::min_while_iters`].
    pub guaranteed_ticks: u64,
}

/// Facts about one SELECT block.
#[derive(Debug, Clone)]
pub struct BlockFacts {
    /// The block's span.
    pub span: Span,
    /// Proven constancy of the whole WHERE clause (`None` = unknown or
    /// no WHERE clause; see `has_where`).
    pub where_const: Option<bool>,
    /// Whether the block has a WHERE clause at all.
    pub has_where: bool,
    /// Per-conjunct constancy, aligned with the planner's
    /// `split_conjuncts` order over the WHERE clause.
    pub conjunct_const: Vec<Option<bool>>,
    /// Proven gate: the ACCUM clause may run as a parallel partial fold
    /// over morsels with results byte-identical to the sequential fold.
    pub accum_parallel: bool,
    /// Why the ACCUM gate failed (None when it holds or the clause is
    /// empty).
    pub accum_reason: Option<String>,
    /// Proven gate for the POST-ACCUM clause (morsel-parallel
    /// per-vertex apply).
    pub post_accum_parallel: bool,
    /// Why the POST-ACCUM gate failed.
    pub post_accum_reason: Option<String>,
    /// Per ACCUM statement: `true` when the statement is an `=` assign
    /// whose RHS is proven row-invariant (same value for every binding
    /// of one Map phase). Used by the dataflow pass to exempt such
    /// writes from the A003/A004 last-writer races.
    pub accum_row_invariant: Vec<bool>,
}

/// The full fact bundle for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryFacts {
    /// Per-block facts, indexed by [`SelectBlock::id`](crate::ast::SelectBlock::id).
    pub blocks: Vec<BlockFacts>,
    /// Per-WHILE facts in walk order.
    pub loops: Vec<LoopFacts>,
    /// Proven lower bound on the *total* number of WHILE iterations the
    /// query must execute (the governor's `tick_while` counter is
    /// cumulative across loops, so this is directly comparable to
    /// `Budget::max_while_iters`). `u64::MAX` = provably unbounded.
    pub min_while_iters: u64,
}

impl QueryFacts {
    /// Stable JSON rendering (schema documented in `docs/LINTS.md`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"min_while_iters\":");
        if self.min_while_iters == u64::MAX {
            out.push_str("\"unbounded\"");
        } else {
            out.push_str(&self.min_while_iters.to_string());
        }
        out.push_str(",\"blocks\":[");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"block\":{},\"line\":{}", i + 1, b.span.line));
            out.push_str(",\"where\":");
            json_string(&mut out, tri_state(b.has_where, b.where_const));
            out.push_str(",\"conjuncts\":[");
            for (j, c) in b.conjunct_const.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, tri_state(true, *c));
            }
            out.push_str("],\"accum\":");
            gate_json(&mut out, b.accum_parallel, &b.accum_reason);
            out.push_str(",\"post_accum\":");
            gate_json(&mut out, b.post_accum_parallel, &b.post_accum_reason);
            out.push('}');
        }
        out.push_str("],\"loops\":[");
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"line\":{},\"bound\":", l.span.line));
            match l.bound {
                LoopBound::Bounded(n) => out.push_str(&n.to_string()),
                LoopBound::Infinite => out.push_str("\"infinite\""),
                LoopBound::Unknown => out.push_str("\"unknown\""),
            }
            if l.min_iters == u64::MAX {
                out.push_str(",\"min_iters\":\"unbounded\"}");
            } else {
                out.push_str(&format!(",\"min_iters\":{}}}", l.min_iters));
            }
        }
        out.push_str("]}");
        out
    }
}

fn tri_state(present: bool, v: Option<bool>) -> &'static str {
    match (present, v) {
        (false, _) => "none",
        (true, Some(true)) => "true",
        (true, Some(false)) => "false",
        (true, None) => "unknown",
    }
}

fn gate_json(out: &mut String, parallel: bool, reason: &Option<String>) {
    out.push_str(&format!("{{\"parallel\":{parallel},\"reason\":"));
    match reason {
        Some(r) => json_string(out, r),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// Budget-dependent findings (diagnostic `D003`): a query whose proven
/// minimum total WHILE iteration count already exceeds the budget's
/// `max_while_iters` is *guaranteed* to trip the governor, so callers
/// holding a concrete [`Budget`] (the shell's `SET iteration_limit`,
/// the server's per-request budget) can reject it before execution.
pub fn budget_findings(facts: &QueryFacts, budget: &Budget) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(max) = budget.max_while_iters else { return out };
    if facts.min_while_iters > max {
        let span = facts
            .loops
            .iter()
            .find(|l| l.guaranteed_ticks > 0)
            .map(|l| l.span)
            .unwrap_or_default();
        let bound = if facts.min_while_iters == u64::MAX {
            "unbounded".to_string()
        } else {
            facts.min_while_iters.to_string()
        };
        out.push(
            Diagnostic::error(
                "D003",
                span,
                format!(
                    "guaranteed budget trip: WHILE loops provably execute at least {bound} \
                     total iterations, but the budget allows max_while_iters = {max}"
                ),
            )
            .with_suggestion("raise the iteration budget or tighten the loop bounds"),
        );
    }
    out
}
