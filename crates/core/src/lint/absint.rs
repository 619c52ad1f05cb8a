//! Pass 6: fixpoint abstract interpretation over the typed AST.
//!
//! Where passes 1–5 pattern-match the query text, this pass *executes*
//! it over an abstract domain: integer intervals, known
//! double/string/bool constants, and three-valued booleans. Global
//! accumulators are tracked through assignments, combines, SELECT
//! blocks, IF branches and WHILE loops (with widening); everything
//! row-dependent (vertex attributes, vertex accumulators, binding
//! variables) evaluates to ⊤.
//!
//! The pass produces [`QueryFacts`] — proven WHERE constancy, proven
//! parallel-fold gates for ACCUM / POST-ACCUM, and WHILE loop bounds —
//! plus four diagnostics of its own:
//!
//! * `D001` — a SELECT block whose WHERE clause is proven false by
//!   interval reasoning (beyond `H003`'s literal folding).
//! * `D002` — a WHILE loop whose condition is invariantly TRUE with no
//!   LIMIT: provably non-terminating.
//! * `D003` — emitted by [`super::facts::budget_findings`] when a
//!   concrete budget is known: the proven minimum iteration count
//!   already exceeds `max_while_iters`.
//! * `D004` — a `+=` combine in ACCUM into an accumulator that some
//!   declaration reaching the block gives an order-dependent merge
//!   (`ListAccum`, `ArrayAccum`, `SumAccum<STRING>`, containers nesting
//!   them): the result observes row/merge order.
//!
//! ## The proven parallel gates
//!
//! Every ACCUM read sees the pre-clause state on any execution path: a
//! partial fold never writes the live stores while rows map, and a read
//! of an accumulator the clause itself writes binds to the block-start
//! snapshot ([`own_target_reads`]). That makes the following clause
//! shapes byte-identical between the sequential fold and partial folds
//! over morsel ranges. Both gates type a target by the
//! declarations that reach the block ([`Ctx::collect`]), not by the
//! name: a target no declaration reaches fails them, and a `+=` target
//! passes only when every reaching declaration merges exactly
//! ([`AccumType::is_exact_merge`]), since any of them may be the one in
//! force when the block runs.
//!
//! * **ACCUM**: per accumulator, either every write is a `+=` combine
//!   into an exact-merge target, or every write is an `=` assign
//!   whose RHS is proven row-invariant (the same value for every
//!   binding of the phase — literals, parameters, global-accumulator
//!   snapshot reads and pure functions thereof). Mixing `=` and `+=`
//!   on one accumulator is rejected: partial replay only matches a
//!   sequential *suffix* while rows keep their order, which the
//!   planner's hop reversal (licensed by this same gate) does not
//!   guarantee.
//! * **POST-ACCUM**: iterates *distinct* vertices, so vertex-
//!   accumulator writes touch disjoint cells and any per-vertex
//!   statement list replays exactly within one partial. The gate
//!   requires: no expression reads an accumulator the clause itself
//!   writes (those reads would observe partial state), every `+=`
//!   combine is into an exact-merge target, and all vertex-accumulator
//!   statements target one vertex variable.

use super::facts::{BlockFacts, LoopBound, LoopFacts, QueryFacts};
use super::{Ctx, Diagnostic, Reach};
use crate::ast::{AccStmt, BinOp, Expr, SelectBlock, Span, Stmt, UnOp, VSetSource};
use crate::plan::{from_bound_vars, split_conjuncts};
use accum::AccumType;
use pgraph::fxhash::{FxHashMap, FxHashSet};
use pgraph::value::ValueType;

/// Abstract value lattice.
#[derive(Debug, Clone, PartialEq)]
enum AVal {
    /// Unknown.
    Top,
    /// Known NULL.
    Null,
    /// Integer in the inclusive interval.
    Int(i64, i64),
    /// Known double constant.
    Dbl(f64),
    /// Known string constant.
    Str(String),
    /// Three-valued boolean: (may be true, may be false).
    Bool(bool, bool),
}

use AVal::*;

fn bool_of(b: bool) -> AVal {
    Bool(b, !b)
}

fn unknown_bool() -> AVal {
    Bool(true, true)
}

/// `Some(b)` when the value is a proven boolean constant.
fn proven_bool(v: &AVal) -> Option<bool> {
    match v {
        Bool(true, false) => Some(true),
        Bool(false, true) => Some(false),
        _ => None,
    }
}

/// Condition truth: (may be true, may be false).
fn truth(v: &AVal) -> (bool, bool) {
    match v {
        Bool(t, f) => (*t, *f),
        _ => (true, true),
    }
}

/// `Some(x)` when the value is a known numeric constant.
fn f64_const(v: &AVal) -> Option<f64> {
    match v {
        Int(a, b) if a == b => Some(*a as f64),
        Dbl(x) => Some(*x),
        _ => None,
    }
}

fn join(a: &AVal, b: &AVal) -> AVal {
    match (a, b) {
        (x, y) if x == y => x.clone(),
        (Int(a1, b1), Int(a2, b2)) => Int(*a1.min(a2), *b1.max(b2)),
        (Bool(t1, f1), Bool(t2, f2)) => Bool(*t1 || *t2, *f1 || *f2),
        _ => Top,
    }
}

/// Widening: force changed interval endpoints to the lattice extremes
/// so WHILE fixpoints converge in a bounded number of steps.
fn widen(old: &AVal, joined: &AVal) -> AVal {
    match (old, joined) {
        (Int(a1, b1), Int(a2, b2)) => {
            let lo = if a2 < a1 { i64::MIN } else { *a1 };
            let hi = if b2 > b1 { i64::MAX } else { *b1 };
            Int(lo, hi)
        }
        _ => joined.clone(),
    }
}

/// Abstract store for global accumulators. Absent key = ⊤ (entries are
/// normalized: ⊤ is never stored, so map equality is a fixpoint test).
type Env = FxHashMap<String, AVal>;

fn env_set(env: &mut Env, name: &str, v: AVal) {
    if v == Top {
        env.remove(name);
    } else {
        env.insert(name.to_string(), v);
    }
}

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::default();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            let j = join(va, vb);
            if j != Top {
                out.insert(k.clone(), j);
            }
        }
    }
    out
}

fn widen_env(old: &Env, joined: &Env) -> Env {
    let mut out = Env::default();
    for (k, vj) in joined {
        let w = match old.get(k) {
            Some(vo) => widen(vo, vj),
            None => Top,
        };
        if w != Top {
            out.insert(k.clone(), w);
        }
    }
    out
}

fn interval(lo: Option<i64>, hi: Option<i64>) -> AVal {
    match (lo, hi) {
        (Some(a), Some(b)) => Int(a, b),
        _ => Top,
    }
}

/// Abstract expression evaluation. `locals` carries ACCUM-clause local
/// declarations; every other identifier (binding variables, parameters,
/// vertex sets) is ⊤, as are attributes, vertex accumulators, methods
/// and calls.
fn abstract_value(e: &Expr, g: &Env, locals: &FxHashMap<String, AVal>) -> AVal {
    match e {
        Expr::Null => Null,
        Expr::Int(v) => Int(*v, *v),
        Expr::Double(v) => Dbl(*v),
        Expr::Str(s) => Str(s.clone()),
        Expr::Bool(b) => bool_of(*b),
        Expr::Ident(n) => locals.get(n).cloned().unwrap_or(Top),
        Expr::GAcc(n) => g.get(n).cloned().unwrap_or(Top),
        Expr::Unary { op: UnOp::Not, expr } => match abstract_value(expr, g, locals) {
            Bool(t, f) => Bool(f, t),
            _ => Top,
        },
        Expr::Unary { op: UnOp::Neg, expr } => match abstract_value(expr, g, locals) {
            Int(a, b) => interval(b.checked_neg(), a.checked_neg()),
            Dbl(v) => Dbl(-v),
            _ => Top,
        },
        Expr::Binary { op, lhs, rhs } => {
            let l = abstract_value(lhs, g, locals);
            let r = abstract_value(rhs, g, locals);
            binary(*op, &l, &r)
        }
        Expr::Case { branches, default } => {
            let mut acc: Option<AVal> = None;
            let mut decided = false;
            for (c, res) in branches {
                match proven_bool(&abstract_value(c, g, locals)) {
                    Some(false) => continue,
                    Some(true) => {
                        let v = abstract_value(res, g, locals);
                        acc = Some(match acc {
                            Some(a) => join(&a, &v),
                            None => v,
                        });
                        decided = true;
                        break;
                    }
                    None => {
                        let v = abstract_value(res, g, locals);
                        acc = Some(match acc {
                            Some(a) => join(&a, &v),
                            None => v,
                        });
                    }
                }
            }
            if !decided {
                let dv = match default {
                    Some(d) => abstract_value(d, g, locals),
                    None => Null,
                };
                acc = Some(match acc {
                    Some(a) => join(&a, &dv),
                    None => dv,
                });
            }
            acc.unwrap_or(Top)
        }
        // Row-dependent or opaque: attributes, vertex accumulators,
        // function/method calls, tuples.
        _ => Top,
    }
}

fn binary(op: BinOp, l: &AVal, r: &AVal) -> AVal {
    match op {
        BinOp::And => {
            let (lt, lf) = truth(l);
            let (rt, rf) = truth(r);
            Bool(lt && rt, lf || rf)
        }
        BinOp::Or => {
            let (lt, lf) = truth(l);
            let (rt, rf) = truth(r);
            Bool(lt || rt, lf && rf)
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => compare(op, l, r),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, l, r),
    }
}

fn compare(op: BinOp, l: &AVal, r: &AVal) -> AVal {
    if let (Int(a, b), Int(c, d)) = (l, r) {
        return match op {
            BinOp::Lt => cmp_ranges(*b < *c, *a >= *d),
            BinOp::Le => cmp_ranges(*b <= *c, *a > *d),
            BinOp::Gt => cmp_ranges(*a > *d, *b <= *c),
            BinOp::Ge => cmp_ranges(*a >= *d, *b < *c),
            BinOp::Eq => cmp_ranges(a == b && c == d && a == c, b < c || d < a),
            BinOp::Ne => cmp_ranges(b < c || d < a, a == b && c == d && a == c),
            _ => unknown_bool(),
        };
    }
    if let (Some(x), Some(y)) = (f64_const(l), f64_const(r)) {
        return bool_of(match op {
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            _ => x >= y,
        });
    }
    match (l, r, op) {
        (Str(a), Str(b), BinOp::Eq) => bool_of(a == b),
        (Str(a), Str(b), BinOp::Ne) => bool_of(a != b),
        (Bool(..), Bool(..), BinOp::Eq | BinOp::Ne) => {
            match (proven_bool(l), proven_bool(r)) {
                (Some(a), Some(b)) => bool_of(if op == BinOp::Eq { a == b } else { a != b }),
                _ => unknown_bool(),
            }
        }
        _ => unknown_bool(),
    }
}

fn cmp_ranges(proven_true: bool, proven_false: bool) -> AVal {
    if proven_true {
        bool_of(true)
    } else if proven_false {
        bool_of(false)
    } else {
        unknown_bool()
    }
}

fn arith(op: BinOp, l: &AVal, r: &AVal) -> AVal {
    if let (Int(a, b), Int(c, d)) = (l, r) {
        // Checked endpoint arithmetic: overflow ⇒ ⊤ (the runtime's
        // wrapping behaviour would escape a saturated interval).
        return match op {
            BinOp::Add => interval(a.checked_add(*c), b.checked_add(*d)),
            BinOp::Sub => interval(a.checked_sub(*d), b.checked_sub(*c)),
            BinOp::Mul => {
                let ps = [
                    a.checked_mul(*c),
                    a.checked_mul(*d),
                    b.checked_mul(*c),
                    b.checked_mul(*d),
                ];
                if ps.iter().any(|p| p.is_none()) {
                    Top
                } else {
                    let vs: Vec<i64> = ps.iter().map(|p| p.unwrap()).collect();
                    Int(*vs.iter().min().unwrap(), *vs.iter().max().unwrap())
                }
            }
            BinOp::Div if a == b && c == d && *c != 0 => interval(a.checked_div(*c), a.checked_div(*c)),
            BinOp::Mod if a == b && c == d && *c != 0 => interval(a.checked_rem(*c), a.checked_rem(*c)),
            _ => Top,
        };
    }
    if let (Str(a), Str(b)) = (l, r) {
        if op == BinOp::Add {
            return Str(format!("{a}{b}"));
        }
        return Top;
    }
    match (f64_const(l), f64_const(r)) {
        (Some(x), Some(y)) if matches!(l, Dbl(_)) || matches!(r, Dbl(_)) => match op {
            BinOp::Add => Dbl(x + y),
            BinOp::Sub => Dbl(x - y),
            BinOp::Mul => Dbl(x * y),
            BinOp::Div => Dbl(x / y),
            _ => Top,
        },
        _ => Top,
    }
}

// ---- row invariance -----------------------------------------------------

/// True when the expression provably evaluates to the *same* value for
/// every row of one Map phase: no binding-variable reads, no attribute
/// or vertex-accumulator reads, no aggregates. Global-accumulator reads
/// qualify — the Map phase reads the pre-phase snapshot and defers all
/// writes, on the sequential and parallel paths alike.
fn row_invariant(e: &Expr, bound: &FxHashSet<String>, inv_locals: &FxHashMap<String, bool>) -> bool {
    match e {
        Expr::Null | Expr::Int(_) | Expr::Double(_) | Expr::Str(_) | Expr::Bool(_) => true,
        Expr::Ident(n) => inv_locals.get(n).copied().unwrap_or_else(|| !bound.contains(n)),
        Expr::Attr { .. } | Expr::VAcc { .. } | Expr::Method { .. } => false,
        Expr::GAcc(_) => true,
        Expr::Call { func, args, star } => {
            let f = func.to_ascii_lowercase();
            let aggregate = *star
                || matches!(f.as_str(), "count" | "sum" | "avg")
                || (args.len() == 1 && matches!(f.as_str(), "min" | "max"));
            !aggregate && args.iter().all(|a| row_invariant(a, bound, inv_locals))
        }
        Expr::Unary { expr, .. } => row_invariant(expr, bound, inv_locals),
        Expr::Binary { lhs, rhs, .. } => {
            row_invariant(lhs, bound, inv_locals) && row_invariant(rhs, bound, inv_locals)
        }
        Expr::ArrowTuple { keys, vals } => keys
            .iter()
            .chain(vals)
            .all(|a| row_invariant(a, bound, inv_locals)),
        Expr::Tuple(items) => items.iter().all(|a| row_invariant(a, bound, inv_locals)),
        Expr::Case { branches, default } => {
            branches
                .iter()
                .all(|(c, r)| row_invariant(c, bound, inv_locals) && row_invariant(r, bound, inv_locals))
                && default
                    .as_deref()
                    .is_none_or(|d| row_invariant(d, bound, inv_locals))
        }
    }
}

// ---- the analyzer -------------------------------------------------------

struct Analyzer<'a, 'c> {
    cx: &'c Ctx<'a>,
    facts: QueryFacts,
    diags: &'c mut Vec<Diagnostic>,
}

/// Runs the pass: walks the query in execution order, records
/// [`QueryFacts`] and emits `D001`/`D002`/`D004`.
pub(super) fn run(cx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) -> QueryFacts {
    let mut a = Analyzer { cx, facts: QueryFacts::default(), diags };
    let mut env = Env::default();
    a.exec(&cx.q.body, &mut env, true, 1);
    a.facts.min_while_iters = a
        .facts
        .loops
        .iter()
        .fold(0u64, |acc, l| acc.saturating_add(l.guaranteed_ticks));
    a.facts
}

impl<'a, 'c> Analyzer<'a, 'c> {
    /// Abstractly executes `stmts`. `record` is true only on the final
    /// (fixpoint) pass over each region — facts and diagnostics are
    /// emitted exactly once. `mult` is the proven lower
    /// bound on how many times this statement list executes.
    fn exec(&mut self, stmts: &[Stmt], env: &mut Env, record: bool, mult: u64) {
        for stmt in stmts {
            match stmt {
                Stmt::AccumDecl { ty, decls } => {
                    for d in decls {
                        if d.global {
                            let v = match &d.init {
                                Some(e) => abstract_value(e, env, &FxHashMap::default()),
                                None => type_default(ty),
                            };
                            env_set(env, &d.name, v);
                        }
                    }
                }
                Stmt::GAccAssign { name, combine, expr, .. } => {
                    if *combine {
                        env_set(env, name, Top);
                    } else {
                        let v = abstract_value(expr, env, &FxHashMap::default());
                        env_set(env, name, v);
                    }
                }
                Stmt::VSetAssign { source: VSetSource::Select(b), .. } | Stmt::Select(b) => {
                    self.block(b, env, record);
                    apply_block_effects(b, env);
                }
                Stmt::While { cond, limit, body, span, .. } => {
                    self.while_loop(cond, limit.as_ref(), body, *span, env, record, mult);
                }
                Stmt::If { cond, then_branch, else_branch } => {
                    match proven_bool(&abstract_value(cond, env, &FxHashMap::default())) {
                        Some(true) => {
                            self.exec(then_branch, env, record, mult);
                            // Record facts for the dead branch without
                            // keeping its effects.
                            let mut dead = env.clone();
                            self.exec(else_branch, &mut dead, record, 0);
                        }
                        Some(false) => {
                            let mut dead = env.clone();
                            self.exec(then_branch, &mut dead, record, 0);
                            self.exec(else_branch, env, record, mult);
                        }
                        None => {
                            let mut t = env.clone();
                            let mut e = env.clone();
                            self.exec(then_branch, &mut t, record, 0);
                            self.exec(else_branch, &mut e, record, 0);
                            *env = join_env(&t, &e);
                        }
                    }
                }
                Stmt::Foreach { body, .. } => {
                    // The collection may be empty: fixpoint from the
                    // entry state, body executes 0..n times.
                    let head = self.fixpoint(body, env);
                    let mut fin = head.clone();
                    self.exec(body, &mut fin, record, 0);
                    *env = head;
                }
                // Mutations / output statements do not touch global
                // accumulators (attributes are ⊤ already).
                _ => {}
            }
        }
    }

    /// Fixpoint of a loop body from the current entry state; returns
    /// the loop-head invariant environment (no recording).
    fn fixpoint(&mut self, body: &[Stmt], env: &Env) -> Env {
        let mut head = env.clone();
        for i in 0..32 {
            let mut after = head.clone();
            self.exec(body, &mut after, false, 0);
            let joined = join_env(&head, &after);
            if joined == head {
                break;
            }
            head = if i >= 3 { widen_env(&head, &joined) } else { joined };
        }
        head
    }

    #[allow(clippy::too_many_arguments)]
    fn while_loop(
        &mut self,
        cond: &Expr,
        limit: Option<&Expr>,
        body: &[Stmt],
        span: Span,
        env: &mut Env,
        record: bool,
        mult: u64,
    ) {
        let limit_const = limit.and_then(|l| match abstract_value(l, env, &FxHashMap::default()) {
            Int(a, b) if a == b && a >= 0 => Some(a as u64),
            _ => None,
        });
        let head = self.fixpoint(body, env);
        let cond_fix = proven_bool(&abstract_value(cond, &head, &FxHashMap::default()));
        let (bound, min_iters) = match (cond_fix, limit, limit_const) {
            (Some(false), _, _) => (LoopBound::Bounded(0), 0),
            (Some(true), Some(_), Some(k)) => (LoopBound::Bounded(k), k),
            (Some(true), Some(_), None) => (LoopBound::Unknown, 0),
            (Some(true), None, _) => (LoopBound::Infinite, u64::MAX),
            (None, _, Some(k)) => (LoopBound::Bounded(k), 0),
            (None, _, None) => (LoopBound::Unknown, 0),
        };
        let body_mult = if min_iters == 0 { 0 } else { mult.saturating_mul(min_iters) };
        let mut fin = head.clone();
        self.exec(body, &mut fin, record, body_mult);
        if record {
            let guaranteed_ticks = mult.saturating_mul(min_iters);
            self.facts.loops.push(LoopFacts { span, bound, min_iters, guaranteed_ticks });
            if bound == LoopBound::Infinite {
                self.diags.push(
                    Diagnostic::error(
                        "D002",
                        span,
                        "WHILE loop is provably non-terminating: its condition is \
                         invariantly TRUE and the loop has no LIMIT",
                    )
                    .with_suggestion(
                        "add a LIMIT clause or update the condition's accumulators in the loop body",
                    ),
                );
            }
        }
        *env = head;
    }

    fn block(&mut self, b: &SelectBlock, env: &Env, record: bool) {
        if !record {
            return;
        }
        let empty = FxHashMap::default();
        let (where_const, conjunct_const) = match &b.where_clause {
            Some(w) => {
                let mut conjuncts = Vec::new();
                split_conjuncts(w, &mut conjuncts);
                let per: Vec<Option<bool>> = conjuncts
                    .iter()
                    .map(|c| proven_bool(&abstract_value(c, env, &empty)))
                    .collect();
                (proven_bool(&abstract_value(w, env, &empty)), per)
            }
            None => (None, Vec::new()),
        };
        if where_const == Some(false) && super::hygiene::const_bool(b.where_clause.as_ref().unwrap()) != Some(false) {
            self.diags.push(Diagnostic::warn(
                "D001",
                b.span,
                "SELECT block is unreachable: WHERE clause proven false by interval analysis",
            ));
        }
        self.order_dependence(b);
        let bound = from_bound_vars(&b.from);
        let (accum_parallel, accum_reason, accum_row_invariant) =
            self.accum_gate(&b.accum, self.cx.reach_of(b), env, &bound);
        let (post_accum_parallel, post_accum_reason) =
            self.post_accum_gate(&b.post_accum, self.cx.reach_of(b));
        // Blocks are recorded once each, in source order: position = id.
        debug_assert_eq!(b.id, self.facts.blocks.len());
        self.facts.blocks.push(BlockFacts {
            span: b.span,
            where_const,
            has_where: b.where_clause.is_some(),
            conjunct_const,
            accum_parallel,
            accum_reason,
            post_accum_parallel,
            post_accum_reason,
            accum_row_invariant,
        });
    }

    /// `D004`: `+=` combines in ACCUM into an accumulator that some
    /// declaration reaching the block gives an order-dependent merge.
    fn order_dependence(&mut self, b: &SelectBlock) {
        let reach = self.cx.reach_of(b);
        let mut reported: FxHashSet<(bool, &str)> = FxHashSet::default();
        for s in &b.accum {
            let (name, global) = match s {
                AccStmt::VAcc { name, combine: true, .. } => (name, false),
                AccStmt::GAcc { name, combine: true, .. } => (name, true),
                _ => continue,
            };
            let Some(ty) = reach.types(name, global).find(|ty| !ty.is_order_invariant(self.cx.registry))
            else {
                continue;
            };
            if reported.insert((global, name)) {
                self.diags.push(Diagnostic::warn(
                    "D004",
                    b.span,
                    format!(
                        "merge-order dependence: `{}{name} +=` folds into {ty}, whose result \
                         depends on row and merge order; it is reproducible only sequentially",
                        if global { "@@" } else { "@" }
                    ),
                ));
            }
        }
    }

    /// The proven ACCUM gate (see module docs). Returns the gate, a
    /// failure reason, and per-statement row-invariance of `=` assigns.
    fn accum_gate(
        &self,
        stmts: &[AccStmt],
        reach: &Reach,
        env: &Env,
        bound: &FxHashSet<String>,
    ) -> (bool, Option<String>, Vec<bool>) {
        let mut inv_locals: FxHashMap<String, bool> = FxHashMap::default();
        let mut locals: FxHashMap<String, AVal> = FxHashMap::default();
        let mut row_inv = Vec::with_capacity(stmts.len());
        // Per accumulator: (saw combine, saw assign, display, failure).
        let mut reason: Option<String> = None;
        let mut usage: FxHashMap<(bool, &str), (bool, bool)> = FxHashMap::default();
        let note = |r: String, reason: &mut Option<String>| {
            if reason.is_none() {
                *reason = Some(r);
            }
        };
        for s in stmts {
            match s {
                AccStmt::LocalDecl { name, expr } => {
                    let inv = row_invariant(expr, bound, &inv_locals);
                    inv_locals.insert(name.clone(), inv);
                    let v = if inv { abstract_value(expr, env, &locals) } else { Top };
                    locals.insert(name.clone(), v);
                    row_inv.push(false);
                }
                AccStmt::VAcc { name, combine, expr, .. } | AccStmt::GAcc { name, combine, expr } => {
                    let global = matches!(s, AccStmt::GAcc { .. });
                    let display = if global { format!("@@{name}") } else { format!("@{name}") };
                    let inv = !*combine && row_invariant(expr, bound, &inv_locals);
                    row_inv.push(inv);
                    let u = usage.entry((global, name.as_str())).or_insert((false, false));
                    if *combine {
                        u.0 = true;
                    } else {
                        u.1 = true;
                    }
                    if u.0 && u.1 {
                        note(
                            format!("mixes `=` and `+=` writes to `{display}` in one ACCUM clause"),
                            &mut reason,
                        );
                    }
                    if let Some(r) = target_reason(reach, name, global, *combine) {
                        note(r, &mut reason);
                    } else if !*combine && !inv {
                        note(format!("`=` write to `{display}` is not proven row-invariant"), &mut reason);
                    }
                }
            }
        }
        (reason.is_none(), reason, row_inv)
    }

    /// The proven POST-ACCUM gate (see module docs).
    fn post_accum_gate(&self, stmts: &[AccStmt], reach: &Reach) -> (bool, Option<String>) {
        let mut reason: Option<String> = None;
        let note = |r: String, reason: &mut Option<String>| {
            if reason.is_none() {
                *reason = Some(r);
            }
        };
        // No expression may read an accumulator this clause writes: such
        // a read would observe partial (per-worker) state.
        let own_read = own_target_reads(stmts).first().copied();
        let vars: FxHashSet<&str> = stmts
            .iter()
            .filter_map(|s| match s {
                AccStmt::VAcc { var, .. } => Some(var.as_str()),
                _ => None,
            })
            .collect();
        if vars.len() > 1 {
            note("statements target more than one vertex variable".to_string(), &mut reason);
        }
        for (i, s) in stmts.iter().enumerate() {
            let target = match s {
                AccStmt::LocalDecl { .. } => None,
                AccStmt::VAcc { name, combine, .. } => Some((name, false, *combine)),
                AccStmt::GAcc { name, combine, .. } => Some((name, true, *combine)),
            };
            if let Some(r) = target.and_then(|(n, global, combine)| target_reason(reach, n, global, combine)) {
                note(r, &mut reason);
            }
            if let Some((_, global, name)) = own_read.filter(|&(at, ..)| at == i) {
                let display = if global { format!("@@{name}") } else { format!("@{name}") };
                note(format!("reads `{display}` while the same clause writes it"), &mut reason);
            }
        }
        (reason.is_none(), reason)
    }
}

/// Why a write to `name` may not fold in partials, judged against every
/// declaration that reaches the block: none does, or a `+=` combine
/// meets one whose type does not merge exactly.
fn target_reason(reach: &Reach, name: &str, global: bool, combine: bool) -> Option<String> {
    let display = format!("{}{name}", if global { "@@" } else { "@" });
    let mut tys = reach.types(name, global).peekable();
    if tys.peek().is_none() {
        return Some(format!("`{display}` is not declared"));
    }
    let ty = tys.find(|ty| combine && !ty.is_exact_merge())?;
    Some(format!("`{display}` ({ty}) does not merge exactly across partials"))
}

/// Every accumulator a clause reads unprimed (`v.@a`, `@@a`, a
/// `.size()` or method base included) while the same clause writes it,
/// as `(statement index, global, name)`: once each, at its first read
/// in statement and walk order. The primed snapshot `v.@a'` is exempt.
/// The plan binds an ACCUM clause's reads of these to the block-start
/// snapshot; the POST_ACCUM gate rejects any.
pub(crate) fn own_target_reads(stmts: &[AccStmt]) -> Vec<(usize, bool, &str)> {
    let written: FxHashSet<(bool, &str)> = stmts
        .iter()
        .filter_map(|s| match s {
            AccStmt::VAcc { name, .. } => Some((false, name.as_str())),
            AccStmt::GAcc { name, .. } => Some((true, name.as_str())),
            AccStmt::LocalDecl { .. } => None,
        })
        .collect();
    let mut reads: Vec<(usize, bool, &str)> = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let (AccStmt::LocalDecl { expr, .. } | AccStmt::VAcc { expr, .. } | AccStmt::GAcc { expr, .. }) =
            s;
        expr.walk(&mut |e| {
            let read = match e {
                Expr::VAcc { name, prev: false, .. } => (false, name.as_str()),
                Expr::GAcc(name) => (true, name.as_str()),
                _ => return,
            };
            if written.contains(&read) && !reads.iter().any(|&(_, g, n)| (g, n) == read) {
                reads.push((i, read.0, read.1));
            }
        });
    }
    reads
}

/// Applies a SELECT block's global-accumulator effects to the abstract
/// store: combines go to ⊤; assigns join the written value with the old
/// one (the block may bind zero rows/vertices, keeping the old value).
fn apply_block_effects(b: &SelectBlock, env: &mut Env) {
    let empty = FxHashMap::default();
    for s in b.accum.iter().chain(&b.post_accum) {
        if let AccStmt::GAcc { name, combine, expr } = s {
            let v = if *combine {
                Top
            } else {
                let new = abstract_value(expr, env, &empty);
                let old = env.get(name.as_str()).cloned().unwrap_or(Top);
                join(&old, &new)
            };
            env_set(env, name, v);
        }
    }
}

/// Abstract value of a freshly declared global accumulator with no
/// explicit initializer. Only types whose *read* value is determined
/// get a precise default.
fn type_default(ty: &AccumType) -> AVal {
    match ty {
        AccumType::Sum(ValueType::Int) => Int(0, 0),
        AccumType::Sum(ValueType::Double) => Dbl(0.0),
        AccumType::Sum(ValueType::Str) => Str(String::new()),
        AccumType::Or => bool_of(false),
        AccumType::And => bool_of(true),
        _ => Top,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lint_query_and_facts, Ctx};
    use super::*;
    use crate::ast::Query;
    use crate::parser::parse_query;
    use crate::semantics::PathSemantics;
    use accum::UserAccumRegistry;

    fn facts_of(q: &Query) -> (QueryFacts, Vec<Diagnostic>) {
        let registry = UserAccumRegistry::new();
        let cx = Ctx::build(q, PathSemantics::AllShortestPaths, &registry);
        let mut diags = Vec::new();
        let facts = run(&cx, &mut diags);
        (facts, diags)
    }

    #[test]
    fn interval_arithmetic_saturates_to_top_on_overflow() {
        assert_eq!(arith(BinOp::Add, &Int(1, 2), &Int(10, 20)), Int(11, 22));
        assert_eq!(arith(BinOp::Add, &Int(i64::MAX, i64::MAX), &Int(1, 1)), Top);
        assert_eq!(arith(BinOp::Mul, &Int(-3, 2), &Int(4, 5)), Int(-15, 10));
        assert_eq!(arith(BinOp::Sub, &Int(0, 10), &Int(2, 3)), Int(-3, 8));
    }

    #[test]
    fn kleene_booleans() {
        let t = bool_of(true);
        let f = bool_of(false);
        let u = unknown_bool();
        assert_eq!(binary(BinOp::And, &f, &u), f);
        assert_eq!(binary(BinOp::And, &t, &u), u);
        assert_eq!(binary(BinOp::Or, &t, &u), t);
        assert_eq!(binary(BinOp::Or, &f, &u), u);
    }

    #[test]
    fn comparisons_prove_disjoint_intervals() {
        assert_eq!(compare(BinOp::Lt, &Int(1, 3), &Int(5, 9)), bool_of(true));
        assert_eq!(compare(BinOp::Lt, &Int(5, 9), &Int(1, 3)), bool_of(false));
        assert_eq!(compare(BinOp::Eq, &Int(2, 2), &Int(2, 2)), bool_of(true));
        assert_eq!(compare(BinOp::Eq, &Int(1, 3), &Int(2, 4)), unknown_bool());
    }

    #[test]
    fn while_bound_proven_with_constant_limit() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@n;
               WHILE @@n < 100 LIMIT 7 DO PRINT @@n; END;
             }",
        )
        .unwrap();
        let (facts, diags) = facts_of(&q);
        assert_eq!(facts.loops.len(), 1);
        assert_eq!(facts.loops[0].bound, LoopBound::Bounded(7));
        assert_eq!(facts.loops[0].min_iters, 7);
        assert_eq!(facts.min_while_iters, 7);
        assert!(!diags.iter().any(|d| d.code == "D002"));
    }

    #[test]
    fn nonterminating_while_is_d002() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@n;
               WHILE @@n < 100 DO PRINT @@n; END;
             }",
        )
        .unwrap();
        let (facts, diags) = facts_of(&q);
        assert_eq!(facts.loops[0].bound, LoopBound::Infinite);
        assert_eq!(facts.min_while_iters, u64::MAX);
        assert!(diags.iter().any(|d| d.code == "D002"));
    }

    #[test]
    fn accumulator_write_in_body_defeats_d002() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@n;
               WHILE @@n < 100 DO @@n += 1; END;
               PRINT @@n;
             }",
        )
        .unwrap();
        let (facts, diags) = facts_of(&q);
        assert_eq!(facts.loops[0].bound, LoopBound::Unknown);
        assert!(!diags.iter().any(|d| d.code == "D002"));
    }

    #[test]
    fn or_accum_flag_loop_is_not_d002() {
        // The WCC shape: a flag set TRUE before the loop and re-derived
        // inside it; the combine widens the flag to unknown.
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               OrAccum @@changed;
               @@changed = true;
               WHILE @@changed DO
                 @@changed = false;
                 S = SELECT v FROM Page:v ACCUM @@changed += true;
                 PRINT 1;
               END;
             }",
        )
        .unwrap();
        let (_, diags) = facts_of(&q);
        assert!(!diags.iter().any(|d| d.code == "D002"), "{diags:?}");
    }

    #[test]
    fn proven_false_where_is_d001_beyond_literals() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@k;
               @@k = 3;
               S = SELECT v FROM Page:v WHERE @@k > 5;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, diags) = facts_of(&q);
        assert_eq!(facts.blocks[0].where_const, Some(false));
        assert!(diags.iter().any(|d| d.code == "D001"));
    }

    #[test]
    fn literal_false_where_is_left_to_h003() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               S = SELECT v FROM Page:v WHERE 1 == 2;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, diags) = facts_of(&q);
        assert_eq!(facts.blocks[0].where_const, Some(false));
        assert!(!diags.iter().any(|d| d.code == "D001"));
    }

    #[test]
    fn post_accum_assign_gate_is_proven() {
        // The WCC/SSSP Init shape: `v.@cc = v.id()` — a per-vertex
        // assign the syntactic gate rejects (no combine) but the proven
        // gate admits.
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               MinAccum<int> @cc;
               S = SELECT v FROM Page:v POST-ACCUM v.@cc = v.id();
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert!(facts.blocks[0].post_accum_parallel, "{:?}", facts.blocks[0].post_accum_reason);
    }

    #[test]
    fn post_accum_live_read_of_target_fails_gate() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<double> @score;
               S = SELECT v FROM Page:v POST-ACCUM v.@score = 1.0 + v.@score;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert!(!facts.blocks[0].post_accum_parallel);
    }

    #[test]
    fn accum_constant_assign_gate_is_proven_but_mixing_fails() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @cnt;
               S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM t.@cnt = 1;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert!(facts.blocks[0].accum_parallel, "{:?}", facts.blocks[0].accum_reason);
        assert_eq!(facts.blocks[0].accum_row_invariant, vec![true]);

        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @cnt;
               S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM t.@cnt = 1, t.@cnt += 1;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert!(!facts.blocks[0].accum_parallel);
        assert!(facts.blocks[0].accum_reason.as_deref().unwrap().contains("mixes"));
    }

    #[test]
    fn accum_row_dependent_assign_fails_gate() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @cnt;
               S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM t.@cnt = s.rank;
               PRINT S;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert!(!facts.blocks[0].accum_parallel);
        assert_eq!(facts.blocks[0].accum_row_invariant, vec![false]);
    }

    #[test]
    fn d004_fires_on_list_combine_in_accum() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               ListAccum<int> @@xs;
               S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM @@xs += 1;
               PRINT @@xs;
             }",
        )
        .unwrap();
        let (_, diags) = facts_of(&q);
        assert!(diags.iter().any(|d| d.code == "D004"));
    }

    #[test]
    fn d004_silent_on_order_invariant_combines() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<double> @@x;
               S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM @@x += 0.5;
               PRINT @@x;
             }",
        )
        .unwrap();
        let (_, diags) = facts_of(&q);
        assert!(!diags.iter().any(|d| d.code == "D004"));
    }

    #[test]
    fn facts_json_is_stable() {
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@n;
               S = SELECT v FROM Page:v WHERE @@n < 5 ACCUM @@n += 1;
               WHILE true LIMIT 2 DO PRINT 1; END;
             }",
        )
        .unwrap();
        let (_, facts) = lint_query_and_facts(&q, PathSemantics::AllShortestPaths, &UserAccumRegistry::new());
        let json = facts.render_json();
        assert!(json.starts_with("{\"min_while_iters\":2,\"blocks\":["), "{json}");
        assert!(json.contains("\"loops\":[{\"line\":"), "{json}");
    }

    #[test]
    fn guaranteed_budget_trip_is_d003() {
        use crate::governor::Budget;
        let q = parse_query(
            "CREATE QUERY f () FOR GRAPH g {
               SumAccum<int> @@n;
               WHILE true LIMIT 100 DO @@n += 1; END;
               PRINT @@n;
             }",
        )
        .unwrap();
        let (facts, _) = facts_of(&q);
        assert_eq!(facts.min_while_iters, 100);
        let tight = Budget::default().with_max_while_iters(10);
        let ds = super::super::facts::budget_findings(&facts, &tight);
        assert!(ds.iter().any(|d| d.code == "D003"), "{ds:?}");
        let roomy = Budget::default().with_max_while_iters(1000);
        assert!(super::super::facts::budget_findings(&facts, &roomy).is_empty());
    }
}
