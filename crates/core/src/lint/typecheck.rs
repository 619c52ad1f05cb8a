//! Pass 2 — type/combiner checking (`T001`–`T003`).
//!
//! The combiner contract (paper Section 4.3, GRAPE/Pregel's algebraic
//! preconditions) is only meaningful when the combined values inhabit
//! the accumulator's element type. This pass statically types the
//! obvious expressions (literals, arithmetic, comparisons) and flags
//! certain mismatches; anything it cannot type stays silent — the lint
//! never guesses. A written value is checked against each declaration
//! of its target that reaches the write; an initializer, against its
//! own declarator.

use super::{Ctx, Diagnostic, Reach, Sink};
use crate::ast::{AccStmt, BinOp, Expr, Span, UnOp};
use accum::AccumType;
use pgraph::value::ValueType;

/// The fragment of the value lattice the linter can infer without a
/// schema: literal-derived scalar types plus the two structured input
/// forms accumulators consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Double,
    Str,
    Bool,
    /// `(k -> v)` arrow-tuple (Map/GroupBy input).
    Arrow,
    /// `(a, b, c)` plain tuple (Heap input).
    Tuple,
    Unknown,
}

fn infer(e: &Expr) -> Ty {
    match e {
        Expr::Int(_) => Ty::Int,
        Expr::Double(_) => Ty::Double,
        Expr::Str(_) => Ty::Str,
        Expr::Bool(_) => Ty::Bool,
        Expr::ArrowTuple { .. } => Ty::Arrow,
        Expr::Tuple(_) => Ty::Tuple,
        Expr::Unary { op: UnOp::Not, .. } => Ty::Bool,
        Expr::Unary { op: UnOp::Neg, expr } => match infer(expr) {
            t @ (Ty::Int | Ty::Double) => t,
            _ => Ty::Unknown,
        },
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => Ty::Bool,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Mod => {
                match (infer(lhs), infer(rhs)) {
                    (Ty::Int, Ty::Int) => Ty::Int,
                    (Ty::Double, Ty::Int) | (Ty::Int, Ty::Double) | (Ty::Double, Ty::Double) => {
                        Ty::Double
                    }
                    (Ty::Str, Ty::Str) if *op == BinOp::Add => Ty::Str,
                    _ => Ty::Unknown,
                }
            }
            // Integer vs. float division semantics differ; don't guess.
            BinOp::Div => match (infer(lhs), infer(rhs)) {
                (Ty::Double, _) | (_, Ty::Double) => Ty::Double,
                _ => Ty::Unknown,
            },
        },
        Expr::Case { branches, default } => {
            let mut tys = branches.iter().map(|(_, r)| infer(r)).collect::<Vec<_>>();
            if let Some(d) = default {
                tys.push(infer(d));
            }
            match tys.split_first() {
                Some((first, rest)) if rest.iter().all(|t| t == first) => *first,
                _ => Ty::Unknown,
            }
        }
        _ => Ty::Unknown,
    }
}

pub(super) fn run(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    // Statement-level `@@a = e;` / `@@a += e;` and declaration
    // initializers, which follow the same value contract as `=`.
    for site in &cx.sites {
        match site.sink {
            Sink::Global(name) => check_reaching(&site.reach, name, true, site.expr, site.span, out),
            Sink::Init(ty, d) => check_operand(ty, site.expr, &d.name, d.global, d.span, out),
            Sink::Read => {}
        }
    }
    // ACCUM / POST_ACCUM writes.
    for bc in &cx.blocks {
        for s in bc.block.accum.iter().chain(&bc.block.post_accum) {
            let (name, global, expr) = match s {
                AccStmt::VAcc { name, expr, .. } => (name, false, expr),
                AccStmt::GAcc { name, expr, .. } => (name, true, expr),
                AccStmt::LocalDecl { .. } => continue,
            };
            check_reaching(&bc.reach, name, global, expr, bc.block.span, out);
        }
    }
}

/// Checks a value written into `name` against each declaration that can
/// be in force there, and reports the first that rejects it.
fn check_reaching(
    reach: &Reach,
    name: &str,
    global: bool,
    expr: &Expr,
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    for ty in reach.types(name, global) {
        let before = out.len();
        check_operand(ty, expr, name, global, span, out);
        if out.len() > before {
            return;
        }
    }
}

/// `2^53` — the largest magnitude at which every integer is exactly
/// representable as an IEEE-754 double.
const DOUBLE_EXACT: i64 = 1 << 53;

fn check_operand(
    ty: &AccumType,
    expr: &Expr,
    name: &str,
    global: bool,
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    let sigil = if global { "@@" } else { "@" };
    let operand = infer(expr);
    match ty {
        AccumType::Sum(vt) => match (vt, operand) {
            (ValueType::Int, Ty::Double) => out.push(Diagnostic::warn(
                "T001",
                span,
                format!(
                    "`{sigil}{name}` is SumAccum<INT> but receives a DOUBLE value; the \
                     fractional part is truncated on every combine"
                ),
            )),
            (ValueType::Int | ValueType::Double, Ty::Str | Ty::Bool | Ty::Arrow | Ty::Tuple)
            | (ValueType::Str, Ty::Int | Ty::Double | Ty::Bool | Ty::Arrow | Ty::Tuple) => {
                out.push(Diagnostic::error(
                    "T001",
                    span,
                    format!(
                        "`{sigil}{name}` is {ty} but receives a {} value",
                        ty_name(operand)
                    ),
                ))
            }
            (ValueType::Double, Ty::Int) => {
                big_literal_check(expr, name, sigil, span, out);
            }
            _ => {}
        },
        AccumType::Avg => {
            if matches!(operand, Ty::Str | Ty::Bool | Ty::Arrow | Ty::Tuple) {
                out.push(Diagnostic::error(
                    "T001",
                    span,
                    format!(
                        "`{sigil}{name}` is AvgAccum (numeric mean) but receives a {} value",
                        ty_name(operand)
                    ),
                ));
            } else {
                big_literal_check(expr, name, sigil, span, out);
            }
        }
        AccumType::Or | AccumType::And => {
            if matches!(operand, Ty::Int | Ty::Double | Ty::Str | Ty::Arrow | Ty::Tuple) {
                out.push(Diagnostic::error(
                    "T001",
                    span,
                    format!(
                        "`{sigil}{name}` is {ty} (boolean combiner) but receives a {} value",
                        ty_name(operand)
                    ),
                ));
            }
        }
        AccumType::Min | AccumType::Max => {
            if matches!(operand, Ty::Bool | Ty::Arrow) {
                let hint = if operand == Ty::Bool {
                    "; for booleans use OrAccum/AndAccum"
                } else {
                    ""
                };
                out.push(Diagnostic::warn(
                    "T003",
                    span,
                    format!(
                        "`{sigil}{name}` is {ty} over values with no meaningful order \
                         ({}){hint}",
                        ty_name(operand)
                    ),
                ));
            }
        }
        AccumType::Map(_) | AccumType::GroupBy { .. } => {
            if matches!(operand, Ty::Int | Ty::Double | Ty::Str | Ty::Bool | Ty::Tuple) {
                out.push(Diagnostic::error(
                    "T001",
                    span,
                    format!(
                        "`{sigil}{name}` is {ty} and consumes `(keys -> values)` arrow-tuple \
                         inputs, but receives a {} value",
                        ty_name(operand)
                    ),
                ));
            }
        }
        AccumType::Heap { .. } => {
            if matches!(operand, Ty::Int | Ty::Double | Ty::Str | Ty::Bool | Ty::Arrow) {
                out.push(Diagnostic::error(
                    "T001",
                    span,
                    format!(
                        "`{sigil}{name}` is a HeapAccum of tuples but receives a {} value",
                        ty_name(operand)
                    ),
                ));
            }
        }
        AccumType::Set | AccumType::Bag | AccumType::List | AccumType::Array
        | AccumType::User(_) => {}
    }
}

/// `T002`: an integer literal above 2^53 flowing into a double-valued
/// accumulator silently loses precision.
fn big_literal_check(
    expr: &Expr,
    name: &str,
    sigil: &str,
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    let mut flagged = false;
    expr.walk(&mut |e| {
        if let Expr::Int(v) = e {
            if v.unsigned_abs() > DOUBLE_EXACT as u64 && !flagged {
                flagged = true;
                out.push(Diagnostic::warn(
                    "T002",
                    span,
                    format!(
                        "integer literal {v} exceeds 2^53 and is rounded when combined into \
                         the double-valued accumulator `{sigil}{name}`"
                    ),
                ));
            }
        }
    });
}

fn ty_name(t: Ty) -> &'static str {
    match t {
        Ty::Int => "INT",
        Ty::Double => "DOUBLE",
        Ty::Str => "STRING",
        Ty::Bool => "BOOL",
        Ty::Arrow => "arrow-tuple",
        Ty::Tuple => "tuple",
        Ty::Unknown => "unknown",
    }
}
