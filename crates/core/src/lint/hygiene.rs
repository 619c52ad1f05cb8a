//! Pass 4 — hygiene (`H001`–`H004`): dead vertex sets, shadowed names,
//! statically-false filters, and WHILE loops whose condition can never
//! change.

use super::{query_exprs, Ctx, Diagnostic};
use crate::ast::{
    AccStmt, BinOp, Expr, FromItem, PrintItem, SelectBlock, Span, Stmt, UnOp, VSetSource,
};

pub(super) fn run(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    unused_vsets(cx, out);
    shadowed_names(cx, out);
    for bc in &cx.blocks {
        if let Some(w) = &bc.block.where_clause {
            if const_bool(w) == Some(false) {
                out.push(Diagnostic::warn(
                    "H003",
                    bc.block.span,
                    "WHERE condition is constant false: the block selects nothing",
                ));
            }
        }
    }
    while_invariants(&cx.q.body, out);
}

// ---- H001: assigned-but-never-used vertex sets --------------------------

fn unused_vsets(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    // Every name a vertex set can be consumed through.
    let mut used: Vec<String> = Vec::new();
    {
        let mut structural: Vec<&str> = Vec::new();
        collect_vset_uses(&cx.q.body, &mut structural);
        used.extend(structural.into_iter().map(str::to_string));
    }
    query_exprs(cx.q, &mut |e, _| {
        e.walk(&mut |e| {
            if let Expr::Ident(name) = e {
                used.push(name.clone());
            }
        });
    });
    let mut assigns: Vec<(&str, Span, bool)> = Vec::new();
    collect_vset_assigns(&cx.q.body, &mut assigns);
    let mut flagged: Vec<&str> = Vec::new();
    for (name, span, pure) in assigns {
        if pure && !used.iter().any(|u| *u == name) && !flagged.contains(&name) {
            flagged.push(name);
            out.push(Diagnostic::warn(
                "H001",
                span,
                format!(
                    "vertex set `{name}` is assigned but never used, and its defining block \
                     has no side effects (no ACCUM, POST_ACCUM, or INTO)"
                ),
            ));
        }
    }
}

fn collect_vset_uses<'a>(stmts: &'a [Stmt], used: &mut Vec<&'a str>) {
    let block_uses = |b: &'a SelectBlock, used: &mut Vec<&'a str>| {
        for item in &b.from {
            match item {
                FromItem::Pattern { start, hops, .. } => {
                    used.push(&start.name);
                    for h in hops {
                        used.push(&h.to.name);
                    }
                }
                FromItem::Table { name, .. } => used.push(name),
            }
        }
    };
    for stmt in stmts {
        match stmt {
            Stmt::VSetAssign { source, .. } => match source {
                VSetSource::Select(b) => block_uses(b, used),
                VSetSource::Literal(entries) => used.extend(entries.iter().map(|s| s.as_str())),
                VSetSource::SetOp { lhs, rhs, .. } => {
                    used.push(lhs);
                    used.push(rhs);
                }
            },
            Stmt::Select(b) => block_uses(b, used),
            Stmt::Print { items, .. } => {
                for item in items {
                    if let PrintItem::VSetProjection { set, .. } = item {
                        used.push(set);
                    }
                }
            }
            Stmt::While { body, .. } | Stmt::Foreach { body, .. } => {
                collect_vset_uses(body, used)
            }
            Stmt::If { then_branch, else_branch, .. } => {
                collect_vset_uses(then_branch, used);
                collect_vset_uses(else_branch, used);
            }
            _ => {}
        }
    }
}

fn collect_vset_assigns<'a>(stmts: &'a [Stmt], out: &mut Vec<(&'a str, Span, bool)>) {
    for stmt in stmts {
        match stmt {
            Stmt::VSetAssign { name, source, span } => {
                let pure = match source {
                    VSetSource::Literal(_) | VSetSource::SetOp { .. } => true,
                    VSetSource::Select(b) => {
                        b.accum.is_empty()
                            && b.post_accum.is_empty()
                            && b.outputs.iter().all(|o| o.into.is_none())
                    }
                };
                out.push((name, *span, pure));
            }
            Stmt::While { body, .. } | Stmt::Foreach { body, .. } => {
                collect_vset_assigns(body, out)
            }
            Stmt::If { then_branch, else_branch, .. } => {
                collect_vset_assigns(then_branch, out);
                collect_vset_assigns(else_branch, out);
            }
            _ => {}
        }
    }
}

// ---- H002: shadowed names ----------------------------------------------
//
// Deliberately narrow. A pattern binding variable shadowing a *query
// parameter* is idiomatic GSQL (`Person:p` with parameter `p` re-anchors
// the pattern at the parameter) and is NOT flagged. What is flagged:
// binding variables that shadow a vertex-set variable, FOREACH variables
// that shadow parameters or vertex sets, and ACCUM locals that shadow a
// binding variable of their own block.

fn shadowed_names(cx: &Ctx, out: &mut Vec<Diagnostic>) {
    let mut vset_names: Vec<&str> = Vec::new();
    let mut assigns = Vec::new();
    collect_vset_assigns(&cx.q.body, &mut assigns);
    for (name, _, _) in &assigns {
        if !vset_names.contains(name) {
            vset_names.push(name);
        }
    }

    for bc in &cx.blocks {
        let mut binding_vars: Vec<&str> = Vec::new();
        for item in &bc.block.from {
            match item {
                FromItem::Pattern { start, hops, .. } => {
                    if let Some(v) = &start.var {
                        binding_vars.push(v);
                    }
                    for h in hops {
                        if let Some(v) = &h.to.var {
                            binding_vars.push(v);
                        }
                        if let Some(v) = &h.edge_var {
                            binding_vars.push(v);
                        }
                    }
                }
                FromItem::Table { alias, .. } => binding_vars.push(alias),
            }
        }
        for v in &binding_vars {
            if vset_names.contains(v) {
                out.push(Diagnostic::warn(
                    "H002",
                    bc.block.span,
                    format!(
                        "binding variable `{v}` shadows the vertex set `{v}`; inside this \
                         block `{v}` refers to one bound vertex, not the set"
                    ),
                ));
            }
        }
        for s in bc.block.accum.iter().chain(&bc.block.post_accum) {
            if let AccStmt::LocalDecl { name, .. } = s {
                if binding_vars.contains(&name.as_str()) {
                    out.push(Diagnostic::warn(
                        "H002",
                        bc.block.span,
                        format!(
                            "ACCUM local `{name}` shadows the binding variable `{name}` of \
                             this block"
                        ),
                    ));
                }
            }
        }
    }

    foreach_shadows(cx, &cx.q.body, &vset_names, out);
}

fn foreach_shadows(cx: &Ctx, stmts: &[Stmt], vsets: &[&str], out: &mut Vec<Diagnostic>) {
    for stmt in stmts {
        match stmt {
            Stmt::Foreach { var, body, .. } => {
                let what = if cx.q.params.iter().any(|p| p.name == *var) {
                    Some("query parameter")
                } else if vsets.contains(&var.as_str()) {
                    Some("vertex set")
                } else {
                    None
                };
                if let Some(what) = what {
                    out.push(Diagnostic::warn(
                        "H002",
                        Span::default(),
                        format!("FOREACH variable `{var}` shadows the {what} `{var}`"),
                    ));
                }
                foreach_shadows(cx, body, vsets, out);
            }
            Stmt::While { body, .. } => foreach_shadows(cx, body, vsets, out),
            Stmt::If { then_branch, else_branch, .. } => {
                foreach_shadows(cx, then_branch, vsets, out);
                foreach_shadows(cx, else_branch, vsets, out);
            }
            _ => {}
        }
    }
}

// ---- H004: loop-invariant WHILE conditions ------------------------------

fn while_invariants(stmts: &[Stmt], out: &mut Vec<Diagnostic>) {
    for stmt in stmts {
        match stmt {
            Stmt::While { cond, limit, body, span, .. } => {
                if limit.is_none() {
                    let mut deps: Vec<String> = Vec::new();
                    cond.walk(&mut |e| match e {
                        Expr::Ident(n) => deps.push(n.clone()),
                        Expr::GAcc(n) => deps.push(format!("@@{n}")),
                        Expr::VAcc { name, .. } => deps.push(format!("@{name}")),
                        _ => {}
                    });
                    let mut writes: Vec<String> = Vec::new();
                    collect_cond_writes(body, &mut writes);
                    let changing = deps.iter().any(|d| writes.contains(d));
                    if !changing {
                        let msg = if deps.is_empty() {
                            "WHILE condition is constant and the loop has no LIMIT; if the \
                             condition holds once it holds forever"
                                .to_string()
                        } else {
                            format!(
                                "WHILE condition depends only on [{}], none of which the \
                                 loop body updates, and the loop has no LIMIT",
                                deps.join(", ")
                            )
                        };
                        out.push(
                            Diagnostic::warn("H004", *span, msg)
                                .with_suggestion("add `LIMIT <n>` to bound the iteration"),
                        );
                    }
                }
                while_invariants(body, out);
            }
            Stmt::Foreach { body, .. } => while_invariants(body, out),
            Stmt::If { then_branch, else_branch, .. } => {
                while_invariants(then_branch, out);
                while_invariants(else_branch, out);
            }
            _ => {}
        }
    }
}

/// Names a WHILE condition could observe a change through: vertex sets
/// assigned, global accumulators assigned/combined, vertex accumulators
/// written in any nested block.
fn collect_cond_writes(stmts: &[Stmt], out: &mut Vec<String>) {
    let block_writes = |b: &SelectBlock, out: &mut Vec<String>| {
        for s in b.accum.iter().chain(&b.post_accum) {
            match s {
                AccStmt::VAcc { name, .. } => out.push(format!("@{name}")),
                AccStmt::GAcc { name, .. } => out.push(format!("@@{name}")),
                AccStmt::LocalDecl { .. } => {}
            }
        }
    };
    for stmt in stmts {
        match stmt {
            Stmt::VSetAssign { name, source, .. } => {
                out.push(name.clone());
                if let VSetSource::Select(b) = source {
                    block_writes(b, out);
                }
            }
            Stmt::Select(b) => block_writes(b, out),
            Stmt::GAccAssign { name, .. } => out.push(format!("@@{name}")),
            Stmt::While { body, .. } | Stmt::Foreach { body, .. } => {
                collect_cond_writes(body, out)
            }
            Stmt::If { then_branch, else_branch, .. } => {
                collect_cond_writes(then_branch, out);
                collect_cond_writes(else_branch, out);
            }
            _ => {}
        }
    }
}

// ---- constant folding (H003) --------------------------------------------

/// Folds an expression to a boolean when every leaf is a literal.
pub(super) fn const_bool(e: &Expr) -> Option<bool> {
    match const_value(e)? {
        Const::Bool(b) => Some(b),
        _ => None,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Const {
    Int(i64),
    Double(f64),
    Bool(bool),
}

fn const_value(e: &Expr) -> Option<Const> {
    Some(match e {
        Expr::Int(v) => Const::Int(*v),
        Expr::Double(v) => Const::Double(*v),
        Expr::Bool(b) => Const::Bool(*b),
        Expr::Unary { op: UnOp::Not, expr } => match const_value(expr)? {
            Const::Bool(b) => Const::Bool(!b),
            _ => return None,
        },
        Expr::Unary { op: UnOp::Neg, expr } => match const_value(expr)? {
            Const::Int(v) => Const::Int(v.checked_neg()?),
            Const::Double(v) => Const::Double(-v),
            _ => return None,
        },
        Expr::Binary { op, lhs, rhs } => {
            // AND/OR short-circuit on one known side.
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = const_value(lhs);
                let r = const_value(rhs);
                return match (op, l, r) {
                    (BinOp::And, Some(Const::Bool(false)), _)
                    | (BinOp::And, _, Some(Const::Bool(false))) => Some(Const::Bool(false)),
                    (BinOp::Or, Some(Const::Bool(true)), _)
                    | (BinOp::Or, _, Some(Const::Bool(true))) => Some(Const::Bool(true)),
                    (BinOp::And, Some(Const::Bool(a)), Some(Const::Bool(b))) => {
                        Some(Const::Bool(a && b))
                    }
                    (BinOp::Or, Some(Const::Bool(a)), Some(Const::Bool(b))) => {
                        Some(Const::Bool(a || b))
                    }
                    _ => None,
                };
            }
            let (l, r) = (const_value(lhs)?, const_value(rhs)?);
            let as_f = |c: Const| match c {
                Const::Int(v) => Some(v as f64),
                Const::Double(v) => Some(v),
                Const::Bool(_) => None,
            };
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let (a, b) = (as_f(l)?, as_f(r)?);
                    Const::Bool(match op {
                        BinOp::Eq => a == b,
                        BinOp::Ne => a != b,
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        _ => a >= b,
                    })
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
                    (Const::Int(a), Const::Int(b)) => Const::Int(match op {
                        BinOp::Add => a.checked_add(b)?,
                        BinOp::Sub => a.checked_sub(b)?,
                        _ => a.checked_mul(b)?,
                    }),
                    _ => {
                        let (a, b) = (as_f(l)?, as_f(r)?);
                        Const::Double(match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            _ => a * b,
                        })
                    }
                },
                _ => return None,
            }
        }
        _ => return None,
    })
}
