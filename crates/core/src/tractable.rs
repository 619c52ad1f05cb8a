//! The tractable-class checker (paper Section 7).
//!
//! Under all-shortest-paths **counting** evaluation, a query block is in
//! the polynomial-time class iff:
//!
//! 1. no variable binds inside the scope of a Kleene star — in this
//!    engine's syntax, an edge variable may only annotate a
//!    *single-symbol* hop (`-(Connected:c)-`), never a repeated or
//!    composite DARPE;
//! 2. no path variables exist (the syntax has none — accumulators
//!    substitute for them, exactly as the paper argues);
//! 3. accumulators receiving inputs from a block whose pattern has a
//!    Kleene hop must admit the multiplicity shortcut — `ListAccum`,
//!    `ArrayAccum` and `SumAccum<STRING>` do not.
//!
//! Violations of (1) are always errors. Violations of (3) are errors
//! only under counting semantics; enumerative semantics materialize
//! every path so order-/multiplicity-sensitive accumulators are fine
//! (and exponential, which is the user's explicit choice).

use crate::ast::{AccStmt, FromItem, SelectBlock};
use crate::error::{Error, Result};
use crate::semantics::PathSemantics;
use accum::{AccumType, UserAccumRegistry};

/// Validates a SELECT block against the tractable class. `vacc_type` and
/// `gacc_type` look a declared accumulator's type up by name.
pub fn check_block<'t>(
    block: &SelectBlock,
    semantics: PathSemantics,
    vacc_type: impl Fn(&str) -> Option<&'t AccumType>,
    gacc_type: impl Fn(&str) -> Option<&'t AccumType>,
    registry: &UserAccumRegistry,
) -> Result<()> {
    let mut has_kleene_hop = false;
    for item in &block.from {
        if let FromItem::Pattern { hops, .. } = item {
            for hop in hops {
                let single = hop.darpe.as_single_symbol().is_some();
                if single {
                    continue;
                }
                has_kleene_hop = true;
                if hop.edge_var.is_some() {
                    return Err(Error::compile(format!(
                        "edge variable `{}` binds inside a composite/Kleene DARPE `{}` — \
                         variables in the scope of a Kleene star are outside the tractable \
                         class (paper Section 7); bind variables on single-edge hops only",
                        hop.edge_var.as_deref().unwrap_or("?"),
                        hop.darpe
                    )));
                }
            }
        }
    }
    if !has_kleene_hop || semantics.is_enumerative() {
        return Ok(());
    }
    // Counting semantics + Kleene hop: every accumulator the block feeds
    // must support the multiplicity shortcut.
    for stmt in block.accum.iter().chain(&block.post_accum) {
        let (name, ty) = match stmt {
            AccStmt::VAcc { name, combine: true, .. } => (name, vacc_type(name)),
            AccStmt::GAcc { name, combine: true, .. } => (name, gacc_type(name)),
            _ => continue,
        };
        if let Some(ty) = ty {
            if !ty.supports_multiplicity_shortcut(registry) {
                return Err(Error::compile(format!(
                    "accumulator `{name}` of type {ty} is multiplicity-sensitive and \
                     order-dependent; it cannot absorb path multiplicities from a Kleene \
                     pattern under all-shortest-paths counting semantics (paper Section 7). \
                     Use Sum/Avg/Bag or a multiplicity-insensitive accumulator, or switch \
                     to an enumerative path semantics"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use pgraph::value::ValueType;

    fn block_of(src: &str) -> SelectBlock {
        let q = parse_query(src).unwrap();
        for stmt in q.body {
            match stmt {
                crate::ast::Stmt::Select(b) => return *b,
                crate::ast::Stmt::VSetAssign {
                    source: crate::ast::VSetSource::Select(b),
                    ..
                } => return *b,
                _ => continue,
            }
        }
        panic!("no select block in fixture");
    }

    /// Checks `b` with `vaccs` declared as vertex accumulators and no
    /// globals.
    fn check(b: &SelectBlock, semantics: PathSemantics, vaccs: &[(&str, AccumType)]) -> Result<()> {
        let vacc = |n: &str| vaccs.iter().find(|(name, _)| *name == n).map(|(_, t)| t);
        check_block(b, semantics, vacc, |_| None, &UserAccumRegistry::new())
    }

    #[test]
    fn edge_var_in_kleene_rejected() {
        let b = block_of(
            "CREATE QUERY x() { SELECT t FROM V:s -(E>*:e)- V:t ACCUM t.@c += 1; }",
        );
        let err = check(&b, PathSemantics::AllShortestPaths, &[]).unwrap_err();
        assert!(err.to_string().contains("Kleene"));
    }

    #[test]
    fn list_accum_with_kleene_rejected_under_counting() {
        let b = block_of(
            "CREATE QUERY x() { SELECT t FROM V:s -(E>*)- V:t ACCUM t.@paths += s; }",
        );
        let v = [("paths", AccumType::List)];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_err());
        // Enumerative semantics allow it.
        assert!(check(&b, PathSemantics::NonRepeatedEdge, &v).is_ok());
    }

    #[test]
    fn sum_accum_with_kleene_allowed() {
        let b = block_of(
            "CREATE QUERY x() { SELECT t FROM V:s -(E>*)- V:t ACCUM t.@c += 1; }",
        );
        let v = [("c", AccumType::Sum(ValueType::Int))];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_ok());
    }

    #[test]
    fn list_accum_without_kleene_allowed() {
        let b = block_of(
            "CREATE QUERY x() { SELECT t FROM V:s -(E>)- V:t ACCUM t.@paths += s; }",
        );
        let v = [("paths", AccumType::List)];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_ok());
    }
}
