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
//!
//! [`classify`], the one walk, decides a block's [`Class`] from the block
//! and a semantics alone. Lowering records it in each block plan, once
//! per semantics variant; the executor raises it ([`Class::check`]) each
//! time the block runs, against the accumulator types declared then;
//! lint pass 3 maps it to `P001`–`P004`.

use crate::ast::{AccStmt, FromItem, SelectBlock};
use crate::error::{Error, Result};
use crate::semantics::PathSemantics;
use accum::{AccumType, UserAccumRegistry};
use darpe::Darpe;

/// A composite/Kleene hop: one whose DARPE is not a single edge symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct KleeneHop {
    /// 1-based number of the hop across the block, single-edge hops included.
    pub number: usize,
    /// The hop's DARPE, rendered.
    pub darpe: String,
    /// The edge variable the hop binds, if any (condition 1).
    pub edge_var: Option<String>,
    /// Whether the DARPE repeats unboundedly.
    pub unbounded: bool,
    /// The longest word the DARPE accepts, when bounded.
    pub max_word_len: Option<u32>,
}

/// A block's tractable class under one path semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Class {
    /// The block's composite/Kleene hops, in pattern order.
    pub kleene_hops: Vec<KleeneHop>,
    /// Under a counting semantics with a Kleene hop, the accumulators
    /// that must absorb path multiplicities (condition 3): the `+=`
    /// targets of ACCUM, then POST_ACCUM, in statement order, each as
    /// `(name, global)`. Empty otherwise.
    pub targets: Vec<(String, bool)>,
}

/// Classifies `block` as it runs under `semantics`.
pub fn classify(block: &SelectBlock, semantics: PathSemantics) -> Class {
    let hops = block.from.iter().flat_map(|item| match item {
        FromItem::Pattern { hops, .. } => hops.as_slice(),
        FromItem::Table { .. } => &[],
    });
    let kleene_hops: Vec<KleeneHop> = (1..)
        .zip(hops)
        .filter(|(_, hop)| hop.darpe.as_single_symbol().is_none())
        .map(|(number, hop)| KleeneHop {
            number,
            darpe: hop.darpe.to_string(),
            edge_var: hop.edge_var.clone(),
            unbounded: hop.darpe.has_unbounded_repeat(),
            max_word_len: max_word_len(&hop.darpe),
        })
        .collect();
    let counts = !kleene_hops.is_empty() && !semantics.is_enumerative();
    let stmts = block.accum.iter().chain(&block.post_accum).filter(|_| counts);
    let targets = stmts.filter_map(|stmt| match stmt {
        AccStmt::VAcc { name, combine: true, .. } => Some((name.clone(), false)),
        AccStmt::GAcc { name, combine: true, .. } => Some((name.clone(), true)),
        _ => None,
    });
    Class { targets: targets.collect(), kleene_hops }
}

impl Class {
    /// Each target that may have a type unable to absorb path
    /// multiplicities, with the first such type. `types` yields the
    /// types `(name, global)` may have when the block runs.
    pub fn sensitive_targets<'c, 't, I: IntoIterator<Item = &'t AccumType>>(
        &'c self,
        types: impl Fn(&'c str, bool) -> I + 'c,
        registry: &'c UserAccumRegistry,
    ) -> impl Iterator<Item = (&'c str, bool, &'t AccumType)> + 'c {
        self.targets.iter().filter_map(move |(name, global)| {
            let mut tys = types(name, *global).into_iter();
            let ty = tys.find(|ty| !ty.supports_multiplicity_shortcut(registry))?;
            Some((name.as_str(), *global, ty))
        })
    }

    /// Raises the class when the block runs: the first Kleene hop that
    /// binds an edge variable fails it, then the first target whose type
    /// — `ty` looks `(name, global)` up among the accumulators declared
    /// now — cannot absorb path multiplicities.
    pub fn check<'t, T>(&self, ty: T, registry: &UserAccumRegistry) -> Result<()>
    where
        T: Fn(&str, bool) -> Option<&'t AccumType>,
    {
        let edge_var = self.kleene_hops.iter().find_map(|h| Some((h.edge_var.as_ref()?, h)));
        if let Some((ev, hop)) = edge_var {
            return Err(Error::compile(format!(
                "edge variable `{ev}` binds inside a composite/Kleene DARPE `{}` — \
                 variables in the scope of a Kleene star are outside the tractable \
                 class (paper Section 7); bind variables on single-edge hops only",
                hop.darpe
            )));
        }
        match self.sensitive_targets(ty, registry).next() {
            Some((name, _, ty)) => Err(Error::compile(format!(
                "accumulator `{name}` of type {ty} is multiplicity-sensitive and \
                 order-dependent; it cannot absorb path multiplicities from a Kleene \
                 pattern under all-shortest-paths counting semantics (paper Section 7). \
                 Use Sum/Avg/Bag or a multiplicity-insensitive accumulator, or switch \
                 to an enumerative path semantics"
            ))),
            None => Ok(()),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use pgraph::value::ValueType;

    /// The block `SELECT t FROM <from>`.
    fn block_of(from: &str) -> SelectBlock {
        let q = parse_query(&format!("CREATE QUERY x() {{ SELECT t FROM {from}; }}")).unwrap();
        match q.body.into_iter().next() {
            Some(crate::ast::Stmt::Select(b)) => *b,
            _ => panic!("no select block in fixture"),
        }
    }

    /// Classifies and checks `b` with `vaccs` declared as vertex
    /// accumulators and no globals.
    fn check(b: &SelectBlock, semantics: PathSemantics, vaccs: &[(&str, AccumType)]) -> Result<()> {
        let vacc = |n: &str, g: bool| vaccs.iter().find(|(name, _)| !g && *name == n).map(|t| &t.1);
        classify(b, semantics).check(vacc, &UserAccumRegistry::new())
    }

    #[test]
    fn edge_var_in_kleene_rejected() {
        let b = block_of("V:s -(E>*:e)- V:t ACCUM t.@c += 1");
        let err = check(&b, PathSemantics::AllShortestPaths, &[]).unwrap_err();
        assert!(err.to_string().contains("Kleene"));
    }

    #[test]
    fn list_accum_with_kleene_rejected_under_counting() {
        let b = block_of("V:s -(E>*)- V:t ACCUM t.@paths += s");
        let v = [("paths", AccumType::List)];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_err());
        // Enumerative semantics allow it, and record no target.
        assert!(check(&b, PathSemantics::NonRepeatedEdge, &v).is_ok());
        assert!(classify(&b, PathSemantics::NonRepeatedEdge).targets.is_empty());
    }

    #[test]
    fn sum_accum_with_kleene_allowed() {
        let b = block_of("V:s -(E>*)- V:t ACCUM t.@c += 1");
        let v = [("c", AccumType::Sum(ValueType::Int))];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_ok());
    }

    #[test]
    fn list_accum_without_kleene_allowed() {
        let b = block_of("V:s -(E>)- V:t ACCUM t.@paths += s");
        let v = [("paths", AccumType::List)];
        assert!(check(&b, PathSemantics::AllShortestPaths, &v).is_ok());
        assert_eq!(classify(&b, PathSemantics::AllShortestPaths), Class::default());
    }
}
