//! Thompson NFA construction for DARPEs, resolved against a graph schema.

use crate::ast::{Darpe, DarpeDir, Symbol};
use pgraph::graph::Dir;
use pgraph::schema::{ETypeId, Schema};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A schema-resolved alphabet-symbol predicate: matches concrete adorned
/// edges `(edge type, traversal direction)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolSpec {
    /// `None` = wildcard (any edge type).
    pub etype: Option<ETypeId>,
    pub dir: DarpeDir,
}

impl SymbolSpec {
    /// Does an adjacency crossing with type `etype` and direction `dir`
    /// satisfy this spec?
    #[inline]
    pub fn matches(&self, etype: ETypeId, dir: Dir) -> bool {
        if let Some(t) = self.etype {
            if t != etype {
                return false;
            }
        }
        match self.dir {
            DarpeDir::Forward => dir == Dir::Out,
            DarpeDir::Reverse => dir == Dir::In,
            DarpeDir::Undirected => dir == Dir::Und,
            DarpeDir::Any => true,
        }
    }
}

/// DARPE-to-NFA compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    UnknownEdgeType(String),
    /// An unadorned named symbol refers to a *directed* edge type — such a
    /// symbol can never match (unadorned means undirected in the paper's
    /// alphabet), which is almost certainly a query bug.
    UndirectedSymbolOnDirectedType(String),
    /// A `>`/`<` adorned symbol refers to an *undirected* edge type.
    DirectedSymbolOnUndirectedType(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownEdgeType(t) => write!(f, "unknown edge type `{t}`"),
            CompileError::UndirectedSymbolOnDirectedType(t) => write!(
                f,
                "edge type `{t}` is directed; use `{t}>` or `<{t}` (unadorned symbols match undirected edges only)"
            ),
            CompileError::DirectedSymbolOnUndirectedType(t) => write!(
                f,
                "edge type `{t}` is undirected; drop the direction adornment"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled DARPE: a Thompson NFA over [`SymbolSpec`]s with a single
/// start and a single accept state.
#[derive(Debug, Clone)]
pub struct CompiledDarpe {
    /// Symbol transitions per state.
    trans: Vec<Vec<(SymbolSpec, u32)>>,
    /// Epsilon transitions per state.
    eps: Vec<Vec<u32>>,
    start: u32,
    accept: u32,
    /// The edge types a symbol can match, ascending: the named ones, or
    /// every type of the schema if a wildcard occurs.
    alphabet: Vec<ETypeId>,
}

struct Builder<'a> {
    schema: &'a Schema,
    trans: Vec<Vec<(SymbolSpec, u32)>>,
    eps: Vec<Vec<u32>>,
}

impl Builder<'_> {
    fn state(&mut self) -> u32 {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        (self.trans.len() - 1) as u32
    }

    fn resolve(&self, s: &Symbol) -> Result<SymbolSpec, CompileError> {
        let etype = match &s.edge_type {
            None => None,
            Some(name) => {
                let id = self
                    .schema
                    .edge_type_id(name)
                    .ok_or_else(|| CompileError::UnknownEdgeType(name.clone()))?;
                let directed = self.schema.is_directed(id);
                match s.dir {
                    DarpeDir::Undirected if directed => {
                        return Err(CompileError::UndirectedSymbolOnDirectedType(name.clone()))
                    }
                    DarpeDir::Forward | DarpeDir::Reverse if !directed => {
                        return Err(CompileError::DirectedSymbolOnUndirectedType(name.clone()))
                    }
                    _ => {}
                }
                Some(id)
            }
        };
        Ok(SymbolSpec { etype, dir: s.dir })
    }

    /// Builds a fragment, returning `(entry, exit)` states.
    fn fragment(&mut self, d: &Darpe) -> Result<(u32, u32), CompileError> {
        match d {
            Darpe::Symbol(s) => {
                let spec = self.resolve(s)?;
                let a = self.state();
                let b = self.state();
                self.trans[a as usize].push((spec, b));
                Ok((a, b))
            }
            Darpe::Concat(parts) => {
                debug_assert!(!parts.is_empty());
                let (first_in, mut cur_out) = self.fragment(&parts[0])?;
                for p in &parts[1..] {
                    let (pin, pout) = self.fragment(p)?;
                    self.eps[cur_out as usize].push(pin);
                    cur_out = pout;
                }
                Ok((first_in, cur_out))
            }
            Darpe::Alt(parts) => {
                let a = self.state();
                let b = self.state();
                for p in parts {
                    let (pin, pout) = self.fragment(p)?;
                    self.eps[a as usize].push(pin);
                    self.eps[pout as usize].push(b);
                }
                Ok((a, b))
            }
            Darpe::Repeat { inner, min, max } => {
                let entry = self.state();
                let mut cur = entry;
                // Mandatory copies.
                for _ in 0..*min {
                    let (pin, pout) = self.fragment(inner)?;
                    self.eps[cur as usize].push(pin);
                    cur = pout;
                }
                match max {
                    None => {
                        // Kleene tail: cur -ε-> loop_in, loop supports 0+ copies.
                        let exit = self.state();
                        let (pin, pout) = self.fragment(inner)?;
                        self.eps[cur as usize].push(exit); // zero extra copies
                        self.eps[cur as usize].push(pin);
                        self.eps[pout as usize].push(pin); // repeat
                        self.eps[pout as usize].push(exit);
                        Ok((entry, exit))
                    }
                    Some(m) => {
                        // (m - min) optional copies chained.
                        let exit = self.state();
                        let mut skip_sources = vec![cur];
                        for _ in *min..*m {
                            let (pin, pout) = self.fragment(inner)?;
                            self.eps[cur as usize].push(pin);
                            cur = pout;
                            skip_sources.push(cur);
                        }
                        for s in skip_sources {
                            self.eps[s as usize].push(exit);
                        }
                        Ok((entry, exit))
                    }
                }
            }
        }
    }
}

/// Resolves a single AST symbol against a schema (used by the query
/// engine for single-edge hops, which enumerate adjacency directly
/// instead of running an automaton).
pub fn resolve_symbol(sym: &Symbol, schema: &Schema) -> Result<SymbolSpec, CompileError> {
    let b = Builder { schema, trans: Vec::new(), eps: Vec::new() };
    b.resolve(sym)
}

impl CompiledDarpe {
    /// Compiles `d` against `schema`, resolving edge-type names.
    pub fn compile(d: &Darpe, schema: &Schema) -> Result<Self, CompileError> {
        let mut b = Builder { schema, trans: Vec::new(), eps: Vec::new() };
        let (start, accept) = b.fragment(d)?;
        let specs = || b.trans.iter().flatten().map(|(spec, _)| spec);
        let mut alphabet: Vec<ETypeId> = if specs().any(|s| s.etype.is_none()) {
            schema.edge_types().map(|(id, _)| id).collect()
        } else {
            specs().filter_map(|s| s.etype).collect()
        };
        alphabet.sort_unstable();
        alphabet.dedup();
        Ok(CompiledDarpe { trans: b.trans, eps: b.eps, start, accept, alphabet })
    }

    /// The reversal of this automaton: accepts exactly the reversed words
    /// (with direction adornments flipped, since traversing a path
    /// backwards crosses each directed edge the other way). Path
    /// reversal is a bijection between `s → t` matches of `self` and
    /// `t → s` matches of the reversal, which lets the engine run
    /// enumerative kernels from whichever endpoint is anchored — the
    /// optimization real planners apply to bound-endpoint patterns.
    pub fn reversed(&self) -> CompiledDarpe {
        let n = self.trans.len();
        let mut trans: Vec<Vec<(SymbolSpec, u32)>> = vec![Vec::new(); n];
        let mut eps: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (s, outs) in self.trans.iter().enumerate() {
            for &(spec, t) in outs {
                let flipped = SymbolSpec {
                    etype: spec.etype,
                    dir: match spec.dir {
                        crate::ast::DarpeDir::Forward => crate::ast::DarpeDir::Reverse,
                        crate::ast::DarpeDir::Reverse => crate::ast::DarpeDir::Forward,
                        other => other,
                    },
                };
                trans[t as usize].push((flipped, s as u32));
            }
        }
        for (s, outs) in self.eps.iter().enumerate() {
            for &t in outs {
                eps[t as usize].push(s as u32);
            }
        }
        CompiledDarpe {
            trans,
            eps,
            start: self.accept,
            accept: self.start,
            alphabet: self.alphabet.clone(),
        }
    }

    /// The edge types a symbol of this expression can match, ascending:
    /// the types it names, or every type of the schema under a wildcard.
    pub fn alphabet(&self) -> &[ETypeId] {
        &self.alphabet
    }

    /// Number of NFA states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    pub fn start(&self) -> u32 {
        self.start
    }

    pub fn accept(&self) -> u32 {
        self.accept
    }

    /// Symbol transitions leaving `state`.
    pub fn transitions(&self, state: u32) -> &[(SymbolSpec, u32)] {
        &self.trans[state as usize]
    }

    /// Extends `set` to its ε-closure.
    pub fn eps_close(&self, set: &mut BTreeSet<u32>) {
        let mut stack: Vec<u32> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s as usize] {
                if set.insert(t) {
                    stack.push(t);
                }
            }
        }
    }

    /// True iff the empty word (a zero-length path) is accepted.
    pub fn accepts_empty(&self) -> bool {
        let mut set = BTreeSet::from([self.start]);
        self.eps_close(&mut set);
        set.contains(&self.accept)
    }

    /// Simulates the NFA on an explicit adorned word (used by the
    /// enumerative legality semantics to test materialized paths).
    pub fn matches_word(&self, word: &[(ETypeId, Dir)]) -> bool {
        let mut cur = BTreeSet::from([self.start]);
        self.eps_close(&mut cur);
        for &(et, dir) in word {
            let mut next = BTreeSet::new();
            for &s in &cur {
                for &(spec, t) in &self.trans[s as usize] {
                    if spec.matches(et, dir) {
                        next.insert(t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            self.eps_close(&mut next);
            cur = next;
        }
        cur.contains(&self.accept)
    }

    /// Length of the shortest accepted word, `None` if the language is
    /// empty. (BFS over NFA states; symbol specs are never unsatisfiable
    /// by construction.)
    pub fn min_word_length(&self) -> Option<usize> {
        let mut dist = vec![usize::MAX; self.state_count()];
        let mut q = VecDeque::new();
        dist[self.start as usize] = 0;
        q.push_back(self.start);
        while let Some(s) = q.pop_front() {
            let d = dist[s as usize];
            if s == self.accept {
                return Some(d);
            }
            for &t in &self.eps[s as usize] {
                if dist[t as usize] > d {
                    dist[t as usize] = d;
                    q.push_front(t);
                }
            }
            for &(_, t) in &self.trans[s as usize] {
                if dist[t as usize] > d + 1 {
                    dist[t as usize] = d + 1;
                    q.push_back(t);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use pgraph::schema::AttrDef;
    use pgraph::value::ValueType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)])
            .unwrap();
        s.add_edge_type("E", true, vec![]).unwrap();
        s.add_edge_type("F", true, vec![]).unwrap();
        s.add_edge_type("G", true, vec![]).unwrap();
        s.add_edge_type("H", false, vec![]).unwrap();
        s.add_edge_type("J", true, vec![]).unwrap();
        s
    }

    fn compile(text: &str) -> CompiledDarpe {
        CompiledDarpe::compile(&parse(text).unwrap(), &schema()).unwrap()
    }

    fn et(s: &Schema, name: &str) -> ETypeId {
        s.edge_type_id(name).unwrap()
    }

    #[test]
    fn example2_word_matching() {
        // E> . (F> | <G)* . H . <J
        let s = schema();
        let c = compile("E>.(F>|<G)*.H.<J");
        let e = et(&s, "E");
        let f = et(&s, "F");
        let g = et(&s, "G");
        let h = et(&s, "H");
        let j = et(&s, "J");
        assert!(c.matches_word(&[(e, Dir::Out), (h, Dir::Und), (j, Dir::In)]));
        assert!(c.matches_word(&[
            (e, Dir::Out),
            (f, Dir::Out),
            (g, Dir::In),
            (f, Dir::Out),
            (h, Dir::Und),
            (j, Dir::In)
        ]));
        // Wrong direction on the J edge.
        assert!(!c.matches_word(&[(e, Dir::Out), (h, Dir::Und), (j, Dir::Out)]));
        // Missing H edge.
        assert!(!c.matches_word(&[(e, Dir::Out), (j, Dir::In)]));
    }

    #[test]
    fn kleene_accepts_empty() {
        let c = compile("E>*");
        assert!(c.accepts_empty());
        assert!(!compile("E>").accepts_empty());
        assert!(!compile("E>*1..").accepts_empty());
    }

    #[test]
    fn bounded_repeats() {
        let s = schema();
        let c = compile("E>*2..3");
        let e = et(&s, "E");
        let w = |n: usize| vec![(e, Dir::Out); n];
        assert!(!c.matches_word(&w(1)));
        assert!(c.matches_word(&w(2)));
        assert!(c.matches_word(&w(3)));
        assert!(!c.matches_word(&w(4)));
    }

    #[test]
    fn exact_repeat() {
        let s = schema();
        let c = compile("E>*3");
        let e = et(&s, "E");
        assert!(!c.matches_word(&[(e, Dir::Out); 2]));
        assert!(c.matches_word(&[(e, Dir::Out); 3]));
        assert!(!c.matches_word(&[(e, Dir::Out); 4]));
    }

    #[test]
    fn min_bound_unbounded() {
        let s = schema();
        let c = compile("E>*2..");
        let e = et(&s, "E");
        assert!(!c.matches_word(&[(e, Dir::Out); 1]));
        for n in 2..6 {
            assert!(c.matches_word(&vec![(e, Dir::Out); n]));
        }
    }

    #[test]
    fn wildcard_any_direction() {
        let s = schema();
        let c = compile("_");
        assert!(c.matches_word(&[(et(&s, "E"), Dir::Out)]));
        assert!(c.matches_word(&[(et(&s, "F"), Dir::In)]));
        assert!(c.matches_word(&[(et(&s, "H"), Dir::Und)]));
        let fwd = compile("_>");
        assert!(fwd.matches_word(&[(et(&s, "E"), Dir::Out)]));
        assert!(!fwd.matches_word(&[(et(&s, "E"), Dir::In)]));
    }

    #[test]
    fn min_word_length() {
        assert_eq!(compile("E>*").min_word_length(), Some(0));
        assert_eq!(compile("E>.(F>|<G)*.H.<J").min_word_length(), Some(3));
        assert_eq!(compile("E>*2..5").min_word_length(), Some(2));
        assert_eq!(compile("E>|F>.F>").min_word_length(), Some(1));
    }

    #[test]
    fn reversal_accepts_reversed_adorned_words() {
        let s = schema();
        let e = et(&s, "E");
        let f = et(&s, "F");
        let h = et(&s, "H");
        for text in ["E>", "E>.(F>|<G)*.H.<J", "E>*2..3", "(E>|F>).H", "E>*"] {
            let c = compile(text);
            let r = c.reversed();
            // Enumerate small words and check the reversal property:
            // c accepts w  <=>  r accepts flip(reverse(w)).
            let alphabet = [
                (e, Dir::Out),
                (e, Dir::In),
                (f, Dir::Out),
                (h, Dir::Und),
            ];
            let mut words: Vec<Vec<(pgraph::schema::ETypeId, Dir)>> = vec![vec![]];
            for _ in 0..3 {
                let mut next = Vec::new();
                for w in &words {
                    for &sym in &alphabet {
                        let mut w2 = w.clone();
                        w2.push(sym);
                        next.push(w2);
                    }
                }
                words.extend(next);
            }
            for w in &words {
                let flipped: Vec<(pgraph::schema::ETypeId, Dir)> = w
                    .iter()
                    .rev()
                    .map(|&(t, d)| {
                        let nd = match d {
                            Dir::Out => Dir::In,
                            Dir::In => Dir::Out,
                            Dir::Und => Dir::Und,
                        };
                        (t, nd)
                    })
                    .collect();
                assert_eq!(
                    c.matches_word(w),
                    r.matches_word(&flipped),
                    "reversal property failed for `{text}` on {w:?}"
                );
            }
        }
    }

    #[test]
    fn direction_sanity_errors() {
        let s = schema();
        // H is undirected: H> is a compile error.
        let e = CompiledDarpe::compile(&parse("H>").unwrap(), &s).unwrap_err();
        assert!(matches!(e, CompileError::DirectedSymbolOnUndirectedType(_)));
        // E is directed: unadorned E is a compile error.
        let e = CompiledDarpe::compile(&parse("E").unwrap(), &s).unwrap_err();
        assert!(matches!(e, CompileError::UndirectedSymbolOnDirectedType(_)));
        let e = CompiledDarpe::compile(&parse("Zed>").unwrap(), &s).unwrap_err();
        assert!(matches!(e, CompileError::UnknownEdgeType(_)));
    }
}
