//! Lazy subset-construction DFA over the adorned alphabet, stored as a
//! dense transition table.
//!
//! Why determinize at all? The SDMC counting algorithm (Theorem 6.1)
//! counts *automaton runs* of the product `graph × automaton`. With an
//! NFA, one graph path can have several accepting runs and would be
//! counted several times; with a DFA each path has **exactly one** run,
//! so run counts equal path counts.
//!
//! The table has one column per adorned symbol of the expression's
//! alphabet — every edge type the DARPE names (every type of the schema
//! under a wildcard) × {`Out`, `In`, `Und`} — and one row per DFA state,
//! all in one flat `Vec<u32>` indexed `state * width + symbol`. Filling
//! is lazy and row-at-a-time: a state's whole row is computed the first
//! time the state is expanded, so only the subsets a traversal actually
//! reaches are materialized, and a DARPE whose full subset construction
//! would blow up costs no more than the walk over it. Next to each filled
//! row the DFA keeps the state's *live* edge types — those with at least
//! one transition that does not die — so a kernel can walk only the
//! adjacency groups the state can take.

use crate::nfa::CompiledDarpe;
use pgraph::fxhash::FxHashMap;
use pgraph::graph::Dir;
use pgraph::schema::ETypeId;
use std::collections::BTreeSet;

/// Identifier of a lazily-materialized DFA state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfaStateId(pub u32);

/// Table cell of a transition on which the run dies.
const DEAD: u32 = u32::MAX;
/// `col` entry of an edge type outside the alphabet.
const NO_COL: u32 = u32::MAX;
/// The three directions in table-column order: a type's `(t, dir)`
/// symbol sits at its base column plus `dir as usize`.
const DIRS: [Dir; 3] = [Dir::Out, Dir::In, Dir::Und];
const _: () = assert!(Dir::Out as usize == 0 && Dir::In as usize == 1 && Dir::Und as usize == 2);

/// An edge type with at least one live transition out of some state,
/// with the table column of its `(etype, Out)` symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveType {
    pub etype: ETypeId,
    col: u32,
}

/// One filled row of the table: a state's transitions on every symbol of
/// the alphabet, and its live edge types.
#[derive(Clone, Copy)]
pub struct Row<'d> {
    cells: &'d [u32],
    live: &'d [LiveType],
}

impl<'d> Row<'d> {
    /// The edge types, ascending, on which this state has a transition
    /// that does not die.
    #[inline]
    pub fn live(&self) -> &'d [LiveType] {
        self.live
    }

    /// Transition on `(ty.etype, dir)`; `None` means the run dies.
    #[inline]
    pub fn next(&self, ty: LiveType, dir: Dir) -> Option<DfaStateId> {
        let t = self.cells[ty.col as usize + dir as usize];
        (t != DEAD).then_some(DfaStateId(t))
    }
}

/// A lazily determinized view of a [`CompiledDarpe`]. Create one per
/// automaton and keep it: rows filled for one traversal serve every
/// later traversal of any graph over the same schema.
pub struct Dfa<'a> {
    nfa: &'a CompiledDarpe,
    /// `col[t.0]` is the column of `(t, Out)`, or [`NO_COL`] if `t` is
    /// outside the alphabet.
    col: Vec<u32>,
    /// Columns per row: three per alphabet type.
    width: usize,
    /// Interned NFA-state subsets.
    subsets: Vec<Box<[u32]>>,
    accepting: Vec<bool>,
    index: FxHashMap<Box<[u32]>, DfaStateId>,
    /// The transition table. A state's row is allocated (all [`DEAD`])
    /// when the state is interned and filled when it is expanded.
    table: Vec<u32>,
    /// Per state: its live types once its row is filled, `None` before.
    live: Vec<Option<Box<[LiveType]>>>,
    start: DfaStateId,
}

impl<'a> Dfa<'a> {
    /// Creates the DFA view with its start state materialized.
    pub fn new(nfa: &'a CompiledDarpe) -> Self {
        let alphabet = nfa.alphabet();
        let mut col = vec![NO_COL; alphabet.last().map_or(0, |t| t.0 as usize + 1)];
        for (k, t) in alphabet.iter().enumerate() {
            col[t.0 as usize] = 3 * k as u32;
        }
        let mut dfa = Dfa {
            nfa,
            col,
            width: 3 * alphabet.len(),
            subsets: Vec::new(),
            accepting: Vec::new(),
            index: FxHashMap::default(),
            table: Vec::new(),
            live: Vec::new(),
            start: DfaStateId(0),
        };
        let mut set = BTreeSet::from([nfa.start()]);
        nfa.eps_close(&mut set);
        dfa.start = dfa.intern(set);
        dfa
    }

    fn intern(&mut self, set: BTreeSet<u32>) -> DfaStateId {
        let key: Box<[u32]> = set.iter().copied().collect();
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = DfaStateId(self.subsets.len() as u32);
        self.accepting.push(set.contains(&self.nfa.accept()));
        self.index.insert(key.clone(), id);
        self.subsets.push(key);
        self.table.resize(self.table.len() + self.width, DEAD);
        self.live.push(None);
        id
    }

    /// Fills state `s`'s row: for every symbol of the alphabet, the
    /// ε-closed subset of NFA states reached from `s`'s subset.
    fn fill(&mut self, s: DfaStateId) {
        let s = s.0 as usize;
        let nfa = self.nfa;
        let alphabet = nfa.alphabet();
        let mut reached: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); self.width];
        for &ns in self.subsets[s].iter() {
            for &(spec, t) in nfa.transitions(ns) {
                let cols = match spec.etype {
                    None => 0..self.width,
                    Some(et) => {
                        let c = self.col[et.0 as usize] as usize;
                        c..c + 3
                    }
                };
                for sym in cols {
                    if spec.matches(alphabet[sym / 3], DIRS[sym % 3]) {
                        reached[sym].insert(t);
                    }
                }
            }
        }
        let mut live: Vec<LiveType> = Vec::new();
        for (sym, mut set) in reached.into_iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            nfa.eps_close(&mut set);
            let target = self.intern(set);
            self.table[s * self.width + sym] = target.0;
            let ty = LiveType { etype: alphabet[sym / 3], col: (sym - sym % 3) as u32 };
            if live.last() != Some(&ty) {
                live.push(ty);
            }
        }
        self.live[s] = Some(live.into());
    }

    /// State `s`'s row, filled on first use.
    #[inline]
    pub fn row(&mut self, s: DfaStateId) -> Row<'_> {
        if self.live[s.0 as usize].is_none() {
            self.fill(s);
        }
        let i = s.0 as usize;
        Row {
            cells: &self.table[i * self.width..(i + 1) * self.width],
            live: self.live[i].as_deref().unwrap_or_default(),
        }
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> DfaStateId {
        self.start
    }

    /// Whether `s` is accepting.
    #[inline]
    pub fn is_accepting(&self, s: DfaStateId) -> bool {
        self.accepting[s.0 as usize]
    }

    /// Number of DFA states materialized so far.
    pub fn materialized_states(&self) -> usize {
        self.subsets.len()
    }

    /// Transition on the adorned symbol `(etype, dir)`; `None` means the
    /// run dies.
    pub fn next(&mut self, s: DfaStateId, etype: ETypeId, dir: Dir) -> Option<DfaStateId> {
        let col = self.col.get(etype.0 as usize).copied().unwrap_or(NO_COL);
        if col == NO_COL {
            return None;
        }
        self.row(s).next(LiveType { etype, col }, dir)
    }

    /// Runs the DFA over an explicit word; used by tests to check
    /// NFA/DFA agreement.
    pub fn matches_word(&mut self, word: &[(ETypeId, Dir)]) -> bool {
        let mut s = self.start();
        for &(et, d) in word {
            match self.next(s, et, d) {
                Some(t) => s = t,
                None => return false,
            }
        }
        self.is_accepting(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use pgraph::schema::Schema;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_vertex_type("V", vec![]).unwrap();
        s.add_edge_type("E", true, vec![]).unwrap();
        s.add_edge_type("F", true, vec![]).unwrap();
        s.add_edge_type("H", false, vec![]).unwrap();
        s
    }

    fn words(s: &Schema, max_len: usize) -> Vec<Vec<(ETypeId, Dir)>> {
        // All adorned words up to max_len over {E>, <E, F>, <F, H}.
        let e = s.edge_type_id("E").unwrap();
        let f = s.edge_type_id("F").unwrap();
        let h = s.edge_type_id("H").unwrap();
        let alphabet = [
            (e, Dir::Out),
            (e, Dir::In),
            (f, Dir::Out),
            (f, Dir::In),
            (h, Dir::Und),
        ];
        let mut out: Vec<Vec<(ETypeId, Dir)>> = vec![vec![]];
        let mut frontier = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &frontier {
                for &sym in &alphabet {
                    let mut w2: Vec<(ETypeId, Dir)> = w.clone();
                    w2.push(sym);
                    next.push(w2);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    #[test]
    fn dfa_agrees_with_nfa_exhaustively() {
        let s = schema();
        for text in ["E>", "E>*", "E>.(F>|<E)*.H", "E>*2..3", "(E>|F>).H", "H.H.H", "_>*", "<_.H*"] {
            let nfa = CompiledDarpe::compile(&parse(text).unwrap(), &s).unwrap();
            let mut dfa = Dfa::new(&nfa);
            for w in words(&s, 4) {
                assert_eq!(
                    nfa.matches_word(&w),
                    dfa.matches_word(&w),
                    "disagreement on `{text}` for word {w:?}"
                );
            }
        }
    }

    #[test]
    fn dead_transitions_are_none() {
        let s = schema();
        let nfa = CompiledDarpe::compile(&parse("E>").unwrap(), &s).unwrap();
        let mut dfa = Dfa::new(&nfa);
        let (e, f) = (s.edge_type_id("E").unwrap(), s.edge_type_id("F").unwrap());
        assert_eq!(dfa.next(dfa.start(), f, Dir::Out), None);
        assert_eq!(dfa.next(dfa.start(), e, Dir::In), None);
        // A type id past the schema is outside the alphabet, not a panic.
        assert_eq!(dfa.next(dfa.start(), ETypeId(99), Dir::Out), None);
    }

    #[test]
    fn kleene_start_is_accepting() {
        let s = schema();
        let nfa = CompiledDarpe::compile(&parse("E>*").unwrap(), &s).unwrap();
        let dfa = Dfa::new(&nfa);
        assert!(dfa.is_accepting(dfa.start()));
    }

    #[test]
    fn memoization_reuses_states() {
        let s = schema();
        let e = s.edge_type_id("E").unwrap();
        let nfa = CompiledDarpe::compile(&parse("E>*").unwrap(), &s).unwrap();
        let mut dfa = Dfa::new(&nfa);
        let s1 = dfa.next(dfa.start(), e, Dir::Out).unwrap();
        let s2 = dfa.next(s1, e, Dir::Out).unwrap();
        // E>* loops: after the first step the subset is stable.
        assert_eq!(s1, s2);
        assert!(dfa.materialized_states() <= 2);
    }

    #[test]
    fn width_covers_named_types_or_all_under_a_wildcard() {
        let s = schema();
        let width = |text: &str| {
            let nfa = CompiledDarpe::compile(&parse(text).unwrap(), &s).unwrap();
            Dfa::new(&nfa).width
        };
        assert_eq!(width("E>*"), 3);
        assert_eq!(width("E>.(F>|<E)*"), 6);
        assert_eq!(width("E>._"), 9);
    }

    /// A schema with the edge types the repository's queries name.
    fn query_schema() -> Schema {
        let mut s = Schema::new();
        s.add_vertex_type("V", vec![]).unwrap();
        s.add_edge_type("E", true, vec![]).unwrap();
        s.add_edge_type("F", true, vec![]).unwrap();
        s.add_edge_type("Knows", false, vec![]).unwrap();
        s.add_edge_type("Link", true, vec![]).unwrap();
        s
    }

    /// Expands every state reachable from the start; returns each
    /// state's live type names, by state id.
    fn explore(s: &Schema, text: &str) -> Vec<Vec<String>> {
        let nfa = CompiledDarpe::compile(&parse(text).unwrap(), s).unwrap();
        let mut dfa = Dfa::new(&nfa);
        let mut lives = Vec::new();
        let mut q = 0;
        while q < dfa.materialized_states() {
            let row = dfa.row(DfaStateId(q as u32));
            let names = row.live().iter().map(|l| s.edge_type(l.etype).name.to_string()).collect();
            lives.push(names);
            q += 1;
        }
        assert!(dfa.live.iter().all(Option::is_some));
        assert_eq!(dfa.table.len(), dfa.materialized_states() * dfa.width);
        lives
    }

    #[test]
    fn rows_and_live_types_of_the_query_kleene_darpes() {
        let s = query_schema();
        let chain = |t: &str, n: usize| {
            let mut v = vec![vec![t.to_string()]; n];
            v.push(vec![]);
            v
        };
        let lives = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        for (text, expected) in [
            ("E>*", vec![lives(&["E"]); 2]),
            ("Knows*", vec![lives(&["Knows"]); 2]),
            ("Link>*", vec![lives(&["Link"]); 2]),
            ("Knows*1..2", chain("Knows", 2)),
            ("Knows*1..3", chain("Knows", 3)),
            ("Knows*1..4", chain("Knows", 4)),
            ("Link>*1..2", chain("Link", 2)),
            ("Link>*1..3", chain("Link", 3)),
            ("E>*1..2", chain("E", 2)),
            ("E>*2..3", chain("E", 3)),
            (
                "E>*.F>.E>*",
                vec![lives(&["E", "F"]), lives(&["E", "F"]), lives(&["E"]), lives(&["E"])],
            ),
        ] {
            assert_eq!(explore(&s, text), expected, "`{text}`");
        }
    }

    #[test]
    fn rows_exist_only_for_states_a_walk_expands() {
        // Full determinization of this DARPE has over 2^20 states (the
        // DFA must remember which of the last 21 symbols were `E>`). On
        // a 6-vertex chain no walk is longer than 5, so a product BFS
        // expands a few dozen states and finishes in milliseconds.
        let s = schema();
        let nfa =
            CompiledDarpe::compile(&parse("(E>|F>)*.E>.(E>|F>)*20..20").unwrap(), &s).unwrap();
        let mut b = pgraph::graph::GraphBuilder::new(s);
        let v: Vec<_> = (0..6).map(|_| b.vertex("V", &[]).unwrap()).collect();
        for w in v.windows(2) {
            b.edge("E", w[0], w[1], &[]).unwrap();
            b.edge("F", w[0], w[1], &[]).unwrap();
        }
        let g = b.build();
        let started = std::time::Instant::now();
        let mut dfa = Dfa::new(&nfa);
        let mut seen = BTreeSet::from([(v[0], dfa.start())]);
        let mut queue = vec![(v[0], dfa.start())];
        while let Some((x, q)) = queue.pop() {
            for a in g.adjacency(x) {
                if let Some(nq) = dfa.next(q, a.etype, a.dir) {
                    if seen.insert((a.other, nq)) {
                        queue.push((a.other, nq));
                    }
                }
            }
        }
        let filled = dfa.live.iter().filter(|l| l.is_some()).count();
        assert!(filled <= 63, "{filled} rows filled");
        assert!(dfa.materialized_states() <= 2 * 63 + 1);
        assert!(dfa.table.len() <= (2 * 63 + 1) * dfa.width);
        // Miri interprets every step; the state counts above still hold.
        if !cfg!(miri) {
            assert!(started.elapsed() < std::time::Duration::from_secs(2));
        }
    }

    #[test]
    fn live_types_follow_the_row() {
        let s = schema();
        let (e, f, h) = (
            s.edge_type_id("E").unwrap(),
            s.edge_type_id("F").unwrap(),
            s.edge_type_id("H").unwrap(),
        );
        let nfa = CompiledDarpe::compile(&parse("E>.(F>|H)").unwrap(), &s).unwrap();
        let mut dfa = Dfa::new(&nfa);
        let start = dfa.start();
        let row = dfa.row(start);
        assert_eq!(row.live().iter().map(|l| l.etype).collect::<Vec<_>>(), [e]);
        let ty = row.live()[0];
        assert_eq!(row.next(ty, Dir::In), None);
        let mid = row.next(ty, Dir::Out).unwrap();
        let row = dfa.row(mid);
        assert_eq!(row.live().iter().map(|l| l.etype).collect::<Vec<_>>(), [f, h]);
        let end = row.next(row.live()[1], Dir::Und).unwrap();
        assert!(dfa.is_accepting(end));
        assert!(dfa.row(end).live().is_empty());
    }
}
