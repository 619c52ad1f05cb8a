//! A brute-force walk enumerator over `Graph::adjacency` that shares
//! nothing with the engine's kernels: it extends every walk edge by edge,
//! tracks the NFA's state set by simulating it (`CompiledDarpe`'s
//! transitions and ε-closure), and reports each walk the NFA accepts.
//! Shared by the reference checks under `tests/`.

use darpe::CompiledDarpe;
use pgraph::graph::{Dir, EdgeId, Graph, VertexId};
use pgraph::schema::ETypeId;
use std::collections::BTreeSet;

/// Walk prefixes [`walks`] extends per call before it gives up (simple
/// walks grow exponentially).
pub const WALK_BUDGET: u64 = 20_000;

/// Which walks a semantics makes legal.
#[derive(Clone, Copy)]
pub enum Legal {
    Any,
    NoRepeatedEdge,
    NoRepeatedVertex,
}

/// The NFA's ε-closed state set after reading `(et, dir)` from `set`.
pub fn nfa_step(nfa: &CompiledDarpe, set: &BTreeSet<u32>, et: ETypeId, dir: Dir) -> BTreeSet<u32> {
    let mut next = BTreeSet::new();
    for &s in set {
        for &(spec, t) in nfa.transitions(s) {
            if spec.matches(et, dir) {
                next.insert(t);
            }
        }
    }
    nfa.eps_close(&mut next);
    next
}

/// Calls `accept(target, length)` for every legal walk of at most
/// `max_len` edges from `src` that the NFA accepts. Prefixes on which
/// the NFA has no live state are cut: no extension of them is accepted.
/// Returns false if the walks outnumber [`WALK_BUDGET`].
pub fn walks(
    g: &Graph,
    nfa: &CompiledDarpe,
    src: VertexId,
    max_len: usize,
    legal: Legal,
    accept: &mut dyn FnMut(VertexId, usize),
) -> bool {
    struct Walk<'w> {
        g: &'w Graph,
        nfa: &'w CompiledDarpe,
        max_len: usize,
        legal: Legal,
        word: Vec<(ETypeId, Dir)>,
        edges: Vec<EdgeId>,
        vertices: Vec<VertexId>,
        budget: u64,
    }
    fn go(
        w: &mut Walk<'_>,
        v: VertexId,
        set: &BTreeSet<u32>,
        accept: &mut dyn FnMut(VertexId, usize),
    ) {
        if w.budget == 0 {
            return;
        }
        w.budget -= 1;
        if w.nfa.matches_word(&w.word) {
            accept(v, w.word.len());
        }
        if w.word.len() == w.max_len {
            return;
        }
        for a in w.g.adjacency(v) {
            let legal = match w.legal {
                Legal::Any => true,
                Legal::NoRepeatedEdge => !w.edges.contains(&a.edge),
                Legal::NoRepeatedVertex => !w.vertices.contains(&a.other),
            };
            let next = nfa_step(w.nfa, set, a.etype, a.dir);
            if !legal || next.is_empty() {
                continue;
            }
            w.word.push((a.etype, a.dir));
            w.edges.push(a.edge);
            w.vertices.push(a.other);
            go(w, a.other, &next, accept);
            w.word.pop();
            w.edges.pop();
            w.vertices.pop();
        }
    }
    let mut start = BTreeSet::from([nfa.start()]);
    nfa.eps_close(&mut start);
    let mut w = Walk {
        g,
        nfa,
        max_len,
        legal,
        word: Vec::new(),
        edges: Vec::new(),
        vertices: vec![src],
        budget: WALK_BUDGET,
    };
    go(&mut w, src, &start, accept);
    w.budget > 0
}
