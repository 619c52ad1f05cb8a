//! The reachability kernels against a brute-force oracle that shares
//! nothing with them: it enumerates every walk over
//! `Graph::adjacency`, accepts a walk by simulating the NFA
//! (`CompiledDarpe::matches_word`), and keeps the shortest accepted walks
//! per target — no DFA, no product BFS, no head chains.
//!
//! Inputs are small random mixed graphs (two directed edge types, one
//! undirected) and random DARPEs with wildcards, alternation,
//! concatenation and bounded and unbounded repetition. Each graph runs
//! twice: finalized, and with extra edges left in the mutation overlay.
//! One [`Kernel`] serves every source of a graph, so state left behind
//! by one kernel call shows up in the next; a many-source hop through
//! the engine at parallelism {1, 4} × morsel size {1, 1024} covers the
//! pooled contexts the engine reuses across kernels.

use darpe::CompiledDarpe;
use gsql_core::governor::QueryGuard;
use gsql_core::semantics::{Kernel, MatchStats, PathSemantics, ReachMap};
use gsql_core::Engine;
use pgraph::graph::{Dir, EdgeId, Graph, VertexId};
use pgraph::schema::ETypeId;
use std::collections::{BTreeMap, BTreeSet};

#[path = "common/random_graphs.rs"]
mod random_graphs;
use random_graphs::{random_graphs, Rng};

/// Generated cases.
const CASES: u64 = 500;
/// Longest walk the shortest-path oracle enumerates; kernel targets
/// farther away than this are left unchecked by it.
const MAX_WALK: usize = 5;
/// Walk prefixes the oracle extends per source and semantics before it
/// gives up on that comparison (simple walks grow exponentially).
const WALK_BUDGET: u64 = 20_000;

/// A random DARPE over `A`, `B` (directed) and `U` (undirected).
fn random_darpe(rng: &mut Rng, depth: u32) -> String {
    const LEAVES: [&str; 8] = ["A>", "<A", "B>", "<B", "U", "_", "_>", "<_"];
    if depth == 0 || rng.below(3) == 0 {
        return LEAVES[rng.below(LEAVES.len() as u64) as usize].to_string();
    }
    let a = random_darpe(rng, depth - 1);
    match rng.below(4) {
        0 => format!("({a}).({})", random_darpe(rng, depth - 1)),
        1 => format!("({a}|{})", random_darpe(rng, depth - 1)),
        2 => {
            let min = rng.below(3);
            format!("({a})*{min}..{}", min + rng.below(3))
        }
        _ => format!("({a})*"),
    }
}

/// Which walks a semantics makes legal.
#[derive(Clone, Copy)]
enum Legal {
    Any,
    NoRepeatedEdge,
    NoRepeatedVertex,
}

/// The NFA's ε-closed state set after reading `(et, dir)` from `set`.
fn nfa_step(nfa: &CompiledDarpe, set: &BTreeSet<u32>, et: ETypeId, dir: Dir) -> BTreeSet<u32> {
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
fn walks(
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

type Reach = BTreeMap<VertexId, (u32, u64)>;
/// A kernel result as a list: `(target, (length, count))`.
type Listed = Vec<(VertexId, (u32, u64))>;

/// Per target: the shortest accepted walk's length and how many
/// accepted walks have it, over walks of at most [`MAX_WALK`] edges.
fn oracle_shortest(g: &Graph, nfa: &CompiledDarpe, src: VertexId) -> Option<Reach> {
    let mut out = Reach::new();
    let done = walks(g, nfa, src, MAX_WALK, Legal::Any, &mut |t, len| {
        let len = len as u32;
        let slot = out.entry(t).or_insert((len, 0));
        if len < slot.0 {
            *slot = (len, 0);
        }
        if len == slot.0 {
            slot.1 += 1;
        }
    });
    done.then_some(out)
}

/// Per target: the shortest accepted simple walk's length and how many
/// accepted simple walks there are (of any length).
fn oracle_simple(g: &Graph, nfa: &CompiledDarpe, src: VertexId, legal: Legal) -> Option<Reach> {
    let mut out = Reach::new();
    let done = walks(g, nfa, src, usize::MAX, legal, &mut |t, len| {
        let slot = out.entry(t).or_insert((len as u32, 0));
        slot.0 = slot.0.min(len as u32);
        slot.1 += 1;
    });
    done.then_some(out)
}

/// A kernel result as a list, in its own iteration order, after
/// checking that order is ascending by target.
fn listed(m: &ReachMap) -> Listed {
    let list: Listed = m.iter().map(|(t, (d, c))| (*t, (*d, c.to_u64().unwrap()))).collect();
    assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "reach map not in vertex order: {list:?}");
    for (t, entry) in m {
        assert_eq!(m.get(t), Some(entry), "lookup of {t:?} disagrees with iteration");
    }
    list
}

fn compile(g: &Graph, text: &str) -> CompiledDarpe {
    let d = darpe::parse(text).unwrap_or_else(|e| panic!("generated `{text}`: {e}"));
    CompiledDarpe::compile(&d, g.schema()).unwrap_or_else(|e| panic!("generated `{text}`: {e}"))
}

/// Comparisons made and skipped because the oracle ran out of budget.
#[derive(Default)]
struct Tally {
    checked: u64,
    skipped: u64,
}

/// Every source of `g` through one reused kernel context per semantics,
/// against the oracle. Returns the counting kernel's results per source.
fn check_kernels(g: &Graph, text: &str, tally: &mut Tally) -> BTreeMap<VertexId, Listed> {
    let nfa = compile(g, text);
    let guard = QueryGuard::unlimited();
    let mut stats = MatchStats::default();
    let mut kernel = Kernel::new(&nfa, g);
    let mut run = |src, sem| listed(&kernel.reach(g, src, sem, &guard, &mut stats).unwrap());
    let mut counted = BTreeMap::new();
    for src in g.vertices() {
        let ctx = || {
            format!(
                "`{text}` from {src:?} on {} vertices, {} edges",
                g.vertex_count(),
                g.edge_count()
            )
        };
        let asp = run(src, PathSemantics::AllShortestPaths);
        match oracle_shortest(g, &nfa, src) {
            Some(oracle) => {
                let near: Vec<_> =
                    asp.iter().filter(|(_, (d, _))| *d as usize <= MAX_WALK).cloned().collect();
                assert_eq!(near, oracle.into_iter().collect::<Vec<_>>(), "ASP {}", ctx());
                tally.checked += 1;
            }
            None => tally.skipped += 1,
        }

        let one = run(src, PathSemantics::ShortestOne);
        let clamped: Vec<_> = asp.iter().map(|&(t, (d, _))| (t, (d, 1))).collect();
        assert_eq!(one, clamped, "ShortestOne {}", ctx());

        let enumerated = run(src, PathSemantics::AllShortestPathsEnumerate);
        assert_eq!(enumerated, asp, "ASP-enumerate {}", ctx());

        for (sem, legal) in [
            (PathSemantics::NonRepeatedEdge, Legal::NoRepeatedEdge),
            (PathSemantics::NonRepeatedVertex, Legal::NoRepeatedVertex),
        ] {
            let Some(oracle) = oracle_simple(g, &nfa, src, legal) else {
                tally.skipped += 1;
                continue;
            };
            assert_eq!(run(src, sem), oracle.into_iter().collect::<Vec<_>>(), "{sem:?} {}", ctx());
            tally.checked += 1;
        }
        counted.insert(src, asp);
    }
    counted
}

/// A many-source hop through the engine: per `(s, t)` pair, the summed
/// binding multiplicity, which must equal the kernel's count.
fn check_engine(g: &Graph, text: &str, counted: &BTreeMap<VertexId, Listed>) {
    let query = format!(
        "CREATE QUERY K () {{
           SELECT s.k AS a, t.k AS b, count(*) AS n INTO T FROM V:s -({text})- V:t
           GROUP BY s.k, t.k;
         }}"
    );
    let key = |v: &VertexId| g.vertex_attr(*v, 0).as_i64().unwrap();
    for (sem, clamp) in
        [(PathSemantics::AllShortestPaths, false), (PathSemantics::ShortestOne, true)]
    {
        let mut expected: Vec<(i64, i64, i64)> = Vec::new();
        for (s, targets) in counted {
            for (t, (_, c)) in targets {
                expected.push((key(s), key(t), if clamp { 1 } else { *c as i64 }));
            }
        }
        expected.sort_unstable();
        for parallelism in [1, 4] {
            for morsel in [1, 1024] {
                let eng = Engine::new(g)
                    .with_semantics(sem)
                    .with_parallelism(parallelism)
                    .with_morsel_size(morsel);
                let out = eng.run_text(&query, &[]).unwrap_or_else(|e| panic!("{e}\n{query}"));
                let mut got: Vec<(i64, i64, i64)> = out
                    .table("T")
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| {
                        (r[0].as_i64().unwrap(), r[1].as_i64().unwrap(), r[2].as_i64().unwrap())
                    })
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expected, "engine {sem:?} p{parallelism} m{morsel} `{text}`");
            }
        }
    }
}

#[test]
fn kernels_agree_with_brute_force_walks() {
    let mut rng = Rng(0x05EE_D0F0_AC1E);
    let mut tally = Tally::default();
    for case in 0..CASES {
        let (finalized, pending) = random_graphs(&mut rng);
        let text = random_darpe(&mut rng, 3);
        // A single-symbol pattern is a plain edge hop in the engine, not
        // a kernel call.
        let kleene = darpe::parse(&text).unwrap().as_single_symbol().is_none();
        for g in [&finalized, &pending] {
            let counted = check_kernels(g, &text, &mut tally);
            if kleene && case % 5 == 0 {
                check_engine(g, &text, &counted);
            }
        }
    }
    // The budget skips only the rare pathological case.
    assert!(
        tally.skipped * 20 < tally.checked,
        "{} checked, {} skipped",
        tally.checked,
        tally.skipped
    );
}

#[test]
fn one_context_serves_kernels_over_different_graph_sizes() {
    // A context made for a small graph grows its head array when a
    // later call runs on a larger one, and a source outside the graph is
    // an error, not an out-of-bounds index.
    let mut rng = Rng(7);
    let (small, _) = random_graphs(&mut rng);
    let big = pgraph::generators::erdos_renyi(40, 0.1, 3);
    let nfa = compile(&big, "E>*");
    let guard = QueryGuard::unlimited();
    let mut stats = MatchStats::default();
    let mut kernel = Kernel::new(&nfa, &small);
    for src in big.vertices() {
        let got = listed(
            &kernel.reach(&big, src, PathSemantics::AllShortestPaths, &guard, &mut stats).unwrap(),
        );
        let fresh = gsql_core::semantics::reach(
            &big,
            src,
            &nfa,
            PathSemantics::AllShortestPaths,
            &guard,
            &mut stats,
        );
        assert_eq!(got, listed(&fresh.unwrap()));
    }
    let err = kernel
        .reach(&big, VertexId(40), PathSemantics::AllShortestPaths, &guard, &mut stats)
        .unwrap_err();
    assert_eq!(err.kind(), gsql_core::ErrorKind::Runtime);
}
