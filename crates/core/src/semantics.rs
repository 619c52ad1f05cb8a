//! Pattern-match legality semantics (paper Section 6) and the reachability
//! kernels implementing them.
//!
//! Given a source vertex and a compiled DARPE, every semantics answers the
//! same question — *for each target vertex, how many legal satisfying
//! paths are there?* — but with different legality notions and wildly
//! different complexities:
//!
//! | semantics                    | legal paths                   | kernel |
//! |------------------------------|-------------------------------|--------|
//! | `AllShortestPaths` (default) | shortest per endpoint pair    | product-DFA BFS **counting** (poly, Thm 6.1) |
//! | `AllShortestPathsEnumerate`  | shortest per endpoint pair    | DFS enumeration of each shortest path (exp) — models Neo4j's ASP |
//! | `NonRepeatedEdge`            | no edge repeated (Cypher)     | DFS enumeration (exp, #P-hard in general) |
//! | `NonRepeatedVertex`          | no vertex repeated (Gremlin)  | DFS enumeration (exp) |
//! | `ShortestOne`                | any path ⇒ multiplicity 1     | product-DFA BFS, counts clamped (SPARQL) |

use crate::error::{Error, Result};
use crate::governor::QueryGuard;
use darpe::{CompiledDarpe, Dfa, DfaStateId};
use pgraph::bigcount::BigCount;
use pgraph::fxhash::FxHashMap;
use pgraph::graph::{EdgeId, Graph, VertexId};
use std::sync::{Mutex, PoisonError};

/// The pattern-match legality flavor used for Kleene (multi-edge) DARPEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSemantics {
    /// GSQL's default: all shortest satisfying paths, evaluated by
    /// counting — never materializes paths.
    AllShortestPaths,
    /// Same legal paths as `AllShortestPaths` but evaluated by explicit
    /// enumeration — the strategy the paper measured in Neo4j (`Q^asp`),
    /// exponential on the diamond chain.
    AllShortestPathsEnumerate,
    /// Cypher's default: paths with no repeated edge.
    NonRepeatedEdge,
    /// Gremlin-tutorial style: paths with no repeated vertex.
    NonRepeatedVertex,
    /// SPARQL 1.1 style: Kleene sub-patterns are existence tests; every
    /// reachable endpoint pair has multiplicity 1.
    ShortestOne,
}

impl PathSemantics {
    /// Whether this semantics requires explicit path materialization
    /// (exponential worst case).
    pub fn is_enumerative(self) -> bool {
        matches!(
            self,
            PathSemantics::AllShortestPathsEnumerate
                | PathSemantics::NonRepeatedEdge
                | PathSemantics::NonRepeatedVertex
        )
    }
}

/// Execution counters, surfaced through
/// [`crate::exec::QueryOutput::stats`] so tests and benchmarks can assert
/// *how* a query was evaluated, not just what it returned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of reachability kernel invocations (one per distinct source
    /// vertex per Kleene hop).
    pub kernel_calls: u64,
    /// Product states (vertex × DFA state) visited by BFS kernels.
    pub product_states: u64,
    /// Complete legal paths materialized by enumerative kernels.
    pub paths_enumerated: u64,
    /// Rows in binding tables after each FROM evaluation, summed.
    pub binding_rows: u64,
    /// ACCUM-clause executions (one per distinct binding row).
    pub acc_executions: u64,
    /// Vertex visits performed by scans and kernels (BFS product states,
    /// enumerative DFS frames, FROM-clause vertex bindings). A vertex
    /// revisited in another kernel call or automaton state counts again.
    pub vertices_touched: u64,
    /// Adjacency entries examined by scans and kernels.
    pub edges_scanned: u64,
    /// Morsels dispatched by the vectorized operators (ACCUM/POST_ACCUM,
    /// WHERE filters, group-by/projection evaluation). A pure function
    /// of table sizes and the configured morsel size — identical at any
    /// parallelism.
    pub morsels_dispatched: u64,
}

impl MatchStats {
    /// Folds a worker thread's locally-collected counters into this one.
    /// Every field is a sum, so the merged totals are independent of
    /// worker count and merge order — parallelism never changes the
    /// reported statistics.
    pub fn merge(&mut self, other: &MatchStats) {
        self.kernel_calls += other.kernel_calls;
        self.product_states += other.product_states;
        self.paths_enumerated += other.paths_enumerated;
        self.binding_rows += other.binding_rows;
        self.acc_executions += other.acc_executions;
        self.vertices_touched += other.vertices_touched;
        self.edges_scanned += other.edges_scanned;
        self.morsels_dispatched += other.morsels_dispatched;
    }
}

/// Per-target reachability result: `(target, (shortest legal length,
/// number of legal paths))`, sorted by target vertex and sized exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachMap(Vec<(VertexId, (u32, BigCount))>);

impl ReachMap {
    /// Builds the map from entries in any order with distinct targets.
    fn from_unsorted(mut entries: Vec<(VertexId, (u32, BigCount))>) -> ReachMap {
        entries.sort_unstable_by_key(|(v, _)| *v);
        entries.shrink_to_fit();
        ReachMap(entries)
    }

    /// The entry for target `v`, by binary search.
    #[inline]
    pub fn get(&self, v: &VertexId) -> Option<&(u32, BigCount)> {
        self.0.binary_search_by_key(v, |(t, _)| *t).ok().map(|i| &self.0[i].1)
    }

    /// Entries in ascending target order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, (VertexId, (u32, BigCount))> {
        self.0.iter()
    }

    /// Number of reached targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no target was reached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Index<&VertexId> for ReachMap {
    type Output = (u32, BigCount);

    fn index(&self, v: &VertexId) -> &(u32, BigCount) {
        self.get(v).expect("target not in reach map")
    }
}

impl<'m> IntoIterator for &'m ReachMap {
    type Item = &'m (VertexId, (u32, BigCount));
    type IntoIter = std::slice::Iter<'m, (VertexId, (u32, BigCount))>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Computes, for every target vertex reachable from `src` by a legal
/// satisfying path, the pair `(shortest legal length, number of legal
/// paths)` under `semantics`, on a fresh [`Kernel`]. Callers running many
/// kernels over one automaton keep a [`Kernel`] and call
/// [`Kernel::reach`] instead, as the engine does.
pub fn reach(
    graph: &Graph,
    src: VertexId,
    nfa: &CompiledDarpe,
    semantics: PathSemantics,
    guard: &QueryGuard,
    stats: &mut MatchStats,
) -> Result<ReachMap> {
    Kernel::new(nfa, graph).reach(graph, src, semantics, guard, stats)
}

/// `head` / `next` value of an empty product-state chain.
const NIL: u32 = u32::MAX;

/// One product state `(vertex, automaton state)` of the counting BFS.
#[derive(Clone, Copy)]
struct ProductState {
    v: VertexId,
    q: DfaStateId,
    dist: u32,
    /// The state discovered at `v` before this one ([`NIL`] if none):
    /// `v`'s states form a chain from `head[v]`, at most one per DFA
    /// state.
    next: u32,
}

/// The counting BFS's product states, indexed by arrays instead of a
/// hash map.
#[derive(Default)]
struct Product {
    /// Per vertex: its newest product state, [`NIL`] if it has none.
    head: Vec<u32>,
    /// Product states in discovery order — also the BFS queue.
    states: Vec<ProductState>,
    /// Path counts, parallel to `states`.
    cnt: Vec<BigCount>,
    /// The vertices whose `head` is set, in discovery order.
    touched: Vec<VertexId>,
    /// The result under construction, before it moves into an
    /// exactly-sized [`ReachMap`].
    out: Vec<(VertexId, (u32, BigCount))>,
}

impl Product {
    /// Clears the previous call's heads, states and counts, and sizes
    /// `head` for `vertices`.
    fn reset(&mut self, vertices: usize) {
        for v in self.touched.drain(..) {
            self.head[v.0 as usize] = NIL;
        }
        self.states.clear();
        self.cnt.clear();
        if self.head.len() < vertices {
            self.head.resize(vertices, NIL);
        }
    }

    /// The index of product state `(v, q)`, [`NIL`] if undiscovered.
    #[inline]
    fn find(&self, v: VertexId, q: DfaStateId) -> u32 {
        let mut j = self.head[v.0 as usize];
        while j != NIL && self.states[j as usize].q != q {
            j = self.states[j as usize].next;
        }
        j
    }

    /// Appends product state `(v, q)` at distance `dist` with count `c`.
    #[inline]
    fn push(&mut self, v: VertexId, q: DfaStateId, dist: u32, c: BigCount) {
        let head = &mut self.head[v.0 as usize];
        if *head == NIL {
            self.touched.push(v);
        }
        self.states.push(ProductState { v, q, dist, next: *head });
        *head = (self.states.len() - 1) as u32;
        self.cnt.push(c);
    }
}

/// A reachability kernel's context for one automaton: the lazily filled
/// [`Dfa`] plus the product-state arrays, kept across calls so table
/// rows and allocations outlive a single kernel. One context serves one
/// kernel call at a time; a call costs O(product states + entries
/// walked), never O(V), because it resets only the heads its predecessor
/// touched.
pub struct Kernel<'a> {
    dfa: Dfa<'a>,
    product: Product,
}

impl<'a> Kernel<'a> {
    /// A context for kernels over `nfa` on `graph`.
    pub fn new(nfa: &'a CompiledDarpe, graph: &Graph) -> Kernel<'a> {
        let product = Product { head: vec![NIL; graph.vertex_count()], ..Product::default() };
        Kernel { dfa: Dfa::new(nfa), product }
    }

    /// [`reach`] on this context. The [`QueryGuard`] enforces the
    /// caller's resource budget — path-materialization caps for the
    /// enumerative kernels plus deadline/cancellation checks at every
    /// loop head (a structured error signals the trip, exactly like the
    /// paper's 10-minute cap on Neo4j).
    pub fn reach(
        &mut self,
        graph: &Graph,
        src: VertexId,
        semantics: PathSemantics,
        guard: &QueryGuard,
        stats: &mut MatchStats,
    ) -> Result<ReachMap> {
        if src.0 as usize >= graph.vertex_count() {
            return Err(Error::runtime(format!("vertex {} is not in the graph", src.0)));
        }
        stats.kernel_calls += 1;
        match semantics {
            PathSemantics::AllShortestPaths => self.bfs_count(graph, src, false, guard, stats),
            PathSemantics::ShortestOne => self.bfs_count(graph, src, true, guard, stats),
            PathSemantics::AllShortestPathsEnumerate => {
                let targets = self.bfs_count(graph, src, false, guard, stats)?;
                enumerate_shortest(graph, src, &mut self.dfa, &targets, guard, stats)
            }
            PathSemantics::NonRepeatedEdge => {
                enumerate_simple(graph, src, &mut self.dfa, false, guard, stats)
            }
            PathSemantics::NonRepeatedVertex => {
                enumerate_simple(graph, src, &mut self.dfa, true, guard, stats)
            }
        }
    }

    /// The polynomial SDMC kernel (Theorem 6.1): BFS over the product of
    /// the graph with the lazily determinized DARPE automaton,
    /// propagating shortest-path counts. Because the automaton is
    /// deterministic, each graph path has exactly one run, so run counts
    /// are path counts. From `(v, q)` the walk reads only `v`'s adjacency
    /// groups of `q`'s live edge types. Counts are exact sums, so the
    /// result does not depend on the order states are visited in.
    fn bfs_count(
        &mut self,
        graph: &Graph,
        src: VertexId,
        clamp_to_one: bool,
        guard: &QueryGuard,
        stats: &mut MatchStats,
    ) -> Result<ReachMap> {
        let Kernel { dfa, product: p } = self;
        p.reset(graph.vertex_count());
        p.push(src, dfa.start(), 0, BigCount::one());

        let mut edges_scanned = 0u64;
        let mut i = 0;
        while i < p.states.len() {
            guard.checkpoint()?;
            let ProductState { v, q, dist, .. } = p.states[i];
            // This state only adds into states one level deeper, never
            // into itself: take its count out instead of cloning it.
            let c = std::mem::take(&mut p.cnt[i]);
            let row = dfa.row(q);
            for &ty in row.live() {
                for a in graph.adjacency_of_type(v, ty.etype) {
                    edges_scanned += 1;
                    let Some(nq) = row.next(ty, a.dir) else { continue };
                    let j = p.find(a.other, nq);
                    if j == NIL {
                        p.push(a.other, nq, dist + 1, c.clone());
                    } else if p.states[j as usize].dist == dist + 1 {
                        p.cnt[j as usize].add_assign(&c);
                    }
                }
            }
            p.cnt[i] = c;
            i += 1;
        }
        let visited = p.states.len() as u64;
        stats.product_states += visited;
        stats.vertices_touched += visited;
        stats.edges_scanned += edges_scanned;
        guard.note_visits(visited, edges_scanned);

        // Per target, in vertex order: the least distance over its
        // accepting states and the summed counts at that distance.
        p.touched.sort_unstable();
        for &v in &p.touched {
            let mut best: Option<(u32, BigCount)> = None;
            let mut j = p.head[v.0 as usize];
            while j != NIL {
                let st = p.states[j as usize];
                if dfa.is_accepting(st.q) {
                    let c = std::mem::take(&mut p.cnt[j as usize]);
                    match &mut best {
                        Some((d, sum)) if *d == st.dist => sum.add_assign(&c),
                        Some((d, _)) if *d < st.dist => {}
                        _ => best = Some((st.dist, c)),
                    }
                }
                j = st.next;
            }
            if let Some((d, c)) = best {
                p.out.push((v, (d, if clamp_to_one { BigCount::one() } else { c })));
            }
        }
        Ok(ReachMap(p.out.drain(..).collect()))
    }
}

/// Enumerates every *shortest* legal path explicitly (the suboptimal
/// all-shortest-paths strategy the paper observed in Neo4j). `targets`
/// gives each target's shortest legal length; the DFS walks the product
/// automaton without repetition constraints up to the maximum relevant
/// depth and counts arrivals that hit a target at exactly its shortest
/// length.
fn enumerate_shortest(
    graph: &Graph,
    src: VertexId,
    dfa: &mut Dfa<'_>,
    targets: &ReachMap,
    guard: &QueryGuard,
    stats: &mut MatchStats,
) -> Result<ReachMap> {
    let max_depth = targets.iter().map(|(_, (d, _))| *d).max().unwrap_or(0);
    let mut out: FxHashMap<VertexId, (u32, BigCount)> = FxHashMap::default();
    let mut enumerated = 0u64;

    struct Frame {
        v: VertexId,
        q: DfaStateId,
        next_edge: usize,
    }
    let mut vertices_touched = 1u64; // the root frame
    let mut edges_scanned = 0u64;
    let mut stack = vec![Frame { v: src, q: dfa.start(), next_edge: 0 }];
    while let Some(top) = stack.last() {
        guard.checkpoint()?;
        let depth = (stack.len() - 1) as u32;
        let (v, q) = (top.v, top.q);
        if top.next_edge == 0 {
            // First visit of this walk position: check for a match.
            if dfa.is_accepting(q) {
                if let Some(&(short, _)) = targets.get(&v) {
                    if short == depth {
                        enumerated += 1;
                        guard.tick_path()?;
                        out.entry(v)
                            .or_insert_with(|| (depth, BigCount::zero()))
                            .1
                            .add_u64(1);
                    }
                }
            }
        }
        if depth == max_depth {
            stack.pop();
            continue;
        }
        let adj = graph.adjacency(v);
        let mut advanced = false;
        let start_edge = stack.last().unwrap().next_edge;
        for (off, a) in adj[start_edge..].iter().enumerate() {
            edges_scanned += 1;
            if let Some(nq) = dfa.next(q, a.etype, a.dir) {
                let idx = start_edge + off;
                stack.last_mut().unwrap().next_edge = idx + 1;
                stack.push(Frame { v: a.other, q: nq, next_edge: 0 });
                vertices_touched += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            stack.pop();
        }
    }
    stats.paths_enumerated += enumerated;
    stats.vertices_touched += vertices_touched;
    stats.edges_scanned += edges_scanned;
    guard.note_visits(vertices_touched, edges_scanned);
    Ok(ReachMap::from_unsorted(out.into_iter().collect()))
}

/// Enumerates simple paths (non-repeated edge or vertex) through the
/// product automaton by DFS — Cypher's / Gremlin's strategy, exponential
/// in the worst case and the baseline of Table 1.
fn enumerate_simple(
    graph: &Graph,
    src: VertexId,
    dfa: &mut Dfa<'_>,
    vertex_flavor: bool,
    guard: &QueryGuard,
    stats: &mut MatchStats,
) -> Result<ReachMap> {
    let mut out: FxHashMap<VertexId, (u32, BigCount)> = FxHashMap::default();
    let mut used_edges: FxHashMap<EdgeId, ()> = FxHashMap::default();
    let mut used_vertices: FxHashMap<VertexId, ()> = FxHashMap::default();
    let mut enumerated = 0u64;

    struct Frame {
        v: VertexId,
        q: DfaStateId,
        next_edge: usize,
        /// Edge crossed to get here (to release on backtrack).
        via: Option<EdgeId>,
    }

    if vertex_flavor {
        used_vertices.insert(src, ());
    }
    let mut vertices_touched = 1u64; // the root frame
    let mut edges_scanned = 0u64;
    let mut stack = vec![Frame { v: src, q: dfa.start(), next_edge: 0, via: None }];
    while !stack.is_empty() {
        guard.checkpoint()?;
        let depth = (stack.len() - 1) as u32;
        let (v, q, first_visit) = {
            let top = stack.last().unwrap();
            (top.v, top.q, top.next_edge == 0)
        };
        if first_visit && dfa.is_accepting(q) {
            enumerated += 1;
            guard.tick_path()?;
            match out.get_mut(&v) {
                None => {
                    out.insert(v, (depth, BigCount::one()));
                }
                Some(slot) => {
                    slot.0 = slot.0.min(depth);
                    slot.1.add_u64(1);
                }
            }
        }
        let adj = graph.adjacency(v);
        let start_edge = stack.last().unwrap().next_edge;
        let mut advanced = false;
        for (off, a) in adj[start_edge..].iter().enumerate() {
            edges_scanned += 1;
            let idx = start_edge + off;
            if vertex_flavor {
                if used_vertices.contains_key(&a.other) {
                    continue;
                }
            } else if used_edges.contains_key(&a.edge) {
                continue;
            }
            if let Some(nq) = dfa.next(q, a.etype, a.dir) {
                stack.last_mut().unwrap().next_edge = idx + 1;
                if vertex_flavor {
                    used_vertices.insert(a.other, ());
                } else {
                    used_edges.insert(a.edge, ());
                }
                stack.push(Frame { v: a.other, q: nq, next_edge: 0, via: Some(a.edge) });
                vertices_touched += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            let popped = stack.pop().unwrap();
            if vertex_flavor {
                if !stack.is_empty() {
                    used_vertices.remove(&popped.v);
                }
            } else if let Some(e) = popped.via {
                used_edges.remove(&e);
            }
        }
    }
    stats.paths_enumerated += enumerated;
    stats.vertices_touched += vertices_touched;
    stats.edges_scanned += edges_scanned;
    guard.note_visits(vertices_touched, edges_scanned);
    Ok(ReachMap::from_unsorted(out.into_iter().collect()))
}

/// A Kleene hop's kernel contexts, all over the hop's one automaton. A
/// kernel call takes a context and puts it back, so at most one exists
/// per worker, and the automaton's table rows and the product-state
/// allocations outlive single kernel calls.
pub(crate) struct KernelPool<'a> {
    graph: &'a Graph,
    nfa: &'a CompiledDarpe,
    free: Mutex<Vec<Kernel<'a>>>,
}

impl<'a> KernelPool<'a> {
    pub(crate) fn new(graph: &'a Graph, nfa: &'a CompiledDarpe) -> Self {
        KernelPool { graph, nfa, free: Mutex::new(Vec::new()) }
    }

    /// One reachability kernel from `key` on a pooled context.
    pub(crate) fn reach(
        &self,
        key: VertexId,
        semantics: PathSemantics,
        guard: &QueryGuard,
        stats: &mut MatchStats,
    ) -> Result<ReachMap> {
        let free = || self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let taken = free().pop();
        let mut kernel = taken.unwrap_or_else(|| Kernel::new(self.nfa, self.graph));
        let out = kernel.reach(self.graph, key, semantics, guard, stats);
        free().push(kernel);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darpe::parse as dparse;
    use pgraph::generators::{diamond_chain, example10_g2, example9_g1};

    fn compiled(text: &str, g: &Graph) -> CompiledDarpe {
        CompiledDarpe::compile(&dparse(text).unwrap(), g.schema()).unwrap()
    }

    fn count_for(
        g: &Graph,
        src: VertexId,
        dst: VertexId,
        darpe: &str,
        sem: PathSemantics,
    ) -> Option<u64> {
        let nfa = compiled(darpe, g);
        let mut stats = MatchStats::default();
        let guard = QueryGuard::with_path_budget(Some(1_000_000));
        let m = reach(g, src, &nfa, sem, &guard, &mut stats).unwrap();
        m.get(&dst).map(|(_, c)| c.to_u64().unwrap())
    }

    #[test]
    fn example9_multiplicities() {
        // Pattern :s -(E>*)- :t from vertex 1 to 5: multiplicity 3 / 4 / 2
        // / 1 under NRV / NRE / ASP / SPARQL (paper Example 9).
        let (g, v) = example9_g1();
        assert_eq!(
            count_for(&g, v[1], v[5], "E>*", PathSemantics::NonRepeatedVertex),
            Some(3)
        );
        assert_eq!(
            count_for(&g, v[1], v[5], "E>*", PathSemantics::NonRepeatedEdge),
            Some(4)
        );
        assert_eq!(
            count_for(&g, v[1], v[5], "E>*", PathSemantics::AllShortestPaths),
            Some(2)
        );
        assert_eq!(
            count_for(&g, v[1], v[5], "E>*", PathSemantics::AllShortestPathsEnumerate),
            Some(2)
        );
        assert_eq!(
            count_for(&g, v[1], v[5], "E>*", PathSemantics::ShortestOne),
            Some(1)
        );
    }

    #[test]
    fn example10_only_asp_matches() {
        // G2: E>*.F>.E>* matches 1→4 only under all-shortest-paths.
        let (g, v) = example10_g2();
        let darpe = "E>*.F>.E>*";
        assert_eq!(
            count_for(&g, v[1], v[4], darpe, PathSemantics::AllShortestPaths),
            Some(1)
        );
        assert_eq!(count_for(&g, v[1], v[4], darpe, PathSemantics::NonRepeatedEdge), None);
        assert_eq!(count_for(&g, v[1], v[4], darpe, PathSemantics::NonRepeatedVertex), None);
        // The shortest length is 7 (1-2-3-5-6-2-3-4).
        let nfa = compiled(darpe, &g);
        let mut stats = MatchStats::default();
        let guard = QueryGuard::unlimited();
        let m =
            reach(&g, v[1], &nfa, PathSemantics::AllShortestPaths, &guard, &mut stats).unwrap();
        assert_eq!(m.get(&v[4]).map(|(d, _)| *d), Some(7));
    }

    #[test]
    fn diamond_counts_match_all_semantics() {
        // Example 11: all three semantics coincide on the diamond chain.
        let (g, spine) = diamond_chain(6);
        for sem in [
            PathSemantics::AllShortestPaths,
            PathSemantics::AllShortestPathsEnumerate,
            PathSemantics::NonRepeatedEdge,
            PathSemantics::NonRepeatedVertex,
        ] {
            assert_eq!(count_for(&g, spine[0], spine[6], "E>*", sem), Some(64), "{sem:?}");
        }
    }

    #[test]
    fn counting_handles_exponential_counts() {
        let (g, spine) = diamond_chain(100);
        let nfa = compiled("E>*", &g);
        let mut stats = MatchStats::default();
        let guard = QueryGuard::unlimited();
        let m = reach(&g, spine[0], &nfa, PathSemantics::AllShortestPaths, &guard, &mut stats)
            .unwrap();
        assert_eq!(m.get(&spine[100]).unwrap().1, BigCount::pow2(100));
        // Polynomial state count: O(V) product states for this DFA.
        assert!(stats.product_states < 2 * g.vertex_count() as u64 + 10);
    }

    #[test]
    fn enumeration_budget_trips() {
        let (g, spine) = diamond_chain(30);
        let nfa = compiled("E>*", &g);
        let mut stats = MatchStats::default();
        let guard = QueryGuard::with_path_budget(Some(10_000));
        let r = reach(
            &g,
            spine[0],
            &nfa,
            PathSemantics::NonRepeatedEdge,
            &guard,
            &mut stats,
        );
        assert_eq!(r.unwrap_err().kind(), crate::error::ErrorKind::PathBudget);
        assert!(guard.report().paths_enumerated > 10_000);
    }

    #[test]
    fn empty_pattern_matches_source() {
        let (g, spine) = diamond_chain(2);
        // E>* accepts the empty word: src itself has one legal path.
        assert_eq!(
            count_for(&g, spine[0], spine[0], "E>*", PathSemantics::AllShortestPaths),
            Some(1)
        );
    }

    #[test]
    fn fixed_length_pattern_on_cycle() {
        // Section 6 "fixed-unique-length" discussion: on cycle v-A>u-B>w-C>v,
        // pattern A>.B>.C>.A> matches v→u by wrapping the cycle (length 4)
        // under ASP, but not under non-repeating semantics.
        let mut s = pgraph::schema::Schema::new();
        s.add_vertex_type("V", vec![pgraph::schema::AttrDef::new("name", pgraph::value::ValueType::Str)]).unwrap();
        s.add_edge_type("A", true, vec![]).unwrap();
        s.add_edge_type("B", true, vec![]).unwrap();
        s.add_edge_type("C", true, vec![]).unwrap();
        let mut b = pgraph::graph::GraphBuilder::new(s);
        let v = b.vertex("V", &[("name", pgraph::value::Value::from("v"))]).unwrap();
        let u = b.vertex("V", &[("name", pgraph::value::Value::from("u"))]).unwrap();
        let w = b.vertex("V", &[("name", pgraph::value::Value::from("w"))]).unwrap();
        b.edge("A", v, u, &[]).unwrap();
        b.edge("B", u, w, &[]).unwrap();
        b.edge("C", w, v, &[]).unwrap();
        let g = b.build();
        let darpe = "A>.B>.C>.A>";
        assert_eq!(count_for(&g, v, u, darpe, PathSemantics::AllShortestPaths), Some(1));
        assert_eq!(count_for(&g, v, u, darpe, PathSemantics::NonRepeatedEdge), None);
        assert_eq!(count_for(&g, v, u, darpe, PathSemantics::NonRepeatedVertex), None);
    }
}
