//! Reference path counting, both polynomial (BFS counting) and
//! exponential (explicit enumeration), untyped (every out-going edge is
//! followed). The DARPE-aware versions live in the query engine; these
//! are the ground truth for single-edge-type graphs like the diamond
//! chain.

use crate::bigcount::BigCount;
use crate::fxhash::FxHashSet;
use crate::graph::{Dir, EdgeId, Graph, VertexId};
use std::collections::VecDeque;

/// Counts shortest directed paths from `src` to `dst` following `Out` and
/// `Und` adjacency, with the standard BFS counting recurrence. Returns
/// `(shortest length, count)`, or `None` when `dst` is unreachable.
///
/// This is the untyped special case of the paper's single-pair SDMC
/// (Theorem 6.1): polynomial time, counts without materializing paths.
pub fn count_shortest_paths(g: &Graph, src: VertexId, dst: VertexId) -> Option<(usize, BigCount)> {
    let n = g.vertex_count();
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    let mut cnt: Vec<BigCount> = vec![BigCount::zero(); n];
    dist[src.0 as usize] = 0;
    cnt[src.0 as usize] = BigCount::one();
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u.0 as usize];
        if dst != src && dist[dst.0 as usize] != u32::MAX && du >= dist[dst.0 as usize] {
            // Every remaining frontier vertex is at least as far as dst;
            // counts into dst are already complete once we pass its level.
            if du > dist[dst.0 as usize] {
                break;
            }
        }
        // `u` only adds into neighbours one level deeper, never into
        // itself: take its count out instead of cloning it per neighbour.
        let cu = std::mem::take(&mut cnt[u.0 as usize]);
        for a in g.adjacency(u) {
            if a.dir == Dir::In {
                continue;
            }
            let v = a.other.0 as usize;
            if dist[v] == u32::MAX {
                dist[v] = du + 1;
                cnt[v] = cu.clone();
                q.push_back(a.other);
            } else if dist[v] == du + 1 {
                cnt[v].add_assign(&cu);
            }
        }
        cnt[u.0 as usize] = cu;
    }
    if dist[dst.0 as usize] == u32::MAX {
        None
    } else {
        Some((dist[dst.0 as usize] as usize, cnt[dst.0 as usize].clone()))
    }
}

/// Which paths an enumeration counts — the legality flavors of Section 6
/// that require explicit materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationPolicy {
    /// No repeated edges (Cypher's default).
    NonRepeatedEdge,
    /// No repeated vertices (Gremlin tutorial style).
    NonRepeatedVertex,
    /// All paths of exactly the given length (used to model Neo4j's
    /// enumerate-all-shortest-paths behaviour: first find the shortest
    /// length by BFS, then enumerate).
    ExactLength(usize),
}

/// Explicitly enumerates (and counts) the legal directed paths from `src`
/// to `dst` under `policy`. Worst-case exponential — this is the baseline
/// whose blow-up Table 1 demonstrates. `limit` aborts the count early
/// (returns `None`) once more than `limit` paths have been found, so
/// benchmarks can time out gracefully.
pub fn count_paths_enumerated(
    g: &Graph,
    src: VertexId,
    dst: VertexId,
    policy: EnumerationPolicy,
    limit: Option<u64>,
) -> Option<u64> {
    struct DfsState<'a> {
        g: &'a Graph,
        dst: VertexId,
        policy: EnumerationPolicy,
        limit: Option<u64>,
        used_edges: FxHashSet<EdgeId>,
        used_vertices: FxHashSet<VertexId>,
        found: u64,
        overflow: bool,
    }
    impl DfsState<'_> {
        fn dfs(&mut self, u: VertexId, depth: usize) {
            if self.overflow {
                return;
            }
            let at_dst = u == self.dst;
            match self.policy {
                EnumerationPolicy::ExactLength(len) => {
                    if depth == len {
                        if at_dst {
                            self.bump();
                        }
                        return;
                    }
                }
                _ => {
                    if at_dst && depth > 0 {
                        self.bump();
                        // Non-repeating paths may continue through dst and
                        // come back? No: a path *ends* at dst for counting
                        // purposes; longer paths through dst to dst again
                        // are different paths only if they end at dst later.
                        // Both Cypher and Gremlin treat each simple path
                        // reaching dst as one match, and paths may revisit
                        // dst only if vertex repetition is allowed — for
                        // NonRepeatedEdge we must keep exploring.
                        if self.policy == EnumerationPolicy::NonRepeatedVertex {
                            return;
                        }
                    }
                }
            }
            for i in 0..self.g.adjacency(u).len() {
                let a = self.g.adjacency(u)[i];
                if a.dir == Dir::In {
                    continue;
                }
                match self.policy {
                    EnumerationPolicy::NonRepeatedEdge => {
                        if !self.used_edges.insert(a.edge) {
                            continue;
                        }
                        self.dfs(a.other, depth + 1);
                        self.used_edges.remove(&a.edge);
                    }
                    EnumerationPolicy::NonRepeatedVertex => {
                        if !self.used_vertices.insert(a.other) {
                            continue;
                        }
                        self.dfs(a.other, depth + 1);
                        self.used_vertices.remove(&a.other);
                    }
                    EnumerationPolicy::ExactLength(_) => {
                        self.dfs(a.other, depth + 1);
                    }
                }
            }
        }
        fn bump(&mut self) {
            self.found += 1;
            if let Some(l) = self.limit {
                if self.found > l {
                    self.overflow = true;
                }
            }
        }
    }
    let mut st = DfsState {
        g,
        dst,
        policy,
        limit,
        used_edges: FxHashSet::default(),
        used_vertices: FxHashSet::default(),
        found: 0,
        overflow: false,
    };
    st.used_vertices.insert(src);
    st.dfs(src, 0);
    if st.overflow {
        None
    } else {
        Some(st.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{diamond_chain, directed_cycle, directed_path, example9_g1, grid};

    #[test]
    fn diamond_counts_are_powers_of_two() {
        let (g, spine) = diamond_chain(8);
        for k in 1..=8 {
            let (len, cnt) = count_shortest_paths(&g, spine[0], spine[k]).unwrap();
            assert_eq!(len, 2 * k);
            assert_eq!(cnt, BigCount::pow2(k));
        }
    }

    #[test]
    fn diamond_counts_huge() {
        // 80 diamonds would overflow u64; BigCount must carry it.
        let (g, spine) = diamond_chain(80);
        let (_, cnt) = count_shortest_paths(&g, spine[0], spine[80]).unwrap();
        assert_eq!(cnt, BigCount::pow2(80));
    }

    #[test]
    fn grid_counts_are_binomials() {
        let (g, m) = grid(4, 4);
        let (len, cnt) = count_shortest_paths(&g, m[0][0], m[3][3]).unwrap();
        assert_eq!(len, 6);
        assert_eq!(cnt.to_u64(), Some(20)); // C(6,3)
    }

    #[test]
    fn unreachable_is_none() {
        let (g, vs) = directed_path(3);
        assert!(count_shortest_paths(&g, vs[3], vs[0]).is_none());
    }

    #[test]
    fn source_equals_target() {
        let (g, vs) = directed_path(3);
        let (len, cnt) = count_shortest_paths(&g, vs[1], vs[1]).unwrap();
        assert_eq!(len, 0);
        assert!(cnt.is_one());
    }

    #[test]
    fn g1_flavor_counts_match_example9() {
        // Example 9: from vertex 1 to vertex 5 there are 3 non-repeated-
        // vertex paths, 4 non-repeated-edge paths and 2 shortest paths.
        let (g, v) = example9_g1();
        assert_eq!(
            count_paths_enumerated(&g, v[1], v[5], EnumerationPolicy::NonRepeatedVertex, None),
            Some(3)
        );
        assert_eq!(
            count_paths_enumerated(&g, v[1], v[5], EnumerationPolicy::NonRepeatedEdge, None),
            Some(4)
        );
        let (len, cnt) = count_shortest_paths(&g, v[1], v[5]).unwrap();
        assert_eq!(len, 4);
        assert_eq!(cnt.to_u64(), Some(2));
    }

    #[test]
    fn enumeration_matches_counting_on_diamonds() {
        let (g, spine) = diamond_chain(6);
        let (len, cnt) = count_shortest_paths(&g, spine[0], spine[6]).unwrap();
        for policy in [
            EnumerationPolicy::NonRepeatedEdge,
            EnumerationPolicy::NonRepeatedVertex,
            EnumerationPolicy::ExactLength(len),
        ] {
            assert_eq!(
                count_paths_enumerated(&g, spine[0], spine[6], policy, None),
                cnt.to_u64()
            );
        }
    }

    #[test]
    fn enumeration_limit_aborts() {
        let (g, spine) = diamond_chain(10);
        assert_eq!(
            count_paths_enumerated(
                &g,
                spine[0],
                spine[10],
                EnumerationPolicy::NonRepeatedEdge,
                Some(100)
            ),
            None
        );
    }

    #[test]
    fn cycle_has_no_simple_path_back_to_start_but_exact_length_does() {
        let (g, vs) = directed_cycle(4);
        // v0 -> ... -> v0 of exact length 4 wraps the cycle once.
        assert_eq!(
            count_paths_enumerated(&g, vs[0], vs[0], EnumerationPolicy::ExactLength(4), None),
            Some(1)
        );
        assert_eq!(
            count_paths_enumerated(&g, vs[0], vs[0], EnumerationPolicy::ExactLength(8), None),
            Some(1)
        );
    }
}
