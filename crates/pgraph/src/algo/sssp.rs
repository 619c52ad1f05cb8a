//! Single-source shortest paths (unweighted BFS), reference for the GSQL
//! shortest-path queries and for validating SDMC distances.

use crate::graph::{Dir, Graph, VertexId};
use std::collections::VecDeque;

/// BFS hop distances from `src` following `Out`/`Und` adjacency
/// (`None` = unreachable).
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; g.vertex_count()];
    dist[src.0 as usize] = Some(0);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u.0 as usize].unwrap();
        for a in g.adjacency(u) {
            if a.dir == Dir::In {
                continue;
            }
            let slot = &mut dist[a.other.0 as usize];
            if slot.is_none() {
                *slot = Some(du + 1);
                q.push_back(a.other);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{diamond_chain, directed_cycle, directed_path};

    #[test]
    fn path_distances_are_indices() {
        let (g, vs) = directed_path(4);
        let d = bfs_distances(&g, vs[0]);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(d[v.0 as usize], Some(i as u32));
        }
    }

    #[test]
    fn reverse_unreachable_on_directed_path() {
        let (g, vs) = directed_path(4);
        let d = bfs_distances(&g, vs[4]);
        assert_eq!(d[vs[0].0 as usize], None);
        assert_eq!(d[vs[4].0 as usize], Some(0));
    }

    #[test]
    fn cycle_wraps() {
        let (g, vs) = directed_cycle(6);
        let d = bfs_distances(&g, vs[0]);
        assert_eq!(d[vs[5].0 as usize], Some(5));
    }

    #[test]
    fn diamond_spine_distance_is_two_per_diamond() {
        let (g, spine) = diamond_chain(5);
        let d = bfs_distances(&g, spine[0]);
        for (k, v) in spine.iter().enumerate() {
            assert_eq!(d[v.0 as usize], Some(2 * k as u32));
        }
    }
}

/// Weighted single-source shortest paths (Dijkstra) with weights read
/// from edge attribute column `weight_idx` (numeric, non-negative).
/// Follows `Out`/`Und` adjacency. `None` = unreachable.
pub fn dijkstra(g: &Graph, src: VertexId, weight_idx: usize) -> Vec<Option<f64>> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f64, VertexId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap via reversed comparison on the distance.
            other.0.total_cmp(&self.0)
        }
    }

    let mut dist: Vec<Option<f64>> = vec![None; g.vertex_count()];
    let mut heap = BinaryHeap::new();
    dist[src.0 as usize] = Some(0.0);
    heap.push(Entry(0.0, src));
    while let Some(Entry(d, u)) = heap.pop() {
        if dist[u.0 as usize].is_some_and(|best| d > best) {
            continue;
        }
        for a in g.adjacency(u) {
            if a.dir == Dir::In {
                continue;
            }
            let w = g
                .edge_attr(a.edge, weight_idx)
                .as_f64()
                .unwrap_or(f64::INFINITY)
                .max(0.0);
            let nd = d + w;
            let slot = &mut dist[a.other.0 as usize];
            if slot.is_none() || slot.is_some_and(|cur| nd < cur) {
                *slot = Some(nd);
                heap.push(Entry(nd, a.other));
            }
        }
    }
    dist
}

#[cfg(test)]
mod dijkstra_tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};
    use crate::value::{Value, ValueType};

    fn weighted_graph() -> (Graph, Vec<VertexId>) {
        let mut s = Schema::new();
        s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)]).unwrap();
        s.add_edge_type("E", true, vec![AttrDef::new("w", ValueType::Double)]).unwrap();
        let mut b = crate::graph::GraphBuilder::new(s);
        let vs: Vec<VertexId> = (0..5)
            .map(|i| b.vertex("V", &[("name", Value::from(format!("v{i}")))]).unwrap())
            .collect();
        // 0 -1-> 1 -1-> 2 and 0 -5-> 2; 2 -2-> 3; 4 isolated.
        for (s_, t, w) in [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 2.0)] {
            b.edge("E", vs[s_], vs[t], &[("w", Value::Double(w))]).unwrap();
        }
        (b.build(), vs)
    }

    #[test]
    fn prefers_cheaper_multi_hop_route() {
        let (g, vs) = weighted_graph();
        let d = dijkstra(&g, vs[0], 0);
        assert_eq!(d[vs[0].0 as usize], Some(0.0));
        assert_eq!(d[vs[1].0 as usize], Some(1.0));
        assert_eq!(d[vs[2].0 as usize], Some(2.0)); // via v1, not the 5.0 edge
        assert_eq!(d[vs[3].0 as usize], Some(4.0));
        assert_eq!(d[vs[4].0 as usize], None);
    }

    #[test]
    fn unweighted_dijkstra_matches_bfs_hops() {
        // With all weights 1, Dijkstra distance = BFS hop count.
        let mut s = Schema::new();
        s.add_vertex_type("V", vec![]).unwrap();
        s.add_edge_type("E", true, vec![AttrDef::new("w", ValueType::Double)]).unwrap();
        let mut g = Graph::new(s);
        let vt = g.schema().vertex_type_id("V").unwrap();
        let et = g.schema().edge_type_id("E").unwrap();
        let vs: Vec<VertexId> = (0..20).map(|_| g.add_vertex(vt, vec![]).unwrap()).collect();
        for i in 0..19usize {
            g.add_edge(et, vs[i], vs[(i * 7 + 3) % 20], vec![Value::Double(1.0)]).unwrap();
            g.add_edge(et, vs[i], vs[i + 1], vec![Value::Double(1.0)]).unwrap();
        }
        g.finalize();
        let dj = dijkstra(&g, vs[0], 0);
        let bfs = bfs_distances(&g, vs[0]);
        for i in 0..20 {
            assert_eq!(dj[i].map(|d| d as u32), bfs[i]);
        }
    }
}
