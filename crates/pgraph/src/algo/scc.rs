//! Strongly connected components (iterative Tarjan). Complements the
//! weakly-connected reference and backs tests about directed
//! reachability structure (every cycle a Kleene pattern can wrap lives
//! inside one SCC).

use crate::graph::{Dir, Graph, VertexId};

/// Returns `(component id per vertex, component count)`. Ids are
/// assigned in reverse topological order of the condensation (Tarjan's
/// numbering); singleton vertices get their own component.
pub fn strongly_connected_components(g: &Graph) -> (Vec<u32>, usize) {
    const UNVISITED: u32 = u32::MAX;
    let n = g.vertex_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Iterative Tarjan: frame = (vertex, next adjacency offset).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut ai)) = call.last_mut() {
            let vi = v as usize;
            if *ai == 0 {
                index[vi] = next_index;
                lowlink[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let adj = g.adjacency(VertexId(v));
            let mut recursed = false;
            while *ai < adj.len() {
                let a = adj[*ai];
                *ai += 1;
                if a.dir == Dir::In {
                    continue; // follow Out and Und only
                }
                let w = a.other.0 as usize;
                if index[w] == UNVISITED {
                    call.push((a.other.0, 0));
                    recursed = true;
                    break;
                } else if on_stack[w] {
                    lowlink[vi] = lowlink[vi].min(index[w]);
                }
            }
            if recursed {
                continue;
            }
            // v finished.
            if lowlink[vi] == index[vi] {
                loop {
                    let w = stack.pop().unwrap();
                    on_stack[w as usize] = false;
                    comp[w as usize] = comp_count;
                    if w == v {
                        break;
                    }
                }
                comp_count += 1;
            }
            call.pop();
            if let Some(&mut (p, _)) = call.last_mut() {
                let pi = p as usize;
                lowlink[pi] = lowlink[pi].min(lowlink[vi]);
            }
        }
    }
    (comp, comp_count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{directed_cycle, directed_path, ve_schema};
    use crate::graph::GraphBuilder;
    use crate::value::Value;

    #[test]
    fn cycle_is_one_component() {
        let (g, _) = directed_cycle(6);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn path_is_all_singletons() {
        let (g, _) = directed_path(5);
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 6);
        // All distinct.
        let mut c = comp.clone();
        c.sort_unstable();
        c.dedup();
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn two_cycles_bridged_one_way() {
        // cycle {0,1,2} -> bridge -> cycle {3,4,5}: two SCCs.
        let mut b = GraphBuilder::new(ve_schema());
        let vs: Vec<_> = (0..6)
            .map(|i| b.vertex("V", &[("name", Value::from(format!("v{i}")))]).unwrap())
            .collect();
        for (s, t) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.edge("E", vs[s], vs[t], &[]).unwrap();
        }
        let g = b.build();
        let (comp, count) = strongly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[3]);
        // Reverse topological numbering: the sink SCC {3,4,5} closes first.
        assert!(comp[3] < comp[0]);
    }

    #[test]
    fn undirected_edges_are_bidirectional() {
        // a -UndE- b forms a 2-cycle for SCC purposes.
        let mut s = crate::schema::Schema::new();
        s.add_vertex_type("V", vec![]).unwrap();
        s.add_edge_type("U", false, vec![]).unwrap();
        let mut g = crate::graph::Graph::new(s);
        let vt = g.schema().vertex_type_id("V").unwrap();
        let et = g.schema().edge_type_id("U").unwrap();
        let a = g.add_vertex(vt, vec![]).unwrap();
        let b = g.add_vertex(vt, vec![]).unwrap();
        g.add_edge(et, a, b, vec![]).unwrap();
        g.finalize();
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn scc_refines_wcc() {
        let g = crate::generators::erdos_renyi(60, 0.05, 11);
        let (scc, nscc) = strongly_connected_components(&g);
        let (wcc, nwcc) = crate::algo::weakly_connected_components(&g);
        assert!(nscc >= nwcc);
        // Vertices in the same SCC are in the same WCC.
        for i in 0..g.vertex_count() {
            for j in 0..g.vertex_count() {
                if scc[i] == scc[j] {
                    assert_eq!(wcc[i], wcc[j]);
                }
            }
        }
    }
}
