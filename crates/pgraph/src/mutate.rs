//! Mutation batches over an immutable snapshot.
//!
//! A [`MutationOp`] describes one primitive change; a batch of ops is the
//! unit of atomicity, durability (one WAL frame) and publication (one new
//! snapshot). Every id inside a batch refers to the **batch-start**
//! graph: `AddVertex` assigns provisional ids sequentially from the
//! starting vertex count, so an op later in the same batch can reference
//! a vertex the batch itself inserted, and no op ever observes the id
//! compaction that deletions trigger.
//!
//! **Cost.** A batch of inserts and attribute updates costs O(batch): the
//! graph it is applied to shares its storage with the snapshot it was
//! cloned from (see [`crate::graph`]), each write copies only the store
//! chunk it lands in, and the closing finalize rebuilds only
//! the CSR chunks holding a touched vertex. The result is nevertheless
//! fully finalized, and identical — adjacency order included — to a
//! from-scratch build of the same logical graph, which is what makes WAL
//! replay from any checkpoint reproduce byte-identical query results.
//!
//! Deletion is the exception, and is O(graph): it is
//! tombstone-then-compact. Adds and attribute writes apply immediately,
//! delete marks accumulate, and — only if the batch deleted anything —
//! the graph is rebuilt once at the end with dead vertices, dead edges,
//! and edges touching a dead endpoint dropped and ids re-densified (every
//! surviving id may change, so nothing could be shared anyway). The
//! rebuild is deterministic: insertion order is preserved.

use crate::graph::{EdgeId, Graph, GraphError, VertexId};
use crate::schema::{ETypeId, VTypeId};
use crate::value::Value;

/// One primitive change, with ids interpreted against the batch-start
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    AddVertex { vtype: VTypeId, attrs: Vec<Value> },
    AddEdge { etype: ETypeId, src: VertexId, dst: VertexId, attrs: Vec<Value> },
    SetVertexAttr { v: VertexId, attr: usize, value: Value },
    SetEdgeAttr { e: EdgeId, attr: usize, value: Value },
    DeleteVertex { v: VertexId },
    DeleteEdge { e: EdgeId },
}

/// What a successfully applied batch did (for `POST /mutate` responses
/// and shell feedback).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    pub inserted_vertices: usize,
    pub inserted_edges: usize,
    pub updated_attrs: usize,
    pub deleted_vertices: usize,
    pub deleted_edges: usize,
}

impl BatchSummary {
    pub fn is_empty(&self) -> bool {
        *self == BatchSummary::default()
    }
}

/// Applies `ops` to `g` (a private, storage-sharing clone of the
/// published snapshot) as one atomic batch. On error the graph must be
/// discarded — it may hold a prefix of the batch.
///
/// Either way `g` is left finalized, like every graph outside this
/// crate: all of its edges are in the CSR, and it has a fresh epoch.
/// Only the CSR chunks the batch touched are rebuilt.
pub fn apply_batch(g: &mut Graph, ops: &[MutationOp]) -> Result<BatchSummary, GraphError> {
    let mut summary = BatchSummary::default();
    let mut dead_vertices: Vec<bool> = Vec::new();
    let mut dead_edges: Vec<bool> = Vec::new();

    let applied = ops.iter().try_for_each(|op| {
        match op {
            MutationOp::AddVertex { vtype, attrs } => {
                if vtype.0 as usize >= g.schema().vertex_type_count() {
                    return Err(GraphError::Schema(
                        crate::schema::SchemaError::UnknownVertexType(format!("#{}", vtype.0)),
                    ));
                }
                g.add_vertex(*vtype, attrs.clone())?;
                summary.inserted_vertices += 1;
            }
            MutationOp::AddEdge { etype, src, dst, attrs } => {
                if etype.0 as usize >= g.schema().edge_type_count() {
                    return Err(GraphError::Schema(
                        crate::schema::SchemaError::UnknownEdgeType(format!("#{}", etype.0)),
                    ));
                }
                g.add_edge(*etype, *src, *dst, attrs.clone())?;
                summary.inserted_edges += 1;
            }
            MutationOp::SetVertexAttr { v, attr, value } => {
                g.set_vertex_attr(*v, *attr, value.clone())?;
                summary.updated_attrs += 1;
            }
            MutationOp::SetEdgeAttr { e, attr, value } => {
                g.set_edge_attr(*e, *attr, value.clone())?;
                summary.updated_attrs += 1;
            }
            MutationOp::DeleteVertex { v } => {
                if v.0 as usize >= g.vertex_count() {
                    return Err(GraphError::BadVertexId(*v));
                }
                mark(&mut dead_vertices, v.0 as usize);
            }
            MutationOp::DeleteEdge { e } => {
                if e.0 as usize >= g.edge_count() {
                    return Err(GraphError::BadEdgeId(*e));
                }
                mark(&mut dead_edges, e.0 as usize);
            }
        }
        Ok(())
    });
    if let Err(e) = applied {
        // Even a failed batch leaves a readable graph: none leaves this
        // crate with edges outside the CSR.
        g.finalize();
        return Err(e);
    }

    if dead_vertices.iter().any(|&d| d) || dead_edges.iter().any(|&d| d) {
        let (compacted, dv, de) = compact(g, &dead_vertices, &dead_edges);
        summary.deleted_vertices = dv;
        summary.deleted_edges = de;
        *g = compacted;
    } else {
        g.finalize();
    }
    Ok(summary)
}

fn mark(flags: &mut Vec<bool>, idx: usize) {
    if flags.len() <= idx {
        flags.resize(idx + 1, false);
    }
    flags[idx] = true;
}

/// Rebuilds `g` without tombstoned vertices/edges. Edges with a dead
/// endpoint are dropped too (referential integrity). Surviving elements
/// keep their relative order, so the result is deterministic.
fn compact(g: &Graph, dead_vertices: &[bool], dead_edges: &[bool]) -> (Graph, usize, usize) {
    let vdead = |v: VertexId| dead_vertices.get(v.0 as usize).copied().unwrap_or(false);
    let edead = |e: EdgeId| dead_edges.get(e.0 as usize).copied().unwrap_or(false);

    let mut out = g.empty_like();
    let mut vmap: Vec<Option<VertexId>> = Vec::with_capacity(g.vertex_count());
    let mut deleted_vertices = 0usize;
    for v in g.vertices() {
        if vdead(v) {
            vmap.push(None);
            deleted_vertices += 1;
            continue;
        }
        let nattrs = g.schema().vertex_type(g.vertex_type_of(v)).attrs.len();
        let attrs: Vec<Value> = (0..nattrs).map(|i| g.vertex_attr(v, i).into_owned()).collect();
        // Same schema, arity verified by construction: cannot fail.
        let nv = out
            .add_vertex(g.vertex_type_of(v), attrs)
            .expect("compact add_vertex");
        vmap.push(Some(nv));
    }
    let mut deleted_edges = 0usize;
    for e in g.edges() {
        let (s, t) = g.edge_endpoints(e);
        if edead(e) || vdead(s) || vdead(t) {
            deleted_edges += 1;
            continue;
        }
        let nattrs = g.schema().edge_type(g.edge_type_of(e)).attrs.len();
        let attrs: Vec<Value> = (0..nattrs).map(|i| g.edge_attr(e, i).into_owned()).collect();
        let (Some(ns), Some(nt)) = (vmap[s.0 as usize], vmap[t.0 as usize]) else {
            unreachable!("live endpoints have mappings")
        };
        out.add_edge(g.edge_type_of(e), ns, nt, attrs).expect("compact add_edge");
    }
    out.finalize();
    (out, deleted_vertices, deleted_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::sales_graph;
    use crate::loader::{load_from_string, save_to_string};
    use crate::schema::{AttrDef, Schema};
    use crate::value::ValueType;
    use crate::wal::LiveGraph;
    use proptest::prelude::*;

    fn vt(g: &Graph, name: &str) -> VTypeId {
        g.schema().vertex_type_id(name).unwrap()
    }

    #[test]
    fn insert_vertex_and_edge_in_one_batch() {
        let mut g = sales_graph();
        let base_v = g.vertex_count();
        let person = vt(&g, "Customer");
        let prod = vt(&g, "Product");
        let bought = g.schema().edge_type_id("Bought").unwrap();
        let nattrs_b = g.schema().edge_type(bought).attrs.len();
        // A string per STRING attribute, else an INT (which a DOUBLE
        // attribute widens).
        let mk = |vt: VTypeId, seed: i64| -> Vec<Value> {
            let attrs = &g.schema().vertex_type(vt).attrs;
            attrs
                .iter()
                .map(|a| match a.ty {
                    ValueType::Str => Value::from(format!("new{seed}")),
                    _ => Value::Int(seed),
                })
                .collect()
        };
        let ops = vec![
            MutationOp::AddVertex { vtype: person, attrs: mk(person, 7) },
            MutationOp::AddVertex { vtype: prod, attrs: mk(prod, 8) },
            // References the two vertices inserted above by provisional id.
            MutationOp::AddEdge {
                etype: bought,
                src: VertexId(base_v as u32),
                dst: VertexId(base_v as u32 + 1),
                attrs: (0..nattrs_b).map(|_| Value::Int(1)).collect(),
            },
        ];
        let s = apply_batch(&mut g, &ops).unwrap();
        assert_eq!(s.inserted_vertices, 2);
        assert_eq!(s.inserted_edges, 1);
        assert_eq!(g.vertex_count(), base_v + 2);
        assert_eq!(g.adjacency(VertexId(base_v as u32)).len(), 1);
    }

    #[test]
    fn delete_vertex_drops_incident_edges_and_redensifies() {
        let mut g = sales_graph();
        let v0 = VertexId(0);
        let base_v = g.vertex_count();
        let base_e = g.edge_count();
        let incident = g.adjacency(v0).len();
        assert!(incident > 0, "fixture vertex 0 must have edges");
        let s = apply_batch(&mut g, &[MutationOp::DeleteVertex { v: v0 }]).unwrap();
        assert_eq!(s.deleted_vertices, 1);
        assert!(s.deleted_edges > 0);
        assert_eq!(g.vertex_count(), base_v - 1);
        assert!(g.edge_count() < base_e);
        // Dense ids: every id below the new count is addressable.
        for v in g.vertices() {
            let _ = g.vertex_type_of(v);
        }
    }

    #[test]
    fn a_failed_batch_leaves_a_readable_graph() {
        // The batch fails after adding an edge; the graph it leaves is to
        // be discarded, but reading it is still valid and sees the edge.
        let mut g = sales_graph();
        let likes = g.schema().edge_type_id("Likes").unwrap();
        let (v0, v1) = (VertexId(0), VertexId(1));
        let before = g.adjacency(v0).len();
        let ops = [
            MutationOp::AddEdge { etype: likes, src: v0, dst: v1, attrs: vec![] },
            MutationOp::DeleteVertex { v: VertexId(u32::MAX) },
        ];
        assert!(apply_batch(&mut g, &ops).is_err());
        assert_eq!(g.adjacency(v0).len(), before + 1);
    }

    #[test]
    fn compaction_is_deterministic() {
        let ops = [
            MutationOp::DeleteVertex { v: VertexId(1) },
            MutationOp::DeleteEdge { e: EdgeId(0) },
        ];
        let mut a = sales_graph();
        let mut b = sales_graph();
        apply_batch(&mut a, &ops).unwrap();
        apply_batch(&mut b, &ops).unwrap();
        assert_eq!(save_to_string(&a).unwrap(), save_to_string(&b).unwrap());
    }

    #[test]
    fn bad_ids_are_errors_not_panics() {
        let mut g = sales_graph();
        assert!(apply_batch(&mut g, &[MutationOp::DeleteVertex { v: VertexId(9999) }]).is_err());
        let mut g = sales_graph();
        assert!(apply_batch(&mut g, &[MutationOp::DeleteEdge { e: EdgeId(9999) }]).is_err());
        let mut g = sales_graph();
        assert!(apply_batch(
            &mut g,
            &[MutationOp::SetVertexAttr { v: VertexId(0), attr: 99, value: Value::Int(1) }]
        )
        .is_err());
    }

    #[test]
    fn update_attrs_apply_in_order() {
        let mut g = sales_graph();
        let ops = [
            MutationOp::SetVertexAttr { v: VertexId(0), attr: 0, value: Value::Str("x".into()) },
            MutationOp::SetVertexAttr { v: VertexId(0), attr: 0, value: Value::Str("y".into()) },
        ];
        let s = apply_batch(&mut g, &ops).unwrap();
        assert_eq!(s.updated_attrs, 2);
        assert_eq!(*g.vertex_attr(VertexId(0), 0), Value::from("y"));
    }

    #[test]
    fn double_delete_is_idempotent_within_a_batch() {
        let mut g = sales_graph();
        let base_v = g.vertex_count();
        let ops = [
            MutationOp::DeleteVertex { v: VertexId(2) },
            MutationOp::DeleteVertex { v: VertexId(2) },
        ];
        let s = apply_batch(&mut g, &ops).unwrap();
        assert_eq!(s.deleted_vertices, 1);
        assert_eq!(g.vertex_count(), base_v - 1);
    }

    // ---- structural sharing: equivalence, isolation, O(batch) ------------

    /// A small graph in the shape of LDBC SNB — several vertex types,
    /// undirected `Knows` beside directed edge types, some with an
    /// attribute and most without, endpoint constraints — spread over
    /// several chunks.
    fn mini_snb(persons: u32) -> Graph {
        let (tags, messages) = (persons / 30 + 2, persons * 3 / 4);
        let mut s = Schema::new();
        let attr = AttrDef::new;
        let person = s
            .add_vertex_type("Person", vec![attr("id", ValueType::Int), attr("name", ValueType::Str)])
            .unwrap();
        let tag = s.add_vertex_type("Tag", vec![attr("name", ValueType::Str)]).unwrap();
        let message = s
            .add_vertex_type(
                "Message",
                vec![attr("id", ValueType::Int), attr("created", ValueType::DateTime)],
            )
            .unwrap();
        let knows =
            s.add_edge_type("Knows", false, vec![attr("since", ValueType::DateTime)]).unwrap();
        let creator = s
            .add_edge_type_between("HasCreator", true, vec![message], vec![person], vec![])
            .unwrap();
        let has_tag =
            s.add_edge_type_between("HasTag", true, vec![message], vec![tag], vec![]).unwrap();
        let likes = s
            .add_edge_type_between(
                "Likes",
                true,
                vec![person],
                vec![message],
                vec![attr("weight", ValueType::Double)],
            )
            .unwrap();

        let mut state = 0x2545_F491u32;
        let mut below = move |n: u32| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state % n
        };
        let mut g = Graph::new(s);
        for i in 0..persons {
            g.add_vertex(person, vec![Value::Int(i as i64), Value::from(format!("p{i}"))]).unwrap();
        }
        for i in 0..tags {
            g.add_vertex(tag, vec![Value::from(format!("t{i}"))]).unwrap();
        }
        for i in 0..messages {
            g.add_vertex(message, vec![Value::Int(i as i64), Value::DateTime(i as i64)]).unwrap();
        }
        let (p, t, m) = (VertexId, |i| VertexId(persons + i), |i| VertexId(persons + tags + i));
        for i in 0..persons {
            for _ in 0..3 {
                let since = Value::DateTime(below(1000) as i64);
                g.add_edge(knows, p(i), p(below(persons)), vec![since]).unwrap();
            }
        }
        for i in 0..messages {
            g.add_edge(creator, m(i), p(below(persons)), vec![]).unwrap();
            g.add_edge(has_tag, m(i), t(below(tags)), vec![]).unwrap();
            for _ in 0..2 {
                let weight = Value::Double(below(8) as f64 / 4.0);
                g.add_edge(likes, p(below(persons)), m(i), vec![weight]).unwrap();
            }
        }
        g.finalize();
        g
    }

    fn sample(ty: ValueType, n: i64) -> Value {
        match ty {
            ValueType::Bool => Value::Bool(n & 1 == 1),
            ValueType::Int => Value::Int(n),
            ValueType::Double => Value::Double(n as f64 / 4.0),
            ValueType::Str => Value::from(format!("s{n}")),
            ValueType::DateTime => Value::DateTime(n),
            ValueType::Vertex | ValueType::Edge => unreachable!("not a storable attribute type"),
        }
    }

    /// Turns raw `(kind, x, y, n)` draws into a valid insert/update batch
    /// against `g`: vertex and edge inserts (edges may attach to vertices
    /// the batch itself inserted, by provisional id) and attribute writes.
    fn resolve(g: &Graph, raw: &[(u8, u32, u32, i64)]) -> Vec<MutationOp> {
        let s = g.schema();
        let row = |attrs: &[AttrDef], n: i64| attrs.iter().map(|a| sample(a.ty, n)).collect();
        // Types of every vertex the batch can see, by (provisional) id.
        let mut vtypes: Vec<VTypeId> = g.vertices().map(|v| g.vertex_type_of(v)).collect();
        let mut etypes: Vec<ETypeId> = g.edges().map(|e| g.edge_type_of(e)).collect();
        let mut ops = Vec::new();
        for &(kind, x, y, n) in raw {
            match kind % 4 {
                0 => {
                    let vtype = VTypeId(x % s.vertex_type_count() as u32);
                    ops.push(MutationOp::AddVertex {
                        vtype,
                        attrs: row(&s.vertex_type(vtype).attrs, n),
                    });
                    vtypes.push(vtype);
                }
                1 => {
                    let etype = ETypeId(x % s.edge_type_count() as u32);
                    let def = s.edge_type(etype);
                    let pick = |allowed: &[VTypeId], k: u32| {
                        let fits: Vec<u32> = (0..vtypes.len() as u32)
                            .filter(|&v| allowed.is_empty() || allowed.contains(&vtypes[v as usize]))
                            .collect();
                        VertexId(fits[k as usize % fits.len()])
                    };
                    ops.push(MutationOp::AddEdge {
                        etype,
                        src: pick(&def.from_types, y),
                        dst: pick(&def.to_types, y.rotate_left(16) ^ x),
                        attrs: row(&def.attrs, n),
                    });
                    etypes.push(etype);
                }
                2 => {
                    let v = x as usize % vtypes.len();
                    let attrs = &s.vertex_type(vtypes[v]).attrs;
                    let attr = y as usize % attrs.len();
                    ops.push(MutationOp::SetVertexAttr {
                        v: VertexId(v as u32),
                        attr,
                        value: sample(attrs[attr].ty, n),
                    });
                }
                _ => {
                    let e = x as usize % etypes.len();
                    let attrs = &s.edge_type(etypes[e]).attrs;
                    if !attrs.is_empty() {
                        let attr = y as usize % attrs.len();
                        ops.push(MutationOp::SetEdgeAttr {
                            e: EdgeId(e as u32),
                            attr,
                            value: sample(attrs[attr].ty, n),
                        });
                    }
                }
            }
        }
        ops
    }

    /// Per vertex: its adjacency in order, and `(outdegree, indegree,
    /// degree)` overall and per edge type.
    type Topology = Vec<(Vec<crate::graph::AdjEntry>, Vec<(usize, usize, usize)>)>;

    /// Everything a reader can observe about `g`'s topology, in order.
    fn topology(g: &Graph) -> Topology {
        let types: Vec<Option<ETypeId>> =
            std::iter::once(None).chain(g.schema().edge_types().map(|(t, _)| Some(t))).collect();
        g.vertices()
            .map(|v| {
                let degrees = types
                    .iter()
                    .map(|&t| {
                        let typed = t.map_or(g.degree(v), |t| g.adjacency_of_type(v, t).len());
                        (g.outdegree(v, t), g.indegree(v, t), typed)
                    })
                    .collect();
                (g.adjacency(v).to_vec(), degrees)
            })
            .collect()
    }

    /// `g`, built up by any history of commits, must be the graph a
    /// from-scratch build of its serialisation gives: bytes, adjacency
    /// order, degrees, statistics.
    fn assert_equals_rebuild(g: &Graph) -> Result<(), TestCaseError> {
        let bytes = save_to_string(g).unwrap();
        let rebuilt = load_from_string(&bytes).unwrap();
        prop_assert_eq!(&save_to_string(&rebuilt).unwrap(), &bytes);
        prop_assert_eq!(topology(g), topology(&rebuilt));
        prop_assert_eq!(g.stats().sans_epoch(), rebuilt.stats().sans_epoch());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

        #[test]
        fn incremental_commits_equal_a_from_scratch_rebuild(
            snb in any::<bool>(),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>(), 0i64..100_000), 1..6),
                1..5,
            ),
        ) {
            let mut g = if snb { mini_snb(300) } else { sales_graph() };
            for (k, raw) in batches.iter().enumerate() {
                // Every other batch lands on storage a pinned snapshot
                // shares (the commit path); the rest on storage the graph
                // owns alone (the recovery path).
                let pinned = (k % 2 == 0).then(|| (g.clone(), save_to_string(&g).unwrap()));
                let epoch = g.stats().epoch();
                let ops = resolve(&g, raw);
                apply_batch(&mut g, &ops).unwrap();
                prop_assert!(g.stats().epoch() > epoch, "every batch stamps a fresh epoch");
                assert_equals_rebuild(&g)?;
                if let Some((snapshot, bytes)) = pinned {
                    prop_assert_eq!(save_to_string(&snapshot).unwrap(), bytes);
                }
            }
        }
    }

    #[test]
    fn a_pinned_snapshot_is_unmoved_by_later_commits() {
        let live = LiveGraph::in_memory(mini_snb(300));
        let pinned = live.snapshot();
        let (bytes, adjacency) = (save_to_string(&pinned).unwrap(), topology(&pinned));
        let epoch = pinned.stats().epoch();
        for k in 0..12u32 {
            let snap = live.snapshot();
            let raw: Vec<(u8, u32, u32, i64)> =
                (0..4).map(|i| (i as u8, k * 7919 + i, k * 104_729 + i, k as i64)).collect();
            live.commit(&resolve(&snap, &raw)).unwrap();
        }
        assert!(live.snapshot().vertex_count() > pinned.vertex_count());
        assert_eq!(save_to_string(&pinned).unwrap(), bytes);
        assert_eq!(topology(&pinned), adjacency);
        assert_eq!(pinned.stats().epoch(), epoch);
    }

    #[test]
    fn a_commit_copies_a_constant_number_of_chunks() {
        // One insert-and-attach batch in the shape the server sees: a new
        // person, two `Knows` edges to existing persons in different
        // chunks, one attribute update. However large the graph, it may
        // replace: the tail chunks of the vertex, edge and person-id
        // stores, of the two Person attribute columns and of the Knows
        // column, the updated vertex's chunk of the column it writes, and
        // the CSR chunks of the three vertices whose adjacency grew.
        const COPIED_AT_MOST: usize = 3 + 2 + 1 + 1 + 3;
        for persons in [300u32, 1200] {
            let live = LiveGraph::in_memory(mini_snb(persons));
            let before = live.snapshot();
            let s = before.schema();
            let (person, knows) =
                (s.vertex_type_id("Person").unwrap(), s.edge_type_id("Knows").unwrap());
            let new = VertexId(before.vertex_count() as u32);
            let edge = |dst| MutationOp::AddEdge {
                etype: knows,
                src: new,
                dst: VertexId(dst),
                attrs: vec![Value::DateTime(7)],
            };
            let ops = [
                MutationOp::AddVertex {
                    vtype: person,
                    attrs: vec![Value::Int(-1), Value::Str("new".into())],
                },
                edge(3),
                edge(persons - 5),
                MutationOp::SetVertexAttr {
                    v: VertexId(persons / 2),
                    attr: 1,
                    value: Value::Str("renamed".into()),
                },
            ];
            live.commit(&ops).unwrap();
            let after = live.snapshot();
            let (shared, total) = after.chunks_shared_with(&before);
            assert!(
                total - shared <= COPIED_AT_MOST,
                "{persons} persons: {} of {total} chunks copied",
                total - shared
            );
            // The bound is not vacuous: the larger graph has several
            // times as many chunks and still copies no more.
            assert!(total >= if persons == 300 { 15 } else { 55 }, "{total} chunks");
            assert_equals_rebuild(&after).unwrap();
        }
    }
}
