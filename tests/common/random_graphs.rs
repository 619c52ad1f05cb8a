//! Fixed-seed random graphs over one schema: vertex type `V` with an
//! `INT` attribute `k` (vertex `i` has `k = i`), directed edge types `A`
//! and `B`, and undirected `U`. Shared by `tests/kernel_oracle.rs` and
//! `tests/fold_reference.rs`.

use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::schema::{AttrDef, ETypeId, Schema};
use pgraph::value::{Value, ValueType};

/// SplitMix64: a fixed-seed generator with no dependencies.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![AttrDef::new("k", ValueType::Int)]).unwrap();
    s.add_edge_type("A", true, vec![]).unwrap();
    s.add_edge_type("B", true, vec![]).unwrap();
    s.add_edge_type("U", false, vec![]).unwrap();
    s
}

/// A random edge: (type, source, target) over `n` vertices.
fn random_edge(rng: &mut Rng, n: u64) -> (ETypeId, VertexId, VertexId) {
    let et = ETypeId(rng.below(3) as u32);
    (et, VertexId(rng.below(n) as u32), VertexId(rng.below(n) as u32))
}

/// A finalized graph of `n` vertices and `m` random edges.
pub fn random_graph(rng: &mut Rng, n: u64, m: u64) -> Graph {
    let mut b = GraphBuilder::new(schema());
    for k in 0..n {
        b.vertex("V", &[("k", Value::Int(k as i64))]).unwrap();
    }
    let names = ["A", "B", "U"];
    for _ in 0..m {
        let (et, s, t) = random_edge(rng, n);
        b.edge(names[et.0 as usize], s, t, &[]).unwrap();
    }
    b.build()
}

/// A finalized random graph of 1–10 vertices, and a copy with 1–3 more
/// edges pending in the overlay.
pub fn random_graphs(rng: &mut Rng) -> (Graph, Graph) {
    let n = 1 + rng.below(10);
    let m = rng.below(n + 4);
    let finalized = random_graph(rng, n, m);
    let mut pending = finalized.clone();
    for _ in 0..1 + rng.below(3) {
        let (et, s, t) = random_edge(rng, n);
        pending.add_edge(et, s, t, vec![]).unwrap();
    }
    assert!(finalized.is_finalized() && !pending.is_finalized());
    (finalized, pending)
}
