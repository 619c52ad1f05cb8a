//! Synthetic graph generators used by tests, examples and benchmarks.
//!
//! Includes the exact gadget graphs from the paper's examples (the
//! diamond chain of Figure 7 / Example 11, `G1` of Figure 5 / Example 9,
//! `G2` of Figure 6 / Example 10), the running SalesGraph / LinkedIn
//! examples, and standard random-graph models (Erdős–Rényi,
//! Barabási–Albert) for scaling studies. All random generators are
//! seeded and deterministic.

use crate::graph::{Graph, GraphBuilder, VertexId};
use crate::schema::{AttrDef, Schema};
use crate::value::{Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schema with a single vertex type `V { name: STRING }` and a single
/// directed edge type `E` — the setting of the diamond-chain experiment
/// ("All involved vertices had type V ... and all involved edges had type
/// E").
pub fn ve_schema() -> Schema {
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)])
        .unwrap();
    s.add_edge_type("E", true, vec![]).unwrap();
    s
}

/// The diamond-chain graph of Figure 7: spine vertices `v0..=vn`, with
/// diamond `i` connecting `v_i` to `v_{i+1}` through two parallel
/// length-2 branches. There are exactly `2^k` directed `E`-paths from
/// `v0` to `v_k`, all of length `2k`, and the three legality semantics
/// coincide on it (Example 11). `diamond_chain(30)` is the paper's
/// 91-vertex / 120-edge experiment graph.
///
/// Returns the graph and the spine vertices `[v0, ..., vn]`.
pub fn diamond_chain(n: usize) -> (Graph, Vec<VertexId>) {
    let mut b = GraphBuilder::new(ve_schema());
    let mut spine = Vec::with_capacity(n + 1);
    let v0 = b.vertex("V", &[("name", Value::from("v0"))]).unwrap();
    spine.push(v0);
    for i in 0..n {
        let top = b
            .vertex("V", &[("name", Value::from(format!("d{i}a")))])
            .unwrap();
        let bot = b
            .vertex("V", &[("name", Value::from(format!("d{i}b")))])
            .unwrap();
        let next = b
            .vertex("V", &[("name", Value::from(format!("v{}", i + 1)))])
            .unwrap();
        let prev = spine[i];
        b.edge("E", prev, top, &[]).unwrap();
        b.edge("E", prev, bot, &[]).unwrap();
        b.edge("E", top, next, &[]).unwrap();
        b.edge("E", bot, next, &[]).unwrap();
        spine.push(next);
    }
    (b.build(), spine)
}

/// Graph `G1` of Figure 5 (Example 9). All edges are directed `E` edges.
/// Returns the graph and the 12 vertices indexed `1..=12` (index 0 is a
/// placeholder so `g1.1` is vertex "1").
pub fn example9_g1() -> (Graph, Vec<VertexId>) {
    let mut b = GraphBuilder::new(ve_schema());
    let mut v = vec![VertexId(u32::MAX)];
    for i in 1..=12 {
        v.push(
            b.vertex("V", &[("name", Value::from(format!("{i}")))])
                .unwrap(),
        );
    }
    for (s, t) in [
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (2, 6),
        (6, 4),
        (3, 7),
        (7, 8),
        (8, 3),
        (2, 9),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 4),
    ] {
        b.edge("E", v[s], v[t], &[]).unwrap();
    }
    (b.build(), v)
}

/// Graph `G2` of Figure 6 (Example 10): the pattern `E>*.F>.E>*` matches a
/// path from 1 to 4 **only** under all-shortest-paths semantics, because
/// the unique satisfying path `1-2-3-5-6-2-3-4` repeats vertices 2 and 3
/// and the edge between them. Returns the graph and vertices `1..=6`
/// (index 0 placeholder).
pub fn example10_g2() -> (Graph, Vec<VertexId>) {
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)])
        .unwrap();
    s.add_edge_type("E", true, vec![]).unwrap();
    s.add_edge_type("F", true, vec![]).unwrap();
    let mut b = GraphBuilder::new(s);
    let mut v = vec![VertexId(u32::MAX)];
    for i in 1..=6 {
        v.push(
            b.vertex("V", &[("name", Value::from(format!("{i}")))])
                .unwrap(),
        );
    }
    b.edge("E", v[1], v[2], &[]).unwrap();
    b.edge("E", v[2], v[3], &[]).unwrap();
    b.edge("F", v[3], v[5], &[]).unwrap();
    b.edge("E", v[5], v[6], &[]).unwrap();
    b.edge("E", v[6], v[2], &[]).unwrap();
    b.edge("E", v[3], v[4], &[]).unwrap();
    (b.build(), v)
}

/// A directed cycle `v0 -> v1 -> ... -> v_{n-1} -> v0` over the `V`/`E`
/// schema. Returns the graph and the vertices in cycle order.
pub fn directed_cycle(n: usize) -> (Graph, Vec<VertexId>) {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(ve_schema());
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            b.vertex("V", &[("name", Value::from(format!("v{i}")))])
                .unwrap()
        })
        .collect();
    for i in 0..n {
        b.edge("E", vs[i], vs[(i + 1) % n], &[]).unwrap();
    }
    (b.build(), vs)
}

/// A directed path `v0 -> v1 -> ... -> vn` over the `V`/`E` schema.
pub fn directed_path(n: usize) -> (Graph, Vec<VertexId>) {
    let mut b = GraphBuilder::new(ve_schema());
    let vs: Vec<VertexId> = (0..=n)
        .map(|i| {
            b.vertex("V", &[("name", Value::from(format!("v{i}")))])
                .unwrap()
        })
        .collect();
    for i in 0..n {
        b.edge("E", vs[i], vs[i + 1], &[]).unwrap();
    }
    (b.build(), vs)
}

/// A `w × h` directed grid with east and south edges, for path-counting
/// cross-checks (the number of monotone paths corner-to-corner is the
/// binomial coefficient `C(w+h-2, w-1)`). Returns the graph and the
/// row-major vertex matrix.
pub fn grid(w: usize, h: usize) -> (Graph, Vec<Vec<VertexId>>) {
    let mut b = GraphBuilder::new(ve_schema());
    let mut m = vec![vec![VertexId(u32::MAX); w]; h];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = b
                .vertex("V", &[("name", Value::from(format!("r{r}c{c}")))])
                .unwrap();
        }
    }
    for r in 0..h {
        for c in 0..w {
            if c + 1 < w {
                b.edge("E", m[r][c], m[r][c + 1], &[]).unwrap();
            }
            if r + 1 < h {
                b.edge("E", m[r][c], m[r + 1][c], &[]).unwrap();
            }
        }
    }
    (b.build(), m)
}

/// Erdős–Rényi `G(n, p)` digraph over the `V`/`E` schema, seeded.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(ve_schema());
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            b.vertex("V", &[("name", Value::from(format!("v{i}")))])
                .unwrap()
        })
        .collect();
    for &s in &vs {
        for &t in &vs {
            if s != t && rng.gen::<f64>() < p {
                b.edge("E", s, t, &[]).unwrap();
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential-attachment graph (directed edges from the
/// new vertex to `m` sampled existing vertices), seeded. Produces the
/// power-law degree distributions typical of social networks.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n > m && m >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(ve_schema());
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            b.vertex("V", &[("name", Value::from(format!("v{i}")))])
                .unwrap()
        })
        .collect();
    // Degree-proportional sampling via a repeated-endpoint pool.
    let mut pool: Vec<usize> = (0..=m).collect();
    for i in 0..m {
        b.edge("E", vs[i + 1], vs[i], &[]).unwrap();
    }
    for i in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let t = pool[rng.gen_range(0..pool.len())];
            if t != i && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.edge("E", vs[i], vs[t], &[]).unwrap();
            pool.push(t);
            pool.push(i);
        }
    }
    b.build()
}

/// Schema for the paper's running SalesGraph example (Examples 3–6):
/// `Customer { name }`, `Product { name, category, list_price }`,
/// directed `Bought { quantity, discount }` and directed `Likes`.
pub fn sales_schema() -> Schema {
    let mut s = Schema::new();
    s.add_vertex_type("Customer", vec![AttrDef::new("name", ValueType::Str)])
        .unwrap();
    s.add_vertex_type(
        "Product",
        vec![
            AttrDef::new("name", ValueType::Str),
            AttrDef::new("category", ValueType::Str),
            AttrDef::new("list_price", ValueType::Double),
        ],
    )
    .unwrap();
    s.add_edge_type(
        "Bought",
        true,
        vec![
            AttrDef::new("quantity", ValueType::Int),
            AttrDef::new("discount", ValueType::Double),
        ],
    )
    .unwrap();
    s.add_edge_type("Likes", true, vec![]).unwrap();
    s
}

/// The small fixed SalesGraph used by the quickstart example and the
/// paper-example tests. Customers: alice, bob, carol, dave. Products:
/// three toys and one book. Purchases and likes are chosen so that the
/// Example 4 / Example 6 queries have hand-checkable answers.
pub fn sales_graph() -> Graph {
    let mut b = GraphBuilder::new(sales_schema());
    let alice = b.vertex("Customer", &[("name", Value::from("alice"))]).unwrap();
    let bob = b.vertex("Customer", &[("name", Value::from("bob"))]).unwrap();
    let carol = b.vertex("Customer", &[("name", Value::from("carol"))]).unwrap();
    let dave = b.vertex("Customer", &[("name", Value::from("dave"))]).unwrap();
    let robot = b
        .vertex(
            "Product",
            &[
                ("name", Value::from("robot")),
                ("category", Value::from("toy")),
                ("list_price", Value::Double(30.0)),
            ],
        )
        .unwrap();
    let blocks = b
        .vertex(
            "Product",
            &[
                ("name", Value::from("blocks")),
                ("category", Value::from("toy")),
                ("list_price", Value::Double(10.0)),
            ],
        )
        .unwrap();
    let kite = b
        .vertex(
            "Product",
            &[
                ("name", Value::from("kite")),
                ("category", Value::from("toy")),
                ("list_price", Value::Double(20.0)),
            ],
        )
        .unwrap();
    let novel = b
        .vertex(
            "Product",
            &[
                ("name", Value::from("novel")),
                ("category", Value::from("book")),
                ("list_price", Value::Double(15.0)),
            ],
        )
        .unwrap();
    let buy = |b: &mut GraphBuilder, c, p, q: i64, d: f64| {
        b.edge(
            "Bought",
            c,
            p,
            &[("quantity", Value::Int(q)), ("discount", Value::Double(d))],
        )
        .unwrap();
    };
    buy(&mut b, alice, robot, 2, 0.0);
    buy(&mut b, alice, blocks, 1, 0.1);
    buy(&mut b, bob, robot, 1, 0.5);
    buy(&mut b, bob, novel, 3, 0.0);
    buy(&mut b, carol, kite, 4, 0.25);
    buy(&mut b, dave, novel, 1, 0.0);
    for (c, p) in [
        (alice, robot),
        (alice, blocks),
        (bob, robot),
        (bob, kite),
        (carol, robot),
        (carol, blocks),
        (carol, kite),
        (dave, novel),
    ] {
        b.edge("Likes", c, p, &[]).unwrap();
    }
    b.build()
}

/// A randomized SalesGraph for benchmarks: `nc` customers, `np` products
/// (half toys), with `per_customer` purchases and likes each, seeded.
pub fn random_sales_graph(nc: usize, np: usize, per_customer: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(sales_schema());
    let customers: Vec<VertexId> = (0..nc)
        .map(|i| {
            b.vertex("Customer", &[("name", Value::from(format!("c{i}")))])
                .unwrap()
        })
        .collect();
    let products: Vec<VertexId> = (0..np)
        .map(|i| {
            let cat = if i % 2 == 0 { "toy" } else { "book" };
            b.vertex(
                "Product",
                &[
                    ("name", Value::from(format!("p{i}"))),
                    ("category", Value::from(cat)),
                    ("list_price", Value::Double(5.0 + (i % 50) as f64)),
                ],
            )
            .unwrap()
        })
        .collect();
    for &c in &customers {
        for _ in 0..per_customer {
            let p = products[rng.gen_range(0..np)];
            b.edge(
                "Bought",
                c,
                p,
                &[
                    ("quantity", Value::Int(rng.gen_range(1..5))),
                    ("discount", Value::Double(rng.gen_range(0.0..0.5))),
                ],
            )
            .unwrap();
            let l = products[rng.gen_range(0..np)];
            b.edge("Likes", c, l, &[]).unwrap();
        }
    }
    b.build()
}

/// Schema and small instance for Example 1: the LinkedIn graph — `Person
/// { name, company }` with undirected `Connected { since }` edges.
pub fn linkedin_graph() -> Graph {
    let mut s = Schema::new();
    s.add_vertex_type(
        "Person",
        vec![
            AttrDef::new("name", ValueType::Str),
            AttrDef::new("company", ValueType::Str),
        ],
    )
    .unwrap();
    s.add_edge_type("Connected", false, vec![AttrDef::new("since", ValueType::Int)])
        .unwrap();
    let mut b = GraphBuilder::new(s);
    let mk = |b: &mut GraphBuilder, n: &str, c: &str| {
        b.vertex("Person", &[("name", Value::from(n)), ("company", Value::from(c))])
            .unwrap()
    };
    let ann = mk(&mut b, "ann", "ACME");
    let ben = mk(&mut b, "ben", "ACME");
    let cam = mk(&mut b, "cam", "Globex");
    let dot = mk(&mut b, "dot", "Initech");
    let eve = mk(&mut b, "eve", "Globex");
    let fay = mk(&mut b, "fay", "Hooli");
    for (a, c, y) in [
        (ann, cam, 2017),
        (ann, dot, 2015),
        (ann, eve, 2019),
        (ben, cam, 2018),
        (ben, fay, 2014),
        (ann, ben, 2016),
        (cam, eve, 2020),
    ] {
        b.edge("Connected", a, c, &[("since", Value::Int(y))]).unwrap();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_chain_30_matches_paper_size() {
        let (g, spine) = diamond_chain(30);
        assert_eq!(g.vertex_count(), 91);
        assert_eq!(g.edge_count(), 120);
        assert_eq!(spine.len(), 31);
    }

    #[test]
    fn diamond_chain_names() {
        let (g, spine) = diamond_chain(2);
        assert_eq!(
            g.vertex_attr_by_name(spine[0], "name").as_deref(),
            Some(&Value::from("v0"))
        );
        assert_eq!(
            g.vertex_attr_by_name(spine[2], "name").as_deref(),
            Some(&Value::from("v2"))
        );
    }

    #[test]
    fn g1_shape() {
        let (g, _) = example9_g1();
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 14);
    }

    #[test]
    fn g2_shape() {
        let (g, _) = example10_g2();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn grid_degree() {
        let (g, m) = grid(3, 3);
        assert_eq!(g.vertex_count(), 9);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.outdegree(m[0][0], None), 2);
        assert_eq!(g.outdegree(m[2][2], None), 0);
    }

    #[test]
    fn er_is_deterministic_per_seed() {
        let a = erdos_renyi(30, 0.1, 7);
        let b = erdos_renyi(30, 0.1, 7);
        let c = erdos_renyi(30, 0.1, 8);
        assert_eq!(a.edge_count(), b.edge_count());
        // Different seed almost surely differs for 870 Bernoulli trials.
        assert_ne!(a.edge_count(), c.edge_count());
    }

    #[test]
    fn ba_vertex_and_edge_counts() {
        let g = barabasi_albert(50, 3, 1);
        assert_eq!(g.vertex_count(), 50);
        assert_eq!(g.edge_count(), 3 + 46 * 3);
    }

    #[test]
    fn sales_graph_shape() {
        let g = sales_graph();
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.edge_count(), 14);
    }

    #[test]
    fn linkedin_has_undirected_connections() {
        let g = linkedin_graph();
        let et = g.schema().edge_type_id("Connected").unwrap();
        assert!(!g.schema().is_directed(et));
        assert_eq!(g.edge_count(), 7);
    }
}
