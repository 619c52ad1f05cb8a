//! End-to-end tests of the paper's worked examples (Sections 1–5),
//! executed through the full GSQL pipeline: parse → match → ACCUM →
//! POST_ACCUM → multi-output SELECT.

use gsql_core::exec::ReturnValue;
use gsql_core::{stdlib, Engine, PathSemantics, Table};
use pgraph::generators::{diamond_chain, linkedin_graph, sales_graph};
use pgraph::value::Value;

fn f(v: f64) -> Value {
    Value::Double(v)
}

/// Example 4 / Figure 2: single-pass tree-way aggregation. Observed via
/// the Example 5 multi-output variant, which exposes the three
/// accumulator families as tables.
#[test]
fn example4_and_5_revenue_rollup() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    let out = eng.run_text(stdlib::example5_multi_output(), &[]).unwrap();

    // Toy purchases: alice robot 2×30×1.0=60, alice blocks 1×10×0.9=9,
    // bob robot 1×30×0.5=15, carol kite 4×20×0.75=60.
    let per_cust = out.table("PerCust").unwrap();
    assert_eq!(
        per_cust.sorted_rows(),
        vec![
            vec![Value::from("alice"), f(69.0)],
            vec![Value::from("bob"), f(15.0)],
            vec![Value::from("carol"), f(60.0)],
        ]
    );
    let per_toy = out.table("PerToy").unwrap();
    assert_eq!(
        per_toy.sorted_rows(),
        vec![
            vec![Value::from("blocks"), f(9.0)],
            vec![Value::from("kite"), f(60.0)],
            vec![Value::from("robot"), f(75.0)],
        ]
    );
    let total = out.table("Total").unwrap();
    assert_eq!(total.rows, vec![vec![f(144.0)]]);
    assert_eq!(total.columns, vec!["rev".to_string()]);
}

/// Example 6 / Figure 3: the two-pass TopKToys recommender, composing
/// blocks through the `@lc` vertex accumulator and the
/// `OthersWithCommonLikes` vertex set.
#[test]
fn example6_recommender() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    let alice = g.vertices_of_type(g.schema().vertex_type_id("Customer").unwrap())[0];
    let out = eng
        .run_text(
            stdlib::example6_topk_toys(),
            &[("c", Value::Vertex(alice)), ("k", Value::Int(3))],
        )
        .unwrap();
    let table = match out.returned.as_ref().unwrap() {
        ReturnValue::Table(t) => t,
        other => panic!("expected table, got {other:?}"),
    };
    // bob shares 1 toy like with alice (robot): lc = ln 2.
    // carol shares 2 (robot, blocks): lc = ln 3.
    let ln2 = (2f64).ln();
    let ln3 = (3f64).ln();
    let expect = vec![
        vec![Value::from("kite"), f(ln2 + ln3)],  // bob + carol
        vec![Value::from("robot"), f(ln2 + ln3)], // bob + carol
        vec![Value::from("blocks"), f(ln3)],      // carol
    ];
    assert_eq!(table.columns, vec!["t.name".to_string(), "rank".to_string()]);
    assert_eq!(table.rows.len(), 3);
    for (got, want) in table.rows.iter().zip(&expect) {
        assert_eq!(got[0], want[0]);
        let (Some(a), Some(b)) = (got[1].as_f64(), want[1].as_f64()) else {
            panic!("non-numeric rank")
        };
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}

/// Example 7 / Figure 4: iterative PageRank in GSQL, cross-checked
/// against the native reference implementation.
#[test]
fn example7_pagerank_matches_native() {
    let mut g = pgraph::generators::barabasi_albert(60, 3, 42);
    let et = g.schema().edge_type_id("E").unwrap();
    // Give vertex 0 an out-edge: like real GSQL, the POST_ACCUM of Figure 4
    // only updates vertices matched as the source `v`, so the cross-check
    // needs every vertex to have outdegree >= 1.
    let (src, dst) = (pgraph::graph::VertexId(0), pgraph::graph::VertexId(1));
    let op = pgraph::mutate::MutationOp::AddEdge { etype: et, src, dst, attrs: vec![] };
    pgraph::mutate::apply_batch(&mut g, &[op]).unwrap();
    let g = g;
    let native = pgraph::algo::pagerank(&g, et, 0.85, 1e-10, 100);

    let eng = Engine::new(&g);
    let src = stdlib::pagerank("V", "E");
    // Expose the final scores through a table-producing epilogue.
    let src = src.replace(
        "END;\n}",
        "END;\n  SELECT DISTINCT v.name, v.@score AS score INTO Scores FROM V:v;\n}",
    );
    let out = eng
        .run_text(
            &src,
            &[
                ("maxChange", f(1e-10)),
                ("maxIteration", Value::Int(100)),
                ("dampingFactor", f(0.85)),
            ],
        )
        .unwrap();
    let scores = out.table("Scores").unwrap();
    assert_eq!(scores.rows.len(), 60);
    for row in &scores.rows {
        let name = row[0].as_str().unwrap();
        let idx: usize = name[1..].parse().unwrap();
        let got = row[1].as_f64().unwrap();
        assert!(
            (got - native[idx]).abs() < 1e-6,
            "vertex {name}: gsql {got} vs native {}",
            native[idx]
        );
    }
}

/// Section 7.1's `Q_n` on the paper's 30-diamond graph: the counting
/// engine returns `2^n` without enumerating, for every n up to 30.
#[test]
fn qn_counts_2_to_the_n() {
    let (g, _) = diamond_chain(30);
    let eng = Engine::new(&g);
    let q = stdlib::qn("V", "E");
    for n in [1usize, 5, 10, 20, 30] {
        let out = eng
            .run_text(
                &q,
                &[
                    ("srcName", Value::from("v0")),
                    ("tgtName", Value::from(format!("v{n}"))),
                ],
            )
            .unwrap();
        assert_eq!(out.prints, vec![format!("R: v{n}, {}", 1u64 << n)]);
        // Counting evaluation: zero paths materialized.
        assert_eq!(out.stats.paths_enumerated, 0);
    }
}

/// Example 1 / Figure 1: joining a relational Employee table with the
/// (undirected) LinkedIn graph, with conventional GROUP BY aggregation.
#[test]
fn example1_relational_graph_join() {
    let g = linkedin_graph();
    let employees = Table::from_rows(
        "Employee",
        &["name", "email"],
        vec![
            vec![Value::from("ann"), Value::from("ann@acme.com")],
            vec![Value::from("ben"), Value::from("ben@acme.com")],
        ],
    );
    let eng = Engine::new(&g).with_table(employees);
    let out = eng.run_text(stdlib::example1_join(), &[]).unwrap();
    let result = out.table("Result").unwrap();
    // ann: cam (2017) + eve (2019); dot is 2015, ben is ACME. ben: cam (2018).
    assert_eq!(
        result.rows,
        vec![
            vec![Value::from("ann@acme.com"), Value::from("ann"), Value::Int(2)],
            vec![Value::from("ben@acme.com"), Value::from("ben"), Value::Int(1)],
        ]
    );
}

/// Example 3's accumulator declarations: one global + two vertex families
/// sharing a type, with initializers.
#[test]
fn example3_declarations_and_defaults() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    let out = eng
        .run_text(
            r#"
            CREATE QUERY Decls () {
              SumAccum<float> @@totalRevenue;
              SumAccum<float> @revenuePerToy, @revenuePerCust = 5;
              PRINT @@totalRevenue;
              SELECT DISTINCT c.@revenuePerCust AS r INTO Init FROM Customer:c;
            }
            "#,
            &[],
        )
        .unwrap();
    assert_eq!(out.prints, vec!["@@totalRevenue = 0.0".to_string()]);
    // Initializer applies to every vertex instance.
    assert_eq!(out.table("Init").unwrap().rows, vec![vec![f(5.0)]]);
}

/// WCC and SSSP from the stdlib agree with the native algorithms.
#[test]
fn stdlib_wcc_and_sssp_match_native() {
    // Two components: a 4-cycle and a 3-path.
    let mut b = pgraph::graph::GraphBuilder::new(pgraph::generators::ve_schema());
    let vs: Vec<_> = (0..7)
        .map(|i| b.vertex("V", &[("name", Value::from(format!("v{i}")))]).unwrap())
        .collect();
    for (s, t) in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)] {
        b.edge("E", vs[s], vs[t], &[]).unwrap();
    }
    let g = b.build();

    let (native_cc, n_comp) = pgraph::algo::weakly_connected_components(&g);
    assert_eq!(n_comp, 2);
    let eng = Engine::new(&g);
    let src = stdlib::wcc("V", "E").replace(
        "END;\n}",
        "END;\n  SELECT DISTINCT v.name, v.@cc AS cc INTO CC FROM V:v;\n}",
    );
    let out = eng.run_text(&src, &[]).unwrap();
    for row in &out.table("CC").unwrap().rows {
        let idx: usize = row[0].as_str().unwrap()[1..].parse().unwrap();
        assert_eq!(row[1], Value::Int(native_cc[idx] as i64), "vertex v{idx}");
    }

    let native_d = pgraph::algo::bfs_distances(&g, vs[0]);
    let src = stdlib::sssp("V", "E").replace(
        "END;\n}",
        "END;\n  SELECT DISTINCT v.name, v.@dist AS d INTO D FROM V:v;\n}",
    );
    let out = eng.run_text(&src, &[("src", Value::Vertex(vs[0]))]).unwrap();
    for row in &out.table("D").unwrap().rows {
        let idx: usize = row[0].as_str().unwrap()[1..].parse().unwrap();
        let want = native_d[idx].map(|d| d as i64).unwrap_or(2147483647);
        assert_eq!(row[1], Value::Int(want), "vertex v{idx}");
    }
}

/// The same Q_n query under Cypher-style non-repeated-edge semantics
/// enumerates paths (exponential work) yet returns the same counts on the
/// diamond chain, where the semantics coincide (Example 11).
#[test]
fn qn_under_enumerative_semantics_agrees_but_enumerates() {
    let (g, _) = diamond_chain(10);
    let q = stdlib::qn("V", "E");
    let args = [
        ("srcName", Value::from("v0")),
        ("tgtName", Value::from("v10")),
    ];
    for sem in [
        PathSemantics::NonRepeatedEdge,
        PathSemantics::NonRepeatedVertex,
        PathSemantics::AllShortestPathsEnumerate,
    ] {
        let eng = Engine::new(&g).with_semantics(sem);
        let out = eng.run_text(&q, &args).unwrap();
        assert_eq!(out.prints, vec!["R: v10, 1024".to_string()], "{sem:?}");
        assert!(out.stats.paths_enumerated >= 1024, "{sem:?} must enumerate");
    }
}

/// Example 12: accumulator-based aggregation subsumes SQL GROUP BY — the
/// same grouping computed conventionally (GROUP BY clause) and via a
/// GroupByAccum must agree group-for-group.
#[test]
fn example12_group_by_equals_groupby_accum() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    let conventional = eng
        .run_text(
            r#"
            CREATE QUERY Conventional () {
              SELECT p.category AS k, sum(b.quantity) AS s, min(p.list_price) AS m,
                     avg(b.discount) AS a INTO T
              FROM Customer:c -(Bought>:b)- Product:p
              GROUP BY p.category
              ORDER BY p.category;
            }
            "#,
            &[],
        )
        .unwrap();
    let accum_style = eng
        .run_text(
            r#"
            CREATE QUERY AccumStyle () {
              GroupByAccum<string k, SumAccum<float> s, MinAccum m, AvgAccum a> @@g;
              S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
                  ACCUM @@g += (p.category -> b.quantity, p.list_price, b.discount);
              PRINT @@g;
            }
            "#,
            &[],
        )
        .unwrap();
    // Rebuild the conventional rows from the accumulator's printed map.
    // @@g = {(book) -> (4.0, 15.0, 0.0), (toy) -> (8.0, 10.0, 0.2125)}
    let printed = &accum_style.prints[0];
    let t = conventional.table("T").unwrap();
    for row in &t.rows {
        let k = row[0].as_str().unwrap();
        let s = row[1].as_f64().unwrap();
        let m = row[2].as_f64().unwrap();
        let a = row[3].as_f64().unwrap();
        let expected = format!("({k}) -> ({s:?}, {m:?}, {a:?})");
        assert!(
            printed.contains(&expected),
            "group `{expected}` missing from `{printed}`"
        );
    }
}

/// Example 2's DARPE on a concrete mixed-direction graph: the pattern
/// `E>.(F>|<G)*.H.<J` from the paper, matched end to end through the
/// engine (directed E/F/G/J, undirected H).
#[test]
fn example2_mixed_direction_darpe() {
    let mut s = pgraph::schema::Schema::new();
    s.add_vertex_type("V", vec![pgraph::schema::AttrDef::new("name", pgraph::value::ValueType::Str)])
        .unwrap();
    for (t, directed) in [("E", true), ("F", true), ("G", true), ("H", false), ("J", true)] {
        s.add_edge_type(t, directed, vec![]).unwrap();
    }
    let mut b = pgraph::graph::GraphBuilder::new(s);
    let mk = |b: &mut pgraph::graph::GraphBuilder, n: &str| {
        b.vertex("V", &[("name", Value::from(n))]).unwrap()
    };
    // a -E> b -F> c <G- ... H ... <J-: build
    //   a -E> b, b -F> c, d -G> c (traversed as <G), c -H- e, f -J> e.
    let a = mk(&mut b, "a");
    let b2 = mk(&mut b, "b");
    let c = mk(&mut b, "c");
    let d = mk(&mut b, "d");
    let e = mk(&mut b, "e");
    let f2 = mk(&mut b, "f");
    b.edge("E", a, b2, &[]).unwrap();
    b.edge("F", b2, c, &[]).unwrap();
    b.edge("G", d, c, &[]).unwrap(); // not on the matched path; a decoy
    b.edge("H", c, e, &[]).unwrap();
    b.edge("J", f2, e, &[]).unwrap();
    let g = b.build();
    let out = Engine::new(&g)
        .run_text(
            r#"
            CREATE QUERY Ex2 () {
              R = SELECT t FROM V:s -(E>.(F>|<G)*.H.<J)- V:t WHERE s.name == 'a';
              PRINT R[R.name];
            }
            "#,
            &[],
        )
        .unwrap();
    // a -E> b (-F> c) -H- e <J- f : target f. Also the zero-repetition
    // branch a -E> b -H- ...? b has no H edge, so only f matches.
    assert_eq!(out.prints, vec!["R: f".to_string()]);
}

/// The three aggregates of Example 4 computed in three separate passes
/// over the same pattern, one aggregate per pass.
const THREE_PASS: &str = r#"
CREATE QUERY RevenueThreePasses () FOR GRAPH SalesGraph {
  SumAccum<float> @revenuePerToy, @revenuePerCust;
  SumAccum<float> @@totalRevenue;
  A = SELECT c
      FROM  Customer:c -(Bought>:b)- Product:p
      WHERE p.category == 'toy'
      ACCUM c.@revenuePerCust += b.quantity * p.list_price * (1.0 - b.discount);
  B = SELECT c
      FROM  Customer:c -(Bought>:b)- Product:p
      WHERE p.category == 'toy'
      ACCUM p.@revenuePerToy += b.quantity * p.list_price * (1.0 - b.discount);
  C = SELECT c
      FROM  Customer:c -(Bought>:b)- Product:p
      WHERE p.category == 'toy'
      ACCUM @@totalRevenue += b.quantity * p.list_price * (1.0 - b.discount);
}
"#;

/// Section 3, claim (i): Example 4 folds its three aggregates in one
/// traversal. Three single-aggregate passes compute the same sums at
/// exactly three times the matching and ACCUM work.
#[test]
fn example4_single_pass_does_a_third_of_the_three_pass_work() {
    let g = pgraph::generators::random_sales_graph(2_000, 200, 10, 7);
    let eng = Engine::new(&g);
    let with_prints = |q: &str| {
        let body = q.trim_end().strip_suffix('}').unwrap();
        format!("{body} Cs = {{Customer.*}}; Ps = {{Product.*}}; PRINT @@totalRevenue; \
                 PRINT Cs[Cs.@revenuePerCust]; PRINT Ps[Ps.@revenuePerToy]; }}")
    };
    let one = eng.run_text(&with_prints(stdlib::example4_sales()), &[]).unwrap();
    let three = eng.run_text(&with_prints(THREE_PASS), &[]).unwrap();
    assert_eq!(one.prints, three.prints);
    assert!(one.stats.acc_executions > 0);
    let work = |s: &gsql_core::MatchStats| [s.edges_scanned, s.binding_rows, s.acc_executions];
    assert_eq!(work(&one.stats).map(|n| 3 * n), work(&three.stats));
}
