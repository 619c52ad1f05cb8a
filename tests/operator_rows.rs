//! Per-operator counters of every benchmark-shaped query, pinned.
//!
//! `tests/golden/operator_rows.txt` holds the PROFILE tree of each query
//! in the corpus — every stdlib, paper-example, LDBC IC and Appendix B
//! query, the target-anchor corpus, a FROM-reorder block, a
//! hop-reversal block and a WHILE loop — one line per operator: its
//! `op`, `detail`, `calls`, `rows`, `vertices_touched`, `edges_scanned`,
//! `kernel_calls`, `paths_enumerated`, `acc_executions`, `cache_hits`,
//! `cache_misses` and `accum_bytes`. Wall time, worker distributions and
//! morsel counts are left out: they depend on the machine or on the
//! morsel size.
//!
//! The rows an operator produces are the binding table after it, so a
//! WHERE conjunct that moves to another binding step (or from a hop's
//! target test to a filter) changes this file even when every query
//! result stays the same. The tree must be byte-identical at parallelism
//! {1, 4} × morsel size {1, 1024}.
//!
//! Regenerate after an intentional change with
//! `GSQL_BLESS=1 cargo test -p bench --test operator_rows`.

#[path = "common/target_anchor_cases.rs"]
mod target_anchor_cases;

use gsql_core::{parse_query, stdlib, Engine, ProfileNode, Table};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::datetime::to_epoch;
use pgraph::generators::{barabasi_albert, diamond_chain, linkedin_graph, sales_graph};
use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::value::Value;
use std::fmt::Write;
use std::path::PathBuf;

/// Compares `actual` with the golden file `name` (or rewrites it under
/// `GSQL_BLESS`), reporting the first differing line.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display())
    });
    if actual == expected {
        return;
    }
    let (a, e): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), expected.lines().collect());
    let line = a.iter().zip(&e).position(|(x, y)| x != y).unwrap_or(a.len().min(e.len()));
    panic!(
        "{name} differs at line {} (actual {} lines, golden {}):\n  actual: {}\n  golden: {}",
        line + 1,
        a.len(),
        e.len(),
        a.get(line).unwrap_or(&"<eof>"),
        e.get(line).unwrap_or(&"<eof>"),
    );
}

/// A named query, the engine it runs on and its arguments.
struct Case<'g> {
    name: String,
    graph: &'g Graph,
    table: Option<Table>,
    src: String,
    args: Vec<(&'static str, Value)>,
}

/// The graphs the corpus runs on.
struct Graphs {
    ba: Graph,
    weighted: (Graph, Vec<VertexId>),
    diamond12: Graph,
    diamond30: Graph,
    sales: Graph,
    linkedin: Graph,
    snb: Graph,
}

impl Graphs {
    fn new() -> Self {
        let ring: Vec<(usize, usize)> =
            (0..12).flat_map(|i| [(i, (i + 1) % 12), (i, (i + 5) % 12)]).collect();
        Graphs {
            ba: barabasi_albert(300, 3, 17),
            weighted: weighted_graph(&ring, 12),
            diamond12: diamond_chain(12).0,
            diamond30: diamond_chain(30).0,
            sales: sales_graph(),
            linkedin: linkedin_graph(),
            snb: generate(SnbParams::new(0.05, 2024)),
        }
    }
}

/// A directed `V`/`E` graph on `n` vertices whose edges carry a
/// deterministic double weight `w`.
fn weighted_graph(edges: &[(usize, usize)], n: usize) -> (Graph, Vec<VertexId>) {
    use pgraph::schema::{AttrDef, Schema};
    use pgraph::value::ValueType;
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)]).unwrap();
    s.add_edge_type("E", true, vec![AttrDef::new("w", ValueType::Double)]).unwrap();
    let mut b = GraphBuilder::new(s);
    let vs: Vec<VertexId> = (0..n)
        .map(|i| b.vertex("V", &[("name", Value::from(format!("v{i}")))]).unwrap())
        .collect();
    for (i, &(s, t)) in edges.iter().enumerate() {
        b.edge("E", vs[s], vs[t], &[("w", Value::Double(1.0 + (i % 5) as f64))]).unwrap();
    }
    (b.build(), vs)
}

/// Example 12's accumulator-style grouping.
const EXAMPLE12_ACCUM_STYLE: &str = r#"
CREATE QUERY AccumStyle () {
  GroupByAccum<string k, SumAccum<float> s, MinAccum m, AvgAccum a> @@g;
  S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
      ACCUM @@g += (p.category -> b.quantity, p.list_price, b.discount);
  PRINT @@g;
}
"#;

/// Two disjoint FROM items, both filters single-item, vertex-set output
/// and an exact-merge ACCUM: the planner runs the point-lookup scan
/// first.
const FROM_REORDER: &str = r#"
CREATE QUERY TwoItems (STRING aName) {
  SumAccum<int> @@n;
  S = SELECT s FROM V:s -(E>*)- V:t, V:a
      WHERE a.name == aName
      ACCUM @@n += 1;
  PRINT @@n;
}
"#;

/// A two-hop count anchored at the end of the pattern: the planner walks
/// it reversed.
const HOP_REVERSAL: &str = r#"
CREATE QUERY CountInbound2 () {
  SELECT count(*) AS n INTO R
  FROM  V:s -(E>)- V:t -(E>)- V:u
  WHERE u.name == 'v30';
  PRINT R;
}
"#;

/// A WHILE loop whose block re-executes with a pushdown filter, a
/// target conjunct and a residual conjunct on every iteration.
const WHILE_FRONTIER: &str = r#"
CREATE QUERY Frontier (vertex src, int rounds) {
  OrAccum @seen;
  SumAccum<int> @@visits;
  SumAccum<int> @@round;
  F = SELECT s FROM V:s WHERE s == src POST_ACCUM s.@seen = TRUE;
  WHILE @@round < rounds DO
    F = SELECT t FROM F:s -(E>)- V:t
        WHERE s.outdegree() > 0 AND t.@seen == FALSE AND @@round >= 0
        ACCUM @@visits += 1
        POST_ACCUM t.@seen = TRUE;
    @@round += 1;
  END;
  PRINT @@visits;
  PRINT F.size();
}
"#;

fn corpus(g: &Graphs) -> Vec<Case<'_>> {
    let mut cases = Vec::new();
    let mut add = |name: &str, graph, src: &str, args: Vec<(&'static str, Value)>| {
        cases.push(Case { name: name.into(), graph, table: None, src: src.into(), args });
    };

    // The stdlib on small V/E graphs.
    let v0 = Value::Vertex(g.ba.vertices().next().unwrap());
    let v1 = Value::Vertex(g.ba.vertices().nth(1).unwrap());
    add(
        "stdlib::pagerank",
        &g.ba,
        &stdlib::pagerank("V", "E"),
        vec![
            ("maxChange", Value::Double(1e-6)),
            ("maxIteration", Value::Int(20)),
            ("dampingFactor", Value::Double(0.85)),
        ],
    );
    add("stdlib::wcc", &g.ba, &stdlib::wcc("V", "E"), vec![]);
    add("stdlib::sssp", &g.ba, &stdlib::sssp("V", "E"), vec![("src", v0.clone())]);
    add("stdlib::triangle_count", &g.ba, &stdlib::triangle_count("V", "E"), vec![]);
    add("stdlib::khop", &g.ba, &stdlib::khop("V", "E", 3), vec![("src", v0.clone())]);
    add(
        "stdlib::label_propagation",
        &g.ba,
        &stdlib::label_propagation("V", "E"),
        vec![("maxIter", Value::Int(10))],
    );
    add(
        "stdlib::common_neighbors",
        &g.ba,
        &stdlib::common_neighbors("V", "E"),
        vec![("a", v0.clone()), ("b", v1)],
    );
    add(
        "stdlib::weighted_sssp",
        &g.weighted.0,
        &stdlib::weighted_sssp("V", "E", "w"),
        vec![("src", Value::Vertex(g.weighted.1[0]))],
    );
    add(
        "stdlib::qn",
        &g.diamond12,
        &stdlib::qn("V", "E"),
        vec![("srcName", Value::from("v0")), ("tgtName", Value::from("v12"))],
    );

    // The paper's examples.
    add("paper::example4_sales", &g.sales, stdlib::example4_sales(), vec![]);
    add("paper::example5_multi_output", &g.sales, stdlib::example5_multi_output(), vec![]);
    let ct = g.sales.schema().vertex_type_id("Customer").unwrap();
    let alice = Value::Vertex(g.sales.vertices_of_type(ct)[0]);
    add(
        "paper::example6_topk_toys",
        &g.sales,
        stdlib::example6_topk_toys(),
        vec![("c", alice), ("k", Value::Int(3))],
    );
    add("paper::example12_accum_style", &g.sales, EXAMPLE12_ACCUM_STYLE, vec![]);

    // The planner's rewrites and a WHILE loop.
    add("plan::from_reorder", &g.diamond12, FROM_REORDER, vec![("aName", Value::from("v3"))]);
    add("plan::hop_reversal", &g.diamond30, HOP_REVERSAL, vec![]);
    add(
        "while::frontier",
        &g.ba,
        WHILE_FRONTIER,
        vec![("src", Value::Vertex(g.ba.vertices().last().unwrap())), ("rounds", Value::Int(3))],
    );

    // The LDBC query set on SNB sf 0.05.
    let snb = &g.snb;
    let person = |i: usize| {
        let pt = snb.schema().vertex_type_id("Person").unwrap();
        Value::Vertex(snb.vertices_of_type(pt)[i])
    };
    let message = {
        let mt = snb.schema().vertex_type_id("Message").unwrap();
        Value::Vertex(snb.vertices_of_type(mt)[0])
    };
    for hops in [2usize, 3] {
        let p = person(0);
        let ic = [
            (
                "ic3",
                queries::ic3(hops),
                vec![
                    ("p", p.clone()),
                    ("countryX", Value::from("country0")),
                    ("countryY", Value::from("country1")),
                ],
            ),
            (
                "ic5",
                queries::ic5(hops),
                vec![("p", p.clone()), ("minDate", Value::DateTime(to_epoch(2010, 6, 1)))],
            ),
            ("ic6", queries::ic6(hops), vec![("p", p.clone()), ("tagName", Value::from("tag0"))]),
            (
                "ic9",
                queries::ic9(hops),
                vec![("p", p.clone()), ("maxDate", Value::DateTime(to_epoch(2012, 6, 1)))],
            ),
            (
                "ic11",
                queries::ic11(hops),
                vec![
                    ("p", p.clone()),
                    ("country", Value::from("country2")),
                    ("beforeYear", Value::Int(2010)),
                ],
            ),
        ];
        for (name, src, args) in ic {
            add(&format!("ldbc::{name}({hops})"), snb, &src, args);
        }
    }
    add("ldbc::q_acc", snb, &queries::q_acc(), vec![]);
    add("ldbc::q_gs", snb, &queries::q_gs(), vec![]);
    for (name, src) in [("is1", queries::is1()), ("is2", queries::is2()), ("is3", queries::is3())] {
        add(&format!("ldbc::{name}"), snb, &src, vec![("p", person(1))]);
    }
    for (name, src) in [("is5", queries::is5()), ("is7", queries::is7())] {
        add(&format!("ldbc::{name}"), snb, &src, vec![("m", message.clone())]);
    }
    for (name, src, args) in target_anchor_cases::cases(snb) {
        add(&format!("target_anchor::{name}"), snb, &src, args);
    }

    // Example 1 joins a relational table with the graph.
    let employees = Table::from_rows(
        "Employee",
        &["name", "email"],
        vec![
            vec![Value::from("ann"), Value::from("ann@acme.com")],
            vec![Value::from("ben"), Value::from("ben@acme.com")],
        ],
    );
    cases.push(Case {
        name: "paper::example1_join".into(),
        graph: &g.linkedin,
        table: Some(employees),
        src: stdlib::example1_join().into(),
        args: vec![],
    });
    cases
}

/// One line per operator, children indented under their parent.
fn render_node(node: &ProfileNode, depth: usize, out: &mut String) {
    let _ = writeln!(
        out,
        "{:indent$}{} | {} | calls {} rows {} vertices {} edges {} kernels {} paths {} \
         acc {} cache {}/{} accum_bytes {}",
        "",
        node.op,
        node.detail,
        node.calls,
        node.rows,
        node.vertices_touched,
        node.edges_scanned,
        node.kernel_calls,
        node.paths_enumerated,
        node.acc_executions,
        node.cache_hits,
        node.cache_misses,
        node.accum_bytes,
        indent = depth * 2,
    );
    for c in &node.children {
        render_node(c, depth + 1, out);
    }
}

fn render_all(g: &Graphs, parallelism: usize, morsel: usize) -> String {
    let mut out = String::new();
    for case in corpus(g) {
        let mut engine =
            Engine::new(case.graph).with_parallelism(parallelism).with_morsel_size(morsel);
        if let Some(t) = case.table {
            engine = engine.with_table(t);
        }
        let q = parse_query(&case.src).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let (_, prof) = engine
            .run_profiled(&q, &case.args)
            .unwrap_or_else(|e| panic!("{} parallelism={parallelism} morsel={morsel}: {e}", case.name));
        let _ = writeln!(out, "## {}", case.name);
        render_node(&prof.root, 0, &mut out);
    }
    out
}

#[test]
fn operator_rows_are_golden_at_any_parallelism_and_morsel_size() {
    let g = Graphs::new();
    let reference = render_all(&g, 1, 1024);
    check_golden("operator_rows.txt", &reference);
    for (par, morsel) in [(1usize, 1usize), (4, 1), (4, 1024)] {
        let out = render_all(&g, par, morsel);
        if out != reference {
            let line = out.lines().zip(reference.lines()).position(|(a, b)| a != b);
            let at = line.unwrap_or(0);
            panic!(
                "parallelism={par} morsel={morsel}: operator counters diverged at line {}:\n  \
                 got:       {}\n  reference: {}",
                at + 1,
                out.lines().nth(at).unwrap_or("<eof>"),
                reference.lines().nth(at).unwrap_or("<eof>"),
            );
        }
    }
}
