//! WHERE conjuncts that name only a hop's unbound target (sargable
//! anchors).
//!
//! * `tests/golden/target_anchor.txt` pins the output of the shapes that
//!   consume such conjuncts — a non-equality conjunct on an adjacency hop
//!   (`ic9`), two conjuncts on one target (`Q_acc`'s year window), many
//!   rows reaching the same target (`ic3`'s `MsgIn>` → `Country`), an
//!   anchored target, a vertex-set target, a wildcard hop, a table
//!   output and a Kleene hop — byte-identical at parallelism {1, 4} ×
//!   morsel size {1, 1024}.
//! * A conjunct that fails on a vertex the hop reaches fails the query;
//!   one that would fail only on a vertex the hop never reaches does not,
//!   because a single-edge hop tests the conjunct where it reaches a
//!   vertex instead of over the target's whole vertex type.
//! * A single-edge hop walks only its edge type's slice of the typed CSR
//!   (`edges_scanned` counts that slice, not the whole adjacency).
//!
//! Regenerate after an intentional change with
//! `GSQL_BLESS=1 cargo test -p bench --test target_anchor`.

#[path = "common/target_anchor_cases.rs"]
mod target_anchor_cases;

use gsql_core::{Engine, ErrorKind, QueryOutput};
use ldbc_snb::{generate, SnbParams};
use pgraph::graph::{Graph, GraphBuilder, VertexId};
use target_anchor_cases::cases;
use pgraph::value::Value;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Compares `actual` with the golden file `name` (or rewrites it under
/// `GSQL_BLESS`), reporting the first differing line.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
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

/// Prints, tables and the binding-row count of one run.
fn render(name: &str, out: &QueryOutput) -> String {
    let mut s = format!("## {name}\n");
    for p in &out.prints {
        s.push_str(p);
        s.push('\n');
    }
    for t in out.tables.values() {
        s.push_str(&t.to_string());
        s.push('\n');
    }
    s.push_str(&format!("rows_materialized {}\n", out.report.rows_materialized));
    s
}

fn render_all<'g>(g: &'g Graph, configure: impl Fn(Engine<'g>) -> Engine<'g>) -> String {
    let engine = configure(Engine::new(g));
    cases(g)
        .iter()
        .map(|(name, src, args)| {
            let out = engine.run_text(src, args).unwrap_or_else(|e| panic!("{name}: {e}"));
            render(name, &out)
        })
        .collect()
}

#[test]
fn target_anchors_are_golden_at_any_parallelism_and_morsel_size() {
    let g = generate(SnbParams::new(0.05, 2024));
    let reference = render_all(&g, |e| e.with_parallelism(1).with_morsel_size(1024));
    check_golden("target_anchor.txt", &reference);
    for par in [1usize, 4] {
        for morsel in [1usize, 1024] {
            let out = render_all(&g, |e| e.with_parallelism(par).with_morsel_size(morsel));
            assert!(out == reference, "parallelism={par} morsel={morsel}: output diverged");
        }
    }
}

/// A directed `V`/`E` graph whose vertices carry an int `x`: `a` points
/// at `b` and `c`, and `z` (with `x = 0`) is reached only when
/// `reach_zero` adds an `a → z` edge.
fn divisor_graph(reach_zero: bool) -> Graph {
    use pgraph::schema::{AttrDef, Schema};
    use pgraph::value::ValueType;
    let mut s = Schema::new();
    s.add_vertex_type(
        "V",
        vec![AttrDef::new("name", ValueType::Str), AttrDef::new("x", ValueType::Int)],
    )
    .unwrap();
    s.add_edge_type("E", true, vec![]).unwrap();
    let mut b = GraphBuilder::new(s);
    let vs: Vec<VertexId> = [("a", 1), ("b", 3), ("c", 4), ("z", 0)]
        .iter()
        .map(|&(n, x)| b.vertex("V", &[("name", Value::from(n)), ("x", Value::Int(x))]).unwrap())
        .collect();
    b.edge("E", vs[0], vs[1], &[]).unwrap();
    b.edge("E", vs[0], vs[2], &[]).unwrap();
    if reach_zero {
        b.edge("E", vs[0], vs[3], &[]).unwrap();
    }
    b.build()
}

/// `12 / t.x` names only the hop target `t`; it divides by zero on `z`.
const DIVIDE: &str = r#"
    CREATE QUERY Divide () {
      SumAccum<int> @@n;
      S = SELECT t FROM V:s -(E>)- V:t
          WHERE s.name == "a" AND 12 / t.x > 1
          ACCUM @@n += 1;
      PRINT @@n;
    }
"#;

#[test]
fn a_target_conjunct_failing_on_a_reached_vertex_fails_the_query() {
    let g = divisor_graph(true);
    for par in [1usize, 4] {
        let err = Engine::new(&g).with_parallelism(par).run_text(DIVIDE, &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Runtime, "{err}");
        assert!(err.to_string().contains("division by zero"), "{err}");
    }
}

#[test]
fn a_target_conjunct_is_not_evaluated_on_vertices_the_hop_never_reaches() {
    // `z` is a `V` the hop from `a` never reaches, so `12 / z.x` is never
    // evaluated: the conjunct is tested where the hop reaches a vertex,
    // not over every vertex of the target type.
    let g = divisor_graph(false);
    for par in [1usize, 4] {
        let out = Engine::new(&g).with_parallelism(par).run_text(DIVIDE, &[]).unwrap();
        assert_eq!(out.prints, vec!["@@n = 2".to_string()]);
    }
}

#[test]
fn a_single_edge_hop_scans_only_its_edge_types_adjacency() {
    // `-(<HasCreator)-` from every person walks each person's
    // `HasCreator` slice of the typed CSR, not its whole adjacency
    // (`Knows`, `LivesIn`, `Likes`, ... as well); the wildcard walks it all.
    let g = generate(SnbParams::new(0.05, 2024));
    let person = g.schema().vertex_type_id("Person").unwrap();
    let has_creator = g.schema().edge_type_id("HasCreator").unwrap();
    let persons = g.vertices_of_type(person);
    let typed: usize = persons.iter().map(|&p| g.adjacency_of_type(p, has_creator).count()).sum();
    let all: usize = persons.iter().map(|&p| g.adjacency(p).len()).sum();
    assert!(typed < all, "no other edge types at the persons: {typed} vs {all}");
    let scanned = |darpe: &str| {
        let src = format!(
            "CREATE QUERY Hop () {{ S = SELECT m FROM Person:f -({darpe})- Message:m; PRINT S.size(); }}"
        );
        Engine::new(&g).run_text(&src, &[]).unwrap().stats.edges_scanned
    };
    assert_eq!(scanned("<HasCreator"), typed as u64);
    assert_eq!(scanned("<_"), all as u64);
}
