//! Regression tests for the abstract-interpretation parallel gate
//! (lint pass 6, `docs/LINTS.md`): paper/bench queries whose ACCUM or
//! POST_ACCUM clauses the *syntactic* gate could not parallelize now
//! run morsel-parallel because the interval/constancy analysis proves
//! them order-invariant — and the output stays byte-identical to
//! sequential execution at every parallelism level.
//!
//! The enumerated flips (all `POST_ACCUM` accumulator *assignments*
//! that the fixpoint analysis proves row-invariant or per-vertex
//! disjoint):
//!
//! | query                   | flipped block                                  |
//! |-------------------------|------------------------------------------------|
//! | `stdlib::wcc`           | `Init ... POST_ACCUM v.@cc = v.id()`           |
//! | `stdlib::sssp`          | `Init ... POST_ACCUM v.@dist = 0`              |
//! | `stdlib::label_propagation` | `Init ... POST_ACCUM v.@label = v.id()`    |
//! | `stdlib::weighted_sssp` | `Init ... POST_ACCUM v.@dist = 0`              |
//! | `stdlib::example6_topk_toys` | `POST_ACCUM o.@lc = log(1 + o.@inCommon)` |
//!
//! Each test asserts both halves of the contract: the plan actually
//! takes the proven strategy (EXPLAIN says so), and the results are
//! identical across parallelism {1, 2, 8}.

use gsql_core::{parse_query, stdlib, Engine, QueryOutput, ResourceReport};
use pgraph::generators::{diamond_chain, erdos_renyi, sales_graph};
use pgraph::graph::Graph;
use pgraph::value::Value;

const PARALLELISMS: [usize; 3] = [1, 2, 8];

/// The governor counters that must be schedule-invariant (everything
/// except wall-clock `elapsed`).
fn report_counts(r: &ResourceReport) -> (u64, u64, u64, u64) {
    (r.rows_materialized, r.paths_enumerated, r.peak_accum_bytes, r.while_iterations)
}

fn assert_identical(reference: &QueryOutput, out: &QueryOutput, label: &str) {
    assert_eq!(reference.tables, out.tables, "{label}: tables diverged");
    assert_eq!(reference.prints, out.prints, "{label}: prints diverged");
    assert_eq!(reference.returned, out.returned, "{label}: return diverged");
    assert_eq!(reference.stats, out.stats, "{label}: MatchStats diverged");
    assert_eq!(
        report_counts(&reference.report),
        report_counts(&out.report),
        "{label}: governor counters diverged"
    );
}

fn explain_text(graph: &Graph, src: &str) -> String {
    let q = parse_query(src).unwrap();
    Engine::new(graph).explain(&q).unwrap().render()
}

/// Asserts the plan contains at least `min` blocks using an
/// absint-proven parallel strategy — i.e. blocks the syntactic
/// `accum_exact_merge` / `post_accum_parallel` gates rejected but the
/// abstract interpreter admitted.
fn assert_proven_blocks(graph: &Graph, src: &str, min: usize, label: &str) {
    let plan = explain_text(graph, src);
    let proven = plan.matches("proven").count();
    assert!(
        plan.contains("(absint)"),
        "{label}: expected an absint-proven parallel strategy in plan:\n{plan}"
    );
    assert!(
        proven >= min,
        "{label}: expected >= {min} proven-parallel blocks, found {proven} in plan:\n{plan}"
    );
}

/// Runs `src` sequentially (parallelism 1) as the reference, then sweeps
/// parallelism, asserting byte-identity.
fn sweep(graph: &Graph, src: &str, args: &[(&str, Value)], label: &str) {
    let reference = Engine::new(graph).with_parallelism(1).run_text(src, args).unwrap();
    for &par in &PARALLELISMS {
        let out = Engine::new(graph).with_parallelism(par).run_text(src, args).unwrap();
        assert_identical(&reference, &out, &format!("{label} par={par}"));
    }
}

/// Appends a deterministic projection so WCC-family queries produce an
/// observable table (the algorithms themselves only mutate accumulators).
fn with_projection(src: &str, proj: &str) -> String {
    src.replace("END;\n}", &format!("END;\n  {proj}\n}}"))
}

// ---- flip enumeration: the plan takes the proven strategy ------------------

#[test]
fn wcc_init_flips_to_proven_parallel() {
    let g = erdos_renyi(300, 4.0 / 300.0, 7);
    // `Init ... POST_ACCUM v.@cc = v.id()` is an assignment, so the
    // syntactic exact-merge gate rejects it; absint proves the per-vertex
    // cells disjoint and admits the morsel-parallel apply.
    assert_proven_blocks(&g, &stdlib::wcc("V", "E"), 1, "wcc");
}

#[test]
fn sssp_init_flips_to_proven_parallel() {
    let (g, _) = diamond_chain(30);
    assert_proven_blocks(&g, &stdlib::sssp("V", "E"), 1, "sssp");
}

#[test]
fn label_propagation_init_flips_to_proven_parallel() {
    let g = erdos_renyi(200, 4.0 / 200.0, 13);
    assert_proven_blocks(&g, &stdlib::label_propagation("V", "E"), 1, "label_propagation");
}

#[test]
fn weighted_sssp_init_flips_to_proven_parallel() {
    let (g, _) = diamond_chain(20);
    assert_proven_blocks(&g, &stdlib::weighted_sssp("V", "E", "w"), 1, "weighted_sssp");
}

#[test]
fn example6_post_accum_flips_to_proven_parallel() {
    let g = sales_graph();
    // `POST_ACCUM o.@lc = log(1 + o.@inCommon)` assigns a per-vertex
    // cell from data that is stable once the ACCUM fold finished.
    assert_proven_blocks(&g, stdlib::example6_topk_toys(), 1, "example6");
}

// ---- flip determinism: byte-identical at every schedule --------------------

#[test]
fn wcc_flip_is_schedule_invariant() {
    let g = erdos_renyi(300, 4.0 / 300.0, 7);
    let src = with_projection(
        &stdlib::wcc("V", "E"),
        "SELECT DISTINCT v.name, v.@cc AS cc INTO C FROM V:v;",
    );
    sweep(&g, &src, &[], "wcc");
}

#[test]
fn sssp_flip_is_schedule_invariant() {
    let (g, names) = diamond_chain(30);
    let src = with_projection(
        &stdlib::sssp("V", "E"),
        "SELECT DISTINCT v.name, v.@dist AS d INTO D FROM V:v;",
    );
    let args = [("src", Value::Vertex(names[0]))];
    sweep(&g, &src, &args, "sssp");
}

#[test]
fn label_propagation_flip_is_schedule_invariant() {
    let g = erdos_renyi(200, 4.0 / 200.0, 13);
    let src = with_projection(
        &stdlib::label_propagation("V", "E"),
        "SELECT DISTINCT v.name, v.@label AS community INTO C FROM V:v;",
    );
    sweep(&g, &src, &[("maxIter", Value::Int(20))], "label_propagation");
}

#[test]
fn weighted_sssp_flip_is_schedule_invariant() {
    use pgraph::graph::GraphBuilder;
    use pgraph::schema::{AttrDef, Schema};
    use pgraph::value::ValueType;
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![AttrDef::new("name", ValueType::Str)]).unwrap();
    s.add_edge_type("E", true, vec![AttrDef::new("w", ValueType::Double)]).unwrap();
    let mut b = GraphBuilder::new(s);
    let vs: Vec<_> = (0..12)
        .map(|i| b.vertex("V", &[("name", Value::from(format!("v{i}")))]).unwrap())
        .collect();
    for (i, (s_, t)) in [
        (0usize, 1usize), (1, 2), (0, 2), (2, 3), (3, 4), (1, 4), (4, 5),
        (5, 6), (2, 6), (6, 7), (7, 8), (8, 9), (3, 9), (9, 10), (10, 11),
    ]
    .iter()
    .enumerate()
    {
        let w = 1.0 + ((i * 7) % 5) as f64;
        b.edge("E", vs[*s_], vs[*t], &[("w", Value::Double(w))]).unwrap();
    }
    let g = b.build();
    let src = with_projection(
        &stdlib::weighted_sssp("V", "E", "w"),
        "SELECT DISTINCT v.name, v.@dist AS d INTO D FROM V:v;",
    );
    let args = [("src", Value::Vertex(vs[0]))];
    sweep(&g, &src, &args, "weighted_sssp");
}

#[test]
fn example6_flip_is_schedule_invariant() {
    let g = sales_graph();
    let alice = g.vertices_of_type(g.schema().vertex_type_id("Customer").unwrap())[0];
    let args = [("c", Value::Vertex(alice)), ("k", Value::Int(3))];
    sweep(&g, stdlib::example6_topk_toys(), &args, "example6");
}

// ---- hop reordering (satellite): reversal is planned and sound -------------

/// A two-hop count anchored at the *end* of the pattern: the planner
/// should reverse the traversal (EXPLAIN `reordered: true`) because the
/// point-anchored end is provably cheaper to start from, and the
/// count-only output makes the rewrite result-equivalent.
const REORDER_SRC: &str = r#"
CREATE QUERY CountInbound2 () {
  SELECT count(*) AS n INTO R
  FROM  V:s -(E>)- V:t -(E>)- V:u
  WHERE u.name == 'v30';
  PRINT R;
}
"#;

/// The same query with the pattern hand-reversed — the ground truth the
/// planner's rewrite must agree with.
const REORDER_MANUAL: &str = r#"
CREATE QUERY CountInbound2 () {
  SELECT count(*) AS n INTO R
  FROM  V:u -(<E)- V:t -(<E)- V:s
  WHERE u.name == 'v30';
  PRINT R;
}
"#;

#[test]
fn hop_reversal_is_planned_and_annotated() {
    let (g, _) = diamond_chain(30);
    let plan = explain_text(&g, REORDER_SRC);
    assert!(
        plan.contains("reordered: true"),
        "expected hop reversal in plan:\n{plan}"
    );
    // The hand-reversed form is already anchored at its start: no rewrite.
    let manual = explain_text(&g, REORDER_MANUAL);
    assert!(
        !manual.contains("reordered: true"),
        "hand-reversed query must not be rewritten again:\n{manual}"
    );
}

#[test]
fn hop_reversal_is_result_equivalent_and_deterministic() {
    let (g, _) = diamond_chain(30);
    let reference = Engine::new(&g).with_parallelism(1).run_text(REORDER_MANUAL, &[]).unwrap();
    for &par in &PARALLELISMS {
        let out = Engine::new(&g).with_parallelism(par).run_text(REORDER_SRC, &[]).unwrap();
        assert_eq!(
            reference.tables, out.tables,
            "reversed plan diverged from hand-reversed ground truth at par={par}"
        );
        assert_eq!(reference.prints, out.prints, "prints diverged at par={par}");
    }
}
