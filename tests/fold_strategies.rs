//! Pins the ACCUM / POST_ACCUM fold strategy EXPLAIN reports for every
//! SELECT block of the stdlib, the paper examples, Appendix B and the
//! LDBC query set — one line per block in
//! `tests/golden/fold_strategies.txt`.
//!
//! The strategy phrase is the planner's parallel-fold gate made visible
//! ("morsel-parallel …" vs "sequential …"). The executor trusts that
//! gate, so a clause silently flipping from parallel to sequential (or
//! back) is a behaviour change this suite turns into a diff.
//!
//! Regenerate after an intentional gate change with
//! `GSQL_BLESS=1 cargo test -p bench --test fold_strategies`.

use gsql_core::{explain_plan, parse_query, Engine, PathSemantics, PlanNode};
use gsql_core::stdlib;
use ldbc_snb::queries;
use std::path::PathBuf;

/// Example 12's accumulator-style grouping (`tests/paper_examples.rs`).
const EXAMPLE12_ACCUM_STYLE: &str = r#"
CREATE QUERY AccumStyle () {
  GroupByAccum<string k, SumAccum<float> s, MinAccum m, AvgAccum a> @@g;
  S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
      ACCUM @@g += (p.category -> b.quantity, p.list_price, b.discount);
  PRINT @@g;
}
"#;

/// Gate-boundary clauses: an exact `+=`, a float `+=`, a row-invariant
/// `=`, a row-dependent `=`, a mixed `=`/`+=`, a POST_ACCUM that reads
/// what it writes, and an undeclared target.
const GATE_BOUNDARIES: &str = r#"
CREATE QUERY Gates () {
  SumAccum<int> @cnt, @@total;
  SumAccum<float> @score;
  MaxAccum @seen;
  OrAccum @@any;
  A = SELECT t FROM V:s -(E>)- V:t ACCUM t.@cnt += 1, @@total += 1;
  B = SELECT t FROM V:s -(E>)- V:t ACCUM t.@score += 0.5;
  C = SELECT t FROM V:s -(E>)- V:t ACCUM @@any = TRUE;
  D = SELECT t FROM V:s -(E>)- V:t ACCUM t.@seen = s.id();
  E = SELECT t FROM V:s -(E>)- V:t ACCUM t.@cnt = 0, t.@cnt += 1;
  F = SELECT s FROM V:s POST_ACCUM s.@cnt += 1;
  G = SELECT s FROM V:s POST_ACCUM s.@cnt = 7;
  H = SELECT s FROM V:s POST_ACCUM s.@cnt += s.@cnt;
  I = SELECT s FROM V:s POST_ACCUM s.@score += 1.5;
  J = SELECT s FROM V:s ACCUM s.@missing += 1 POST_ACCUM @@alsoMissing += 1;
}
"#;

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("stdlib::pagerank", stdlib::pagerank("V", "E")),
        ("stdlib::wcc", stdlib::wcc("V", "E")),
        ("stdlib::sssp", stdlib::sssp("V", "E")),
        ("stdlib::qn", stdlib::qn("V", "E")),
        ("stdlib::example1_join", stdlib::example1_join().to_string()),
        ("stdlib::example4_sales", stdlib::example4_sales().to_string()),
        ("stdlib::example5_multi_output", stdlib::example5_multi_output().to_string()),
        ("stdlib::example6_topk_toys", stdlib::example6_topk_toys().to_string()),
        ("stdlib::triangle_count", stdlib::triangle_count("V", "E")),
        ("stdlib::khop", stdlib::khop("V", "E", 3)),
        ("stdlib::label_propagation", stdlib::label_propagation("V", "E")),
        ("stdlib::common_neighbors", stdlib::common_neighbors("V", "E")),
        ("stdlib::weighted_sssp", stdlib::weighted_sssp("V", "E", "w")),
        ("paper::example12_accum_style", EXAMPLE12_ACCUM_STYLE.to_string()),
        ("ldbc::ic3", queries::ic3(3)),
        ("ldbc::ic5", queries::ic5(3)),
        ("ldbc::ic6", queries::ic6(3)),
        ("ldbc::ic9", queries::ic9(3)),
        ("ldbc::ic11", queries::ic11(3)),
        ("ldbc::q_acc", queries::q_acc()),
        ("ldbc::q_gs", queries::q_gs()),
        ("ldbc::is1", queries::is1()),
        ("ldbc::is2", queries::is2()),
        ("ldbc::is3", queries::is3()),
        ("ldbc::is5", queries::is5()),
        ("ldbc::is7", queries::is7()),
        ("gates", GATE_BOUNDARIES.to_string()),
    ]
}

/// The strategy phrase of a block's `op` child (the text after
/// `statement(s), `), or `-` when the block has no such clause.
fn phrase(block: &PlanNode, op: &str) -> String {
    block
        .children
        .iter()
        .find(|c| c.op == op)
        .map(|c| c.detail.split_once("statement(s), ").expect("strategy phrase").1.to_string())
        .unwrap_or_else(|| "-".to_string())
}

fn walk(node: &PlanNode, name: &str, out: &mut String) {
    if node.op == "block" {
        out.push_str(&format!(
            "{name} {} ACCUM: {} | POST_ACCUM: {}\n",
            node.detail,
            phrase(node, "accum"),
            phrase(node, "post-accum")
        ));
    }
    for c in &node.children {
        walk(c, name, out);
    }
}

#[test]
fn fold_strategies_are_golden() {
    let mut actual = String::new();
    for (name, src) in corpus() {
        let q = parse_query(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plan = explain_plan(&q, PathSemantics::AllShortestPaths).unwrap();
        walk(&plan.root, name, &mut actual);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/fold_strategies.txt");
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display())
    });
    assert_eq!(
        actual, expected,
        "a clause's fold strategy changed; if intentional, regenerate with GSQL_BLESS=1"
    );
}

/// A `ListAccum` fold stays sequential, in source row order, when a
/// `MaxAccum` of the same name is declared after the block: that
/// declaration is not in force when the block runs, so it cannot make
/// the fold an exact merge or license a reversed traversal.
#[test]
fn a_later_redeclaration_does_not_make_a_list_fold_parallel() {
    let body = r#"CREATE QUERY q () {
  ListAccum<string> @@l;
  SELECT count(*) AS n INTO R FROM V:s -(E>)- V:t -(E>)- V:u -(E>)- V:w
    WHERE w.name == 'v30' ACCUM @@l += s.name + "-" + u.name;
  PRINT @@l;
"#;
    let (g, _) = pgraph::generators::diamond_chain(30);
    for redeclared in ["", "  MaxAccum<string> @@l;\n"] {
        let q = parse_query(&format!("{body}{redeclared}}}")).unwrap();
        for (p, morsel) in [(1, 1), (1, 1024), (4, 1), (4, 1024)] {
            let engine = Engine::new(&g).with_parallelism(p).with_morsel_size(morsel);
            let out = engine.run(&q, &[]).unwrap();
            assert_eq!(
                out.prints,
                ["@@l = [d28a-d29a, d28a-d29b, d28b-d29a, d28b-d29b]"],
                "redeclared: {redeclared:?}, parallelism {p}, morsel {morsel}"
            );
        }
        let plan = Engine::new(&g).explain(&q).unwrap();
        let block = &plan.root.children[0];
        assert_eq!(phrase(block, "accum"), "snapshot Map/Reduce, sequential emission fold");
        assert!(block.children.iter().all(|c| c.op != "hop-reorder"), "{}", plan.render());
    }
}
