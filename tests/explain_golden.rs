//! Golden tests pinning the EXPLAIN output format documented in
//! `docs/PLAN_FORMAT.md`. The rendered plan text is a stable public
//! surface — shell, server and bench all print the same renderer's
//! output — so any change to it must be deliberate and must update both
//! the golden files under `tests/golden/` and the format document.
//!
//! Plans are rendered through [`gsql_core::Engine::explain`] against
//! fixed deterministic graphs, so the goldens pin the *cost-based*
//! plans — `est_rows`/`est_cost` annotations included — exactly as the
//! engine executes them.
//!
//! To regenerate the golden files after an intentional format change:
//!
//! ```sh
//! GSQL_BLESS=1 cargo test -p bench --test explain_golden
//! ```

use gsql_core::{explain_plan, parse_query, Engine, PathSemantics};
use pgraph::graph::Graph;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Compares `actual` against the golden file, or rewrites the file when
/// `GSQL_BLESS=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display()));
    assert_eq!(
        actual,
        expected,
        "EXPLAIN output for {name} diverged from the golden file; \
         if the change is intentional, regenerate with GSQL_BLESS=1 and update docs/PLAN_FORMAT.md"
    );
}

/// The paper's 91-vertex / 120-edge diamond-chain experiment graph.
fn diamond() -> Graph {
    pgraph::generators::diamond_chain(30).0
}

/// A small deterministic LDBC SNB graph for the ic5 plan.
fn snb() -> Graph {
    ldbc_snb::generate(ldbc_snb::SnbParams::new(0.01, 42))
}

fn explain_text(graph: &Graph, src: &str, semantics: PathSemantics) -> String {
    let q = parse_query(src).unwrap();
    Engine::new(graph).with_semantics(semantics).explain(&q).unwrap().render()
}

#[test]
fn qn_diamond_counting_plan() {
    let src = gsql_core::stdlib::qn("V", "E");
    assert_golden(
        "qn_counting.txt",
        &explain_text(&diamond(), &src, PathSemantics::AllShortestPaths),
    );
}

#[test]
fn qn_diamond_enumerative_plan() {
    // The same query under an enumerative semantics chooses the
    // backward enumerative kernel and flags it EXPONENTIAL.
    let src = gsql_core::stdlib::qn("V", "E");
    assert_golden(
        "qn_enumerate.txt",
        &explain_text(&diamond(), &src, PathSemantics::NonRepeatedVertex),
    );
}

#[test]
fn ic5_plan() {
    let src = ldbc_snb::queries::ic5(2);
    assert_golden("ic5.txt", &explain_text(&snb(), &src, PathSemantics::AllShortestPaths));
}

#[test]
fn pagerank_plan() {
    let src = gsql_core::stdlib::pagerank("V", "E");
    assert_golden(
        "pagerank.txt",
        &explain_text(&diamond(), &src, PathSemantics::AllShortestPaths),
    );
}

#[test]
fn graphless_plan_carries_no_estimates() {
    // The graph-less `explain_plan` entry point lowers through the same
    // planner but without statistics: same tree shape, no est suffixes.
    let src = gsql_core::stdlib::qn("V", "E");
    let q = parse_query(&src).unwrap();
    let bare = explain_plan(&q, PathSemantics::AllShortestPaths).unwrap().render();
    assert!(!bare.contains("est_rows="), "{bare}");
    let g = diamond();
    let with_stats = explain_text(&g, &src, PathSemantics::AllShortestPaths);
    assert!(with_stats.contains("est_rows="), "{with_stats}");
    // Stripping the annotations recovers the graph-less rendering: the
    // cost model annotates, it never reshapes the tree.
    let stripped: String = with_stats
        .lines()
        .map(|l| match l.find(" [est_rows=") {
            Some(i) => format!("{}\n", &l[..i]),
            None => format!("{l}\n"),
        })
        .collect();
    assert_eq!(stripped, bare);
}

#[test]
fn plan_json_matches_tree() {
    // The JSON rendering carries exactly the same nodes as the text
    // rendering: one line of text per JSON "op" object — including the
    // est annotations, which are scalar fields, not nodes.
    let src = ldbc_snb::queries::ic5(2);
    let q = parse_query(&src).unwrap();
    let g = snb();
    let plan = Engine::new(&g).explain(&q).unwrap();
    let text_lines = plan.render().lines().count();
    let json = plan.to_json();
    let json_ops = json.matches("\"op\":").count();
    assert_eq!(text_lines, json_ops);
    assert!(json.contains("\"est_rows\":"), "{json}");
}

#[test]
fn explain_prefix_parses_and_matches_engine_explain() {
    // `EXPLAIN <query>` through the mode-aware parser yields the same
    // plan as calling Engine::explain on the bare query — the plan that
    // actually executes, est annotations included.
    let src = gsql_core::stdlib::qn("V", "E");
    let (mode, q) = gsql_core::parse_query_with_mode(&format!("EXPLAIN {src}")).unwrap();
    assert_eq!(mode, gsql_core::QueryMode::Explain);
    let g = diamond();
    let engine = Engine::new(&g);
    let via_prefix = engine.explain(&q).unwrap().render();
    let bare = parse_query(&src).unwrap();
    let direct = engine.explain(&bare).unwrap().render();
    assert_eq!(via_prefix, direct);
    assert!(direct.contains("est_rows="), "{direct}");
}

#[test]
fn a_kernel_hop_into_a_target_set_is_explained_as_it_runs() {
    // A target set's size at run time decides the kernel direction; the
    // plan states the rule, and PROFILE counts the kernels that run: one
    // per target up to 32, else one per source. Into a vertex set: 1 of
    // 91 targets (1 kernel), all 34 targets from 1 source (1). Into the
    // targets sargable conjuncts keep: 90 of 91 from 1 source (1), and,
    // counting, 91 from 90 sources (90), where the cost model's estimate
    // of 11 targets alone would have said backward.
    let rule = "backward from each target when the target set has at most 32 vertices, \
                else forward";
    let (enumerate, count) = (PathSemantics::NonRepeatedEdge, PathSemantics::AllShortestPaths);
    let one = |v: &str| format!("WHERE v.name == \"{v}\"");
    let into_set = |source: String, target: String| {
        format!(
            "Src = SELECT v FROM V:v {source}; T = SELECT v FROM V:v {target}; \
             S = SELECT t FROM Src:s -(E>*)- T:t;"
        )
    };
    let cases = [
        (30, enumerate, into_set(String::new(), one("v3")), "T", 1),
        (11, enumerate, into_set(one("v0"), String::new()), "T", 1),
        (
            30,
            enumerate,
            "S0 = SELECT v FROM V:v WHERE v.name == \"v27\"; \
             S = SELECT t FROM S0:s -(E>*)- V:t WHERE t.name != \"zz\" ACCUM @@n += 1;"
                .to_string(),
            "V",
            1,
        ),
        (
            30,
            count,
            "S = SELECT t FROM V:s -(E>*)- V:t WHERE s.name != \"v0\" AND t.name != \"zz\" \
             AND t.name != \"yy\" AND t.name != \"xx\" ACCUM @@n += 1;"
                .to_string(),
            "V",
            90,
        ),
    ];
    for (n, semantics, body, to, kernels) in cases {
        let g = pgraph::generators::diamond_chain(n).0;
        let q = parse_query(&format!("CREATE QUERY R () {{ SumAccum<int> @@n; {body} }}")).unwrap();
        let engine = Engine::new(&g).with_semantics(semantics);
        let plan = engine.explain(&q).unwrap().render();
        let kernel = match semantics {
            PathSemantics::AllShortestPaths => "SDMC counting kernel",
            _ => "enumerative kernel",
        };
        assert!(plan.contains(&format!("-(E>*)-> {to} AS t: {kernel}, {rule} (")), "{plan}");
        let (_, profile) = engine.run_profiled(&q, &[]).unwrap();
        assert_eq!(profile.root.kernel_calls, kernels, "diamond_chain({n}): {plan}");
    }
}
