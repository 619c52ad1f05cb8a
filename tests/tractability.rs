//! Section 7: the tractable-class boundary is enforced, and stepping
//! outside it is a reported error (or an explicit choice of enumerative
//! semantics) — never a silent wrong answer.

use gsql_core::{Engine, Error, PathSemantics};
use pgraph::generators::diamond_chain;
use pgraph::value::Value;

/// Edge variables may not bind inside Kleene DARPEs (variables in the
/// scope of a Kleene star are outside the tractable class).
#[test]
fn edge_var_in_kleene_is_compile_error() {
    let (g, _) = diamond_chain(3);
    let err = Engine::new(&g)
        .run_text(
            r#"
            CREATE QUERY G () {
              SumAccum<int> @@n;
              S = SELECT t FROM V:s -(E>*:e)- V:t ACCUM @@n += 1;
            }
            "#,
            &[],
        )
        .unwrap_err();
    assert!(matches!(err, Error::Compile(_)), "{err}");
    assert!(err.to_string().contains("Kleene"));
}

/// ListAccum fed from a Kleene pattern under counting semantics is
/// rejected statically...
#[test]
fn list_accum_with_kleene_rejected_under_counting() {
    let (g, _) = diamond_chain(3);
    let q = r#"
        CREATE QUERY G () {
          ListAccum<int> @@paths;
          S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@paths += 1;
        }
    "#;
    let err = Engine::new(&g).run_text(q, &[]).unwrap_err();
    assert!(matches!(err, Error::Compile(_)), "{err}");
    assert!(err.to_string().contains("multiplicity"), "{err}");
}

/// ...but allowed under an enumerative semantics, where each legal path
/// is materialized anyway (the user has opted into exponential cost).
#[test]
fn list_accum_with_kleene_allowed_under_enumeration() {
    let (g, _) = diamond_chain(3);
    let q = r#"
        CREATE QUERY G (string srcName, string tgtName) {
          ListAccum<int> @@ones;
          S = SELECT t FROM V:s -(E>*)- V:t
              WHERE s.name == srcName AND t.name == tgtName
              ACCUM @@ones += 1;
          PRINT @@ones.size() AS paths;
        }
    "#;
    let out = Engine::new(&g)
        .with_semantics(PathSemantics::NonRepeatedEdge)
        .run_text(
            q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v3"))],
        )
        .unwrap();
    assert_eq!(out.prints, vec!["paths = 8".to_string()]);
}

/// Multiplicity-insensitive accumulators are fine with Kleene patterns —
/// and give exact answers even with astronomically many legal paths.
#[test]
fn insensitive_accums_absorb_huge_multiplicities() {
    let (g, _) = diamond_chain(120); // 2^120 paths end to end
    let q = r#"
        CREATE QUERY G (string srcName) {
          MaxAccum<int> @@far;
          SetAccum<string> @@reached;
          S = SELECT t FROM V:s -(E>*)- V:t
              WHERE s.name == srcName
              ACCUM @@far += t.id(), @@reached += t.name;
          PRINT @@reached.size() AS reached;
        }
    "#;
    let out = Engine::new(&g)
        .run_text(q, &[("srcName", Value::from("v0"))])
        .unwrap();
    // Every vertex is reachable from v0.
    assert_eq!(out.prints, vec![format!("reached = {}", g.vertex_count())]);
}

/// SumAccum<INT> overflows (multiplicity beyond i64) are reported, not
/// wrapped silently.
#[test]
fn sum_int_multiplicity_overflow_is_error() {
    let (g, _) = diamond_chain(70); // 2^70 > i64::MAX
    let q = r#"
        CREATE QUERY G (string srcName, string tgtName) {
          SumAccum<int> @@n;
          S = SELECT t FROM V:s -(E>*)- V:t
              WHERE s.name == srcName AND t.name == tgtName
              ACCUM @@n += 1;
        }
    "#;
    let err = Engine::new(&g)
        .run_text(
            q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v70"))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("multiplicity"), "{err}");
}

/// SumAccum<FLOAT> handles the same multiplicity approximately.
#[test]
fn sum_float_handles_huge_multiplicities() {
    let (g, _) = diamond_chain(70);
    let q = r#"
        CREATE QUERY G (string srcName, string tgtName) {
          SumAccum<float> @@n;
          S = SELECT t FROM V:s -(E>*)- V:t
              WHERE s.name == srcName AND t.name == tgtName
              ACCUM @@n += 1;
          PRINT @@n > 1.0e21 AS huge;
        }
    "#;
    let out = Engine::new(&g)
        .run_text(
            q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v70"))],
        )
        .unwrap();
    assert_eq!(out.prints, vec!["huge = true".to_string()]);
}

/// The enumeration budget aborts runaway enumerative queries with a
/// clear error (the stand-in for the paper's query timeouts).
#[test]
fn enumeration_budget_reports_timeout() {
    let (g, _) = diamond_chain(30);
    let q = gsql_core::stdlib::qn("V", "E");
    let err = Engine::new(&g)
        .with_semantics(PathSemantics::NonRepeatedEdge)
        .with_enum_budget(1_000)
        .run_text(
            &q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v30"))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
}

/// Non-aggregate projections refuse to expand astronomic multiplicities
/// into rows.
#[test]
fn projection_of_huge_multiplicity_is_error() {
    let (g, _) = diamond_chain(80);
    let q = r#"
        CREATE QUERY G (string srcName, string tgtName) {
          SELECT s.name, t.name INTO T
          FROM V:s -(E>*)- V:t
          WHERE s.name == srcName AND t.name == tgtName;
        }
    "#;
    let err = Engine::new(&g)
        .run_text(
            q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v80"))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("multiplicity"), "{err}");
}

/// ...while aggregated projections of the same pattern work fine: the
/// compressed representation reaches the aggregate as a multiplicity.
#[test]
fn aggregated_projection_of_huge_multiplicity_works() {
    let (g, _) = diamond_chain(80);
    let q = r#"
        CREATE QUERY G (string srcName, string tgtName) {
          SELECT count(*) AS paths INTO T
          FROM V:s -(E>*)- V:t
          WHERE s.name == srcName AND t.name == tgtName;
        }
    "#;
    let out = Engine::new(&g)
        .run_text(
            q,
            &[("srcName", Value::from("v0")), ("tgtName", Value::from("v80"))],
        )
        .unwrap();
    // 2^80 exceeds i64: surfaced as a decimal string.
    assert_eq!(
        out.table("T").unwrap().rows,
        vec![vec![Value::Str("1208925819614629174706176".into())]]
    );
}

/// Counting work is polynomial in n on the diamond chain: product states
/// grow linearly even as path counts grow as 2^n.
#[test]
fn product_state_count_grows_linearly() {
    // Float variant of Q_n: 2^80 exceeds SumAccum<INT>.
    let q = r#"
        CREATE QUERY Qf (string srcName, string tgtName) {
          SumAccum<float> @pathCount;
          R = SELECT t
              FROM  V:s -(E>*)- V:t
              WHERE s.name == srcName AND t.name == tgtName
              ACCUM t.@pathCount += 1;
        }
    "#;
    let mut states = Vec::new();
    for n in [20usize, 40, 80] {
        let (g, _) = diamond_chain(n);
        let out = Engine::new(&g)
            .run_text(
                q,
                &[("srcName", Value::from("v0")), ("tgtName", Value::from(format!("v{n}")))],
            )
            .unwrap();
        states.push(out.stats.product_states as f64);
    }
    // Linear growth: doubling n roughly doubles the product states.
    assert!(states[1] / states[0] < 2.6, "{states:?}");
    assert!(states[2] / states[1] < 2.6, "{states:?}");
}

/// The compile error an edge variable inside a Kleene hop raises.
const EDGE_VAR_MSG: &str = "edge variable `e` binds inside a composite/Kleene DARPE `E>*` — \
     variables in the scope of a Kleene star are outside the tractable class (paper Section 7); \
     bind variables on single-edge hops only";

/// The compile error a multiplicity-sensitive `@@x` of type `ty` fed
/// from a Kleene hop raises under counting semantics.
fn multiplicity_msg(ty: &str) -> String {
    format!(
        "accumulator `x` of type {ty} is multiplicity-sensitive and order-dependent; it cannot \
         absorb path multiplicities from a Kleene pattern under all-shortest-paths counting \
         semantics (paper Section 7). Use Sum/Avg/Bag or a multiplicity-insensitive \
         accumulator, or switch to an enumerative path semantics"
    )
}

/// The message of a compile error; panics on any other outcome.
fn compile_msg(out: gsql_core::Result<gsql_core::QueryOutput>) -> String {
    match out {
        Err(Error::Compile(m)) => m,
        other => panic!("expected a compile error, got {other:?}"),
    }
}

#[test]
fn engine_tractability_messages_are_pinned() {
    let (g, _) = diamond_chain(3);
    let eng = Engine::new(&g);
    let edge = eng.run_text(
        "CREATE QUERY G () { SumAccum<int> @@x; \
         S = SELECT t FROM V:s -(E>*:e)- V:t ACCUM @@x += 1; }",
        &[],
    );
    assert_eq!(compile_msg(edge), EDGE_VAR_MSG);
    let list = eng.run_text(
        "CREATE QUERY G () { ListAccum<int> @@x; \
         S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1; }",
        &[],
    );
    assert_eq!(compile_msg(list), multiplicity_msg("ListAccum"));
}

/// A block that never runs never fails: the class is raised when the
/// block runs, not when the query is planned.
#[test]
fn intractable_block_in_untaken_branch_runs_and_explains() {
    let (g, _) = diamond_chain(3);
    let q = gsql_core::parse_query(
        r#"CREATE QUERY G (INT flag) {
  ListAccum<int> @@x;
  IF flag == 1 THEN
    S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
  END;
  PRINT @@x.size() AS n;
}"#,
    )
    .unwrap();
    let eng = Engine::new(&g);
    let out = eng.run(&q, &[("flag", Value::Int(0))]).unwrap();
    assert_eq!(out.prints, vec!["n = 0".to_string()]);
    eng.explain(&q).unwrap();
    assert_eq!(
        compile_msg(eng.run(&q, &[("flag", Value::Int(1))])),
        multiplicity_msg("ListAccum")
    );
}

/// The accumulator type checked is the declaration in force when the
/// block runs; a later redeclaration does not reach back.
#[test]
fn redeclaration_follows_the_live_declaration() {
    let (g, _) = diamond_chain(3);
    let eng = Engine::new(&g);
    let list_then_sum = eng.run_text(
        r#"CREATE QUERY G () {
  ListAccum<int> @@x;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
  SumAccum<int> @@x;
}"#,
        &[],
    );
    assert_eq!(compile_msg(list_then_sum), multiplicity_msg("ListAccum"));
    let sum_then_list = eng
        .run_text(
            r#"CREATE QUERY G () {
  SumAccum<int> @@x;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
  PRINT @@x AS n;
  ListAccum<int> @@x;
}"#,
            &[],
        )
        .unwrap();
    assert_eq!(sum_then_list.prints, vec!["n = 92".to_string()]);
    // A redeclaration at the end of a loop body reaches the block on the
    // next iteration: one iteration runs, the second fails.
    let looped = |n: i64| {
        eng.run_text(
            r#"CREATE QUERY G (INT n) {
  SumAccum<int> @@i;
  SumAccum<int> @@x;
  WHILE @@i < n DO
    S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
    @@i += 1;
    ListAccum<int> @@x;
  END;
}"#,
            &[("n", Value::Int(n))],
        )
    };
    looped(1).unwrap();
    assert_eq!(compile_msg(looped(2)), multiplicity_msg("ListAccum"));
}

/// On straight-line queries, where every block runs, the engine fails a
/// query with a tractability error exactly when the linter reports P002
/// or P003 for it, under every path semantics.
#[test]
fn engine_and_linter_agree_on_the_tractable_class() {
    let fixtures: &[(&str, &str)] = &[
        ("SumAccum<int> @@x;", "V:s -(E>*:e)- V:t ACCUM @@x += 1"),
        ("ListAccum<int> @@x;", "V:s -(E>*)- V:t ACCUM @@x += 1"),
        ("ListAccum<int> @x;", "V:s -(E>*)- V:t ACCUM t.@x += 1"),
        ("ArrayAccum<int> @@x;", "V:s -(E>*)- V:t ACCUM @@x += 1"),
        ("SumAccum<STRING> @@x;", "V:s -(E>*)- V:t ACCUM @@x += t.name"),
        ("SumAccum<int> @@x;", "V:s -(E>*)- V:t ACCUM @@x += 1"),
        ("BagAccum<int> @@x;", "V:s -(E>*)- V:t ACCUM @@x += 1"),
        (
            "TYPEDEF TUPLE<INT n, STRING name> Rec; HeapAccum<Rec>(2, n DESC) @@x;",
            "V:s -(E>*)- V:t ACCUM @@x += (1, t.name)",
        ),
        ("ListAccum<int> @@x;", "V:s -(E>*1..2)- V:t ACCUM @@x += 1"),
        ("ListAccum<int> @@x;", "V:s -(E>*1..2:e)- V:t ACCUM @@x += 1"),
        ("ListAccum<int> @@x;", "V:s -(E>:e)- V:t ACCUM @@x += 1"),
        ("ListAccum<int> @@x;", "V:s -(E>)- V:m -(E>*)- V:t POST_ACCUM @@x += 1"),
    ];
    let semantics = [
        PathSemantics::AllShortestPaths,
        PathSemantics::AllShortestPathsEnumerate,
        PathSemantics::NonRepeatedEdge,
        PathSemantics::NonRepeatedVertex,
        PathSemantics::ShortestOne,
    ];
    let (g, _) = diamond_chain(3);
    for (decl, block) in fixtures {
        let src = format!("CREATE QUERY G () {{ {decl} S = SELECT t FROM {block}; }}");
        let q = gsql_core::parse_query(&src).unwrap();
        for sem in semantics {
            let eng = Engine::new(&g).with_semantics(sem);
            let linted = eng.check(&q).iter().any(|d| d.code == "P002" || d.code == "P003");
            let failed = match eng.run(&q, &[]) {
                Err(Error::Compile(m)) => m.contains("Kleene"),
                _ => false,
            };
            assert_eq!(failed, linted, "{src} under {sem:?}");
        }
    }
}
