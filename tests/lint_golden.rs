//! Golden tests pinning the `gsql check` diagnostic output, one positive
//! trigger and one clean near-miss per rule code (catalog in
//! `docs/LINTS.md`), plus the paper's running examples which must stay
//! diagnostic-free.
//!
//! To regenerate after an intentional message change:
//!
//! ```sh
//! GSQL_BLESS=1 cargo test -p bench --test lint_golden
//! ```

use gsql_core::lint::{render_json, render_text};
use gsql_core::{lint_query, parse_query, PathSemantics, Severity};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display())
    });
    assert_eq!(
        actual, expected,
        "lint output for {name} diverged from the golden file; if the change is \
         intentional, regenerate with GSQL_BLESS=1 and update docs/LINTS.md"
    );
}

fn lint_text(src: &str, semantics: PathSemantics) -> String {
    let q = parse_query(src).unwrap();
    let diags = lint_query(&q, semantics);
    if diags.is_empty() {
        "clean\n".to_string()
    } else {
        render_text(&diags, Some(src)) + "\n"
    }
}

/// Asserts `src` triggers `code` (under counting semantics unless noted)
/// and pins the full rendered output.
fn positive(name: &str, code: &str, src: &str, semantics: PathSemantics) {
    let q = parse_query(src).unwrap();
    let diags = lint_query(&q, semantics);
    assert!(
        diags.iter().any(|d| d.code == code),
        "{name}: expected rule {code} to fire, got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
    assert_golden(&format!("lint_{name}.txt"), &lint_text(src, semantics));
}

/// Asserts the near-miss variant produces no diagnostic with `code`.
fn near_miss(name: &str, code: &str, src: &str, semantics: PathSemantics) {
    let q = parse_query(src).unwrap();
    let diags = lint_query(&q, semantics);
    assert!(
        !diags.iter().any(|d| d.code == code),
        "{name}: near-miss unexpectedly triggered {code}: {}",
        render_text(&diags, Some(src))
    );
}

const COUNTING: PathSemantics = PathSemantics::AllShortestPaths;

// ---- A001 written-never-read -------------------------------------------

#[test]
fn a001_unread_accumulator() {
    positive(
        "a001",
        "A001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  S = SELECT p FROM Page:p ACCUM @@cnt += 1;
}"#,
        COUNTING,
    );
    near_miss(
        "a001",
        "A001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  S = SELECT p FROM Page:p ACCUM @@cnt += 1;
  PRINT @@cnt;
}"#,
        COUNTING,
    );
}

// ---- A002 read-never-written -------------------------------------------

#[test]
fn a002_unwritten_accumulator() {
    positive(
        "a002",
        "A002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  PRINT @@cnt;
}"#,
        COUNTING,
    );
    // An initializer makes the read meaningful.
    near_miss(
        "a002",
        "A002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt = 42;
  PRINT @@cnt;
}"#,
        COUNTING,
    );
}

// ---- A003 multi-binding `=` write in ACCUM ------------------------------

#[test]
fn a003_assignment_race() {
    positive(
        "a003",
        "A003",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM t.@cnt = s.rank;
  PRINT S[S.@cnt];
}"#,
        COUNTING,
    );
    // A hopless scan binds each vertex exactly once: `=` is deterministic.
    near_miss(
        "a003",
        "A003",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  S = SELECT p FROM Page:p ACCUM p.@cnt = 1;
  PRINT S[S.@cnt];
}"#,
        COUNTING,
    );
}

// ---- A004 global assignment in ACCUM ------------------------------------

#[test]
fn a004_global_assign_race() {
    positive(
        "a004",
        "A004",
        r#"CREATE QUERY q () {
  SumAccum<int> @@last;
  S = SELECT p FROM Page:p ACCUM @@last = p.rank;
  PRINT @@last;
}"#,
        COUNTING,
    );
    near_miss(
        "a004",
        "A004",
        r#"CREATE QUERY q () {
  SumAccum<int> @@last;
  S = SELECT p FROM Page:p ACCUM @@last += 7;
  PRINT @@last;
}"#,
        COUNTING,
    );
}

// ---- A005 no-effect snapshot read ---------------------------------------

#[test]
fn a005_no_effect_snapshot() {
    positive(
        "a005",
        "A005",
        r#"CREATE QUERY q () {
  SumAccum<float> @score = 1;
  SumAccum<float> @copy;
  S = SELECT p FROM Page:p POST_ACCUM p.@copy += p.@score';
  PRINT S[S.@copy];
}"#,
        COUNTING,
    );
    // PageRank's idiom: the block writes @score, so `'` is load-bearing.
    near_miss(
        "a005",
        "A005",
        r#"CREATE QUERY q () {
  SumAccum<float> @score = 1;
  S = SELECT p FROM Page:p POST_ACCUM p.@score = p.@score' * 2;
  PRINT S[S.@score];
}"#,
        COUNTING,
    );
}

// ---- A006 undeclared accumulator ----------------------------------------

#[test]
fn a006_undeclared_accumulator() {
    positive(
        "a006",
        "A006",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  S = SELECT p FROM Page:p ACCUM @@cont += 1;
  PRINT @@cnt;
}"#,
        COUNTING,
    );
    near_miss(
        "a006",
        "A006",
        r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  S = SELECT p FROM Page:p ACCUM @@cnt += 1;
  PRINT @@cnt;
}"#,
        COUNTING,
    );
}

// ---- T001 combine operand type mismatch ---------------------------------

#[test]
fn t001_type_mismatch() {
    positive(
        "t001",
        "T001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@total;
  S = SELECT p FROM Page:p ACCUM @@total += "one";
  PRINT @@total;
}"#,
        COUNTING,
    );
    near_miss(
        "t001",
        "T001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@total;
  S = SELECT p FROM Page:p ACCUM @@total += 1;
  PRINT @@total;
}"#,
        COUNTING,
    );
}

// ---- T002 lossy integer literal -----------------------------------------

#[test]
fn t002_lossy_literal() {
    positive(
        "t002",
        "T002",
        r#"CREATE QUERY q () {
  SumAccum<float> @@total;
  S = SELECT p FROM Page:p ACCUM @@total += 9007199254740995;
  PRINT @@total;
}"#,
        COUNTING,
    );
    // 2^53 itself is exactly representable.
    near_miss(
        "t002",
        "T002",
        r#"CREATE QUERY q () {
  SumAccum<float> @@total;
  S = SELECT p FROM Page:p ACCUM @@total += 9007199254740992;
  PRINT @@total;
}"#,
        COUNTING,
    );
}

// ---- T003 Min/Max over unordered values ---------------------------------

#[test]
fn t003_minmax_over_bool() {
    positive(
        "t003",
        "T003",
        r#"CREATE QUERY q () {
  MaxAccum @@any;
  S = SELECT p FROM Page:p ACCUM @@any += true;
  PRINT @@any;
}"#,
        COUNTING,
    );
    near_miss(
        "t003",
        "T003",
        r#"CREATE QUERY q () {
  MaxAccum @@best;
  S = SELECT p FROM Page:p ACCUM @@best += 3;
  PRINT @@best;
}"#,
        COUNTING,
    );
}

// ---- P001 unbounded Kleene under enumerative semantics ------------------

#[test]
fn p001_enumerative_kleene() {
    // Inline USE SEMANTICS → the query text itself opts into the
    // exponential strategy → Error severity.
    positive(
        "p001",
        "P001",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  USE SEMANTICS 'non_repeated_edge';
  R = SELECT t FROM Page:s -(Link>*)- Page:t ACCUM t.@cnt += 1;
  PRINT R[R.@cnt];
}"#,
        COUNTING,
    );
    {
        // Ambient (engine-default) enumerative semantics → Warn severity.
        let src = r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  R = SELECT t FROM Page:s -(Link>*)- Page:t ACCUM t.@cnt += 1;
  PRINT R[R.@cnt];
}"#;
        let q = parse_query(src).unwrap();
        let diags = lint_query(&q, PathSemantics::NonRepeatedEdge);
        let d = diags.iter().find(|d| d.code == "P001").expect("P001 under ambient semantics");
        assert_eq!(d.severity, Severity::Warn);
    }
    // Counting semantics: the same pattern is polynomial, no P001.
    near_miss(
        "p001",
        "P001",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  R = SELECT t FROM Page:s -(Link>*)- Page:t ACCUM t.@cnt += 1;
  PRINT R[R.@cnt];
}"#,
        COUNTING,
    );
}

// ---- P002 edge variable in Kleene scope ---------------------------------

#[test]
fn p002_edge_var_in_kleene() {
    positive(
        "p002",
        "P002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  S = SELECT t FROM Page:s -(Link>*1..2:e)- Page:t ACCUM @@n += 1;
  PRINT @@n;
}"#,
        COUNTING,
    );
    near_miss(
        "p002",
        "P002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  S = SELECT t FROM Page:s -(Link>:e)- Page:t ACCUM @@n += 1;
  PRINT @@n;
}"#,
        COUNTING,
    );
}

// ---- P003 multiplicity-sensitive accumulator under counting -------------

#[test]
fn p003_multiplicity_sensitive() {
    positive(
        "p003",
        "P003",
        r#"CREATE QUERY q () {
  ListAccum<int> @@paths;
  S = SELECT t FROM Page:s -(Link>*)- Page:t ACCUM @@paths += 1;
  PRINT @@paths;
}"#,
        COUNTING,
    );
    // SetAccum is multiplicity-insensitive: fine under counting.
    near_miss(
        "p003",
        "P003",
        r#"CREATE QUERY q () {
  SetAccum<int> @@seen;
  S = SELECT t FROM Page:s -(Link>*)- Page:t ACCUM @@seen += 1;
  PRINT @@seen;
}"#,
        COUNTING,
    );
}

/// A `USE SEMANTICS` in a THEN branch does not reach the ELSE branch:
/// there the block runs under the semantics before the IF (counting), so
/// the linter reports what the engine fails it for — P003, not P001.
#[test]
fn use_semantics_in_then_does_not_reach_else() {
    let src = r#"CREATE QUERY q (INT flag) {
  ListAccum<int> @@l;
  IF flag == 1 THEN
    USE SEMANTICS 'non_repeated_edge';
  ELSE
    S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@l += 1;
  END;
  PRINT @@l;
}"#;
    let q = parse_query(src).unwrap();
    let codes: Vec<&str> = lint_query(&q, COUNTING).iter().map(|d| d.code).collect();
    assert!(codes.contains(&"P003"), "{codes:?}");
    assert!(!codes.contains(&"P001"), "{codes:?}");
    // The engine agrees: at flag = 0 the block fails as
    // multiplicity-sensitive under counting.
    let (g, _) = pgraph::generators::diamond_chain(3);
    let err = gsql_core::Engine::new(&g)
        .run(&q, &[("flag", pgraph::value::Value::Int(0))])
        .unwrap_err();
    assert!(err.to_string().contains("multiplicity-sensitive"), "{err}");

    // After the IF, the THEN branch's USE SEMANTICS still holds when the
    // ELSE branch names none.
    let after = parse_query(
        r#"CREATE QUERY q (INT flag) {
  SumAccum<int> @cnt;
  IF flag == 1 THEN
    USE SEMANTICS 'non_repeated_edge';
  END;
  R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@cnt += 1;
  PRINT R[R.@cnt];
}"#,
    )
    .unwrap();
    assert!(lint_query(&after, COUNTING).iter().any(|d| d.code == "P001"));
}

#[test]
fn a_block_after_an_if_is_checked_under_every_semantics_it_can_run_in() {
    // At flag = 1 the block runs under the THEN branch's
    // non_repeated_edge (P001); at flag = 0 under the counting semantics
    // the query had before the IF (P003).
    let src = r#"CREATE QUERY q (INT flag) {
  ListAccum<int> @@l;
  IF flag == 1 THEN
    USE SEMANTICS 'non_repeated_edge';
  END;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@l += 1;
  PRINT @@l;
}"#;
    let q = parse_query(src).unwrap();
    let diags = lint_query(&q, COUNTING);
    let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"P001"), "{codes:?}");
    assert!(codes.contains(&"P003"), "{codes:?}");
    for (i, d) in diags.iter().enumerate() {
        assert!(!diags[..i].contains(d), "duplicate diagnostic {d:?}");
    }
    // The engine agrees: at flag = 0 the block fails as
    // multiplicity-sensitive under counting.
    let (g, _) = pgraph::generators::diamond_chain(3);
    let err = gsql_core::Engine::new(&g)
        .run(&q, &[("flag", pgraph::value::Value::Int(0))])
        .unwrap_err();
    assert!(err.to_string().contains("multiplicity-sensitive"), "{err}");

    // A loop body runs zero or more times: after a WHILE whose body
    // switches semantics, both the entry and the body's semantics hold.
    let looped = parse_query(
        r#"CREATE QUERY q (INT n) {
  ListAccum<int> @@l;
  SumAccum<int> @@i;
  WHILE @@i < n DO
    USE SEMANTICS 'non_repeated_edge';
    @@i += 1;
  END;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@l += 1;
  PRINT @@l;
}"#,
    )
    .unwrap();
    let codes: Vec<&str> = lint_query(&looped, COUNTING).iter().map(|d| d.code).collect();
    assert!(codes.contains(&"P001"), "{codes:?}");
    assert!(codes.contains(&"P003"), "{codes:?}");
}

/// Whether the linter reports P003 for `src` under counting semantics,
/// and whether the engine fails it as multiplicity-sensitive.
fn p003_and_engine(src: &str) -> (bool, bool) {
    let q = parse_query(src).unwrap();
    let linted = lint_query(&q, COUNTING).iter().any(|d| d.code == "P003");
    let (g, _) = pgraph::generators::diamond_chain(3);
    let failed = match gsql_core::Engine::new(&g).run(&q, &[]) {
        Ok(_) => false,
        Err(e) => {
            assert!(e.to_string().contains("multiplicity-sensitive"), "{e}");
            true
        }
    };
    (linted, failed)
}

/// P003 types a combine target by the declaration that reaches the
/// block, as the engine does: a later redeclaration does not reach back.
#[test]
fn p003_reads_the_declaration_before_the_block() {
    let list_then_sum = r#"CREATE QUERY q () {
  ListAccum<int> @@x;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
  PRINT @@x;
  SumAccum<int> @@x;
}"#;
    assert_eq!(p003_and_engine(list_then_sum), (true, true));
}

#[test]
fn p003_ignores_a_declaration_after_the_block() {
    let sum_then_list = r#"CREATE QUERY q () {
  SumAccum<int> @@x;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
  PRINT @@x;
  ListAccum<int> @@x;
}"#;
    assert_eq!(p003_and_engine(sum_then_list), (false, false));
}

/// A redeclaration at the end of a loop body reaches the block on the
/// next iteration, where the engine fails it.
#[test]
fn p003_reads_a_redeclaration_that_reaches_around_a_loop() {
    let looped = r#"CREATE QUERY q () {
  SumAccum<int> @@i;
  SumAccum<int> @@x;
  WHILE @@i < 2 DO
    S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@x += 1;
    @@i += 1;
    ListAccum<int> @@x;
  END;
  PRINT @@x;
}"#;
    assert_eq!(p003_and_engine(looped), (true, true));
}

/// Whether the linter reports an Error-severity T001 or A006 for `src`,
/// and the engine's error, if it fails, at parallelism `p`.
fn typing_and_engine(src: &str, p: usize) -> (bool, Option<String>) {
    let q = parse_query(src).unwrap();
    let (g, _) = pgraph::generators::diamond_chain(3);
    let engine = gsql_core::Engine::new(&g).with_parallelism(p).with_morsel_size(1);
    let linted = engine
        .check(&q)
        .iter()
        .any(|d| matches!(d.code, "T001" | "A006") && d.severity == Severity::Error);
    (linted, engine.run(&q, &[]).err().map(|e| e.to_string()))
}

/// An accumulator is typed by the declaration in force where it is used,
/// by the linter as by the engine: T001 and A006 report an error exactly
/// when the query fails, and a target no declaration reaches fails with
/// the same message at every parallelism.
#[test]
fn t001_and_a006_read_the_declaration_in_force() {
    let shapes: [(&str, &str, Option<&str>); 8] = [
        (
            "1. use in a block before the declaration",
            "S = SELECT t FROM V:s -(E>)- V:t ACCUM @@x += 1;
  PRINT @@x;
  SumAccum<int> @@x;",
            Some("runtime error: undeclared accumulator `@@x`"),
        ),
        (
            "2. PRINT before the declaration",
            "PRINT @@y;
  SumAccum<int> @@y;",
            Some("runtime error: undeclared accumulator `@@y`"),
        ),
        (
            "3. a redeclaration of another type after the use",
            "SumAccum<string> @@x;
  @@x += \"a\";
  PRINT @@x;
  SumAccum<int> @@x;",
            None,
        ),
        (
            "4. a redeclaration before the use",
            "SumAccum<string> @@x;
  SumAccum<int> @@x;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM @@x += \"a\";
  PRINT @@x;",
            Some("integer"),
        ),
        (
            "5. a declaration only in an IF branch",
            "IF 1 < 2 THEN
    SumAccum<string> @@x;
  END;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM @@x += \"a\";
  PRINT @@x;",
            None,
        ),
        (
            "6. a redeclaration at the end of a WHILE body",
            "SumAccum<int> @@i;
  SumAccum<int> @@x;
  WHILE @@i < 2 DO
    S = SELECT t FROM V:s -(E>)- V:t ACCUM @@x += 1;
    @@i += 1;
    SumAccum<string> @@x;
  END;
  PRINT @@x;",
            Some("string"),
        ),
        (
            "7. a nested initializer of the wrong type",
            "SumAccum<int> @@i;
  WHILE @@i < 1 DO
    SumAccum<int> @@z = \"s\";
    @@i += 1;
  END;
  PRINT @@i;",
            Some("accumulator expected integer input"),
        ),
        (
            "8. a string SumAccum redeclared as an int after its block",
            "SumAccum<string> @@x;
  S = SELECT t FROM V:s -(E>)- V:t WHERE s.name == \"v0\" ACCUM @@x += \"a\";
  PRINT @@x;
  SumAccum<int> @@x;",
            None,
        ),
    ];
    for (shape, body, failure) in shapes {
        let src = format!("CREATE QUERY q () {{\n  {body}\n}}");
        for p in [1, 4] {
            let (linted, failed) = typing_and_engine(&src, p);
            match (&failed, failure) {
                (Some(e), Some(want)) => assert!(e.contains(want), "{shape} (p={p}): {e}"),
                (None, None) => {}
                _ => panic!("{shape} (p={p}): engine gave {failed:?}, expected {failure:?}"),
            }
            assert_eq!(linted, failed.is_some(), "{shape} (p={p}): lint and engine disagree");
        }
    }
}

// ---- P004 bounded fan-out estimate under enumeration --------------------

#[test]
fn p004_fanout_estimate() {
    positive(
        "p004",
        "P004",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  USE SEMANTICS 'non_repeated_edge';
  S = SELECT t FROM Page:s -(Link>*1..3)- Page:t ACCUM t.@cnt += 1;
  PRINT S[S.@cnt];
}"#,
        COUNTING,
    );
    // Under counting semantics no estimate is emitted.
    near_miss(
        "p004",
        "P004",
        r#"CREATE QUERY q () {
  SumAccum<int> @cnt;
  S = SELECT t FROM Page:s -(Link>*1..3)- Page:t ACCUM t.@cnt += 1;
  PRINT S[S.@cnt];
}"#,
        COUNTING,
    );
}

// ---- H001 unused vertex set ---------------------------------------------

#[test]
fn h001_unused_vset() {
    positive(
        "h001",
        "H001",
        r#"CREATE QUERY q () {
  S = SELECT p FROM Page:p;
  PRINT 1;
}"#,
        COUNTING,
    );
    // A block with ACCUM side effects is not dead even if unused (ic5's
    // G-block idiom).
    near_miss(
        "h001",
        "H001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  S = SELECT p FROM Page:p ACCUM @@n += 1;
  PRINT @@n;
}"#,
        COUNTING,
    );
}

// ---- H002 shadowed names ------------------------------------------------

#[test]
fn h002_shadowed_binding() {
    positive(
        "h002",
        "H002",
        r#"CREATE QUERY q () {
  S = SELECT p FROM Page:p;
  T = SELECT S FROM Page:S WHERE S.rank > 0;
  PRINT T;
}"#,
        COUNTING,
    );
    // Binding variables shadowing *parameters* are idiomatic — not flagged.
    near_miss(
        "h002",
        "H002",
        r#"CREATE QUERY q (VERTEX p) {
  S = SELECT p FROM Person:p;
  PRINT S;
}"#,
        COUNTING,
    );
}

// ---- H003 constant-false WHERE ------------------------------------------

#[test]
fn h003_constant_false_where() {
    positive(
        "h003",
        "H003",
        r#"CREATE QUERY q () {
  S = SELECT p FROM Page:p WHERE 1 == 2;
  PRINT S;
}"#,
        COUNTING,
    );
    near_miss(
        "h003",
        "H003",
        r#"CREATE QUERY q () {
  S = SELECT p FROM Page:p WHERE p.rank == 2;
  PRINT S;
}"#,
        COUNTING,
    );
}

// ---- H004 loop-invariant WHILE ------------------------------------------

#[test]
fn h004_invariant_while() {
    positive(
        "h004",
        "H004",
        r#"CREATE QUERY q () {
  SumAccum<int> @@rounds;
  S = {Page.*};
  WHILE @@rounds < 10 DO
    S = SELECT p FROM S:p;
  END;
  PRINT S;
}"#,
        COUNTING,
    );
    // WCC's idiom: the body updates the condition's accumulator.
    near_miss(
        "h004",
        "H004",
        r#"CREATE QUERY q () {
  SumAccum<int> @@rounds;
  S = {Page.*};
  WHILE @@rounds < 10 DO
    S = SELECT p FROM S:p ACCUM @@rounds += 1;
  END;
  PRINT S;
}"#,
        COUNTING,
    );
}

// ---- M001 DELETE without WHERE -------------------------------------------

#[test]
fn m001_unfiltered_delete() {
    positive(
        "m001",
        "M001",
        r#"CREATE QUERY q () {
  DELETE FROM Page:p;
}"#,
        COUNTING,
    );
    near_miss(
        "m001",
        "M001",
        r#"CREATE QUERY q () {
  DELETE FROM Page:p WHERE p.rank == 0;
}"#,
        COUNTING,
    );
}

// ---- the paper's running examples stay clean ----------------------------

#[test]
fn paper_examples_check_clean() {
    use gsql_core::stdlib;
    for (name, src) in [
        ("pagerank", stdlib::pagerank("Page", "Link")),
        ("qn", stdlib::qn("Page", "Link")),
        ("ic5", ldbc_snb::queries::ic5(2)),
    ] {
        let q = parse_query(&src).unwrap();
        let diags = lint_query(&q, COUNTING);
        assert!(
            diags.is_empty(),
            "{name} must CHECK clean, got:\n{}",
            render_text(&diags, Some(&src))
        );
    }
    assert_golden("lint_clean_pagerank.txt", &lint_text(&stdlib::pagerank("Page", "Link"), COUNTING));
    assert_golden("lint_clean_qn.txt", &lint_text(&stdlib::qn("Page", "Link"), COUNTING));
    assert_golden("lint_clean_ic5.txt", &lint_text(&ldbc_snb::queries::ic5(2), COUNTING));
}

// ---- JSON rendering ------------------------------------------------------

#[test]
fn json_rendering_is_stable() {
    let src = r#"CREATE QUERY q () {
  SumAccum<int> @@cnt;
  S = SELECT p FROM Page:p ACCUM @@cnt += 1;
}"#;
    let q = parse_query(src).unwrap();
    let diags = lint_query(&q, COUNTING);
    assert_golden("lint_json_a001.json", &(render_json(&diags) + "\n"));
    // Structural sanity independent of the golden file.
    let json = render_json(&diags);
    assert!(json.starts_with("{\"diagnostics\":["));
    assert!(json.contains("\"code\":\"A001\""));
    assert!(json.contains("\"errors\":0"));
}

// ---- pass 6: abstract interpretation (D001-D004, docs/LINTS.md) ----------

#[test]
fn d001_unreachable_block() {
    // The interval analysis proves `@@k > 5` false from the assignment
    // `@@k = 3` — a non-literal proof H003 cannot see.
    positive(
        "d001",
        "D001",
        r#"CREATE QUERY q () {
  SumAccum<int> @@k;
  @@k = 3;
  S = SELECT p FROM Page:p WHERE @@k > 5;
  PRINT S;
}"#,
        COUNTING,
    );
    // A literal-false WHERE belongs to H003, not D001.
    near_miss(
        "d001",
        "D001",
        r#"CREATE QUERY q () {
  S = SELECT p FROM Page:p WHERE 1 == 2;
  PRINT S;
}"#,
        COUNTING,
    );
}

#[test]
fn d002_nonterminating_while() {
    positive(
        "d002",
        "D002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  WHILE @@n < 100 DO PRINT @@n; END;
}"#,
        COUNTING,
    );
    // The body updates the condition's accumulator: termination is
    // plausible, so no D002.
    near_miss(
        "d002",
        "D002",
        r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  WHILE @@n < 100 DO @@n += 1; END;
}"#,
        COUNTING,
    );
}

#[test]
fn d003_guaranteed_budget_trip() {
    use gsql_core::lint::budget_findings;
    use gsql_core::Budget;
    let src = r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  WHILE true LIMIT 100 DO @@n += 1; END;
  PRINT @@n;
}"#;
    let q = parse_query(src).unwrap();
    let (mut diags, facts) = gsql_core::lint::lint_query_and_facts(
        &q,
        COUNTING,
        &accum::UserAccumRegistry::new(),
    );
    diags.extend(budget_findings(&facts, &Budget::default().with_max_while_iters(10)));
    assert!(diags.iter().any(|d| d.code == "D003"), "expected D003 under a 10-iteration budget");
    assert_golden("lint_d003.txt", &(render_text(&diags, Some(src)) + "\n"));
    // A roomy budget produces no finding.
    assert!(budget_findings(&facts, &Budget::default().with_max_while_iters(1000)).is_empty());
}

#[test]
fn d004_merge_order_dependence() {
    positive(
        "d004",
        "D004",
        r#"CREATE QUERY q () {
  ListAccum<int> @@xs;
  S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM @@xs += 1;
  PRINT @@xs;
}"#,
        COUNTING,
    );
    near_miss(
        "d004",
        "D004",
        r#"CREATE QUERY q () {
  SumAccum<double> @@x;
  S = SELECT t FROM Page:s -(Link>)- Page:t ACCUM @@x += 0.5;
  PRINT @@x;
}"#,
        COUNTING,
    );
}

// ---- pass 6 facts JSON (schema documented in docs/LINTS.md) --------------

#[test]
fn facts_json_is_golden() {
    // One of everything: a decidable WHERE conjunct, an undecidable one,
    // a proven POST-ACCUM assign gate, a syntactically-exact ACCUM gate,
    // and a bounded WHILE — pinning the full `facts` schema the shell's
    // CHECK and the server's POST /lint emit.
    let src = r#"CREATE QUERY q () {
  SumAccum<int> @@n;
  MinAccum<int> @cc;
  S = SELECT p FROM Page:p WHERE 1 < 2 AND p.rank > 0
      ACCUM @@n += 1
      POST-ACCUM p.@cc = p.id();
  WHILE true LIMIT 3 DO PRINT 1; END;
  PRINT @@n;
}"#;
    let q = parse_query(src).unwrap();
    let (_, facts) = gsql_core::lint::lint_query_and_facts(
        &q,
        COUNTING,
        &accum::UserAccumRegistry::new(),
    );
    assert!(facts.blocks[0].post_accum_parallel, "assign gate should be proven");
    assert_golden("lint_facts.json", &(facts.render_json() + "\n"));
}
