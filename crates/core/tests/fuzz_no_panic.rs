//! Fuzz-style robustness property: no input, however malformed, may make
//! the lexer → parser → executor pipeline panic. Bad input must surface
//! as a structured `Err(_)` (or, rarely, parse by accident and run to a
//! normal result) — never as an unwind.
//!
//! Two generators feed the pipeline:
//! * arbitrary byte soup (lossily decoded to UTF-8), and
//! * valid stdlib queries with random mutations applied (truncation,
//!   deletion, splicing of metacharacters, byte swaps) — closer to the
//!   parser's "almost valid" attack surface than pure noise.
//!
//! Every run executes inside `catch_unwind` so a panic is reported as a
//! property failure with the offending input, and under a tight resource
//! budget so an accidentally-valid infinite loop cannot hang the suite.

use gsql_core::{stdlib, Budget, Engine};
use pgraph::generators::sales_graph;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs one source text through the full pipeline; returns the panic
/// payload message if it unwound.
fn pipeline_panics(source: &str) -> Option<String> {
    let g = sales_graph();
    let budget = Budget::default()
        .with_deadline(Duration::from_secs(2))
        .with_max_binding_rows(100_000)
        .with_max_paths(100_000)
        .with_max_accum_bytes(1 << 24)
        .with_max_while_iters(10_000);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // The static analyzer shares the no-panic contract with the
        // pipeline: any parser-accepted input must lint without
        // unwinding (the shell and server lint before every run).
        if let Ok(q) = gsql_core::parse_query(source) {
            let _ = gsql_core::lint_query(&q, gsql_core::PathSemantics::AllShortestPaths);
        }
        // Engine::run_text covers lex + parse + execute; its own
        // top-level catch_unwind converts executor panics into
        // WorkerPanic errors, which is exactly the no-panic contract.
        let _ = Engine::new(&g).with_budget(budget).run_text(source, &[]);
    }));
    outcome.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The seed corpus of valid queries to mutate.
fn corpus() -> Vec<String> {
    vec![
        stdlib::qn("V", "E"),
        stdlib::example4_sales().to_string(),
        stdlib::example5_multi_output().to_string(),
        stdlib::example6_topk_toys().to_string(),
        stdlib::pagerank("Person", "Knows"),
        stdlib::sssp("Person", "Knows"),
    ]
}

/// Characters the GSQL lexer treats as structure — spliced in to hit
/// tokenizer and parser edges.
const METACHARS: &[char] = &[
    '(', ')', '{', '}', '<', '>', '@', '#', '"', '\'', ';', ',', '.', '+', '-', '*', '/', '=',
    ':', '_', '\\', '\n', '\t', '\0', 'é', '🦀',
];

fn mutate(mut text: String, ops: &[(u8, usize, usize)]) -> String {
    for &(kind, a, b) in ops {
        if text.is_empty() {
            break;
        }
        // Snap arbitrary offsets to char boundaries.
        let clamp = |i: usize| {
            let mut i = i % (text.len() + 1);
            while !text.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let (i, j) = (clamp(a), clamp(b));
        let (lo, hi) = (i.min(j), i.max(j));
        match kind % 4 {
            // Truncate at an arbitrary boundary.
            0 => text.truncate(lo),
            // Delete a span.
            1 => text.replace_range(lo..hi, ""),
            // Splice a metacharacter.
            2 => text.insert(lo, METACHARS[b % METACHARS.len()]),
            // Duplicate a span (repeated tokens, unbalanced brackets).
            _ => {
                let span = text[lo..hi].to_string();
                text.insert_str(hi, &span);
            }
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let source = String::from_utf8_lossy(&bytes).into_owned();
        if let Some(msg) = pipeline_panics(&source) {
            prop_assert!(false, "pipeline panicked ({msg}) on bytes {bytes:?}");
        }
    }

    #[test]
    fn mutated_valid_queries_never_panic(
        which in 0usize..6,
        ops in prop::collection::vec((0u8..4, 0usize..4096, 0usize..4096), 1..8),
    ) {
        let source = mutate(corpus()[which].clone(), &ops);
        if let Some(msg) = pipeline_panics(&source) {
            prop_assert!(false, "pipeline panicked ({msg}) on mutated query:\n{source}");
        }
    }

    /// Differential oracle for the abstract interpreter (lint pass 6):
    /// whenever the analyzer proves a WHERE clause constant-false, the
    /// block must produce zero rows — and it must do so identically at
    /// parallelism 1 and 4 (the planner uses the proof to prune, the
    /// executor must agree regardless of schedule).
    #[test]
    fn proven_false_filters_yield_zero_rows_at_any_parallelism(
        a in -50i64..50,
        b in -50i64..50,
        op1 in 0usize..6,
        c in -50i64..50,
        d in -50i64..50,
        op2 in 0usize..6,
    ) {
        const OPS: [&str; 6] = ["<", "<=", "==", ">", ">=", "!="];
        let eval = |x: i64, y: i64, op: usize| match op {
            0 => x < y,
            1 => x <= y,
            2 => x == y,
            3 => x > y,
            4 => x >= y,
            _ => x != y,
        };
        let src = format!(
            "CREATE QUERY F () {{
               SumAccum<int> @@n;
               S = SELECT v FROM Customer:v
                   WHERE {a} {o1} {b} AND {c} {o2} {d}
                   ACCUM @@n += 1;
               PRINT @@n;
             }}",
            o1 = OPS[op1],
            o2 = OPS[op2],
        );
        let q = gsql_core::parse_query(&src).unwrap();
        let facts = gsql_core::lint::compute_facts(&q, &accum::UserAccumRegistry::new());
        let truth = eval(a, b, op1) && eval(c, d, op2);
        let proven = facts.blocks[0].where_const;
        // Constant comparisons must be decided, and decided correctly.
        prop_assert_eq!(proven, Some(truth), "facts disagree with ground truth:\n{}", src);
        if proven == Some(false) {
            let g = sales_graph();
            let customers = g.vertices_of_type(g.schema().vertex_type_id("Customer").unwrap()).len();
            for par in [1usize, 4] {
                let out = Engine::new(&g).with_parallelism(par).run_text(&src, &[]).unwrap();
                prop_assert_eq!(
                    &out.prints,
                    &vec!["@@n = 0".to_string()],
                    "proven-false filter leaked rows at parallelism {} (of {} candidates):\n{}",
                    par, customers, src
                );
            }
        }
    }
}

/// Hand-picked regression inputs that historically crash naive parsers:
/// unterminated strings, lone sigils, deep nesting, NUL bytes.
#[test]
fn pathological_inputs_never_panic() {
    let cases = [
        "",
        "\"",
        "\"unterminated",
        "@@",
        "@@;",
        "CREATE",
        "CREATE QUERY",
        "CREATE QUERY q() {",
        "CREATE QUERY q() { PRINT",
        "CREATE QUERY q() { PRINT 1 +; }",
        "CREATE QUERY q() { PRINT ((((((((((1)))))))))); }",
        "CREATE QUERY q() { S = SELECT v FROM ; }",
        "CREATE QUERY q() { WHILE DO END; }",
        "CREATE QUERY q() { SumAccum<> @@x; }",
        "\0\0\0",
        "CREATE QUERY q() { PRINT \0; }",
        "-- comment only",
        "CREATE QUERY q(INT n) { PRINT n(); }",
        // Accumulator/column name resolution paths that used to hide
        // bare `unwrap()`s (exec.rs name interning, eval.rs row/table
        // lookups) — all must surface as structured runtime errors.
        "CREATE QUERY q() { R = SELECT c FROM Customer:c ACCUM c.@undeclared += 1; }",
        "CREATE QUERY q() { R = SELECT c FROM Customer:c ACCUM @@ghost += 1; }",
        "CREATE QUERY q() { R = SELECT c FROM Customer:c POST_ACCUM c.@nope += 1; }",
        "CREATE QUERY q() { R = SELECT r FROM Orders:r WHERE r.nosuchcolumn == 1; }",
        "CREATE QUERY q() { R = SELECT c FROM Customer:c WHERE c.nosuchattr > 0; }",
        "CREATE QUERY q() { PRINT lonely.column; }",
        "CREATE QUERY q() { SumAccum<int> @@t; R = SELECT c FROM Customer:c ACCUM @@t += c.missing; }",
        // PR 3 audit: inputs aimed at the lexer's raw-byte token slicing
        // (`ascii_str`) and the typedef type/name destructuring — the
        // spots that held `unwrap()`/`unreachable!()` reachable from
        // untrusted `gsql-serve` request bodies.
        "CREATE QUERY q() { PRINT 1é2; }",
        "CREATE QUERY q() { PRINT é1; }",
        "CREATE QUERY q() { PRINT ident\u{0301}ifier; }",
        "CREATE QUERY q() { PRINT 🦀 + 1; }",
        "CREATE QUERY q() { PRINT 9e; }",
        "CREATE QUERY q() { PRINT 99999999999999999999999999; }",
        "CREATE QUERY q() { PRINT 1e999; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<SELECT x> T; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<INT INT> T; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<x y> T; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<WHILE score> T; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<> T; }",
        "CREATE QUERY q() { TYPEDEF TUPLE<INT a,> T; }",
        "POST_ACC\u{fe}UM",
        "post-acc",
        "CREATE QUERY q() { S = SELECT v FROM V:v POST-ACC; }",
    ];
    for source in cases {
        if let Some(msg) = pipeline_panics(source) {
            panic!("pipeline panicked ({msg}) on {source:?}");
        }
    }
}

// ---- WAL replayer robustness ---------------------------------------------
//
// The crash-recovery path shares the no-panic contract: a WAL file is
// untrusted input (torn tails, bit rot, truncation at any byte), so
// `decode_frames` must classify whatever it finds as a structured
// `FrameStop` — and replaying decodable-but-nonsensical ops through
// `apply_batch` must surface `GraphError`s, never unwind.

use pgraph::mutate::{apply_batch, MutationOp};
use pgraph::schema::VTypeId;
use pgraph::value::Value;
use pgraph::wal::{checkpoint_from_str, decode_frames, encode_frame, FrameStop};

/// Runs arbitrary bytes through the full recovery surface: frame
/// decoding, then batch application of whatever decoded, then checkpoint
/// parsing of the same bytes as text.
fn wal_recovery_panics(bytes: &[u8]) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (batches, good_end, stop) = decode_frames(bytes);
        assert!(good_end <= bytes.len());
        // A clean stop must consume the whole buffer or end exactly at
        // the last complete frame boundary.
        if matches!(stop, FrameStop::Eof) {
            assert_eq!(good_end, bytes.len());
        }
        let mut g = sales_graph();
        for b in batches {
            let _ = apply_batch(&mut g, &b.ops);
        }
        let _ = checkpoint_from_str(&String::from_utf8_lossy(bytes));
    }));
    outcome.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// A small valid WAL image to mutate: three frames of real ops.
fn valid_wal_image() -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&encode_frame(
        1,
        &[MutationOp::AddVertex {
            vtype: VTypeId(0),
            attrs: vec![Value::Str("erin".into())],
        }],
    ));
    buf.extend_from_slice(&encode_frame(
        2,
        &[
            MutationOp::SetVertexAttr { v: pgraph::graph::VertexId(0), attr: 0, value: Value::Int(7) },
            MutationOp::DeleteVertex { v: pgraph::graph::VertexId(1) },
        ],
    ));
    buf.extend_from_slice(&encode_frame(3, &[MutationOp::DeleteEdge { e: pgraph::graph::EdgeId(0) }]));
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wal_replay_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Some(msg) = wal_recovery_panics(&bytes) {
            prop_assert!(false, "WAL recovery panicked ({msg}) on bytes {bytes:?}");
        }
    }

    #[test]
    fn wal_replay_never_panics_on_mutated_framings(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..6),
        cut in 0usize..4096,
        splice in prop::collection::vec(any::<u8>(), 0..32),
        at in 0usize..4096,
    ) {
        // Start from a valid image and corrupt it the way real storage
        // fails: bit flips, truncation, and foreign bytes spliced in.
        let mut img = valid_wal_image();
        for &(pos, bit) in &flips {
            let len = img.len();
            if len > 0 {
                img[pos % len] ^= 1 << bit;
            }
        }
        img.truncate(cut.min(img.len()).max(1));
        let at = at % (img.len() + 1);
        img.splice(at..at, splice.iter().copied());
        if let Some(msg) = wal_recovery_panics(&img) {
            prop_assert!(false, "WAL recovery panicked ({msg}) on mutated image {img:?}");
        }
    }
}

/// Deterministic torn/corrupt framings every recovery must classify:
/// each one decodes to a prefix of good frames plus a structured stop —
/// never a panic, and never a claim of cleanliness for a damaged tail.
#[test]
fn torn_and_corrupt_framings_classify_cleanly() {
    let img = valid_wal_image();
    // Every truncation point of a valid image is a torn tail (or clean
    // at exact frame boundaries).
    for cut in 0..img.len() {
        let (batches, good_end, stop) = decode_frames(&img[..cut]);
        assert!(good_end <= cut);
        assert!(
            matches!(stop, FrameStop::Eof | FrameStop::TornTail),
            "cut at {cut}: unexpected stop {stop:?}"
        );
        assert!(batches.len() <= 3);
    }
    // A flipped payload byte in the last frame must be caught by CRC.
    let mut bad = img.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x40;
    let (batches, _, stop) = decode_frames(&bad);
    assert_eq!(batches.len(), 2, "first two frames still replay");
    assert!(matches!(stop, FrameStop::BadCrc), "got {stop:?}");
}
