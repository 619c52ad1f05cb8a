//! The Appendix B accumulators printed in full, and the boundaries of
//! the sequential ACCUM fold.
//!
//! * `tests/golden/appendix_b.txt` holds every group of `Q_acc`'s
//!   `@@perYear`, `@@gs2`, `@@gs3` and `Q_gs`'s `@@gs` on SNB sf 0.05 —
//!   heap contents and tie order included, not just `.size()` — and must
//!   be byte-identical at parallelism {1, 4} × morsel size {1, 1024}.
//! * A clause that reads an accumulator it also writes still sees the
//!   pre-clause value (snapshot semantics), at parallelism 1 and 4; a
//!   sequential clause that does not applies in place, on the caller's
//!   thread, while one that does keeps the dispatched, buffered Map.
//! * An accumulator memory-budget trip inside ACCUM fails with the same
//!   error at parallelism 1 and 4.
//! * `tests/golden/peak_accum_bytes.txt` pins `ResourceReport::
//!   peak_accum_bytes` of every stdlib, paper and LDBC query, so the
//!   engine's accumulator accounting cannot drift.
//!
//! Regenerate after an intentional change with
//! `GSQL_BLESS=1 cargo test -p bench --test appendix_b_golden`.

use gsql_core::{stdlib, Budget, Engine, ErrorKind, Table};
use ldbc_snb::{generate, queries, SnbParams};
use pgraph::datetime::to_epoch;
use pgraph::generators::{barabasi_albert, diamond_chain, linkedin_graph, sales_graph};
use pgraph::graph::{Graph, GraphBuilder, VertexId};
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

/// Splits one `PRINT` line (`label = {k -> v, ...}`) into one line per
/// top-level collection entry, so a golden diff names the group.
fn entry_lines(print: &str, out: &mut String) {
    let mut depth = 0usize;
    let mut start = 0usize;
    let bytes = print.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 1 && bytes.get(i + 1) == Some(&b' ') => {
                out.push_str(&print[start..=i]);
                out.push('\n');
                start = i + 2;
            }
            _ => {}
        }
    }
    out.push_str(&print[start..]);
    out.push('\n');
}

/// `Q_acc` and `Q_gs` with their `.size()` prints replaced by the
/// accumulators themselves.
fn appendix_b_full() -> [(&'static str, String); 2] {
    let q_acc = queries::q_acc().replace(
        "PRINT @@perYear.size(), @@gs2.size(), @@gs3.size();",
        "PRINT @@perYear; PRINT @@gs2; PRINT @@gs3;",
    );
    let q_gs = queries::q_gs().replace("PRINT @@gs.size();", "PRINT @@gs;");
    assert!(q_acc.contains("PRINT @@perYear;") && q_gs.contains("PRINT @@gs;"));
    [("q_acc", q_acc), ("q_gs", q_gs)]
}

fn render_appendix_b(g: &Graph, parallelism: usize, morsel: usize) -> String {
    let engine = Engine::new(g).with_parallelism(parallelism).with_morsel_size(morsel);
    let mut out = String::new();
    for (name, src) in appendix_b_full() {
        let res = engine
            .run_text(&src, &[])
            .unwrap_or_else(|e| panic!("{name} parallelism={parallelism} morsel={morsel}: {e}"));
        for p in &res.prints {
            out.push_str(&format!("## {name}\n"));
            entry_lines(p, &mut out);
        }
    }
    out
}

#[test]
fn appendix_b_contents_are_golden_at_any_parallelism_and_morsel_size() {
    let g = generate(SnbParams::new(0.05, 2024));
    let reference = render_appendix_b(&g, 1, 1024);
    check_golden("appendix_b.txt", &reference);
    for (par, morsel) in [(1usize, 1usize), (4, 1), (4, 1024)] {
        let out = render_appendix_b(&g, par, morsel);
        assert!(out == reference, "parallelism={par} morsel={morsel}: Appendix B contents diverged");
    }
}

#[test]
fn a_clause_reading_its_own_target_sees_the_pre_clause_value() {
    // ~2k binding rows, enough to run on dispatch workers at
    // parallelism 4. Every read of an accumulator the same clause writes
    // sees its value from before the clause, whichever way the fold
    // runs: float sums and lists fold sequentially in place, integer sums
    // by partials. Expected values are computed by hand from the row
    // count and the vertex count.
    let g = barabasi_albert(400, 5, 3);
    let float_sums = r#"
        CREATE QUERY OwnTarget () {
          SumAccum<float> @@a = 5;
          SumAccum<float> @@b;
          SumAccum<float> @a = 2;
          SumAccum<float> @b;
          SumAccum<int> @@rows;
          R = SELECT t FROM V:s -(E>)- V:t
              ACCUM @@a += 1, @@b += @@a, @@rows += 1,
                    t.@a += 1, t.@b += t.@a;
          SumAccum<float> @@bsum;
          S = SELECT t FROM R:t POST_ACCUM @@bsum += t.@b;
          PRINT @@rows, @@a, @@b, @@bsum;
        }
    "#;
    let exact_merge = r#"
        CREATE QUERY OwnTargetExact () {
          SumAccum<int> @@n = 3;
          SumAccum<int> @@m;
          SumAccum<int> @@rows;
          R = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1, @@m += @@n, @@rows += 1;
          PRINT @@rows, @@n, @@m;
        }
    "#;
    let list_size = r#"
        CREATE QUERY OwnTargetSize () {
          ListAccum<int> @@xs;
          SumAccum<int> @@sizes;
          SumAccum<int> @@rows;
          A = SELECT v FROM V:v ACCUM @@xs += 7;
          R = SELECT t FROM V:s -(E>)- V:t
              ACCUM @@rows += 1, @@xs += @@xs.size(), @@sizes += @@xs.size();
          PRINT @@rows, @@xs.size(), @@sizes;
        }
    "#;
    let in_a_loop = r#"
        CREATE QUERY OwnTargetLoop () {
          SumAccum<float> @@w;
          SumAccum<float> @@x;
          SumAccum<int> @@rows;
          SumAccum<int> @@i;
          WHILE @@i < 3 LIMIT 3 DO
            R = SELECT t FROM V:s -(E>)- V:t ACCUM @@w += 1, @@x += @@w, @@rows += 1;
            @@i += 1;
          END;
          PRINT @@rows, @@w, @@x;
        }
    "#;
    let rows_of = |prints: &[String]| match prints[0].split_once(" = ") {
        Some((_, n)) => n.parse::<i64>().unwrap(),
        None => panic!("unexpected print {prints:?}"),
    };
    let reference = Engine::new(&g).run_text(float_sums, &[]).unwrap();
    let rows = rows_of(&reference.prints);
    assert!(rows > 1_000, "too few rows ({rows}) to exercise the parallel Map");
    let vertices = 400;
    let cases: [(&str, Vec<String>); 4] = [
        (
            float_sums,
            vec![
                format!("@@rows = {rows}"),
                format!("@@a = {}.0", 5 + rows),
                format!("@@b = {}.0", 5 * rows),
                format!("@@bsum = {}.0", 2 * rows),
            ],
        ),
        (
            exact_merge,
            vec![format!("@@rows = {rows}"), format!("@@n = {}", 3 + rows), format!("@@m = {}", 3 * rows)],
        ),
        (
            list_size,
            vec![
                format!("@@rows = {rows}"),
                format!("@@xs.size() = {}", vertices + rows),
                format!("@@sizes = {}", vertices * rows),
            ],
        ),
        (
            // Iteration k reads `@@w = k * rows` on every row: the
            // snapshot is taken again each time the block runs.
            in_a_loop,
            vec![
                format!("@@rows = {}", 3 * rows),
                format!("@@w = {}.0", 3 * rows),
                format!("@@x = {}.0", 3 * rows * rows),
            ],
        ),
    ];
    for (src, expected) in &cases {
        for (par, morsel) in [(1usize, 1usize), (1, 1024), (4, 1), (4, 1024)] {
            let engine = Engine::new(&g).with_parallelism(par).with_morsel_size(morsel);
            let out = engine.run_text(src, &[]).unwrap();
            assert_eq!(&out.prints, expected, "parallelism={par} morsel={morsel}: {src}");
        }
    }
}

/// The `workers` of every ACCUM node of a profiled run.
fn accum_workers(engine: &Engine, src: &str) -> Vec<Vec<u64>> {
    let q = gsql_core::parse_query(src).unwrap();
    let (_, profile) = engine.run_profiled(&q, &[]).unwrap();
    let mut out = Vec::new();
    profile.root.visit(&mut |n: &gsql_core::ProfileNode| {
        if n.op == "accum" {
            out.push(n.workers.clone());
        }
    });
    out
}

#[test]
fn a_sequential_fold_applies_in_place_whether_or_not_it_reads_its_targets() {
    // At parallelism 4 over thousands of rows, a float-sum clause (a
    // sequential fold) runs every morsel on the caller's thread, whether
    // or not it reads what it writes: its reads of its own targets bind
    // to the block-start snapshot, so no Map needs to run ahead of the
    // writes.
    let snb = generate(SnbParams::new(0.05, 2024));
    let engine = Engine::new(&snb).with_parallelism(4).with_morsel_size(64);
    let clause = |accum: &str| {
        format!(
            "CREATE QUERY Fold () {{ SumAccum<float> @@a, @@b; \
             S = SELECT m FROM Message:m ACCUM {accum}; PRINT @@a, @@b; }}"
        )
    };
    for accum in ["@@a += 1, @@b += 2", "@@a += 1, @@b += @@a"] {
        let workers = accum_workers(&engine, &clause(accum));
        assert!(workers.len() == 1 && workers[0].len() == 1, "{accum}: not applied in place: {workers:?}");
    }
}

#[test]
fn an_accum_memory_trip_fails_alike_at_any_parallelism() {
    // One clause whose writes are never read and one that reads its own
    // target (from the block-start snapshot); both grow a ListAccum past
    // the budget inside ACCUM.
    let g = barabasi_albert(400, 5, 3);
    let writes_only = r#"
        CREATE QUERY Grow () {
          ListAccum<int> @@xs;
          R = SELECT t FROM V:s -(E>)- V:t ACCUM @@xs += t.id();
          PRINT @@xs.size();
        }
    "#;
    let reads_target = r#"
        CREATE QUERY GrowRead () {
          ListAccum<int> @@xs;
          R = SELECT t FROM V:s -(E>)- V:t ACCUM @@xs += @@xs.size();
          PRINT @@xs.size();
        }
    "#;
    for src in [writes_only, reads_target] {
        let run = |par: usize| {
            Engine::new(&g)
                .with_parallelism(par)
                .with_budget(Budget { max_accum_bytes: Some(16 << 10), ..Budget::default() })
                .run_text(src, &[])
                .unwrap_err()
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.kind(), ErrorKind::MemoryLimit, "{seq}");
        assert_eq!(par.kind(), seq.kind());
        assert_eq!(par.to_string(), seq.to_string());
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

#[test]
fn peak_accum_bytes_are_golden() {
    let mut out = String::new();
    let mut record = |name: &str, engine: &Engine, src: &str, args: &[(&str, Value)]| {
        let res = engine.run_text(src, args).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&format!("{name} {}\n", res.report.peak_accum_bytes));
    };

    // The stdlib on small V/E graphs.
    let ba = barabasi_albert(300, 3, 17);
    let eng = Engine::new(&ba);
    let v0 = Value::Vertex(ba.vertices().next().unwrap());
    let v1 = Value::Vertex(ba.vertices().nth(1).unwrap());
    record(
        "stdlib::pagerank",
        &eng,
        &stdlib::pagerank("V", "E"),
        &[
            ("maxChange", Value::Double(1e-6)),
            ("maxIteration", Value::Int(20)),
            ("dampingFactor", Value::Double(0.85)),
        ],
    );
    record("stdlib::wcc", &eng, &stdlib::wcc("V", "E"), &[]);
    record("stdlib::sssp", &eng, &stdlib::sssp("V", "E"), &[("src", v0.clone())]);
    record("stdlib::triangle_count", &eng, &stdlib::triangle_count("V", "E"), &[]);
    record("stdlib::khop", &eng, &stdlib::khop("V", "E", 3), &[("src", v0.clone())]);
    record(
        "stdlib::label_propagation",
        &eng,
        &stdlib::label_propagation("V", "E"),
        &[("maxIter", Value::Int(10))],
    );
    record(
        "stdlib::common_neighbors",
        &eng,
        &stdlib::common_neighbors("V", "E"),
        &[("a", v0), ("b", v1)],
    );
    let ring: Vec<(usize, usize)> =
        (0..12).flat_map(|i| [(i, (i + 1) % 12), (i, (i + 5) % 12)]).collect();
    let (wg, wv) = weighted_graph(&ring, 12);
    record(
        "stdlib::weighted_sssp",
        &Engine::new(&wg),
        &stdlib::weighted_sssp("V", "E", "w"),
        &[("src", Value::Vertex(wv[0]))],
    );
    let (dg, _) = diamond_chain(12);
    record(
        "stdlib::qn",
        &Engine::new(&dg),
        &stdlib::qn("V", "E"),
        &[("srcName", Value::from("v0")), ("tgtName", Value::from("v12"))],
    );

    // The paper's examples.
    let sales = sales_graph();
    let eng = Engine::new(&sales);
    record("paper::example4_sales", &eng, stdlib::example4_sales(), &[]);
    record("paper::example5_multi_output", &eng, stdlib::example5_multi_output(), &[]);
    let ct = sales.schema().vertex_type_id("Customer").unwrap();
    let alice = Value::Vertex(sales.vertices_of_type(ct)[0]);
    record(
        "paper::example6_topk_toys",
        &eng,
        stdlib::example6_topk_toys(),
        &[("c", alice), ("k", Value::Int(3))],
    );
    record(
        "paper::example12_accum_style",
        &eng,
        r#"
        CREATE QUERY AccumStyle () {
          GroupByAccum<string k, SumAccum<float> s, MinAccum m, AvgAccum a> @@g;
          S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
              ACCUM @@g += (p.category -> b.quantity, p.list_price, b.discount);
          PRINT @@g;
        }
        "#,
        &[],
    );
    let li = linkedin_graph();
    let employees = Table::from_rows(
        "Employee",
        &["name", "email"],
        vec![
            vec![Value::from("ann"), Value::from("ann@acme.com")],
            vec![Value::from("ben"), Value::from("ben@acme.com")],
        ],
    );
    record(
        "paper::example1_join",
        &Engine::new(&li).with_table(employees),
        stdlib::example1_join(),
        &[],
    );

    // A vertex string accumulator whose initializer (a concatenation)
    // leaves spare capacity in the prototype: each cell is charged as the
    // clone it is, not as the prototype.
    record(
        "accum::vertex_string_concat_init",
        &Engine::new(&ba),
        r#"
        CREATE QUERY StrInit () {
          SumAccum<string> @tag = "lab" + "el";
          S = SELECT v FROM V:v ACCUM v.@tag += "!";
          PRINT S.size();
        }
        "#,
        &[],
    );

    // The LDBC query set on SNB sf 0.05.
    let snb = generate(SnbParams::new(0.05, 2024));
    let eng = Engine::new(&snb);
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
            record(&format!("ldbc::{name}({hops})"), &eng, &src, &args);
        }
    }
    record("ldbc::q_acc", &eng, &queries::q_acc(), &[]);
    record("ldbc::q_gs", &eng, &queries::q_gs(), &[]);
    for (name, src) in [("is1", queries::is1()), ("is2", queries::is2()), ("is3", queries::is3())] {
        record(&format!("ldbc::{name}"), &eng, &src, &[("p", person(1))]);
    }
    for (name, src) in [("is5", queries::is5()), ("is7", queries::is7())] {
        record(&format!("ldbc::{name}"), &eng, &src, &[("m", message.clone())]);
    }
    check_golden("peak_accum_bytes.txt", &out);
}
