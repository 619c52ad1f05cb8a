//! Hazards of evaluating bound expressions with per-row value numbering,
//! pinned against `tests/golden/bound_eval.txt` (outputs and errors)
//! and byte-identical at parallelism {1, 4} × morsel size {1, 1024}.
//!
//! Each case targets one way a binder or a shared register could change
//! an answer:
//!
//! * a POST_ACCUM that reads a vertex and a global accumulator after
//!   writing it in the same item (a register must not outlive the write);
//! * an ACCUM local shadowing a FROM variable and a parameter (name
//!   precedence: ACCUM local > row > local > parameter > vertex set, and
//!   `v.attr` / `v.@a` / `v.id()` never see ACCUM locals);
//! * a repeated subexpression that errors only inside an untaken CASE
//!   branch or behind a false `AND` (registers are never computed
//!   speculatively), and the same subexpression erroring on first use;
//! * an unknown identifier in an untaken branch (binding never fails);
//! * one attribute name at different indices on two vertex types bound
//!   to one wildcard variable;
//! * `outdegree` with non-literal arguments;
//! * a FOREACH local and a WHILE-updated global read inside a block
//!   (bound once per block execution, not once per query);
//! * grouped SELECT (the same expression as a group key and inside an
//!   aggregate), a vertex-set projection and an UPDATE.
//!
//! Regenerate after an intentional change with
//! `GSQL_BLESS=1 cargo test -p bench --test bound_eval`.

use gsql_core::Engine;
use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::schema::{AttrDef, Schema};
use pgraph::value::{Value, ValueType};
use std::path::PathBuf;

/// Two vertex types that both carry `x` and `name`, at different
/// positions, plus an `et` attribute naming an edge type; two edge types.
fn graph() -> Graph {
    let mut s = Schema::new();
    s.add_vertex_type(
        "A",
        vec![
            AttrDef::new("name", ValueType::Str),
            AttrDef::new("x", ValueType::Int),
            AttrDef::new("et", ValueType::Str),
        ],
    )
    .unwrap();
    s.add_vertex_type(
        "B",
        vec![
            AttrDef::new("w", ValueType::Int),
            AttrDef::new("et", ValueType::Str),
            AttrDef::new("x", ValueType::Int),
            AttrDef::new("name", ValueType::Str),
        ],
    )
    .unwrap();
    s.add_edge_type("E", true, vec![]).unwrap();
    s.add_edge_type("F", true, vec![]).unwrap();
    let mut b = GraphBuilder::new(s);
    let a = |b: &mut GraphBuilder, name: &str, x: i64, et: &str| {
        b.vertex("A", &[("name", Value::from(name)), ("x", Value::Int(x)), ("et", Value::from(et))])
            .unwrap()
    };
    let bv = |b: &mut GraphBuilder, name: &str, x: i64, w: i64, et: &str| {
        b.vertex(
            "B",
            &[
                ("name", Value::from(name)),
                ("x", Value::Int(x)),
                ("w", Value::Int(w)),
                ("et", Value::from(et)),
            ],
        )
        .unwrap()
    };
    let a0 = a(&mut b, "a0", 1, "E");
    let b0 = bv(&mut b, "b0", 3, 70, "E");
    let a1 = a(&mut b, "a1", 2, "F");
    let b1 = bv(&mut b, "b1", 4, 80, "F");
    let edges: [(&str, VertexId, VertexId); 9] = [
        ("E", a0, a1),
        ("E", a0, b0),
        ("E", a1, b1),
        ("E", b0, a0),
        ("E", b1, a1),
        ("E", a0, b1),
        ("F", a1, b0),
        ("F", b1, b0),
        ("F", b0, a1),
    ];
    for (et, s, t) in edges {
        b.edge(et, s, t, &[]).unwrap();
    }
    b.build()
}

type Case = (&'static str, &'static str, Vec<(&'static str, Value)>);

fn cases() -> Vec<Case> {
    vec![
        (
            "post_accum_reads_after_write",
            r#"
            CREATE QUERY PostLive () {
              SumAccum<int> @score = 1;
              SumAccum<int> @@total;
              ListAccum<int> @@seen;
              S = SELECT v FROM _:v
                  POST_ACCUM v.@score = v.@score * 2 + v.x,
                             @@seen += abs(v.@score - v.@score'),
                             @@total += v.@score,
                             @@seen += @@total,
                             @@total += v.@score,
                             @@seen += @@total;
              PRINT @@total;
              PRINT @@seen;
              PRINT S[S.@score, S.x];
            }
            "#,
            vec![],
        ),
        (
            "accum_reads_own_target",
            r#"
            CREATE QUERY OwnTarget () {
              SumAccum<int> @c;
              ListAccum<int> @@l;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM t.@c += t.x, @@l += t.@c, t.@c += t.x, @@l += t.@c * 10;
              PRINT @@l;
              PRINT S[S.@c];
            }
            "#,
            vec![],
        ),
        (
            "accum_local_shadows_row_and_param",
            r#"
            CREATE QUERY Shadow (int k, vertex p) {
              ListAccum<int> @@l;
              S = SELECT t FROM A:s -(E>)- _:t
                  ACCUM @@l += k,
                        int k = t.x * 10,
                        @@l += k + p.x,
                        int s = 5,
                        @@l += s + s.x,
                        int p = 7,
                        @@l += p * 100 + p.x,
                        int t = 9,
                        @@l += t + t.x + t.id(),
                        int k = k + 1,
                        @@l += k;
              PRINT @@l;
            }
            "#,
            vec![("k", Value::Int(3)), ("p", Value::Vertex(VertexId(1)))],
        ),
        (
            "error_only_in_untaken_branch",
            r#"
            CREATE QUERY Untaken () {
              SumAccum<int> @@a;
              SumAccum<int> @@b;
              SumAccum<int> @@c;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM @@a += CASE WHEN t.x > 100 THEN 10 / (t.x - t.x) ELSE t.x END,
                        @@b += CASE WHEN t.x < 0 AND 10 / (t.x - t.x) > 0 THEN 1 ELSE 2 END,
                        @@c += CASE WHEN false THEN nosuch + 1 ELSE t.x END,
                        @@c += CASE WHEN t.x > 100 THEN 10 / (t.x - t.x) ELSE 0 END,
                        @@b += CASE WHEN t.x > 100 OR s.x > 0 THEN 1 ELSE 10 / (t.x - t.x) END;
              PRINT @@a;
              PRINT @@b;
              PRINT @@c;
            }
            "#,
            vec![],
        ),
        (
            "error_on_first_use",
            r#"
            CREATE QUERY FirstUse () {
              SumAccum<int> @@a;
              SumAccum<int> @@b;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM @@a += t.x, @@b += 10 / (s.x - s.x), @@a += 10 / (s.x - s.x);
              PRINT @@a;
            }
            "#,
            vec![],
        ),
        (
            "type_error_on_first_use",
            r#"
            CREATE QUERY TypeFirst () {
              SumAccum<int> @@a;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM @@a += t.x, @@a += t.name * 2, @@a += t.name * 2;
              PRINT @@a;
            }
            "#,
            vec![],
        ),
        (
            "unknown_identifier_taken",
            r#"
            CREATE QUERY Unknown () {
              SumAccum<int> @@a;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM @@a += CASE WHEN t.x > 2 THEN nosuch ELSE 1 END;
              PRINT @@a;
            }
            "#,
            vec![],
        ),
        (
            "wildcard_attribute_indices",
            r#"
            CREATE QUERY Wild () {
              ListAccum<STRING> @@names;
              ListAccum<int> @@xs;
              S = SELECT t FROM _:s -(E>)- _:t
                  ACCUM @@names += t.name + "/" + s.name,
                        @@xs += t.x * 10 + s.x,
                        @@xs += CASE WHEN t.type() == "B" THEN t.w ELSE -1 END;
              PRINT @@names;
              PRINT @@xs;
            }
            "#,
            vec![],
        ),
        (
            "outdegree_non_literal",
            r#"
            CREATE QUERY Degrees (string et) {
              ListAccum<int> @@l;
              S = SELECT v FROM _:v
                  ACCUM @@l += (v.outdegree(v.et), v.outdegree(et), v.indegree(v.et),
                                v.outdegree("E"), v.outdegree(), v.degree());
              PRINT @@l;
            }
            "#,
            vec![("et", Value::from("F"))],
        ),
        (
            "outdegree_unknown_edge_type",
            r#"
            CREATE QUERY BadDegree () {
              SumAccum<int> @@n;
              S = SELECT v FROM _:v ACCUM @@n += v.outdegree(v.name);
              PRINT @@n;
            }
            "#,
            vec![],
        ),
        (
            "foreach_local_and_while_global",
            r#"
            CREATE QUERY Loops () {
              SumAccum<int> @@i;
              ListAccum<int> @@trace;
              SetAccum<int> @@ks;
              @@ks += 1;
              @@ks += 2;
              WHILE @@i < 3 DO
                S = SELECT v FROM A:v
                    WHERE v.x + @@i > 1
                    ACCUM @@trace += @@i * 100 + v.x;
                @@i += 1;
              END;
              FOREACH k IN @@ks DO
                T = SELECT v FROM B:v
                    WHERE v.x > k
                    ACCUM @@trace += k * 1000 + v.x;
              END;
              PRINT @@trace;
            }
            "#,
            vec![],
        ),
        (
            "grouped_select",
            r#"
            CREATE QUERY Grouped () {
              SELECT t.type() AS ty, count(*) AS n, sum(t.x) AS sx, max(t.x + s.x) AS m INTO G
              FROM _:s -(E>)- _:t
              GROUP BY t.type()
              HAVING count(*) > 1
              ORDER BY sum(t.x) DESC;
              SELECT s.name AS src, t.x * 2 AS tx INTO P
              FROM _:s -(E>)- _:t
              WHERE t.x + s.x > 2
              ORDER BY t.x * 2 DESC, s.name
              LIMIT 4;
            }
            "#,
            vec![],
        ),
        (
            "update_where",
            r#"
            CREATE QUERY Bump (int d) {
              UPDATE A:v SET v.x = v.x + d WHERE v.x + d > 2;
            }
            "#,
            vec![("d", Value::Int(1))],
        ),
    ]
}

/// Prints, tables and mutations of one run, or its error kind and text.
fn render_all<'g>(g: &'g Graph, configure: impl Fn(Engine<'g>) -> Engine<'g>) -> String {
    let engine = configure(Engine::new(g));
    let mut s = String::new();
    for (name, src, args) in cases() {
        s.push_str(&format!("## {name}\n"));
        match engine.run_text(src, &args) {
            Ok(out) => {
                for p in &out.prints {
                    s.push_str(p);
                    s.push('\n');
                }
                for t in out.tables.values() {
                    s.push_str(&t.to_string());
                    s.push('\n');
                }
                for m in &out.mutations {
                    s.push_str(&format!("{m:?}\n"));
                }
            }
            Err(e) => s.push_str(&format!("error {:?}: {e}\n", e.kind())),
        }
    }
    s
}

#[test]
fn bound_evaluation_hazards_are_golden_at_any_parallelism_and_morsel_size() {
    let g = graph();
    let reference = render_all(&g, |e| e.with_parallelism(1).with_morsel_size(1024));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bound_eval.txt");
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::write(&path, &reference).unwrap();
    } else {
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display())
        });
        assert_eq!(reference, expected, "bound evaluation changed an answer or an error");
    }
    for par in [1usize, 4] {
        for morsel in [1usize, 1024] {
            let out = render_all(&g, |e| e.with_parallelism(par).with_morsel_size(morsel));
            assert!(out == reference, "parallelism={par} morsel={morsel}: output diverged");
        }
    }
}
