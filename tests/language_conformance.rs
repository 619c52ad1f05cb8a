//! Language-conformance suite: every clause and accumulator type the
//! engine supports, exercised end-to-end with hand-checkable answers on
//! the fixed SalesGraph / LinkedIn fixtures.

use gsql_core::exec::ReturnValue;
use gsql_core::{Engine, Error, Table};
use pgraph::generators::{sales_graph, ve_schema};
use pgraph::graph::GraphBuilder;
use pgraph::value::Value;

fn run(src: &str) -> gsql_core::QueryOutput {
    let g = sales_graph();
    Engine::new(&g).run_text(src, &[]).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn run_args(src: &str, args: &[(&str, Value)]) -> gsql_core::QueryOutput {
    let g = sales_graph();
    Engine::new(&g).run_text(src, args).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

#[test]
fn group_by_having_order_limit() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT p.category AS cat, count(*) AS cnt, sum(b.quantity) AS q INTO T
          FROM  Customer:c -(Bought>:b)- Product:p
          GROUP BY p.category
          HAVING count(*) >= 2
          ORDER BY sum(b.quantity) DESC
          LIMIT 2;
        }
    "#);
    // toys: 4 purchases, qty 2+1+1+4=8; books: 2 purchases, qty 3+1=4.
    let t = out.table("T").unwrap();
    assert_eq!(
        t.rows,
        vec![
            vec![Value::from("toy"), Value::Int(4), Value::Double(8.0)],
            vec![Value::from("book"), Value::Int(2), Value::Double(4.0)],
        ]
    );
}

#[test]
fn grouping_sets_produce_null_padded_union() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT p.category AS cat, c.name AS cust, count(*) AS cnt INTO T
          FROM  Customer:c -(Bought>)- Product:p
          GROUP BY GROUPING SETS ((p.category), (c.name), ());
        }
    "#);
    let t = out.table("T").unwrap();
    // 2 category groups + 4 customer groups + 1 grand total.
    assert_eq!(t.rows.len(), 7);
    let grand: Vec<_> = t
        .rows
        .iter()
        .filter(|r| r[0] == Value::Null && r[1] == Value::Null)
        .collect();
    assert_eq!(grand, vec![&vec![Value::Null, Value::Null, Value::Int(6)]]);
    let toy = t
        .rows
        .iter()
        .find(|r| r[0] == Value::from("toy"))
        .unwrap();
    assert_eq!(toy[2], Value::Int(4));
}

#[test]
fn cube_has_all_subsets() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT p.category AS cat, c.name AS cust, count(*) AS cnt INTO T
          FROM  Customer:c -(Bought>)- Product:p
          GROUP BY CUBE (p.category, c.name);
        }
    "#);
    // (): 1, (cat): 2, (cust): 4, (cat,cust): 5 distinct pairs
    // (alice-toy, bob-toy, bob-book, carol-toy, dave-book).
    assert_eq!(out.table("T").unwrap().rows.len(), 1 + 2 + 4 + 5);
}

#[test]
fn avg_min_max_aggregates() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT avg(p.list_price) AS a, min(p.list_price) AS lo, max(p.list_price) AS hi INTO T
          FROM Product:p;
        }
    "#);
    let t = out.table("T").unwrap();
    assert_eq!(
        t.rows,
        vec![vec![Value::Double(75.0 / 4.0), Value::Double(10.0), Value::Double(30.0)]]
    );
}

#[test]
fn while_loop_with_limit_and_if() {
    let out = run(r#"
        CREATE QUERY G () {
          SumAccum<int> @@i, @@evens;
          WHILE true LIMIT 10 DO
            @@i += 1;
            IF @@i % 2 == 0 THEN @@evens += 1; END;
          END;
          PRINT @@i, @@evens;
        }
    "#);
    assert_eq!(out.prints, vec!["@@i = 10".to_string(), "@@evens = 5".to_string()]);
}

#[test]
fn foreach_over_collections() {
    let out = run(r#"
        CREATE QUERY G () {
          ListAccum<int> @@xs;
          SumAccum<int> @@sum;
          @@xs += 3; @@xs += 4; @@xs += 5;
          FOREACH x IN @@xs DO @@sum += x; END;
          PRINT @@sum;
        }
    "#);
    assert_eq!(out.prints, vec!["@@sum = 12".to_string()]);
}

#[test]
fn set_bag_list_map_accums() {
    let out = run(r#"
        CREATE QUERY G () {
          SetAccum<string> @@cats;
          BagAccum<string> @@catBag;
          MapAccum<string, SumAccum<int>> @@perCat;
          S = SELECT p FROM Customer:c -(Bought>)- Product:p
              ACCUM @@cats += p.category,
                    @@catBag += p.category,
                    @@perCat += (p.category -> 1);
          PRINT @@cats, @@catBag, @@perCat;
        }
    "#);
    assert_eq!(
        out.prints,
        vec![
            "@@cats = {book, toy}".to_string(),
            "@@catBag = {book -> 2, toy -> 4}".to_string(),
            "@@perCat = {book -> 2, toy -> 4}".to_string(),
        ]
    );
}

#[test]
fn heap_accum_with_typedef() {
    let out = run(r#"
        CREATE QUERY G () {
          TYPEDEF TUPLE<FLOAT price, STRING name> PN;
          HeapAccum<PN>(2, price DESC, name ASC) @@expensive;
          S = SELECT p FROM Product:p ACCUM @@expensive += (p.list_price, p.name);
          PRINT @@expensive;
        }
    "#);
    assert_eq!(
        out.prints,
        vec!["@@expensive = [(30.0, robot), (20.0, kite)]".to_string()]
    );
}

#[test]
fn heap_inputs_must_be_tuples_of_the_declared_arity() {
    // The runtime holds every input to the typedef's arity, whether or
    // not the static checker (lint T001) runs first.
    let g = sales_graph();
    let eng = Engine::new(&g);
    let heap_query = |input: &str| {
        format!(
            "CREATE QUERY G () {{
               TYPEDEF TUPLE<FLOAT price, STRING name> PN;
               HeapAccum<PN>(2, price DESC, name ASC) @@expensive;
               S = SELECT p FROM Product:p ACCUM @@expensive += {input};
               PRINT @@expensive;
             }}"
        )
    };
    let err = eng.run_text(&heap_query("p.list_price"), &[]).unwrap_err();
    assert!(matches!(err, Error::Runtime(_)), "{err}");
    assert!(err.to_string().contains("expected heap tuple input"), "{err}");
    let err = eng.run_text(&heap_query("(p.list_price, p.name, 1)"), &[]).unwrap_err();
    assert!(matches!(err, Error::Runtime(_)), "{err}");
    assert!(err.to_string().contains("expected a 2-tuple input, got arity 3"), "{err}");
    // A tuple-valued expression is held to the arity as well.
    let err = eng
        .run_text(
            "CREATE QUERY G () {
               TYPEDEF TUPLE<FLOAT price, STRING name> PN;
               HeapAccum<PN>(2, price DESC) @@h;
               SetAccum<STRING> @@names;
               @@h += (1.0, 'a');
               S = SELECT p FROM Product:p ACCUM @@names += p.name;
               @@h += (2.0);
             }",
            &[],
        )
        .unwrap_err();
    assert!(err.to_string().contains("heap tuple"), "{err}");
    // The declared arity passes.
    let out = eng.run_text(&heap_query("(p.list_price, p.name)"), &[]).unwrap();
    assert_eq!(out.prints, vec!["@@expensive = [(30.0, robot), (20.0, kite)]".to_string()]);
}

#[test]
fn or_and_accums_with_post_accum() {
    let out = run(r#"
        CREATE QUERY G () {
          OrAccum @@anyCheap;
          AndAccum @@allCheap;
          S = SELECT p FROM Product:p
              ACCUM @@anyCheap += p.list_price < 12.0,
                    @@allCheap += p.list_price < 12.0;
          PRINT @@anyCheap, @@allCheap;
        }
    "#);
    assert_eq!(
        out.prints,
        vec!["@@anyCheap = true".to_string(), "@@allCheap = false".to_string()]
    );
}

#[test]
fn string_and_math_functions() {
    let out = run(r#"
        CREATE QUERY G () {
          PRINT upper('abc'), lower('DeF'), length('hello'),
                abs(0 - 5), sqrt(16.0), pow(2, 10), floor(2.7), ceil(2.1),
                min(3, 7), max(3, 7), coalesce(NULL, 42);
        }
    "#);
    assert_eq!(
        out.prints,
        vec![
            "upper = ABC", "lower = def", "length = 5", "abs = 5", "sqrt = 4.0",
            "pow = 1024.0", "floor = 2.0", "ceil = 3.0", "min = 3", "max = 7",
            "coalesce = 42"
        ]
        .into_iter()
        .map(String::from)
        .collect::<Vec<_>>()
    );
}

#[test]
fn datetime_functions() {
    let out = run(r#"
        CREATE QUERY G () {
          PRINT year(to_datetime(2011, 7, 15)) AS y,
                month(to_datetime(2011, 7, 15)) AS m,
                day(to_datetime(2011, 7, 15)) AS d;
        }
    "#);
    assert_eq!(out.prints, vec!["y = 2011", "m = 7", "d = 15"]);
}

#[test]
fn to_datetime_rejects_out_of_range_month_and_day() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    // A negative Int must not wrap through the u32 narrowing — it is a
    // structured runtime error naming the offending component.
    for (src, needle) in [
        ("CREATE QUERY G () { PRINT to_datetime(2011, 0 - 7, 15); }", "month out of range: -7"),
        ("CREATE QUERY G () { PRINT to_datetime(2011, 7, 0 - 15); }", "day out of range: -15"),
        ("CREATE QUERY G () { PRINT to_datetime(2011, 0, 15); }", "month out of range: 0"),
        ("CREATE QUERY G () { PRINT to_datetime(2011, 13, 15); }", "month out of range: 13"),
        ("CREATE QUERY G () { PRINT to_datetime(2011, 7, 0); }", "day out of range: 0"),
        ("CREATE QUERY G () { PRINT to_datetime(2011, 7, 32); }", "day out of range: 32"),
        (
            "CREATE QUERY G () { PRINT to_datetime(2011, 4000000000, 15); }",
            "month out of range: 4000000000",
        ),
    ] {
        let e = eng.run_text(src, &[]).unwrap_err();
        assert_eq!(e.kind(), gsql_core::ErrorKind::Runtime, "{src}: {e}");
        assert!(e.to_string().contains(needle), "{src}: {e}");
    }
    // Boundary values stay accepted.
    let out = eng
        .run_text("CREATE QUERY G () { PRINT day(to_datetime(2011, 12, 31)) AS d; }", &[])
        .unwrap();
    assert_eq!(out.prints, vec!["d = 31"]);
}

#[test]
fn vertex_methods() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT DISTINCT c.name, c.outdegree('Bought') AS bought,
                 c.outdegree() AS total, c.type() AS ty INTO T
          FROM Customer:c
          ORDER BY c.name ASC;
        }
    "#);
    let t = out.table("T").unwrap();
    // alice: 2 bought + 2 likes; bob 2+2; carol 1+3; dave 1+1.
    assert_eq!(
        t.rows,
        vec![
            vec![Value::from("alice"), Value::Int(2), Value::Int(4), Value::from("Customer")],
            vec![Value::from("bob"), Value::Int(2), Value::Int(4), Value::from("Customer")],
            vec![Value::from("carol"), Value::Int(1), Value::Int(4), Value::from("Customer")],
            vec![Value::from("dave"), Value::Int(1), Value::Int(2), Value::from("Customer")],
        ]
    );
}

#[test]
fn vset_literals_and_composition() {
    let out = run(r#"
        CREATE QUERY G () {
          All = {Customer.*, Product.*};
          Customers = {Customer.*};
          PRINT All.size(), Customers.size();
        }
    "#);
    assert_eq!(out.prints, vec!["All.size() = 8", "Customers.size() = 4"]);
}

#[test]
fn params_of_every_scalar_type() {
    let out = run_args(
        r#"
        CREATE QUERY G (int i, float f, string s, bool b) {
          PRINT i + 1, f * 2, s + '!', NOT b;
        }
        "#,
        &[
            ("i", Value::Int(41)),
            ("f", Value::Double(1.5)),
            ("s", Value::from("hi")),
            ("b", Value::Bool(false)),
        ],
    );
    assert_eq!(out.prints, vec!["expr = 42", "expr = 3.0", "expr = hi!", "expr = true"]);
}

#[test]
fn return_value_and_table_and_vset() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    let out = eng
        .run_text("CREATE QUERY G () { RETURN 6 * 7; }", &[])
        .unwrap();
    assert_eq!(out.returned, Some(ReturnValue::Value(Value::Int(42))));

    let out = eng
        .run_text(
            "CREATE QUERY G () { S = SELECT c FROM Customer:c; RETURN S; }",
            &[],
        )
        .unwrap();
    match out.returned {
        Some(ReturnValue::VSet(vs)) => assert_eq!(vs.len(), 4),
        other => panic!("{other:?}"),
    }
}

#[test]
fn undirected_pattern_matching() {
    // Knows is undirected: both endpoints see each other.
    let mut s = pgraph::schema::Schema::new();
    s.add_vertex_type("P", vec![pgraph::schema::AttrDef::new("name", pgraph::value::ValueType::Str)]).unwrap();
    s.add_edge_type("Knows", false, vec![]).unwrap();
    let mut b = GraphBuilder::new(s);
    let a = b.vertex("P", &[("name", Value::from("a"))]).unwrap();
    let c = b.vertex("P", &[("name", Value::from("c"))]).unwrap();
    b.edge("Knows", a, c, &[]).unwrap();
    let g = b.build();
    let out = Engine::new(&g)
        .run_text(
            r#"
            CREATE QUERY G () {
              SELECT x.name AS a, y.name AS b INTO T
              FROM P:x -(Knows)- P:y
              ORDER BY x.name ASC;
            }
            "#,
            &[],
        )
        .unwrap();
    assert_eq!(
        out.table("T").unwrap().rows,
        vec![
            vec![Value::from("a"), Value::from("c")],
            vec![Value::from("c"), Value::from("a")],
        ]
    );
}

#[test]
fn multi_hop_join_on_repeated_variable() {
    // Triangle query: x bought p and likes the same p.
    let out = run(r#"
        CREATE QUERY G () {
          SELECT DISTINCT c.name, p.name INTO T
          FROM Customer:c -(Bought>)- Product:p, Customer:c -(Likes>)- Product:p
          ORDER BY c.name, p.name;
        }
    "#);
    // alice bought+likes robot, blocks; carol bought+likes kite; dave novel.
    assert_eq!(
        out.table("T").unwrap().rows,
        vec![
            vec![Value::from("alice"), Value::from("blocks")],
            vec![Value::from("alice"), Value::from("robot")],
            vec![Value::from("bob"), Value::from("robot")],
            vec![Value::from("carol"), Value::from("kite")],
            vec![Value::from("dave"), Value::from("novel")],
        ]
    );
}

#[test]
fn accum_local_variables_are_per_execution() {
    let out = run(r#"
        CREATE QUERY G () {
          SumAccum<float> @@total;
          S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
              ACCUM float line = b.quantity * p.list_price,
                    @@total += line;
          PRINT @@total;
        }
    "#);
    // 2*30 + 1*10 + 1*30 + 3*15 + 4*20 + 1*15 = 60+10+30+45+80+15 = 240.
    assert_eq!(out.prints, vec!["@@total = 240.0".to_string()]);
}

#[test]
fn table_join_cross_product_filtered() {
    let g = sales_graph();
    let budgets = Table::from_rows(
        "Budget",
        &["name", "cap"],
        vec![
            vec![Value::from("alice"), Value::Double(50.0)],
            vec![Value::from("bob"), Value::Double(100.0)],
        ],
    );
    let eng = Engine::new(&g).with_table(budgets);
    let out = eng
        .run_text(
            r#"
            CREATE QUERY G () {
              SELECT c.name, t.cap AS cap INTO T
              FROM Budget:t, Customer:c
              WHERE c.name == t.name
              ORDER BY c.name;
            }
            "#,
            &[],
        )
        .unwrap();
    assert_eq!(
        out.table("T").unwrap().rows,
        vec![
            vec![Value::from("alice"), Value::Double(50.0)],
            vec![Value::from("bob"), Value::Double(100.0)],
        ]
    );
}

#[test]
fn errors_are_reported_not_panicked() {
    let g = sales_graph();
    let eng = Engine::new(&g);
    // Unknown accumulator.
    let err = eng
        .run_text("CREATE QUERY G () { @@nope += 1; }", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Runtime(_)), "{err}");
    // Unknown vertex type in FROM.
    let err = eng
        .run_text("CREATE QUERY G () { S = SELECT x FROM Nope:x; }", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Runtime(_)), "{err}");
    // Missing argument.
    let err = eng.run_text("CREATE QUERY G (int k) { PRINT k; }", &[]).unwrap_err();
    assert!(err.to_string().contains("missing argument"));
    // Type error in arithmetic (booleans coerce, strings do not multiply).
    let err = eng
        .run_text("CREATE QUERY G () { PRINT 1 * 'x'; }", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Runtime(_)), "{err}");
    // Division by zero.
    let err = eng
        .run_text("CREATE QUERY G () { PRINT 1 / 0; }", &[])
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"));
}

#[test]
fn empty_match_is_fine_everywhere() {
    let out = run(r#"
        CREATE QUERY G () {
          SumAccum<int> @@n;
          S = SELECT c FROM Customer:c WHERE c.name == 'nobody'
              ACCUM @@n += 1
              POST_ACCUM @@n += 100;
          SELECT c.name INTO T FROM Customer:c WHERE c.name == 'nobody';
          PRINT @@n, S.size();
        }
    "#);
    assert_eq!(out.prints, vec!["@@n = 0", "S.size() = 0"]);
    assert!(out.table("T").unwrap().is_empty());
}

#[test]
fn bounded_repetition_pattern() {
    // Path graph a->b->c->d: E>*2..3 from a reaches c and d.
    let (g, vs) = pgraph::generators::directed_path(3);
    let out = Engine::new(&g)
        .run_text(
            r#"
            CREATE QUERY G (vertex src) {
              R = SELECT t FROM V:s -(E>*2..3)- V:t WHERE s == src;
              PRINT R[R.name];
            }
            "#,
            &[("src", Value::Vertex(vs[0]))],
        )
        .unwrap();
    assert_eq!(out.prints, vec!["R: v2".to_string(), "R: v3".to_string()]);
}

#[test]
fn wildcard_edge_and_vertex_specs() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT DISTINCT p.name INTO T
          FROM Customer:c -(_)- _:p
          WHERE c.name == 'dave'
          ORDER BY p.name;
        }
    "#);
    // dave bought + likes novel.
    assert_eq!(out.table("T").unwrap().rows, vec![vec![Value::from("novel")]]);
}

#[test]
fn distinct_vs_bag_projection() {
    let dup = run(r#"
        CREATE QUERY G () {
          SELECT p.category AS cat INTO T
          FROM Customer:c -(Bought>)- Product:p
          ORDER BY p.category;
        }
    "#);
    assert_eq!(dup.table("T").unwrap().rows.len(), 6); // bag semantics
    let dis = run(r#"
        CREATE QUERY G () {
          SELECT DISTINCT p.category AS cat INTO T
          FROM Customer:c -(Bought>)- Product:p;
        }
    "#);
    assert_eq!(dis.table("T").unwrap().rows.len(), 2);
}

#[test]
fn ve_schema_smoke_for_builderless_graph() {
    let g = pgraph::graph::Graph::new(ve_schema());
    let out = Engine::new(&g)
        .run_text("CREATE QUERY G () { S = SELECT v FROM V:v; PRINT S.size(); }", &[])
        .unwrap();
    assert_eq!(out.prints, vec!["S.size() = 0"]);
}

#[test]
fn use_semantics_pragma_switches_per_query() {
    // The per-query semantics selection the paper announces as planned
    // syntax (Section 6.1). On G1 of Example 9 the same pattern yields
    // different multiplicities under each semantics.
    let (g, _) = pgraph::generators::example9_g1();
    let count_under = |sem: &str| -> String {
        let q = format!(
            r#"
            CREATE QUERY G () {{
              USE SEMANTICS '{sem}';
              SumAccum<int> @cnt;
              R = SELECT t FROM V:s -(E>*)- V:t
                  WHERE s.name == '1' AND t.name == '5'
                  ACCUM t.@cnt += 1;
              PRINT R[R.@cnt];
            }}
            "#
        );
        Engine::new(&g).run_text(&q, &[]).unwrap().prints[0].clone()
    };
    assert_eq!(count_under("non_repeated_vertex"), "R: 3");
    assert_eq!(count_under("non_repeated_edge"), "R: 4");
    assert_eq!(count_under("all_shortest_paths"), "R: 2");
    assert_eq!(count_under("shortest_one"), "R: 1");
    // Unknown names are rejected at parse time, with a position.
    let err = Engine::new(&g)
        .run_text("CREATE QUERY G () { USE SEMANTICS 'bogus'; }", &[])
        .unwrap_err();
    assert!(matches!(err, Error::Parse { .. }), "{err}");
    assert!(err.to_string().contains("unknown semantics `bogus`"), "{err}");
}

#[test]
fn vertex_set_algebra() {
    let out = run(r#"
        CREATE QUERY G () {
          All = {Customer.*, Product.*};
          Customers = {Customer.*};
          Products = All MINUS Customers;
          Both = Customers UNION Products;
          Nothing = Customers INTERSECT Products;
          PRINT Products.size(), Both.size(), Nothing.size();
        }
    "#);
    assert_eq!(
        out.prints,
        vec!["Products.size() = 4", "Both.size() = 8", "Nothing.size() = 0"]
    );
}

#[test]
fn scan_pinned_to_a_vertex_parameter_is_a_point_read() {
    // `WHERE s == who` pins the scan variable to one vertex. The scan
    // seeds from that vertex (either operand order) instead of binding
    // every candidate and filtering all but one row away: same answer as
    // the same-name anchor `V:who`, same rows materialized — a point read
    // does not slow down as its vertex type grows.
    let out_neighbours = |from: &str, filter: &str| {
        format!(
            "CREATE QUERY G (vertex<V> who) {{
               SELECT t.name AS n INTO T FROM {from} -(E>)- V:t {filter} ORDER BY t.name ASC;
             }}"
        )
    };
    let names = |out: &gsql_core::QueryOutput| -> Vec<Value> {
        out.table("T").unwrap().rows.iter().map(|r| r[0].clone()).collect()
    };
    let g = pgraph::generators::erdos_renyi(300, 4.0 / 300.0, 11);
    let mut nonempty = 0;
    for who in g.vertices().step_by(19) {
        let args = [("who", Value::Vertex(who))];
        let run = |src: String| Engine::new(&g).run_text(&src, &args).unwrap();
        let anchored = run(out_neighbours("V:who", ""));
        let pinned = run(out_neighbours("V:s", "WHERE s == who"));
        let flipped = run(out_neighbours("V:s", "WHERE who == s AND t.name <> \"\""));
        nonempty += usize::from(!names(&anchored).is_empty());
        assert_eq!(names(&pinned), names(&anchored));
        assert_eq!(names(&flipped), names(&anchored));
        assert_eq!(pinned.report.rows_materialized, anchored.report.rows_materialized);
    }
    assert!(nonempty > 0);
    // A vertex of another type satisfies neither the scan nor the filter.
    let g = sales_graph();
    let product = g.vertices_of_type(g.schema().vertex_type_id("Product").unwrap())[0];
    let out = Engine::new(&g)
        .run_text(
            "CREATE QUERY G (vertex who) {
               SELECT c.name AS cust INTO T FROM Customer:c WHERE c == who;
             }",
            &[("who", Value::Vertex(product))],
        )
        .unwrap();
    assert!(out.table("T").unwrap().rows.is_empty());
}

#[test]
fn case_expressions() {
    let out = run(r#"
        CREATE QUERY G () {
          SELECT DISTINCT p.name,
                 CASE WHEN p.list_price >= 25.0 THEN 'premium'
                      WHEN p.list_price >= 15.0 THEN 'standard'
                      ELSE 'budget' END AS tier
          INTO T
          FROM Product:p
          ORDER BY p.name;
        }
    "#);
    assert_eq!(
        out.table("T").unwrap().rows,
        vec![
            vec![Value::from("blocks"), Value::from("budget")],
            vec![Value::from("kite"), Value::from("standard")],
            vec![Value::from("novel"), Value::from("standard")],
            vec![Value::from("robot"), Value::from("premium")],
        ]
    );
    // CASE without ELSE yields NULL when nothing matches.
    let out = run("CREATE QUERY G () { PRINT CASE WHEN false THEN 1 END AS x; }");
    assert_eq!(out.prints, vec!["x = null"]);
}

// ---- mutation statements (INSERT / UPDATE / DELETE) ----------------------
//
// The engine never mutates the graph it runs against: mutation
// statements evaluate their expressions against the pinned snapshot and
// emit a `MutationOp` batch in `QueryOutput::mutations`. The graph owner
// (server /mutate, shell autosave, `LiveGraph::commit`) applies it.

#[test]
fn insert_statements_emit_ops_and_leave_the_snapshot_untouched() {
    use pgraph::mutate::{apply_batch, MutationOp};

    let g = sales_graph();
    let out = Engine::new(&g)
        .run_text(
            r#"CREATE QUERY M () {
          INSERT VERTEX Customer (name) VALUES ("erin");
          INSERT VERTEX Product (name, category, list_price)
                 VALUES ("drone", "toy", 99.5);
          // Provisional ids: 8 and 9 are the two vertices inserted above.
          INSERT EDGE Bought FROM 8 TO 9 (quantity, discount) VALUES (1, 0.0);
          PRINT "done";
        }"#,
            &[],
        )
        .unwrap();
    assert_eq!(out.prints, vec!["expr = done"]);
    assert_eq!(out.mutations.len(), 3);
    assert!(matches!(&out.mutations[0], MutationOp::AddVertex { .. }));
    assert!(matches!(&out.mutations[2], MutationOp::AddEdge { .. }));
    // Snapshot semantics: the source graph is untouched.
    assert_eq!(g.vertex_count(), 8);
    assert_eq!(g.edge_count(), 14);

    // Applying the batch yields the mutated graph.
    let mut g2 = g.clone();
    apply_batch(&mut g2, &out.mutations).unwrap();
    assert_eq!(g2.vertex_count(), 10);
    assert_eq!(g2.edge_count(), 15);
    let out2 = Engine::new(&g2)
        .run_text(
            r#"CREATE QUERY Q () {
          SELECT c.name AS who, p.name AS what INTO T
          FROM Customer:c -(Bought>)- Product:p
          WHERE p.name == "drone";
        }"#,
            &[],
        )
        .unwrap();
    assert_eq!(
        out2.table("T").unwrap().rows,
        vec![vec![Value::from("erin"), Value::from("drone")]]
    );
}

#[test]
fn update_and_delete_filter_with_where() {
    use pgraph::mutate::apply_batch;

    let g = sales_graph();
    let out = Engine::new(&g)
        .run_text(
            r#"CREATE QUERY M () {
          UPDATE Product:p SET p.list_price = p.list_price * 2.0
          WHERE p.category == "toy";
          DELETE FROM Customer:c WHERE c.name == "dave";
        }"#,
            &[],
        )
        .unwrap();
    // 3 toys updated + 1 customer deleted.
    assert_eq!(out.mutations.len(), 4);
    let mut g2 = g.clone();
    let summary = apply_batch(&mut g2, &out.mutations).unwrap();
    assert_eq!(summary.updated_attrs, 3);
    assert_eq!(summary.deleted_vertices, 1);
    assert_eq!(g2.vertex_count(), 7);
    let out2 = Engine::new(&g2)
        .run_text(
            r#"CREATE QUERY Q () {
          SELECT DISTINCT p.name, p.list_price INTO T FROM Product:p
          WHERE p.category == "toy" ORDER BY p.name;
        }"#,
            &[],
        )
        .unwrap();
    assert_eq!(
        out2.table("T").unwrap().rows,
        vec![
            vec![Value::from("blocks"), Value::Double(20.0)],
            vec![Value::from("kite"), Value::Double(40.0)],
            vec![Value::from("robot"), Value::Double(60.0)],
        ]
    );
}

#[test]
fn mutation_runtime_errors_are_structured() {
    let g = sales_graph();
    let run = |src: &str| Engine::new(&g).run_text(src, &[]).unwrap_err().to_string();
    // Unknown vertex type.
    assert!(run(r#"CREATE QUERY M () { INSERT VERTEX Robot VALUES ("x"); }"#)
        .contains("Robot"));
    // Arity mismatch on a positional insert.
    assert!(run(r#"CREATE QUERY M () { INSERT VERTEX Customer VALUES ("a", 1); }"#)
        .contains("declares 1"));
    // Unknown attribute in UPDATE.
    assert!(run(r#"CREATE QUERY M () { UPDATE Customer:c SET c.age = 4; }"#).contains("age"));
    // Type mismatch that cannot be coerced.
    assert!(
        run(r#"CREATE QUERY M () { UPDATE Product:p SET p.list_price = "free"; }"#)
            .contains("expects"),
    );
    // Edge endpoint that is not a vertex.
    assert!(run(r#"CREATE QUERY M () { INSERT EDGE Likes FROM -3 TO 0; }"#).contains("-3"));
    // Duplicate column in the INSERT column list: rejected, not
    // last-value-wins.
    assert!(run(
        r#"CREATE QUERY M () { INSERT VERTEX Customer (name, name) VALUES ("a", "b"); }"#
    )
    .contains("more than once"));
}

#[test]
fn update_sees_the_snapshot_not_its_own_writes() {
    use pgraph::mutate::apply_batch;

    // Both updates read list_price from the pinned snapshot: the +5
    // reads the pre-double price, so the net effect is deterministic
    // regardless of op order within the batch... but ops apply in
    // order, so the second SET overwrites the first (last-write-wins
    // per attribute), both computed against the snapshot.
    let g = sales_graph();
    let out = Engine::new(&g)
        .run_text(
            r#"CREATE QUERY M () {
          UPDATE Product:p SET p.list_price = p.list_price * 2.0 WHERE p.name == "robot";
          UPDATE Product:p SET p.list_price = p.list_price + 5.0 WHERE p.name == "robot";
        }"#,
            &[],
        )
        .unwrap();
    let mut g2 = g.clone();
    apply_batch(&mut g2, &out.mutations).unwrap();
    let out2 = Engine::new(&g2)
        .run_text(
            r#"CREATE QUERY Q () {
          SELECT DISTINCT p.list_price INTO T FROM Product:p WHERE p.name == "robot";
        }"#,
            &[],
        )
        .unwrap();
    // Snapshot price 30.0: the last write is 30 + 5 = 35.
    assert_eq!(out2.table("T").unwrap().rows, vec![vec![Value::Double(35.0)]]);
}

#[test]
fn vertex_argument_outside_the_graph_is_a_runtime_error() {
    // Each shape once indexed past the graph (a worker panic) or, when
    // the vertex was only an anchor, silently matched nothing; all three
    // now fail at argument binding and name the parameter.
    let g = pgraph::generators::erdos_renyi(50, 0.1, 1);
    let outside = Value::Vertex(pgraph::graph::VertexId(1_000_000));
    let shapes = [
        "CREATE QUERY Q (vertex src) {
           S = {src};
           R = SELECT t FROM S:s -(E>*)- V:t;
           PRINT R.size();
         }",
        "CREATE QUERY Q (vertex src) {
           R = SELECT t FROM V:s -(E>*)- V:t WHERE s == src;
           PRINT R.size();
         }",
        "CREATE QUERY Q (vertex src) {
           SumAccum<int> @@n;
           R = SELECT s FROM V:s -(E>*)- V:src ACCUM @@n += 1;
           PRINT @@n;
         }",
    ];
    for parallelism in [1, 4] {
        let eng = Engine::new(&g).with_parallelism(parallelism).with_morsel_size(1);
        for shape in shapes {
            let err = eng.run_text(shape, &[("src", outside.clone())]).unwrap_err();
            assert_eq!(err.kind(), gsql_core::ErrorKind::Runtime, "{err}\n{shape}");
            assert!(err.to_string().contains("parameter `src`"), "{err}");
            // An in-range vertex still runs.
            let ok = pgraph::graph::VertexId(0);
            eng.run_text(shape, &[("src", Value::Vertex(ok))]).unwrap();
        }
    }
    // Members of a vertex-set argument are checked too.
    let err = Engine::new(&g)
        .run_text(
            "CREATE QUERY Q (set<vertex> seeds) { PRINT seeds.size(); }",
            &[("seeds", Value::Set(vec![Value::Vertex(pgraph::graph::VertexId(3)), outside]))],
        )
        .unwrap_err();
    assert_eq!(err.kind(), gsql_core::ErrorKind::Runtime, "{err}");
    assert!(err.to_string().contains("parameter `seeds`"), "{err}");
}

#[test]
fn vertex_set_scans_are_ascending_and_exact() {
    // Vertex sets made by SELECT (in output order, here not ascending),
    // by UNION / MINUS, and by a literal naming a set twice. A FROM over
    // any of them binds its members in ascending id order, each once, and
    // a hop into one keeps exactly its members. Products in id order:
    // robot, blocks, kite, novel.
    let g = sales_graph();
    let out = Engine::new(&g)
        .run_text(
            r#"
            CREATE QUERY G () {
              ListAccum<string> @@byName;
              ListAccum<string> @@cheap;
              ListAccum<string> @@pricey;
              ListAccum<string> @@again;
              ListAccum<string> @@lit;
              ByName = SELECT p FROM Product:p ORDER BY p.name DESC;
              Cheap = SELECT p FROM Customer:c -(Bought>)- Product:p
                      WHERE p.list_price < 20 ORDER BY p.list_price DESC;
              Pricey = ByName MINUS Cheap;
              Again = Cheap UNION Pricey;
              Lit = {Cheap, Customer.*, Cheap};
              PRINT ByName[ByName.name];
              PRINT Cheap[Cheap.name];
              S1 = SELECT v FROM ByName:v ACCUM @@byName += v.name;
              S2 = SELECT v FROM Cheap:v ACCUM @@cheap += v.name;
              S3 = SELECT v FROM Pricey:v ACCUM @@pricey += v.name;
              S4 = SELECT v FROM Again:v ACCUM @@again += v.name;
              S5 = SELECT v FROM Lit:v ACCUM @@lit += v.name;
              PRINT @@byName, @@cheap, @@pricey, @@again, @@lit;
              SELECT c.name AS c, p.name AS p INTO Hop FROM Customer:c -(Bought>)- Cheap:p;
              SELECT c.name AS c, p.name AS p INTO Path FROM Customer:c -(Bought>*1..2)- Cheap:p;
              SELECT c.name AS c, p.name AS p INTO Other FROM Customer:c -(Bought>)- Pricey:p;
            }
            "#,
            &[],
        )
        .unwrap();
    assert_eq!(
        out.prints,
        [
            // PRINT and RETURN keep a SELECT's output order.
            "ByName: robot",
            "ByName: novel",
            "ByName: kite",
            "ByName: blocks",
            "Cheap: novel",
            "Cheap: blocks",
            "@@byName = [robot, blocks, kite, novel]",
            "@@cheap = [blocks, novel]",
            "@@pricey = [robot, kite]",
            "@@again = [robot, blocks, kite, novel]",
            "@@lit = [alice, bob, carol, dave, blocks, novel]",
        ]
    );
    let pairs = |name: &str| {
        let mut rows: Vec<String> = out
            .table(name)
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{}-{}", r[0], r[1]))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(pairs("Hop"), ["alice-blocks", "bob-novel", "dave-novel"]);
    assert_eq!(pairs("Path"), ["alice-blocks", "bob-novel", "dave-novel"]);
    assert_eq!(pairs("Other"), ["alice-robot", "bob-robot", "carol-kite"]);
}

/// Blocks whose FROM binds a variable twice, or whose POST_ACCUM names
/// two FROM variables, each with the error it raises when it runs.
const LAYOUT_ERRORS: [(&str, &str); 3] = [
    (
        "SELECT e FROM Employee:e, Employee:e;",
        "variable `e` bound twice in FROM",
    ),
    (
        "SELECT c FROM Customer:c -(Bought>:c)- Product:p;",
        "variable `c` bound twice in FROM",
    ),
    (
        "SELECT c FROM Customer:c -(Bought>)- Product:p POST_ACCUM c.@n += 1, p.@n += 1;",
        "POST_ACCUM references two FROM variables (`c` and `p`); \
         it may reference at most one vertex alias",
    ),
];

/// An engine over the SalesGraph with a one-row `Employee` table.
fn layout_engine(g: &pgraph::graph::Graph) -> Engine<'_> {
    let employees =
        Table::from_rows("Employee", &["name"], vec![vec![Value::from("ann")]]);
    Engine::new(g).with_table(employees)
}

#[test]
fn from_layout_errors_fail_the_block_that_runs() {
    let g = sales_graph();
    let engine = layout_engine(&g);
    for (block, message) in LAYOUT_ERRORS {
        let src = format!(
            "CREATE QUERY L () {{ SumAccum<int> @n; S = {block} PRINT S.size(); }}"
        );
        let err = engine.run_text(&src, &[]).expect_err(block);
        assert_eq!(err.kind(), gsql_core::ErrorKind::Compile, "{block}: {err}");
        assert_eq!(err, Error::compile(message), "{block}");
    }
}

#[test]
fn from_layout_errors_in_an_untaken_branch_do_not_fail_the_query() {
    let g = sales_graph();
    let engine = layout_engine(&g);
    for (block, _) in LAYOUT_ERRORS {
        let src = format!(
            "CREATE QUERY L () {{ SumAccum<int> @n; SumAccum<int> @@k; \
             IF 1 > 2 THEN S = {block} @@k += 1; END; PRINT @@k; }}"
        );
        let out = engine.run_text(&src, &[]).unwrap_or_else(|e| panic!("{block}: {e}"));
        assert_eq!(out.prints, vec!["@@k = 0".to_string()], "{block}");
        let q = gsql_core::parse_query(&src).unwrap();
        let plan = engine.explain(&q).unwrap_or_else(|e| panic!("{block}: {e}"));
        assert!(plan.render().contains("BLOCK 1:"), "{block}");
    }
}
