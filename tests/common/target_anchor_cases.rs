//! The target-anchor corpus: SNB queries whose WHERE conjuncts name only
//! a hop's unbound target, with their arguments. Shared by
//! `tests/target_anchor.rs` (which pins their output) and
//! `tests/operator_rows.rs` (which pins their per-operator counters).

use ldbc_snb::queries;
use pgraph::datetime::to_epoch;
use pgraph::graph::Graph;
use pgraph::value::Value;

/// A named query and its arguments.
pub type Case = (&'static str, String, Vec<(&'static str, Value)>);

/// The corpus on graph `g` (an SNB graph: vertex arguments are taken
/// from its `Person` and `Message` vertices).
pub fn cases(g: &Graph) -> Vec<Case> {
    let of_type = |ty: &str, i: usize| {
        let t = g.schema().vertex_type_id(ty).unwrap();
        Value::Vertex(g.vertices_of_type(t)[i])
    };
    let max_date = Value::DateTime(to_epoch(2012, 6, 1));
    vec![
        (
            "ic9(2)",
            queries::ic9(2),
            vec![("p", of_type("Person", 0)), ("maxDate", max_date.clone())],
        ),
        (
            "before_date",
            r#"
            CREATE QUERY BeforeDate (datetime maxDate) {
              SumAccum<int> @@n;
              ListAccum<int> @@ids;
              M = SELECT m FROM Person:f -(<HasCreator:e)- Message:m
                  WHERE m.creationDate < maxDate
                  ACCUM @@n += 1, @@ids += m.id();
              PRINT @@n;
              PRINT @@ids;
              PRINT M.size();
            }
            "#
            .into(),
            vec![("maxDate", max_date)],
        ),
        (
            "year_window",
            r#"
            CREATE QUERY YearWindow () {
              MapAccum<int, SumAccum<int>> @@perYear;
              SumAccum<int> @likes;
              SumAccum<int> @@hot;
              ListAccum<int> @@order;
              S = SELECT m FROM Person:pp -(Likes>)- Message:m
                  WHERE year(m.creationDate) >= 2010 AND year(m.creationDate) <= 2012
                  ACCUM @@perYear += (year(m.creationDate) -> 1), m.@likes += 1,
                        @@order += m.id();
              T = SELECT m2 FROM Person:pp -(Likes>)- Message:m2
                  WHERE m2.@likes > 1 AND m2.length > 50
                  ACCUM @@hot += 1;
              PRINT @@perYear;
              PRINT @@hot;
              PRINT @@order;
            }
            "#
            .into(),
            vec![],
        ),
        (
            "ic3(2)",
            queries::ic3(2),
            vec![
                ("p", of_type("Person", 0)),
                ("countryX", Value::from("country0")),
                ("countryY", Value::from("country1")),
            ],
        ),
        (
            "by_country",
            r#"
            CREATE QUERY ByCountry () {
              MapAccum<string, SumAccum<int>> @@perCountry;
              SumAccum<int> @@rows;
              C = SELECT c FROM Person:f -(<HasCreator)- Message:m -(MsgIn>)- Country:c
                  WHERE c.name <> "country0"
                  ACCUM @@perCountry += (c.name -> 1), @@rows += 1;
              PRINT @@rows;
              PRINT @@perCountry;
              PRINT C.size();
            }
            "#
            .into(),
            vec![],
        ),
        (
            "anchored_and_set_targets",
            r#"
            CREATE QUERY Anchored (vertex<Message> m) {
              SumAccum<int> @@anchored;
              SumAccum<int> @@inSet;
              ListAccum<int> @@ids;
              A = SELECT m FROM Person:f -(<HasCreator)- Message:m
                  WHERE m.length > 0
                  ACCUM @@anchored += 1;
              P = SELECT x FROM Message:x WHERE x.isPost;
              R = SELECT y FROM Person:f -(<HasCreator)- P:y
                  WHERE y.length > 100
                  ACCUM @@inSet += 1, @@ids += y.id();
              PRINT @@anchored;
              PRINT @@inSet;
              PRINT @@ids;
            }
            "#
            .into(),
            vec![("m", of_type("Message", 3))],
        ),
        (
            "wildcard_hop",
            r#"
            CREATE QUERY Wildcard () {
              SumAccum<int> @@n;
              ListAccum<int> @@ids;
              W = SELECT m FROM Person:f -(<_)- Message:m
                  WHERE m.isPost == true
                  ACCUM @@n += 1, @@ids += m.id();
              PRINT @@n;
              PRINT @@ids;
            }
            "#
            .into(),
            vec![],
        ),
        (
            "table_output",
            r#"
            CREATE QUERY Rows () {
              SELECT m.id() AS mid, m.length AS len, f.id() AS fid INTO T
              FROM Person:f -(<HasCreator)- Message:m
              WHERE m.length > 120 AND f.gender == "male";
            }
            "#
            .into(),
            vec![],
        ),
        (
            "kleene_target",
            r#"
            CREATE QUERY Reach (vertex<Person> p) {
              SumAccum<int> @@n;
              SetAccum<int> @@ids;
              F = SELECT f FROM Person:p -(Knows*1..2)- Person:f
                  WHERE f.gender == "female"
                  ACCUM @@n += 1, @@ids += f.id();
              PRINT @@n;
              PRINT @@ids;
            }
            "#
            .into(),
            vec![("p", of_type("Person", 0))],
        ),
    ]
}
