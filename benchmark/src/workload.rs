//! The five workloads: which graph, which statements, which arguments.
//!
//! Graphs are frozen (generator seed [`GRAPH_SEED`]); `--seed` drives the
//! order in which the argument population is walked and the values of the
//! write batches. A graph drawn from `--seed` moves `ic_khop`'s median by
//! about 15 % between seeds (measured, see README), so the seed would
//! drown every change.

use crate::stats::Rng;
use gsql_core::{stdlib, Engine, PreparedQuery, QueryOutput, ReturnValue};
use gsql_serve::handlers;
use gsql_serve::json::{value_to_json, write_json, Json};
use ldbc_snb::{generate_streamed, queries, SnbParams};
use pgraph::datetime::to_epoch;
use pgraph::generators::erdos_renyi;
use pgraph::{Graph, Value, VertexId};
use std::collections::HashMap;
use std::time::Instant;

/// Generator seed of every graph the benchmark builds.
pub const GRAPH_SEED: u64 = 1;
/// SNB scale factor of the four social-network workloads.
pub const SNB_SF: f64 = 1.0;
/// The small SNB graph the commit-slope probe compares against.
pub const SNB_SF_SMALL: f64 = 0.125;
/// `par_dispatch` runs on `erdos_renyi(400, 4/400, GRAPH_SEED)`.
pub const ER_VERTICES: usize = 400;
/// `Knows` radius of the IC queries (the paper widened 2 to 3 and 4).
pub const IC_HOPS: usize = 3;
/// Iteration cap of the PageRank statement in `fold_seq`.
pub const PAGERANK_ITERATIONS: i64 = 10;
/// First `id` attribute of the persons `mutate_beside_reads` inserts.
pub const INSERTED_ID_BASE: i64 = 1_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphKind {
    Snb,
    Er,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Runner {
    /// `Engine::run_prepared` in this process; one op = one cycle.
    InProcess,
    /// An in-process `Server` on an in-memory graph, two keep-alive
    /// connections, closed loop; one op = one request.
    Served,
    /// A durable `Server`; connection 1 posts `/mutate` batches (the
    /// primary op), connection 2 reads beside it.
    MutateBesideReads,
}

/// The frozen parameters of one workload.
pub struct Def {
    pub name: &'static str,
    pub graph: GraphKind,
    pub parallelism: usize,
    pub runner: Runner,
    /// Every `oracle_stride`-th cycle of the walk is compared with the
    /// oracle; 1 checks every op. `ic_khop` checks one in sixteen because
    /// its oracle costs as much as the op (15 s for the whole population).
    pub oracle_stride: usize,
    /// Untimed cycles before the timed pass.
    pub warmup_cycles: usize,
    /// Cycles of the traced pass; fixed so the exact counters repeat.
    pub trace_cycles: usize,
}

pub const DEFS: &[Def] = &[
    Def {
        name: "ic_khop",
        graph: GraphKind::Snb,
        parallelism: 1,
        runner: Runner::InProcess,
        oracle_stride: 16,
        warmup_cycles: 40,
        trace_cycles: 64,
    },
    Def {
        name: "fold_seq",
        graph: GraphKind::Snb,
        parallelism: 1,
        runner: Runner::InProcess,
        oracle_stride: 1,
        warmup_cycles: 4,
        trace_cycles: 6,
    },
    Def {
        name: "par_dispatch",
        graph: GraphKind::Er,
        parallelism: 2,
        runner: Runner::InProcess,
        oracle_stride: 1,
        warmup_cycles: 10,
        trace_cycles: 16,
    },
    Def {
        name: "point_serve",
        graph: GraphKind::Snb,
        parallelism: 1,
        runner: Runner::Served,
        oracle_stride: 1,
        warmup_cycles: 500,
        trace_cycles: 512,
    },
    Def {
        name: "mutate_beside_reads",
        graph: GraphKind::Snb,
        parallelism: 1,
        runner: Runner::MutateBesideReads,
        oracle_stride: 1,
        warmup_cycles: 200,
        trace_cycles: 512,
    },
];

pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// A graph and what building it cost.
pub struct Built {
    pub graph: Graph,
    pub build_ms: f64,
    /// Growth of the resident set over the build, in bytes.
    pub rss_delta: u64,
}

pub fn build_graph(kind: GraphKind) -> Built {
    build_graph_at(kind, SNB_SF)
}

pub fn build_graph_at(kind: GraphKind, sf: f64) -> Built {
    let rss_before = crate::host::rss_bytes();
    let started = Instant::now();
    let graph = match kind {
        GraphKind::Snb => generate_streamed(SnbParams::new(sf, GRAPH_SEED)).0,
        GraphKind::Er => erdos_renyi(ER_VERTICES, 4.0 / ER_VERTICES as f64, GRAPH_SEED),
    };
    Built {
        graph,
        build_ms: started.elapsed().as_secs_f64() * 1e3,
        rss_delta: crate::host::rss_bytes().saturating_sub(rss_before),
    }
}

/// One statement of a workload, parsed once.
pub struct Stmt {
    pub name: &'static str,
    pub text: String,
    pub prepared: PreparedQuery,
    /// Served through `POST /query` with the text in the body (a
    /// plan-cache hit after the first request) instead of
    /// `/execute/{id}`.
    pub adhoc: bool,
}

fn stmt(name: &'static str, text: String, adhoc: bool) -> Stmt {
    let prepared = PreparedQuery::prepare(&text)
        .unwrap_or_else(|e| panic!("workload statement {name} does not parse: {e}"));
    Stmt {
        name,
        text,
        prepared,
        adhoc,
    }
}

/// One execution: a statement and its argument binding.
pub struct Call {
    pub stmt: usize,
    pub args: Vec<(&'static str, Value)>,
}

/// Statements, the seeded walk over the argument population, and the
/// write batches for this workload's graph.
pub struct Plan {
    pub stmts: Vec<Stmt>,
    /// One entry per distinct argument binding of the cycle, in seeded
    /// order; runs walk it round-robin.
    pub cycles: Vec<Vec<Call>>,
    pub writes: Writes,
}

const PATH_COUNT: &str = r#"
CREATE QUERY PathCount (vertex<Person> a, vertex<Person> b) {
  SumAccum<int> @@n;
  R = SELECT t FROM Person:s -(Knows*)- Person:t
      WHERE s == a AND t == b
      ACCUM @@n += 1;
  PRINT @@n;
}
"#;

const FANOUT: &str = r#"
CREATE QUERY Fanout () {
  SumAccum<int> @hits;
  R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
  PRINT R.size();
}
"#;

const REACHES: &str = r#"
CREATE QUERY Reaches (VERTEX tgt) {
  SumAccum<int> @@n;
  R = SELECT s FROM V:s -(E>*)- V:tgt ACCUM @@n += 1;
  PRINT @@n;
}
"#;

const ADD_PERSON: &str = r#"
CREATE QUERY AddPerson (int pid, int newv, vertex<Person> f1, vertex<Person> f2,
                        vertex<Person> u, string tag) {
  INSERT VERTEX Person (id, firstName, lastName, gender, browser, birthday, creationDate)
         VALUES (pid, "bench", tag, "female", "Firefox", 0, pid);
  INSERT EDGE Knows FROM newv TO f1 VALUES (pid);
  INSERT EDGE Knows FROM newv TO f2 VALUES (pid);
  UPDATE Person:q SET q.browser = tag WHERE q == u;
}
"#;

const ADD_V: &str = r#"
CREATE QUERY AddV (int pid, int newv, vertex f1, vertex f2, vertex u, string tag) {
  INSERT VERTEX V (name) VALUES (tag);
  INSERT EDGE E FROM newv TO f1;
  INSERT EDGE E FROM newv TO f2;
  UPDATE V:q SET q.name = tag WHERE q == u;
}
"#;

/// Vertex ids of one type, ascending, through the language itself so the
/// benchmark does not depend on the graph's storage layout.
pub fn vertex_ids(graph: &Graph, vtype: &str) -> Vec<VertexId> {
    let text = format!("CREATE QUERY Ids () {{ S = {{{vtype}.*}}; RETURN S; }}");
    match Engine::new(graph).with_parallelism(1).run_text(&text, &[]) {
        Ok(QueryOutput {
            returned: Some(ReturnValue::VSet(mut ids)),
            ..
        }) => {
            ids.sort_unstable();
            ids
        }
        other => panic!(
            "cannot list {vtype} vertices: {:?}",
            other.map(|o| o.returned)
        ),
    }
}

fn ic_cycle(p: VertexId, b: VertexId) -> Vec<Call> {
    let p = Value::Vertex(p);
    vec![
        Call {
            stmt: 0,
            args: vec![
                ("p", p.clone()),
                ("countryX", Value::from("country0")),
                ("countryY", Value::from("country1")),
            ],
        },
        Call {
            stmt: 1,
            args: vec![
                ("p", p.clone()),
                ("minDate", Value::DateTime(to_epoch(2010, 6, 1))),
            ],
        },
        Call {
            stmt: 2,
            args: vec![("p", p.clone()), ("tagName", Value::from("tag0"))],
        },
        Call {
            stmt: 3,
            args: vec![
                ("p", p.clone()),
                ("maxDate", Value::DateTime(to_epoch(2012, 6, 1))),
            ],
        },
        Call {
            stmt: 4,
            args: vec![
                ("p", p.clone()),
                ("country", Value::from("country2")),
                ("beforeYear", Value::Int(2010)),
            ],
        },
        Call {
            stmt: 5,
            args: vec![("a", p), ("b", Value::Vertex(b))],
        },
    ]
}

/// Builds the statements and the seeded argument walk of `def` over
/// `graph`.
pub fn plan(def: &Def, graph: &Graph, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let writes = writes(def.graph, graph, seed);
    let population = vertex_ids(graph, population_type(def.graph));
    let split = population.len() - writes.reserved.len();

    let (stmts, cycles) = match def.name {
        "ic_khop" => {
            let stmts = vec![
                stmt("ic3", queries::ic3(IC_HOPS), false),
                stmt("ic5", queries::ic5(IC_HOPS), false),
                stmt("ic6", queries::ic6(IC_HOPS), false),
                stmt("ic9", queries::ic9(IC_HOPS), false),
                stmt("ic11", queries::ic11(IC_HOPS), false),
                stmt("path_count", PATH_COUNT.to_string(), false),
            ];
            let mut walk = population;
            rng.shuffle(&mut walk);
            let cycles = (0..walk.len())
                .map(|i| ic_cycle(walk[i], walk[(i + 1) % walk.len()]))
                .collect();
            (stmts, cycles)
        }
        "fold_seq" => {
            let stmts = vec![
                stmt("q_acc", queries::q_acc(), false),
                stmt("q_gs", queries::q_gs(), false),
                stmt("pagerank", stdlib::pagerank("Message", "ReplyOf"), false),
            ];
            // The three statements take no graph arguments; the seed
            // picks PageRank's damping factor, which changes the scores
            // and not the work.
            let damping = 0.80 + (seed % 11) as f64 / 100.0;
            let cycle = vec![
                Call {
                    stmt: 0,
                    args: vec![],
                },
                Call {
                    stmt: 1,
                    args: vec![],
                },
                Call {
                    stmt: 2,
                    args: vec![
                        ("maxChange", Value::Double(0.0)),
                        ("maxIteration", Value::Int(PAGERANK_ITERATIONS)),
                        ("dampingFactor", Value::Double(damping)),
                    ],
                },
            ];
            (stmts, vec![cycle])
        }
        "par_dispatch" => {
            let stmts = vec![
                stmt("fanout", FANOUT.to_string(), false),
                stmt("reaches", REACHES.to_string(), false),
            ];
            let mut walk = population;
            rng.shuffle(&mut walk);
            let cycles = walk
                .into_iter()
                .map(|tgt| {
                    vec![
                        Call {
                            stmt: 0,
                            args: vec![],
                        },
                        Call {
                            stmt: 1,
                            args: vec![("tgt", Value::Vertex(tgt))],
                        },
                    ]
                })
                .collect();
            (stmts, cycles)
        }
        "point_serve" => {
            let stmts = vec![
                stmt("is1", queries::is1(), false),
                stmt("is2", queries::is2(), false),
                stmt("is3", queries::is3(), false),
                stmt("is5", queries::is5(), false),
                stmt("is7", queries::is7(), false),
                stmt("adhoc_is2", queries::is2(), true),
            ];
            let mut persons = population;
            rng.shuffle(&mut persons);
            let mut messages = vertex_ids(graph, "Message");
            rng.shuffle(&mut messages);
            let cycles = persons
                .iter()
                .zip(&messages)
                .map(|(&p, &m)| {
                    let (p, m) = (Value::Vertex(p), Value::Vertex(m));
                    vec![
                        Call {
                            stmt: 0,
                            args: vec![("p", p.clone())],
                        },
                        Call {
                            stmt: 1,
                            args: vec![("p", p.clone())],
                        },
                        Call {
                            stmt: 2,
                            args: vec![("p", p.clone())],
                        },
                        Call {
                            stmt: 3,
                            args: vec![("m", m.clone())],
                        },
                        Call {
                            stmt: 4,
                            args: vec![("m", m)],
                        },
                        Call {
                            stmt: 5,
                            args: vec![("p", p)],
                        },
                    ]
                })
                .collect();
            (stmts, cycles)
        }
        "mutate_beside_reads" => {
            let stmts = vec![
                stmt("is1", queries::is1(), false),
                stmt("is2", queries::is2(), false),
                stmt("is3", queries::is3(), false),
            ];
            let mut readers = population[..split].to_vec();
            rng.shuffle(&mut readers);
            let cycles = readers
                .into_iter()
                .map(|p| {
                    (0..3)
                        .map(|s| Call {
                            stmt: s,
                            args: vec![("p", Value::Vertex(p))],
                        })
                        .collect()
                })
                .collect();
            (stmts, cycles)
        }
        other => panic!("no plan for workload `{other}`"),
    };
    Plan {
        stmts,
        cycles,
        writes,
    }
}

fn population_type(kind: GraphKind) -> &'static str {
    match kind {
        GraphKind::Snb => "Person",
        GraphKind::Er => "V",
    }
}

/// The write batches of a graph: one inserted vertex, two inserted edges
/// to reserved vertices, one attribute update of a reserved vertex.
pub struct Writes {
    pub stmt: Stmt,
    pub reserved: Vec<VertexId>,
    first_new_vertex: usize,
    seed: u64,
}

/// The write batches for `graph`. The last tenth of the population is
/// reserved for them: batches attach to and update only these, so reads
/// over the rest keep the answers the oracle computed on the initial
/// graph.
pub fn writes(kind: GraphKind, graph: &Graph, seed: u64) -> Writes {
    let text = match kind {
        GraphKind::Snb => ADD_PERSON,
        GraphKind::Er => ADD_V,
    };
    let population = vertex_ids(graph, population_type(kind));
    let split = population.len() - population.len() / 10;
    Writes {
        stmt: stmt("write_batch", text.to_string(), true),
        reserved: population[split..].to_vec(),
        first_new_vertex: graph.vertex_count(),
        seed,
    }
}

/// What batch `k` writes, for the durability oracle.
pub struct Batch {
    pub args: Vec<(&'static str, Value)>,
    pub tag: String,
    pub updated: VertexId,
}

impl Writes {
    /// Batch number `k`, to be committed when `committed` batches have
    /// been acknowledged (each adds one vertex, so the inserted vertex's
    /// provisional id is the initial vertex count plus `committed`).
    pub fn batch(&self, k: usize, committed: usize) -> Batch {
        let mut rng = Rng::new(self.seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let n = self.reserved.len();
        let first = rng.below(n);
        let second = (first + 1 + rng.below(n - 1)) % n;
        let updated = self.reserved[rng.below(n)];
        let tag = format!("b{k}");
        Batch {
            args: vec![
                ("pid", Value::Int(INSERTED_ID_BASE + k as i64)),
                (
                    "newv",
                    Value::Int((self.first_new_vertex + committed) as i64),
                ),
                ("f1", Value::Vertex(self.reserved[first])),
                ("f2", Value::Vertex(self.reserved[second])),
                ("u", Value::Vertex(updated)),
                ("tag", Value::from(tag.as_str())),
            ],
            tag,
            updated,
        }
    }
}

/// Canonical bytes of a query's observable output (prints, tables,
/// return value): the server's own result writer, so in-process and
/// served outputs compare against one oracle.
pub fn render(out: &QueryOutput) -> String {
    let mut s = String::new();
    write_json(&mut s, &handlers::result_json(out));
    s
}

/// The JSON object a request carries for `args`.
pub fn params_json(args: &[(&'static str, Value)]) -> String {
    let fields = args
        .iter()
        .map(|(n, v)| (n.to_string(), value_to_json(v)))
        .collect();
    let mut s = String::new();
    write_json(&mut s, &Json::Obj(fields));
    s
}

/// Expected canonical bytes per call, for every `stride`-th cycle of the
/// walk: a fresh parse-and-plan run at parallelism 1, not the prepared
/// path the timed pass uses. A binding that recurs (an argument-less
/// statement in every cycle) is computed once.
pub fn oracle(graph: &Graph, plan: &Plan, stride: usize) -> Vec<Option<Vec<String>>> {
    let engine = Engine::new(graph).with_parallelism(1);
    let mut known: HashMap<(usize, String), String> = HashMap::new();
    plan.cycles
        .iter()
        .enumerate()
        .map(|(i, cycle)| {
            (i % stride == 0).then(|| {
                cycle
                    .iter()
                    .map(|call| {
                        let s = &plan.stmts[call.stmt];
                        known
                            .entry((call.stmt, params_json(&call.args)))
                            .or_insert_with(|| {
                                let out =
                                    engine.run_text(&s.text, &call.args).unwrap_or_else(|e| {
                                        panic!("oracle run of {} failed: {e}", s.name)
                                    });
                                render(&out)
                            })
                            .clone()
                    })
                    .collect()
            })
        })
        .collect()
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    gsql_serve::json::write_escaped(&mut out, s);
    out
}

/// Request path and body of one served call.
pub struct Wire {
    pub path: String,
    pub body: String,
}

/// The requests of the whole walk: `/execute/{id}` with a params body
/// for prepared statements, `/query` with the text for ad-hoc ones.
pub fn wire(plan: &Plan, ids: &[Option<String>]) -> Vec<Vec<Wire>> {
    plan.cycles
        .iter()
        .map(|cycle| {
            cycle
                .iter()
                .map(|call| {
                    let params = params_json(&call.args);
                    match &ids[call.stmt] {
                        Some(id) => Wire {
                            path: format!("/execute/{id}"),
                            body: format!(r#"{{"params":{params}}}"#),
                        },
                        None => Wire {
                            path: "/query".to_string(),
                            body: format!(
                                r#"{{"query":{},"args":{params}}}"#,
                                json_string(&plan.stmts[call.stmt].text)
                            ),
                        },
                    }
                })
                .collect()
        })
        .collect()
}
