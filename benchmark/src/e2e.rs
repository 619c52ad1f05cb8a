//! The untraced pass: set-up, warm-up, a timed pass of `--seconds`, and
//! the correctness checks. One function per [`Runner`].

use crate::host;
use crate::workload::{self, Built, Def, Plan, Runner, Wire};
use gsql_core::{Engine, QueryOutput};
use gsql_serve::client::Client;
use gsql_serve::json::Json;
use gsql_serve::{Server, ServerConfig};
use pgraph::wal::{FlushPolicy, LiveGraph};
use pgraph::{Graph, GraphBuilder, Value, VertexId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one untraced run observed.
#[derive(Default)]
pub struct Outcome {
    /// Process start to ready-for-first-op.
    pub setup_s: f64,
    /// Latency of each read op of the timed pass.
    pub read_ms: Vec<f64>,
    /// Latency of each `/mutate` round trip (`mutate_beside_reads` only).
    pub write_ms: Vec<f64>,
    /// Correct primary ops of the timed pass.
    pub primary_ops: u64,
    /// The time those ops took.
    pub wall_s: f64,
    pub attempted: u64,
    /// Ops compared against the oracle.
    pub verified: u64,
    /// Failures by name; their sum is `failed`.
    pub failures: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn fail(&mut self, what: &str) {
        *self.failures.entry(what.to_string()).or_default() += 1;
    }

    fn absorb(&mut self, other: Outcome) {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.attempted += other.attempted;
        self.verified += other.verified;
        for (k, n) in other.failures {
            *self.failures.entry(k).or_default() += n;
        }
    }
}

/// How one untraced run is driven.
#[derive(Clone, Copy)]
pub struct Load {
    pub seed: u64,
    /// Length of the timed pass.
    pub seconds: f64,
    /// Walk only the first 16 cycles and warm up a sixteenth as long.
    pub smoke: bool,
    /// Stop once ready for the first op (a set-up sample).
    pub setup_only: bool,
    /// Process start: set-up is measured from here.
    pub started: Instant,
}

impl Load {
    fn plan(&self, def: &Def, graph: &Graph) -> Plan {
        let mut plan = workload::plan(def, graph, self.seed);
        if self.smoke {
            plan.cycles.truncate(16);
        }
        plan
    }

    fn warmup_cycles(&self, def: &Def) -> usize {
        if self.smoke {
            (def.warmup_cycles / 16).max(1)
        } else {
            def.warmup_cycles
        }
    }
}

/// Runs `def`'s untraced pass.
pub fn run(def: &Def, load: Load) -> Outcome {
    match def.runner {
        Runner::InProcess => in_process(def, load),
        Runner::Served => served(def, load),
        Runner::MutateBesideReads => mutate_beside_reads(def, load),
    }
}

/// Runs one cycle through `Engine::run_prepared` and returns its wall
/// time; the outputs land in `outs` for checking outside the stopwatch.
pub fn run_cycle(
    engine: &Engine,
    plan: &Plan,
    cycle: usize,
    outs: &mut Vec<QueryOutput>,
) -> Result<Duration, gsql_core::Error> {
    outs.clear();
    let started = Instant::now();
    for call in &plan.cycles[cycle] {
        outs.push(engine.run_prepared(&plan.stmts[call.stmt].prepared, &call.args)?);
    }
    Ok(started.elapsed())
}

fn in_process(def: &Def, load: Load) -> Outcome {
    let Built { graph, .. } = workload::build_graph(def.graph);
    let plan = load.plan(def, &graph);
    let oracle = workload::oracle(&graph, &plan, def.oracle_stride);
    let engine = Engine::new(&graph).with_parallelism(def.parallelism);
    let mut out = Outcome {
        setup_s: load.started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    if load.setup_only {
        return out;
    }

    let mut outs = Vec::new();
    let n = plan.cycles.len();
    let warmup = load.warmup_cycles(def);
    for i in 0..warmup {
        let _ = run_cycle(&engine, &plan, i % n, &mut outs);
    }
    // The op clock counts engine time only: rendering and comparing the
    // outputs happens between ops and is not part of any of them.
    let mut busy = 0.0;
    let mut i = warmup;
    while busy < load.seconds {
        let cycle = i % n;
        i += 1;
        out.attempted += 1;
        match run_cycle(&engine, &plan, cycle, &mut outs) {
            Ok(wall) => {
                busy += wall.as_secs_f64();
                out.read_ms.push(wall.as_secs_f64() * 1e3);
                let correct = match &oracle[cycle] {
                    Some(expected) => {
                        out.verified += 1;
                        outs.iter()
                            .map(workload::render)
                            .eq(expected.iter().cloned())
                    }
                    None => true,
                };
                if correct {
                    out.primary_ops += 1;
                } else {
                    out.fail("result-differs-from-oracle");
                }
            }
            Err(e) => {
                eprintln!("gsqlbench: {} cycle {cycle} failed: {e}", def.name);
                out.fail("engine-error");
                busy += 1e-3;
            }
        }
    }
    out.wall_s = busy;
    out
}

// ---- served workloads ------------------------------------------------------

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process server")
}

/// Registers every non-ad-hoc statement with `/prepare` and returns the
/// request line and body of every call of the walk.
pub fn prepare_wire(addr: SocketAddr, plan: &Plan) -> Vec<Vec<Wire>> {
    let mut client = connect(addr);
    let ids: Vec<Option<String>> = plan
        .stmts
        .iter()
        .map(|s| {
            (!s.adhoc).then(|| {
                let body = format!(r#"{{"query":{}}}"#, workload::json_string(&s.text));
                let resp = client
                    .post_json("/prepare", &[], &body)
                    .expect("POST /prepare");
                assert_eq!(resp.status, 200, "/prepare {} refused", s.name);
                resp.json()
                    .ok()
                    .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
                    .expect("/prepare returns an id")
            })
        })
        .collect();
    workload::wire(plan, &ids)
}

/// Whether a 200 response carries exactly `expected` under `"result"`.
/// The fast path compares the raw bytes after the key; only a layout the
/// fast path does not recognise pays for a parse.
pub fn result_matches(body: &[u8], expected: &str) -> bool {
    const KEY: &[u8] = b"\"result\":";
    if let Some(at) = body.windows(KEY.len()).position(|w| w == KEY) {
        let rest = &body[at + KEY.len()..];
        if rest.starts_with(expected.as_bytes())
            && matches!(rest.get(expected.len()), Some(b',') | Some(b'}'))
        {
            return true;
        }
    }
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| gsql_serve::json::parse(t).ok())
        .and_then(|j| j.get("result").map(|r| r.to_string() == expected))
        .unwrap_or(false)
}

/// One connection's closed loop over cycles `first, first + step, ...`
/// until `stop` says so. Every request is one op.
fn read_loop(
    addr: SocketAddr,
    wire: &[Vec<Wire>],
    oracle: &[Option<Vec<String>>],
    first: usize,
    step: usize,
    origin: Instant,
    stop: impl Fn() -> bool,
) -> (Outcome, Vec<f64>) {
    let mut client = connect(addr);
    let mut out = Outcome::default();
    let mut sent_at = Vec::new();
    let mut i = first;
    'walk: loop {
        let cycle = i % wire.len();
        i += step;
        for (call, w) in wire[cycle].iter().enumerate() {
            if stop() {
                break 'walk;
            }
            out.attempted += 1;
            let t0 = Instant::now();
            let resp = client.post_json(&w.path, &[], &w.body);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match resp {
                Ok(r) if r.status == 200 => {
                    out.read_ms.push(ms);
                    sent_at.push((t0 - origin).as_secs_f64());
                    if let Some(expected) = &oracle[cycle] {
                        out.verified += 1;
                        if !result_matches(&r.body, &expected[call]) {
                            out.fail("result-differs-from-oracle");
                        }
                    }
                }
                Ok(r) if r.status == 429 || r.status == 503 => out.fail("shed"),
                Ok(_) => out.fail("non-2xx"),
                Err(_) => {
                    out.fail("connection-lost");
                    client = connect(addr);
                }
            }
        }
    }
    (out, sent_at)
}

/// `admitted = completed + failed + cancelled` must hold once the
/// clients are quiet.
pub fn metrics_reconcile(addr: SocketAddr) -> Result<Json, String> {
    let m = connect(addr)
        .get("/metrics")
        .map_err(|e| e.to_string())?
        .json()?;
    let get = |k: &str| {
        m.get(k)
            .and_then(Json::as_i64)
            .ok_or(format!("/metrics lacks `{k}`"))
    };
    let (admitted, settled) = (
        get("admitted")?,
        get("completed")? + get("failed")? + get("cancelled")?,
    );
    if admitted != settled {
        return Err(format!(
            "admitted {admitted} != completed + failed + cancelled {settled}"
        ));
    }
    Ok(m)
}

fn served(def: &Def, load: Load) -> Outcome {
    let Built { graph, .. } = workload::build_graph(def.graph);
    let plan = load.plan(def, &graph);
    let oracle = workload::oracle(&graph, &plan, def.oracle_stride);
    let cfg = ServerConfig {
        workers: 2,
        parallelism: def.parallelism,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, LiveGraph::in_memory(graph)).expect("start the server");
    let addr = server.local_addr();
    let wire = prepare_wire(addr, &plan);
    let mut out = Outcome {
        setup_s: load.started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    if load.setup_only {
        server.shutdown();
        return out;
    }

    let origin = Instant::now();
    let warmup = load.warmup_cycles(def);
    let budget = std::cell::Cell::new(warmup * wire[0].len());
    let (warm, _) = read_loop(addr, &wire, &oracle, 0, 1, origin, || {
        budget.set(budget.get().saturating_sub(1));
        budget.get() == 0
    });
    for (k, n) in warm.failures {
        *out.failures.entry(format!("warmup-{k}")).or_default() += n;
    }

    // All load comes from this process: min(nproc, 2) connections.
    let connections = host::nproc().min(2);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(load.seconds);
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (wire, oracle) = (&wire, &oracle);
                s.spawn(move || {
                    let first = warmup + c;
                    read_loop(addr, wire, oracle, first, connections, origin, || {
                        Instant::now() >= deadline
                    })
                    .0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    for part in parts {
        out.absorb(part);
    }
    if let Err(e) = metrics_reconcile(addr) {
        eprintln!("gsqlbench: {}: /metrics does not reconcile: {e}", def.name);
        out.fail("metrics-do-not-reconcile");
    }
    server.shutdown();
    out.primary_ops = out.attempted - out.failed().min(out.attempted);
    out
}

// ---- mutate_beside_reads ---------------------------------------------------

const VERIFY: &str = r#"
CREATE QUERY Verify () {
  SELECT q AS v, q.id AS pid, q.lastName AS tag, q.browser AS browser INTO People
  FROM Person:q
  ORDER BY q.id ASC;
  SELECT q.id AS pid, f.id AS fid INTO Added
  FROM Person:q -(Knows)- Person:f
  WHERE q.firstName == "bench"
  ORDER BY q.id ASC, f.id ASC;
}
"#;

/// `People` and `Added` rows of `graph`.
fn verify_tables(graph: &Graph) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let out = Engine::new(graph)
        .with_parallelism(1)
        .run_text(VERIFY, &[])
        .expect("the durability check query runs");
    let rows = |name: &str| {
        out.tables
            .get(name)
            .map(|t| t.rows.clone())
            .unwrap_or_default()
    };
    (rows("People"), rows("Added"))
}

/// The tables [`verify_tables`] must return once `acked` batches are
/// applied to a graph whose tables were `base`.
fn expected_tables(
    base: Vec<Vec<Value>>,
    first_new_vertex: usize,
    acked: &[(usize, workload::Batch)],
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut people = base;
    let mut added = Vec::new();
    let row_of = |people: &[Vec<Value>], v: &Value| {
        people
            .iter()
            .position(|r| &r[0] == v)
            .expect("reserved vertex is a person")
    };
    for (nth, (k, batch)) in acked.iter().enumerate() {
        let pid = Value::Int(workload::INSERTED_ID_BASE + *k as i64);
        let mut friends: Vec<Value> = ["f1", "f2"]
            .iter()
            .map(|name| {
                let v = &batch
                    .args
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("batch arg")
                    .1;
                people[row_of(&people, v)][1].clone()
            })
            .collect();
        friends.sort();
        added.extend(friends.into_iter().map(|f| vec![pid.clone(), f]));
        let at = row_of(&people, &Value::Vertex(batch.updated));
        people[at][3] = Value::from(batch.tag.as_str());
        people.push(vec![
            Value::Vertex(VertexId((first_new_vertex + nth) as u32)),
            pid,
            Value::from(batch.tag.as_str()),
            Value::from("Firefox"),
        ]);
    }
    (people, added)
}

/// Opens a durable graph in `dir` the way `gsql-serve --data-dir` does.
pub fn open_durable(dir: &Path, seed_graph: Graph, checkpoint_every: u64) -> LiveGraph {
    LiveGraph::open(dir, seed_graph, FlushPolicy::Always, checkpoint_every)
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
        .0
}

/// An empty graph of `like`'s schema: the seed argument of a reopen,
/// which ignores it because the directory's state wins.
pub fn empty_like(like: &Graph) -> Graph {
    GraphBuilder::new(like.schema().clone()).build()
}

/// Posts one write batch; `Ok` when the server acknowledged it durable.
pub fn post_batch(client: &mut Client, text: &str, batch: &workload::Batch) -> Result<(), String> {
    let body = format!(
        r#"{{"query":{},"args":{}}}"#,
        workload::json_string(text),
        workload::params_json(&batch.args)
    );
    let resp = client
        .post_json("/mutate", &[], &body)
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let j = resp.json()?;
    let m = j.get("mutation").ok_or("no `mutation` section")?;
    match (m.get("durable"), m.get("ops").and_then(Json::as_i64)) {
        (Some(Json::Bool(true)), Some(4)) => Ok(()),
        other => Err(format!("not acknowledged durable with 4 ops: {other:?}")),
    }
}

fn mutate_beside_reads(def: &Def, load: Load) -> Outcome {
    let Built { graph, .. } = workload::build_graph(def.graph);
    let plan = load.plan(def, &graph);
    let oracle = workload::oracle(&graph, &plan, def.oracle_stride);
    let (base_people, _) = verify_tables(&graph);
    let (vertices, edges) = (graph.vertex_count(), graph.edge_count());
    let empty = empty_like(&graph);
    let dir = host::scratch_dir(def.name);
    let cfg = ServerConfig {
        workers: 2,
        parallelism: def.parallelism,
        data_dir: Some(dir.clone()),
        wal_fsync: FlushPolicy::Always,
        ..ServerConfig::default()
    };
    let live = open_durable(&dir, graph, cfg.checkpoint_every);
    let server = Server::start(cfg, live).expect("start the server");
    let addr = server.local_addr();
    let wire = prepare_wire(addr, &plan);
    let mut out = Outcome {
        setup_s: load.started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    if load.setup_only {
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }

    let origin = Instant::now();
    let done = AtomicBool::new(false);
    // (batch number, batch) of every acknowledged write, in commit order.
    let mut acked: Vec<(usize, workload::Batch)> = Vec::new();
    let mut window = (0.0, 0.0);
    let (mut reads, sent_at) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_loop(addr, &wire, &oracle, 0, 1, origin, || {
                done.load(Ordering::Relaxed)
            })
        });
        let mut client = connect(addr);
        let text = &plan.writes.stmt.text;
        let warmup = load.warmup_cycles(def) / 10;
        let mut k = 0;
        let mut deadline = None;
        loop {
            if k == warmup {
                window.0 = origin.elapsed().as_secs_f64();
                deadline = Some(Instant::now() + Duration::from_secs_f64(load.seconds));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let batch = plan.writes.batch(k, acked.len());
            let t0 = Instant::now();
            let result = post_batch(&mut client, text, &batch);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if deadline.is_some() {
                out.attempted += 1;
                out.write_ms.push(ms);
            }
            match result {
                Ok(()) => {
                    acked.push((k, batch));
                    out.primary_ops += u64::from(deadline.is_some());
                }
                Err(e) => {
                    eprintln!("gsqlbench: {}: batch {k} refused: {e}", def.name);
                    out.fail("mutate-not-acknowledged");
                }
            }
            k += 1;
        }
        window.1 = origin.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    out.wall_s = window.1 - window.0;

    // Reads count from the moment the timed writes start.
    if reads.attempted == 0 {
        out.fail("reader-never-ran");
    }
    let mut sent_at = sent_at.iter();
    reads
        .read_ms
        .retain(|_| sent_at.next().is_some_and(|&at| at >= window.0));
    out.absorb(reads);

    if let Err(e) = metrics_reconcile(addr) {
        eprintln!("gsqlbench: {}: /metrics does not reconcile: {e}", def.name);
        out.fail("metrics-do-not-reconcile");
    }
    // Stop the server without the final checkpoint a clean drain would
    // write, and recover from the directory alone: every acknowledged
    // write must be there.
    server.shutdown();
    let recovered = open_durable(&dir, empty, 0).snapshot_pinned().0;
    let expected = expected_tables(base_people, vertices, &acked);
    if recovered.vertex_count() != vertices + acked.len()
        || recovered.edge_count() != edges + 2 * acked.len()
        || verify_tables(&recovered) != expected
    {
        eprintln!(
            "gsqlbench: {}: reopened graph lacks acknowledged writes ({} acked, {} vertices, {} edges)",
            def.name,
            acked.len(),
            recovered.vertex_count(),
            recovered.edge_count()
        );
        out.fail("acknowledged-write-missing-after-reopen");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    out
}
