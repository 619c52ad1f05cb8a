//! The traced pass (`--trace 1`): per-layer metrics for one workload.
//!
//! Three parts. (1) The workload's own cycles, first untraced through
//! `run_prepared`, then through `run_profiled` with a span around every
//! call and the operator tree below it — the `exec.*` and `trace.*`
//! metrics. (2) The same cycles over HTTP against a durable probe server
//! on one connection, then write batches — `server.*`, `json.*`,
//! `plan_cache.*`, `admission.*`. (3) Probes that call one layer
//! directly: front end, graph, WAL, and the two fixed paper shapes
//! (`Q_n` on a 2000-diamond chain, `Q_gs` over `Q_acc`). Every workload
//! measures every metric, on its own graph and statements where the
//! metric depends on them.

use crate::e2e::{self, run_cycle};
use crate::host;
use crate::stats::{self, median, median_us};
use crate::trace::Trace;
use crate::workload::{self, Built, Def, GraphKind, Plan};
use gsql_core::{
    lexer, lint_query, parse_query, Engine, PathSemantics, PreparedQuery, QueryOutput,
};
use gsql_serve::client::Client;
use gsql_serve::json::{self, Json};
use gsql_serve::{Server, ServerConfig};
use ldbc_snb::queries;
use pgraph::generators::diamond_chain;
use pgraph::wal::{FlushPolicy, LiveGraph};
use pgraph::{Graph, Value};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// How much work the probes do: the frozen counts, or 1/16 of them for
/// `--smoke`.
#[derive(Clone, Copy)]
struct Scale {
    cycles: usize,
    reps: usize,
    commits: usize,
}

/// What the traced pass produced.
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
    /// Self-time share of the op per layer, for the "does this workload
    /// stress the layer it was chosen for" check.
    pub shares: Vec<(String, f64)>,
    pub trace: Trace,
}

impl Layers {
    /// A metric measured so far; 0 when its probe failed before it.
    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn fail(&mut self, what: &str) {
        eprintln!("gsqlbench: traced pass: {what}");
        *self.failures.entry(what.to_string()).or_default() += 1;
    }
}

const MATCH_OPS: &[&str] = &[
    "op.scan",
    "op.hop",
    "op.sargable-anchor",
    "op.pushdown-filter",
    "op.residual-filter",
];
// One bucket, because a statement without POST_ACCUM has no such
// operator and a timing that is 0 on every run reads as not measured.
const POST_ACCUM_OUTPUT_OPS: &[&str] = &["op.post-accum", "op.group-by", "op.output"];

fn result_rows(out: &QueryOutput) -> u64 {
    let tables: usize = out.tables.values().map(|t| t.rows.len()).sum();
    (tables + out.prints.len() + usize::from(out.returned.is_some())) as u64
}

pub fn run(def: &Def, seed: u64, smoke: bool) -> Layers {
    let div = if smoke { 16 } else { 1 };
    let scale = Scale {
        cycles: (def.trace_cycles / div).max(2),
        reps: (200 / div).max(3),
        commits: (100 / div).max(3),
    };
    let mut l = Layers {
        metrics: BTreeMap::new(),
        attempted: 0,
        failures: BTreeMap::new(),
        shares: Vec::new(),
        trace: Trace::start(),
    };

    let Built {
        graph,
        build_ms,
        rss_delta,
    } = workload::build_graph(def.graph);
    let plan = workload::plan(def, &graph, seed);
    let edges = graph.edge_count().max(1) as f64;
    l.metrics.insert("graph.build_ms", build_ms);
    l.metrics
        .insert("graph.bytes_per_edge", rss_delta as f64 / edges);
    l.metrics
        .insert("graph.clone_ms", median_us(9, || graph.clone()) / 1e3);

    let cycles = scale.cycles.min(plan.cycles.len());
    let (untraced_ms, reference) = untraced_cycles(def, &graph, &plan, cycles, def.parallelism);
    let Some(reference) = reference else {
        l.fail("untraced-cycle-failed");
        return l;
    };
    let cycle_ms = traced_cycles(
        &mut l,
        def,
        &graph,
        &plan,
        &reference,
        median(untraced_ms.clone()),
    );

    let other = if def.parallelism == 1 { 2 } else { 1 };
    let (other_ms, _) = untraced_cycles(def, &graph, &plan, cycles, other);
    let (p1, p2) = if def.parallelism == 1 {
        (median(untraced_ms), median(other_ms))
    } else {
        (median(other_ms), median(untraced_ms))
    };
    l.metrics.insert("exec.par2_speedup", p1 / p2);

    front_end(&mut l, &graph, &plan, scale);
    let request_ms = served_probe(&mut l, def, &plan, &reference, scale);
    json_probe(&mut l, &graph, &plan, scale);
    if let Err(e) = wal_probe(&mut l, def, seed, scale) {
        l.fail(&format!("wal-probe-failed: {e}"));
    }
    fixed_shapes(&mut l, scale);

    // Shares of the op each layer's self time takes. In-process ops are
    // cycles; served ops are requests (reads) and write batches.
    let (request_us, write_us) = (request_ms * 1e3, l.metric("server.mutate_p50_us"));
    let folding = l.metric("exec.accum_ms") + l.metric("exec.post_accum_output_ms");
    l.shares = [
        (
            "exec.match_ms / cycle",
            l.metric("exec.match_ms") / cycle_ms,
        ),
        (
            "exec.accum_ms + exec.post_accum_output_ms / cycle",
            folding / cycle_ms,
        ),
        (
            "exec.other_ms / cycle",
            l.metric("exec.other_ms") / cycle_ms,
        ),
        (
            "server.overhead_us / request",
            l.metric("server.overhead_us") / request_us,
        ),
        (
            "wal.commit_memory_us / write batch",
            l.metric("wal.commit_memory_us") / write_us,
        ),
        (
            "wal.append_fsync_us / write batch",
            l.metric("wal.append_fsync_us") / write_us,
        ),
    ]
    .map(|(what, share)| (what.to_string(), share))
    .to_vec();
    l
}

/// Runs cycles `0..cycles` untraced at `parallelism` (after one warm-up
/// walk over the first few) and returns each cycle's wall time in ms and
/// the rendered outputs, or `None` for the outputs if a cycle failed.
fn untraced_cycles(
    def: &Def,
    graph: &Graph,
    plan: &Plan,
    cycles: usize,
    parallelism: usize,
) -> (Vec<f64>, Option<Vec<Vec<String>>>) {
    let engine = Engine::new(graph).with_parallelism(parallelism);
    let mut outs = Vec::new();
    for c in 0..cycles.min(def.warmup_cycles) {
        let _ = run_cycle(&engine, plan, c, &mut outs);
    }
    let mut walls = Vec::with_capacity(cycles);
    let mut rendered = Some(Vec::with_capacity(cycles));
    for c in 0..cycles {
        match run_cycle(&engine, plan, c, &mut outs) {
            Ok(wall) => {
                walls.push(wall.as_secs_f64() * 1e3);
                if let Some(r) = rendered.as_mut() {
                    r.push(outs.iter().map(workload::render).collect());
                }
            }
            Err(e) => {
                eprintln!("gsqlbench: {} cycle {c} failed: {e}", def.name);
                walls.push(0.0);
                rendered = None;
            }
        }
    }
    (walls, rendered)
}

/// The traced cycles: `op` ⊃ `exec.run` per statement ⊃ operator spans.
/// Returns the median traced cycle time in ms.
fn traced_cycles(
    l: &mut Layers,
    def: &Def,
    graph: &Graph,
    plan: &Plan,
    reference: &[Vec<String>],
    untraced_p50_ms: f64,
) -> f64 {
    let engine = Engine::new(graph).with_parallelism(def.parallelism);
    let cycles = reference.len();
    let (mut edges, mut rows, mut accs, mut kernels, mut morsels, mut results) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut peak_accum = 0u64;
    let mut root_ns = 0u64;
    let mut walls = Vec::with_capacity(cycles);
    for (c, expected) in reference.iter().enumerate() {
        let op_id = c as u64;
        let op_start = l.trace.now();
        let op = l.trace.push("op", op_start, op_start, None, op_id);
        for (call, expected) in plan.cycles[c].iter().zip(expected) {
            l.attempted += 1;
            let stmt = &plan.stmts[call.stmt];
            let t0 = l.trace.now();
            let result = engine.run_profiled(stmt.prepared.query(), &call.args);
            let t1 = l.trace.now();
            let run = l.trace.push("exec.run", t0, t1, Some(op), op_id);
            match result {
                Ok((out, profile)) => {
                    l.trace.push_profile(&profile.root, t0, run, op_id);
                    root_ns += profile.root.wall.as_nanos() as u64;
                    edges += profile.root.edges_scanned;
                    accs += profile.root.acc_executions;
                    kernels += profile.root.kernel_calls;
                    morsels += profile.root.morsels;
                    rows += out.report.rows_materialized;
                    peak_accum = peak_accum.max(out.report.peak_accum_bytes);
                    results += result_rows(&out);
                    if workload::render(&out) != *expected {
                        l.fail("traced-result-differs-from-untraced");
                    }
                }
                Err(e) => l.fail(&format!("traced-run-failed: {e}")),
            }
        }
        let op_end = l.trace.now();
        l.trace.spans[op].end_ns = op_end;
        walls.push((op_end - op_start) as f64 / 1e6);
    }

    let own = l.trace.self_ns();
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| own.get(*n).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let (matching, accum, finish) = (
        sum(MATCH_OPS),
        sum(&["op.accum"]),
        sum(POST_ACCUM_OUTPUT_OPS),
    );
    let run_ns = l.trace.total_ns("exec.run");
    let op_ns = l.trace.total_ns("op");
    let per_cycle_ms = |ns: u64| ns as f64 / 1e6 / cycles as f64;
    let per_cycle = |n: u64| n as f64 / cycles as f64;
    l.metrics.insert("exec.match_ms", per_cycle_ms(matching));
    l.metrics.insert("exec.accum_ms", per_cycle_ms(accum));
    l.metrics
        .insert("exec.post_accum_output_ms", per_cycle_ms(finish));
    l.metrics.insert(
        "exec.other_ms",
        per_cycle_ms(run_ns.saturating_sub(matching + accum + finish)),
    );
    l.metrics.insert("exec.edges_scanned", per_cycle(edges));
    l.metrics.insert("exec.rows_materialized", per_cycle(rows));
    l.metrics.insert("exec.acc_executions", per_cycle(accs));
    l.metrics.insert("exec.kernel_calls", per_cycle(kernels));
    l.metrics.insert("exec.morsels", per_cycle(morsels));
    l.metrics.insert("exec.peak_accum_bytes", peak_accum as f64);
    let rate = |n: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            n as f64 * 1e3 / ns as f64
        }
    };
    l.metrics
        .insert("exec.scan_medges_s", rate(edges, matching));
    l.metrics.insert("exec.fold_mrows_s", rate(accs, accum));
    l.metrics
        .insert("exec.rows_per_result", rows as f64 / results.max(1) as f64);
    let traced_p50_ms = median(walls);
    l.metrics
        .insert("trace.overhead_ratio", traced_p50_ms / untraced_p50_ms);
    l.metrics.insert(
        "trace.unattributed_share",
        1.0 - root_ns as f64 / op_ns.max(1) as f64,
    );
    traced_p50_ms
}

/// Lex, parse, lint, prepare and plan of every statement text of the
/// cycle: median of `reps` each, summed over the statements.
fn front_end(l: &mut Layers, graph: &Graph, plan: &Plan, scale: Scale) {
    let engine = Engine::new(graph);
    let (mut lex, mut parse, mut lint, mut prepare, mut lower) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in plan.stmts.iter().filter(|s| !s.adhoc) {
        let query = s.prepared.query();
        lex += median_us(scale.reps, || lexer::lex(&s.text));
        parse += median_us(scale.reps, || parse_query(&s.text));
        lint += median_us(scale.reps, || {
            lint_query(query, PathSemantics::AllShortestPaths)
        });
        prepare += median_us(scale.reps, || PreparedQuery::prepare(&s.text));
        lower += median_us(scale.reps, || engine.plan(query));
    }
    l.metrics.insert("lexer.lex_us", lex);
    l.metrics.insert("parser.parse_us", parse);
    l.metrics.insert("lint.check_us", lint);
    l.metrics.insert("prepared.prepare_us", prepare);
    l.metrics.insert("plan.lower_us", lower);
}

/// The cycles over HTTP: `request` ⊃ `server.engine` (the response's
/// `elapsed_us`), one connection, a durable server; then write batches.
/// Returns the median read round trip in ms.
fn served_probe(
    l: &mut Layers,
    def: &Def,
    plan: &Plan,
    reference: &[Vec<String>],
    scale: Scale,
) -> f64 {
    let graph = workload::build_graph(def.graph).graph;
    let dir = host::scratch_dir("probe-server");
    let cfg = ServerConfig {
        workers: 2,
        parallelism: def.parallelism,
        data_dir: Some(dir.clone()),
        wal_fsync: FlushPolicy::Always,
        ..ServerConfig::default()
    };
    let live = e2e::open_durable(&dir, graph, cfg.checkpoint_every);
    let server = Server::start(cfg, live).expect("start the probe server");
    let addr = server.local_addr();
    let wire = e2e::prepare_wire(addr, plan);
    let mut client = Client::connect(addr).expect("connect to the probe server");

    let (mut round_trip_us, mut engine_us, mut overhead_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut shed = 0u64;
    let mut requests = 0u64;
    // A first walk over two cycles warms the plan cache and the
    // statements' plan slots.
    for w in wire.iter().take(2).flatten() {
        let _ = client.post_json(&w.path, &[], &w.body);
    }
    for (c, expected) in reference.iter().enumerate() {
        for (w, expected) in wire[c].iter().zip(expected) {
            let t0 = l.trace.now();
            let resp = client.post_json(&w.path, &[], &w.body);
            let t1 = l.trace.now();
            requests += 1;
            l.attempted += 1;
            let op_id = 1_000_000 + requests;
            match resp {
                Ok(r) if r.status == 200 => {
                    let elapsed = r
                        .json()
                        .ok()
                        .and_then(|j| j.get("elapsed_us").and_then(Json::as_f64));
                    let Some(elapsed) = elapsed else {
                        l.fail("response-lacks-elapsed_us");
                        continue;
                    };
                    let request = l.trace.push("request", t0, t1, None, op_id);
                    let engine_ns = ((elapsed * 1e3) as u64).min(t1 - t0);
                    l.trace
                        .push("server.engine", t0, t0 + engine_ns, Some(request), op_id);
                    let total = (t1 - t0) as f64 / 1e3;
                    round_trip_us.push(total);
                    engine_us.push(elapsed);
                    overhead_us.push(total - elapsed);
                    if !e2e::result_matches(&r.body, expected) {
                        l.fail("served-result-differs-from-local-engine");
                    }
                }
                Ok(r) if r.status == 429 || r.status == 503 => {
                    shed += 1;
                    l.fail("shed");
                }
                Ok(r) => l.fail(&format!("served-status-{}", r.status)),
                Err(e) => {
                    l.fail(&format!("connection-lost: {e}"));
                    client = Client::connect(addr).expect("reconnect to the probe server");
                }
            }
        }
    }
    stats::sort(&mut round_trip_us);
    let request_ms = stats::quantile(&round_trip_us, 0.5) / 1e3;
    // The mean: `elapsed_us` is a whole number of microseconds, and the
    // median of whole numbers reads the same run after run.
    l.metrics.insert(
        "server.engine_us",
        engine_us.iter().sum::<f64>() / engine_us.len().max(1) as f64,
    );
    l.metrics.insert("server.overhead_us", median(overhead_us));
    l.metrics.insert(
        "server.latency_p99_ms",
        stats::quantile(&round_trip_us, 0.99) / 1e3,
    );
    l.metrics
        .insert("admission.shed_share", shed as f64 / requests.max(1) as f64);

    let mut write_us = Vec::with_capacity(scale.commits);
    let mut committed = 0;
    for k in 0..scale.commits + 2 {
        let batch = plan.writes.batch(k, committed);
        let t0 = Instant::now();
        let result = e2e::post_batch(&mut client, &plan.writes.stmt.text, &batch);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        l.attempted += 1;
        match result {
            Ok(()) => committed += 1,
            Err(e) => l.fail(&format!("mutate-not-acknowledged: {e}")),
        }
        // The first two batches parse the text and lower the plan.
        if k >= 2 {
            write_us.push(us);
        }
    }
    stats::sort(&mut write_us);
    l.metrics
        .insert("server.mutate_p50_us", stats::quantile(&write_us, 0.5));
    l.metrics
        .insert("server.mutate_p90_us", stats::quantile(&write_us, 0.9));

    match e2e::metrics_reconcile(addr) {
        Ok(m) => {
            let get = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (hits, misses) = (get("plan_cache_hits"), get("plan_cache_misses"));
            l.metrics
                .insert("plan_cache.hit_ratio", hits / (hits + misses).max(1.0));
        }
        Err(e) => l.fail(&format!("metrics-do-not-reconcile: {e}")),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    request_ms
}

/// `json.serialize_us`: the result writer over one cycle's outputs.
/// `json.parse_us`: the parser over the same cycle's request bodies,
/// which is what the server parses per request.
fn json_probe(l: &mut Layers, graph: &Graph, plan: &Plan, scale: Scale) {
    let engine = Engine::new(graph).with_parallelism(1);
    let mut outs = Vec::new();
    if run_cycle(&engine, plan, 0, &mut outs).is_err() {
        l.fail("json-probe-cycle-failed");
    }
    l.metrics.insert(
        "json.serialize_us",
        median_us(scale.reps, || {
            outs.iter()
                .map(|o| workload::render(o).len())
                .sum::<usize>()
        }),
    );
    let bodies: Vec<String> = workload::wire(plan, &vec![Some("0".to_string()); plan.stmts.len()])
        .swap_remove(0)
        .into_iter()
        .map(|w| w.body)
        .collect();
    l.metrics.insert(
        "json.parse_us",
        median_us(scale.reps, || {
            bodies.iter().filter(|b| json::parse(b).is_ok()).count()
        }),
    );
}

/// Times `commits` direct `LiveGraph::commit` calls of the graph's write
/// batch on each of `lives`, alternating between them batch by batch so
/// drift hits all alike. The ops are produced outside the stopwatch, by
/// running the write statement on the first graph's pinned snapshot (all
/// start equal and receive the same batches). Returns the samples in µs,
/// one vector per graph.
fn commit_samples(
    lives: &[&LiveGraph],
    writes: &workload::Writes,
    commits: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut samples = vec![Vec::with_capacity(commits); lives.len()];
    for k in 0..commits {
        let (snapshot, _) = lives[0].snapshot_pinned();
        let ops = Engine::new(&snapshot)
            .with_parallelism(1)
            .run_prepared(&writes.stmt.prepared, &writes.batch(k, k).args)
            .map_err(|e| e.to_string())?
            .mutations;
        drop(snapshot);
        for (live, samples) in lives.iter().zip(&mut samples) {
            let t0 = Instant::now();
            live.commit(&ops).map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(samples)
}

/// Median in-memory commit cost in µs on a freshly built graph, and the
/// graph's edge count.
fn memory_commit_us(
    kind: GraphKind,
    sf: f64,
    seed: u64,
    commits: usize,
) -> Result<(f64, usize), String> {
    let graph = workload::build_graph_at(kind, sf).graph;
    let edges = graph.edge_count();
    let writes = workload::writes(kind, &graph, seed);
    let live = LiveGraph::in_memory(graph);
    let samples = commit_samples(&[&live], &writes, commits)?.swap_remove(0);
    Ok((median(samples), edges))
}

/// The `wal.*` metrics: direct commits on this workload's graph, durable
/// beside in-memory, then reopen, checkpoints, pins and the commit slope.
fn wal_probe(l: &mut Layers, def: &Def, seed: u64, scale: Scale) -> Result<(), String> {
    let graph = workload::build_graph(def.graph).graph;
    let (vertices, edges, empty) = (
        graph.vertex_count(),
        graph.edge_count(),
        e2e::empty_like(&graph),
    );
    let writes = workload::writes(def.graph, &graph, seed);
    let dir = host::scratch_dir("probe-wal");
    // No automatic checkpoints: every commit stays in the log, so the
    // reopen below replays all of them.
    let memory = LiveGraph::in_memory(graph.clone());
    let durable = e2e::open_durable(&dir, graph, 0);
    let counters = |live: &LiveGraph| {
        let s = live.stats();
        (
            s.bytes.load(Ordering::Relaxed),
            s.fsyncs.load(Ordering::Relaxed),
        )
    };
    let before = counters(&durable);
    let samples = commit_samples(&[&durable, &memory], &writes, scale.commits)?;
    let after = counters(&durable);
    drop(memory);
    l.attempted += 2 * scale.commits as u64;
    let (durable_us, memory_us) = (median(samples[0].clone()), median(samples[1].clone()));
    l.metrics.insert("wal.commit_durable_us", durable_us);
    l.metrics.insert("wal.commit_memory_us", memory_us);
    // Append + fsync is what the durable commit pays on top of the same
    // commit in memory: the median of the pairwise differences.
    l.metrics.insert(
        "wal.append_fsync_us",
        median(
            samples[0]
                .iter()
                .zip(&samples[1])
                .map(|(d, m)| d - m)
                .collect(),
        ),
    );
    l.metrics.insert(
        "wal.bytes_per_op",
        (after.0 - before.0) as f64 / (scale.commits * 4) as f64,
    );
    l.metrics.insert(
        "wal.fsyncs_per_commit",
        (after.1 - before.1) as f64 / scale.commits as f64,
    );
    drop(durable);

    let t0 = Instant::now();
    let live = e2e::open_durable(&dir, empty, 0);
    l.metrics
        .insert("wal.recovery_ms", t0.elapsed().as_secs_f64() * 1e3);
    if live.snapshot_pinned().0.vertex_count() != vertices + scale.commits {
        l.fail("wal-probe-reopen-lacks-commits");
    }
    let mut checkpoint_error = None;
    let checkpoint_us = median_us(3, || {
        if let Err(e) = live.checkpoint_now() {
            checkpoint_error = Some(e.to_string());
        }
    });
    if let Some(e) = checkpoint_error {
        return Err(e);
    }
    l.metrics.insert("wal.checkpoint_ms", checkpoint_us / 1e3);
    l.metrics.insert(
        "wal.snapshot_pin_ns",
        median_us(scale.reps, || {
            (0..1000).map(|_| live.snapshot_pinned().1).sum::<u64>()
        }),
    );
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);

    // The O(graph) term of a commit: the same batch on SNB sf 1 and on
    // sf 0.125, per thousand edges of difference.
    let (large, large_edges) = match def.graph {
        GraphKind::Snb => (memory_us, edges),
        GraphKind::Er => memory_commit_us(GraphKind::Snb, workload::SNB_SF, seed, scale.commits)?,
    };
    let (small, small_edges) =
        memory_commit_us(GraphKind::Snb, workload::SNB_SF_SMALL, seed, scale.commits)?;
    l.metrics.insert(
        "wal.commit_slope_us_per_kedge",
        (large - small) / ((large_edges - small_edges) as f64 / 1e3),
    );
    Ok(())
}

/// `Q_n` (Section 7.1) with a multiplicity-insensitive accumulator: the
/// counting kernel still carries path counts up to 2^2000, but
/// `SumAccum<int>` would refuse a multiplicity beyond 2^63.
const QN_DEEP: &str = r#"
CREATE QUERY QnDeep (string srcName, string tgtName) {
  MaxAccum<int> @reached;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@reached += 1;
  PRINT R[R.name, R.@reached];
}
"#;

/// The two paper shapes every workload records on the same fixed inputs:
/// `Q_n` over a 2000-diamond chain (counting kernel, counts up to
/// 2^2000) and Appendix B's `Q_gs` over `Q_acc` on SNB sf 1.
fn fixed_shapes(l: &mut Layers, scale: Scale) {
    let (chain, _) = diamond_chain(2000);
    let qn = PreparedQuery::prepare(QN_DEEP).expect("Q_n parses");
    let args = [
        ("srcName", Value::from("v0")),
        ("tgtName", Value::from("v2000")),
    ];
    let engine = Engine::new(&chain).with_parallelism(1);
    let mut reached = false;
    let us = median_us(5, || {
        reached = engine
            .run_prepared(&qn, &args)
            .is_ok_and(|out| workload::render(&out).contains("v2000"));
    });
    l.attempted += 1;
    if !reached {
        l.fail("qn-d2000-did-not-reach-the-target");
    }
    l.metrics.insert("semantics.qn_d2000_ms", us / 1e3);

    let snb = workload::build_graph(GraphKind::Snb).graph;
    let engine = Engine::new(&snb).with_parallelism(1);
    let reps = if scale.reps < 200 { 1 } else { 3 };
    let time = |text: String| {
        let q = PreparedQuery::prepare(&text).expect("Appendix B query parses");
        median_us(reps, || {
            engine.run_prepared(&q, &[]).map(|o| o.prints.len())
        })
    };
    let (gs, acc) = (time(queries::q_gs()), time(queries::q_acc()));
    l.metrics.insert("exec.qgs_over_qacc", gs / acc);
}
