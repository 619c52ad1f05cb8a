//! What the benchmark prints and writes: the result line of one run, the
//! `run` subcommand that walks every workload, and `compare`.

use crate::e2e::{Load, Outcome};
use crate::host;
use crate::layers::Layers;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::{self, Def, DEFS};
use gsql_serve::json::{self, write_json, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Per-layer counters that must repeat bit-for-bit for one seed.
pub const EXACT: &[&str] = &[
    "exec.edges_scanned",
    "exec.rows_materialized",
    "exec.acc_executions",
    "exec.kernel_calls",
    "exec.morsels",
    "exec.peak_accum_bytes",
    "wal.bytes_per_op",
    "wal.fsyncs_per_commit",
];

fn metric_obj(values: &BTreeMap<&'static str, f64>, family: &[Metric]) -> Json {
    Json::Obj(
        family
            .iter()
            .map(|m| {
                let value = values
                    .get(m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Double(value)),
                        ("unit".into(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Int(attempted.max(1) as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), metrics),
    ])
}

fn failures_json(failures: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        failures
            .iter()
            .map(|(k, n)| (k.clone(), Json::Int(*n as i64)))
            .collect(),
    )
}

fn graph_params(def: &Def) -> Json {
    let graph = match def.graph {
        workload::GraphKind::Snb => format!(
            "generate_streamed(SnbParams::new({}, {}))",
            workload::SNB_SF,
            workload::GRAPH_SEED
        ),
        workload::GraphKind::Er => format!(
            "erdos_renyi({n}, 4/{n}, {})",
            workload::GRAPH_SEED,
            n = workload::ER_VERTICES
        ),
    };
    Json::Obj(vec![
        ("graph".into(), Json::Str(graph)),
        ("parallelism".into(), Json::Int(def.parallelism as i64)),
        ("oracle_stride".into(), Json::Int(def.oracle_stride as i64)),
        ("warmup_cycles".into(), Json::Int(def.warmup_cycles as i64)),
        ("trace_cycles".into(), Json::Int(def.trace_cycles as i64)),
    ])
}

/// Writes `results/<workload>-seed<N>-trace<T>.json` and prints the
/// result line last.
fn finish(def: &Def, seed: u64, trace: u8, line: Json, details: Vec<(String, Json)>) {
    let mut fields = vec![
        ("host".to_string(), host::stamp(seed)),
        ("workload".to_string(), Json::Str(def.name.to_string())),
        ("params".to_string(), graph_params(def)),
        ("result".to_string(), line.clone()),
    ];
    fields.extend(details);
    let mut doc = String::new();
    write_json(&mut doc, &Json::Obj(fields));
    doc.push('\n');
    let path = host::results_dir().join(format!("{}-seed{seed}-trace{trace}.json", def.name));
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("gsqlbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}

/// This executable again, on `def` and `seed`.
fn self_command(def: &Def, seed: u64, smoke: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", def.name, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Set-up time of `count` fresh processes that stop when ready for
/// their first op.
fn setup_children(def: &Def, load: Load, count: usize) -> Vec<f64> {
    (0..count)
        .filter_map(|_| {
            let out = self_command(def, load.seed, load.smoke)
                .arg("--setup-only")
                .output()
                .ok()?;
            String::from_utf8(out.stdout).ok()?.trim().parse().ok()
        })
        .collect()
}

/// Reports an untraced run: every end-to-end metric.
pub fn end_to_end(def: &Def, load: Load, mut out: Outcome) {
    // Set-up is measured in this process and in two fresh ones; the
    // median of the three is reported. Fresh processes, because a second
    // set-up in this one would start from a warm heap and change the
    // allocator state the timed pass ran in.
    let mut setups = vec![out.setup_s];
    setups.extend(setup_children(def, load, 2));
    let peak_rss_mb = host::peak_rss_mb();

    if out.read_ms.is_empty() {
        *out.failures
            .entry("no-read-op-completed".into())
            .or_default() += 1;
    }
    stats::sort(&mut out.read_ms);
    stats::sort(&mut out.write_ms);
    let mut values = BTreeMap::new();
    values.insert("setup_s", stats::median(setups.clone()));
    values.insert("query_p50_ms", stats::quantile(&out.read_ms, 0.5));
    values.insert("query_p90_ms", stats::quantile(&out.read_ms, 0.9));
    values.insert("ops_s", out.primary_ops as f64 / out.wall_s.max(1e-9));
    values.insert("peak_rss_mb", peak_rss_mb);

    let mut details = vec![
        ("seconds".to_string(), Json::Double(load.seconds)),
        (
            "read_samples".to_string(),
            Json::Int(out.read_ms.len() as i64),
        ),
        ("verified_ops".to_string(), Json::Int(out.verified as i64)),
        ("primary_ops".to_string(), Json::Int(out.primary_ops as i64)),
        ("timed_wall_s".to_string(), Json::Double(out.wall_s)),
        (
            "setup_samples_s".to_string(),
            Json::Arr(setups.into_iter().map(Json::Double).collect()),
        ),
        ("failures".to_string(), failures_json(&out.failures)),
    ];
    if !out.write_ms.is_empty() {
        details.push(("write_samples".into(), Json::Int(out.write_ms.len() as i64)));
        details.push((
            "write_p50_ms".into(),
            Json::Double(stats::quantile(&out.write_ms, 0.5)),
        ));
        details.push((
            "write_p90_ms".into(),
            Json::Double(stats::quantile(&out.write_ms, 0.9)),
        ));
    }
    for (what, n) in &out.failures {
        eprintln!("gsqlbench: {}: {n} x {what}", def.name);
    }
    let line = result_line(out.attempted, out.failed(), metric_obj(&values, END_TO_END));
    finish(def, load.seed, 0, line, details);
}

/// Reports a traced run: every per-layer metric, and the span file.
pub fn per_layer(def: &Def, seed: u64, layers: Layers) {
    let path = host::results_dir().join(format!("trace-{}.json", def.name));
    if let Err(e) = std::fs::write(&path, layers.trace.to_json(def.name)) {
        eprintln!("gsqlbench: cannot write {}: {e}", path.display());
    }
    for (what, share) in &layers.shares {
        eprintln!("gsqlbench: {}: share {what} = {share:.3}", def.name);
    }
    let details = vec![
        (
            "shares".to_string(),
            Json::Obj(
                layers
                    .shares
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Double(*v)))
                    .collect(),
            ),
        ),
        ("failures".to_string(), failures_json(&layers.failures)),
        (
            "spans".to_string(),
            Json::Int(layers.trace.spans.len() as i64),
        ),
    ];
    let failed = layers.failures.values().sum();
    let line = result_line(
        layers.attempted,
        failed,
        metric_obj(&layers.metrics, PER_LAYER),
    );
    finish(def, seed, 1, line, details);
}

// ---- `run`: every workload, both passes -------------------------------------

fn run_child(def: &Def, seed: u64, seconds: f64, trace: u8, smoke: bool) -> Result<Json, String> {
    let out = self_command(def, seed, smoke)
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{} --trace {trace} exited with {}",
            def.name, out.status
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    json::parse(stdout.lines().last().ok_or("no result line")?)
}

/// Runs each workload in a fresh child process, untraced then traced,
/// prints every metric by name with its unit, and writes
/// `results/run-<commit>-seed<N>.json`. Returns whether every op of
/// every workload was correct.
pub fn run_all(seed: u64, seconds: f64, smoke: bool) -> bool {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for def in DEFS {
        let mut entry = vec![];
        for (trace, family) in [(0u8, "end_to_end"), (1, "per_layer")] {
            eprintln!("gsqlbench: {} ({family}) ...", def.name);
            match run_child(def, seed, seconds, trace, smoke) {
                Ok(line) => {
                    let failed = line.get("failed").and_then(Json::as_i64).unwrap_or(1);
                    all_correct &= failed == 0;
                    println!(
                        "{} [{family}] attempted {} failed {failed}",
                        def.name,
                        line.get("attempted").and_then(Json::as_i64).unwrap_or(0)
                    );
                    for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                        println!(
                            "  {name:<32} {:>16} {}",
                            m.get("value").map(Json::to_string).unwrap_or_default(),
                            m.get("unit").and_then(Json::as_str).unwrap_or("")
                        );
                    }
                    entry.push((family.to_string(), line));
                }
                Err(e) => {
                    eprintln!("gsqlbench: {e}");
                    all_correct = false;
                }
            }
        }
        workloads.push((def.name.to_string(), Json::Obj(entry)));
    }
    let doc = Json::Obj(vec![
        ("host".into(), host::stamp(seed)),
        ("seconds".into(), Json::Double(seconds)),
        ("smoke".into(), Json::Bool(smoke)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = host::results_dir().join(format!("run-{}-seed{seed}.json", host::git_commit()));
    let mut text = String::new();
    write_json(&mut text, &doc);
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("gsqlbench: wrote {}", path.display()),
        Err(e) => eprintln!("gsqlbench: cannot write {}: {e}", path.display()),
    }
    all_correct
}

// ---- `compare` ---------------------------------------------------------------

fn load(path: &str) -> Result<Json, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn value_of(doc: &Json, workload: &str, family: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(family)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn clean(doc: &Json, workload: &str, family: &str) -> bool {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(family))
        .and_then(|f| f.get("failed"))
        .and_then(Json::as_i64)
        == Some(0)
}

/// Compares two `run` files, `a` the base: one row per (end-to-end
/// metric, workload) with both values, `b / a`, the bound and a verdict;
/// then the exact counters, which must be equal. `worse` means `b` is
/// worse than `a` by more than the bound; `unresolved` means a value is
/// missing or a run had failed ops, so the numbers do not compare.
/// Returns whether nothing was `worse` and no exact counter differed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut good = true;
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for def in DEFS {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let pair = (
                value_of(&a, def.name, "end_to_end", m.name),
                value_of(&b, def.name, "end_to_end", m.name),
            );
            let verdict = match pair {
                (Some(x), Some(y))
                    if x > 0.0
                        && clean(&a, def.name, "end_to_end")
                        && clean(&b, def.name, "end_to_end") =>
                {
                    let worse = if m.better == "lower" {
                        y > x * (1.0 + bound)
                    } else {
                        y < x * (1.0 - bound)
                    };
                    if worse {
                        good = false;
                        "worse"
                    } else {
                        "ok"
                    }
                }
                _ => "unresolved",
            };
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            let ratio = match pair {
                (Some(x), Some(y)) if x > 0.0 => format!("{:.3}", y / x),
                _ => "-".into(),
            };
            println!(
                "{:<20} {:<14} {:>14} {:>14} {:>9} {:>5.0}%  {verdict}",
                def.name,
                m.name,
                show(pair.0),
                show(pair.1),
                ratio,
                bound * 100.0
            );
        }
    }
    let same_seed =
        a.get("host").and_then(|h| h.get("seed")) == b.get("host").and_then(|h| h.get("seed"));
    for def in DEFS {
        for name in EXACT {
            let pair = (
                value_of(&a, def.name, "per_layer", name),
                value_of(&b, def.name, "per_layer", name),
            );
            let verdict = match pair {
                (Some(_), Some(_)) if !same_seed => "unresolved (seeds differ)",
                (Some(x), Some(y)) if x == y => "equal",
                (Some(_), Some(_)) => {
                    good = false;
                    "differs"
                }
                _ => "unresolved",
            };
            println!(
                "{:<20} {:<28} {:>16} {:>16}  {verdict}",
                def.name,
                name,
                pair.0.map_or("-".into(), |v| v.to_string()),
                pair.1.map_or("-".into(), |v| v.to_string()),
            );
        }
    }
    Ok(good)
}
