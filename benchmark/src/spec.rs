//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root lists the same names; `tests/contract.rs` fails when the two
//! disagree.

/// One metric: `bound` is the share of the parent's median by which an
/// end-to-end metric may get worse (per-layer metrics have none).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload emits every one. The
/// timing bounds are as wide as the contract allows because the host's
/// clock and memory speed move under the benchmark (README, "Why the
/// bounds are 25 %").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("query_p90_ms", "ms", "lower", 0.25),
    e2e("ops_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

/// Single layers, taken in the traced pass (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("graph.build_ms", "ms", "lower"),
    layer("graph.bytes_per_edge", "B/edge", "lower"),
    layer("graph.clone_ms", "ms", "lower"),
    layer("lexer.lex_us", "us", "lower"),
    layer("parser.parse_us", "us", "lower"),
    layer("lint.check_us", "us", "lower"),
    layer("prepared.prepare_us", "us", "lower"),
    layer("plan.lower_us", "us", "lower"),
    layer("exec.match_ms", "ms", "lower"),
    layer("exec.accum_ms", "ms", "lower"),
    layer("exec.post_accum_output_ms", "ms", "lower"),
    layer("exec.other_ms", "ms", "lower"),
    layer("exec.edges_scanned", "count", "lower"),
    layer("exec.rows_materialized", "count", "lower"),
    layer("exec.acc_executions", "count", "lower"),
    layer("exec.kernel_calls", "count", "lower"),
    layer("exec.morsels", "count", "lower"),
    layer("exec.peak_accum_bytes", "B", "lower"),
    layer("exec.scan_medges_s", "Medges/s", "higher"),
    layer("exec.fold_mrows_s", "Mrows/s", "higher"),
    layer("exec.rows_per_result", "ratio", "lower"),
    layer("exec.qgs_over_qacc", "ratio", "higher"),
    layer("exec.par2_speedup", "ratio", "higher"),
    layer("semantics.qn_d2000_ms", "ms", "lower"),
    layer("server.engine_us", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.latency_p99_ms", "ms", "lower"),
    layer("server.mutate_p50_us", "us", "lower"),
    layer("server.mutate_p90_us", "us", "lower"),
    layer("json.serialize_us", "us", "lower"),
    layer("json.parse_us", "us", "lower"),
    layer("plan_cache.hit_ratio", "ratio", "higher"),
    layer("admission.shed_share", "ratio", "lower"),
    layer("wal.commit_durable_us", "us", "lower"),
    layer("wal.commit_memory_us", "us", "lower"),
    layer("wal.append_fsync_us", "us", "lower"),
    layer("wal.commit_slope_us_per_kedge", "us/kedge", "lower"),
    layer("wal.checkpoint_ms", "ms", "lower"),
    layer("wal.bytes_per_op", "B/op", "lower"),
    layer("wal.fsyncs_per_commit", "count", "lower"),
    layer("wal.recovery_ms", "ms", "lower"),
    layer("wal.snapshot_pin_ns", "ns", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
];

/// The unit of a metric of either family.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in spec.rs"))
}
