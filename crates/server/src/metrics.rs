//! Live server metrics: lock-free counters, a log₂ latency histogram,
//! and aggregated [`ResourceReport`] totals, all exported as JSON by
//! `GET /metrics`.
//!
//! Invariant the e2e suite reconciles against:
//! `admitted == completed + failed + cancelled` once the server is
//! drained, and every query request is counted exactly once in exactly
//! one of `admitted`, `rejected_busy` (429), `rejected_queue` (503) or
//! `rejected_body` (413).

use crate::json::Json;
use gsql_core::{Profile, ResourceReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Power-of-two microsecond buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs; bucket 0 also absorbs sub-microsecond samples.
/// 40 buckets reach ~12.7 days — effectively unbounded.
const BUCKETS: usize = 40;

pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile: the upper bound (in µs) of the first bucket
    /// at which the cumulative count reaches `q * total`. Within 2× of
    /// the true value by construction.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }

    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }
}

/// All server counters. Plain atomics; one instance per server, shared
/// by every worker.
#[derive(Default)]
pub struct Metrics {
    /// Query requests that passed admission and began executing.
    pub admitted: AtomicU64,
    /// Shed with 429: the concurrent-query gate was saturated.
    pub rejected_busy: AtomicU64,
    /// Shed with 503: the connection queue was full at accept time.
    pub rejected_queue: AtomicU64,
    /// Rejected with 413: declared body above the configured cap.
    pub rejected_body: AtomicU64,
    /// Admitted queries that finished successfully.
    pub completed: AtomicU64,
    /// Admitted queries that failed (parse/compile/runtime/resource).
    pub failed: AtomicU64,
    /// Admitted queries stopped by client disconnect (a subset of
    /// neither `completed` nor `failed`).
    pub cancelled: AtomicU64,
    /// Plan-cache hits / misses across /query, /prepare and /execute.
    pub plan_hits: AtomicU64,
    pub plan_misses: AtomicU64,
    /// Static-analyzer runs (`POST /lint`, `CHECK`-prefixed query texts,
    /// and the lint-on-prepare gate).
    pub lint_checks: AtomicU64,
    /// Prepares refused with 422 by the lint gate (`Error`-severity
    /// diagnostics, or warnings under `x-gsql-lint: strict`).
    pub lint_rejected: AtomicU64,
    /// Requests refused with 422 by the pre-admission abstract
    /// interpretation gate: the analyzer proved the query would trip the
    /// request's iteration budget (`D003`), so it was never admitted.
    pub proven_rejections: AtomicU64,
    /// Non-empty mutation batches committed via `POST /mutate`.
    pub mutation_batches: AtomicU64,
    /// Individual mutation ops inside those batches.
    pub mutation_ops: AtomicU64,
    /// WAL write failures (each flips the server read-only).
    pub wal_errors: AtomicU64,
    /// End-to-end query latency (admission to response serialization).
    pub latency: Histogram,
    // Aggregated ResourceReport totals over all executed queries
    // (success and failure both contribute the work they did).
    rows_total: AtomicU64,
    paths_total: AtomicU64,
    while_total: AtomicU64,
    vertices_total: AtomicU64,
    edges_total: AtomicU64,
    morsels_total: AtomicU64,
    peak_accum_bytes: AtomicU64,
    /// Per-operator totals folded from every profiled run (`x-gsql-profile`
    /// requests): operator name → (calls, exclusive self wall-time µs).
    /// BTreeMap keeps `/metrics` output sorted and stable.
    ops: Mutex<BTreeMap<&'static str, OpTotals>>,
}

#[derive(Default, Clone, Copy)]
struct OpTotals {
    calls: u64,
    self_wall_us: u64,
}

impl Metrics {
    pub fn absorb_report(&self, r: &ResourceReport) {
        self.rows_total.fetch_add(r.rows_materialized, Ordering::Relaxed);
        self.paths_total.fetch_add(r.paths_enumerated, Ordering::Relaxed);
        self.while_total.fetch_add(r.while_iterations, Ordering::Relaxed);
        self.vertices_total.fetch_add(r.vertices_touched, Ordering::Relaxed);
        self.edges_total.fetch_add(r.edges_scanned, Ordering::Relaxed);
        self.morsels_total.fetch_add(r.morsels_dispatched, Ordering::Relaxed);
        self.peak_accum_bytes.fetch_max(r.peak_accum_bytes, Ordering::Relaxed);
    }

    /// Folds one profiled run into the per-operator totals. Uses each
    /// node's *exclusive* wall time (`self_wall`) so the totals sum to
    /// roughly the query's wall clock instead of multiply counting
    /// nested spans.
    pub fn absorb_profile(&self, p: &Profile) {
        let mut ops = self.ops.lock().unwrap();
        p.root.visit(&mut |n| {
            let t = ops.entry(n.op).or_default();
            t.calls += n.calls;
            t.self_wall_us +=
                u64::try_from(n.self_wall().as_micros()).unwrap_or(u64::MAX);
        });
    }

    /// JSON snapshot served by `GET /metrics`.
    pub fn to_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        Json::Obj(vec![
            ("admitted".into(), load(&self.admitted)),
            ("rejected_busy".into(), load(&self.rejected_busy)),
            ("rejected_queue".into(), load(&self.rejected_queue)),
            ("rejected_body".into(), load(&self.rejected_body)),
            ("completed".into(), load(&self.completed)),
            ("failed".into(), load(&self.failed)),
            ("cancelled".into(), load(&self.cancelled)),
            ("plan_cache_hits".into(), load(&self.plan_hits)),
            ("plan_cache_misses".into(), load(&self.plan_misses)),
            (
                "lint".into(),
                Json::Obj(vec![
                    ("checks".into(), load(&self.lint_checks)),
                    ("rejected".into(), load(&self.lint_rejected)),
                    ("proven_rejections".into(), load(&self.proven_rejections)),
                ]),
            ),
            (
                "mutate".into(),
                Json::Obj(vec![
                    ("batches".into(), load(&self.mutation_batches)),
                    ("ops".into(), load(&self.mutation_ops)),
                    ("wal_errors".into(), load(&self.wal_errors)),
                ]),
            ),
            (
                "latency".into(),
                Json::Obj(vec![
                    ("count".into(), Json::Int(self.latency.count() as i64)),
                    ("mean_us".into(), Json::Int(self.latency.mean_micros() as i64)),
                    ("p50_us".into(), Json::Int(self.latency.quantile_micros(0.50) as i64)),
                    ("p99_us".into(), Json::Int(self.latency.quantile_micros(0.99) as i64)),
                ]),
            ),
            (
                "resources".into(),
                Json::Obj(vec![
                    ("rows_materialized".into(), load(&self.rows_total)),
                    ("paths_enumerated".into(), load(&self.paths_total)),
                    ("while_iterations".into(), load(&self.while_total)),
                    ("vertices_touched".into(), load(&self.vertices_total)),
                    ("edges_scanned".into(), load(&self.edges_total)),
                    ("morsels_dispatched".into(), load(&self.morsels_total)),
                    ("peak_accum_bytes".into(), load(&self.peak_accum_bytes)),
                ]),
            ),
            (
                "operators".into(),
                Json::Obj(
                    self.ops
                        .lock()
                        .unwrap()
                        .iter()
                        .map(|(op, t)| {
                            (
                                (*op).to_string(),
                                Json::Obj(vec![
                                    ("calls".into(), Json::Int(t.calls as i64)),
                                    ("self_wall_us".into(), Json::Int(t.self_wall_us as i64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(80));
        let p50 = h.quantile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_micros(0.99);
        assert!((64..=256).contains(&p99), "p99 {p99} (99th of 100 is still the fast bucket)");
        let p999 = h.quantile_micros(0.999);
        assert!(p999 >= 65_536, "p99.9 {p999} must land in the slow bucket");
    }

    #[test]
    fn histogram_bucket_edges_are_pinned() {
        // Pins the log₂ bucket-index math at its boundaries so the
        // /metrics histogram schema cannot silently shift: bucket `i`
        // counts `[2^i, 2^(i+1))` µs, bucket 0 also absorbs 0 µs, and
        // the top bucket absorbs everything beyond 2^39 µs (u64::MAX
        // saturates there via the u128→u64 conversion).
        let bucket_of = |micros: u64| {
            let h = Histogram::default();
            h.record(Duration::from_micros(micros));
            h.buckets.iter().position(|b| b.load(Ordering::Relaxed) == 1).unwrap()
        };
        assert_eq!(bucket_of(0), 0, "0 µs joins the sub-µs bucket");
        assert_eq!(bucket_of(1), 0);
        for k in 1..(BUCKETS - 1) {
            let p = 1u64 << k;
            assert_eq!(bucket_of(p), k, "2^{k} µs must open bucket {k}");
            assert_eq!(bucket_of(p - 1), k - 1, "2^{k}-1 µs stays in bucket {}", k - 1);
            assert_eq!(bucket_of(p + 1), k, "2^{k}+1 µs stays in bucket {k}");
        }
        // At and beyond the top boundary everything clamps in-range.
        assert_eq!(bucket_of(1u64 << (BUCKETS - 1)), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let h = Histogram::default();
        h.record(Duration::from_secs(u64::MAX)); // as_micros > u64::MAX
        assert_eq!(h.buckets[BUCKETS - 1].load(Ordering::Relaxed), 1);
        // Monotone: a larger sample never lands in a smaller bucket.
        let mut prev = 0;
        for micros in [0, 1, 2, 3, 7, 8, 1000, 1 << 20, 1 << 39, u64::MAX] {
            let b = bucket_of(micros);
            assert!(b >= prev, "bucket({micros}) = {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn snapshot_reconciles() {
        let m = Metrics::default();
        m.admitted.fetch_add(5, Ordering::Relaxed);
        m.completed.fetch_add(3, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        m.cancelled.fetch_add(1, Ordering::Relaxed);
        let snap = m.to_json();
        let get = |k: &str| snap.get(k).and_then(|v| v.as_i64()).unwrap();
        assert_eq!(get("admitted"), get("completed") + get("failed") + get("cancelled"));
    }
}
