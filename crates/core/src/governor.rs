//! The query resource governor: enforced execution envelopes.
//!
//! The engine deliberately ships exponential kernels (`NonRepeatedEdge`,
//! `AllShortestPathsEnumerate` — the paper's baselines), which can hang or
//! exhaust memory on inputs barely larger than Table 1's. A [`Budget`]
//! bounds a query's wall-clock time, binding-table size, materialized
//! paths, estimated accumulator bytes and WHILE iterations; a
//! [`QueryGuard`] carries the live counters and is checked at every loop
//! head of the execution stack (product-BFS, enumerative DFS, binding-table
//! joins, the ACCUM Map phase, WHILE/FOREACH bodies). Violations surface as
//! [`crate::Error::Resource`] with a machine-readable
//! [`crate::ErrorKind`] and a [`ResourceReport`] snapshot, so callers get
//! graceful degradation diagnostics instead of a dead process.

use crate::error::{Error, ErrorKind, ResourceError, Result};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative resource limits for one query execution. `None` fields are
/// unlimited; `Budget::default()` imposes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from `Engine::run` entry.
    pub deadline: Option<Duration>,
    /// Cap on binding-table rows materialized, cumulative over the query.
    pub max_binding_rows: Option<u64>,
    /// Cap on paths materialized by enumerative kernels, cumulative
    /// (generalizes the old per-engine `enum_budget`).
    pub max_paths: Option<u64>,
    /// Cap on the estimated heap footprint of all live accumulators.
    pub max_accum_bytes: Option<u64>,
    /// Cap on WHILE-loop iterations, cumulative over all loops.
    pub max_while_iters: Option<u64>,
}

impl Budget {
    /// A budget that imposes nothing (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the cumulative binding-table row cap.
    pub fn with_max_binding_rows(mut self, n: u64) -> Self {
        self.max_binding_rows = Some(n);
        self
    }

    /// Sets the cumulative path-materialization cap.
    pub fn with_max_paths(mut self, n: u64) -> Self {
        self.max_paths = Some(n);
        self
    }

    /// Sets the accumulator heap-footprint cap.
    pub fn with_max_accum_bytes(mut self, n: u64) -> Self {
        self.max_accum_bytes = Some(n);
        self
    }

    /// Sets the cumulative WHILE-iteration cap.
    pub fn with_max_while_iters(mut self, n: u64) -> Self {
        self.max_while_iters = Some(n);
        self
    }

    /// `true` if no limit is set in any dimension.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_binding_rows.is_none()
            && self.max_paths.is_none()
            && self.max_accum_bytes.is_none()
            && self.max_while_iters.is_none()
    }
}

/// Shared cancellation flag: clone it, hand it to another thread, and
/// `cancel()` stops the running (and any subsequent) query at its next
/// checkpoint with [`ErrorKind::Cancelled`]. `reset()` re-arms the engine.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    /// A fresh, un-cancelled handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; the running query stops at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called (until
    /// [`reset`](Self::reset)).
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Re-arms the handle so subsequent queries run normally.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Post-execution resource accounting, returned on success
/// ([`crate::QueryOutput::report`]) and attached to every resource
/// failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceReport {
    /// Binding-table rows materialized, cumulative.
    pub rows_materialized: u64,
    /// Paths materialized by enumerative kernels, cumulative.
    pub paths_enumerated: u64,
    /// Vertex visits performed by scans and kernels, cumulative (a vertex
    /// revisited in another kernel call or automaton state counts again).
    pub vertices_touched: u64,
    /// Adjacency entries examined by scans and kernels, cumulative.
    pub edges_scanned: u64,
    /// Peak estimated accumulator heap footprint observed, in bytes.
    pub peak_accum_bytes: u64,
    /// WHILE-loop iterations executed, cumulative.
    pub while_iterations: u64,
    /// Morsels dispatched by the vectorized operators (ACCUM/POST_ACCUM,
    /// WHERE filters, group-by/projection evaluation), cumulative. A
    /// pure function of table sizes and the configured morsel size —
    /// identical at any parallelism.
    pub morsels_dispatched: u64,
    /// Wall-clock time from `Engine::run` entry to the snapshot.
    pub elapsed: Duration,
}

fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn fmt_bytes(n: u64) -> String {
    if n >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", n as f64 / (1024.0 * 1024.0))
    } else if n >= 10 * 1024 {
        format!("{:.1} KiB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rows materialized, {} paths enumerated, {} vertices touched, \
             {} edges scanned, {} peak accumulator memory, \
             {} WHILE iterations, {:.3}s elapsed",
            fmt_count(self.rows_materialized),
            fmt_count(self.paths_enumerated),
            fmt_count(self.vertices_touched),
            fmt_count(self.edges_scanned),
            fmt_bytes(self.peak_accum_bytes),
            fmt_count(self.while_iterations),
            self.elapsed.as_secs_f64(),
        )
    }
}

/// Wall-clock reads in hot kernel loops happen once per this many
/// checkpoints; cancellation flags are read every time (an atomic load is
/// far cheaper than `Instant::now`).
const CLOCK_STRIDE: u64 = 64;

/// Live enforcement state for one query execution. Shared by reference
/// across Map-phase worker threads (all counters are atomic).
pub struct QueryGuard {
    budget: Budget,
    start: Instant,
    deadline_at: Option<Instant>,
    cancel: CancelHandle,
    /// Set when a Map worker panics, so sibling workers stop at their next
    /// checkpoint. Local to this execution (unlike `cancel`).
    poisoned: AtomicBool,
    ticks: AtomicU64,
    rows: AtomicU64,
    paths: AtomicU64,
    vertices: AtomicU64,
    edges: AtomicU64,
    peak_bytes: AtomicU64,
    while_iters: AtomicU64,
    morsels: AtomicU64,
}

impl QueryGuard {
    /// A guard enforcing `budget`, observing `cancel`. The wall clock
    /// starts here.
    pub fn new(budget: Budget, cancel: CancelHandle) -> Self {
        let start = Instant::now();
        let deadline_at = budget.deadline.map(|d| start + d);
        QueryGuard {
            budget,
            start,
            deadline_at,
            cancel,
            poisoned: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            paths: AtomicU64::new(0),
            vertices: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            while_iters: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
        }
    }

    /// A guard that enforces nothing (still collects the report).
    pub fn unlimited() -> Self {
        Self::new(Budget::default(), CancelHandle::new())
    }

    /// A guard enforcing only a path-materialization cap — the shape the
    /// kernel-level tests and benchmarks use.
    pub fn with_path_budget(max_paths: Option<u64>) -> Self {
        Self::new(Budget { max_paths, ..Budget::default() }, CancelHandle::new())
    }

    /// The budget this guard enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Snapshot of all counters plus elapsed wall-clock time.
    pub fn report(&self) -> ResourceReport {
        ResourceReport {
            rows_materialized: self.rows.load(Ordering::Relaxed),
            paths_enumerated: self.paths.load(Ordering::Relaxed),
            vertices_touched: self.vertices.load(Ordering::Relaxed),
            edges_scanned: self.edges.load(Ordering::Relaxed),
            peak_accum_bytes: self.peak_bytes.load(Ordering::Relaxed),
            while_iterations: self.while_iters.load(Ordering::Relaxed),
            morsels_dispatched: self.morsels.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
        }
    }

    fn fail(&self, kind: ErrorKind, message: String) -> Error {
        Error::Resource(Box::new(ResourceError { kind, message, report: self.report() }))
    }

    fn deadline_error(&self) -> Error {
        let d = self.budget.deadline.unwrap_or_default();
        self.fail(
            ErrorKind::DeadlineExceeded,
            format!("deadline exceeded after {:.1}s", d.as_secs_f64()),
        )
    }

    fn cancelled_error(&self) -> Error {
        if self.poisoned.load(Ordering::Relaxed) {
            self.fail(ErrorKind::Cancelled, "query aborted: a sibling worker panicked".into())
        } else {
            self.fail(ErrorKind::Cancelled, "query cancelled".into())
        }
    }

    /// Cheap check for hot loop heads: cancellation/poison flags every
    /// call, the wall clock once per `CLOCK_STRIDE` (64) calls.
    #[inline]
    pub fn checkpoint(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Relaxed) || self.cancel.is_cancelled() {
            return Err(self.cancelled_error());
        }
        if let Some(at) = self.deadline_at {
            let t = self.ticks.fetch_add(1, Ordering::Relaxed);
            if t.is_multiple_of(CLOCK_STRIDE) && Instant::now() >= at {
                return Err(self.deadline_error());
            }
        }
        Ok(())
    }

    /// Check for coarse loop heads (WHILE bodies, statement boundaries):
    /// always reads the wall clock.
    pub fn checkpoint_coarse(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Relaxed) || self.cancel.is_cancelled() {
            return Err(self.cancelled_error());
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(self.deadline_error());
            }
        }
        Ok(())
    }

    /// Binding-table rows that may still be materialized before the row
    /// limit trips (`u64::MAX` without one): the most rows an operator
    /// makes room for before ticking them.
    pub fn rows_headroom(&self) -> u64 {
        match self.budget.max_binding_rows {
            Some(max) => max.saturating_sub(self.rows.load(Ordering::Relaxed)),
            None => u64::MAX,
        }
    }

    /// Accounts `n` newly materialized binding-table rows.
    pub fn tick_rows(&self, n: u64) -> Result<()> {
        let total = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.budget.max_binding_rows {
            if total > max {
                return Err(self.fail(
                    ErrorKind::RowLimit,
                    format!(
                        "binding-table row limit exceeded ({} rows materialized, limit {})",
                        fmt_count(total),
                        fmt_count(max)
                    ),
                ));
            }
        }
        self.checkpoint()
    }

    /// Accounts one path materialized by an enumerative kernel. A
    /// `max_paths` of 0 means *zero paths allowed*: the first
    /// materialization trips.
    #[inline]
    pub fn tick_path(&self) -> Result<()> {
        let total = self.paths.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.budget.max_paths {
            if total > max {
                return Err(self.fail(
                    ErrorKind::PathBudget,
                    format!(
                        "path enumeration budget exceeded ({} paths materialized, limit {})",
                        fmt_count(total),
                        fmt_count(max)
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Accounts one WHILE-loop iteration (also a coarse checkpoint).
    pub fn tick_while(&self) -> Result<()> {
        let total = self.while_iters.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.budget.max_while_iters {
            if total > max {
                return Err(self.fail(
                    ErrorKind::IterationLimit,
                    format!("WHILE iteration limit exceeded ({total} iterations, limit {max})"),
                ));
            }
        }
        self.checkpoint_coarse()
    }

    /// Records the current estimated accumulator footprint and enforces
    /// the memory budget against it.
    pub fn note_accum_bytes(&self, bytes: u64) -> Result<()> {
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
        if let Some(max) = self.budget.max_accum_bytes {
            if bytes > max {
                return Err(self.fail(
                    ErrorKind::MemoryLimit,
                    format!(
                        "accumulator memory limit exceeded (~{} estimated, limit {})",
                        fmt_bytes(bytes),
                        fmt_bytes(max)
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Accounts `n` morsels handed to the vectorized-operator dispatch
    /// loop. Pure accounting (no budget dimension limits morsels): the
    /// total feeds [`ResourceReport`] and server metrics, and — being a
    /// pure function of table sizes and the configured morsel size — is
    /// identical at any parallelism.
    #[inline]
    pub fn note_morsels(&self, n: u64) {
        if n != 0 {
            self.morsels.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Accounts `vertices` vertex visits and `edges` adjacency-entry
    /// examinations. Pure accounting — no budget dimension limits these,
    /// so this never fails; the totals feed [`ResourceReport`] and the
    /// PROFILE operator tree (which must reconcile with it exactly).
    #[inline]
    pub fn note_visits(&self, vertices: u64, edges: u64) {
        if vertices != 0 {
            self.vertices.fetch_add(vertices, Ordering::Relaxed);
        }
        if edges != 0 {
            self.edges.fetch_add(edges, Ordering::Relaxed);
        }
    }

    /// Marks the execution poisoned after a Map worker panicked, stopping
    /// sibling workers at their next checkpoint without touching the
    /// engine-level cancellation flag.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Converts a caught panic payload into a structured
    /// [`ErrorKind::WorkerPanic`] error carrying the payload message.
    pub fn worker_panic_error(&self, payload: &(dyn std::any::Any + Send)) -> Error {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        self.fail(ErrorKind::WorkerPanic, format!("worker panicked: {msg}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = QueryGuard::unlimited();
        for _ in 0..10_000 {
            g.checkpoint().unwrap();
            g.tick_path().unwrap();
        }
        g.tick_rows(1 << 40).unwrap();
        g.note_accum_bytes(u64::MAX).unwrap();
        let r = g.report();
        assert_eq!(r.paths_enumerated, 10_000);
        assert_eq!(r.rows_materialized, 1 << 40);
        assert_eq!(r.peak_accum_bytes, u64::MAX);
    }

    #[test]
    fn zero_path_budget_means_zero_paths() {
        let g = QueryGuard::with_path_budget(Some(0));
        let e = g.tick_path().unwrap_err();
        assert_eq!(e.kind(), ErrorKind::PathBudget);
    }

    #[test]
    fn row_limit_trips_with_report() {
        let g = QueryGuard::new(
            Budget::default().with_max_binding_rows(10),
            CancelHandle::new(),
        );
        g.tick_rows(10).unwrap();
        let e = g.tick_rows(1).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::RowLimit);
        assert_eq!(e.resource_report().unwrap().rows_materialized, 11);
    }

    #[test]
    fn cancellation_is_observed_and_resettable() {
        let h = CancelHandle::new();
        let g = QueryGuard::new(Budget::default(), h.clone());
        g.checkpoint().unwrap();
        h.cancel();
        assert_eq!(g.checkpoint().unwrap_err().kind(), ErrorKind::Cancelled);
        h.reset();
        g.checkpoint().unwrap();
    }

    #[test]
    fn deadline_trips_past_expiry() {
        let g = QueryGuard::new(
            Budget::default().with_deadline(Duration::ZERO),
            CancelHandle::new(),
        );
        assert_eq!(g.checkpoint_coarse().unwrap_err().kind(), ErrorKind::DeadlineExceeded);
        // The strided variant trips within CLOCK_STRIDE calls.
        let e = (0..=CLOCK_STRIDE).find_map(|_| g.checkpoint().err()).unwrap();
        assert_eq!(e.kind(), ErrorKind::DeadlineExceeded);
    }

    #[test]
    fn while_iteration_limit() {
        let g = QueryGuard::new(
            Budget::default().with_max_while_iters(3),
            CancelHandle::new(),
        );
        for _ in 0..3 {
            g.tick_while().unwrap();
        }
        assert_eq!(g.tick_while().unwrap_err().kind(), ErrorKind::IterationLimit);
    }

    #[test]
    fn report_formats_counts() {
        let r = ResourceReport {
            rows_materialized: 12,
            paths_enumerated: 1_200_000,
            vertices_touched: 34_500,
            edges_scanned: 7,
            peak_accum_bytes: 64 * 1024,
            while_iterations: 0,
            morsels_dispatched: 0,
            elapsed: Duration::from_millis(1500),
        };
        let s = r.to_string();
        assert!(s.contains("12 rows"), "{s}");
        assert!(s.contains("1.2M paths"), "{s}");
        assert!(s.contains("34.5k vertices touched"), "{s}");
        assert!(s.contains("7 edges scanned"), "{s}");
        assert!(s.contains("64.0 KiB"), "{s}");
        assert!(s.contains("1.500s"), "{s}");
    }

    #[test]
    fn note_visits_is_pure_accounting() {
        // Even a fully limited budget never trips on visit accounting.
        let g = QueryGuard::new(
            Budget::default().with_max_binding_rows(1).with_max_paths(1),
            CancelHandle::new(),
        );
        g.note_visits(1_000_000, 2_000_000);
        g.note_visits(0, 0);
        let r = g.report();
        assert_eq!(r.vertices_touched, 1_000_000);
        assert_eq!(r.edges_scanned, 2_000_000);
    }
}
