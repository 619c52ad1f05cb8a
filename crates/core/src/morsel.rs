//! Columnar morsels: the chunked binding-table representation and the
//! work-stealing dispatch loop that drives every parallel operator.
//!
//! The binding table is stored **column-major** ([`MorselTable`]): one
//! `Vec<Binding>` per FROM variable plus a parallel multiplicity vector,
//! 8 bytes per binding and 16 per multiplicity. Operators that walk one
//! variable (hop expansion reading the source column, WHERE residuals
//! probing a single binding) scan a contiguous slice instead of striding
//! across row structs. Producing a new table is a *gather*
//! ([`MorselBuilder`]): the operator pushes its output rows in ascending
//! source-row order, the builder counts how many output rows each source
//! row yields, and every inherited column is then materialized in one
//! sequential pass that repeats each source binding that many times.
//! Every builder is sized before it is written — exactly where the
//! operator knows its output (scans, filters, Kleene hops), to an upper
//! bound where it does not (single-edge hops) — so no column regrows.
//!
//! Parallel operators split the table into **morsels** — contiguous row
//! ranges of [`Engine::morsel_size`](crate::Engine::with_morsel_size)
//! rows (default [`DEFAULT_MORSEL_SIZE`]) — and feed them to
//! `dispatch`, the engine's one scheduler (a proven accumulator fold
//! feeds it one contiguous run of morsels per worker, the Kleene-hop
//! kernel fan-out feeds it kernel keys): scoped workers
//! steal item indices from a shared atomic counter, results land in a
//! slot per item, and the caller consumes them in ascending item order.
//! Ascending-order consumption is what keeps every merge deterministic:
//! the sequence of accumulator-partial merges (ACCUM/POST_ACCUM) or
//! row-result concatenations (filters, projections, group keys) is a
//! pure function of the table, never of worker timing — the engine's
//! byte-identical-at-any-parallelism invariant (see
//! `docs/EXECUTION.md`).
//!
//! Error semantics: the shared [`QueryGuard`] is checkpointed at every
//! item boundary (cancellation and budget trips stay prompt
//! mid-clause), a panicking worker poisons the guard and surfaces as a
//! structured `WorkerPanic` that outranks ordinary errors, and otherwise
//! the error from the smallest item index wins — the same failure the
//! sequential loop would have hit first.

use crate::error::{Error, Result};
use crate::eval::Binding;
use crate::governor::QueryGuard;
use pgraph::bigcount::BigCount;
use std::ops::Range;

/// Default rows per morsel. Large enough that the steal counter and the
/// per-morsel checkpoint are noise, small enough that a table split
/// across workers load-balances (~1024 bindings, the classic
/// morsel-driven sweet spot).
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// Column-major binding table: `cols[c][r]` is row `r`'s binding for
/// FROM variable `c`, and `mults[r]` is the row's multiplicity (the
/// compressed path-count representation of Appendix A). All columns
/// have exactly `mults.len()` entries.
#[derive(Debug, Clone, Default)]
pub struct MorselTable {
    cols: Vec<Vec<Binding>>,
    mults: Vec<BigCount>,
}

impl MorselTable {
    /// The FROM-matching seed: one row binding nothing, multiplicity 1
    /// (the unit of the cross-product the FROM items build up).
    pub fn unit() -> Self {
        MorselTable { cols: Vec::new(), mults: vec![BigCount::one()] }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// Number of bound variables (columns).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// One whole column as a contiguous slice — the columnar access
    /// pattern hop expansion and single-variable filters scan.
    pub fn col(&self, c: usize) -> &[Binding] {
        &self.cols[c]
    }

    /// The binding of row `row` for variable column `col`.
    pub fn binding(&self, row: usize, col: usize) -> &Binding {
        &self.cols[col][row]
    }

    /// Row `row`'s multiplicity.
    pub fn mult(&self, row: usize) -> &BigCount {
        &self.mults[row]
    }

    /// Row `row` as the evaluator reads it: the one binding-row view
    /// ([`Bindings`](crate::eval::Bindings)) over these columns, with no
    /// row materialized. Column `c` holds the variable the block's plan
    /// laid out there.
    pub fn bindings_at(&self, row: usize) -> crate::eval::Bindings<'_> {
        crate::eval::Bindings::new(&self.cols, row)
    }
}

/// Builds a [`MorselTable`] derived from a source table by *gather*:
/// callers push `(source row, appended bindings, multiplicity)` triples
/// in ascending source-row order; [`MorselBuilder::finish`] then
/// materializes every inherited column in one pass, repeating source row
/// `r`'s binding once per output row pushed for `r`. Filters push
/// surviving rows with no extras; expansions (vertex bind, table scan,
/// hop) push one output row per extension with the new column(s)'
/// bindings as extras.
///
/// The builder costs what the output holds: a `u32` count per source
/// row, and the appended columns and multiplicities reserved at the row
/// count the caller passes to [`MorselBuilder::new`].
pub struct MorselBuilder<'a> {
    src: &'a MorselTable,
    /// Output rows inherited from each source row.
    counts: Vec<u32>,
    /// The source row of the latest push.
    last: usize,
    /// Data for the appended columns, one `Vec` per new column.
    extra: Vec<Vec<Binding>>,
    mults: Vec<BigCount>,
}

impl<'a> MorselBuilder<'a> {
    /// A builder deriving from `src` and appending `n_extra` new
    /// columns, with room for `rows` output rows: the exact output size
    /// where the caller knows it, else an upper bound.
    pub fn new(src: &'a MorselTable, n_extra: usize, rows: usize) -> Self {
        MorselBuilder {
            src,
            counts: vec![0; src.len()],
            last: 0,
            extra: (0..n_extra).map(|_| Vec::with_capacity(rows)).collect(),
            mults: Vec::with_capacity(rows),
        }
    }

    /// Appends an output row inheriting `src_row`'s bindings, extending
    /// it with `extras` (one binding per appended column, in column
    /// order) at multiplicity `mult`. Rows arrive in ascending
    /// `src_row` order; one source row may yield at most `u32::MAX`
    /// output rows.
    pub fn push(&mut self, src_row: usize, extras: &[Binding], mult: BigCount) -> Result<()> {
        debug_assert_eq!(extras.len(), self.extra.len());
        debug_assert!(src_row >= self.last, "rows pushed out of source order");
        self.last = src_row;
        let count = &mut self.counts[src_row];
        *count = count.checked_add(1).ok_or_else(|| {
            Error::runtime(format!("binding-table row {src_row} yields more than {} rows", u32::MAX))
        })?;
        for (col, b) in self.extra.iter_mut().zip(extras) {
            col.push(*b);
        }
        self.mults.push(mult);
        Ok(())
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// Materializes the inherited columns at their exact length and
    /// appends the new columns, yielding the output table.
    pub fn finish(self) -> MorselTable {
        let n = self.mults.len();
        let mut cols: Vec<Vec<Binding>> = Vec::with_capacity(self.src.width() + self.extra.len());
        for src_col in &self.src.cols {
            // One contiguous write per column, reading the source column
            // and the counts in step.
            let mut col = Vec::with_capacity(n);
            for (&b, &k) in src_col.iter().zip(&self.counts) {
                match k {
                    0 => {}
                    1 => col.push(b),
                    k => col.extend(std::iter::repeat_n(b, k as usize)),
                }
            }
            cols.push(col);
        }
        cols.extend(self.extra);
        MorselTable { cols, mults: self.mults }
    }
}

/// `items` rows (or vertices) split into contiguous morsels of at most
/// `size` items; the final morsel may be short and zero items make no
/// morsels. A morsel's range is computed when asked for, so a split
/// costs nothing per morsel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Morsels {
    /// Number of items split.
    pub items: usize,
    size: usize,
}

impl Morsels {
    /// Splits `items` items into morsels of at most `size` items.
    pub fn new(items: usize, size: usize) -> Self {
        Morsels { items, size: size.max(1) }
    }

    /// Number of morsels.
    pub fn count(self) -> usize {
        self.items.div_ceil(self.size)
    }

    /// The items of morsel `i`.
    pub fn range(self, i: usize) -> Range<usize> {
        (i * self.size)..((i + 1) * self.size).min(self.items)
    }
}

/// Splits `n` items into at most `k` contiguous runs covering `0..n` in
/// order, the longer runs first and no two lengths differing by more
/// than one. A pure function of `n` and `k`; `n == 0` yields no runs.
pub(crate) fn even_runs(n: usize, k: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let (base, extra) = (n / k, n % k);
    let mut start = 0;
    (0..k)
        .map(|j| {
            let len = base + usize::from(j < extra);
            start += len;
            (start - len)..start
        })
        .collect()
}

/// The outcome of a [`dispatch`] run.
#[derive(Debug)]
pub(crate) struct MorselRun<T> {
    /// One result per item, in ascending item order.
    pub results: Vec<T>,
    /// The worker that completed each item, by item index (timing
    /// decides it, so it is never consulted for results).
    owners: Vec<usize>,
    /// Worker threads the run used.
    workers: usize,
}

impl<T> MorselRun<T> {
    /// Work completed per worker, item `i` counting `weight(i)` — the
    /// PROFILE `workers` distribution.
    pub fn per_worker(&self, weight: impl Fn(usize) -> u64) -> Vec<u64> {
        let mut per = vec![0u64; self.workers];
        for (i, &w) in self.owners.iter().enumerate() {
            per[w] += weight(i);
        }
        per
    }
}

/// The engine's one scheduler: runs `work(i)` for every item index
/// `i < n` — morsels for the vectorized operators, kernel keys for the
/// Kleene-hop fan-out — on `min(workers, n)` scoped threads stealing
/// item indices from a shared counter. One worker (or a single item)
/// runs inline on the caller's thread — the same loop shape, so
/// counters and error choice are identical at any worker count.
///
/// The guard is checkpointed before each item. On failure the error for
/// the smallest item index is returned (a `WorkerPanic` outranks
/// ordinary errors and poisons the guard, stopping siblings at their
/// next checkpoint).
pub(crate) fn dispatch<T, F>(
    guard: &QueryGuard,
    workers: usize,
    n: usize,
    work: F,
) -> Result<MorselRun<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if n == 0 {
        return Ok(MorselRun { results: Vec::new(), owners: Vec::new(), workers: 0 });
    }
    let nworkers = workers.max(1).min(n);
    if nworkers == 1 {
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            guard.checkpoint()?;
            results.push(work(i)?);
        }
        return Ok(MorselRun { results, owners: vec![0; n], workers: 1 });
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    type Done<T> = Vec<(usize, Result<T>)>;
    let outs: Vec<Done<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|_| {
                let next = &next;
                let work = &work;
                s.spawn(move || -> Done<T> {
                    let mut done: Done<T> = Vec::new();
                    let caught =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let r = guard.checkpoint().and_then(|()| work(i));
                            let failed = r.is_err();
                            done.push((i, r));
                            if failed {
                                break;
                            }
                        }));
                    if let Err(payload) = caught {
                        guard.poison();
                        done.push((usize::MAX, Err(guard.worker_panic_error(payload.as_ref()))));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    vec![(usize::MAX, Err(Error::runtime("dispatch worker panicked")))]
                })
            })
            .collect()
    });
    let mut owners = vec![0; n];
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_err: Option<(usize, Error)> = None;
    for (w, done) in outs.into_iter().enumerate() {
        for (i, r) in done {
            match r {
                Ok(t) => {
                    owners[i] = w;
                    slots[i] = Some(t);
                }
                Err(e) => {
                    let replace = match &first_err {
                        None => true,
                        Some((pi, pe)) => {
                            if pe.kind() == crate::error::ErrorKind::WorkerPanic {
                                false
                            } else if e.kind() == crate::error::ErrorKind::WorkerPanic {
                                true
                            } else {
                                i < *pi
                            }
                        }
                    };
                    if replace {
                        first_err = Some((i, e));
                    }
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(MorselRun {
        results: slots
            .into_iter()
            .map(|s| s.expect("item completed without result or error"))
            .collect(),
        owners,
        workers: nworkers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Budget, CancelHandle};
    use pgraph::graph::VertexId;

    fn guard() -> QueryGuard {
        QueryGuard::new(Budget::default(), CancelHandle::new())
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for (len, size) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (1023, 1024), (1025, 1024)] {
            let m = Morsels::new(len, size);
            let rs: Vec<Range<usize>> = (0..m.count()).map(|i| m.range(i)).collect();
            let total: usize = rs.iter().map(|r| r.len()).sum();
            assert_eq!(total, len, "len={len} size={size}");
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if len > 0 {
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, len);
            }
        }
    }

    #[test]
    fn even_runs_partition_in_order() {
        assert!(even_runs(0, 3).is_empty());
        assert_eq!(even_runs(5, 1), vec![0..5]);
        assert_eq!(even_runs(2, 8), vec![0..1, 1..2]);
        assert_eq!(even_runs(7, 3), vec![0..3, 3..5, 5..7]);
        for n in 0..40 {
            for k in 1..10 {
                let runs = even_runs(n, k);
                assert_eq!(runs.len(), k.min(n));
                assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), n);
                for w in runs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(w[0].len() >= w[1].len() && w[0].len() - w[1].len() <= 1);
                }
            }
        }
    }

    #[test]
    fn builder_gathers_columns_and_extras() {
        let mut src = MorselTable::unit();
        {
            let mut b = MorselBuilder::new(&src, 1, 4);
            for v in 0..4u32 {
                b.push(0, &[Binding::Vertex(VertexId(v))], BigCount::one()).unwrap();
            }
            src = b.finish();
        }
        assert_eq!(src.len(), 4);
        assert_eq!(src.width(), 1);
        // Filter to even vertices, appending a second column.
        let mut b = MorselBuilder::new(&src, 1, src.len());
        for r in 0..src.len() {
            if let Binding::Vertex(v) = src.binding(r, 0) {
                if v.0 % 2 == 0 {
                    b.push(r, &[Binding::Vertex(VertexId(v.0 + 10))], src.mult(r).clone())
                        .unwrap();
                }
            }
        }
        let out = b.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out.width(), 2);
        assert_eq!(out.col(0), &[Binding::Vertex(VertexId(0)), Binding::Vertex(VertexId(2))]);
        assert_eq!(out.col(1), &[Binding::Vertex(VertexId(10)), Binding::Vertex(VertexId(12))]);
    }

    #[test]
    fn builder_repeats_each_source_row_by_its_count() {
        let unit = MorselTable::unit();
        let mut b = MorselBuilder::new(&unit, 1, 3);
        for v in 0..3u32 {
            b.push(0, &[Binding::Vertex(VertexId(v))], BigCount::from(u64::from(v) + 1)).unwrap();
        }
        let src = b.finish();
        // Source row 0 yields two rows, row 1 none, row 2 one.
        let mut b = MorselBuilder::new(&src, 1, 3);
        for (r, e) in [(0, 7u32), (0, 8), (2, 9)] {
            b.push(r, &[Binding::Edge(pgraph::graph::EdgeId(e))], src.mult(r).clone()).unwrap();
        }
        let out = b.finish();
        let v = |i| Binding::Vertex(VertexId(i));
        assert_eq!(out.col(0), &[v(0), v(0), v(2)]);
        assert_eq!(out.col(0).len(), out.cols[0].capacity(), "inherited column regrown");
        assert_eq!(out.col(1).len(), out.cols[1].capacity(), "appended column regrown");
        assert_eq!(out.mults.capacity(), 3);
        let mults: Vec<String> = (0..out.len()).map(|r| out.mult(r).to_string()).collect();
        assert_eq!(mults, ["1", "1", "3"]);
    }

    #[test]
    fn dispatch_results_are_in_morsel_order_at_any_worker_count() {
        let g = guard();
        let m = Morsels::new(100, 7);
        for workers in [1, 2, 8] {
            let run = dispatch(&g, workers, m.count(), |i| Ok((i, m.range(i).len()))).unwrap();
            let idxs: Vec<usize> = run.results.iter().map(|(i, _)| *i).collect();
            assert_eq!(idxs, (0..m.count()).collect::<Vec<_>>());
            assert_eq!(run.per_worker(|_| 1).iter().sum::<u64>(), m.count() as u64);
            let rows = run.per_worker(|i| m.range(i).len() as u64);
            assert_eq!(rows.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn dispatch_smallest_morsel_error_wins() {
        let g = guard();
        for workers in [1, 4] {
            let err = dispatch(&g, workers, 16, |i| -> Result<()> {
                if i >= 3 {
                    Err(Error::runtime(format!("boom at {i}")))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("boom at 3"), "workers={workers}: {err}");
        }
    }

    #[test]
    fn dispatch_runs_a_single_item_inline() {
        let g = guard();
        let caller = std::thread::current().id();
        let run = dispatch(&g, 8, 1, |i| {
            assert_eq!(std::thread::current().id(), caller, "single item left the caller's thread");
            Ok(i)
        })
        .unwrap();
        assert_eq!(run.results, vec![0]);
        assert_eq!(run.per_worker(|_| 1), vec![1]);
    }

    #[test]
    fn dispatch_panic_outranks_errors_poisons_and_a_fresh_guard_recovers() {
        let items: Vec<usize> = (0..8).collect();
        let g = guard();
        // Both workers are inside their first item before either
        // proceeds, so the ordinary error at index 0 and the panic at
        // index 1 are both guaranteed to happen.
        let both_started = std::sync::Barrier::new(2);
        let err = dispatch(&g, 2, items.len(), |i| -> Result<()> {
            if i < 2 {
                both_started.wait();
            }
            match i {
                0 => Err(Error::runtime("ordinary error at 0")),
                1 => panic!("boom at 1"),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::WorkerPanic, "{err}");
        assert!(err.to_string().contains("boom at 1"), "{err}");
        // The guard is poisoned: anything still checkpointing it stops.
        assert!(g.checkpoint().is_err());
        // A fresh guard (what every `Engine::run` creates) is unaffected.
        let run = dispatch(&guard(), 2, items.len(), Ok).unwrap();
        assert_eq!(run.results, items);
    }
}
