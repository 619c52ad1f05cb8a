//! A binding table costs what it holds: 8 bytes per binding, 16 per
//! multiplicity, every column allocated once at its final length.
//!
//! * A Kleene hop from every vertex of an Erdős–Rényi graph (the
//!   `Fanout` query) produces a two-column table of ~155k rows. Its output
//!   may take at most `rows × (8·width + 16)` bytes plus 64 KiB of
//!   allocations of 64 KiB or more, in at most `width + 1` of them: one
//!   per column and one for the multiplicities, none for regrowth — at
//!   the default morsel size and at one row per morsel alike.
//! * A cross product over the row budget fails before it allocates: the
//!   scan ticks the product's size first. A single-edge hop reserves the
//!   adjacency entries it will scan, but never more rows than the budget
//!   has left.
//! * The layout is pinned: a `Binding` is 8 bytes.
//!
//! A counting global allocator, delegating to [`System`], records the
//! allocation and reallocation calls made on the test's own thread and
//! their sizes; the queries run at parallelism 1, so all of their work
//! stays on that thread.

#![allow(unsafe_code)]

use gsql_core::eval::Binding;
use gsql_core::{parse_query, Budget, Engine, ErrorKind, ProfileNode, DEFAULT_MORSEL_SIZE};
use pgraph::generators::erdos_renyi;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at least this large are the ones a table column makes.
const LARGE: usize = 64 * 1024;

thread_local! {
    /// Bytes requested by this thread's allocation and reallocation calls.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// This thread's calls requesting at least [`LARGE`] bytes, and their
    /// total size.
    static LARGE_CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    // Const-initialized `Cell`s have no destructor, so the slots are
    // readable for the thread's whole life; `try_with` only guards the
    // impossible case without panicking inside the allocator.
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
    if size >= LARGE {
        let _ = LARGE_CALLS.try_with(|n| {
            let (calls, bytes) = n.get();
            n.set((calls + 1, bytes + size as u64));
        });
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`;
// counting touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates on this thread: total bytes, and the count and
/// total size of its allocations of at least [`LARGE`] bytes.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64, (u64, u64)) {
    let (bytes, (calls, large)) = (BYTES.with(Cell::get), LARGE_CALLS.with(Cell::get));
    let out = f();
    let (bytes2, (calls2, large2)) = (BYTES.with(Cell::get), LARGE_CALLS.with(Cell::get));
    (out, bytes2 - bytes, (calls2 - calls, large2 - large))
}

/// The `par_dispatch` workload's fan-out: a counting kernel from every
/// vertex, one output row per reachable `(s, t)` pair.
const FANOUT: &str = r#"
    CREATE QUERY Fanout () {
      SumAccum<int> @hits;
      R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
      PRINT R.size();
    }
"#;

fn find<'p>(node: &'p ProfileNode, op: &str) -> Option<&'p ProfileNode> {
    if node.op == op {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, op))
}

#[test]
fn a_binding_is_one_word() {
    assert_eq!(std::mem::size_of::<Binding>(), 8);
}

#[test]
fn a_kleene_hop_allocates_its_output_table_once_at_its_final_size() {
    let g = erdos_renyi(400, 0.01, 1);
    let q = parse_query(FANOUT).unwrap();
    for morsel_size in [DEFAULT_MORSEL_SIZE, 1] {
        let engine = Engine::new(&g).with_parallelism(1).with_morsel_size(morsel_size);
        let (_, prof) = engine.run_profiled(&q, &[]).unwrap();
        let rows = find(&prof.root, "hop").expect("the query has a hop").rows;
        assert!(rows > 10_000, "the fan-out should produce a large table, got {rows} rows");
        // Warm up once: lazily built graph statistics and caches are not
        // the table's cost.
        let warm = engine.run(&q, &[]).unwrap();
        let (out, _, (calls, bytes)) = allocations_in(|| engine.run(&q, &[]).unwrap());
        assert_eq!(out.prints, warm.prints);

        let width = 2u64;
        let budget = rows * (8 * width + 16) + LARGE as u64;
        println!(
            "morsel size {morsel_size}, {rows} rows: {calls} allocations of >= 64 KiB, \
             {bytes} B (budget {budget} B)"
        );
        assert!(
            bytes <= budget,
            "morsel size {morsel_size}: {rows} output rows took {bytes} B in large \
             allocations, more than rows × (8·{width} + 16) + 64 KiB = {budget} B"
        );
        assert!(
            calls <= width + 1,
            "morsel size {morsel_size}: {calls} allocations of >= 64 KiB for a \
             {width}-column table: a column regrew or the morsels were listed"
        );
    }
}

#[test]
fn a_scan_over_the_row_budget_fails_before_it_allocates() {
    let g = erdos_renyi(3000, 0.001, 1);
    let q = parse_query(
        r#"
        CREATE QUERY Pairs () {
          SumAccum<int> @@n;
          R = SELECT a FROM V:a, V:b ACCUM @@n += 1;
          PRINT @@n;
        }
        "#,
    )
    .unwrap();
    let budget = Budget { max_binding_rows: Some(10_000), ..Budget::default() };
    let engine = Engine::new(&g).with_parallelism(1).with_budget(budget);
    let (res, bytes, _) = allocations_in(|| engine.run(&q, &[]));
    let err = res.expect_err("a 9M-row cross product must exceed a 10k-row budget");
    assert_eq!(err.kind(), ErrorKind::RowLimit, "{err}");
    println!("failed after allocating {bytes} B: {err}");
    assert!(bytes < 1 << 20, "the scan allocated {bytes} B before its row budget failed it");
}

#[test]
fn a_single_edge_hop_reserves_no_more_than_the_row_budget_left() {
    // ~200k edges: reserving every entry the hop would scan is ~4.8 MB.
    let g = erdos_renyi(2000, 0.05, 1);
    let q = parse_query(
        r#"
        CREATE QUERY Edges () {
          SumAccum<int> @@n;
          R = SELECT a FROM V:a -(E>)- V:b ACCUM @@n += 1;
          PRINT @@n;
        }
        "#,
    )
    .unwrap();
    let budget = Budget { max_binding_rows: Some(10_000), ..Budget::default() };
    let engine = Engine::new(&g).with_parallelism(1).with_budget(budget);
    let (res, bytes, _) = allocations_in(|| engine.run(&q, &[]));
    let err = res.expect_err("a ~200k-row hop must exceed a 10k-row budget");
    assert_eq!(err.kind(), ErrorKind::RowLimit, "{err}");
    println!("failed after allocating {bytes} B: {err}");
    assert!(bytes < 1 << 20, "the hop allocated {bytes} B before its row budget failed it");
}
