//! An ACCUM emission allocates its field vector once, at its final size.
//!
//! Two clauses fold into a global accumulator once per binding row: one
//! emits a 14-field `GroupByAccum` tuple (six keys, eight nested sums)
//! into a group every row shares, the other a single value into a
//! `SumAccum`. Every field is an integer, so nothing but the field vector
//! itself can make the wide clause allocate more per row than the narrow
//! one — and that vector must be allocated once, not grown by
//! reallocation (4 → 8 → 16 slots would be three allocations per row).
//!
//! Each clause runs over N and 2N rows; the difference in allocation
//! calls, divided by N, is its cost per row with every fixed cost (plan,
//! tables, the group's first insertion) cancelled out.
//!
//! A counting global allocator, delegating to [`System`], counts the
//! allocation and reallocation calls made on the test's own thread; the
//! queries run at parallelism 1, so all of their work stays on that
//! thread.

#![allow(unsafe_code)]

use gsql_core::{parse_query, Engine};
use pgraph::generators::ve_schema;
use pgraph::graph::{Graph, GraphBuilder};
use pgraph::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation and reallocation calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` has no destructor, so the slot is
    // readable for the thread's whole life; `try_with` only guards the
    // impossible case without panicking inside the allocator.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`;
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn calls_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Rows per run; the second graph has twice as many.
const ROWS: usize = 4096;

/// A 14-field emission: every vertex has out-degree 0, so every row's key
/// is the same six zeros and the group exists after the first row.
const WIDE: &str = r#"
    CREATE QUERY Wide () {
      GroupByAccum<int k1, int k2, int k3, int k4, int k5, int k6,
        SumAccum<int> s1, SumAccum<int> s2, SumAccum<int> s3, SumAccum<int> s4,
        SumAccum<int> s5, SumAccum<int> s6, SumAccum<int> s7, SumAccum<int> s8> @@g;
      R = SELECT v FROM V:v
          ACCUM @@g += (v.outdegree(), v.outdegree(), v.outdegree(),
                        v.outdegree(), v.outdegree(), v.outdegree() ->
                        1, 2, 3, 4, 5, 6, 7, v.outdegree() + 1);
      PRINT @@g.size();
    }
"#;

/// A 1-field emission over the same rows.
const NARROW: &str = r#"
    CREATE QUERY Narrow () {
      SumAccum<int> @@s;
      R = SELECT v FROM V:v ACCUM @@s += v.outdegree() + 1;
      PRINT @@s;
    }
"#;

fn graph(vertices: usize) -> Graph {
    let mut b = GraphBuilder::new(ve_schema());
    for i in 0..vertices {
        b.vertex("V", &[("name", Value::from(format!("v{i}")))])
            .unwrap();
    }
    b.build()
}

/// Allocation calls of `query`'s run over `large` (2N rows) minus those of
/// its run over `small` (N rows): N rows' worth. `expect` is the query's
/// PRINT output on the large graph.
fn calls_for_n_rows(query: &str, small: &Graph, large: &Graph, expect: &str) -> u64 {
    let q = parse_query(query).unwrap();
    let mut calls = [0u64; 2];
    for (g, n) in [small, large].into_iter().zip(&mut calls) {
        let engine = Engine::new(g).with_parallelism(1);
        // Warm up once: lazily built graph statistics and caches are not
        // the emission's cost.
        engine.run(&q, &[]).unwrap();
        let (out, c) = calls_in(|| engine.run(&q, &[]).unwrap());
        *n = c;
        if std::ptr::eq(g, large) {
            assert_eq!(out.prints, [expect], "{query}");
        }
    }
    calls[1] - calls[0]
}

#[test]
fn a_wide_emission_allocates_its_fields_once_per_row() {
    let small = graph(ROWS);
    let large = graph(2 * ROWS);
    let wide = calls_for_n_rows(WIDE, &small, &large, "@@g.size() = 1");
    let narrow = calls_for_n_rows(NARROW, &small, &large, &format!("@@s = {}", 2 * ROWS));
    let per_row = |c: u64| c as f64 / ROWS as f64;
    println!(
        "allocation calls per row: 14-field {:.3}, 1-field {:.3}",
        per_row(wide),
        per_row(narrow)
    );
    assert!(
        wide <= narrow + ROWS as u64,
        "a 14-field emission costs {:.3} allocations per row against {:.3} for a \
         1-field one: its field vector must be allocated once, at its final size",
        per_row(wide),
        per_row(narrow)
    );
}
