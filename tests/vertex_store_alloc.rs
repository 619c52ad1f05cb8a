//! Vertex accumulator stores cost what a query touches, not what the
//! graph holds. A query declaring two vertex accumulators, touching a
//! handful of vertices on a 120 000-vertex graph and reading one store
//! primed (`@a'`, which snapshots that store at the start of each of its
//! two blocks) may allocate at most 4 bytes per vertex for each store and
//! snapshot — the zeroed index — plus a fixed allowance for the touched
//! cells and the query's own bookkeeping. A store with one 64-byte cell
//! slot per vertex would allocate sixteen times that.
//!
//! A counting global allocator, delegating to [`System`], sums the bytes
//! requested on the test's own thread; the query runs at parallelism 1,
//! so all of its work stays on that thread.

#![allow(unsafe_code)]

use gsql_core::{parse_query, Engine};
use pgraph::generators::ve_schema;
use pgraph::graph::GraphBuilder;
use pgraph::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread's allocations and reallocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A const-initialized `Cell` has no destructor, so the slot is
    // readable for the thread's whole life; `try_with` only guards the
    // impossible case without panicking inside the allocator.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`;
// counting touches only a thread-local `Cell` and never allocates.
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

/// Bytes `f` requests from the allocator on this thread.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const VERTICES: usize = 120_000;

/// Two vertex stores and a primed snapshot of `@a` per block: four
/// per-vertex arrays. The hop from `src` reaches five vertices.
const TOUCH: &str = r#"
    CREATE QUERY Touch (vertex<V> src) {
      SumAccum<int> @a;
      SumAccum<int> @b;
      Start = {src};
      R = SELECT t FROM Start:s -(E>)- V:t ACCUM t.@a += 1, t.@b += 2;
      S = SELECT t FROM R:t POST_ACCUM t.@b += t.@a';
      PRINT S[S.@a, S.@b];
    }
"#;

#[test]
fn vertex_stores_allocate_four_bytes_per_vertex_plus_what_is_touched() {
    let mut b = GraphBuilder::new(ve_schema());
    let vs: Vec<_> = (0..VERTICES)
        .map(|i| {
            b.vertex("V", &[("name", Value::from(format!("v{i}")))])
                .unwrap()
        })
        .collect();
    for &t in &vs[1..6] {
        b.edge("E", vs[0], t, &[]).unwrap();
    }
    let g = b.build();
    let q = parse_query(TOUCH).unwrap();
    let engine = Engine::new(&g).with_parallelism(1);
    let args = [("src", Value::Vertex(vs[0]))];
    // Warm up once: lazily built graph statistics and caches are not
    // the query's accumulator state.
    engine.run(&q, &args).unwrap();

    let (out, bytes) = bytes_in(|| engine.run(&q, &args).unwrap());
    assert_eq!(out.prints.len(), 5, "{:?}", out.prints);
    assert!(
        out.prints.iter().all(|p| p == "S: 1, 3"),
        "{:?}",
        out.prints
    );

    // Two stores and two snapshots, 4 bytes per vertex each, plus 64 KiB
    // for the five touched cells and the query's plan, tables and output.
    let arrays = 4;
    let budget = (4 * VERTICES * arrays + (64 << 10)) as u64;
    let per_vertex = bytes as f64 / (VERTICES * arrays) as f64;
    println!("{bytes} bytes allocated, {per_vertex:.2} per vertex per store or snapshot");
    assert!(
        bytes <= budget,
        "{bytes} bytes allocated (budget {budget}, {per_vertex:.2} B/vertex)"
    );
}
