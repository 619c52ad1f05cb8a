//! The graph's attribute store costs what its columns hold. Building
//! 40 000 vertices of a five-attribute type — two INTs, a DATETIME, a
//! STRING drawn from four values and written as a fresh string each time,
//! and a BOOL — may keep at most 88 bytes per vertex allocated: 8 for the
//! vertex record, 4 for the per-type id list, 8 per INT or DATETIME cell,
//! 32 per STRING cell, a bit per BOOL, and the CSR offsets. A 176-byte
//! `Arc<[Value]>` row and a 24-byte record per vertex would keep over
//! 200, and a string allocation per cell would add 32 more. A one-attribute commit copies one column chunk
//! — 256 scalar cells or 32 string cells — plus the chunk pointers of the
//! written type's columns.
//!
//! A counting global allocator, delegating to [`System`], sums the bytes
//! requested and released on the test's own thread.

#![allow(unsafe_code)]

use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::mutate::{apply_batch, MutationOp};
use pgraph::schema::{AttrDef, Schema};
use pgraph::value::{Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread's allocations and reallocations.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread released, reallocations' old blocks included.
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn count(cell: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    // A const-initialized `Cell` has no destructor, so the slot is
    // readable for the thread's whole life; `try_with` only guards the
    // impossible case without panicking inside the allocator.
    let _ = cell.try_with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`;
// counting touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATED, layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&ALLOCATED, new_size);
        count(&FREED, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, the bytes it requests on this thread, and how many of
/// them it has not released when it returns.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (a0, f0) = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    (out, a1 - a0, (a1 - a0) as i64 - (f1 - f0) as i64)
}

const BROWSERS: [&str; 4] = ["Chrome", "Firefox", "Safari", "Internet Explorer"];

fn schema() -> Schema {
    let mut s = Schema::new();
    let attrs = vec![
        AttrDef::new("id", ValueType::Int),
        AttrDef::new("length", ValueType::Int),
        AttrDef::new("creationDate", ValueType::DateTime),
        AttrDef::new("browser", ValueType::Str),
        AttrDef::new("isPost", ValueType::Bool),
    ];
    s.add_vertex_type("Message", attrs).unwrap();
    s
}

fn build(n: usize) -> Graph {
    let mut b = GraphBuilder::new(schema());
    for i in 0..n as i64 {
        let row = [
            ("id", Value::Int(i)),
            ("length", Value::Int(i % 300)),
            ("creationDate", Value::DateTime(1_300_000_000 + i)),
            ("browser", Value::from(BROWSERS[i as usize % 4])),
            ("isPost", Value::Bool(i % 3 == 0)),
        ];
        b.vertex("Message", &row).unwrap();
    }
    b.build()
}

#[test]
fn a_vertex_keeps_what_its_columns_hold() {
    const VERTICES: usize = 40_000;
    let schema_bytes = bytes_in(|| Graph::new(schema())).2;
    let (g, _, kept) = bytes_in(|| build(VERTICES));
    let per_vertex = (kept - schema_bytes) as f64 / VERTICES as f64;
    println!("{kept} bytes kept, {per_vertex:.1} per vertex");
    assert!(per_vertex <= 88.0, "{per_vertex:.1} bytes kept per vertex, budget 88");
    assert_eq!(g.vertex_count(), VERTICES);
    assert_eq!(*g.vertex_attr(VertexId(5), 3), Value::from("Firefox"));
}

#[test]
fn a_one_attribute_commit_copies_one_chunk() {
    // A copied INT chunk is 256 cells of 8 bytes; a STRING chunk, 32 of
    // 32. The first write to a type in a snapshot also copies its column
    // spines, 8 bytes per chunk: 0.34 bytes per vertex here (three
    // 8-byte columns at 256 cells a chunk, the strings at 32); allow 3/8.
    for vertices in [20_000, 80_000] {
        let parent = build(vertices);
        for (attr, value, chunk) in
            [(0, Value::Int(-1), 256 * 8), (3, Value::from("Opera"), 32 * 32)]
        {
            let mut child = parent.clone();
            let op = MutationOp::SetVertexAttr { v: VertexId(vertices as u32 / 2), attr, value };
            let (_, allocated, _) = bytes_in(|| apply_batch(&mut child, &[op]).unwrap());
            let budget = (chunk + 1024 + vertices * 3 / 8) as u64;
            println!("{vertices} vertices, attribute {attr}: {allocated} bytes allocated");
            assert!(
                allocated <= budget,
                "{vertices} vertices, attribute {attr}: {allocated} bytes, budget {budget}"
            );
            let (shared, total) = child.chunks_shared_with(&parent);
            assert_eq!(total - shared, 1, "{vertices} vertices, attribute {attr}");
        }
    }
}
