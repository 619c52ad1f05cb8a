//! Allocation budget of the accumulator state layout, on a `GroupByAccum`
//! shaped like Appendix B's `Q_gs` `@@gs`: three keys (an int and two
//! strings), six heaps of 3-tuples (capacity 20 and 10), a
//! `SumAccum<int>` and an `AvgAccum`, fed borrowed inputs.
//!
//! * A new group may cost at most 10 allocations and reallocations: its
//!   key (one buffer plus its two strings) and one row block per heap,
//!   with the table's own growth amortized over the groups.
//! * A hit whose heap candidates every heap rejects costs none.
//!
//! A counting global allocator, delegating to [`System`], counts the
//! calls made on the test's own thread.

#![allow(unsafe_code)]

use accum::types::{HeapField, SortDir};
use accum::{Accum, AccumType, UserAccumRegistry};
use pgraph::value::{Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor, so the slot is
    // readable for the thread's whole life; `try_with` only guards the
    // impossible case without panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`;
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const GROUPS: usize = 10_000;

/// `@@gs`'s shape: `GroupByAccum<int y, string city, string browser,`
/// four `HeapAccum<DL>(20, ..)`, two `HeapAccum<BL>(10, ..)`,
/// `SumAccum<int>`, `AvgAccum>`.
fn q_gs_shape() -> AccumType {
    let heap = |capacity, a, da, b, db| {
        AccumType::heap(
            capacity,
            3,
            vec![HeapField { index: a, dir: da }, HeapField { index: b, dir: db }],
        )
    };
    let (asc, desc) = (SortDir::Asc, SortDir::Desc);
    AccumType::GroupBy {
        key_arity: 3,
        nested: vec![
            heap(20, 0, desc, 1, desc), // recent: date DESC, len DESC
            heap(20, 0, asc, 1, desc),  // earliest: date ASC, len DESC
            heap(20, 1, desc, 0, desc), // longest: len DESC, date DESC
            heap(20, 1, asc, 0, desc),  // shortest: len ASC, date DESC
            heap(10, 0, asc, 1, desc),  // oldestAuth: bday ASC, len DESC
            heap(10, 0, desc, 1, desc), // youngestAuth: bday DESC, len DESC
            AccumType::Sum(ValueType::Int),
            AccumType::Avg,
        ],
    }
}

/// One input row: the group key of group `g`, then one candidate per
/// heap (`heap_fields[j]` = (first, second) sort field of heap `j`), a
/// count and a length.
fn row(g: usize, heap_fields: [(i64, i64); 6]) -> Value {
    let key = [
        Value::Int((g % 10) as i64),
        Value::from(format!("city{}", g / 10 % 100)),
        Value::from(format!("browser{}", g / 1000)),
    ];
    let heaps = heap_fields
        .iter()
        .map(|&(a, b)| Value::Tuple(vec![Value::Int(a), Value::Int(b), Value::Int(g as i64)]));
    let scalars = [Value::Int(1), Value::Int(g as i64 % 300)];
    Value::Tuple(key.into_iter().chain(heaps).chain(scalars).collect())
}

#[test]
fn new_groups_stay_within_ten_allocations_each() {
    let r = UserAccumRegistry::new();
    let inputs: Vec<Value> = (0..GROUPS).map(|g| row(g, [(g as i64, 7); 6])).collect();
    let mut gs = Accum::new(&q_gs_shape(), &r).unwrap();
    let n = allocations_in(|| {
        for x in &inputs {
            gs.combine(x, &r).unwrap();
        }
    });
    assert_eq!(gs.size(), Some(GROUPS));
    let per_group = n as f64 / GROUPS as f64;
    println!("{per_group:.2} allocations + reallocations per new group");
    assert!(per_group <= 10.0, "{per_group:.2} allocations per new group (budget 10)");
}

#[test]
fn a_hit_whose_candidates_are_all_rejected_allocates_nothing() {
    let r = UserAccumRegistry::new();
    let mut gs = Accum::new(&q_gs_shape(), &r).unwrap();
    // Fill group 0's heaps to capacity with rows whose sort fields run
    // over 1000..1020.
    for j in 0..20 {
        let v = 1000 + j;
        gs.combine(row(0, [(v, v); 6]), &r).unwrap();
    }
    // One candidate per heap that ranks strictly below that heap's last
    // row: earlier for DESC heads, later for ASC heads.
    let (low, high) = (0, 9_999);
    let rejected = row(0, [(low, 0), (high, 0), (0, low), (0, high), (high, 0), (low, 0)]);
    let before = gs.value();
    let n = allocations_in(|| gs.combine(&rejected, &r).unwrap());
    assert_eq!(n, 0, "a hit with every heap candidate rejected allocated {n} times");
    // The hit still reached the group's scalar accumulators.
    assert_ne!(gs.value(), before);
}
