//! Property-based tests for accumulators: the algebraic laws the paper's
//! determinism and tractability arguments rest on.
//!
//! * order-invariant accumulators produce the same value for any
//!   permutation of their inputs (Section 4.3),
//! * the multiplicity shortcut equals literal repetition (Theorem 7.1 /
//!   Appendix A),
//! * multiplicity-insensitive accumulators are idempotent under repeats,
//! * the containers' fast paths agree with reference copies of the plain
//!   algorithms they replaced: heaps with the sort-insert (ties with
//!   distinguishing payloads included), hashed group tables with a
//!   `BTreeMap`, the cached footprint with a full recount, and `size()`
//!   with the length of `value()`;
//! * an input lent by reference or field by field (borrowed group
//!   probes, heap candidates ranked in place) leaves exactly the state an
//!   owned input leaves;
//! * the flat layouts — a group table's slab, a heap's field-inline rows —
//!   match those references step by step through clears, overlapping
//!   merges and nesting, with `size()` and the cached bytes recounted
//!   after every step.

use accum::types::{HeapField, SortDir};
use accum::{Accum, AccumType, Input, UserAccumRegistry};
use pgraph::bigcount::BigCount;
use pgraph::value::{MemSize, Value, ValueType};
use proptest::prelude::*;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Cases per property; Miri interprets every case, so it runs few.
const CASES: u32 = if cfg!(miri) { 2 } else { 64 };

fn reg() -> UserAccumRegistry {
    UserAccumRegistry::new()
}

/// A reference copy of the heap's lexicographic comparator.
fn ref_heap_cmp(a: &Value, b: &Value, fields: &[HeapField]) -> Ordering {
    let (Value::Tuple(ta), Value::Tuple(tb)) = (a, b) else { unreachable!("tuple inputs") };
    for f in fields {
        let o = ta[f.index].cmp(&tb[f.index]);
        if o != Ordering::Equal {
            return if f.dir == SortDir::Desc { o.reverse() } else { o };
        }
    }
    Ordering::Equal
}

/// A reference copy of the plain heap sort-insert: binary search,
/// insert, truncate — for every input.
fn ref_heap_insert(items: &mut Vec<Value>, input: Value, fields: &[HeapField], cap: usize) {
    let pos = items
        .binary_search_by(|probe| ref_heap_cmp(probe, &input, fields))
        .unwrap_or_else(|p| p);
    items.insert(pos, input);
    items.truncate(cap);
}

/// Group keys that stress `Hash`/`Eq` agreement: `Int(0)`, `Double(0.0)`
/// and `Double(-0.0)`; 2^53 and 2^53 + 1 as ints against 2^53 as a
/// double; NaN; `Null`; and ordinary strings.
fn tricky_key(i: u64) -> Value {
    let p53 = 1i64 << 53;
    match i % 11 {
        0 => Value::Int(0),
        1 => Value::Double(0.0),
        2 => Value::Double(-0.0),
        3 => Value::Int(p53),
        4 => Value::Int(p53 + 1),
        5 => Value::Double(p53 as f64),
        6 => Value::Double(f64::NAN),
        7 => Value::Null,
        n => Value::from(format!("k{n}")),
    }
}

/// Group keys whose `Value` equality crosses variants: for each `n` in
/// 0..40, `Int(n)` and `Double(n)` (one group), `Double(n + 0.5)`, a
/// string, and `Null`.
fn eq_key(i: u64) -> Value {
    let n = (i / 5 % 40) as i64;
    match i % 5 {
        0 => Value::Int(n),
        1 => Value::Double(n as f64),
        2 => Value::Double(n as f64 + 0.5),
        3 => Value::from(format!("s{n}")),
        _ => Value::Null,
    }
}

/// The footprint recount the cached `bytes` replaced, over the public
/// variants: a heap row is charged as the tuple it renders as, a group as
/// its key plus its nested accumulators.
fn recount(a: &Accum) -> usize {
    let values = |xs: &[Value]| xs.iter().map(MemSize::estimated_bytes).sum::<usize>();
    std::mem::size_of::<Accum>()
        + match a {
            Accum::SumStr(s) => s.capacity(),
            Accum::Min(v) | Accum::Max(v) => v.as_ref().map_or(0, MemSize::estimated_bytes),
            Accum::Set { items, .. } | Accum::List { items, .. } | Accum::Array { items, .. } => {
                values(items)
            }
            Accum::Heap { spec, rows, .. } => rows
                .chunks(spec.arity())
                .map(|row| std::mem::size_of::<Value>() + values(row))
                .sum(),
            Accum::Bag { counts, .. } => counts
                .keys()
                .map(|k| k.estimated_bytes() + std::mem::size_of::<BigCount>())
                .sum(),
            Accum::Map { entries, .. } => {
                entries.iter().map(|(k, v)| k.estimated_bytes() + recount(v)).sum()
            }
            Accum::GroupBy(groups) => groups
                .iter()
                .map(|(k, accs)| k.estimated_bytes() + accs.iter().map(recount).sum::<usize>())
                .sum(),
            Accum::User(u) => u.estimated_bytes(),
            _ => 0,
        }
}

/// Every built-in accumulator type, containers nesting containers
/// included.
fn all_types() -> Vec<AccumType> {
    let heap = AccumType::heap(3, 2, vec![HeapField { index: 0, dir: SortDir::Desc }]);
    vec![
        AccumType::Sum(ValueType::Int),
        AccumType::Sum(ValueType::Double),
        AccumType::Sum(ValueType::Str),
        AccumType::Min,
        AccumType::Max,
        AccumType::Avg,
        AccumType::Or,
        AccumType::And,
        AccumType::Set,
        AccumType::Bag,
        AccumType::List,
        AccumType::Array,
        AccumType::Map(Box::new(AccumType::Set)),
        AccumType::Map(Box::new(AccumType::Bag)),
        heap.clone(),
        AccumType::GroupBy {
            key_arity: 1,
            nested: vec![heap, AccumType::Map(Box::new(AccumType::List)), AccumType::Avg],
        },
    ]
}

/// A well-typed input for `ty` derived from `x`.
fn typed_input(ty: &AccumType, x: u64) -> Value {
    let s = Value::from(format!("s{}", x % 7));
    let t = Value::Tuple(vec![Value::Int((x % 5) as i64), s.clone()]);
    match ty {
        AccumType::Sum(ValueType::Str) => s,
        AccumType::Sum(_) | AccumType::Avg => Value::Int(x as i64 % 13),
        AccumType::Or | AccumType::And => Value::Bool(x.is_multiple_of(3)),
        AccumType::Map(_) => Value::Tuple(vec![Value::Int((x % 4) as i64), t]),
        AccumType::Heap { .. } => t,
        AccumType::GroupBy { .. } => Value::Tuple(vec![
            tricky_key(x),
            t.clone(),
            Value::Tuple(vec![s, t]),
            Value::Int(x as i64),
        ]),
        _ => t,
    }
}

fn order_invariant_types() -> Vec<AccumType> {
    vec![
        AccumType::Sum(ValueType::Int),
        AccumType::Sum(ValueType::Double),
        AccumType::Min,
        AccumType::Max,
        AccumType::Avg,
        AccumType::Or,
        AccumType::And,
        AccumType::Set,
        AccumType::Bag,
        AccumType::heap(4, 2, vec![HeapField { index: 0, dir: SortDir::Desc }]),
        AccumType::Map(Box::new(AccumType::Sum(ValueType::Int))),
    ]
}

fn input_for(ty: &AccumType, x: i64) -> Value {
    match ty {
        AccumType::Or | AccumType::And => Value::Bool(x % 2 == 0),
        AccumType::Map(_) => Value::Tuple(vec![Value::Int(x % 4), Value::Int(x)]),
        AccumType::Heap { .. } => Value::Tuple(vec![Value::Int(x), Value::Int(x % 3)]),
        _ => Value::Int(x),
    }
}

/// How a test hands an input over: owned, borrowed whole, or field by
/// field with every field borrowed.
fn feed(a: &mut Accum, v: &Value, how: u8, mu: u64, r: &UserAccumRegistry) {
    let mu = BigCount::from(mu);
    match (how % 3, v) {
        (0, _) => a.combine_with_multiplicity(v.clone(), &mu, r),
        (1, _) => a.combine_with_multiplicity(v, &mu, r),
        (_, Value::Tuple(fields)) => {
            let lent = Input::Tuple(fields.iter().map(Cow::Borrowed).collect());
            a.combine_with_multiplicity(lent, &mu, r)
        }
        _ => unreachable!("tuple inputs"),
    }
    .unwrap();
}

/// A reference group table: a `BTreeMap` from key tuple to the group's
/// nested accumulators, each group a plain `Vec`.
struct RefGroups {
    key_arity: usize,
    nested: Vec<AccumType>,
    groups: BTreeMap<Value, Vec<Accum>>,
}

impl RefGroups {
    fn new(key_arity: usize, nested: &[AccumType]) -> RefGroups {
        RefGroups { key_arity, nested: nested.to_vec(), groups: BTreeMap::new() }
    }

    fn combine(&mut self, v: &Value, mu: u64, r: &UserAccumRegistry) {
        let Value::Tuple(fields) = v else { unreachable!("tuple inputs") };
        let (key, vals) = fields.split_at(self.key_arity);
        let slot = self
            .groups
            .entry(Value::Tuple(key.to_vec()))
            .or_insert_with(|| self.nested.iter().map(|t| Accum::new(t, r).unwrap()).collect());
        for (a, v) in slot.iter_mut().zip(vals) {
            a.combine_with_multiplicity(v.clone(), &BigCount::from(mu), r).unwrap();
        }
    }

    fn merge(&mut self, other: RefGroups, r: &UserAccumRegistry) {
        for (k, accs) in other.groups {
            match self.groups.get_mut(&k) {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(accs) {
                        a.merge(b, r).unwrap();
                    }
                }
                None => {
                    self.groups.insert(k, accs);
                }
            }
        }
    }

    fn render(&self) -> Value {
        Value::Map(
            self.groups
                .iter()
                .map(|(k, accs)| (k.clone(), Value::Tuple(accs.iter().map(Accum::value).collect())))
                .collect(),
        )
    }
}

/// Asserts `a` renders as `want`, has `len` elements, and caches exactly
/// its recounted footprint.
fn check_state(a: &Accum, want: &Value, len: usize, step: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.value().to_string(), want.to_string(), "value after {}", step);
    prop_assert_eq!(a.size(), Some(len), "size() after {}", step);
    prop_assert_eq!(a.estimated_bytes(), recount(a), "cached bytes after {}", step);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A slab group table tracks the `BTreeMap` reference after every
    /// step: combines handed over owned, borrowed and field-wise (with
    /// multiplicities), `= NULL` followed by a refill, and merges of
    /// partials whose groups overlap the table's — on its own and nested
    /// in a `MapAccum`.
    #[test]
    fn slab_groupby_matches_btree_reference_step_by_step(
        ops in prop::collection::vec((0u8..8, 0u64..14, -9i64..9, 1u64..3), 0..40),
    ) {
        let r = reg();
        let nested = vec![
            AccumType::heap(2, 2, vec![HeapField { index: 0, dir: SortDir::Desc }]),
            AccumType::Sum(ValueType::Int),
            AccumType::List,
        ];
        let group_by = AccumType::GroupBy { key_arity: 2, nested: nested.clone() };
        let input = |k: u64, v: i64| {
            Value::Tuple(vec![
                tricky_key(k),
                Value::from(format!("s{}", k % 3)),
                Value::Tuple(vec![Value::Int(v), Value::Int(k as i64)]),
                Value::Int(v),
                Value::Int(v * 10 + k as i64),
            ])
        };
        // The table alone, and the same table under map keys 0 and 1.
        let mut g = Accum::new(&group_by, &r).unwrap();
        let mut reference = RefGroups::new(2, &nested);
        let in_map = AccumType::Map(Box::new(group_by.clone()));
        let mut m = Accum::new(&in_map, &r).unwrap();
        let mut ref_m: BTreeMap<Value, RefGroups> = BTreeMap::new();
        for (step, &(op, k, v, mu)) in ops.iter().enumerate() {
            let mk = Value::Int((k % 2) as i64);
            match op {
                0..=4 => {
                    let x = input(k, v);
                    feed(&mut g, &x, op, mu, &r);
                    reference.combine(&x, mu, &r);
                    let pair = Value::Tuple(vec![mk.clone(), x.clone()]);
                    feed(&mut m, &pair, op, mu, &r);
                    ref_m.entry(mk).or_insert_with(|| RefGroups::new(2, &nested)).combine(&x, mu, &r);
                }
                5 => {
                    g.assign(Value::Null).unwrap();
                    reference.groups.clear();
                    m.assign(Value::Null).unwrap();
                    ref_m.clear();
                }
                _ => {
                    // A partial over keys k..k+5: it shares some groups
                    // with the table and brings new ones.
                    let mut part = Accum::new(&group_by, &r).unwrap();
                    let mut ref_part = RefGroups::new(2, &nested);
                    let mut map_part = Accum::new(&in_map, &r).unwrap();
                    let mut ref_map_part = RefGroups::new(2, &nested);
                    for (i, y) in (k..k + 5).enumerate() {
                        let x = input(y, v + i as i64);
                        feed(&mut part, &x, i as u8, 1, &r);
                        ref_part.combine(&x, 1, &r);
                        feed(&mut map_part, &Value::Tuple(vec![mk.clone(), x.clone()]), i as u8, 1, &r);
                        ref_map_part.combine(&x, 1, &r);
                    }
                    g.merge(part, &r).unwrap();
                    reference.merge(ref_part, &r);
                    m.merge(map_part, &r).unwrap();
                    match ref_m.get_mut(&mk) {
                        Some(mine) => mine.merge(ref_map_part, &r),
                        None => {
                            ref_m.insert(mk, ref_map_part);
                        }
                    }
                }
            }
            let what = format!("step {step} (op {op})");
            check_state(&g, &reference.render(), reference.groups.len(), &what)?;
            let want_m = Value::Map(ref_m.iter().map(|(k, gs)| (k.clone(), gs.render())).collect());
            check_state(&m, &want_m, ref_m.len(), &what)?;
        }
    }

    /// A field-inline heap tracks the plain sort-insert after every step:
    /// candidates handed over owned, borrowed and field-wise, with
    /// multiplicities above one, ties on both sort fields (distinct
    /// payloads, strings among them), then merges of partials. Rejected
    /// candidates — below the last row, or tied with it at capacity — must
    /// leave the cached bytes where the recount puts them.
    #[test]
    fn flat_heap_matches_sort_insert_step_by_step(
        xs in prop::collection::vec((0i64..3, 0i64..2, 0u64..1000, 1u64..4, 0u8..3), 0..50),
        cap in 1usize..6,
        parts in 1usize..4,
    ) {
        let r = reg();
        let fields = vec![
            HeapField { index: 0, dir: SortDir::Desc },
            HeapField { index: 1, dir: SortDir::Asc },
        ];
        let ty = AccumType::heap(cap, 3, fields.clone());
        let tuple = |&(a, b, payload, _, _): &(i64, i64, u64, u64, u8)| {
            let payload = if payload % 2 == 0 {
                Value::Int(payload as i64)
            } else {
                Value::from(format!("p{payload}"))
            };
            Value::Tuple(vec![Value::Int(a), Value::Int(b), payload])
        };
        let mut h = Accum::new(&ty, &r).unwrap();
        let mut reference = Vec::new();
        for (step, x) in xs.iter().enumerate() {
            let (mu, how) = (x.3, x.4);
            feed(&mut h, &tuple(x), how, mu, &r);
            for _ in 0..mu.min(cap as u64) {
                ref_heap_insert(&mut reference, tuple(x), &fields, cap);
            }
            check_state(&h, &Value::List(reference.clone()), reference.len(), &format!("insert {step}"))?;
        }
        let mut merged = Accum::new(&ty, &r).unwrap();
        let mut ref_merged: Vec<Value> = Vec::new();
        for (i, chunk) in xs.chunks(xs.len().div_ceil(parts).max(1)).enumerate() {
            let mut part = Accum::new(&ty, &r).unwrap();
            let mut ref_part = Vec::new();
            for x in chunk {
                feed(&mut part, &tuple(x), x.4, 1, &r);
                ref_heap_insert(&mut ref_part, tuple(x), &fields, cap);
            }
            merged.merge(part, &r).unwrap();
            for v in ref_part {
                ref_heap_insert(&mut ref_merged, v, &fields, cap);
            }
            check_state(&merged, &Value::List(ref_merged.clone()), ref_merged.len(), &format!("merge {i}"))?;
        }
    }

    /// Any permutation of inputs yields the same value for order-invariant
    /// accumulator types. (Sum<double> is invariant up to FP rounding;
    /// integer inputs keep it exact here.)
    #[test]
    fn order_invariance(xs in prop::collection::vec(-50i64..50, 0..24), swap_seed in 0usize..1000) {
        let r = reg();
        for ty in order_invariant_types() {
            let mut a = Accum::new(&ty, &r).unwrap();
            for &x in &xs {
                a.combine(input_for(&ty, x), &r).unwrap();
            }
            // A pseudo-random permutation via rotation + adjacent swaps.
            let mut ys = xs.clone();
            if !ys.is_empty() {
                let n = ys.len();
                ys.rotate_left(swap_seed % n);
                let k = swap_seed % n;
                ys.swap(k, (k + 1) % n);
            }
            let mut b = Accum::new(&ty, &r).unwrap();
            for &y in &ys {
                b.combine(input_for(&ty, y), &r).unwrap();
            }
            prop_assert_eq!(a.value(), b.value(), "type {} order-sensitive", ty);
        }
    }

    /// The multiplicity shortcut equals literal repetition for every
    /// accumulator type that supports it.
    #[test]
    fn multiplicity_shortcut_equals_repetition(x in -30i64..30, mu in 1u64..200) {
        let r = reg();
        let mut types = order_invariant_types();
        types.push(AccumType::List); // expands literally below the cap
        for ty in types {
            let input = input_for(&ty, x);
            let mut shortcut = Accum::new(&ty, &r).unwrap();
            shortcut
                .combine_with_multiplicity(input.clone(), &BigCount::from(mu), &r)
                .unwrap();
            let mut repeated = Accum::new(&ty, &r).unwrap();
            for _ in 0..mu {
                repeated.combine(input.clone(), &r).unwrap();
            }
            prop_assert_eq!(
                shortcut.value(),
                repeated.value(),
                "type {} multiplicity shortcut diverged (x={}, mu={})", ty, x, mu
            );
        }
    }

    /// Multiplicity-insensitive accumulators absorb arbitrarily huge
    /// multiplicities as a single combine.
    #[test]
    fn insensitive_absorb_huge(x in -30i64..30, bits in 64usize..500) {
        let r = reg();
        for ty in [AccumType::Min, AccumType::Max, AccumType::Set, AccumType::Or, AccumType::And] {
            let input = input_for(&ty, x);
            let mut big = Accum::new(&ty, &r).unwrap();
            big.combine_with_multiplicity(input.clone(), &BigCount::pow2(bits), &r).unwrap();
            let mut once = Accum::new(&ty, &r).unwrap();
            once.combine(input.clone(), &r).unwrap();
            prop_assert_eq!(big.value(), once.value(), "type {}", ty);
        }
    }

    /// Bag counts are exact under mixed unit and bulk insertion.
    #[test]
    fn bag_counts_exact(units in 0u64..50, bulk in 0u64..1_000_000) {
        let r = reg();
        let mut b = Accum::new(&AccumType::Bag, &r).unwrap();
        for _ in 0..units {
            b.combine(Value::Int(7), &r).unwrap();
        }
        b.combine_with_multiplicity(Value::Int(7), &BigCount::from(bulk), &r).unwrap();
        let total = units + bulk;
        let want = if total == 0 {
            Value::Map(vec![])
        } else {
            Value::Map(vec![(Value::Int(7), Value::Int(total as i64))])
        };
        prop_assert_eq!(b.value(), want);
    }

    /// Heap truncation: the heap holds the top-capacity elements of the
    /// input multiset, in sort order.
    #[test]
    fn heap_is_truncated_sort(xs in prop::collection::vec(-100i64..100, 0..40), cap in 1usize..8) {
        let r = reg();
        let ty = AccumType::heap(cap, 1, vec![HeapField { index: 0, dir: SortDir::Desc }]);
        let mut h = Accum::new(&ty, &r).unwrap();
        for &x in &xs {
            h.combine(Value::Tuple(vec![Value::Int(x)]), &r).unwrap();
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.truncate(cap);
        let want = Value::List(
            sorted.into_iter().map(|x| Value::Tuple(vec![Value::Int(x)])).collect(),
        );
        prop_assert_eq!(h.value(), want);
    }

    /// Avg equals the arithmetic mean regardless of multiplicity mixing.
    #[test]
    fn avg_is_exact_mean(xs in prop::collection::vec(-100i64..100, 1..20), mu in 1u64..50) {
        let r = reg();
        let mut a = Accum::new(&AccumType::Avg, &r).unwrap();
        let mut sum = 0f64;
        let mut count = 0f64;
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.combine(Value::Int(x), &r).unwrap();
                sum += x as f64;
                count += 1.0;
            } else {
                a.combine_with_multiplicity(Value::Int(x), &BigCount::from(mu), &r).unwrap();
                sum += x as f64 * mu as f64;
                count += mu as f64;
            }
        }
        let got = a.value().as_f64().unwrap();
        prop_assert!((got - sum / count).abs() < 1e-9);
    }

    /// Heaps keep exactly the plain sort-insert's contents and tie order —
    /// ties on both sort fields with distinct payloads (like `Q_acc`'s
    /// unsorted message id) — under combine, multiplicity and merge.
    #[test]
    fn heap_matches_reference_sort_insert(
        xs in prop::collection::vec((0i64..4, 0i64..3, 0i64..1000, 1u64..4), 0..60),
        cap in 1usize..7,
        parts in 1usize..4,
    ) {
        let r = reg();
        let fields = vec![
            HeapField { index: 0, dir: SortDir::Desc },
            HeapField { index: 1, dir: SortDir::Asc },
        ];
        let ty = AccumType::heap(cap, 3, fields.clone());
        let input = |&(a, b, payload, _): &(i64, i64, i64, u64)| {
            Value::Tuple(vec![Value::Int(a), Value::Int(b), Value::Int(payload)])
        };
        let mut h = Accum::new(&ty, &r).unwrap();
        let mut reference = Vec::new();
        for x in &xs {
            let mu = x.3;
            h.combine_with_multiplicity(input(x), &BigCount::from(mu), &r).unwrap();
            for _ in 0..mu.min(cap as u64) {
                ref_heap_insert(&mut reference, input(x), &fields, cap);
            }
        }
        prop_assert_eq!(h.value().to_string(), Value::List(reference).to_string());
        // Merging partials = re-inserting each partial's items in order.
        let mut merged = Accum::new(&ty, &r).unwrap();
        let mut ref_merged: Vec<Value> = Vec::new();
        for chunk in xs.chunks(xs.len().div_ceil(parts).max(1)) {
            let mut part = Accum::new(&ty, &r).unwrap();
            let mut ref_part = Vec::new();
            for x in chunk {
                part.combine(input(x), &r).unwrap();
                ref_heap_insert(&mut ref_part, input(x), &fields, cap);
            }
            merged.merge(part, &r).unwrap();
            for v in ref_part {
                ref_heap_insert(&mut ref_merged, v, &fields, cap);
            }
        }
        prop_assert_eq!(merged.value().to_string(), Value::List(ref_merged).to_string());
    }

    /// A hashed group table renders exactly like a `BTreeMap` of groups
    /// fed the same inputs — key representatives included (`Int(0)` vs
    /// `Double(0.0)` print differently but are one group) — and merging
    /// partials over any partition changes nothing.
    #[test]
    fn hashed_groupby_matches_btree_reference(
        xs in prop::collection::vec((0u64..40, -20i64..20), 0..60),
        parts in 1usize..5,
    ) {
        let r = reg();
        let nested = vec![
            AccumType::Sum(ValueType::Int),
            AccumType::heap(2, 2, vec![HeapField { index: 0, dir: SortDir::Asc }]),
            AccumType::List,
        ];
        let ty = AccumType::GroupBy { key_arity: 1, nested: nested.clone() };
        let input = |&(k, v): &(u64, i64)| {
            Value::Tuple(vec![
                tricky_key(k),
                Value::Int(v),
                Value::Tuple(vec![Value::Int(v), Value::Int(k as i64)]),
                Value::Int(v),
            ])
        };
        let fresh = || nested.iter().map(|t| Accum::new(t, &r).unwrap()).collect::<Vec<_>>();
        let render = |groups: &BTreeMap<Value, Vec<Accum>>| {
            Value::Map(
                groups
                    .iter()
                    .map(|(k, accs)| (k.clone(), Value::Tuple(accs.iter().map(Accum::value).collect())))
                    .collect(),
            )
            .to_string()
        };
        let fold = |xs: &[(u64, i64)]| {
            let mut groups: BTreeMap<Value, Vec<Accum>> = BTreeMap::new();
            for x in xs {
                let Value::Tuple(mut fields) = input(x) else { unreachable!() };
                let vals = fields.split_off(1);
                let slot = groups.entry(Value::Tuple(fields)).or_insert_with(fresh);
                for (a, v) in slot.iter_mut().zip(vals) {
                    a.combine(v, &r).unwrap();
                }
            }
            groups
        };
        let mut g = Accum::new(&ty, &r).unwrap();
        for x in &xs {
            g.combine(input(x), &r).unwrap();
        }
        let reference = fold(&xs);
        prop_assert_eq!(g.value().to_string(), render(&reference));
        prop_assert_eq!(g.size(), Some(reference.len()));
        // Partials merged in partition order, against the same merge over
        // `BTreeMap` partials (heap ties and list order depend on the
        // partition, identically on both sides).
        let mut merged = Accum::new(&ty, &r).unwrap();
        let mut ref_merged: BTreeMap<Value, Vec<Accum>> = BTreeMap::new();
        for chunk in xs.chunks(xs.len().div_ceil(parts).max(1)) {
            let mut part = Accum::new(&ty, &r).unwrap();
            for x in chunk {
                part.combine(input(x), &r).unwrap();
            }
            merged.merge(part, &r).unwrap();
            for (k, accs) in fold(chunk) {
                match ref_merged.get_mut(&k) {
                    Some(mine) => {
                        for (a, b) in mine.iter_mut().zip(accs) {
                            a.merge(b, &r).unwrap();
                        }
                    }
                    None => {
                        ref_merged.insert(k, accs);
                    }
                }
            }
        }
        prop_assert_eq!(merged.value().to_string(), render(&ref_merged));
    }

    /// Every type's cached footprint equals a full recount after every
    /// operation, and `size()` is the length of `value()` for every
    /// collection (and `None` for every scalar).
    #[test]
    fn cached_bytes_and_size_track_every_operation(
        ops in prop::collection::vec((0u8..4, 0u64..1000), 0..40),
    ) {
        let r = reg();
        for ty in all_types() {
            let mut a = Accum::new(&ty, &r).unwrap();
            for &(op, x) in &ops {
                let what = match op {
                    0 => { a.combine(typed_input(&ty, x), &r).unwrap(); "combine" }
                    1 => {
                        let mu = BigCount::from(1 + x % 3);
                        a.combine_with_multiplicity(typed_input(&ty, x), &mu, &r).unwrap();
                        "combine_with_multiplicity"
                    }
                    2 => {
                        let mut part = Accum::new(&ty, &r).unwrap();
                        for y in x..x + 4 {
                            part.combine(typed_input(&ty, y), &r).unwrap();
                        }
                        a.merge(part, &r).unwrap();
                        "merge"
                    }
                    _ => {
                        // Scalars take a typed value; containers clear on
                        // NULL, and collections also accept a list.
                        let v = match &ty {
                            AccumType::Set | AccumType::Bag | AccumType::List | AccumType::Array
                                if x.is_multiple_of(2) =>
                            {
                                Value::List(vec![typed_input(&ty, x), typed_input(&ty, x + 1)])
                            }
                            AccumType::Map(_)
                            | AccumType::Heap { .. }
                            | AccumType::GroupBy { .. } => Value::Null,
                            _ => typed_input(&ty, x),
                        };
                        a.assign(v).unwrap();
                        "assign"
                    }
                };
                prop_assert_eq!(a.estimated_bytes(), recount(&a), "{} after {}", ty, what);
                let len = match a.value() {
                    Value::Set(xs) | Value::List(xs) => Some(xs.len()),
                    Value::Map(xs) => Some(xs.len()),
                    _ => None,
                };
                prop_assert_eq!(a.size(), len, "{} size() after {}", ty, what);
            }
        }
    }

    /// Borrowed and field-wise inputs — a group found by a borrowed key
    /// probe, a heap candidate ranked in place and copied only when it
    /// makes the cut — give the owned input's state, `size()` and cached
    /// bytes, and both match the `BTreeMap` group table and the plain
    /// heap sort-insert, with ties on both sort fields and
    /// multiplicities above one.
    #[test]
    fn borrowed_probes_match_owned_input_and_references(
        xs in prop::collection::vec((0u64..12, 0i64..3, 0i64..2, 0i64..1000, 1u64..4), 0..60),
        cap in 1usize..5,
    ) {
        let r = reg();
        let fields = vec![
            HeapField { index: 0, dir: SortDir::Desc },
            HeapField { index: 1, dir: SortDir::Asc },
        ];
        let heap = AccumType::heap(cap, 3, fields.clone());
        let nested = vec![heap.clone(), AccumType::Sum(ValueType::Int), AccumType::Bag];
        let group_by = AccumType::GroupBy { key_arity: 1, nested: nested.clone() };
        let tuple = |&(_, a, b, payload, _): &(u64, i64, i64, i64, u64)| {
            Value::Tuple(vec![Value::Int(a), Value::Int(b), Value::Int(payload)])
        };
        // A string is charged by its length, so an owned copy is charged
        // exactly like a cloned borrow.
        let group_input = |x: &(u64, i64, i64, i64, u64)| {
            Value::Tuple(vec![tricky_key(x.0), tuple(x), Value::Int(x.1), Value::Int(x.2)]).clone()
        };
        for (ty, input) in [
            (&heap, &tuple as &dyn Fn(&(u64, i64, i64, i64, u64)) -> Value),
            (&group_by, &group_input as &dyn Fn(&(u64, i64, i64, i64, u64)) -> Value),
        ] {
            let mut owned = Accum::new(ty, &r).unwrap();
            let mut borrowed = Accum::new(ty, &r).unwrap();
            let mut fieldwise = Accum::new(ty, &r).unwrap();
            for x in &xs {
                let v = input(x);
                let mu = BigCount::from(x.4);
                owned.combine_with_multiplicity(v.clone(), &mu, &r).unwrap();
                borrowed.combine_with_multiplicity(&v, &mu, &r).unwrap();
                let Value::Tuple(parts) = &v else { unreachable!("tuple inputs") };
                let lent = Input::Tuple(parts.iter().map(Cow::Borrowed).collect());
                fieldwise.combine_with_multiplicity(lent, &mu, &r).unwrap();
            }
            for other in [&borrowed, &fieldwise] {
                prop_assert_eq!(other.value().to_string(), owned.value().to_string(), "{}", ty);
                prop_assert_eq!(other.size(), owned.size(), "{} size()", ty);
                prop_assert_eq!(other.estimated_bytes(), owned.estimated_bytes(), "{} bytes", ty);
                prop_assert_eq!(other.estimated_bytes(), recount(other), "{} recount", ty);
            }
        }

        // The references, fed the same inputs with the same multiplicities.
        let mut ref_heap = Vec::new();
        let mut ref_groups: BTreeMap<Value, Vec<Accum>> = BTreeMap::new();
        for x in &xs {
            for _ in 0..x.4.min(cap as u64) {
                ref_heap_insert(&mut ref_heap, tuple(x), &fields, cap);
            }
            let Value::Tuple(mut parts) = group_input(x) else { unreachable!() };
            let vals = parts.split_off(1);
            let slot = ref_groups
                .entry(Value::Tuple(parts))
                .or_insert_with(|| nested.iter().map(|t| Accum::new(t, &r).unwrap()).collect());
            for (a, v) in slot.iter_mut().zip(vals) {
                a.combine_with_multiplicity(v, &BigCount::from(x.4), &r).unwrap();
            }
        }
        let mut h = Accum::new(&heap, &r).unwrap();
        let mut g = Accum::new(&group_by, &r).unwrap();
        for x in &xs {
            h.combine_with_multiplicity(tuple(x), &BigCount::from(x.4), &r).unwrap();
            g.combine_with_multiplicity(group_input(x), &BigCount::from(x.4), &r).unwrap();
        }
        prop_assert_eq!(h.value().to_string(), Value::List(ref_heap).to_string());
        let rendered = Value::Map(
            ref_groups
                .iter()
                .map(|(k, accs)| (k.clone(), Value::Tuple(accs.iter().map(Accum::value).collect())))
                .collect(),
        );
        prop_assert_eq!(g.value().to_string(), rendered.to_string());
        prop_assert_eq!(g.size(), Some(ref_groups.len()));
    }

    /// A group key stores the hash its first probe computed; a probe, an
    /// index growth and a merge use that hash, never a fresh one. Keys
    /// still group by `Value` equality — `Int(n)` and `Double(n)` are one
    /// group — through enough distinct keys to grow the index at least
    /// three times, whether the inputs are combined into one table or
    /// folded over a contiguous partition whose partials merge in
    /// ascending order. Both equal a `BTreeMap` from the key's fields to
    /// the fold of its inputs.
    #[test]
    fn stored_key_hashes_group_by_value_equality(
        xs in prop::collection::vec((0u64..200, -20i64..20), 200..400),
        parts in 2usize..6,
    ) {
        let r = reg();
        let nested = vec![AccumType::Sum(ValueType::Int), AccumType::List];
        let ty = AccumType::GroupBy { key_arity: 2, nested: nested.clone() };
        let key = |k: u64| vec![eq_key(k), Value::Int((k / 5 % 40 % 3) as i64)];
        let input = |&(k, v): &(u64, i64)| {
            let mut fields = key(k);
            fields.extend([Value::Int(v), Value::Int(v)]);
            Value::Tuple(fields)
        };
        let mut reference: BTreeMap<Vec<Value>, Vec<Accum>> = BTreeMap::new();
        for &(k, v) in &xs {
            let slot = reference
                .entry(key(k))
                .or_insert_with(|| nested.iter().map(|t| Accum::new(t, &r).unwrap()).collect());
            for a in slot.iter_mut() {
                a.combine(Value::Int(v), &r).unwrap();
            }
        }
        let want = Value::Map(
            reference
                .iter()
                .map(|(k, accs)| {
                    (Value::Tuple(k.clone()), Value::Tuple(accs.iter().map(Accum::value).collect()))
                })
                .collect(),
        )
        .to_string();
        // An index that starts empty holds 3, 7, 14 and then 28 groups
        // before its third growth.
        prop_assert!(reference.len() > 28, "{} groups", reference.len());

        let mut g = Accum::new(&ty, &r).unwrap();
        for x in &xs {
            g.combine(input(x), &r).unwrap();
        }
        prop_assert_eq!(g.size(), Some(reference.len()));
        prop_assert_eq!(g.value().to_string(), want.clone());

        // The first chunk is combined into the live table, as a fold's
        // live store is; the later chunks' partials merge into it, so a
        // merged key must be found by the hash a probe computes.
        let mut chunks = xs.chunks(xs.len().div_ceil(parts));
        let mut merged = Accum::new(&ty, &r).unwrap();
        for x in chunks.next().unwrap() {
            merged.combine(input(x), &r).unwrap();
        }
        for chunk in chunks {
            let mut part = Accum::new(&ty, &r).unwrap();
            for x in chunk {
                part.combine(input(x), &r).unwrap();
            }
            merged.merge(part, &r).unwrap();
        }
        prop_assert_eq!(merged.size(), Some(reference.len()));
        prop_assert_eq!(merged.value().to_string(), want);

        // `Int(2)` and `Double(2.0)` keys land in one group, probed or merged.
        let two_of = |k: Value| Value::Tuple(vec![k, Value::Int(2), Value::Int(1), Value::Int(1)]);
        let mut two = Accum::new(&ty, &r).unwrap();
        two.combine(two_of(Value::Int(2)), &r).unwrap();
        two.combine(two_of(Value::Double(2.0)), &r).unwrap();
        prop_assert_eq!(two.size(), Some(1));
        let mut part = Accum::new(&ty, &r).unwrap();
        part.combine(two_of(Value::Double(2.0)), &r).unwrap();
        two.merge(part, &r).unwrap();
        prop_assert_eq!(two.value().to_string(), "{(2, 2) -> (3, [1, 1, 1])}");
    }
}
