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
//!   with the length of `value()`.

use accum::types::{HeapField, SortDir};
use accum::{Accum, AccumType, UserAccumRegistry};
use pgraph::bigcount::BigCount;
use pgraph::value::{MemSize, Value, ValueType};
use proptest::prelude::*;
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

/// The footprint recount the cached `bytes` replaced, over the public
/// variants.
fn recount(a: &Accum) -> usize {
    let values = |xs: &[Value]| xs.iter().map(MemSize::estimated_bytes).sum::<usize>();
    std::mem::size_of::<Accum>()
        + match a {
            Accum::SumStr(s) => s.capacity(),
            Accum::Min(v) | Accum::Max(v) => v.as_ref().map_or(0, MemSize::estimated_bytes),
            Accum::Set { items, .. }
            | Accum::List { items, .. }
            | Accum::Array { items, .. }
            | Accum::Heap { items, .. } => values(items),
            Accum::Bag { counts, .. } => counts
                .keys()
                .map(|k| k.estimated_bytes() + std::mem::size_of::<BigCount>())
                .sum(),
            Accum::Map { entries, .. } => {
                entries.iter().map(|(k, v)| k.estimated_bytes() + recount(v)).sum()
            }
            Accum::GroupBy { groups, .. } => groups
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
    let heap = AccumType::Heap {
        capacity: 3,
        fields: vec![HeapField { index: 0, dir: SortDir::Desc }],
    };
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
        AccumType::Heap {
            capacity: 4,
            fields: vec![HeapField { index: 0, dir: SortDir::Desc }],
        },
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

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
        let ty = AccumType::Heap {
            capacity: cap,
            fields: vec![HeapField { index: 0, dir: SortDir::Desc }],
        };
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
        let ty = AccumType::Heap { capacity: cap, fields: fields.clone() };
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
            AccumType::Heap { capacity: 2, fields: vec![HeapField { index: 0, dir: SortDir::Asc }] },
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
}
