//! Live accumulator instances: the combiner `⊕`, assignment, snapshots,
//! and the multiplicity shortcut of Theorem 7.1.
//!
//! Every collection accumulator caches the estimated footprint of its
//! contents in a `bytes` field that each mutation keeps in step, so
//! [`Accum::estimated_bytes`] — read by the engine's memory budget after
//! every accumulator clause — costs O(1) instead of a walk over the
//! contents.

use crate::types::{AccumType, HeapField, SortDir};
use crate::user::{UserAccum, UserAccumRegistry};
use pgraph::bigcount::BigCount;
use pgraph::fxhash::FxHashMap;
use pgraph::value::{MemSize, Value, ValueType};
use std::cmp::Ordering;
use std::collections::{btree_map, hash_map, BTreeMap};
use std::fmt;

/// A `GroupByAccum`'s group table: key tuple → the group's nested
/// accumulators. Hashed (`Value`'s `Hash` agrees with its `Eq`); the
/// group order becomes visible only in [`Accum::value`], which sorts by
/// key.
pub type GroupTable = FxHashMap<Value, Vec<Accum>>;

/// Errors from accumulator operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AccumError {
    /// The combiner received an input of an incompatible type.
    TypeMismatch {
        /// Human-readable description of the expected input type.
        expected: &'static str,
        /// The offending input value.
        got: Value,
    },
    /// Reference to a user accumulator type that was never registered.
    UnknownUserAccum(String),
    /// An order-dependent / multiplicity-sensitive accumulator received a
    /// binding with a multiplicity too large to expand — the query is
    /// outside the tractable class (paper Section 7).
    MultiplicityOverflow {
        /// Name of the accumulator type that refused the binding.
        accum: String,
        /// The multiplicity that exceeded the expansion cap (rendered,
        /// since it may not fit in a machine word).
        multiplicity: String,
    },
    /// A tuple-structured input had the wrong number of fields.
    ArityMismatch {
        /// Arity the accumulator was declared with.
        expected: usize,
        /// Arity of the input actually received.
        got: usize,
    },
}

impl fmt::Display for AccumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccumError::TypeMismatch { expected, got } => {
                write!(f, "accumulator expected {expected} input, got `{got}`")
            }
            AccumError::UnknownUserAccum(n) => write!(f, "unregistered user accumulator `{n}`"),
            AccumError::MultiplicityOverflow { accum, multiplicity } => write!(
                f,
                "{accum} cannot absorb binding multiplicity {multiplicity}: \
                 query is outside the tractable class (use a multiplicity-\
                 insensitive or Sum/Avg/Bag accumulator, or an enumerative \
                 path semantics)"
            ),
            AccumError::ArityMismatch { expected, got } => {
                write!(f, "expected a {expected}-tuple input, got arity {got}")
            }
        }
    }
}

impl std::error::Error for AccumError {}

/// Expansion cap for multiplicity-sensitive accumulators: bindings with
/// `μ` up to this bound are expanded by literal repetition; beyond it the
/// operation errors instead of silently exploding.
const EXPANSION_CAP: u64 = 1 << 20;

/// A live accumulator instance.
#[derive(Debug, Clone)]
pub enum Accum {
    /// `SumAccum<int>`: integer addition.
    SumInt(i64),
    /// `SumAccum<float/double>`: floating-point addition.
    SumDouble(f64),
    /// `SumAccum<string>`: concatenation (order-dependent).
    SumStr(String),
    /// `MinAccum`: running minimum (`None` until the first input).
    Min(Option<Value>),
    /// `MaxAccum`: running maximum (`None` until the first input).
    Max(Option<Value>),
    /// `AvgAccum`: running mean, stored as a sum/count pair.
    Avg {
        /// Sum of all inputs so far.
        sum: f64,
        /// Number of inputs so far.
        count: u64,
    },
    /// `OrAccum`: boolean disjunction.
    Or(bool),
    /// `AndAccum`: boolean conjunction.
    And(bool),
    /// `SetAccum`: deduplicated elements, kept sorted.
    Set {
        /// The elements, ascending.
        items: Vec<Value>,
        /// Cached estimated bytes of `items`.
        bytes: usize,
    },
    /// `BagAccum`: element → occurrence count (counts are [`BigCount`]
    /// so path multiplicities absorb without expansion).
    Bag {
        /// Occurrence count per distinct element.
        counts: BTreeMap<Value, BigCount>,
        /// Cached estimated bytes of `counts`.
        bytes: usize,
    },
    /// `ListAccum`: ordered append (order-dependent).
    List {
        /// The elements, in append order.
        items: Vec<Value>,
        /// Cached estimated bytes of `items`.
        bytes: usize,
    },
    /// `ArrayAccum`: ordered append; fixed-size semantics not modeled.
    Array {
        /// The elements, in append order.
        items: Vec<Value>,
        /// Cached estimated bytes of `items`.
        bytes: usize,
    },
    /// `MapAccum`: key → nested accumulator.
    Map {
        /// The live nested accumulator per key.
        entries: BTreeMap<Value, Accum>,
        /// Declared type used to instantiate nested accumulators on
        /// first touch of a new key.
        value_type: Box<AccumType>,
        /// Cached estimated bytes of `entries` (keys and nested
        /// accumulators).
        bytes: usize,
    },
    /// `HeapAccum`: capacity-bounded top-k of tuples.
    Heap {
        /// Maximum number of retained tuples.
        capacity: usize,
        /// Lexicographic sort specification.
        fields: Vec<HeapField>,
        /// Retained tuples, kept sorted best-first.
        items: Vec<Value>,
        /// Cached estimated bytes of `items`.
        bytes: usize,
    },
    /// `GroupByAccum`: SQL GROUP BY as an accumulator (paper Example 12).
    GroupBy {
        /// Number of leading key fields in each input tuple.
        key_arity: usize,
        /// Declared types of the nested per-group accumulators.
        nested: Vec<AccumType>,
        /// Key tuple → live nested accumulators for that group (boxed,
        /// keeping every `Accum` at 64 bytes).
        groups: Box<GroupTable>,
        /// Cached estimated bytes of `groups` (keys and nested
        /// accumulators).
        bytes: usize,
    },
    /// A user-defined accumulator behind the [`UserAccum`] trait object.
    User(Box<dyn UserAccum>),
}

impl Accum {
    /// Instantiates a fresh accumulator of declared type `ty` with its
    /// neutral internal value.
    pub fn new(ty: &AccumType, registry: &UserAccumRegistry) -> Result<Accum, AccumError> {
        Ok(match ty {
            AccumType::Sum(ValueType::Str) => Accum::SumStr(String::new()),
            AccumType::Sum(ValueType::Int) => Accum::SumInt(0),
            AccumType::Sum(_) => Accum::SumDouble(0.0),
            AccumType::Min => Accum::Min(None),
            AccumType::Max => Accum::Max(None),
            AccumType::Avg => Accum::Avg { sum: 0.0, count: 0 },
            AccumType::Or => Accum::Or(false),
            AccumType::And => Accum::And(true),
            AccumType::Set => Accum::Set { items: Vec::new(), bytes: 0 },
            AccumType::Bag => Accum::Bag { counts: BTreeMap::new(), bytes: 0 },
            AccumType::List => Accum::List { items: Vec::new(), bytes: 0 },
            AccumType::Array => Accum::Array { items: Vec::new(), bytes: 0 },
            AccumType::Map(v) => {
                Accum::Map { entries: BTreeMap::new(), value_type: v.clone(), bytes: 0 }
            }
            AccumType::Heap { capacity, fields } => Accum::Heap {
                capacity: *capacity,
                fields: fields.clone(),
                items: Vec::new(),
                bytes: 0,
            },
            AccumType::GroupBy { key_arity, nested } => Accum::GroupBy {
                key_arity: *key_arity,
                nested: nested.clone(),
                groups: Box::default(),
                bytes: 0,
            },
            AccumType::User(name) => Accum::User(
                registry
                    .instantiate(name)
                    .ok_or_else(|| AccumError::UnknownUserAccum(name.clone()))?,
            ),
        })
    }

    /// Estimated heap footprint in bytes (inline + owned allocations),
    /// used by the query engine's accumulator memory budget. O(1) for
    /// collections: each caches its contents' [`MemSize`] total (a
    /// `MapAccum` entry or a group counts its key plus its nested
    /// accumulators; a bag entry its key plus one [`BigCount`]).
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Accum>()
            + match self {
                Accum::SumInt(_)
                | Accum::SumDouble(_)
                | Accum::Avg { .. }
                | Accum::Or(_)
                | Accum::And(_) => 0,
                Accum::SumStr(s) => s.capacity(),
                Accum::Min(v) | Accum::Max(v) => {
                    v.as_ref().map_or(0, MemSize::estimated_bytes)
                }
                Accum::Set { bytes, .. }
                | Accum::Bag { bytes, .. }
                | Accum::List { bytes, .. }
                | Accum::Array { bytes, .. }
                | Accum::Map { bytes, .. }
                | Accum::Heap { bytes, .. }
                | Accum::GroupBy { bytes, .. } => *bytes,
                Accum::User(u) => u.estimated_bytes(),
            }
    }

    /// Number of elements of a collection accumulator — the length of
    /// its [`Accum::value`] (a bag's distinct elements, a map's keys, a
    /// group-by's groups) without building it. `None` for scalars and
    /// user accumulators.
    pub fn size(&self) -> Option<usize> {
        match self {
            Accum::Set { items, .. }
            | Accum::List { items, .. }
            | Accum::Array { items, .. }
            | Accum::Heap { items, .. } => Some(items.len()),
            Accum::Bag { counts, .. } => Some(counts.len()),
            Accum::Map { entries, .. } => Some(entries.len()),
            Accum::GroupBy { groups, .. } => Some(groups.len()),
            _ => None,
        }
    }

    /// The combiner `⊕` — folds one input into the internal value.
    pub fn combine(&mut self, input: Value, registry: &UserAccumRegistry) -> Result<(), AccumError> {
        match self {
            Accum::SumInt(v) => {
                let x = input.as_i64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "integer",
                    got: input.clone(),
                })?;
                *v = v.wrapping_add(x);
            }
            Accum::SumDouble(v) => {
                let x = input.as_f64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "numeric",
                    got: input.clone(),
                })?;
                *v += x;
            }
            Accum::SumStr(v) => match input {
                Value::Str(s) => v.push_str(&s),
                other => {
                    return Err(AccumError::TypeMismatch { expected: "string", got: other })
                }
            },
            Accum::Min(slot) => {
                if slot.as_ref().is_none_or(|cur| input < *cur) {
                    *slot = Some(input);
                }
            }
            Accum::Max(slot) => {
                if slot.as_ref().is_none_or(|cur| input > *cur) {
                    *slot = Some(input);
                }
            }
            Accum::Avg { sum, count } => {
                let x = input.as_f64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "numeric",
                    got: input.clone(),
                })?;
                *sum += x;
                *count += 1;
            }
            Accum::Or(v) => {
                let b = input.as_bool().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "boolean",
                    got: input.clone(),
                })?;
                *v |= b;
            }
            Accum::And(v) => {
                let b = input.as_bool().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "boolean",
                    got: input.clone(),
                })?;
                *v &= b;
            }
            Accum::Set { items, bytes } => set_insert(items, bytes, input),
            Accum::Bag { counts, bytes } => bag_slot(counts, bytes, input).add_u64(1),
            Accum::List { items, bytes } | Accum::Array { items, bytes } => {
                *bytes += input.estimated_bytes();
                items.push(input);
            }
            Accum::Map { entries, value_type, bytes } => {
                let (k, v) = split_map_input(input)?;
                let nested = map_slot(entries, bytes, k, value_type, registry)?;
                tracked(bytes, std::slice::from_mut(nested), |n| n[0].combine(v, registry))?;
            }
            Accum::Heap { capacity, fields, items, bytes } => {
                heap_insert(items, bytes, input, fields, *capacity);
            }
            Accum::GroupBy { key_arity, nested, groups, bytes } => {
                let (key, vals) = split_groupby_input(input, *key_arity, nested.len())?;
                let slot = group_slot(groups, bytes, key, nested, registry)?;
                tracked(bytes, slot, |accs| {
                    accs.iter_mut().zip(vals).try_for_each(|(a, v)| a.combine(v, registry))
                })?;
            }
            Accum::User(u) => u.combine(input)?,
        }
        Ok(())
    }

    /// Combines an input carried by a binding row of multiplicity `mult`
    /// — the Theorem 7.1 shortcut that replaces `μ` identical
    /// ACCUM-clause executions with one:
    ///
    /// * multiplicity-insensitive accumulators combine once,
    /// * `SumAccum<numeric>` receives `μ·i`, `AvgAccum` receives
    ///   `(μ·i, +μ)`, `BagAccum` bumps the element count by `μ`,
    /// * `Map`/`GroupBy` recurse into their nested accumulators,
    /// * order-dependent accumulators fall back to literal expansion up
    ///   to `EXPANSION_CAP` (2^20), erroring beyond (outside the
    ///   tractable class).
    pub fn combine_with_multiplicity(
        &mut self,
        input: Value,
        mult: &BigCount,
        registry: &UserAccumRegistry,
    ) -> Result<(), AccumError> {
        if mult.is_zero() {
            return Ok(());
        }
        if mult.is_one() {
            return self.combine(input, registry);
        }
        match self {
            // Multiplicity-insensitive: once is enough.
            Accum::Min(_) | Accum::Max(_) | Accum::Or(_) | Accum::And(_) | Accum::Set { .. } => {
                self.combine(input, registry)
            }
            // A heap keeps at most `capacity` copies: inserting
            // min(μ, capacity) copies is exactly μ-fold insertion.
            Accum::Heap { capacity, .. } => {
                let copies = BigCount::from(*capacity as u64).min(mult.clone());
                let copies = copies.to_u64().unwrap_or(*capacity as u64);
                for _ in 0..copies {
                    self.combine(input.clone(), registry)?;
                }
                Ok(())
            }
            Accum::SumInt(v) => {
                let x = input.as_i64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "integer",
                    got: input.clone(),
                })?;
                let m = mult.to_i64().ok_or_else(|| AccumError::MultiplicityOverflow {
                    accum: "SumAccum<INT>".into(),
                    multiplicity: mult.to_string(),
                })?;
                *v = v.wrapping_add(x.wrapping_mul(m));
                Ok(())
            }
            Accum::SumDouble(v) => {
                let x = input.as_f64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "numeric",
                    got: input.clone(),
                })?;
                *v += x * mult.to_f64();
                Ok(())
            }
            Accum::Avg { sum, count } => {
                let x = input.as_f64().ok_or_else(|| AccumError::TypeMismatch {
                    expected: "numeric",
                    got: input.clone(),
                })?;
                let m = mult.to_u64().ok_or_else(|| AccumError::MultiplicityOverflow {
                    accum: "AvgAccum".into(),
                    multiplicity: mult.to_string(),
                })?;
                *sum += x * m as f64;
                *count += m;
                Ok(())
            }
            Accum::Bag { counts, bytes } => {
                bag_slot(counts, bytes, input).add_assign(mult);
                Ok(())
            }
            Accum::Map { entries, value_type, bytes } => {
                let (k, v) = split_map_input(input)?;
                let nested = map_slot(entries, bytes, k, value_type, registry)?;
                tracked(bytes, std::slice::from_mut(nested), |n| {
                    n[0].combine_with_multiplicity(v, mult, registry)
                })
            }
            Accum::GroupBy { key_arity, nested, groups, bytes } => {
                let (key, vals) = split_groupby_input(input, *key_arity, nested.len())?;
                let slot = group_slot(groups, bytes, key, nested, registry)?;
                tracked(bytes, slot, |accs| {
                    accs.iter_mut()
                        .zip(vals)
                        .try_for_each(|(a, v)| a.combine_with_multiplicity(v, mult, registry))
                })
            }
            // Order-dependent: expand literally while tolerable.
            Accum::SumStr(_) | Accum::List { .. } | Accum::Array { .. } | Accum::User(_) => {
                let name = self.kind_name();
                match mult.to_u64() {
                    Some(m) if m <= EXPANSION_CAP => {
                        for _ in 0..m {
                            self.combine(input.clone(), registry)?;
                        }
                        Ok(())
                    }
                    _ => Err(AccumError::MultiplicityOverflow {
                        accum: name.into(),
                        multiplicity: mult.to_string(),
                    }),
                }
            }
        }
    }

    /// Merges another instance of the same accumulator kind into `self` —
    /// the Reduce step of partitioned (scatter-gather) accumulation.
    /// `other` must have been built from [`Accum::new`] (the neutral
    /// value, *not* a declaration-initialized prototype) and fed a subset
    /// of the inputs; merging all partitions into the sequential store
    /// then reproduces the sequential fold.
    ///
    /// For types where [`AccumType::is_exact_merge`] holds the merged
    /// state is **bit-identical** to the sequential fold regardless of
    /// how inputs were partitioned. The remaining types merge with their
    /// natural semantics (float addition, list concatenation, heap
    /// re-insertion) but may differ from the sequential fold in rounding
    /// or tie order — callers gate on `is_exact_merge` when byte
    /// determinism matters.
    ///
    /// Errors with [`AccumError::TypeMismatch`] on a kind mismatch and
    /// refuses to merge opaque [`Accum::User`] instances.
    #[allow(clippy::only_used_in_recursion)] // registry threads through to nested Map/GroupBy cells
    pub fn merge(&mut self, other: Accum, registry: &UserAccumRegistry) -> Result<(), AccumError> {
        match (self, other) {
            (Accum::SumInt(a), Accum::SumInt(b)) => *a = a.wrapping_add(b),
            (Accum::SumDouble(a), Accum::SumDouble(b)) => *a += b,
            (Accum::SumStr(a), Accum::SumStr(b)) => a.push_str(&b),
            (Accum::Min(a), Accum::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|cur| v < *cur) {
                        *a = Some(v);
                    }
                }
            }
            (Accum::Max(a), Accum::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|cur| v > *cur) {
                        *a = Some(v);
                    }
                }
            }
            (Accum::Avg { sum, count }, Accum::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (Accum::Or(a), Accum::Or(b)) => *a |= b,
            (Accum::And(a), Accum::And(b)) => *a &= b,
            (Accum::Set { items, bytes }, Accum::Set { items: other, .. }) => {
                for v in other {
                    set_insert(items, bytes, v);
                }
            }
            (Accum::Bag { counts, bytes }, Accum::Bag { counts: other, .. }) => {
                for (k, c) in other {
                    bag_slot(counts, bytes, k).add_assign(&c);
                }
            }
            (Accum::List { items, bytes }, Accum::List { items: other, bytes: b })
            | (Accum::Array { items, bytes }, Accum::Array { items: other, bytes: b }) => {
                *bytes += b;
                items.extend(other);
            }
            (
                Accum::Map { entries, bytes, .. },
                Accum::Map { entries: other, .. },
            ) => {
                for (k, nested) in other {
                    match entries.entry(k) {
                        btree_map::Entry::Occupied(e) => {
                            tracked(bytes, std::slice::from_mut(e.into_mut()), |n| {
                                n[0].merge(nested, registry)
                            })?;
                        }
                        btree_map::Entry::Vacant(e) => {
                            // Partition-local state moves in wholesale —
                            // it already equals neutral ⊕ its inputs.
                            *bytes += e.key().estimated_bytes() + nested.estimated_bytes();
                            e.insert(nested);
                        }
                    }
                }
            }
            (
                Accum::Heap { capacity, fields, items, bytes },
                Accum::Heap { items: other, .. },
            ) => {
                for v in other {
                    heap_insert(items, bytes, v, fields, *capacity);
                }
            }
            (
                Accum::GroupBy { groups, bytes, .. },
                Accum::GroupBy { groups: other, .. },
            ) => {
                // Groups are independent, so the table's iteration order
                // cannot change the merged state.
                for (k, accs) in *other {
                    match groups.entry(k) {
                        hash_map::Entry::Occupied(e) => {
                            tracked(bytes, e.into_mut(), |mine| {
                                mine.iter_mut().zip(accs).try_for_each(|(a, b)| a.merge(b, registry))
                            })?;
                        }
                        hash_map::Entry::Vacant(e) => {
                            *bytes += e.key().estimated_bytes()
                                + accs.iter().map(Accum::estimated_bytes).sum::<usize>();
                            e.insert(accs);
                        }
                    }
                }
            }
            (me, other) => {
                return Err(AccumError::TypeMismatch {
                    expected: me.kind_name(),
                    got: other.value(),
                });
            }
        }
        Ok(())
    }

    /// The `=` operator: overwrite the internal value.
    pub fn assign(&mut self, value: Value) -> Result<(), AccumError> {
        match self {
            Accum::SumInt(v) => {
                *v = value.as_i64().ok_or(AccumError::TypeMismatch {
                    expected: "integer",
                    got: value.clone(),
                })?
            }
            Accum::SumDouble(v) => {
                *v = value.as_f64().ok_or(AccumError::TypeMismatch {
                    expected: "numeric",
                    got: value.clone(),
                })?
            }
            Accum::SumStr(v) => match value {
                Value::Str(s) => *v = s,
                other => return Err(AccumError::TypeMismatch { expected: "string", got: other }),
            },
            Accum::Min(slot) | Accum::Max(slot) => *slot = Some(value),
            Accum::Avg { sum, count } => {
                *sum = value.as_f64().ok_or(AccumError::TypeMismatch {
                    expected: "numeric",
                    got: value.clone(),
                })?;
                *count = 1;
            }
            Accum::Or(v) | Accum::And(v) => {
                *v = value.as_bool().ok_or(AccumError::TypeMismatch {
                    expected: "boolean",
                    got: value.clone(),
                })?
            }
            Accum::Set { items, bytes } => {
                match value {
                    Value::Set(xs) | Value::List(xs) => {
                        let mut xs = xs;
                        xs.sort();
                        xs.dedup();
                        *items = xs;
                    }
                    other => {
                        *items = vec![other];
                    }
                }
                *bytes = content_bytes(items);
            }
            Accum::Bag { counts, bytes } => {
                counts.clear();
                *bytes = 0;
                match value {
                    Value::Set(xs) | Value::List(xs) => {
                        for x in xs {
                            bag_slot(counts, bytes, x).add_u64(1);
                        }
                    }
                    other => bag_slot(counts, bytes, other).add_u64(1),
                }
            }
            Accum::List { items, bytes } | Accum::Array { items, bytes } => {
                match value {
                    Value::List(xs) | Value::Set(xs) => *items = xs,
                    other => *items = vec![other],
                }
                *bytes = content_bytes(items);
            }
            Accum::Map { entries, bytes, .. } => {
                entries.clear();
                *bytes = 0;
                if !matches!(value, Value::Null) {
                    return Err(AccumError::TypeMismatch {
                        expected: "null (maps can only be cleared)",
                        got: value,
                    });
                }
            }
            Accum::Heap { items, bytes, .. } => {
                items.clear();
                *bytes = 0;
                if !matches!(value, Value::Null) {
                    return Err(AccumError::TypeMismatch {
                        expected: "null (heaps can only be cleared)",
                        got: value,
                    });
                }
            }
            Accum::GroupBy { groups, bytes, .. } => {
                groups.clear();
                *bytes = 0;
                if !matches!(value, Value::Null) {
                    return Err(AccumError::TypeMismatch {
                        expected: "null (group-by accumulators can only be cleared)",
                        got: value,
                    });
                }
            }
            Accum::User(u) => u.assign(value)?,
        }
        Ok(())
    }

    /// Snapshot of the internal value.
    pub fn value(&self) -> Value {
        match self {
            Accum::SumInt(v) => Value::Int(*v),
            Accum::SumDouble(v) => Value::Double(*v),
            Accum::SumStr(v) => Value::Str(v.clone()),
            Accum::Min(slot) | Accum::Max(slot) => slot.clone().unwrap_or(Value::Null),
            Accum::Avg { sum, count } => {
                if *count == 0 {
                    Value::Double(0.0)
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            Accum::Or(v) | Accum::And(v) => Value::Bool(*v),
            Accum::Set { items, .. } => Value::Set(items.clone()),
            Accum::Bag { counts, .. } => {
                // A bag surfaces as a map element -> count.
                Value::Map(
                    counts
                        .iter()
                        .map(|(k, c)| {
                            let cv = c
                                .to_i64()
                                .map(Value::Int)
                                .unwrap_or_else(|| Value::Str(c.to_string()));
                            (k.clone(), cv)
                        })
                        .collect(),
                )
            }
            Accum::List { items, .. } | Accum::Array { items, .. } => Value::List(items.clone()),
            Accum::Map { entries, .. } => Value::Map(
                entries
                    .iter()
                    .map(|(k, a)| (k.clone(), a.value()))
                    .collect(),
            ),
            Accum::Heap { items, .. } => Value::List(items.clone()),
            Accum::GroupBy { groups, .. } => {
                // The one place the group order is observable: ascending
                // key, as a `Value::Map` always is.
                let mut by_key: Vec<(&Value, &Vec<Accum>)> = groups.iter().collect();
                by_key.sort_unstable_by(|a, b| a.0.cmp(b.0));
                Value::Map(
                    by_key
                        .into_iter()
                        .map(|(k, accs)| {
                            (k.clone(), Value::Tuple(accs.iter().map(Accum::value).collect()))
                        })
                        .collect(),
                )
            }
            Accum::User(u) => u.value(),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Accum::SumInt(_) => "SumAccum<INT>",
            Accum::SumDouble(_) => "SumAccum<DOUBLE>",
            Accum::SumStr(_) => "SumAccum<STRING>",
            Accum::Min(_) => "MinAccum",
            Accum::Max(_) => "MaxAccum",
            Accum::Avg { .. } => "AvgAccum",
            Accum::Or(_) => "OrAccum",
            Accum::And(_) => "AndAccum",
            Accum::Set { .. } => "SetAccum",
            Accum::Bag { .. } => "BagAccum",
            Accum::List { .. } => "ListAccum",
            Accum::Array { .. } => "ArrayAccum",
            Accum::Map { .. } => "MapAccum",
            Accum::Heap { .. } => "HeapAccum",
            Accum::GroupBy { .. } => "GroupByAccum",
            Accum::User(_) => "UserAccum",
        }
    }
}

/// Splits a `MapAccum` input `(k -> v)`, encoded as a 2-tuple.
fn split_map_input(input: Value) -> Result<(Value, Value), AccumError> {
    match input {
        Value::Tuple(mut xs) if xs.len() == 2 => {
            let v = xs.pop().unwrap();
            let k = xs.pop().unwrap();
            Ok((k, v))
        }
        other => Err(AccumError::TypeMismatch { expected: "(key -> value) pair", got: other }),
    }
}

/// Splits a `GroupByAccum` input `(k1..kn -> a1..am)`, encoded as an
/// `(n+m)`-tuple.
fn split_groupby_input(
    input: Value,
    key_arity: usize,
    value_arity: usize,
) -> Result<(Value, Vec<Value>), AccumError> {
    match input {
        Value::Tuple(xs) if xs.len() == key_arity + value_arity => {
            let mut xs = xs;
            let vals = xs.split_off(key_arity);
            Ok((Value::Tuple(xs), vals))
        }
        Value::Tuple(xs) => Err(AccumError::ArityMismatch {
            expected: key_arity + value_arity,
            got: xs.len(),
        }),
        other => Err(AccumError::TypeMismatch { expected: "group-by tuple", got: other }),
    }
}

/// Compares heap tuples under the lexicographic sort spec. Non-tuple
/// items compare directly by the first field direction.
fn heap_cmp(a: &Value, b: &Value, fields: &[HeapField]) -> Ordering {
    if fields.is_empty() {
        return a.cmp(b);
    }
    let (ta, tb) = match (a, b) {
        (Value::Tuple(x), Value::Tuple(y)) => (x.as_slice(), y.as_slice()),
        _ => {
            let o = a.cmp(b);
            return if fields[0].dir == SortDir::Desc { o.reverse() } else { o };
        }
    };
    for f in fields {
        let xa = ta.get(f.index).unwrap_or(&Value::Null);
        let xb = tb.get(f.index).unwrap_or(&Value::Null);
        let o = xa.cmp(xb);
        if o != Ordering::Equal {
            return if f.dir == SortDir::Desc { o.reverse() } else { o };
        }
    }
    Ordering::Equal
}

/// Inserts `input` into the sorted, capacity-bounded `items`, keeping
/// `bytes` in step. An input that ranks strictly below the last item of
/// a full heap would only be inserted at the end and truncated again, so
/// it is rejected before the search; ties still take the search, which
/// keeps the tie order of the plain sort-insert.
fn heap_insert(
    items: &mut Vec<Value>,
    bytes: &mut usize,
    input: Value,
    fields: &[HeapField],
    capacity: usize,
) {
    if items.len() >= capacity
        && items.last().is_some_and(|last| heap_cmp(last, &input, fields) == Ordering::Less)
    {
        return;
    }
    let pos = items
        .binary_search_by(|probe| heap_cmp(probe, &input, fields))
        .unwrap_or_else(|p| p);
    *bytes += input.estimated_bytes();
    items.insert(pos, input);
    if items.len() > capacity {
        for dropped in items.drain(capacity..) {
            *bytes -= dropped.estimated_bytes();
        }
    }
}

/// Estimated bytes of a run of elements.
fn content_bytes(items: &[Value]) -> usize {
    items.iter().map(MemSize::estimated_bytes).sum()
}

/// Inserts `v` into the sorted, deduplicated `items` of a set.
fn set_insert(items: &mut Vec<Value>, bytes: &mut usize, v: Value) {
    if let Err(pos) = items.binary_search(&v) {
        *bytes += v.estimated_bytes();
        items.insert(pos, v);
    }
}

/// The count cell of bag element `v`, created at zero on first touch.
fn bag_slot<'a>(
    counts: &'a mut BTreeMap<Value, BigCount>,
    bytes: &mut usize,
    v: Value,
) -> &'a mut BigCount {
    match counts.entry(v) {
        btree_map::Entry::Occupied(e) => e.into_mut(),
        btree_map::Entry::Vacant(e) => {
            *bytes += e.key().estimated_bytes() + std::mem::size_of::<BigCount>();
            e.insert(BigCount::zero())
        }
    }
}

/// The nested accumulator of map key `k`, created neutral on first touch.
fn map_slot<'a>(
    entries: &'a mut BTreeMap<Value, Accum>,
    bytes: &mut usize,
    k: Value,
    value_type: &AccumType,
    registry: &UserAccumRegistry,
) -> Result<&'a mut Accum, AccumError> {
    Ok(match entries.entry(k) {
        btree_map::Entry::Occupied(e) => e.into_mut(),
        btree_map::Entry::Vacant(e) => {
            let fresh = Accum::new(value_type, registry)?;
            *bytes += e.key().estimated_bytes() + fresh.estimated_bytes();
            e.insert(fresh)
        }
    })
}

/// The nested accumulators of group `key`, created neutral on first touch.
fn group_slot<'a>(
    groups: &'a mut GroupTable,
    bytes: &mut usize,
    key: Value,
    nested: &[AccumType],
    registry: &UserAccumRegistry,
) -> Result<&'a mut Vec<Accum>, AccumError> {
    Ok(match groups.entry(key) {
        hash_map::Entry::Occupied(e) => e.into_mut(),
        hash_map::Entry::Vacant(e) => {
            let fresh = nested
                .iter()
                .map(|ty| Accum::new(ty, registry))
                .collect::<Result<Vec<_>, _>>()?;
            *bytes += e.key().estimated_bytes()
                + fresh.iter().map(Accum::estimated_bytes).sum::<usize>();
            e.insert(fresh)
        }
    })
}

/// Runs `f` over nested accumulators and moves their container's cached
/// `bytes` by the change in their footprint — also when `f` fails part
/// way, so the cache never drifts from the contents.
fn tracked<T>(bytes: &mut usize, accs: &mut [Accum], f: impl FnOnce(&mut [Accum]) -> T) -> T {
    let before: usize = accs.iter().map(Accum::estimated_bytes).sum();
    let out = f(accs);
    let after: usize = accs.iter().map(Accum::estimated_bytes).sum();
    *bytes = *bytes - before + after;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> UserAccumRegistry {
        let mut r = UserAccumRegistry::new();
        r.register("ProductAccum", || {
            Box::<crate::user::ProductAccum>::default()
        });
        r
    }

    fn mk(ty: &AccumType) -> Accum {
        Accum::new(ty, &reg()).unwrap()
    }

    #[test]
    fn sum_int_and_double() {
        let r = reg();
        let mut a = mk(&AccumType::Sum(ValueType::Int));
        a.combine(Value::Int(2), &r).unwrap();
        a.combine(Value::Int(40), &r).unwrap();
        assert_eq!(a.value(), Value::Int(42));
        let mut d = mk(&AccumType::Sum(ValueType::Double));
        d.combine(Value::Double(1.5), &r).unwrap();
        d.combine(Value::Int(1), &r).unwrap();
        assert_eq!(d.value(), Value::Double(2.5));
    }

    #[test]
    fn min_max_mixed_numerics_compare_exactly() {
        // Regression: with the lossy `i64 as f64` ordering, 2^53 + 1
        // compared Equal to Double(2^53), so Max kept the wrong witness.
        let r = reg();
        let p53 = 1i64 << 53;
        let mut hi = mk(&AccumType::Max);
        hi.combine(Value::Double(p53 as f64), &r).unwrap();
        hi.combine(Value::Int(p53 + 1), &r).unwrap();
        assert_eq!(hi.value(), Value::Int(p53 + 1));
        let mut lo = mk(&AccumType::Min);
        lo.combine(Value::Double(-(p53 as f64)), &r).unwrap();
        lo.combine(Value::Int(-(p53 + 1)), &r).unwrap();
        assert_eq!(lo.value(), Value::Int(-(p53 + 1)));
        // Ordinary mixed magnitudes still interleave.
        let mut m = mk(&AccumType::Min);
        for v in [Value::Int(3), Value::Double(2.5), Value::Int(2), Value::Double(2.25)] {
            m.combine(v, &r).unwrap();
        }
        assert_eq!(m.value(), Value::Int(2));
    }

    #[test]
    fn min_max_track_extremes() {
        let r = reg();
        let mut lo = mk(&AccumType::Min);
        let mut hi = mk(&AccumType::Max);
        for v in [3, 1, 4, 1, 5] {
            lo.combine(Value::Int(v), &r).unwrap();
            hi.combine(Value::Int(v), &r).unwrap();
        }
        assert_eq!(lo.value(), Value::Int(1));
        assert_eq!(hi.value(), Value::Int(5));
        assert_eq!(mk(&AccumType::Min).value(), Value::Null);
    }

    #[test]
    fn avg_is_order_invariant_pairwise() {
        let r = reg();
        let mut a = mk(&AccumType::Avg);
        let mut b = mk(&AccumType::Avg);
        for v in [1.0, 2.0, 6.0] {
            a.combine(Value::Double(v), &r).unwrap();
        }
        for v in [6.0, 1.0, 2.0] {
            b.combine(Value::Double(v), &r).unwrap();
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(a.value(), Value::Double(3.0));
        assert_eq!(mk(&AccumType::Avg).value(), Value::Double(0.0));
    }

    #[test]
    fn bool_accums() {
        let r = reg();
        let mut o = mk(&AccumType::Or);
        o.combine(Value::Bool(false), &r).unwrap();
        assert_eq!(o.value(), Value::Bool(false));
        o.combine(Value::Bool(true), &r).unwrap();
        assert_eq!(o.value(), Value::Bool(true));
        let mut a = mk(&AccumType::And);
        a.combine(Value::Bool(true), &r).unwrap();
        assert_eq!(a.value(), Value::Bool(true));
        a.combine(Value::Bool(false), &r).unwrap();
        assert_eq!(a.value(), Value::Bool(false));
    }

    #[test]
    fn set_deduplicates_bag_counts() {
        let r = reg();
        let mut s = mk(&AccumType::Set);
        let mut b = mk(&AccumType::Bag);
        for v in [1, 2, 2, 3, 2] {
            s.combine(Value::Int(v), &r).unwrap();
            b.combine(Value::Int(v), &r).unwrap();
        }
        assert_eq!(
            s.value(),
            Value::Set(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            b.value(),
            Value::Map(vec![
                (Value::Int(1), Value::Int(1)),
                (Value::Int(2), Value::Int(3)),
                (Value::Int(3), Value::Int(1)),
            ])
        );
    }

    #[test]
    fn map_accum_nests() {
        let r = reg();
        let ty = AccumType::Map(Box::new(AccumType::Sum(ValueType::Int)));
        let mut m = mk(&ty);
        let pair = |k: &str, v: i64| Value::Tuple(vec![Value::from(k), Value::Int(v)]);
        m.combine(pair("a", 1), &r).unwrap();
        m.combine(pair("b", 10), &r).unwrap();
        m.combine(pair("a", 2), &r).unwrap();
        assert_eq!(
            m.value(),
            Value::Map(vec![
                (Value::from("a"), Value::Int(3)),
                (Value::from("b"), Value::Int(10)),
            ])
        );
    }

    #[test]
    fn heap_keeps_top_k() {
        let r = reg();
        let ty = AccumType::Heap {
            capacity: 2,
            fields: vec![
                HeapField { index: 0, dir: SortDir::Desc },
                HeapField { index: 1, dir: SortDir::Asc },
            ],
        };
        let mut h = mk(&ty);
        let t = |score: i64, name: &str| Value::Tuple(vec![Value::Int(score), Value::from(name)]);
        for (s, n) in [(5, "e"), (9, "b"), (9, "a"), (1, "x"), (7, "c")] {
            h.combine(t(s, n), &r).unwrap();
        }
        // Top two by score DESC, name ASC tiebreak.
        assert_eq!(h.value(), Value::List(vec![t(9, "a"), t(9, "b")]));
    }

    #[test]
    fn groupby_accumulates_per_key() {
        let r = reg();
        let ty = AccumType::GroupBy {
            key_arity: 1,
            nested: vec![AccumType::Sum(ValueType::Int), AccumType::Max],
        };
        let mut g = mk(&ty);
        let row = |k: &str, a: i64, b: i64| {
            Value::Tuple(vec![Value::from(k), Value::Int(a), Value::Int(b)])
        };
        g.combine(row("x", 1, 5), &r).unwrap();
        g.combine(row("x", 2, 3), &r).unwrap();
        g.combine(row("y", 7, 1), &r).unwrap();
        assert_eq!(
            g.value(),
            Value::Map(vec![
                (
                    Value::Tuple(vec![Value::from("x")]),
                    Value::Tuple(vec![Value::Int(3), Value::Int(5)])
                ),
                (
                    Value::Tuple(vec![Value::from("y")]),
                    Value::Tuple(vec![Value::Int(7), Value::Int(1)])
                ),
            ])
        );
    }

    #[test]
    fn groupby_arity_checked() {
        let r = reg();
        let ty = AccumType::GroupBy { key_arity: 1, nested: vec![AccumType::Min] };
        let mut g = mk(&ty);
        let bad = Value::Tuple(vec![Value::Int(1)]);
        assert!(matches!(
            g.combine(bad, &r),
            Err(AccumError::ArityMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn multiplicity_shortcut_sum_and_avg() {
        let r = reg();
        let mu = BigCount::from(1000u64);
        let mut s = mk(&AccumType::Sum(ValueType::Int));
        s.combine_with_multiplicity(Value::Int(3), &mu, &r).unwrap();
        assert_eq!(s.value(), Value::Int(3000));
        let mut a = mk(&AccumType::Avg);
        a.combine_with_multiplicity(Value::Double(2.0), &mu, &r).unwrap();
        a.combine(Value::Double(4.0), &r).unwrap();
        // (1000*2 + 4) / 1001
        assert_eq!(a.value(), Value::Double(2004.0 / 1001.0));
    }

    #[test]
    fn multiplicity_insensitive_once() {
        let r = reg();
        let mu = BigCount::pow2(100); // astronomically many paths
        let mut m = mk(&AccumType::Max);
        m.combine_with_multiplicity(Value::Int(7), &mu, &r).unwrap();
        assert_eq!(m.value(), Value::Int(7));
        let mut s = mk(&AccumType::Set);
        s.combine_with_multiplicity(Value::Int(7), &mu, &r).unwrap();
        assert_eq!(s.value(), Value::Set(vec![Value::Int(7)]));
    }

    #[test]
    fn multiplicity_bag_stays_compressed() {
        let r = reg();
        let mu = BigCount::pow2(100);
        let mut b = mk(&AccumType::Bag);
        b.combine_with_multiplicity(Value::Int(1), &mu, &r).unwrap();
        // Count exceeds i64 so it surfaces as a decimal string.
        assert_eq!(
            b.value(),
            Value::Map(vec![(Value::Int(1), Value::Str(BigCount::pow2(100).to_string()))])
        );
    }

    #[test]
    fn multiplicity_overflow_on_list() {
        let r = reg();
        let mu = BigCount::pow2(64);
        let mut l = mk(&AccumType::List);
        assert!(matches!(
            l.combine_with_multiplicity(Value::Int(1), &mu, &r),
            Err(AccumError::MultiplicityOverflow { .. })
        ));
        // Small multiplicities expand literally.
        let mut l2 = mk(&AccumType::List);
        l2.combine_with_multiplicity(Value::Int(1), &BigCount::from(3u64), &r)
            .unwrap();
        assert_eq!(
            l2.value(),
            Value::List(vec![Value::Int(1), Value::Int(1), Value::Int(1)])
        );
    }

    #[test]
    fn multiplicity_recurses_into_map() {
        let r = reg();
        let ty = AccumType::Map(Box::new(AccumType::Sum(ValueType::Double)));
        let mut m = mk(&ty);
        let pair = Value::Tuple(vec![Value::from("k"), Value::Double(1.5)]);
        m.combine_with_multiplicity(pair, &BigCount::from(4u64), &r)
            .unwrap();
        assert_eq!(m.value(), Value::Map(vec![(Value::from("k"), Value::Double(6.0))]));
    }

    #[test]
    fn assign_overwrites() {
        let r = reg();
        let mut s = mk(&AccumType::Sum(ValueType::Double));
        s.combine(Value::Double(5.0), &r).unwrap();
        s.assign(Value::Double(1.0)).unwrap();
        assert_eq!(s.value(), Value::Double(1.0));
        let mut m = mk(&AccumType::Max);
        m.combine(Value::Int(10), &r).unwrap();
        m.assign(Value::Int(0)).unwrap();
        assert_eq!(m.value(), Value::Int(0));
        m.combine(Value::Int(3), &r).unwrap();
        assert_eq!(m.value(), Value::Int(3));
    }

    #[test]
    fn user_accum_via_registry() {
        let r = reg();
        let mut p = Accum::new(&AccumType::User("ProductAccum".into()), &r).unwrap();
        p.combine(Value::Int(6), &r).unwrap();
        p.combine(Value::Int(7), &r).unwrap();
        assert_eq!(p.value(), Value::Double(42.0));
        assert!(matches!(
            Accum::new(&AccumType::User("Missing".into()), &r),
            Err(AccumError::UnknownUserAccum(_))
        ));
    }

    #[test]
    fn sum_string_concatenates() {
        let r = reg();
        let mut s = mk(&AccumType::Sum(ValueType::Str));
        s.combine(Value::from("ab"), &r).unwrap();
        s.combine(Value::from("cd"), &r).unwrap();
        assert_eq!(s.value(), Value::from("abcd"));
    }

    /// Feeds `inputs` sequentially, then again split into `parts`
    /// identity-seeded partials merged in order, and asserts the exact
    /// types produce identical snapshots both ways.
    fn check_partition_invariance(ty: &AccumType, inputs: &[Value], parts: usize) {
        let r = reg();
        let mut seq = mk(ty);
        for v in inputs {
            seq.combine(v.clone(), &r).unwrap();
        }
        let mut merged = mk(ty);
        for chunk in inputs.chunks(inputs.len().div_ceil(parts).max(1)) {
            let mut partial = mk(ty);
            for v in chunk {
                partial.combine(v.clone(), &r).unwrap();
            }
            merged.merge(partial, &r).unwrap();
        }
        assert_eq!(seq.value(), merged.value(), "{ty} over {parts} partitions");
    }

    #[test]
    fn merge_reproduces_sequential_fold_for_exact_types() {
        let ints: Vec<Value> = [7i64, -3, 3, 9, 7, 0, 12, -3].map(Value::Int).into();
        let bools: Vec<Value> =
            [true, false, true, false].map(Value::Bool).into();
        let pairs: Vec<Value> = (0..8)
            .map(|i| Value::Tuple(vec![Value::Int(i % 3), Value::Int(i)]))
            .collect();
        for parts in [1, 2, 3, 4] {
            check_partition_invariance(&AccumType::Sum(ValueType::Int), &ints, parts);
            check_partition_invariance(&AccumType::Min, &ints, parts);
            check_partition_invariance(&AccumType::Max, &ints, parts);
            check_partition_invariance(&AccumType::Or, &bools, parts);
            check_partition_invariance(&AccumType::And, &bools, parts);
            check_partition_invariance(&AccumType::Set, &ints, parts);
            check_partition_invariance(&AccumType::Bag, &ints, parts);
            check_partition_invariance(
                &AccumType::Map(Box::new(AccumType::Sum(ValueType::Int))),
                &pairs,
                parts,
            );
            check_partition_invariance(
                &AccumType::GroupBy {
                    key_arity: 1,
                    nested: vec![AccumType::Sum(ValueType::Int), AccumType::Max],
                },
                &(0..8)
                    .map(|i| {
                        Value::Tuple(vec![
                            Value::Int(i % 2),
                            Value::Int(i * 3),
                            Value::Int(10 - i),
                        ])
                    })
                    .collect::<Vec<_>>(),
                parts,
            );
        }
    }

    #[test]
    fn merge_identity_is_neutral() {
        let r = reg();
        // And's identity is `true`, Or's is `false` — merging a fresh
        // instance must never flip an established result.
        let mut and = mk(&AccumType::And);
        and.combine(Value::Bool(false), &r).unwrap();
        and.merge(mk(&AccumType::And), &r).unwrap();
        assert_eq!(and.value(), Value::Bool(false));
        let mut or = mk(&AccumType::Or);
        or.combine(Value::Bool(true), &r).unwrap();
        or.merge(mk(&AccumType::Or), &r).unwrap();
        assert_eq!(or.value(), Value::Bool(true));
        let mut min = mk(&AccumType::Min);
        min.combine(Value::Int(5), &r).unwrap();
        min.merge(mk(&AccumType::Min), &r).unwrap();
        assert_eq!(min.value(), Value::Int(5));
    }

    #[test]
    fn merge_rejects_kind_mismatch() {
        let r = reg();
        let mut s = mk(&AccumType::Sum(ValueType::Int));
        let err = s.merge(mk(&AccumType::Min), &r);
        assert!(matches!(err, Err(AccumError::TypeMismatch { .. })));
    }

    #[test]
    fn accum_stays_64_bytes() {
        // Every instance's estimate counts its inline size, so a layout
        // change would move every query's `peak_accum_bytes`.
        assert_eq!(std::mem::size_of::<Accum>(), 64);
    }

    #[test]
    fn exact_merge_classification() {
        assert!(AccumType::Sum(ValueType::Int).is_exact_merge());
        assert!(AccumType::Min.is_exact_merge());
        assert!(AccumType::Max.is_exact_merge());
        assert!(AccumType::Or.is_exact_merge());
        assert!(AccumType::And.is_exact_merge());
        assert!(AccumType::Set.is_exact_merge());
        assert!(AccumType::Bag.is_exact_merge());
        assert!(AccumType::Map(Box::new(AccumType::Bag)).is_exact_merge());
        assert!(AccumType::GroupBy {
            key_arity: 1,
            nested: vec![AccumType::Sum(ValueType::Int), AccumType::Set],
        }
        .is_exact_merge());
        // Float folds, concatenators, heaps, user accums: not exact.
        assert!(!AccumType::Sum(ValueType::Double).is_exact_merge());
        assert!(!AccumType::Sum(ValueType::Str).is_exact_merge());
        assert!(!AccumType::Avg.is_exact_merge());
        assert!(!AccumType::List.is_exact_merge());
        assert!(!AccumType::Array.is_exact_merge());
        assert!(!AccumType::Heap { capacity: 2, fields: vec![] }.is_exact_merge());
        assert!(!AccumType::User("ProductAccum".into()).is_exact_merge());
        assert!(
            !AccumType::Map(Box::new(AccumType::Avg)).is_exact_merge(),
            "exactness must recurse through containers"
        );
    }
}
