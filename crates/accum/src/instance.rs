//! Live accumulator instances: the combiner `⊕`, assignment, snapshots,
//! and the multiplicity shortcut of Theorem 7.1.
//!
//! Every collection accumulator caches the estimated footprint of its
//! contents in a `bytes` field that each mutation keeps in step, so
//! [`Accum::estimated_bytes`] — read by the engine's memory budget after
//! every accumulator clause — costs O(1) instead of a walk over the
//! contents.
//!
//! The two containers built per group or per kept tuple keep their state
//! in flat blocks: a [`GroupTable`] holds every group's nested
//! accumulators in one slab, and a heap holds its kept tuples' fields back
//! to back in one `Vec<Value>`. The byte model charges what these render
//! as — a heap row as its [`Value::Tuple`], a group as its key plus its
//! nested accumulators — not the blocks' capacities.

use crate::types::{AccumType, HeapSpec, SortDir};
use crate::user::{UserAccum, UserAccumRegistry};
use pgraph::bigcount::BigCount;
use pgraph::fxhash::{FxHashMap, FxHasher};
use pgraph::value::{MemSize, Value, ValueType};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{btree_map, hash_map, BTreeMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A `GroupByAccum`'s groups. The nested accumulators of every group sit
/// in one slab, `nested.len()` per group in group-number order; a hash
/// index maps each [`GroupKey`] (`Value`'s `Hash` agrees with its `Eq`)
/// to its group number. A new group costs its key and its neutral nested
/// accumulators, nothing boxed per group. A key carries the hash of its
/// fields, computed once when it is first probed; the index hashes only
/// that `u64`, so insertion, index growth and `GroupTable::merge` never
/// hash a field again. The group order becomes visible only in
/// [`Accum::value`], which sorts by key.
#[derive(Debug, Clone)]
pub struct GroupTable {
    key_arity: usize,
    nested: Vec<AccumType>,
    index: FxHashMap<GroupKey, usize>,
    slab: Vec<Accum>,
    /// Cached estimated bytes of the groups (keys and nested
    /// accumulators).
    bytes: usize,
}

impl GroupTable {
    fn new(key_arity: usize, nested: Vec<AccumType>) -> GroupTable {
        GroupTable { key_arity, nested, index: FxHashMap::default(), slab: Vec::new(), bytes: 0 }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Every group's key and nested accumulators, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &[Accum])> + '_ {
        self.index.iter().map(|(k, &g)| (k, self.group(g)))
    }

    /// The nested accumulators of group number `g`.
    fn group(&self, g: usize) -> &[Accum] {
        let n = self.nested.len();
        &self.slab[g * n..(g + 1) * n]
    }

    /// Appends a group of neutral nested accumulators to the slab and
    /// indexes it under `key`, returning its group number.
    fn push_group(&mut self, key: GroupKey, registry: &UserAccumRegistry) -> Result<usize, AccumError> {
        let start = self.slab.len();
        for ty in &self.nested {
            match Accum::new(ty, registry) {
                Ok(a) => self.slab.push(a),
                Err(e) => {
                    self.slab.truncate(start);
                    return Err(e);
                }
            }
        }
        let g = self.index.len();
        self.bytes += key.estimated_bytes()
            + self.slab[start..].iter().map(Accum::estimated_bytes).sum::<usize>();
        self.index.insert(key, g);
        Ok(g)
    }

    /// Runs `f` on each nested accumulator of the group keyed by the first
    /// `key_arity` of `fields`, with the remaining fields as inputs. The
    /// group is found by a borrowed probe that hashes the key fields once;
    /// a new group (neutral nested accumulators) is the only place a key
    /// is copied, and it keeps the probe's hash.
    fn apply(
        &mut self,
        mut fields: Fields<'_>,
        registry: &UserAccumRegistry,
        f: impl Fn(&mut Accum, Input<'_>) -> Result<(), AccumError>,
    ) -> Result<(), AccumError> {
        let ka = self.key_arity;
        let probe = KeyProbe::new(&fields, ka);
        let g = match self.index.get(&probe as &dyn KeyFields) {
            Some(&g) => g,
            None => {
                let hash = probe.hash;
                let fields = (0..ka).map(|i| fields.take(i).into_owned()).collect();
                self.push_group(GroupKey { hash, fields }, registry)?
            }
        };
        let n = self.nested.len();
        tracked(&mut self.bytes, &mut self.slab[g * n..(g + 1) * n], |accs| {
            accs.iter_mut()
                .enumerate()
                .try_for_each(|(j, a)| f(a, Input::Value(fields.take(ka + j))))
        })
    }

    /// Merges `other`'s groups in: a group both hold merges nested
    /// accumulator by nested accumulator, a group only `other` holds moves
    /// in wholesale (it already equals neutral ⊕ its inputs). Groups are
    /// independent, so the order they are visited in cannot change the
    /// merged state.
    fn merge(&mut self, mut other: GroupTable, registry: &UserAccumRegistry) -> Result<(), AccumError> {
        let n = self.nested.len();
        if other.key_arity != self.key_arity || other.nested.len() != n {
            return Err(AccumError::ArityMismatch {
                expected: self.key_arity + n,
                got: other.key_arity + other.nested.len(),
            });
        }
        // Visit `other`'s groups in slab order, so their accumulators can
        // be moved out of the slab front to back. Each key moves with its
        // stored hash, so no key field is hashed again.
        let mut keys: Vec<(GroupKey, usize)> = other.index.drain().collect();
        keys.sort_unstable_by_key(|&(_, g)| g);
        let mut theirs = std::mem::take(&mut other.slab).into_iter();
        for (key, _) in keys {
            let accs = theirs.by_ref().take(n);
            let next = self.index.len();
            match self.index.entry(key) {
                hash_map::Entry::Occupied(e) => {
                    let g = *e.get();
                    tracked(&mut self.bytes, &mut self.slab[g * n..(g + 1) * n], |mine| {
                        mine.iter_mut().zip(accs).try_for_each(|(a, b)| a.merge(b, registry))
                    })?;
                }
                hash_map::Entry::Vacant(e) => {
                    let start = self.slab.len();
                    self.slab.extend(accs);
                    self.bytes += e.key().estimated_bytes()
                        + self.slab[start..].iter().map(Accum::estimated_bytes).sum::<usize>();
                    e.insert(next);
                }
            }
        }
        Ok(())
    }

    /// Drops every group, freeing the keys in group-number order.
    fn clear(&mut self) {
        self.release_keys();
        self.slab.clear();
        self.bytes = 0;
    }

    /// Empties the index, freeing its keys in group-number order — the
    /// order they were allocated in. Hash order would scatter the frees,
    /// which fragments the allocator's heap across queries.
    fn release_keys(&mut self) {
        let mut keys: Vec<Option<GroupKey>> = Vec::new();
        keys.resize_with(self.index.len(), || None);
        for (key, g) in self.index.drain() {
            keys[g] = Some(key);
        }
        drop(keys);
    }

    /// The groups as a [`Value::Map`] from key tuple to the tuple of
    /// nested values, ascending by key — the one place the group order is
    /// observable.
    fn value(&self) -> Value {
        let mut by_key: Vec<(&GroupKey, usize)> = self.index.iter().map(|(k, &g)| (k, g)).collect();
        by_key.sort_unstable_by(|a, b| a.0.fields().cmp(b.0.fields()));
        Value::Map(
            by_key
                .into_iter()
                .map(|(k, g)| {
                    let key = Value::Tuple(k.fields().to_vec());
                    (key, Value::Tuple(self.group(g).iter().map(Accum::value).collect()))
                })
                .collect(),
        )
    }
}

impl Drop for GroupTable {
    fn drop(&mut self) {
        self.release_keys();
    }
}

/// One accumulator input. Probes — a group or map lookup, a heap's rank
/// test, a set's membership search — read it in place; an accumulator
/// copies only what it keeps, moving an owned input and cloning a
/// borrowed one.
#[derive(Debug, Clone)]
pub enum Input<'a> {
    /// One value, owned or borrowed.
    Value(Cow<'a, Value>),
    /// A tuple given field by field — an ACCUM `(k1, .. -> a1, ..)`
    /// emission. A `GroupByAccum` or `MapAccum` splits it into a key and
    /// per-nested-accumulator inputs without building it; any other
    /// accumulator receives it as one [`Value::Tuple`].
    Tuple(Vec<Cow<'a, Value>>),
}

impl<'a> Input<'a> {
    /// The input as one owned value (a field-wise tuple becomes a
    /// [`Value::Tuple`]).
    pub fn into_value(self) -> Value {
        self.into_cow().into_owned()
    }

    /// The input with everything it borrows copied, so it can outlive
    /// what it borrowed from (a field-wise tuple stays field-wise).
    pub fn into_owned(self) -> Input<'static> {
        match self {
            Input::Value(v) => Input::Value(Cow::Owned(v.into_owned())),
            Input::Tuple(fields) => {
                Input::Tuple(fields.into_iter().map(|f| Cow::Owned(f.into_owned())).collect())
            }
        }
    }

    /// The input as one value, still borrowed if it was.
    fn into_cow(self) -> Cow<'a, Value> {
        match self {
            Input::Value(v) => v,
            Input::Tuple(fields) => {
                Cow::Owned(Value::Tuple(fields.into_iter().map(Cow::into_owned).collect()))
            }
        }
    }

    /// The input when it is one value; `None` for a field-wise tuple.
    fn scalar(&self) -> Option<&Value> {
        match self {
            Input::Value(v) => Some(v),
            Input::Tuple(_) => None,
        }
    }

    /// The fields of a tuple input, read in place; any other input comes
    /// back as the value it is.
    fn into_fields(self) -> Result<Fields<'a>, Value> {
        match self {
            Input::Tuple(fields) => Ok(Fields::Split(fields)),
            Input::Value(Cow::Owned(Value::Tuple(xs))) => Ok(Fields::Owned(xs)),
            Input::Value(Cow::Borrowed(Value::Tuple(xs))) => Ok(Fields::Lent(xs)),
            Input::Value(other) => Err(other.into_owned()),
        }
    }
}

/// A tuple input's fields, however the input held them. Probes read a
/// field in place ([`Fields::get`]); [`Fields::take`] hands a field on,
/// moving it out when the input owned it, so splitting a tuple into a key
/// and nested inputs, or copying a heap candidate, allocates nothing the
/// accumulator does not keep.
enum Fields<'a> {
    /// A borrowed tuple's fields.
    Lent(&'a [Value]),
    /// An owned tuple's fields.
    Owned(Vec<Value>),
    /// A field-wise input ([`Input::Tuple`]).
    Split(Vec<Cow<'a, Value>>),
}

impl<'a> Fields<'a> {
    fn len(&self) -> usize {
        match self {
            Fields::Lent(xs) => xs.len(),
            Fields::Owned(xs) => xs.len(),
            Fields::Split(xs) => xs.len(),
        }
    }

    fn get(&self, i: usize) -> &Value {
        match self {
            Fields::Lent(xs) => &xs[i],
            Fields::Owned(xs) => &xs[i],
            Fields::Split(xs) => &xs[i],
        }
    }

    /// Field `i`: borrowed if the input lent it, moved out (leaving NULL
    /// behind) if the input owned it. Each field is taken at most once.
    fn take(&mut self, i: usize) -> Cow<'a, Value> {
        match self {
            Fields::Lent(xs) => Cow::Borrowed(&xs[i]),
            Fields::Owned(xs) => Cow::Owned(std::mem::replace(&mut xs[i], Value::Null)),
            Fields::Split(xs) => std::mem::replace(&mut xs[i], Cow::Owned(Value::Null)),
        }
    }

    /// The fields as one owned [`Value::Tuple`] (for error reports).
    fn into_value(self) -> Value {
        Value::Tuple(match self {
            Fields::Lent(xs) => xs.to_vec(),
            Fields::Owned(xs) => xs,
            Fields::Split(xs) => xs.into_iter().map(Cow::into_owned).collect(),
        })
    }
}

impl From<Value> for Input<'_> {
    fn from(v: Value) -> Self {
        Input::Value(Cow::Owned(v))
    }
}

impl<'a> From<&'a Value> for Input<'a> {
    fn from(v: &'a Value) -> Self {
        Input::Value(Cow::Borrowed(v))
    }
}

impl<'a> From<Cow<'a, Value>> for Input<'a> {
    fn from(v: Cow<'a, Value>) -> Self {
        Input::Value(v)
    }
}

/// A group key's fields, however they are held: a stored [`GroupKey`] or
/// a probe borrowing an input's fields. A [`GroupTable`] hashes and
/// compares keys through this view, so a probe finds its group without
/// building an owned key. Both views carry the key's hash, computed once
/// from its fields; the index hashes only that `u64`.
pub trait KeyFields {
    /// Number of key fields.
    fn arity(&self) -> usize;
    /// Key field `i` (`i < arity()`).
    fn field(&self, i: usize) -> &Value;
    /// The hash of the key's fields: the arity, then each field's `Hash`,
    /// through an [`FxHasher`]. Keys equal under `Value`'s `Eq` hash alike.
    fn hash64(&self) -> u64;
}

impl Hash for dyn KeyFields + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl PartialEq for dyn KeyFields + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.hash64() == other.hash64()
            && self.arity() == other.arity()
            && (0..self.arity()).all(|i| self.field(i) == other.field(i))
    }
}

impl Eq for dyn KeyFields + '_ {}

/// A `GroupByAccum` group's key as stored: its fields, owned, and their
/// hash. It renders as the [`Value::Tuple`] of its fields and is
/// charged as one; the stored hash is not charged.
#[derive(Debug, Clone)]
pub struct GroupKey {
    hash: u64,
    fields: Vec<Value>,
}

impl GroupKey {
    /// The key's fields, in declaration order.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }
}

impl KeyFields for GroupKey {
    fn arity(&self) -> usize {
        self.fields.len()
    }
    fn field(&self, i: usize) -> &Value {
        &self.fields[i]
    }
    fn hash64(&self) -> u64 {
        self.hash
    }
}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyFields).hash(state)
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyFields) == (other as &dyn KeyFields)
    }
}

impl Eq for GroupKey {}

impl<'a> Borrow<dyn KeyFields + 'a> for GroupKey {
    fn borrow(&self) -> &(dyn KeyFields + 'a) {
        self
    }
}

impl MemSize for GroupKey {
    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Value>() + content_bytes(&self.fields)
    }
}

/// A lookup key borrowing an input's leading `arity` fields, hashed once
/// at construction.
struct KeyProbe<'s, 'a> {
    fields: &'s Fields<'a>,
    arity: usize,
    hash: u64,
}

impl<'s, 'a> KeyProbe<'s, 'a> {
    fn new(fields: &'s Fields<'a>, arity: usize) -> Self {
        let mut h = FxHasher::default();
        h.write_usize(arity);
        for i in 0..arity {
            fields.get(i).hash(&mut h);
        }
        KeyProbe { fields, arity, hash: h.finish() }
    }
}

impl KeyFields for KeyProbe<'_, '_> {
    fn arity(&self) -> usize {
        self.arity
    }
    fn field(&self, i: usize) -> &Value {
        self.fields.get(i)
    }
    fn hash64(&self) -> u64 {
        self.hash
    }
}

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

/// A live accumulator instance. It is 64 bytes (see [`Accum::Heap`]'s
/// `reserved`), which [`Accum::estimated_bytes`] charges per instance.
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
        /// The declaration's capacity, tuple arity and sort order, shared
        /// with every other instance of it.
        spec: Arc<HeapSpec>,
        /// Retained tuples, kept sorted best-first, their fields back to
        /// back: row `i` is `rows[i * arity..(i + 1) * arity]`.
        rows: Vec<Value>,
        /// Cached estimated bytes of the rows, each charged as the
        /// [`Value::Tuple`] it renders as.
        bytes: usize,
        /// Unused. The other fields need 40 bytes; this keeps `Accum` at
        /// 64 bytes with 8-byte alignment, the size
        /// [`Accum::estimated_bytes`] charges per instance, so memory
        /// budgets and `peak_accum_bytes` read what they always read.
        reserved: [usize; 3],
    },
    /// `GroupByAccum`: SQL GROUP BY as an accumulator (paper Example 12).
    GroupBy(Box<GroupTable>),
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
            AccumType::Heap(spec) => Accum::Heap { spec: spec.clone(), rows: Vec::new(), bytes: 0, reserved: [0; 3] },
            AccumType::GroupBy { key_arity, nested } => {
                Accum::GroupBy(Box::new(GroupTable::new(*key_arity, nested.clone())))
            }
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
                | Accum::Heap { bytes, .. } => *bytes,
                Accum::GroupBy(groups) => groups.bytes,
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
            | Accum::Array { items, .. } => Some(items.len()),
            Accum::Heap { spec, rows, .. } => Some(rows.len() / spec.arity()),
            Accum::Bag { counts, .. } => Some(counts.len()),
            Accum::Map { entries, .. } => Some(entries.len()),
            Accum::GroupBy(groups) => Some(groups.len()),
            _ => None,
        }
    }

    /// The combiner `⊕` — folds one input into the internal value. The
    /// input is read in place; only what the accumulator keeps is copied
    /// (see [`Input`]).
    pub fn combine<'a>(
        &mut self,
        input: impl Into<Input<'a>>,
        registry: &UserAccumRegistry,
    ) -> Result<(), AccumError> {
        let input = input.into();
        match self {
            Accum::SumInt(v) => *v = v.wrapping_add(scalar(input, "integer", Value::as_i64)?),
            Accum::SumDouble(v) => *v += scalar(input, "numeric", Value::as_f64)?,
            Accum::SumStr(v) => match input.scalar() {
                Some(Value::Str(s)) => v.push_str(s),
                _ => {
                    return Err(AccumError::TypeMismatch {
                        expected: "string",
                        got: input.into_value(),
                    })
                }
            },
            Accum::Min(slot) => {
                let input = input.into_cow();
                if slot.as_ref().is_none_or(|cur| *input < *cur) {
                    *slot = Some(input.into_owned());
                }
            }
            Accum::Max(slot) => {
                let input = input.into_cow();
                if slot.as_ref().is_none_or(|cur| *input > *cur) {
                    *slot = Some(input.into_owned());
                }
            }
            Accum::Avg { sum, count } => {
                *sum += scalar(input, "numeric", Value::as_f64)?;
                *count += 1;
            }
            Accum::Or(v) => *v |= scalar(input, "boolean", Value::as_bool)?,
            Accum::And(v) => *v &= scalar(input, "boolean", Value::as_bool)?,
            Accum::Set { items, bytes } => set_insert(items, bytes, input.into_cow()),
            Accum::Bag { counts, bytes } => bag_add(counts, bytes, input.into_cow(), |c| c.add_u64(1)),
            Accum::List { items, bytes } | Accum::Array { items, bytes } => {
                let input = input.into_value();
                *bytes += input.estimated_bytes();
                items.push(input);
            }
            Accum::Map { entries, value_type, bytes } => {
                let (k, v) = split_map_input(input)?;
                map_apply(entries, bytes, k, value_type, registry, |n| n.combine(v, registry))?;
            }
            Accum::Heap { spec, rows, bytes, .. } => {
                heap_insert(spec, rows, bytes, heap_fields(input, spec)?);
            }
            Accum::GroupBy(groups) => {
                let fields = split_groupby_input(input, groups)?;
                groups.apply(fields, registry, |a, v| a.combine(v, registry))?;
            }
            Accum::User(u) => u.combine(input.into_value())?,
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
    pub fn combine_with_multiplicity<'a>(
        &mut self,
        input: impl Into<Input<'a>>,
        mult: &BigCount,
        registry: &UserAccumRegistry,
    ) -> Result<(), AccumError> {
        let input = input.into();
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
            Accum::Heap { spec, rows, bytes, .. } => {
                let capacity = spec.capacity() as u64;
                let copies = BigCount::from(capacity).min(mult.clone());
                let copies = copies.to_u64().unwrap_or(capacity);
                let input = input.into_cow();
                heap_fields(Input::from(&*input), spec)?;
                for _ in 0..copies {
                    heap_insert(spec, rows, bytes, heap_fields(Input::from(&*input), spec)?);
                }
                Ok(())
            }
            Accum::SumInt(v) => {
                let x = scalar(input, "integer", Value::as_i64)?;
                let m = mult.to_i64().ok_or_else(|| AccumError::MultiplicityOverflow {
                    accum: "SumAccum<INT>".into(),
                    multiplicity: mult.to_string(),
                })?;
                *v = v.wrapping_add(x.wrapping_mul(m));
                Ok(())
            }
            Accum::SumDouble(v) => {
                *v += scalar(input, "numeric", Value::as_f64)? * mult.to_f64();
                Ok(())
            }
            Accum::Avg { sum, count } => {
                let x = scalar(input, "numeric", Value::as_f64)?;
                let m = mult.to_u64().ok_or_else(|| AccumError::MultiplicityOverflow {
                    accum: "AvgAccum".into(),
                    multiplicity: mult.to_string(),
                })?;
                *sum += x * m as f64;
                *count += m;
                Ok(())
            }
            Accum::Bag { counts, bytes } => {
                bag_add(counts, bytes, input.into_cow(), |c| c.add_assign(mult));
                Ok(())
            }
            Accum::Map { entries, value_type, bytes } => {
                let (k, v) = split_map_input(input)?;
                map_apply(entries, bytes, k, value_type, registry, |n| {
                    n.combine_with_multiplicity(v, mult, registry)
                })
            }
            Accum::GroupBy(groups) => {
                let fields = split_groupby_input(input, groups)?;
                groups.apply(fields, registry, |a, v| a.combine_with_multiplicity(v, mult, registry))
            }
            // Order-dependent: expand literally while tolerable.
            Accum::SumStr(_) | Accum::List { .. } | Accum::Array { .. } | Accum::User(_) => {
                let name = self.kind_name();
                match mult.to_u64() {
                    Some(m) if m <= EXPANSION_CAP => {
                        let input = input.into_cow();
                        for _ in 0..m {
                            self.combine(&*input, registry)?;
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
                    set_insert(items, bytes, Cow::Owned(v));
                }
            }
            (Accum::Bag { counts, bytes }, Accum::Bag { counts: other, .. }) => {
                for (k, c) in other {
                    bag_add(counts, bytes, Cow::Owned(k), |n| n.add_assign(&c));
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
            (Accum::Heap { spec, rows, bytes, .. }, Accum::Heap { spec: theirs, rows: other, .. }) => {
                // Re-insert the other heap's rows in order, moving their
                // fields.
                let arity = spec.arity();
                if theirs.arity() != arity {
                    return Err(AccumError::ArityMismatch { expected: arity, got: theirs.arity() });
                }
                let mut other = other.into_iter();
                while other.len() > 0 {
                    let row = other.by_ref().take(arity).collect();
                    heap_insert(spec, rows, bytes, Fields::Owned(row));
                }
            }
            (Accum::GroupBy(groups), Accum::GroupBy(other)) => groups.merge(*other, registry)?,
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
                Value::Str(s) => *v = s.to_string(),
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
                            bag_add(counts, bytes, Cow::Owned(x), |c| c.add_u64(1));
                        }
                    }
                    other => bag_add(counts, bytes, Cow::Owned(other), |c| c.add_u64(1)),
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
            Accum::Heap { rows, bytes, .. } => {
                rows.clear();
                *bytes = 0;
                if !matches!(value, Value::Null) {
                    return Err(AccumError::TypeMismatch {
                        expected: "null (heaps can only be cleared)",
                        got: value,
                    });
                }
            }
            Accum::GroupBy(groups) => {
                groups.clear();
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
            Accum::SumStr(v) => Value::from(v.as_str()),
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
                                .unwrap_or_else(|| Value::from(c.to_string()));
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
            Accum::Heap { spec, rows, .. } => Value::List(
                rows.chunks_exact(spec.arity()).map(|row| Value::Tuple(row.to_vec())).collect(),
            ),
            Accum::GroupBy(groups) => groups.value(),
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
            Accum::GroupBy(_) => "GroupByAccum",
            Accum::User(_) => "UserAccum",
        }
    }
}

/// A scalar accumulator's input read through `view` (`as_i64`,
/// `as_f64`, `as_bool`), or the type mismatch naming `expected`.
fn scalar<T>(input: Input<'_>, expected: &'static str, view: fn(&Value) -> Option<T>) -> Result<T, AccumError> {
    match input.scalar().and_then(view) {
        Some(x) => Ok(x),
        None => Err(AccumError::TypeMismatch { expected, got: input.into_value() }),
    }
}

/// Splits a `MapAccum` input `(k -> v)`, a 2-tuple, into its key and
/// value without copying either.
fn split_map_input(input: Input<'_>) -> Result<(Cow<'_, Value>, Input<'_>), AccumError> {
    let mismatch = |got| AccumError::TypeMismatch { expected: "(key -> value) pair", got };
    match input.into_fields() {
        Ok(mut xs) if xs.len() == 2 => Ok((xs.take(0), Input::Value(xs.take(1)))),
        Ok(xs) => Err(mismatch(xs.into_value())),
        Err(other) => Err(mismatch(other)),
    }
}

/// The fields of a `GroupByAccum` input `(k1..kn -> a1..am)`, an
/// `(n+m)`-tuple.
fn split_groupby_input<'a>(input: Input<'a>, groups: &GroupTable) -> Result<Fields<'a>, AccumError> {
    let arity = groups.key_arity + groups.nested.len();
    match input.into_fields() {
        Ok(xs) if xs.len() == arity => Ok(xs),
        Ok(xs) => Err(AccumError::ArityMismatch { expected: arity, got: xs.len() }),
        Err(other) => Err(AccumError::TypeMismatch { expected: "group-by tuple", got: other }),
    }
}

/// The fields of a heap candidate: a tuple of the declared arity.
fn heap_fields<'a>(input: Input<'a>, spec: &HeapSpec) -> Result<Fields<'a>, AccumError> {
    match input.into_fields() {
        Ok(xs) if xs.len() == spec.arity() => Ok(xs),
        Ok(xs) => Err(AccumError::ArityMismatch { expected: spec.arity(), got: xs.len() }),
        Err(other) => Err(AccumError::TypeMismatch { expected: "heap tuple", got: other }),
    }
}

/// Compares a kept heap row with a candidate under the sort spec (an
/// empty spec compares every field, ascending — the order of the tuples
/// themselves).
fn heap_cmp(row: &[Value], candidate: &Fields<'_>, spec: &HeapSpec) -> Ordering {
    if spec.fields().is_empty() {
        return (0..row.len())
            .map(|i| row[i].cmp(candidate.get(i)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal);
    }
    for f in spec.fields() {
        let o = row[f.index].cmp(candidate.get(f.index));
        if o != Ordering::Equal {
            return if f.dir == SortDir::Desc { o.reverse() } else { o };
        }
    }
    Ordering::Equal
}

/// Where `candidate` goes among the kept `rows`: exactly the index
/// `slice::binary_search_by` picks over the rows, ties included. The
/// search runs over the first `n` slots of `rows`, one per row; a probe's
/// offset in that slice names the row it stands for.
fn heap_position(rows: &[Value], candidate: &Fields<'_>, spec: &HeapSpec) -> usize {
    let arity = spec.arity();
    let slots = &rows[..rows.len() / arity];
    let base = slots.as_ptr().addr();
    slots
        .binary_search_by(|slot| {
            let i = (std::ptr::from_ref(slot).addr() - base) / std::mem::size_of::<Value>();
            heap_cmp(&rows[i * arity..(i + 1) * arity], candidate, spec)
        })
        .unwrap_or_else(|p| p)
}

/// Inserts `candidate` into the sorted, capacity-bounded `rows`, keeping
/// `bytes` in step. The candidate is ranked where it lies and its fields
/// are copied only once it makes the cut. A full heap rejects a candidate
/// that ranks strictly below its last row before any search (it would be
/// truncated again; a zero-capacity heap rejects everything), and drops
/// its last row for any other: the search places that one within the
/// capacity.
fn heap_insert(spec: &HeapSpec, rows: &mut Vec<Value>, bytes: &mut usize, mut candidate: Fields<'_>) {
    let arity = spec.arity();
    let kept = rows.len() / arity;
    let full = kept >= spec.capacity();
    if full
        && (kept == 0 || heap_cmp(&rows[(kept - 1) * arity..], &candidate, spec) == Ordering::Less)
    {
        return;
    }
    let pos = heap_position(rows, &candidate, spec);
    if full {
        *bytes -= row_bytes(&rows[(kept - 1) * arity..]);
        rows.truncate((kept - 1) * arity);
    }
    // Append the row, then rotate it into place.
    let at = pos * arity;
    rows.extend((0..arity).map(|i| candidate.take(i).into_owned()));
    rows[at..].rotate_right(arity);
    *bytes += row_bytes(&rows[at..at + arity]);
}

/// Estimated bytes of a heap row: the [`Value::Tuple`] it renders as.
fn row_bytes(row: &[Value]) -> usize {
    std::mem::size_of::<Value>() + content_bytes(row)
}

/// Estimated bytes of a run of elements.
fn content_bytes(items: &[Value]) -> usize {
    items.iter().map(MemSize::estimated_bytes).sum()
}

/// Inserts `v` into the sorted, deduplicated `items` of a set, copying
/// it only when it is new.
fn set_insert(items: &mut Vec<Value>, bytes: &mut usize, v: Cow<'_, Value>) {
    if let Err(pos) = items.binary_search(&v) {
        let v = v.into_owned();
        *bytes += v.estimated_bytes();
        items.insert(pos, v);
    }
}

/// Runs `add` on the count cell of bag element `v`, created at zero
/// (and `v` copied) on first touch.
fn bag_add(
    counts: &mut BTreeMap<Value, BigCount>,
    bytes: &mut usize,
    v: Cow<'_, Value>,
    add: impl FnOnce(&mut BigCount),
) {
    if let Some(c) = counts.get_mut(&*v) {
        return add(c);
    }
    let v = v.into_owned();
    *bytes += v.estimated_bytes() + std::mem::size_of::<BigCount>();
    add(counts.entry(v).or_insert_with(BigCount::zero));
}

/// Runs `f` on the nested accumulator of map key `k`, created neutral
/// (and `k` copied) on first touch, keeping `bytes` in step.
fn map_apply(
    entries: &mut BTreeMap<Value, Accum>,
    bytes: &mut usize,
    k: Cow<'_, Value>,
    value_type: &AccumType,
    registry: &UserAccumRegistry,
    f: impl FnOnce(&mut Accum) -> Result<(), AccumError>,
) -> Result<(), AccumError> {
    if let Some(n) = entries.get_mut(&*k) {
        return tracked(bytes, std::slice::from_mut(n), |n| f(&mut n[0]));
    }
    let fresh = Accum::new(value_type, registry)?;
    let k = k.into_owned();
    *bytes += k.estimated_bytes() + fresh.estimated_bytes();
    let n = entries.entry(k).or_insert(fresh);
    tracked(bytes, std::slice::from_mut(n), |n| f(&mut n[0]))
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
    use crate::types::HeapField;

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
        let ty = AccumType::heap(
            2,
            2,
            vec![
                HeapField { index: 0, dir: SortDir::Desc },
                HeapField { index: 1, dir: SortDir::Asc },
            ],
        );
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
            Value::Map(vec![(Value::Int(1), Value::from(BigCount::pow2(100).to_string()))])
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
    fn heap_rejects_scalars_and_wrong_arity_tuples() {
        let r = reg();
        let ty = AccumType::heap(3, 2, vec![HeapField { index: 0, dir: SortDir::Asc }]);
        let mut h = mk(&ty);
        assert!(matches!(
            h.combine(Value::Int(1), &r),
            Err(AccumError::TypeMismatch { expected: "heap tuple", .. })
        ));
        assert!(matches!(
            h.combine(Value::Tuple(vec![Value::Int(1)]), &r),
            Err(AccumError::ArityMismatch { expected: 2, got: 1 })
        ));
        let three = Value::Tuple(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(matches!(
            h.combine_with_multiplicity(three, &BigCount::from(5u64), &r),
            Err(AccumError::ArityMismatch { expected: 2, got: 3 })
        ));
        // A capacity-0 heap keeps nothing but still checks its inputs.
        let mut empty = mk(&AccumType::heap(0, 1, vec![]));
        assert!(empty.combine(Value::Int(1), &r).is_err());
        empty.combine(Value::Tuple(vec![Value::Int(1)]), &r).unwrap();
        assert_eq!(empty.value(), Value::List(vec![]));
        assert_eq!(h.size(), Some(0));
        assert_eq!(h.estimated_bytes(), 64);
    }

    #[test]
    fn heap_ties_land_where_binary_search_puts_them() {
        // Every sorted run of 0s, 1s and 2s up to length 9 (4 under
        // Miri), probed with each key and past both ends, against
        // `slice::binary_search_by` over the same tuples.
        let spec = HeapSpec::new(16, 2, vec![HeapField { index: 0, dir: SortDir::Asc }]);
        let longest = if cfg!(miri) { 5 } else { 10 };
        for n in 0..longest {
            for (a, b) in (0..=n).flat_map(|a| (a..=n).map(move |b| (a, b))) {
                let keys = (0..n).map(|i| i64::from(i >= a) + i64::from(i >= b));
                let tuples: Vec<Value> = keys
                    .enumerate()
                    .map(|(i, k)| Value::Tuple(vec![Value::Int(k), Value::Int(i as i64)]))
                    .collect();
                let rows: Vec<Value> = tuples
                    .iter()
                    .flat_map(|t| match t {
                        Value::Tuple(fields) => fields.clone(),
                        _ => unreachable!(),
                    })
                    .collect();
                for probe in -1..4 {
                    let cand = [Value::Int(probe), Value::Int(-1)];
                    let want = tuples
                        .binary_search_by(|t| match t {
                            Value::Tuple(fields) => fields[0].cmp(&cand[0]),
                            _ => unreachable!(),
                        })
                        .unwrap_or_else(|p| p);
                    let got = heap_position(&rows, &Fields::Lent(&cand), &spec);
                    assert_eq!(got, want, "n={n} a={a} b={b} probe={probe}");
                }
            }
        }
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
        assert!(!AccumType::heap(2, 1, vec![]).is_exact_merge());
        assert!(!AccumType::User("ProductAccum".into()).is_exact_merge());
        assert!(
            !AccumType::Map(Box::new(AccumType::Avg)).is_exact_merge(),
            "exactness must recurse through containers"
        );
    }
}
