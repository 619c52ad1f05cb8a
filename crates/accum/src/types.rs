//! Accumulator type descriptors.

use crate::user::UserAccumRegistry;
use pgraph::value::ValueType;
use std::fmt;
use std::sync::Arc;

/// Sort direction for a [`AccumType::Heap`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending order.
    Asc,
    /// Descending order.
    Desc,
}

/// One component of a heap's lexicographic sort specification: the tuple
/// field index and its direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapField {
    /// Tuple field index the comparison reads.
    pub index: usize,
    /// Sort direction for that field.
    pub dir: SortDir,
}

/// A `HeapAccum`'s declared shape: how many tuples it keeps, the arity
/// of those tuples, and the lexicographic order it keeps them in. Every
/// instance of one declaration shares one spec (see [`AccumType::Heap`]).
#[derive(Debug, PartialEq, Eq)]
pub struct HeapSpec {
    capacity: usize,
    arity: usize,
    fields: Box<[HeapField]>,
}

impl HeapSpec {
    /// A spec keeping `capacity` tuples of `arity` fields, ordered by
    /// `fields` (an empty list orders by every field, ascending).
    ///
    /// # Panics
    ///
    /// If `arity` is zero or a sort field indexes past `arity`.
    pub fn new(capacity: usize, arity: usize, fields: Vec<HeapField>) -> HeapSpec {
        assert!(arity > 0, "a heap keeps tuples of at least one field");
        assert!(
            fields.iter().all(|f| f.index < arity),
            "heap sort field out of range for a {arity}-tuple"
        );
        HeapSpec { capacity, arity, fields: fields.into() }
    }

    /// Maximum number of retained tuples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of fields of every retained tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Lexicographic sort specification.
    pub fn fields(&self) -> &[HeapField] {
        &self.fields
    }
}

/// The declared type of an accumulator (paper Section 3, "Accumulator
/// Types"). Type parameters of collection accumulators are dynamically
/// checked at combine time; the parameters that *change the combiner's
/// algebra* (numeric vs string `SumAccum`, nested accumulators of
/// `MapAccum`/`GroupByAccum`) are part of the descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum AccumType {
    /// `SumAccum<N>`: addition (numeric) or concatenation (string —
    /// order-dependent, excluded from the tractable class).
    Sum(ValueType),
    /// `MinAccum<O>` over any ordered type.
    Min,
    /// `MaxAccum<O>`.
    Max,
    /// `AvgAccum<N>`: order-invariant (internally sum + count).
    Avg,
    /// `OrAccum`: boolean disjunction.
    Or,
    /// `AndAccum`: boolean conjunction.
    And,
    /// `SetAccum<T>`: set insertion.
    Set,
    /// `BagAccum<T>`: bag insertion (stored as element → count, which is
    /// what keeps bags compressible under multiplicities).
    Bag,
    /// `ListAccum<T>`: order-dependent append.
    List,
    /// `ArrayAccum<T>`: order-dependent append (fixed-size semantics are
    /// not modeled; behaves as list).
    Array,
    /// `MapAccum<K, V>` where `V` is itself an accumulator type; inputs
    /// `(k -> v)` route `v` into the nested accumulator at key `k`.
    Map(Box<AccumType>),
    /// `HeapAccum<T>(capacity, f1 ASC|DESC, ...)`: a capacity-bounded
    /// priority queue of tuples under a lexicographic order. The spec is
    /// shared: instantiating the type clones the `Arc`, not the spec.
    Heap(Arc<HeapSpec>),
    /// `GroupByAccum<K1...Kn, A1...Am>`: SQL GROUP BY as an accumulator
    /// (paper Example 12); inputs `(k1..kn -> a1..am)` route each `aj`
    /// into nested accumulator `Aj` of the group keyed by the key tuple.
    GroupBy {
        /// Number of leading key fields in each input tuple.
        key_arity: usize,
        /// Declared types of the per-group nested accumulators.
        nested: Vec<AccumType>,
    },
    /// A user-defined accumulator registered by name.
    User(String),
}

impl AccumType {
    /// `HeapAccum` of `arity`-tuples: shorthand for [`AccumType::Heap`]
    /// over [`HeapSpec::new`] (whose panics it shares).
    pub fn heap(capacity: usize, arity: usize, fields: Vec<HeapField>) -> AccumType {
        AccumType::Heap(Arc::new(HeapSpec::new(capacity, arity, fields)))
    }

    /// Order-invariance of the combiner (paper Section 4.3): the Reduce
    /// phase result is deterministic iff the combiner is commutative and
    /// associative. `List`, `Array` and `SumAccum<STRING>` are the
    /// exceptions; `Map`/`GroupBy` are invariant iff nested accumulators
    /// are.
    pub fn is_order_invariant(&self, registry: &UserAccumRegistry) -> bool {
        match self {
            AccumType::Sum(ValueType::Str) => false,
            AccumType::List | AccumType::Array => false,
            AccumType::Map(v) => v.is_order_invariant(registry),
            AccumType::GroupBy { nested, .. } => {
                nested.iter().all(|n| n.is_order_invariant(registry))
            }
            AccumType::User(name) => registry.order_invariant(name).unwrap_or(false),
            _ => true,
        }
    }

    /// Multiplicity-insensitivity (paper Appendix A): combining the same
    /// input `μ` times equals combining it once. Such accumulators absorb
    /// binding multiplicities for free; `Sum`/`Avg`/`Bag` require the
    /// `μ·i` shortcut; `List`/`Array`/`SumAccum<STRING>` are sensitive
    /// with no shortcut (hence excluded from the tractable class).
    pub fn is_multiplicity_insensitive(&self, registry: &UserAccumRegistry) -> bool {
        match self {
            AccumType::Min | AccumType::Max | AccumType::Or | AccumType::And | AccumType::Set => {
                true
            }
            AccumType::Map(v) => v.is_multiplicity_insensitive(registry),
            AccumType::GroupBy { nested, .. } => nested
                .iter()
                .all(|n| n.is_multiplicity_insensitive(registry)),
            AccumType::User(name) => registry.multiplicity_insensitive(name).unwrap_or(false),
            _ => false,
        }
    }

    /// Whether the type admits a polynomial-time multiplicity shortcut
    /// (insensitive, or `Sum`-numeric / `Avg` / `Bag`, recursively for
    /// containers). Exactly the accumulators the paper's tractable class
    /// allows under Kleene patterns.
    pub fn supports_multiplicity_shortcut(&self, registry: &UserAccumRegistry) -> bool {
        match self {
            AccumType::Sum(ValueType::Str) | AccumType::List | AccumType::Array => false,
            AccumType::Sum(_) | AccumType::Avg | AccumType::Bag => true,
            // A heap truncates to its capacity, so `min(μ, capacity)`
            // repeated inserts reproduce μ-fold insertion exactly.
            AccumType::Heap { .. } => true,
            AccumType::Map(v) => v.supports_multiplicity_shortcut(registry),
            AccumType::GroupBy { nested, .. } => nested
                .iter()
                .all(|n| n.supports_multiplicity_shortcut(registry)),
            other => other.is_multiplicity_insensitive(registry),
        }
    }

    /// Whether partitioned accumulation followed by
    /// [`crate::instance::Accum::merge`] in *any* partition arrangement
    /// produces a state **bit-identical** to sequential accumulation —
    /// the per-type condition behind the engine's parallel-fold gate
    /// (decided by the abstract interpreter, `gsql-core`'s
    /// `lint/absint.rs`).
    ///
    /// Stricter than [`is_order_invariant`](Self::is_order_invariant):
    /// `Avg` and `SumAccum<DOUBLE>` are order-invariant mathematically
    /// but fold through non-associative `f64` addition, and a `Heap`
    /// compares only its spec fields, so field-equal ties are resolved by
    /// insertion order. Those merge *correctly* but not *identically*,
    /// and are excluded.
    pub fn is_exact_merge(&self) -> bool {
        match self {
            AccumType::Sum(ValueType::Int)
            | AccumType::Min
            | AccumType::Max
            | AccumType::Or
            | AccumType::And
            | AccumType::Set
            | AccumType::Bag => true,
            AccumType::Map(v) => v.is_exact_merge(),
            AccumType::GroupBy { nested, .. } => {
                nested.iter().all(AccumType::is_exact_merge)
            }
            // f64 folds, concatenating types, tie-truncating heaps, and
            // opaque user accumulators: merge order would show through.
            _ => false,
        }
    }
}

impl fmt::Display for AccumType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccumType::Sum(t) => write!(f, "SumAccum<{t}>"),
            AccumType::Min => write!(f, "MinAccum"),
            AccumType::Max => write!(f, "MaxAccum"),
            AccumType::Avg => write!(f, "AvgAccum"),
            AccumType::Or => write!(f, "OrAccum"),
            AccumType::And => write!(f, "AndAccum"),
            AccumType::Set => write!(f, "SetAccum"),
            AccumType::Bag => write!(f, "BagAccum"),
            AccumType::List => write!(f, "ListAccum"),
            AccumType::Array => write!(f, "ArrayAccum"),
            AccumType::Map(v) => write!(f, "MapAccum<_, {v}>"),
            AccumType::Heap(spec) => {
                write!(f, "HeapAccum({}", spec.capacity())?;
                for h in spec.fields() {
                    write!(
                        f,
                        ", #{} {}",
                        h.index,
                        if h.dir == SortDir::Asc { "ASC" } else { "DESC" }
                    )?;
                }
                write!(f, ")")
            }
            AccumType::GroupBy { key_arity, nested } => {
                write!(f, "GroupByAccum<{key_arity} keys")?;
                for n in nested {
                    write!(f, ", {n}")?;
                }
                write!(f, ">")
            }
            AccumType::User(name) => write!(f, "{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> UserAccumRegistry {
        UserAccumRegistry::new()
    }

    #[test]
    fn order_invariance_classification() {
        let r = reg();
        assert!(AccumType::Sum(ValueType::Int).is_order_invariant(&r));
        assert!(AccumType::Sum(ValueType::Double).is_order_invariant(&r));
        assert!(!AccumType::Sum(ValueType::Str).is_order_invariant(&r));
        assert!(!AccumType::List.is_order_invariant(&r));
        assert!(!AccumType::Array.is_order_invariant(&r));
        assert!(AccumType::Avg.is_order_invariant(&r));
        assert!(AccumType::heap(3, 1, vec![]).is_order_invariant(&r));
        assert!(AccumType::Map(Box::new(AccumType::Min)).is_order_invariant(&r));
        assert!(!AccumType::Map(Box::new(AccumType::List)).is_order_invariant(&r));
    }

    #[test]
    fn multiplicity_classification() {
        let r = reg();
        assert!(AccumType::Min.is_multiplicity_insensitive(&r));
        assert!(AccumType::Set.is_multiplicity_insensitive(&r));
        assert!(!AccumType::Sum(ValueType::Int).is_multiplicity_insensitive(&r));
        assert!(AccumType::Sum(ValueType::Int).supports_multiplicity_shortcut(&r));
        assert!(AccumType::Bag.supports_multiplicity_shortcut(&r));
        assert!(!AccumType::List.supports_multiplicity_shortcut(&r));
        assert!(!AccumType::Sum(ValueType::Str).supports_multiplicity_shortcut(&r));
        let gb = AccumType::GroupBy {
            key_arity: 2,
            nested: vec![AccumType::Sum(ValueType::Double), AccumType::Min],
        };
        assert!(gb.supports_multiplicity_shortcut(&r));
        let gb_bad = AccumType::GroupBy { key_arity: 1, nested: vec![AccumType::List] };
        assert!(!gb_bad.supports_multiplicity_shortcut(&r));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(AccumType::Sum(ValueType::Double).to_string(), "SumAccum<DOUBLE>");
        assert_eq!(
            AccumType::Map(Box::new(AccumType::Avg)).to_string(),
            "MapAccum<_, AvgAccum>"
        );
    }
}
