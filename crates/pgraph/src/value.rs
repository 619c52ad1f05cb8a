//! Dynamically-typed attribute values.
//!
//! GSQL is dynamically typed at the evaluator level: vertex/edge
//! attributes, query parameters, accumulator inputs and table cells are
//! all [`Value`]s. Unlike `f64`, `Value` implements **total** equality,
//! ordering and hashing (doubles compare via `total_cmp` and hash via
//! their bit pattern) so that values can serve as `GROUP BY` keys,
//! `SetAccum` elements and `MapAccum` keys.

use crate::graph::{EdgeId, VertexId};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a [`Value`], used by schema attribute declarations and by
/// accumulator type parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Bool,
    Int,
    Double,
    Str,
    DateTime,
    Vertex,
    Edge,
}

impl ValueType {
    /// Parses a GSQL type name (case-insensitive).
    pub fn parse(name: &str) -> Option<ValueType> {
        Some(match name.to_ascii_lowercase().as_str() {
            "bool" => ValueType::Bool,
            "int" | "uint" => ValueType::Int,
            "float" | "double" => ValueType::Double,
            "string" | "str" => ValueType::Str,
            "datetime" => ValueType::DateTime,
            "vertex" => ValueType::Vertex,
            "edge" => ValueType::Edge,
            _ => return None,
        })
    }

    /// The neutral default of this type (attribute columns are initialized
    /// with it when no value is supplied).
    pub fn default_value(self) -> Value {
        match self {
            ValueType::Bool => Value::Bool(false),
            ValueType::Int => Value::Int(0),
            ValueType::Double => Value::Double(0.0),
            ValueType::Str => Value::from(""),
            ValueType::DateTime => Value::DateTime(0),
            ValueType::Vertex | ValueType::Edge => Value::Null,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Bool => "BOOL",
            ValueType::Int => "INT",
            ValueType::Double => "DOUBLE",
            ValueType::Str => "STRING",
            ValueType::DateTime => "DATETIME",
            ValueType::Vertex => "VERTEX",
            ValueType::Edge => "EDGE",
        };
        f.write_str(s)
    }
}

/// A runtime value. `DateTime` is epoch seconds; collection variants keep
/// canonical (sorted) representations so equality is structural. A string
/// is shared, not owned: copying one into a group key, a heap row or a
/// result costs a reference-count bump, and the graph's string columns
/// hand out the very allocation they store.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(Arc<str>),
    DateTime(i64),
    Vertex(VertexId),
    Edge(EdgeId),
    /// A fixed-arity tuple (HeapAccum elements, GroupBy keys).
    Tuple(Vec<Value>),
    /// An ordered list (ListAccum / ArrayAccum results).
    List(Vec<Value>),
    /// A set, stored sorted and deduplicated.
    Set(Vec<Value>),
    /// A map, stored sorted by key.
    Map(Vec<(Value, Value)>),
}

impl Value {
    /// Discriminant rank for cross-type total ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2, // numerics compare with each other
            Value::Str(_) => 4,
            Value::DateTime(_) => 5,
            Value::Vertex(_) => 6,
            Value::Edge(_) => 7,
            Value::Tuple(_) => 8,
            Value::List(_) => 9,
            Value::Set(_) => 10,
            Value::Map(_) => 11,
        }
    }

    /// True for `Int` and `Double`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Double(_))
    }

    /// Numeric view as `f64` (also covers `Bool` and `DateTime` for
    /// aggregation convenience).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::DateTime(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view, when exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::DateTime(t) => Some(*t),
            Value::Bool(b) => Some(*b as i64),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 9.2e18 => Some(*d as i64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Vertex view.
    pub fn as_vertex(&self) -> Option<VertexId> {
        match self {
            Value::Vertex(v) => Some(*v),
            _ => None,
        }
    }

    /// Edge view.
    pub fn as_edge(&self) -> Option<EdgeId> {
        match self {
            Value::Edge(e) => Some(*e),
            _ => None,
        }
    }

    /// The runtime type, when it corresponds to a schema [`ValueType`].
    pub fn value_type(&self) -> Option<ValueType> {
        Some(match self {
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Double(_) => ValueType::Double,
            Value::Str(_) => ValueType::Str,
            Value::DateTime(_) => ValueType::DateTime,
            Value::Vertex(_) => ValueType::Vertex,
            Value::Edge(_) => ValueType::Edge,
            _ => return None,
        })
    }

    /// Builds a canonical set value (sorts and deduplicates).
    pub fn new_set(mut items: Vec<Value>) -> Value {
        items.sort();
        items.dedup();
        Value::Set(items)
    }

    /// Builds a canonical map value (sorts by key; later duplicates win).
    pub fn new_map(mut entries: Vec<(Value, Value)>) -> Value {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.reverse();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries.reverse();
        Value::Map(entries)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The `i64` a double equals exactly, if any: an integral value in
/// `[-2^63, 2^63)` other than `-0.0` (which `Value`'s order keeps apart
/// from `Int(0)`).
fn integral_i64(d: f64) -> Option<i64> {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    let exact = d.trunc() == d && (-TWO_POW_63..TWO_POW_63).contains(&d);
    (exact && !(d == 0.0 && d.is_sign_negative())).then_some(d as i64)
}

/// Compares an `i64` with an `f64` **exactly** (no lossy `as f64` cast,
/// which collapses integers above 2^53 onto nearby doubles). The double
/// side follows `f64::total_cmp`: NaNs sort by sign outside the
/// infinities, and `Int(0)` sorts *above* `Double(-0.0)` (like `0.0`
/// does), keeping the mixed order antisymmetric and transitive.
fn cmp_int_double(a: i64, b: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        // total_cmp places -NaN below -inf and +NaN above +inf.
        return if b.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    if b >= TWO_POW_63 {
        // Covers +inf; every i64 is < 2^63.
        return Ordering::Less;
    }
    if b < -TWO_POW_63 {
        // Covers -inf; -2^63 itself is representable and handled below.
        return Ordering::Greater;
    }
    // b is finite in [-2^63, 2^63), so its truncation converts exactly.
    let t = b.trunc();
    let ti = t as i64;
    match a.cmp(&ti) {
        Ordering::Equal => {
            // Equal integer parts: the fractional part decides (the
            // subtraction is exact, and x - y == 0 iff x == y in IEEE
            // arithmetic, so the sign test is reliable).
            let frac = b - t;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 || (a == 0 && b.is_sign_negative()) {
                // A negative fraction puts b below a; so does b == -0.0
                // against Int(0) (total_cmp: -0.0 < 0.0).
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        unequal => unequal,
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => cmp_int_double(*a, *b),
            (Double(a), Int(b)) => cmp_int_double(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            (Vertex(a), Vertex(b)) => a.cmp(b),
            (Edge(a), Edge(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) | (List(a), List(b)) | (Set(a), Set(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // An integral numeric hashes by its integer value, so that
            // `Int(i) == Double(d)` (exact) implies equal hashes and
            // integer keys spread under multiplicative hashers (the bits
            // of `i as f64` end in zeros for every small `i`).
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                state.write_u8(2);
                match integral_i64(*d) {
                    Some(i) => state.write_i64(i),
                    None => state.write_u64(d.to_bits()),
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::DateTime(t) => {
                state.write_u8(5);
                t.hash(state);
            }
            Value::Vertex(v) => {
                state.write_u8(6);
                v.hash(state);
            }
            Value::Edge(e) => {
                state.write_u8(7);
                e.hash(state);
            }
            Value::Tuple(xs) => {
                state.write_u8(8);
                xs.hash(state);
            }
            Value::List(xs) => {
                state.write_u8(9);
                xs.hash(state);
            }
            Value::Set(xs) => {
                state.write_u8(10);
                xs.hash(state);
            }
            Value::Map(xs) => {
                state.write_u8(11);
                xs.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Value::Null => f.write_str("null"),
                Value::Bool(b) => write!(f, "{b}"),
                Value::Int(i) => write!(f, "{i}"),
                Value::Double(d) => {
                    if d.fract() == 0.0 && d.abs() < 1e15 {
                        write!(f, "{d:.1}")
                    } else {
                        write!(f, "{d}")
                    }
                }
                Value::Str(s) => write!(f, "{s}"),
                Value::DateTime(t) => write!(f, "@{t}"),
                Value::Vertex(v) => write!(f, "V{}", v.0),
                Value::Edge(e) => write!(f, "E{}", e.0),
                Value::Tuple(xs) => {
                    f.write_str("(")?;
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    f.write_str(")")
                }
                Value::List(xs) => {
                    f.write_str("[")?;
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    f.write_str("]")
                }
                Value::Set(xs) => {
                    f.write_str("{")?;
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    f.write_str("}")
                }
                Value::Map(xs) => {
                    f.write_str("{")?;
                    for (i, (k, v)) in xs.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{k} -> {v}")?;
                    }
                    f.write_str("}")
                }
            }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<VertexId> for Value {
    fn from(v: VertexId) -> Self {
        Value::Vertex(v)
    }
}

/// Cheap, conservative heap-footprint estimation — the basis of the
/// query engine's accumulator memory budget. Estimates count the inline
/// size plus owned heap allocations; they are approximations (allocator
/// overhead and capacity slack are ignored), intended for budget
/// enforcement rather than exact profiling.
pub trait MemSize {
    /// Estimated total size in bytes (inline + owned heap).
    fn estimated_bytes(&self) -> usize;
}

impl MemSize for Value {
    fn estimated_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        inline
            + match self {
                Value::Str(s) => s.len(),
                Value::Tuple(xs) | Value::List(xs) | Value::Set(xs) => {
                    xs.iter().map(MemSize::estimated_bytes).sum()
                }
                Value::Map(entries) => entries
                    .iter()
                    .map(|(k, v)| k.estimated_bytes() + v.estimated_bytes())
                    .sum(),
                _ => 0,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_ne!(Value::Int(3), Value::Double(3.5));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Double(3.0)));
    }

    #[test]
    fn large_magnitude_int_double_ordering_is_exact() {
        // 2^53 + 1 is the first integer a double cannot represent; the old
        // `i64 as f64` comparison collapsed it onto 2^53.
        let p53 = 1i64 << 53;
        assert_eq!(Value::Int(p53), Value::Double(p53 as f64));
        assert!(Value::Int(p53 + 1) > Value::Double(p53 as f64));
        assert!(Value::Double(p53 as f64) < Value::Int(p53 + 1));
        assert!(Value::Int(-(p53 + 1)) < Value::Double(-(p53 as f64)));
        // i64::MAX rounds up to 2^63 as a double; they must not be equal.
        assert!(Value::Int(i64::MAX) < Value::Double(i64::MAX as f64));
        assert!(Value::Int(i64::MIN) == Value::Double(i64::MIN as f64));
        assert!(Value::Int(i64::MIN + 1) > Value::Double(i64::MIN as f64));
    }

    #[test]
    fn int_double_ordering_extremes() {
        assert!(Value::Int(i64::MAX) < Value::Double(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Double(f64::NEG_INFINITY));
        // total_cmp semantics: +NaN above +inf, -NaN below -inf.
        assert!(Value::Int(i64::MAX) < Value::Double(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Double(-f64::NAN));
        // Fractional parts order correctly on both sides of zero.
        assert!(Value::Int(-1) > Value::Double(-1.5));
        assert!(Value::Int(2) < Value::Double(2.5));
        // Int(0) sits with +0.0, above -0.0 (matching Double total order).
        assert!(Value::Int(0) > Value::Double(-0.0));
        assert_eq!(Value::Int(0), Value::Double(0.0));
    }

    #[test]
    fn mixed_numeric_ordering_is_antisymmetric_and_transitive() {
        let vals = [
            Value::Double(-f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            Value::Double(-0.0),
            Value::Int(0),
            Value::Double(0.5),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Int(i64::MAX),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NAN),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                match i.cmp(&j) {
                    Ordering::Less => assert!(a < b, "{a:?} !< {b:?}"),
                    Ordering::Equal => assert_eq!(a, b),
                    Ordering::Greater => assert!(a > b, "{a:?} !> {b:?}"),
                }
            }
        }
    }

    #[test]
    fn total_order_on_doubles() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Double(f64::NEG_INFINITY) < Value::Double(0.0));
    }

    #[test]
    fn cross_type_ordering_is_stable() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::Int(5) < Value::Str("a".into()));
    }

    #[test]
    fn set_canonicalization() {
        let s = Value::new_set(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        assert_eq!(s, Value::Set(vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn map_canonicalization_last_wins() {
        let m = Value::new_map(vec![
            (Value::Int(1), Value::Str("a".into())),
            (Value::Int(1), Value::Str("b".into())),
            (Value::Int(0), Value::Str("z".into())),
        ]);
        assert_eq!(
            m,
            Value::Map(vec![
                (Value::Int(0), Value::Str("z".into())),
                (Value::Int(1), Value::Str("b".into())),
            ])
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(
            Value::Tuple(vec![Value::Int(1), Value::Str("x".into())]).to_string(),
            "(1, x)"
        );
    }

    #[test]
    fn type_parsing() {
        assert_eq!(ValueType::parse("FLOAT"), Some(ValueType::Double));
        assert_eq!(ValueType::parse("string"), Some(ValueType::Str));
        assert_eq!(ValueType::parse("nope"), None);
    }

    #[test]
    fn defaults_match_types() {
        assert_eq!(ValueType::Int.default_value(), Value::Int(0));
        assert_eq!(ValueType::Str.default_value(), Value::from(""));
    }
}
