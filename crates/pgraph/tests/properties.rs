//! Property-based tests for the pgraph substrate: BigCount arithmetic
//! against u128 ground truth and against a reference limb-vector
//! implementation, loader round-trips on random graphs, BFS-counting
//! invariants, and the attribute store against a plain row model.

use pgraph::bigcount::BigCount;
use pgraph::generators::{erdos_renyi, grid, ve_schema};
use pgraph::graph::{EdgeId, Graph, GraphBuilder, VertexId};
use pgraph::loader::{load_from_string, save_to_string};
use pgraph::mutate::{apply_batch, MutationOp};
use pgraph::schema::{AttrDef, ETypeId, Schema, VTypeId};
use pgraph::value::{Value, ValueType};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Cases per BigCount property: a handful under Miri, which runs these in
/// CI (`cargo miri test -p pgraph --test properties bigcount`).
const CASES: u32 = if cfg!(miri) { 2 } else { 64 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// BigCount addition agrees with u128 on values that fit.
    #[test]
    fn bigcount_add_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        let mut x = BigCount::from(a);
        x.add_assign(&BigCount::from(b));
        prop_assert_eq!(x, BigCount::from(a + b));
    }

    /// BigCount multiplication agrees with u128 on values that fit.
    #[test]
    fn bigcount_mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let x = BigCount::from(a).mul(&BigCount::from(b));
        prop_assert_eq!(x, BigCount::from(a as u128 * b as u128));
    }

    /// mul_u64 equals full mul.
    #[test]
    fn bigcount_mul_u64_matches_mul(a in 0u128..u128::MAX, k in 0u64..u64::MAX) {
        let mut x = BigCount::from(a);
        x.mul_u64(k);
        prop_assert_eq!(x, BigCount::from(a).mul(&BigCount::from(k)));
    }

    /// Display produces the same decimal string as u128 formatting.
    #[test]
    fn bigcount_display_matches_u128(a in 0u128..u128::MAX) {
        prop_assert_eq!(BigCount::from(a).to_string(), a.to_string());
    }

    /// Ordering agrees with u128 ordering.
    #[test]
    fn bigcount_ordering_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        prop_assert_eq!(BigCount::from(a).cmp(&BigCount::from(b)), a.cmp(&b));
    }

    /// Addition is commutative even across very different magnitudes.
    #[test]
    fn bigcount_add_commutes(bits_a in 0usize..300, bits_b in 0usize..300) {
        let a = BigCount::pow2(bits_a);
        let b = BigCount::pow2(bits_b);
        let mut x = a.clone();
        x.add_assign(&b);
        let mut y = b.clone();
        y.add_assign(&a);
        prop_assert_eq!(x, y);
    }
}

/// The reference: the plain limb-vector counter `BigCount` replaced (every
/// value a heap vector, no inline case). Invariant: no trailing zero limb.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RefCount {
    limbs: Vec<u64>,
}

impl RefCount {
    fn trim(mut self) -> Self {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        self
    }

    fn from_u128(v: u128) -> Self {
        RefCount { limbs: vec![v as u64, (v >> 64) as u64] }.trim()
    }

    fn pow2(k: usize) -> Self {
        let mut limbs = vec![0u64; k / 64 + 1];
        limbs[k / 64] = 1u64 << (k % 64);
        RefCount { limbs }.trim()
    }

    fn add_assign(&mut self, other: &RefCount) {
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    fn mul(&self, other: &RefCount) -> RefCount {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        RefCount { limbs: out }.trim()
    }

    fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    fn cmp(&self, other: &RefCount) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            o => o,
        }
    }

    /// Decimal digits, by repeated division by ten.
    fn to_decimal(&self) -> String {
        if self.limbs.is_empty() {
            return "0".into();
        }
        let mut work = self.limbs.clone();
        let mut digits = Vec::new();
        while !work.is_empty() {
            let mut rem = 0u128;
            for limb in work.iter_mut().rev() {
                let cur = (rem << 64) | *limb as u128;
                *limb = (cur / 10) as u64;
                rem = cur % 10;
            }
            while work.last() == Some(&0) {
                work.pop();
            }
            digits.push(b'0' + rem as u8);
        }
        digits.reverse();
        String::from_utf8(digits).unwrap()
    }
}

/// A count given by how to build it, so both implementations can be
/// built alike.
#[derive(Clone, Debug)]
enum Seed {
    U64(u64),
    U128(u128),
    Pow2(usize),
}

impl Seed {
    fn big(&self) -> BigCount {
        match *self {
            Seed::U64(v) => BigCount::from(v),
            Seed::U128(v) => BigCount::from(v),
            Seed::Pow2(k) => BigCount::pow2(k),
        }
    }

    fn reference(&self) -> RefCount {
        match *self {
            Seed::U64(v) => RefCount::from_u128(v as u128),
            Seed::U128(v) => RefCount::from_u128(v),
            Seed::Pow2(k) => RefCount::pow2(k),
        }
    }
}

/// Words that sit on or next to the edges of the inline range.
fn boundary_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        (0u64..4).prop_map(|k| u64::MAX - k),
        (0u64..4).prop_map(|k| (1u64 << 32) + k),
        (0u64..4).prop_map(|k| (1u64 << 63) - 1 + k),
        any::<u64>(),
    ]
}

/// Counts around 2^64 and 2^128, plus powers of two up to 2^300.
fn seed() -> impl Strategy<Value = Seed> {
    prop_oneof![
        boundary_u64().prop_map(Seed::U64),
        (0u128..4).prop_map(|k| Seed::U128((1u128 << 64) + k)),
        (1u128..4).prop_map(|k| Seed::U128((1u128 << 64) - k)),
        (0u128..4).prop_map(|k| Seed::U128(u128::MAX - k)),
        any::<u128>().prop_map(Seed::U128),
        (0usize..300).prop_map(Seed::Pow2),
        prop_oneof![Just(63usize), Just(64), Just(127), Just(128)].prop_map(Seed::Pow2),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Add(Seed),
    AddU64(u64),
    Mul(Seed),
    MulU64(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        seed().prop_map(Op::Add),
        boundary_u64().prop_map(Op::AddU64),
        seed().prop_map(Op::Mul),
        boundary_u64().prop_map(Op::MulU64),
    ]
}

fn hash_of(c: &BigCount) -> u64 {
    let mut h = DefaultHasher::new();
    c.hash(&mut h);
    h.finish()
}

/// Every observation of `got` equals the reference's.
fn check_same(got: &BigCount, want: &RefCount) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.to_string(), want.to_decimal());
    prop_assert_eq!(got.to_u64(), want.to_u64());
    prop_assert_eq!(got.to_f64().to_bits(), want.to_f64().to_bits());
    prop_assert_eq!(got.bits(), want.bits());
    prop_assert_eq!(got.is_zero(), want.limbs.is_empty());
    prop_assert_eq!(got.is_one(), want.limbs == [1]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A sequence of sums and products, run on `BigCount` and on the
    /// reference alike, crosses 2^64 and 2^128 in both directions
    /// (multiplying by zero comes back) and agrees at every step.
    #[test]
    fn bigcount_matches_reference_through_op_sequences(
        start in seed(),
        ops in prop::collection::vec(op(), 1..6),
    ) {
        let (mut got, mut want) = (start.big(), start.reference());
        check_same(&got, &want)?;
        for op in &ops {
            match op {
                Op::Add(s) => {
                    got.add_assign(&s.big());
                    want.add_assign(&s.reference());
                }
                Op::AddU64(k) => {
                    got.add_u64(*k);
                    want.add_assign(&RefCount::from_u128(*k as u128));
                }
                Op::Mul(s) => {
                    got = got.mul(&s.big());
                    want = want.mul(&s.reference());
                }
                Op::MulU64(k) => {
                    got.mul_u64(*k);
                    want = want.mul(&RefCount::from_u128(*k as u128));
                }
            }
            check_same(&got, &want)?;
        }
    }

    /// `Ord` and `Eq` agree with the reference across the inline and the
    /// limb-vector forms, and equal counts hash alike.
    #[test]
    fn bigcount_order_and_equality_match_reference(a in seed(), b in seed(), k in boundary_u64()) {
        // Shift both by the same product so pairs straddle 2^64 and 2^128.
        let (mut x, mut y) = (a.big(), b.big());
        x.mul_u64(k);
        y.mul_u64(k);
        let scale = RefCount::from_u128(k as u128);
        let (rx, ry) = (a.reference().mul(&scale), b.reference().mul(&scale));
        prop_assert_eq!(x.cmp(&y), rx.cmp(&ry));
        prop_assert_eq!(x == y, rx == ry);
        if x == y {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }
    }

    /// One value has one form: a `u128` below 2^64 is the `u64` it holds,
    /// a sum that carries into 2^64 is `pow2(64)`, and anything times zero
    /// is zero — equal, and hashing alike.
    #[test]
    fn bigcount_has_one_canonical_form(v in boundary_u64(), s in seed()) {
        let (from64, from128) = (BigCount::from(v), BigCount::from(v as u128));
        prop_assert_eq!(&from64, &from128);
        prop_assert_eq!(hash_of(&from64), hash_of(&from128));

        let mut carried = BigCount::from(u64::MAX);
        carried.add_u64(1);
        prop_assert_eq!(&carried, &BigCount::pow2(64));
        prop_assert_eq!(hash_of(&carried), hash_of(&BigCount::pow2(64)));

        let zero = s.big().mul(&BigCount::zero());
        prop_assert!(zero.is_zero());
        prop_assert_eq!(&zero, &BigCount::zero());
        prop_assert_eq!(hash_of(&zero), hash_of(&BigCount::zero()));
        let mut cleared = s.big();
        cleared.mul_u64(0);
        prop_assert!(cleared.is_zero());
        prop_assert_eq!(hash_of(&cleared), hash_of(&BigCount::default()));
    }
}

fn random_graph(n: usize, p: f64, seed: u64) -> Graph {
    erdos_renyi(n, p, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Loader round-trips random graphs byte-identically.
    #[test]
    fn loader_round_trips(n in 1usize..40, p in 0.0f64..0.3, seed in 0u64..1000) {
        let g = random_graph(n, p, seed);
        let text = save_to_string(&g).unwrap();
        let g2 = load_from_string(&text).unwrap();
        prop_assert_eq!(g.vertex_count(), g2.vertex_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        prop_assert_eq!(save_to_string(&g2).unwrap(), text);
    }

    /// BFS path counting is monotone under edge addition: adding an edge
    /// never decreases the number of distinct shortest paths *unless* it
    /// shortens the distance (in which case the distance drops).
    #[test]
    fn counting_monotonicity(n in 4usize..25, p in 0.05f64..0.3, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        let src = VertexId(0);
        let dst = VertexId((n - 1) as u32);
        let before = pgraph::algo::count_shortest_paths(&g, src, dst);
        // Re-add an existing edge (a parallel edge): distance unchanged,
        // count cannot shrink.
        if g.edge_count() > 0 {
            let mut g2 = g.clone();
            let e0 = g2.edges().next().unwrap();
            let (s, t) = g2.edge_endpoints(e0);
            let etype = g2.edge_type_of(e0);
            apply_batch(&mut g2, &[MutationOp::AddEdge { etype, src: s, dst: t, attrs: vec![] }])
                .unwrap();
            let after = pgraph::algo::count_shortest_paths(&g2, src, dst);
            match (before, after) {
                (Some((d1, c1)), Some((d2, c2))) => {
                    prop_assert_eq!(d1, d2);
                    prop_assert!(c2 >= c1);
                }
                (None, None) => {}
                other => prop_assert!(false, "reachability changed: {:?}", other),
            }
        }
    }

    /// Grid path counts are binomial coefficients for arbitrary small
    /// grids.
    #[test]
    fn grid_counts_binomial(w in 2usize..7, h in 2usize..7) {
        let (g, m) = grid(w, h);
        let (len, cnt) =
            pgraph::algo::count_shortest_paths(&g, m[0][0], m[h - 1][w - 1]).unwrap();
        prop_assert_eq!(len, w + h - 2);
        // C(w+h-2, w-1)
        let mut expect = 1u128;
        for i in 0..(w - 1) {
            expect = expect * (h - 1 + i + 1) as u128 / (i + 1) as u128;
        }
        prop_assert_eq!(cnt, BigCount::from(expect));
    }
}

/// Attribute mutation round-trips through the loader.
#[test]
fn set_vertex_attr_persists() {
    let mut b = GraphBuilder::new(ve_schema());
    let v = b.vertex("V", &[("name", Value::from("old"))]).unwrap();
    let mut g = b.build();
    g.set_vertex_attr(v, 0, Value::from("new")).unwrap();
    let g2 = load_from_string(&save_to_string(&g).unwrap()).unwrap();
    assert_eq!(g2.vertex_attr_by_name(v, "name").as_deref(), Some(&Value::from("new")));
}

/// `Value`'s hash under the standard library's and the engine's hasher.
fn value_hashes(v: &Value) -> (u64, u64) {
    let mut std_h = DefaultHasher::new();
    v.hash(&mut std_h);
    let mut fx = pgraph::fxhash::FxHasher::default();
    v.hash(&mut fx);
    (std_h.finish(), fx.finish())
}

/// Asserts that every equal pair among `vals` hashes alike under both
/// hashers.
fn assert_eq_implies_equal_hash(vals: &[Value]) {
    for a in vals {
        for b in vals {
            if a == b {
                assert_eq!(value_hashes(a), value_hashes(b), "{a:?} == {b:?}");
            }
        }
    }
}

/// Numerics at the edges of exact `Int`/`Double` equality: beyond 2^53,
/// at ±2^63, signed zeros and NaNs.
#[test]
fn numeric_eq_implies_equal_hash_at_the_edges() {
    let p53 = 1i64 << 53;
    let p63 = 9_223_372_036_854_775_808.0f64;
    let mut vals = Vec::new();
    for i in [0, 1, -1, 3, p53 - 1, p53, p53 + 1, -p53 - 1, i64::MAX, i64::MIN, i64::MIN + 1] {
        vals.push(Value::Int(i));
        vals.push(Value::Double(i as f64));
    }
    for d in [0.0, -0.0, 0.5, -1.5, p63, -p63, f64::NAN, -f64::NAN, f64::INFINITY, 1e300] {
        vals.push(Value::Double(d));
    }
    assert_eq_implies_equal_hash(&vals);
    // The exact equalities the hash must honour are really present.
    assert_eq!(Value::Int(i64::MIN), Value::Double(-p63));
    assert_eq!(Value::Int(p53), Value::Double(p53 as f64));
    assert_ne!(Value::Int(0), Value::Double(-0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random integers, the doubles nearest them, and doubles from random
    /// bit patterns: equal values hash alike under both hashers.
    #[test]
    fn numeric_eq_implies_equal_hash(i in any::<i64>(), shift in 0u32..64, bits in any::<u64>()) {
        let small = i >> shift;
        let d = f64::from_bits(bits);
        let vals = [
            Value::Int(i),
            Value::Double(i as f64),
            Value::Int(small),
            Value::Double(small as f64),
            Value::Double(d),
            Value::Double(d.trunc()),
            Value::Int(d as i64),
        ];
        assert_eq_implies_equal_hash(&vals);
    }
}

/// Integer keys spread under the engine's multiplicative hasher: the low
/// 12 bits of the hash (a hash table's first probe for 4096 buckets) take
/// nearly as many values as there are keys.
#[test]
fn int_hashes_spread_under_fxhash() {
    let low: std::collections::HashSet<u64> =
        (0..4096).map(|i| value_hashes(&Value::Int(i)).1 & 0xfff).collect();
    assert!(low.len() >= 3500, "{} distinct low-12-bit hashes", low.len());
}

/// The store model: every vertex's and edge's type, endpoints and
/// attribute values as plain rows, updated the way `apply_batch`
/// documents — ids against the batch start, deletions compacted once at
/// the end with surviving order kept.
#[derive(Clone, Default)]
struct Model {
    vertices: Vec<(VTypeId, Vec<Value>)>,
    edges: Vec<(ETypeId, VertexId, VertexId, Vec<Value>)>,
}

impl Model {
    fn apply(&mut self, ops: &[MutationOp]) {
        let (mut dead_v, mut dead_e) = (vec![false; 0], vec![false; 0]);
        for op in ops {
            match op {
                MutationOp::AddVertex { vtype, attrs } => {
                    self.vertices.push((*vtype, attrs.clone()))
                }
                MutationOp::AddEdge { etype, src, dst, attrs } => {
                    self.edges.push((*etype, *src, *dst, attrs.clone()))
                }
                MutationOp::SetVertexAttr { v, attr, value } => {
                    self.vertices[v.0 as usize].1[*attr] = value.clone()
                }
                MutationOp::SetEdgeAttr { e, attr, value } => {
                    self.edges[e.0 as usize].3[*attr] = value.clone()
                }
                MutationOp::DeleteVertex { v } => {
                    dead_v.resize(self.vertices.len(), false);
                    dead_v[v.0 as usize] = true;
                }
                MutationOp::DeleteEdge { e } => {
                    dead_e.resize(self.edges.len(), false);
                    dead_e[e.0 as usize] = true;
                }
            }
        }
        if !dead_v.contains(&true) && !dead_e.contains(&true) {
            return;
        }
        let is_dead = |flags: &[bool], i: usize| flags.get(i).copied().unwrap_or(false);
        let mut renumber = Vec::with_capacity(self.vertices.len());
        let mut next = 0u32;
        for i in 0..self.vertices.len() {
            renumber.push((!is_dead(&dead_v, i)).then(|| {
                next += 1;
                VertexId(next - 1)
            }));
        }
        let vertices = std::mem::take(&mut self.vertices);
        self.vertices = vertices
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !is_dead(&dead_v, *i))
            .map(|(_, v)| v)
            .collect();
        let edges = std::mem::take(&mut self.edges);
        self.edges = edges
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !is_dead(&dead_e, *i))
            .filter_map(|(_, (t, s, d, attrs))| {
                Some((t, renumber[s.0 as usize]?, renumber[d.0 as usize]?, attrs))
            })
            .collect();
    }

    /// Every type, endpoint and attribute of `g` equals the model's, each
    /// value of its declared type (so `Int(3)` and `Double(3.0)`, equal
    /// as values, still differ).
    fn check(&self, g: &Graph, when: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(g.vertex_count(), self.vertices.len(), "{}", when);
        prop_assert_eq!(g.edge_count(), self.edges.len(), "{}", when);
        let same = |got: &Value, want: &Value, what: String| -> Result<(), TestCaseError> {
            prop_assert_eq!(got, want, "{} {}", when, what);
            prop_assert_eq!(got.value_type(), want.value_type(), "{} {}", when, what);
            Ok(())
        };
        for (i, (vt, attrs)) in self.vertices.iter().enumerate() {
            let v = VertexId(i as u32);
            prop_assert_eq!(g.vertex_type_of(v), *vt, "{} vertex {}", when, i);
            for (k, want) in attrs.iter().enumerate() {
                same(&g.vertex_attr(v, k), want, format!("vertex {i} attribute {k}"))?;
            }
        }
        for (i, (et, src, dst, attrs)) in self.edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            prop_assert_eq!(g.edge_type_of(e), *et, "{} edge {}", when, i);
            prop_assert_eq!(g.edge_endpoints(e), (*src, *dst), "{} edge {}", when, i);
            for (k, want) in attrs.iter().enumerate() {
                same(&g.edge_attr(e, k), want, format!("edge {i} attribute {k}"))?;
            }
        }
        Ok(())
    }
}

/// A vertex type with one attribute of every storable scalar type but
/// VERTEX and EDGE, a one-string vertex type, an attributed directed edge
/// type and a bare undirected one.
fn store_schema() -> Schema {
    let mut s = Schema::new();
    let attrs = [
        ("i", ValueType::Int),
        ("s", ValueType::Str),
        ("b", ValueType::Bool),
        ("d", ValueType::Double),
        ("t", ValueType::DateTime),
    ];
    s.add_vertex_type("A", attrs.iter().map(|&(n, t)| AttrDef::new(n, t)).collect()).unwrap();
    s.add_vertex_type("B", vec![AttrDef::new("name", ValueType::Str)]).unwrap();
    let edge_attrs = vec![
        AttrDef::new("w", ValueType::Double),
        AttrDef::new("tag", ValueType::Str),
        AttrDef::new("on", ValueType::Bool),
    ];
    s.add_edge_type("L", true, edge_attrs).unwrap();
    s.add_edge_type("U", false, vec![]).unwrap();
    s
}

/// A value of type `ty` drawn from `n`: strings from a small pool, so
/// equal strings are written again and again.
fn sample(ty: ValueType, n: i64) -> Value {
    match ty {
        ValueType::Bool => Value::Bool(n % 3 == 0),
        ValueType::Int => Value::Int(n - 50_000),
        ValueType::Double => Value::Double(n as f64 / 8.0),
        ValueType::Str => Value::from(format!("s{}", n % 7)),
        ValueType::DateTime => Value::DateTime(n * 3_600),
        ValueType::Vertex | ValueType::Edge => unreachable!("not in the store schema"),
    }
}

fn vertex_row(s: &Schema, vt: VTypeId, n: i64) -> Vec<Value> {
    s.vertex_type(vt).attrs.iter().enumerate().map(|(k, a)| sample(a.ty, n + k as i64)).collect()
}

fn edge_row(s: &Schema, et: ETypeId, n: i64) -> Vec<Value> {
    s.edge_type(et).attrs.iter().enumerate().map(|(k, a)| sample(a.ty, n + k as i64)).collect()
}

/// The first batch: 300 `A` vertices (two chunks of every `A` column),
/// 20 `B`s, and 300 edges.
fn initial_batch(s: &Schema) -> Vec<MutationOp> {
    let (a, b) = (VTypeId(0), VTypeId(1));
    let mut ops: Vec<MutationOp> =
        (0..300).map(|n| MutationOp::AddVertex { vtype: a, attrs: vertex_row(s, a, n) }).collect();
    ops.extend((0..20).map(|n| MutationOp::AddVertex { vtype: b, attrs: vertex_row(s, b, n) }));
    for n in 0..300u32 {
        let etype = ETypeId(n % 2);
        let (src, dst) = (VertexId(n * 7 % 320), VertexId(n * 13 % 320));
        ops.push(MutationOp::AddEdge { etype, src, dst, attrs: edge_row(s, etype, n as i64) });
    }
    ops
}

/// Turns raw `(kind, x, y, n)` draws into a valid batch against `m`'s
/// state: inserts (edges may attach to vertices the batch inserted),
/// attribute writes of the declared type, and the occasional deletion.
fn resolve(s: &Schema, m: &Model, raw: &[(u8, u32, u32, i64)]) -> Vec<MutationOp> {
    let (mut nv, ne) = (m.vertices.len() as u32, m.edges.len());
    let mut vtypes: Vec<VTypeId> = m.vertices.iter().map(|(t, _)| *t).collect();
    let mut ops = Vec::new();
    for &(kind, x, y, n) in raw {
        match kind {
            0..=2 => {
                let vtype = VTypeId(x % 2);
                ops.push(MutationOp::AddVertex { vtype, attrs: vertex_row(s, vtype, n) });
                vtypes.push(vtype);
                nv += 1;
            }
            3 | 4 if nv > 0 => {
                let etype = ETypeId(y % 2);
                let (src, dst) = (VertexId(x % nv), VertexId(y % nv));
                ops.push(MutationOp::AddEdge { etype, src, dst, attrs: edge_row(s, etype, n) });
            }
            5..=7 if nv > 0 => {
                let v = VertexId(x % nv);
                let attrs = &s.vertex_type(vtypes[v.0 as usize]).attrs;
                let attr = y as usize % attrs.len();
                ops.push(MutationOp::SetVertexAttr { v, attr, value: sample(attrs[attr].ty, n) });
            }
            8 if ne > 0 => {
                let e = EdgeId(x % ne as u32);
                let attrs = &s.edge_type(m.edges[e.0 as usize].0).attrs;
                if !attrs.is_empty() {
                    let attr = y as usize % attrs.len();
                    ops.push(MutationOp::SetEdgeAttr { e, attr, value: sample(attrs[attr].ty, n) });
                }
            }
            9 if nv > 0 && n % 4 == 0 => ops.push(MutationOp::DeleteVertex { v: VertexId(x % nv) }),
            10 if ne > 0 && n % 4 == 0 => {
                ops.push(MutationOp::DeleteEdge { e: EdgeId(x % ne as u32) })
            }
            _ => {}
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

    /// Random batches through `apply_batch` agree with the row model after
    /// every batch, and after a checkpoint text round trip.
    #[test]
    fn attribute_store_matches_a_row_model(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..11, any::<u32>(), any::<u32>(), 0i64..100_000), 1..12),
            1..6,
        ),
    ) {
        let schema = store_schema();
        let mut g = Graph::new(schema.clone());
        let mut model = Model::default();
        let first = initial_batch(&schema);
        apply_batch(&mut g, &first).unwrap();
        model.apply(&first);
        model.check(&g, "after the initial batch")?;
        for (i, raw) in batches.iter().enumerate() {
            let ops = resolve(&schema, &model, raw);
            apply_batch(&mut g, &ops).unwrap();
            model.apply(&ops);
            model.check(&g, &format!("after batch {i}"))?;
            let reloaded = load_from_string(&save_to_string(&g).unwrap()).unwrap();
            model.check(&reloaded, &format!("after batch {i} and a round trip"))?;
        }
    }
}

/// A batch that writes one attribute of one vertex or edge copies one
/// chunk — of the column it writes — and shares every other store,
/// column and adjacency chunk with the snapshot it was applied to.
#[test]
fn a_one_attribute_update_copies_only_its_column_chunk() {
    let schema = store_schema();
    let mut parent = Graph::new(schema.clone());
    apply_batch(&mut parent, &initial_batch(&schema)).unwrap();
    let updates = [
        MutationOp::SetVertexAttr { v: VertexId(3), attr: 0, value: Value::Int(7) },
        MutationOp::SetVertexAttr { v: VertexId(290), attr: 1, value: Value::from("renamed") },
        MutationOp::SetVertexAttr { v: VertexId(5), attr: 2, value: Value::Bool(true) },
        MutationOp::SetVertexAttr { v: VertexId(310), attr: 0, value: Value::from("b") },
        MutationOp::SetEdgeAttr { e: EdgeId(4), attr: 1, value: Value::from("t") },
    ];
    for op in updates {
        let mut child = parent.clone();
        apply_batch(&mut child, std::slice::from_ref(&op)).unwrap();
        let (shared, total) = child.chunks_shared_with(&parent);
        assert_eq!(total - shared, 1, "{op:?}: {shared} of {total} chunks shared");
        assert!(total > 20, "{total} chunks");
    }
}
