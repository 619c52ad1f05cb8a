//! Arbitrary-precision unsigned counters for path multiplicities.
//!
//! All-shortest-paths semantics can legalize **exponentially many** paths
//! (Example 11 of the paper: `2^k` paths through a k-diamond chain), and
//! Theorem 6.1 requires *counting* them without enumeration. A fixed-width
//! integer would overflow beyond `2^64` paths on ~64 diamonds, so the
//! engine carries multiplicities as [`BigCount`] — an unsigned integer
//! supporting exactly the arithmetic the evaluator needs: addition (BFS
//! count propagation), multiplication (join multiplicity products,
//! Appendix A), conversion to `f64`/`u64` (for `μ·i` inputs into numeric
//! accumulators) and decimal display.
//!
//! Almost every count is small: a binding row's multiplicity is 1 unless
//! a Kleene hop produced it, and only diamond-chain-like graphs push a
//! count past `2^64`. So a count below `2^64` is held **inline** as one
//! machine word — no heap allocation per row or per product state — and
//! only a value that overflows it moves to a boxed little-endian base-2^64
//! limb vector.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer, inline below `2^64`.
///
/// Canonical form, so the derived `Eq`/`Hash` mean value equality: a
/// value below `2^64` is always `Small`; `Big` holds at least two limbs
/// and no trailing zero limb. The limb vector is boxed, so either variant
/// is one word beside the tag and `size_of::<BigCount>()` is 16: a
/// binding table's multiplicity column costs 16 bytes a row.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigCount(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(u64),
    /// Little-endian base-2^64 limbs of a value ≥ `2^64`, boxed so the
    /// common inline case is not padded to the vector's three words (the
    /// extra indirection is paid only past `2^64`).
    #[allow(clippy::box_collection)]
    Big(Box<Vec<u64>>),
}

impl Default for BigCount {
    fn default() -> Self {
        BigCount::zero()
    }
}

/// Removes trailing zero limbs.
fn trim(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Divides `limbs` in place by a nonzero machine word, returning the
/// remainder.
fn div_rem_u64(limbs: &mut Vec<u64>, d: u64) -> u64 {
    debug_assert!(d != 0);
    let mut rem = 0u128;
    for limb in limbs.iter_mut().rev() {
        let cur = (rem << 64) | (*limb as u128);
        *limb = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    trim(limbs);
    rem as u64
}

impl BigCount {
    /// The zero count.
    #[inline]
    pub fn zero() -> Self {
        BigCount(Repr::Small(0))
    }

    /// The unit count.
    #[inline]
    pub fn one() -> Self {
        BigCount(Repr::Small(1))
    }

    /// True iff this count is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// True iff this count is exactly one.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// The canonical count of a limb vector (any length, trailing zeros
    /// allowed).
    fn from_limbs(mut limbs: Vec<u64>) -> BigCount {
        trim(&mut limbs);
        match limbs.len() {
            0 => BigCount::zero(),
            1 => BigCount(Repr::Small(limbs[0])),
            _ => BigCount(Repr::Big(Box::new(limbs))),
        }
    }

    /// Little-endian limbs without trailing zeros (empty for zero).
    #[inline]
    fn limbs(&self) -> &[u64] {
        match &self.0 {
            Repr::Small(0) => &[],
            Repr::Small(v) => std::slice::from_ref(v),
            Repr::Big(limbs) => limbs,
        }
    }

    /// The limb vector of this count, moving a `Small` value into one.
    /// The caller restores the canonical form.
    fn limbs_mut(&mut self) -> &mut Vec<u64> {
        if let Repr::Small(v) = self.0 {
            self.0 = Repr::Big(Box::new(if v == 0 { Vec::new() } else { vec![v] }));
        }
        match &mut self.0 {
            Repr::Big(limbs) => limbs,
            Repr::Small(_) => unreachable!("just moved into a limb vector"),
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &BigCount) {
        if let (Repr::Small(a), Repr::Small(b)) = (&mut self.0, &other.0) {
            match a.checked_add(*b) {
                Some(s) => *a = s,
                None => self.0 = Repr::Big(Box::new(vec![a.wrapping_add(*b), 1])),
            }
            return;
        }
        // One side is ≥ 2^64, so the sum is too: it stays `Big`.
        let b = other.limbs();
        let limbs = self.limbs_mut();
        if limbs.len() < b.len() {
            limbs.resize(b.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let add = b.get(i).copied().unwrap_or(0);
            if add == 0 && carry == 0 && i >= b.len() {
                break;
            }
            let (s1, c1) = limb.overflowing_add(add);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
    }

    /// `self += k` for a machine-word increment.
    pub fn add_u64(&mut self, k: u64) {
        self.add_assign(&BigCount(Repr::Small(k)));
    }

    /// Returns `self * other` (a `u128` product when both fit a word,
    /// schoolbook multiplication otherwise; multiplicity products across
    /// pattern hops are small in limb count).
    pub fn mul(&self, other: &BigCount) -> BigCount {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return BigCount::from(*a as u128 * *b as u128);
        }
        if self.is_zero() || other.is_zero() {
            return BigCount::zero();
        }
        let (a, b) = (self.limbs(), other.limbs());
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigCount::from_limbs(out)
    }

    /// `self *= k` for a machine-word factor.
    pub fn mul_u64(&mut self, k: u64) {
        match &mut self.0 {
            Repr::Small(a) => *self = BigCount::from(*a as u128 * k as u128),
            Repr::Big(_) if k == 0 => *self = BigCount::zero(),
            Repr::Big(limbs) => {
                // A nonzero factor keeps a value ≥ 2^64 there.
                let mut carry = 0u128;
                for limb in limbs.iter_mut() {
                    let cur = (*limb as u128) * (k as u128) + carry;
                    *limb = cur as u64;
                    carry = cur >> 64;
                }
                if carry != 0 {
                    limbs.push(carry as u64);
                }
            }
        }
    }

    /// Lossy conversion to `f64` (used for `μ·i` inputs to floating-point
    /// accumulators). Saturates to `f64::INFINITY` far beyond any
    /// realistic count.
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    /// Exact conversion to `u64` if the count fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big(_) => None,
        }
    }

    /// Exact conversion to `i64` if the count fits.
    pub fn to_i64(&self) -> Option<i64> {
        self.to_u64().and_then(|v| i64::try_from(v).ok())
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => 64 * (limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// `2^k`, the multiplicity of the k-diamond chain experiment.
    pub fn pow2(k: usize) -> BigCount {
        if k < 64 {
            return BigCount(Repr::Small(1u64 << k));
        }
        let mut limbs = vec![0u64; k / 64 + 1];
        limbs[k / 64] = 1u64 << (k % 64);
        BigCount(Repr::Big(Box::new(limbs)))
    }
}

impl From<u64> for BigCount {
    fn from(v: u64) -> Self {
        BigCount(Repr::Small(v))
    }
}

impl From<u128> for BigCount {
    fn from(v: u128) -> Self {
        let (lo, hi) = (v as u64, (v >> 64) as u64);
        if hi == 0 {
            BigCount(Repr::Small(lo))
        } else {
            BigCount(Repr::Big(Box::new(vec![lo, hi])))
        }
    }
}

impl PartialOrd for BigCount {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigCount {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return a.cmp(b);
        }
        let (a, b) = (self.limbs(), other.limbs());
        a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl fmt::Display for BigCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limbs = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Big(limbs) => limbs,
        };
        // Peel 19 decimal digits at a time.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut work = limbs.to_vec();
        let mut parts: Vec<u64> = Vec::new();
        while !work.is_empty() {
            parts.push(div_rem_u64(&mut work, CHUNK));
        }
        let mut it = parts.iter().rev();
        if let Some(first) = it.next() {
            write!(f, "{first}")?;
        }
        for p in it {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigCount({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_is_two_words() {
        // A binding-table row pays `size_of::<BigCount>()` for its
        // multiplicity, and bag byte estimates charge it per entry.
        assert_eq!(std::mem::size_of::<BigCount>(), 16);
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(matches!(BigCount::from(u64::MAX).0, Repr::Small(u64::MAX)));
        assert!(matches!(BigCount::from(7u128).0, Repr::Small(7)));
        assert!(matches!(BigCount::pow2(63).0, Repr::Small(_)));
        assert!(matches!(BigCount::pow2(64).0, Repr::Big(_)));
        let big = BigCount::pow2(64);
        let mut zero = big.mul(&BigCount::zero());
        assert!(matches!(zero.0, Repr::Small(0)));
        zero.add_u64(3);
        assert!(matches!(zero.0, Repr::Small(3)));
    }

    #[test]
    fn zero_and_one() {
        assert!(BigCount::zero().is_zero());
        assert!(BigCount::one().is_one());
        assert_eq!(BigCount::zero().to_string(), "0");
        assert_eq!(BigCount::one().to_string(), "1");
    }

    #[test]
    fn addition_with_carry() {
        let mut a = BigCount::from(u64::MAX);
        a.add_u64(1);
        assert_eq!(a.to_string(), "18446744073709551616");
        assert_eq!(a.bits(), 65);
    }

    #[test]
    fn add_assign_big() {
        let mut a = BigCount::pow2(100);
        let b = BigCount::pow2(100);
        a.add_assign(&b);
        assert_eq!(a, BigCount::pow2(101));
    }

    #[test]
    fn multiplication() {
        let a = BigCount::pow2(70);
        let b = BigCount::pow2(60);
        assert_eq!(a.mul(&b), BigCount::pow2(130));
        let mut c = BigCount::from(3u64);
        c.mul_u64(5);
        assert_eq!(c.to_u64(), Some(15));
    }

    #[test]
    fn mul_by_zero_clears() {
        let mut a = BigCount::pow2(200);
        a.mul_u64(0);
        assert!(a.is_zero());
        assert!(BigCount::pow2(3).mul(&BigCount::zero()).is_zero());
    }

    #[test]
    fn display_matches_known_powers() {
        assert_eq!(BigCount::pow2(10).to_string(), "1024");
        assert_eq!(BigCount::pow2(30).to_string(), "1073741824");
        assert_eq!(
            BigCount::pow2(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(BigCount::pow2(65) > BigCount::from(u64::MAX));
        assert!(BigCount::from(2u64) < BigCount::from(3u64));
        assert_eq!(BigCount::pow2(0), BigCount::one());
    }

    #[test]
    fn f64_conversion_is_close() {
        let v = BigCount::pow2(80);
        let expect = (2f64).powi(80);
        assert!((v.to_f64() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(BigCount::from(v).to_u64(), Some(v));
        }
        assert_eq!(BigCount::pow2(64).to_u64(), None);
    }
}
