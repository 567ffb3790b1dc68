//! Cell values with a total order.
//!
//! AdaptDB partitioning trees store *cut points* (`A_p` nodes: "all records
//! with attribute A ≤ p go left"). That requires a total order over every
//! value type, including doubles — we use IEEE-754 `total_cmp` so NaNs have
//! a consistent position instead of poisoning comparisons.
//!
//! String cells are [`Str`]s, not `String`s. A `Str` of up to
//! [`Str::INLINE_CAP`] = 22 bytes keeps its bytes inside the value itself;
//! a longer one is a `Box<str>`. 22 is the most that fits beside a length
//! byte and the variant tag in 24 bytes, the size of a `String` — so
//! `Value` stays 24 bytes, and every TPC-H string column the generators
//! write (ship modes, instructions, flags, segments, brands, containers)
//! is built, cloned, decoded and dropped without touching the heap.
//! Everything observable about a `Str` — order, equality, hashes, byte
//! size, `Debug`/`Display` text — is exactly that of the same `String`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::error::{Error, Result};

/// An immutable UTF-8 string cell: inline up to [`Str::INLINE_CAP`]
/// bytes, boxed beyond.
///
/// Layout: the inline form is a length byte plus a 22-byte buffer, the
/// boxed form a `Box<str>` (pointer and length, 16 bytes); with the
/// variant tag both fit in 24 bytes, and the tag's unused values leave
/// room for [`Value`]'s own tag, so `size_of::<Value>()` is 24 — the
/// same as with a `String` payload. Which form a string takes depends
/// only on its length, and `Str` derefs to `str`: it orders, compares,
/// hashes and prints exactly like the `String` it replaces.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` holds the UTF-8 bytes; `len ≤ INLINE_CAP`.
    Inline { len: u8, buf: [u8; Str::INLINE_CAP] },
    /// Strings longer than `INLINE_CAP` bytes.
    Heap(Box<str>),
}

impl Str {
    /// Longest string, in bytes, stored inline.
    pub const INLINE_CAP: usize = 22;

    /// The string's contents.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: `buf[..len]` is a copy of a whole `&str` made in
                // `From<&str>` and never written afterwards, so it is valid
                // UTF-8.
                unsafe { std::str::from_utf8_unchecked(&buf[..*len as usize]) }
            }
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Str {
    #[inline]
    fn from(s: &str) -> Self {
        if s.len() <= Str::INLINE_CAP {
            let mut buf = [0u8; Str::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Str(Repr::Inline { len: s.len() as u8, buf })
        } else {
            Str(Repr::Heap(s.into()))
        }
    }
}

impl From<String> for Str {
    fn from(s: String) -> Self {
        if s.len() <= Str::INLINE_CAP {
            Str::from(s.as_str())
        } else {
            Str(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl Default for Str {
    fn default() -> Self {
        Str::from("")
    }
}

impl Deref for Str {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (also used for keys).
    Int,
    /// 64-bit float with total ordering.
    Double,
    /// UTF-8 string.
    Str,
    /// Date stored as days since epoch; kept distinct from `Int` so that
    /// generators and pretty-printers can treat it as a calendar value.
    Date,
    /// Boolean flag.
    Bool,
}

impl ValueType {
    /// The fixed cross-type ordering rank [`Value`]'s `Ord` uses when
    /// two values have different types. Public so the columnar and
    /// encoded-cell evaluators reproduce cross-type comparisons exactly.
    pub fn rank(self) -> u8 {
        match self {
            ValueType::Bool => 0,
            ValueType::Int => 1,
            ValueType::Date => 2,
            ValueType::Double => 3,
            ValueType::Str => 4,
        }
    }

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Int => "Int",
            ValueType::Double => "Double",
            ValueType::Str => "Str",
            ValueType::Date => "Date",
            ValueType::Bool => "Bool",
        }
    }
}

/// A dynamically-typed cell value.
///
/// `Value` implements [`Ord`]: values of the same type compare naturally
/// (doubles via `total_cmp`), and values of different types compare by a
/// fixed type rank. Cross-type comparisons never occur in well-typed
/// plans; the rank exists so `Value` can be used in ordered collections.
#[derive(Debug, Clone)]
pub enum Value {
    /// See [`ValueType::Int`].
    Int(i64),
    /// See [`ValueType::Double`].
    Double(f64),
    /// See [`ValueType::Str`].
    Str(Str),
    /// See [`ValueType::Date`].
    Date(i32),
    /// See [`ValueType::Bool`].
    Bool(bool),
}

// Equality must agree with `Ord` (total_cmp for doubles) and with `Hash`
// (bit-based for doubles). A derived PartialEq would use f64::eq, making
// NaN != NaN (breaking Eq reflexivity and codec round-trips) and
// 0.0 == -0.0 (breaking the Hash/Eq contract the join hash tables need).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

// A `Str` payload must not make cells bigger than the `String` it
// replaced: rows are `Vec<Value>`, so every byte here is paid per cell.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Double(_) => ValueType::Double,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Extract an `i64`, failing on other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::TypeMismatch { expected: "Int", got: other.value_type().name() }),
        }
    }

    /// Extract an `f64`, coercing ints and dates (useful for aggregation).
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Date(v) => Ok(*v as f64),
            other => {
                Err(Error::TypeMismatch { expected: "Double", got: other.value_type().name() })
            }
        }
    }

    /// Extract a string slice, failing on other types.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(Error::TypeMismatch { expected: "Str", got: other.value_type().name() }),
        }
    }

    /// Approximate in-memory size in bytes, used by the storage layer to
    /// decide when a block is "full" (the paper's `B` bytes per block).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Double(_) => 8,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() + 4,
        }
    }

    /// A stable 64-bit hash used for shuffle partitioning. We roll our own
    /// (FNV-1a) instead of `DefaultHasher` so shuffle assignment is stable
    /// across runs and Rust versions — experiments must be reproducible.
    pub fn stable_hash(&self) -> u64 {
        self.key().stable_hash()
    }

    /// This value as a join key ([`KeyRef`]), borrowing its string.
    #[inline]
    pub fn key(&self) -> KeyRef<'_> {
        match self {
            Value::Int(v) => KeyRef::Int(*v),
            Value::Double(v) => KeyRef::Double(v.to_bits()),
            Value::Str(s) => KeyRef::Str(s.as_bytes()),
            Value::Date(v) => KeyRef::Date(*v),
            Value::Bool(v) => KeyRef::Bool(*v),
        }
    }

    pub(crate) fn type_rank(&self) -> u8 {
        self.value_type().rank()
    }
}

/// A cell as a join key, borrowed from a [`Value`] ([`Value::key`]) or
/// read where it lies in an encoded block: no value is built, and a
/// `Str` key is its UTF-8 bytes. Two keys are equal exactly when the
/// values they stand for are — a `Double` by its bits, as
/// `Value`'s `total_cmp` equality has it, and keys of different types
/// never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRef<'a> {
    /// An `Int` cell.
    Int(i64),
    /// A `Double` cell's bits.
    Double(u64),
    /// A `Str` cell's UTF-8 bytes.
    Str(&'a [u8]),
    /// A `Date` cell.
    Date(i32),
    /// A `Bool` cell.
    Bool(bool),
}

impl KeyRef<'_> {
    /// [`Value::stable_hash`] of the value this key stands for.
    #[inline]
    pub fn stable_hash(self) -> u64 {
        match self {
            KeyRef::Int(v) => stable_hash_bytes(ValueType::Int, &v.to_le_bytes()),
            KeyRef::Double(bits) => stable_hash_bytes(ValueType::Double, &bits.to_le_bytes()),
            KeyRef::Str(s) => stable_hash_bytes(ValueType::Str, s),
            KeyRef::Date(v) => stable_hash_bytes(ValueType::Date, &v.to_le_bytes()),
            KeyRef::Bool(v) => stable_hash_bytes(ValueType::Bool, &[v as u8]),
        }
    }
}

/// [`Value::stable_hash`] of a value of type `ty` given by its
/// canonical bytes: an `Int`'s `i64`, a `Double`'s bits or a `Date`'s
/// `i32`, each little-endian, a `Str`'s UTF-8 bytes, or a `Bool` as one
/// byte `0`/`1`. Hashing encoded cells this way builds no value.
#[inline]
pub fn stable_hash_bytes(ty: ValueType, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let seed = match ty {
        ValueType::Int => 1,
        ValueType::Double => 2,
        ValueType::Str => 3,
        ValueType::Date => 4,
        ValueType::Bool => 5,
    };
    let mut h = OFFSET ^ seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Cross-type: compare by rank; Int/Date/Double additionally
            // compare numerically when ranks collide is not possible, so a
            // plain rank order keeps Ord lawful.
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.stable_hash());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "d{d}"),
            Value::Bool(b) => write!(f, "{b}"),
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
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_type_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Double(1.5) < Value::Double(2.5));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Date(10) < Value::Date(20));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        let one = Value::Double(1.0);
        // total_cmp puts +NaN above +inf; the point is consistency.
        assert_eq!(nan.cmp(&one), Ordering::Greater);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Int(7).as_double().unwrap(), 7.0);
        assert_eq!(Value::Str("hi".into()).as_str().unwrap(), "hi");
    }

    #[test]
    fn stable_hash_differs_between_types_with_same_bits() {
        // Int(1) and Bool(true) and Date(1) must not collide by construction.
        let h1 = Value::Int(1).stable_hash();
        let h2 = Value::Date(1).stable_hash();
        let h3 = Value::Bool(true).stable_hash();
        assert_ne!(h1, h2);
        assert_ne!(h2, h3);
    }

    /// Keys are equal exactly when their values are, and hash alike.
    #[test]
    fn keys_compare_and_hash_like_their_values() {
        let values = [
            Value::Int(1),
            Value::Int(-1),
            Value::Date(1),
            Value::Bool(true),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(1.0),
            Value::Str("".into()),
            Value::Str("a string longer than twenty-two bytes".into()),
            Value::Str("h\u{e9}".into()),
        ];
        for a in &values {
            assert_eq!(a.key().stable_hash(), a.stable_hash(), "{a:?}");
            for b in &values {
                assert_eq!(a.key() == b.key(), a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(
            Value::Str("lineitem".into()).stable_hash(),
            Value::Str("lineitem".into()).stable_hash()
        );
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abc".into()).byte_size(), 7);
        assert_eq!(Value::Bool(true).byte_size(), 1);
    }

    #[test]
    fn display_round_trip_smoke() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Date(3).to_string(), "d3");
    }
}
