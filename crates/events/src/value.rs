use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::schema::SymbolId;

/// A dynamically typed attribute value carried by an [`Event`](crate::Event).
///
/// Events in CEP systems are attribute–value records (paper §2.1). `Value`
/// keeps the common payload types used by the paper's algorithmic-trading
/// scenario (prices as `F64`, stock symbols as interned [`SymbolId`]s) plus
/// integers, booleans and strings for general queries.
///
/// # Comparison semantics
///
/// Values of the same variant compare by their payload. `F64` uses IEEE total
/// ordering via [`f64::total_cmp`], so `Value` implements [`Ord`] and can be
/// used in sorted containers. Cross-variant comparisons order by a fixed
/// variant rank; query predicates normally never rely on this (the query
/// compiler type-checks attribute references), but having a total order keeps
/// the type well behaved.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit float, e.g. a stock price.
    F64(f64),
    /// 64-bit signed integer, e.g. a traded volume.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Interned stock / entity symbol (see [`Schema::symbol`](crate::Schema::symbol)).
    Symbol(SymbolId),
    /// Shared immutable string payload. The handle is one word wide (an
    /// `Arc<str>` would be two), which keeps `Value` at 16 bytes.
    Str(Arc<String>),
}

impl Value {
    /// Returns the float payload, numerically widening `I64`.
    ///
    /// Returns `None` for non-numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the integer payload.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the symbol payload.
    pub fn as_symbol(&self) -> Option<SymbolId> {
        match self {
            Value::Symbol(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Rank used to order values of different variants.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::F64(_) => 0,
            Value::I64(_) => 1,
            Value::Bool(_) => 2,
            Value::Symbol(_) => 3,
            Value::Str(_) => 4,
        }
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

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (F64(a), F64(b)) => a.total_cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Symbol(a), Symbol(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Numeric cross-comparison: compare as floats so predicates may
            // mix integer and float literals.
            (F64(a), I64(b)) => a.total_cmp(&(*b as f64)),
            (I64(a), F64(b)) => (*a as f64).total_cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::F64(v) => v.to_bits().hash(state),
            Value::I64(v) => v.hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Symbol(v) => v.hash(state),
            Value::Str(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Symbol(v) => write!(f, "#{}", v.as_u32()),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<SymbolId> for Value {
    fn from(v: SymbolId) -> Self {
        Value::Symbol(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::new(v.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn numeric_accessors_widen_integers() {
        assert_eq!(Value::I64(4).as_f64(), Some(4.0));
        assert_eq!(Value::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), None);
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::I64(3) < Value::F64(3.5));
        assert!(Value::F64(4.0) > Value::I64(3));
        assert_eq!(Value::F64(3.0), Value::I64(3));
    }

    #[test]
    fn total_order_on_floats_handles_nan() {
        let nan = Value::F64(f64::NAN);
        // total_cmp puts NaN above +inf; the point is it must not panic and
        // must be self-consistent.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > Value::F64(f64::INFINITY));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
        assert_eq!(Value::Symbol(SymbolId::new(7)).to_string(), "#7");
        assert_eq!(Value::from("IBM").to_string(), "IBM");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(1.0_f64), Value::F64(1.0));
        assert_eq!(Value::from(1_i64), Value::I64(1));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x").as_str(), Some("x"));
    }

    #[test]
    fn hash_is_consistent_with_eq_for_same_variant() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::F64(2.0)), h(&Value::F64(2.0)));
        assert_eq!(h(&Value::from("abc")), h(&Value::from("abc")));
    }
}
