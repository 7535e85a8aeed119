//! Binary consensus values.

use std::fmt;
use std::ops::Not;

/// A binary consensus value, `0` or `1`.
///
/// Bracha's consensus protocol (like Ben-Or's) is a *binary* Byzantine
/// agreement protocol; multi-value consensus is layered on top (the first
/// entry of a one-epoch `bft_order::OrderProcess` log). Using a dedicated
/// enum instead of `bool` keeps protocol code legible and prevents
/// accidental boolean logic on consensus values (C-CUSTOM-TYPE).
///
/// # Example
///
/// ```
/// use bft_types::Value;
///
/// let v = Value::One;
/// assert_eq!(!v, Value::Zero);
/// assert_eq!(Value::from_bit(1), Value::One);
/// assert_eq!(Value::Zero.bit(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The value `0`.
    Zero,
    /// The value `1`.
    One,
}

impl Value {
    /// Both values, in ascending order. Useful for iterating over the
    /// binary domain in validation predicates.
    pub const BOTH: [Value; 2] = [Value::Zero, Value::One];

    /// Returns the opposite value.
    ///
    /// # Example
    ///
    /// ```
    /// use bft_types::Value;
    /// assert_eq!(Value::Zero.flipped(), Value::One);
    /// ```
    pub const fn flipped(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
        }
    }

    /// Converts a bit (`0` or `1`) into a value. Any non-zero bit maps to
    /// [`Value::One`].
    pub const fn from_bit(bit: u8) -> Value {
        if bit == 0 {
            Value::Zero
        } else {
            Value::One
        }
    }

    /// Converts a boolean into a value (`true` ⇒ [`Value::One`]).
    pub const fn from_bool(b: bool) -> Value {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// Returns this value as a bit, `0` or `1`.
    pub const fn bit(self) -> u8 {
        match self {
            Value::Zero => 0,
            Value::One => 1,
        }
    }

    /// Returns this value as an index, `0` or `1`. Convenient for
    /// per-value count arrays: `counts[v.index()]`.
    pub const fn index(self) -> usize {
        self.bit() as usize
    }
}

impl Not for Value {
    type Output = Value;

    fn not(self) -> Value {
        self.flipped()
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::from_bool(b)
    }
}

impl From<Value> for bool {
    fn from(v: Value) -> bool {
        v == Value::One
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bit())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        for v in Value::BOTH {
            assert_eq!(v.flipped().flipped(), v);
            assert_eq!(!!v, v);
            assert_ne!(!v, v);
        }
    }

    #[test]
    fn bit_round_trip() {
        assert_eq!(Value::from_bit(0), Value::Zero);
        assert_eq!(Value::from_bit(1), Value::One);
        assert_eq!(Value::from_bit(7), Value::One);
        for v in Value::BOTH {
            assert_eq!(Value::from_bit(v.bit()), v);
        }
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Value::from(true), Value::One);
        assert_eq!(Value::from(false), Value::Zero);
        assert!(bool::from(Value::One));
        assert!(!bool::from(Value::Zero));
    }

    #[test]
    fn index_is_bit() {
        assert_eq!(Value::Zero.index(), 0);
        assert_eq!(Value::One.index(), 1);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Value::Zero < Value::One);
    }

    #[test]
    fn display_is_the_bit() {
        assert_eq!(Value::Zero.to_string(), "0");
        assert_eq!(Value::One.to_string(), "1");
    }
}
