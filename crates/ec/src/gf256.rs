//! Arithmetic in GF(2^8), the field the Reed–Solomon code works over.
//!
//! The field is GF(2)[x] modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the same polynomial QR codes and
//! most storage erasure codes use. Addition is XOR; multiplication goes
//! through compile-time exp/log tables of the generator `x` (= 2), and
//! [`mul`] is the definition every faster form is checked against.
//!
//! The bulk encode/reconstruct loops multiply whole shards by one
//! coefficient at a time, so they expand that coefficient into a table
//! once and then pay a lookup per byte. Two kernels do that:
//!
//! * the portable scalar kernel expands it into a 256-byte
//!   [`product_row`] and reads one entry per byte, eight targets per read;
//! * on x86-64 hosts with AVX2, a split-nibble kernel expands it into the
//!   two 16-entry [`nibble_tables`] and multiplies 32 bytes per `vpshufb`
//!   pair: `c · b = lo[b & 15] ^ hi[b >> 4]`, since multiplication by `c`
//!   is linear over XOR.
//!
//! Interpolation dispatches to the AVX2 kernel when the host has it and
//! keeps the scalar kernel for every other host and for tails shorter
//! than 32 bytes; the two agree bit for bit. The AVX2 kernel's private
//! module is the crate's one `unsafe` module (the crate root denies
//! `unsafe_code` everywhere else).

/// The exp table holds `2^i` for `i` in `0..255`, repeated twice so that
/// `exp[log(a) + log(b)]` never needs a modulo reduction.
const EXP: [u8; 512] = TABLES.0;
/// `LOG[v]` is the discrete log of `v` base 2; `LOG[0]` is unused filler.
const LOG: [u8; 256] = TABLES.1;

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

/// Field addition (and subtraction — the field has characteristic 2).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the log/exp tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let idx = LOG[a as usize] as usize + LOG[b as usize] as usize;
    EXP[idx]
}

/// The multiplication table row of `coeff`: `row[b] == mul(coeff, b)` for
/// every byte `b`. [`mul`] stays the definition (and the test oracle);
/// the row only hoists the log lookup and the zero branch out of the
/// per-byte loop.
pub fn product_row(coeff: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    for (b, slot) in row.iter_mut().enumerate() {
        *slot = mul(coeff, b as u8);
    }
    row
}

/// The split-nibble form of `coeff`'s products: `lo[i] == mul(coeff, i)`
/// and `hi[i] == mul(coeff, i << 4)` for `i` in `0..16`, so
/// `mul(coeff, b) == lo[b & 15] ^ hi[b >> 4]` for every byte `b`.
pub fn nibble_tables(coeff: u8) -> [[u8; 16]; 2] {
    let (mut lo, mut hi) = ([0u8; 16], [0u8; 16]);
    for (i, (l, h)) in (0u8..).zip(lo.iter_mut().zip(&mut hi)) {
        *l = mul(coeff, i);
        *h = mul(coeff, i << 4);
    }
    [lo, hi]
}

/// Multiplicative inverse. `inv(0)` is defined as 0 so the function is
/// total; callers divide only by provably nonzero denominators (Lagrange
/// denominators over distinct evaluation points).
#[inline]
pub fn inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    let idx = 255 - LOG[a as usize] as usize;
    EXP[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_multiplicative_identity() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn zero_annihilates() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn inverses_invert() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative_on_samples() {
        // Exhaustive associativity is 16M triples; a deterministic stride
        // covers the table structure just as well.
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(31) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributes_over_addition_on_samples() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn nibble_tables_equal_mul_for_all_65536_pairs() {
        for coeff in 0..=255u8 {
            let [lo, hi] = nibble_tables(coeff);
            for b in 0..=255u8 {
                let split = lo[usize::from(b & 15)] ^ hi[usize::from(b >> 4)];
                assert_eq!(split, mul(coeff, b), "{coeff} · {b}");
            }
        }
    }

    #[test]
    fn known_products() {
        // Hand-checked against the 0x11d tables.
        assert_eq!(mul(2, 2), 4);
        assert_eq!(mul(0x80, 2), 0x1d);
        assert_eq!(mul(0xff, 0xff), 0xe2);
    }
}
