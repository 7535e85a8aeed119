//! FNV-1a 64 — the workspace's one hash primitive.
//!
//! Every layer that needs a deterministic, dependency-free hash uses this
//! one: the transport's frame checksum trailer and its keyed handshake
//! tags, the erasure coder's Merkle commitments, the replicated state's
//! hash chain and snapshot hash, the trace span ids and the static
//! analyzer's finding fingerprints.
//!
//! **Security note:** FNV is not collision-resistant, and keyed FNV is
//! not a MAC — an adversary who sees tagged traffic can forge it. It
//! marks where a cryptographic hash (BLAKE3, SHA-256) or a real
//! HMAC/SipHash-style authenticator plugs in, with the streaming shape a
//! real implementation would have. What it does cover is accidental
//! corruption and mis-wired clusters (wrong preshared key, wrong peer
//! set).
//!
//! Every function is `#[inline]`: the erasure coder hashes every shard
//! through it, and without link-time optimisation a call across crates
//! would otherwise never be inlined.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A hasher at the standard offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv64 { state: OFFSET }
    }

    /// A hasher that continues from an earlier digest, so a hash chain
    /// folds new bytes into the value it has already published.
    #[inline]
    pub const fn resume(digest: u64) -> Self {
        Fnv64 { state: digest }
    }

    /// Absorbs `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
        self
    }

    /// Absorbs a little-endian `u64`.
    #[inline]
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// The current digest.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv64::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_oneshot() {
        assert_eq!(Fnv64::new().update(b"foo").update(b"bar").finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let head = fnv1a64(b"foo");
        assert_eq!(Fnv64::resume(head).update(b"bar").finish(), fnv1a64(b"foobar"));
        assert_eq!(
            Fnv64::new().update_u64(7).finish(),
            fnv1a64(&7u64.to_le_bytes()),
            "words are absorbed little-endian"
        );
    }
}
