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
//!
//! One FNV-1a chain is latency-bound: each byte waits for the multiply of
//! the byte before it. [`update_x4`] advances four independent chains in
//! one loop, so the multiplies of different lanes overlap; each lane ends
//! bit-identical to its own [`Fnv64::update`]. The erasure coder's leaves
//! (`bft_ec::merkle::leaf_hashes`) go through it. It is also the seam for
//! the real hash of ROADMAP item 5: a cryptographic hash with a
//! multi-buffer mode replaces this one call, and its callers already hand
//! it their shards four at a time.

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

/// Advances four independent chains at once: afterwards `lanes[i]` is
/// exactly what `lanes[i].update(bytes[i])` would have left, for any
/// lengths. The common prefix of the four inputs runs interleaved in one
/// loop; an unequal tail finishes on its own lane.
#[inline]
pub fn update_x4(lanes: &mut [Fnv64; 4], bytes: [&[u8]; 4]) {
    let [h0, h1, h2, h3] = lanes;
    let [b0, b1, b2, b3] = bytes;
    let (mut s0, mut s1, mut s2, mut s3) = (h0.state, h1.state, h2.state, h3.state);
    let zipped = b0.iter().zip(b1).zip(b2).zip(b3);
    let common = zipped.len();
    for (((&x0, &x1), &x2), &x3) in zipped {
        s0 = (s0 ^ u64::from(x0)).wrapping_mul(PRIME);
        s1 = (s1 ^ u64::from(x1)).wrapping_mul(PRIME);
        s2 = (s2 ^ u64::from(x2)).wrapping_mul(PRIME);
        s3 = (s3 ^ u64::from(x3)).wrapping_mul(PRIME);
    }
    for (h, (state, b)) in
        [h0, h1, h2, h3].into_iter().zip([(s0, b0), (s1, b1), (s2, b2), (s3, b3)])
    {
        h.state = state;
        h.update(b.get(common..).unwrap_or_default());
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
    use proptest::prelude::*;

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

    #[test]
    fn four_lanes_of_known_vectors() {
        let mut lanes = [Fnv64::new(); 4];
        update_x4(&mut lanes, [b"", b"a", b"foobar", b"foo"]);
        assert_eq!(
            lanes.map(|h| h.finish()),
            [fnv1a64(b""), fnv1a64(b"a"), fnv1a64(b"foobar"), fnv1a64(b"foo")]
        );
    }

    proptest! {
        /// Each lane of the interleaved loop is its own serial chain, from
        /// any starting state, over equal, unequal and empty inputs.
        #[test]
        fn four_lanes_equal_four_serial_chains(
            states in proptest::collection::vec(0u64..u64::MAX, 4),
            bytes in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..70), 4),
            equal in proptest::bool::ANY,
        ) {
            let mut inputs: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
            if equal {
                // Cut every input to the shortest: the all-interleaved case.
                let min = inputs.iter().map(|b| b.len()).min().unwrap_or(0);
                for b in &mut inputs {
                    *b = &b[..min];
                }
            }
            let [a, b, c, d] = [inputs[0], inputs[1], inputs[2], inputs[3]];
            let mut lanes = [states[0], states[1], states[2], states[3]].map(Fnv64::resume);
            update_x4(&mut lanes, [a, b, c, d]);
            for (i, (lane, input)) in lanes.iter().zip([a, b, c, d]).enumerate() {
                let serial = Fnv64::resume(states[i]).update(input).finish();
                prop_assert_eq!(lane.finish(), serial, "lane {} of {:?}", i, (states.clone(), equal));
            }
        }
    }
}
