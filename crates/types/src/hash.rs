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
//! **Serial and striped.** One FNV-1a chain is latency-bound: each byte
//! waits for the multiply of the byte before it (≈ 1.5 ns/B on x86-64).
//! So there are two hashers over the one primitive:
//!
//! - [`Fnv64`] is the plain serial chain. Small inputs stay on it: the
//!   frame checksum and the handshake tags (their values are wire bytes
//!   and must not change), Merkle inner nodes, span ids and fingerprints.
//!   At 64 B the striped hasher's fixed finish costs more than its lanes
//!   win.
//! - [`Fnv64x4`] stripes one byte stream over four FNV-1a chains (byte
//!   `i` to lane `i % 4`), so the multiplies of different lanes overlap,
//!   and folds the four lanes and the length into one digest. Every bulk
//!   hash goes through it: Merkle leaves (`bft_ec::merkle::leaf_hash`),
//!   each transaction folded into the replicated state's hash chain, and
//!   the state's snapshot digest. Its digest does not depend on how the
//!   stream is cut into [`Fnv64x4::update`] calls, so a streamed state
//!   digest equals the hash of the collected bytes.
//!
//! [`Fnv64x4`] is also the seam for the real hash of ROADMAP item 5: a
//! cryptographic hash with a wide or multi-lane mode replaces its kernel,
//! and none of its callers change.

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

/// A streaming FNV-1a 64 hasher striped over four lanes, for bulk bytes.
///
/// The byte at stream offset `i` goes to lane `i % 4`, and each lane is a
/// plain FNV-1a chain from the standard offset basis. The digest is
/// FNV-1a over the four lane states (little-endian, lane 0 first) and the
/// stream length, so it depends only on the bytes, never on where the
/// stream was cut into [`update`](Self::update) calls. It is not the
/// serial FNV-1a of the same bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64x4 {
    lanes: [u64; 4],
    len: u64,
}

impl Fnv64x4 {
    /// A hasher over the empty stream.
    #[inline]
    pub const fn new() -> Self {
        Fnv64x4 { lanes: [OFFSET; 4], len: 0 }
    }

    /// Absorbs `bytes` at the current stream offset. Bytes up to the next
    /// lane-0 offset go to their lanes one at a time; the rest runs four
    /// bytes per step, one to each lane.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut rest = bytes;
        while !self.len.is_multiple_of(4) {
            let Some((&b, tail)) = rest.split_first() else { return self };
            self.absorb(b);
            rest = tail;
        }
        let (words, tail) = rest.as_chunks::<4>();
        let [mut s0, mut s1, mut s2, mut s3] = self.lanes;
        for &[b0, b1, b2, b3] in words {
            s0 = (s0 ^ u64::from(b0)).wrapping_mul(PRIME);
            s1 = (s1 ^ u64::from(b1)).wrapping_mul(PRIME);
            s2 = (s2 ^ u64::from(b2)).wrapping_mul(PRIME);
            s3 = (s3 ^ u64::from(b3)).wrapping_mul(PRIME);
        }
        self.lanes = [s0, s1, s2, s3];
        self.len += 4 * words.len() as u64;
        for &b in tail {
            self.absorb(b);
        }
        self
    }

    /// Absorbs one byte into the lane its stream offset names.
    #[inline]
    fn absorb(&mut self, b: u8) {
        let [s0, s1, s2, s3] = &mut self.lanes;
        let lane = match self.len % 4 {
            0 => s0,
            1 => s1,
            2 => s2,
            _ => s3,
        };
        *lane = (*lane ^ u64::from(b)).wrapping_mul(PRIME);
        self.len += 1;
    }

    /// The digest of the stream so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut h = Fnv64::new();
        for lane in self.lanes {
            h.update_u64(lane);
        }
        h.update_u64(self.len).finish()
    }
}

impl Default for Fnv64x4 {
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

    /// The striped definition, one byte at a time and without
    /// [`Fnv64x4`]: lane `i % 4` takes byte `i`, then one serial chain
    /// folds the four lanes and the length.
    fn striped(bytes: &[u8]) -> u64 {
        fn chain(mut state: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            state
        }
        let basis = 0xcbf2_9ce4_8422_2325;
        let mut lanes = [basis; 4];
        for (i, &b) in bytes.iter().enumerate() {
            lanes[i % 4] = chain(lanes[i % 4], &[b]);
        }
        let folded = lanes.iter().fold(basis, |h, lane| chain(h, &lane.to_le_bytes()));
        chain(folded, &(bytes.len() as u64).to_le_bytes())
    }

    fn one_shot(bytes: &[u8]) -> u64 {
        Fnv64x4::new().update(bytes).finish()
    }

    #[test]
    fn striped_known_vectors() {
        let counting: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        let vectors: [(&[u8], u64); 4] = [
            (b"", 0x9f45_5a3c_21ea_74c5),
            (b"a", 0x12b3_068d_d5da_d290),
            (b"foobar", 0x11ac_95db_90c9_ce72),
            (&counting, 0x9bf2_fb23_d573_f18f),
        ];
        for (bytes, digest) in vectors {
            assert_eq!(striped(bytes), digest, "transliteration of {} B", bytes.len());
            assert_eq!(one_shot(bytes), digest, "{} B", bytes.len());
        }
        for len in (0..=9).chain([63, 64, 65, 1000]) {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(one_shot(&bytes), striped(&bytes), "{len} B");
        }
        assert_ne!(one_shot(b"foobar"), fnv1a64(b"foobar"), "striped is its own function");
    }

    proptest! {
        /// Cutting the stream anywhere — mid-lane, empty pieces, one byte
        /// at a time — leaves the digest unchanged.
        #[test]
        fn striped_digest_ignores_where_the_stream_is_cut(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Fnv64x4::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&bytes.len()]) {
                h.update(&bytes[from..to]);
                from = to;
            }
            prop_assert_eq!(h.finish(), striped(&bytes), "cut at {:?}", cuts);
            let mut bytewise = Fnv64x4::new();
            for b in &bytes {
                bytewise.update(std::slice::from_ref(b));
            }
            prop_assert_eq!(bytewise.finish(), striped(&bytes));
        }
    }
}
