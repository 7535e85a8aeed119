//! Systematic Reed–Solomon erasure coding with fragment commitments, for
//! erasure-coded reliable broadcast (AVID-style).
//!
//! Bracha's broadcast re-echoes the full payload from every node, so a
//! B-byte payload costs O(n²·B) on the wire. The coded variant splits the
//! payload into `k = n − 2f` data shards, extends them to `n` fragments of
//! a Reed–Solomon codeword, and lets each node echo only *its own*
//! fragment — O(n·B/k) per broadcast step, O(n·B) overall. Any `k`
//! fragments reconstruct the payload, and `n − f` honest echoes always
//! contain at least `n − 2f = k` of them.
//!
//! A Byzantine sender could hand out fragments of *different* payloads; the
//! [`merkle`] commitment pins it down. The sender builds a Merkle tree over
//! the `n` fragment hashes and binds the root together with the payload
//! length and the `(n, k)` geometry into a single [`Commitment`] that
//! travels with every message. Receivers [`verify`] a fragment's inclusion
//! proof before counting it, and [`reconstruct`] re-encodes the decoded
//! payload and recomputes the commitment: if the sender committed to
//! anything other than a valid codeword, the check fails for **every**
//! `k`-subset of committed fragments (a subset that re-encodes to the
//! committed leaves *is* a codeword), so correct nodes agree on
//! success-with-identical-bytes or uniform failure — never a split.
//!
//! Encode and decode spend their time interpolating shards over
//! [`gf256`]. Two kernels do it, with bit-identical output: on x86-64
//! hosts where `is_x86_feature_detected!("avx2")` holds, a split-nibble
//! AVX2 kernel covers every whole 32-byte chunk; every other host, and
//! every tail shorter than 32 bytes, takes the portable 8-lane scalar
//! kernel, which is also the AVX2 kernel's test oracle. The AVX2 kernel
//! lives in the crate's one private `unsafe` module; the crate root
//! denies `unsafe_code` everywhere else. A fragment's shard is one shared
//! buffer ([`Fragment::shard`]): cloning a fragment copies no shard byte.
//!
//! The crate is deterministic and depends only on `bft-types`, whose
//! workspace-wide placeholder FNV-1a it uses (see [`bft_types::hash`] for
//! the caveat).

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;
pub mod gf256;
pub mod merkle;

use bft_types::hash::Fnv64;
use bft_types::wire::{put_u16, put_u32, put_u64, Codec, DecodeError, Reader, MAX_PAYLOAD};
use std::fmt;
use std::sync::Arc;

/// One erasure-coded fragment of a payload, as handed to (and echoed by)
/// one node.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fragment {
    /// Which of the `n` codeword positions this fragment holds.
    pub index: u16,
    /// Byte length of the original payload (shards are zero-padded).
    pub total_len: u32,
    /// This position's shard: `shard_len(total_len, k)` code bytes, in one
    /// shared allocation, so a clone of the fragment (into a verified
    /// fragment, an echo or a held echo) copies none of them.
    pub shard: Arc<[u8]>,
    /// Merkle inclusion proof of `(index, shard)` under the commitment.
    pub proof: Vec<u64>,
}

impl Fragment {
    /// Wire/heap footprint estimate: shard bytes plus proof words.
    pub fn weight(&self) -> usize {
        self.shard.len() + self.proof.len() * 8
    }
}

/// Erasure-coded fragments: index, original payload length, the shard
/// bytes (length-prefixed) and the Merkle commitment path (count-prefixed
/// `u64`s). The path count is capped well above any real tree depth
/// (`log₂ 256 = 8` for the maximum supported `n`) so a hostile length
/// prefix cannot drive a large allocation.
impl Codec for Fragment {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, self.index);
        put_u32(out, self.total_len);
        put_u32(out, self.shard.len() as u32);
        out.extend_from_slice(&self.shard);
        put_u16(out, self.proof.len() as u16);
        for hash in &self.proof {
            put_u64(out, *hash);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let index = r.u16()?;
        let total_len = r.u32()?;
        let shard_len = r.u32()? as usize;
        if shard_len > MAX_PAYLOAD as usize {
            return Err(DecodeError::Oversize(shard_len as u32));
        }
        let shard = Arc::from(r.take(shard_len)?);
        let proof_len = r.u16()? as usize;
        if proof_len > 64 {
            return Err(DecodeError::Invalid {
                what: "fragment proof length",
                got: proof_len as u64,
            });
        }
        let mut proof = Vec::with_capacity(proof_len);
        for _ in 0..proof_len {
            proof.push(r.u64()?);
        }
        Ok(Fragment { index, total_len, shard, proof })
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frag#{}({}B of {})", self.index, self.shard.len(), self.total_len)
    }
}

/// The sender's output: the commitment root plus all `n` fragments,
/// fragment `i` destined for node `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coded {
    /// Commitment binding the fragment set, payload length and geometry.
    pub root: u64,
    /// All `n` fragments, in index order.
    pub fragments: Vec<Fragment>,
}

/// Upper bound on the payload length a fragment may claim, aligned with
/// the net-layer frame cap. `total_len` arrives from the wire, and
/// reconstruction sizes shard interpolation and the output buffer from
/// it — an unchecked claim is a Byzantine memory-exhaustion vector.
pub const MAX_TOTAL_LEN: u32 = 1 << 20;

/// A typed erasure-coding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcError {
    /// The `(n, k)` geometry is unusable: need `1 ≤ k ≤ n ≤ 255`.
    BadGeometry {
        /// Total number of fragments requested.
        n: usize,
        /// Data shards (reconstruction threshold) requested.
        k: usize,
    },
    /// The payload exceeds the `u32` length the commitment binds.
    PayloadTooLarge {
        /// Actual payload length.
        len: usize,
    },
    /// Fewer than `k` usable fragments were supplied.
    NotEnoughFragments {
        /// Distinct usable fragments seen.
        have: usize,
        /// Fragments required (`k`).
        need: usize,
    },
    /// Supplied fragments disagree on geometry (lengths, duplicate or
    /// out-of-range indices) — they cannot all belong to one commitment.
    InconsistentFragments,
    /// The decoded payload re-encodes to a different commitment: the
    /// sender committed to a non-codeword. Uniform across all subsets.
    RootMismatch,
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::BadGeometry { n, k } => {
                write!(f, "unusable erasure geometry n={n} k={k} (need 1 <= k <= n <= 255)")
            }
            EcError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds the u32 commitment bound")
            }
            EcError::NotEnoughFragments { have, need } => {
                write!(f, "{have} usable fragments but reconstruction needs {need}")
            }
            EcError::InconsistentFragments => {
                write!(f, "fragments disagree on index/length geometry")
            }
            EcError::RootMismatch => {
                write!(f, "decoded payload does not re-encode to the committed root")
            }
        }
    }
}

impl std::error::Error for EcError {}

/// Shard length for a payload of `total_len` bytes split `k` ways: the
/// ceiling division, with a 1-byte floor so the empty payload still has a
/// well-defined (all-zero) codeword.
pub fn shard_len(total_len: usize, k: usize) -> usize {
    if k == 0 {
        return 0;
    }
    (total_len.div_ceil(k)).max(1)
}

fn check_geometry(n: usize, k: usize) -> Result<(), EcError> {
    if k == 0 || k > n || n > 255 {
        return Err(EcError::BadGeometry { n, k });
    }
    Ok(())
}

/// Lagrange basis coefficients: evaluating the unique degree `< xs.len()`
/// polynomial through points `xs` at `x` is the dot product of these
/// coefficients with the values at `xs`. Points must be distinct.
fn lagrange_coeffs(xs: &[u8], x: u8) -> Vec<u8> {
    xs.iter()
        .enumerate()
        .map(|(i, &xi)| {
            let mut num = 1u8;
            let mut den = 1u8;
            for (j, &xj) in xs.iter().enumerate() {
                if j != i {
                    num = gf256::mul(num, gf256::add(x, xj));
                    den = gf256::mul(den, gf256::add(xi, xj));
                }
            }
            gf256::mul(num, gf256::inv(den))
        })
        .collect()
}

/// Positions each pass over the sources covers: small enough that the
/// block being accumulated stays in L1 while every source streams past it.
const BLOCK: usize = 512;

/// Outputs evaluated per pass: one byte lane of a `u64` each.
const LANES: usize = 8;

/// Evaluates the interpolation of (`xs`, `shards`) at every point of
/// `targets`, byte-wise, into the matching buffer of `outs`. Every shard
/// must be at least as long as the outputs (callers validate the geometry
/// first).
///
/// On x86-64 the AVX2 kernel covers the whole 32-byte chunks when the host
/// has it; the scalar kernel ([`interpolate_scalar`]) covers the rest —
/// everything, on any other host.
fn interpolate_into(xs: &[u8], shards: &[&[u8]], targets: &[u8], outs: &mut [&mut [u8]]) {
    #[cfg(target_arch = "x86_64")]
    let done = {
        let coeffs: Vec<Vec<u8>> = targets.iter().map(|&x| lagrange_coeffs(xs, x)).collect();
        avx2::interpolate(&coeffs, shards, outs)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    let shards: Vec<&[u8]> = shards.iter().map(|s| s.get(done..).unwrap_or(&[])).collect();
    let mut outs: Vec<&mut [u8]> =
        outs.iter_mut().map(|o| o.get_mut(done..).unwrap_or(&mut [])).collect();
    interpolate_scalar(xs, &shards, targets, &mut outs);
}

/// The portable kernel behind [`interpolate_into`], with the same contract.
///
/// A byte of source `j` contributes `coeff(t, j) · byte` to every target
/// `t`. The 256-byte product rows of up to [`LANES`] targets' coefficients
/// are packed side by side into one row of `u64`s per source, so one
/// table read multiplies a source byte for all of those targets at once:
/// the per-byte work is `acc[i] ^= row[src[i]]`, then one shift per
/// target to unpack.
fn interpolate_scalar(xs: &[u8], shards: &[&[u8]], targets: &[u8], outs: &mut [&mut [u8]]) {
    for (targets, outs) in targets.chunks(LANES).zip(outs.chunks_mut(LANES)) {
        let mut rows = vec![[0u64; 256]; shards.len()];
        for (lane, &x) in targets.iter().enumerate() {
            for (row, &coeff) in rows.iter_mut().zip(&lagrange_coeffs(xs, x)) {
                for (wide, &product) in row.iter_mut().zip(&gf256::product_row(coeff)) {
                    *wide |= u64::from(product) << (8 * lane);
                }
            }
        }
        let len = outs.first().map_or(0, |out| out.len());
        let mut acc = [0u64; BLOCK];
        for start in (0..len).step_by(BLOCK) {
            let acc = &mut acc[..BLOCK.min(len - start)];
            acc.fill(0);
            for (row, shard) in rows.iter().zip(shards) {
                let src = shard.get(start..start + acc.len()).unwrap_or(&[]);
                for (a, &b) in acc.iter_mut().zip(src) {
                    *a ^= row[b as usize];
                }
            }
            for (lane, out) in outs.iter_mut().enumerate() {
                let out = out.get_mut(start..start + acc.len()).unwrap_or(&mut []);
                for (o, &a) in out.iter_mut().zip(acc.iter()) {
                    *o = (a >> (8 * lane)) as u8;
                }
            }
        }
    }
}

/// Binds the Merkle root over the fragment leaves together with the
/// payload length and the `(n, k)` geometry. Every fragment verified
/// against one commitment therefore carries the same `total_len`, the same
/// shard length, and the same code — the precondition for reconstruction
/// to be subset-independent.
fn commitment(leaves_root: u64, total_len: u32, n: usize, k: usize) -> u64 {
    let mut h = Fnv64::new();
    h.update(b"ec-commit")
        .update_u64(leaves_root)
        .update_u64(u64::from(total_len))
        .update(&[n as u8, k as u8]);
    h.finish()
}

/// Encodes `payload` into `n` committed fragments, any `k` of which
/// reconstruct it.
pub fn encode(payload: &[u8], n: usize, k: usize) -> Result<Coded, EcError> {
    check_geometry(n, k)?;
    let total_len = u32::try_from(payload.len())
        .map_err(|_| EcError::PayloadTooLarge { len: payload.len() })?;
    let len = shard_len(payload.len(), k);
    // Each shard is built in the buffer its fragment will own: a whole
    // payload chunk is copied in once; a padded chunk and every parity
    // shard start out zeroed.
    let zeroed = || -> Arc<[u8]> { std::iter::repeat_n(0, len).collect() };
    let mut shards: Vec<Arc<[u8]>> = payload
        .chunks(len)
        .chain(std::iter::repeat(&[][..]))
        .take(k)
        .map(|chunk| {
            if chunk.len() == len {
                return Arc::from(chunk);
            }
            let mut shard = zeroed();
            Arc::make_mut(&mut shard)[..chunk.len()].copy_from_slice(chunk);
            shard
        })
        .collect();
    // Parity positions `k..n` evaluated from the data at positions `0..k`.
    let xs: Vec<u8> = (0..k as u8).collect();
    let targets: Vec<u8> = (k..n).map(|x| x as u8).collect();
    let mut parity: Vec<Arc<[u8]>> = targets.iter().map(|_| zeroed()).collect();
    interpolate_into(
        &xs,
        &shards.iter().map(|s| &s[..]).collect::<Vec<_>>(),
        &targets,
        &mut parity.iter_mut().map(Arc::make_mut).collect::<Vec<_>>(),
    );
    shards.extend(parity);
    let leaves: Vec<u64> = (0u16..).zip(&shards).map(|(i, s)| merkle::leaf_hash(i, s)).collect();
    let leaves_root = merkle::root(&leaves);
    let root = commitment(leaves_root, total_len, n, k);
    let fragments = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| Fragment {
            index: i as u16,
            total_len,
            shard,
            proof: merkle::proof(&leaves, i),
        })
        .collect();
    Ok(Coded { root, fragments })
}

/// The one fragment check: geometry, shard length, and Merkle inclusion.
/// Returns the fragment's leaf hash — the only pass over the shard bytes
/// — when the fragment is exactly what the sender committed for its index.
/// A fragment of the wrong shape is rejected before any byte is hashed.
fn verified_leaf(root: u64, n: usize, k: usize, frag: &Fragment) -> Option<u64> {
    let well_formed = check_geometry(n, k).is_ok()
        && (frag.index as usize) < n
        && frag.shard.len() == shard_len(frag.total_len as usize, k)
        && frag.proof.len() == merkle::depth(n);
    if !well_formed {
        return None;
    }
    let leaf = merkle::leaf_hash(frag.index, &frag.shard);
    // The proof authenticates the leaf under the root it folds to.
    let leaves_root = merkle::fold(frag.index as usize, leaf, &frag.proof);
    (commitment(leaves_root, frag.total_len, n, k) == root).then_some(leaf)
}

/// Checks a fragment against a commitment: geometry, shard length, and
/// Merkle inclusion. A fragment that passes is exactly what the sender
/// committed for that index.
pub fn verify(root: u64, n: usize, k: usize, frag: &Fragment) -> bool {
    verified_leaf(root, n, k, frag).is_some()
}

/// A fragment that passed [`verify`], kept together with the leaf hash
/// verification computed over its shard, so that reconstruction
/// ([`reconstruct_verified`]) need not hash the same bytes again.
///
/// Both fields are private and [`VerifiedFragment::check`] and
/// [`VerifiedFragment::check_many`] are the only constructors: the stored
/// leaf is always the hash of the stored bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedFragment {
    fragment: Fragment,
    leaf: u64,
}

impl VerifiedFragment {
    /// [`verify`]s `frag` against a commitment and, if it passes, keeps a
    /// clone of it with its leaf hash: the shard buffer is shared, not
    /// copied.
    pub fn check(root: u64, n: usize, k: usize, frag: &Fragment) -> Option<Self> {
        let leaf = verified_leaf(root, n, k, frag)?;
        Some(VerifiedFragment { fragment: frag.clone(), leaf })
    }

    /// [`check`](Self::check) for several fragments of one commitment,
    /// taking them by value: entry `i` of the result is the verdict on
    /// `frags[i]`, the same one `check` gives, and a malformed fragment is
    /// rejected unhashed.
    pub fn check_many(root: u64, n: usize, k: usize, frags: Vec<Fragment>) -> Vec<Option<Self>> {
        frags
            .into_iter()
            .map(|fragment| {
                let leaf = verified_leaf(root, n, k, &fragment)?;
                Some(VerifiedFragment { fragment, leaf })
            })
            .collect()
    }

    /// The verified fragment.
    pub fn fragment(&self) -> &Fragment {
        &self.fragment
    }
}

/// A successfully reconstructed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decoded {
    /// The sender's payload, byte for byte.
    pub payload: Vec<u8>,
    /// How many of the `n` leaf hashes of the codeword check had to be
    /// recomputed from shard bytes rather than reused from verification.
    pub hashed_shards: usize,
}

/// Reconstructs the payload from at least `k` verified fragments of one
/// commitment, then re-encodes and checks the commitment.
///
/// Callers must have [`verify`]ed each fragment against `root` first; this
/// function still validates the mutual geometry (so it is total), decodes,
/// and performs the codeword check that defends against a Byzantine sender
/// committing to a non-codeword. On success the returned bytes are exactly
/// the sender's payload, identical across every `k`-subset.
pub fn reconstruct(
    root: u64,
    n: usize,
    k: usize,
    fragments: &[Fragment],
) -> Result<Vec<u8>, EcError> {
    let supplied: Vec<(&Fragment, Option<u64>)> = fragments.iter().map(|f| (f, None)).collect();
    decode(root, n, k, &supplied).map(|decoded| decoded.payload)
}

/// [`reconstruct`] for fragments whose leaf hashes are already known from
/// verification: same decode, same codeword check, same result for every
/// input — but a shard whose re-encoded bytes equal a supplied verified
/// fragment's bytes reuses that fragment's leaf instead of being hashed
/// again. The first `k` distinct indices decode; every further fragment
/// only spares its index a hash.
pub fn reconstruct_verified<'a>(
    root: u64,
    n: usize,
    k: usize,
    fragments: impl IntoIterator<Item = &'a VerifiedFragment>,
) -> Result<Decoded, EcError> {
    let supplied: Vec<(&Fragment, Option<u64>)> =
        fragments.into_iter().map(|v| (&v.fragment, Some(v.leaf))).collect();
    decode(root, n, k, &supplied)
}

/// The decode core behind [`reconstruct`] and [`reconstruct_verified`]:
/// each supplied fragment comes with the leaf hash of its shard if the
/// caller knows it.
///
/// One interpolation pass evaluates every position the picked `k` points
/// do not cover, so the `n` shards it yields are the re-encoding of the
/// decoded payload without a second pass. The codeword check recomputes
/// the commitment over them. A known leaf stands in for hashing a shard
/// only when the two shards are byte-equal — it is then the hash of
/// identical bytes — so the recomputed commitment is value for value the
/// one a full re-hash yields, and [`EcError::RootMismatch`] stays uniform
/// across subsets whatever the caller knows.
fn decode(
    root: u64,
    n: usize,
    k: usize,
    supplied: &[(&Fragment, Option<u64>)],
) -> Result<Decoded, EcError> {
    check_geometry(n, k)?;
    // Per index, the first fragment supplied for it. The first `k`
    // distinct indices are the interpolation points; later ones are kept
    // only if they can spare their index a hash.
    let mut by_index: Vec<Option<(&Fragment, Option<u64>)>> = vec![None; n];
    let mut picked: Vec<&Fragment> = Vec::with_capacity(k);
    for &(frag, leaf) in supplied {
        let Some(slot) = by_index.get_mut(frag.index as usize) else { continue };
        if slot.is_some() || (picked.len() == k && leaf.is_none()) {
            continue;
        }
        *slot = Some((frag, leaf));
        if picked.len() < k {
            picked.push(frag);
        }
    }
    if picked.len() < k {
        return Err(EcError::NotEnoughFragments { have: picked.len(), need: k });
    }
    let Some(first) = picked.first() else {
        return Err(EcError::NotEnoughFragments { have: 0, need: k });
    };
    let total_len = first.total_len;
    if total_len > MAX_TOTAL_LEN {
        return Err(EcError::PayloadTooLarge { len: total_len as usize });
    }
    let len = shard_len(total_len as usize, k);
    if picked.iter().any(|f| f.total_len != total_len || f.shard.len() != len) {
        return Err(EcError::InconsistentFragments);
    }

    // A picked position is a copy, every other one is evaluated. The data
    // positions are the payload buffer itself (the code is systematic).
    let xs: Vec<u8> = picked.iter().map(|f| f.index as u8).collect();
    let views: Vec<&[u8]> = picked.iter().map(|f| &f.shard[..]).collect();
    let mut payload = vec![0u8; k * len];
    let mut parity = vec![0u8; (n - k) * len];
    let mut missing: Vec<u8> = Vec::with_capacity(n - k);
    let mut missing_outs: Vec<&mut [u8]> = Vec::with_capacity(n - k);
    for (x, out) in payload.chunks_mut(len).chain(parity.chunks_mut(len)).enumerate() {
        match picked.iter().find(|f| f.index as usize == x) {
            Some(frag) => out.copy_from_slice(&frag.shard),
            None => {
                missing.push(x as u8);
                missing_outs.push(out);
            }
        }
    }
    interpolate_into(&xs, &views, &missing, &mut missing_outs);

    // Codeword check: the unique codeword through the picked points
    // re-commits to `root` exactly when the sender committed to a
    // codeword, whichever `k` points were picked.
    let shards = payload.chunks(len).chain(parity.chunks(len));
    let mut hashed_shards = 0;
    let leaves: Vec<u64> = (0u16..)
        .zip(shards)
        .zip(&by_index)
        .map(|((i, shard), known)| match known {
            Some((frag, Some(leaf))) if *frag.shard == *shard => *leaf,
            _ => {
                hashed_shards += 1;
                merkle::leaf_hash(i, shard)
            }
        })
        .collect();
    if commitment(merkle::root(&leaves), total_len, n, k) != root {
        return Err(EcError::RootMismatch);
    }

    payload.truncate(total_len as usize);
    Ok(Decoded { payload, hashed_shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn systematic_data_shards_are_payload_chunks() {
        let p = payload(20);
        let coded = encode(&p, 7, 4).unwrap();
        let len = shard_len(20, 4);
        assert_eq!(len, 5);
        for i in 0..4 {
            assert_eq!(&coded.fragments[i].shard[..], &p[i * len..(i + 1) * len]);
        }
    }

    #[test]
    fn every_fragment_verifies_and_corruption_is_rejected() {
        let p = payload(100);
        let coded = encode(&p, 10, 4).unwrap();
        for frag in &coded.fragments {
            assert!(verify(coded.root, 10, 4, frag));
            let mut bad = frag.clone();
            Arc::make_mut(&mut bad.shard)[0] ^= 1;
            assert!(!verify(coded.root, 10, 4, &bad), "corrupted shard must fail");
            let mut bad = frag.clone();
            bad.index = (bad.index + 1) % 10;
            assert!(!verify(coded.root, 10, 4, &bad), "relabelled index must fail");
            let mut bad = frag.clone();
            bad.total_len += 1;
            assert!(!verify(coded.root, 10, 4, &bad), "length lie must fail");
            let mut bad = frag.clone();
            if let Some(h) = bad.proof.first_mut() {
                *h ^= 1;
            }
            assert!(!verify(coded.root, 10, 4, &bad), "broken proof must fail");
        }
    }

    #[test]
    fn check_many_agrees_with_check_fragment_by_fragment() {
        let coded = encode(&payload(100), 10, 4).unwrap();
        let other = encode(&payload(90), 10, 4).unwrap();
        let mut mixed = Vec::new();
        for (i, frag) in coded.fragments.iter().enumerate() {
            let mut f = frag.clone();
            match i % 5 {
                0 => {}
                1 => Arc::make_mut(&mut f.shard)[0] ^= 1,
                2 => f.index = (f.index + 1) % 10,
                3 => f.shard = f.shard.iter().copied().chain([0]).collect(),
                // Another commitment's fragment: well formed, wrong root.
                _ => f = other.fragments[i].clone(),
            }
            mixed.push(f);
        }
        // Sizes that leave 1, 2 and 3 in the last group of four, and one.
        for len in [1, 5, 6, 7, 10] {
            let input = mixed[..len].to_vec();
            let one_by_one: Vec<Option<VerifiedFragment>> =
                input.iter().map(|f| VerifiedFragment::check(coded.root, 10, 4, f)).collect();
            assert_eq!(VerifiedFragment::check_many(coded.root, 10, 4, input), one_by_one);
        }
        let verdicts = VerifiedFragment::check_many(coded.root, 10, 4, mixed);
        let passed: Vec<usize> = (0..10).filter(|&i| verdicts[i].is_some()).collect();
        assert_eq!(passed, vec![0, 5], "only the untouched fragments pass");
        assert!(VerifiedFragment::check_many(coded.root, 10, 4, Vec::new()).is_empty());
    }

    #[test]
    fn wrong_geometry_never_verifies() {
        let coded = encode(&payload(64), 8, 3).unwrap();
        let frag = &coded.fragments[0];
        assert!(verify(coded.root, 8, 3, frag));
        assert!(!verify(coded.root, 8, 4, frag));
        assert!(!verify(coded.root, 9, 3, frag));
    }

    #[test]
    fn reconstructs_from_any_k_subset() {
        let p = payload(97);
        let (n, k) = (7, 3);
        let coded = encode(&p, n, k).unwrap();
        // All C(7,3) = 35 subsets.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let subset = vec![
                        coded.fragments[a].clone(),
                        coded.fragments[b].clone(),
                        coded.fragments[c].clone(),
                    ];
                    let out = reconstruct(coded.root, n, k, &subset).unwrap();
                    assert_eq!(out, p, "subset ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn too_few_fragments_is_typed() {
        let coded = encode(&payload(50), 6, 3).unwrap();
        let err = reconstruct(coded.root, 6, 3, &coded.fragments[..2]).unwrap_err();
        assert_eq!(err, EcError::NotEnoughFragments { have: 2, need: 3 });
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let coded = encode(&payload(50), 6, 3).unwrap();
        let frags = vec![
            coded.fragments[1].clone(),
            coded.fragments[1].clone(),
            coded.fragments[1].clone(),
        ];
        let err = reconstruct(coded.root, 6, 3, &frags).unwrap_err();
        assert_eq!(err, EcError::NotEnoughFragments { have: 1, need: 3 });
    }

    #[test]
    fn non_codeword_commitment_fails_for_every_subset() {
        // A Byzantine sender commits to a shard vector that is not a
        // codeword: whatever subset a receiver reconstructs from, the
        // codeword check must fail (and fail for all of them — totality).
        let (n, k) = (6, 2);
        let a = encode(&payload(40), n, k).unwrap();
        let b = encode(&payload(41), n, k).unwrap();
        // Forge one: a's shards for even indices, b's for odd.
        let mixed: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    a.fragments[i].shard.to_vec()
                } else {
                    let mut s = b.fragments[i].shard.to_vec();
                    s.resize(a.fragments[i].shard.len(), 0);
                    s
                }
            })
            .collect();
        // Forge two: a's codeword, wrong in one byte of its last parity
        // shard only, so a subset that picks that position interpolates
        // through the one wrong point.
        let mut one_parity_off: Vec<Vec<u8>> =
            a.fragments.iter().map(|f| f.shard.to_vec()).collect();
        one_parity_off[n - 1][0] ^= 1;
        for forged in [mixed, one_parity_off] {
            // A fresh commitment over the forged shard vector.
            let leaves: Vec<u64> =
                forged.iter().enumerate().map(|(i, s)| merkle::leaf_hash(i as u16, s)).collect();
            let root = commitment(merkle::root(&leaves), 40, n, k);
            let frags: Vec<Fragment> = forged
                .iter()
                .enumerate()
                .map(|(i, shard)| Fragment {
                    index: i as u16,
                    total_len: 40,
                    shard: shard.as_slice().into(),
                    proof: merkle::proof(&leaves, i),
                })
                .collect();
            // Every fragment *verifies* (the sender really committed to it)…
            for f in &frags {
                assert!(verify(root, n, k, f));
            }
            // …but no 2-subset reconstructs: the committed vector is not a
            // codeword, so every interpolation misses some committed leaf.
            let mut failures = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let sub = vec![frags[i].clone(), frags[j].clone()];
                    match reconstruct(root, n, k, &sub) {
                        Err(EcError::RootMismatch) => failures += 1,
                        other => panic!("subset ({i},{j}) must mismatch, got {other:?}"),
                    }
                }
            }
            assert_eq!(failures, n * (n - 1) / 2);
        }
    }

    #[test]
    fn empty_and_tiny_payloads_round_trip() {
        for len in [0usize, 1, 2, 3] {
            let p = payload(len);
            let coded = encode(&p, 4, 2).unwrap();
            let out = reconstruct(coded.root, 4, 2, &coded.fragments[2..]).unwrap();
            assert_eq!(out, p, "len {len}");
        }
    }

    #[test]
    fn k_equals_n_degenerates_to_plain_split() {
        let p = payload(33);
        let coded = encode(&p, 4, 4).unwrap();
        let out = reconstruct(coded.root, 4, 4, &coded.fragments).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn bad_geometry_is_typed() {
        assert_eq!(encode(&[1], 4, 0).unwrap_err(), EcError::BadGeometry { n: 4, k: 0 });
        assert_eq!(encode(&[1], 3, 4).unwrap_err(), EcError::BadGeometry { n: 3, k: 4 });
        assert_eq!(encode(&[1], 256, 4).unwrap_err(), EcError::BadGeometry { n: 256, k: 4 });
        assert!(!verify(
            0,
            3,
            4,
            &Fragment { index: 0, total_len: 1, shard: Arc::new([1]), proof: vec![] }
        ));
    }

    /// `len` pseudo-random bytes (xorshift64 from `seed`), so every byte
    /// value and nibble pair reaches the kernels.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn encode_root_is_pinned() {
        // The root commits to every leaf, so any parity byte a kernel
        // computes differently from `gf256::mul` moves it. The value is
        // the root the scalar-only encoder gave this payload.
        let coded = encode(&noise(256 << 10, 0x9e37_79b9_7f4a_7c15), 7, 3).unwrap();
        assert_eq!(coded.root, 0x0dc5_09de_f62f_1349);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The dispatching kernel (AVX2 where the host has it) writes
        /// exactly what the scalar kernel does, for any distinct points,
        /// any `1 ≤ k ≤ n ≤ 255` and shard lengths around every tail.
        #[test]
        fn dispatching_kernel_agrees_with_the_scalar_kernel(
            // Half the cases small: a wide geometry costs O(n³) to set up.
            n in prop_oneof![1usize..=16, 1usize..=255],
            k_pick in 0usize..255,
            len in 0usize..=300,
            seed in 0u64..u64::MAX,
        ) {
            let k = 1 + k_pick % n;
            // Points: a seeded shuffle of 0..n; the first k are sources.
            let mut points: Vec<u8> = (0..n as u8).collect();
            for (i, r) in (1..n).rev().zip(noise(n, seed)) {
                points.swap(i, usize::from(r) % (i + 1));
            }
            let (xs, targets) = points.split_at(k);
            let shards: Vec<Vec<u8>> = (0..k as u64).map(|j| noise(len, seed ^ (j << 32))).collect();
            let views: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
            let mut fast = vec![vec![0xa5u8; len]; targets.len()];
            let mut slow = vec![vec![0x5au8; len]; targets.len()];
            interpolate_into(xs, &views, targets, &mut fast.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
            interpolate_scalar(xs, &views, targets, &mut slow.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn fragment_weight_and_display() {
        let coded = encode(&payload(64), 8, 4).unwrap();
        let frag = &coded.fragments[0];
        assert_eq!(frag.weight(), frag.shard.len() + frag.proof.len() * 8);
        assert!(frag.to_string().contains("frag#0"));
    }
}
