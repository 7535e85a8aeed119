//! The bulk data path — coded-RBC fragment → decoded batch → log entry —
//! against its definitions: the table-driven Reed–Solomon kernels, the
//! striped leaf hash and the hash-once decode core must produce, byte for
//! byte, what the plain `gf256::mul`-per-byte, hash-every-shard,
//! one-byte-at-a-time path produces.

use async_bft::ec::{self, gf256, merkle, EcError, Fragment, VerifiedFragment};
use async_bft::order::{batch_tx_count, decode_batch, encode_batch};
use async_bft::types::hash::Fnv64;
use proptest::prelude::*;

/// A transliteration of the byte-at-a-time erasure-coding path this repo
/// shipped before the table-driven kernels: one `gf256::mul` per byte,
/// every shard of the codeword hashed on every reconstruction, each leaf
/// by the striped FNV-1a definition written out one byte at a time.
mod reference {
    use super::*;

    /// FNV-1a 64, one byte at a time, from `state`.
    fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        state
    }

    /// The leaf committing shard `index`: the striped FNV-1a of the leaf
    /// domain byte, the little-endian index, then the shard. Stream byte
    /// `i` goes to lane `i % 4`, each lane a serial chain; one more chain
    /// folds the four lanes and the stream length.
    pub fn leaf_hash(index: u16, shard: &[u8]) -> u64 {
        let basis = 0xcbf2_9ce4_8422_2325;
        let [lo, hi] = index.to_le_bytes();
        let stream = [0x4c, lo, hi].into_iter().chain(shard.iter().copied());
        let mut lanes = [basis; 4];
        let mut len = 0u64;
        for (i, b) in stream.enumerate() {
            lanes[i % 4] = fnv1a(lanes[i % 4], &[b]);
            len += 1;
        }
        let folded = lanes.iter().fold(basis, |h, lane| fnv1a(h, &lane.to_le_bytes()));
        fnv1a(folded, &len.to_le_bytes())
    }

    fn lagrange_coeffs(xs: &[u8], x: u8) -> Vec<u8> {
        xs.iter()
            .enumerate()
            .map(|(i, &xi)| {
                let (mut num, mut den) = (1u8, 1u8);
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

    fn interpolate_shard(xs: &[u8], shards: &[&[u8]], x: u8, len: usize) -> Vec<u8> {
        let coeffs = lagrange_coeffs(xs, x);
        let mut out = vec![0u8; len];
        for (coeff, shard) in coeffs.iter().zip(shards) {
            for (o, &b) in out.iter_mut().zip(shard.iter()) {
                *o = gf256::add(*o, gf256::mul(*coeff, b));
            }
        }
        out
    }

    fn extend(data: &[Vec<u8>], n: usize, len: usize) -> Vec<Vec<u8>> {
        let k = data.len();
        let xs: Vec<u8> = (0..k as u8).collect();
        let views: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut shards = data.to_vec();
        for x in k..n {
            shards.push(interpolate_shard(&xs, &views, x as u8, len));
        }
        shards
    }

    pub fn commitment(leaves_root: u64, total_len: u32, n: usize, k: usize) -> u64 {
        let mut h = Fnv64::new();
        h.update(b"ec-commit")
            .update_u64(leaves_root)
            .update_u64(u64::from(total_len))
            .update(&[n as u8, k as u8]);
        h.finish()
    }

    pub fn leaves(shards: &[Vec<u8>]) -> Vec<u64> {
        shards.iter().enumerate().map(|(i, s)| leaf_hash(i as u16, s)).collect()
    }

    pub fn encode(payload: &[u8], n: usize, k: usize) -> ec::Coded {
        let len = ec::shard_len(payload.len(), k);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                let start = (i * len).min(payload.len());
                let end = ((i + 1) * len).min(payload.len());
                let mut shard = payload[start..end].to_vec();
                shard.resize(len, 0);
                shard
            })
            .collect();
        let shards = extend(&data, n, len);
        let leaves = leaves(&shards);
        let root = commitment(merkle::root(&leaves), payload.len() as u32, n, k);
        let fragments = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| Fragment {
                index: i as u16,
                total_len: payload.len() as u32,
                shard: shard.into(),
                proof: merkle::proof(&leaves, i),
            })
            .collect();
        ec::Coded { root, fragments }
    }

    /// Decodes from the first `k` supplied fragments (callers pass
    /// distinct, consistent ones), re-encodes, re-hashes all `n` shards.
    pub fn reconstruct(
        root: u64,
        n: usize,
        k: usize,
        picked: &[&Fragment],
    ) -> Result<Vec<u8>, EcError> {
        let picked = &picked[..k];
        let total_len = picked[0].total_len;
        let len = ec::shard_len(total_len as usize, k);
        let xs: Vec<u8> = picked.iter().map(|f| f.index as u8).collect();
        let views: Vec<&[u8]> = picked.iter().map(|f| &f.shard[..]).collect();
        let data: Vec<Vec<u8>> =
            (0..k).map(|x| interpolate_shard(&xs, &views, x as u8, len)).collect();
        let shards = extend(&data, n, len);
        if commitment(merkle::root(&leaves(&shards)), total_len, n, k) != root {
            return Err(EcError::RootMismatch);
        }
        let mut payload: Vec<u8> = data.concat();
        payload.truncate(total_len as usize);
        Ok(payload)
    }
}

fn payload(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Every `k`-subset of `0..n`, each in increasing order.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn go(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            go(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    go(0, n, k, &mut Vec::new(), &mut out);
    out
}

/// The payload lengths around every shard-size edge, up to 4 KiB.
fn edge_lengths(k: usize) -> Vec<usize> {
    let mut lens = vec![0, 1, k.saturating_sub(1), k, k + 1, 2 * k + 1, 257, 4096];
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// The protocol's threshold for `n` (`n − 2f` at maximal `f`), plus the
/// degenerate codes.
fn thresholds(n: usize) -> Vec<usize> {
    let mut ks = vec![1, n - 2 * ((n - 1) / 3), n];
    ks.dedup();
    ks
}

/// Every fragment of `coded`, verified in one batch — which must agree
/// with verifying them one at a time.
fn verified(coded: &ec::Coded, n: usize, k: usize) -> Vec<VerifiedFragment> {
    let one_by_one: Vec<Option<VerifiedFragment>> =
        coded.fragments.iter().map(|f| VerifiedFragment::check(coded.root, n, k, f)).collect();
    let batched = VerifiedFragment::check_many(coded.root, n, k, coded.fragments.clone());
    assert_eq!(batched, one_by_one, "batched and single verification disagree");
    batched.into_iter().map(|v| v.expect("committed fragment verifies")).collect()
}

/// Decodes `subset` of `coded` every way the crate offers — no leaf known,
/// the subset's leaves known, one more, all `n` — and checks each against
/// `expect` and the hashes the known leaves should have spared.
fn decode_every_way(
    coded: &ec::Coded,
    n: usize,
    k: usize,
    subset: &[usize],
    expect: &Result<Vec<u8>, EcError>,
) {
    let known = verified(coded, n, k);
    let plain: Vec<Fragment> = subset.iter().map(|&i| coded.fragments[i].clone()).collect();
    assert_eq!(&ec::reconstruct(coded.root, n, k, &plain), expect, "no leaf known {subset:?}");

    let rest: Vec<usize> = (0..n).filter(|i| !subset.contains(i)).collect();
    let some: Vec<usize> = subset.iter().chain(rest.first()).copied().collect();
    let all: Vec<usize> = subset.iter().chain(&rest).copied().collect();
    for supplied in [subset, &some, &all] {
        let got = ec::reconstruct_verified(coded.root, n, k, supplied.iter().map(|&i| &known[i]));
        let hashed = got.as_ref().map(|d| d.hashed_shards).ok();
        assert_eq!(&got.map(|d| d.payload), expect, "leaves known for {supplied:?}");
        if expect.is_ok() {
            assert_eq!(hashed, Some(n - supplied.len()), "hashes spared for {supplied:?}");
        }
    }
}

#[test]
fn encode_matches_the_reference_bytes_roots_and_proofs() {
    for n in 4..=16usize {
        for k in thresholds(n) {
            for len in edge_lengths(k) {
                let p = payload(len, (n * 31 + k) as u64);
                let got = ec::encode(&p, n, k).expect("valid geometry");
                assert_eq!(got, reference::encode(&p, n, k), "n={n} k={k} len={len}");
            }
        }
    }
}

#[test]
fn decode_matches_the_reference_on_every_subset_with_zero_some_and_all_leaves_known() {
    for n in 4..=8usize {
        for k in thresholds(n) {
            for len in edge_lengths(k) {
                let p = payload(len, (n * 17 + k) as u64);
                let coded = reference::encode(&p, n, k);
                for subset in subsets(n, k) {
                    let picked: Vec<&Fragment> =
                        subset.iter().map(|&i| &coded.fragments[i]).collect();
                    let expect = reference::reconstruct(coded.root, n, k, &picked);
                    assert_eq!(expect.as_ref(), Ok(&p), "reference round-trips");
                    decode_every_way(&coded, n, k, &subset, &expect);
                }
            }
        }
    }
}

/// A sender commits to a shard vector that is not a codeword: shards of
/// two different payloads, interleaved, under a fresh commitment.
fn forged(n: usize, k: usize) -> ec::Coded {
    let a = reference::encode(&payload(40, 1), n, k);
    let b = reference::encode(&payload(40, 2), n, k);
    let mixed: Vec<Vec<u8>> = (0..n)
        .map(|i| if i % 2 == 0 { &a.fragments[i] } else { &b.fragments[i] }.shard.to_vec())
        .collect();
    let leaves = reference::leaves(&mixed);
    let root = reference::commitment(merkle::root(&leaves), 40, n, k);
    let fragments = mixed
        .into_iter()
        .enumerate()
        .map(|(i, shard)| Fragment {
            index: i as u16,
            total_len: 40,
            shard: shard.into(),
            proof: merkle::proof(&leaves, i),
        })
        .collect();
    ec::Coded { root, fragments }
}

#[test]
fn non_codeword_commitment_fails_for_every_subset_whatever_leaves_are_known() {
    for (n, k) in [(6usize, 2usize), (7, 3)] {
        let coded = forged(n, k);
        // Every fragment verifies — the sender really committed to it —
        // so receivers do buffer these, leaves and all.
        for f in &coded.fragments {
            assert!(ec::verify(coded.root, n, k, f));
        }
        for subset in subsets(n, k) {
            let picked: Vec<&Fragment> = subset.iter().map(|&i| &coded.fragments[i]).collect();
            let expect = reference::reconstruct(coded.root, n, k, &picked);
            assert_eq!(expect, Err(EcError::RootMismatch), "reference rejects {subset:?}");
            decode_every_way(&coded, n, k, &subset, &expect);
        }
    }
}

#[test]
fn a_stale_extra_fragment_spares_no_hash_and_changes_no_verdict() {
    // An extra verified fragment of a *different* commitment at a
    // non-picked index is byte-unequal to the re-encoded shard: its leaf
    // must not be used, and the decode must come out as if it were absent.
    let (n, k) = (7usize, 3usize);
    let good = ec::encode(&payload(300, 3), n, k).expect("valid geometry");
    let other = ec::encode(&payload(300, 4), n, k).expect("valid geometry");
    let good_known = verified(&good, n, k);
    let other_known = verified(&other, n, k);
    let supplied = [&good_known[0], &good_known[1], &good_known[2], &other_known[5]];
    let decoded = ec::reconstruct_verified(good.root, n, k, supplied).expect("codeword");
    assert_eq!(decoded.payload, payload(300, 3));
    assert_eq!(decoded.hashed_shards, n - k, "the foreign leaf spared nothing");
}

#[test]
fn leaf_hashes_equal_the_striped_reference() {
    for len in (0..=9).chain([1000]) {
        for index in [0u16, 1, 6, 255, 256, u16::MAX] {
            let shard = payload(len, u64::from(index) + len as u64);
            assert_eq!(
                merkle::leaf_hash(index, &shard),
                reference::leaf_hash(index, &shard),
                "leaf {index} of {len} B"
            );
        }
    }
}

#[test]
fn product_rows_equal_mul_for_all_65536_pairs() {
    for coeff in 0..=255u8 {
        let row = gf256::product_row(coeff);
        for b in 0..=255u8 {
            assert_eq!(row[b as usize], gf256::mul(coeff, b), "{coeff} · {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random geometry, payload, fragment order and set of known leaves:
    /// the decode core agrees with the reference decode of the first `k`
    /// supplied fragments.
    #[test]
    fn decode_core_agrees_with_the_reference(
        n in 4usize..=16,
        k_pick in 0usize..16,
        len in 0usize..=4096,
        salt in 0u64..1_000_000,
        order in proptest::collection::vec(0u16..1000, 16),
        extra in 0usize..16,
    ) {
        let k = 1 + k_pick % n;
        let p = payload(len, salt);
        let coded = ec::encode(&p, n, k).expect("valid geometry");
        // A permutation of 0..n from the sort keys; the first k decode.
        let mut indices: Vec<usize> = (0..n).collect();
        indices.sort_by_key(|&i| (order[i], i));
        let picked: Vec<&Fragment> = indices.iter().map(|&i| &coded.fragments[i]).collect();
        let expect = reference::reconstruct(coded.root, n, k, &picked);
        prop_assert_eq!(expect.as_ref(), Ok(&p));

        let plain: Vec<Fragment> = picked.iter().map(|&f| f.clone()).collect();
        prop_assert_eq!(&ec::reconstruct(coded.root, n, k, &plain), &expect);
        let known = verified(&coded, n, k);
        let supplied = k + extra % (n - k + 1);
        let decoded =
            ec::reconstruct_verified(coded.root, n, k, indices[..supplied].iter().map(|&i| &known[i]))
                .expect("codeword");
        prop_assert_eq!(Ok(decoded.payload), expect);
        prop_assert_eq!(decoded.hashed_shards, n - supplied);
    }

    /// The non-copying tx count is `decode_batch(..).len()` on anything:
    /// raw bytes, well-formed bodies, and well-formed bodies cut short or
    /// with a tail.
    #[test]
    fn batch_tx_count_equals_decode_batch_len(
        raw in proptest::collection::vec(0u8..=255, 0..64),
        txs in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..12), 0..6),
        cut in 0usize..80,
        tail in proptest::collection::vec(0u8..=255, 0..3),
    ) {
        prop_assert_eq!(batch_tx_count(&raw), decode_batch(&raw).len());
        let body = encode_batch(&txs);
        prop_assert_eq!(batch_tx_count(&body), txs.len());
        prop_assert_eq!(decode_batch(&body), txs);
        let mut mangled = body[..cut.min(body.len())].to_vec();
        mangled.extend_from_slice(&tail);
        prop_assert_eq!(batch_tx_count(&mangled), decode_batch(&mangled).len());
    }
}

/// In a live coded-RBC run a node reconstructs from echoes it verified —
/// and hashed — as they arrived: the codeword check re-hashes only shards
/// whose echo had not arrived yet, never more than `n − k` of them on
/// average (it used to re-hash all `n`). A sender delivers the batch it
/// encoded and reconstructs nothing.
#[test]
fn live_reconstructions_rehash_at_most_the_unbuffered_shards() {
    use async_bft::coin::CommonCoin;
    use async_bft::obs::{MetricsSink, Obs};
    use async_bft::order::{OrderOptions, OrderProcess};
    use async_bft::rbc::RbcKind;
    use async_bft::sim::{UniformDelay, World, WorldConfig};
    use async_bft::types::Config;

    let (n, f, epochs) = (7usize, 2usize, 3u64);
    let cfg = Config::new(n, f).expect("7 >= 3·2 + 1");
    let k = cfg.reconstruct_threshold();
    let opts = OrderOptions { batch_max: 4, pipeline_depth: 2, epochs, rbc: RbcKind::Coded };
    let (obs, metrics) = Obs::new(MetricsSink::new());
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, 11));
    world.set_observer(obs.clone());
    for id in cfg.nodes() {
        let workload = (0..4 * epochs).map(|t| payload(200, id.index() as u64 * 100 + t)).collect();
        let node = OrderProcess::new(cfg, id, opts, workload, |inst| CommonCoin::new(5, inst));
        world.add_process(Box::new(node.with_obs(obs.clone())));
    }
    let report = world.run();
    assert!(report.all_correct_decided() && report.agreement_holds());

    let metrics = metrics.lock();
    let reconstructions = metrics.rbc_reconstructions();
    assert_eq!(
        reconstructions,
        epochs * (n * (n - 1)) as u64,
        "every node decodes every batch but its own"
    );
    assert!(
        metrics.rbc_hashed_shards() <= reconstructions * (n - k) as u64,
        "{} shards re-hashed over {reconstructions} reconstructions: mean above n − k = {}",
        metrics.rbc_hashed_shards(),
        n - k
    );
}
