//! A binary Merkle tree over fragment hashes.
//!
//! The tree commits the designated sender to the exact shard each node
//! receives: the root travels with every message of a coded-broadcast
//! instance, and a receiver accepts a fragment only when its inclusion
//! proof checks out against that root. Leaves, inner nodes and padding are
//! domain-separated so no value can play two roles.
//!
//! Leaf count is padded to the next power of two with a constant empty
//! hash, which keeps proofs a fixed length `log2(padded)` for every index.

use bft_types::hash::{Fnv64, Fnv64x4};

const LEAF_DOMAIN: u8 = 0x4c;
const INNER_DOMAIN: u8 = 0x49;
const EMPTY_DOMAIN: u8 = 0x45;

/// Hash of the leaf committing shard `index` to its byte content: the
/// striped hash ([`Fnv64x4`]) of the leaf domain byte, the little-endian
/// index, then the shard.
pub fn leaf_hash(index: u16, shard: &[u8]) -> u64 {
    Fnv64x4::new().update(&[LEAF_DOMAIN]).update(&index.to_le_bytes()).update(shard).finish()
}

fn empty_hash() -> u64 {
    let mut h = Fnv64::new();
    h.update(&[EMPTY_DOMAIN]);
    h.finish()
}

fn inner(left: u64, right: u64) -> u64 {
    let mut h = Fnv64::new();
    h.update(&[INNER_DOMAIN]).update_u64(left).update_u64(right);
    h.finish()
}

/// Proof length for a tree of `leaf_count` leaves: `log2` of the padded
/// leaf count.
pub fn depth(leaf_count: usize) -> usize {
    leaf_count.next_power_of_two().trailing_zeros() as usize
}

fn padded(leaves: &[u64]) -> Vec<u64> {
    let mut level = leaves.to_vec();
    level.resize(leaves.len().next_power_of_two().max(1), empty_hash());
    level
}

/// The Merkle root over `leaves` (padded to a power of two).
pub fn root(leaves: &[u64]) -> u64 {
    let mut level = padded(leaves);
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => inner(*l, *r),
                // Unreachable: the padded level length is a power of two.
                _ => empty_hash(),
            })
            .collect();
    }
    level.first().copied().unwrap_or_else(empty_hash)
}

/// The sibling path authenticating leaf `index`, bottom-up.
///
/// Returns an empty proof if `index` is out of range (such a proof never
/// verifies against a multi-leaf root, so the caller needs no extra check).
pub fn proof(leaves: &[u64], index: usize) -> Vec<u64> {
    if index >= leaves.len() {
        return Vec::new();
    }
    let mut level = padded(leaves);
    let mut idx = index;
    let mut path = Vec::with_capacity(depth(leaves.len()));
    while level.len() > 1 {
        path.push(level.get(idx ^ 1).copied().unwrap_or_else(empty_hash));
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [l, r] => inner(*l, *r),
                _ => empty_hash(),
            })
            .collect();
        idx /= 2;
    }
    path
}

/// Folds a sibling `path` over `leaf` at `index`, yielding the root the
/// path claims — the core of proof verification, exposed so callers that
/// bind the Merkle root into a larger commitment can recompute it.
pub fn fold(index: usize, leaf: u64, path: &[u64]) -> u64 {
    let mut acc = leaf;
    let mut idx = index;
    for sibling in path {
        acc = if idx.is_multiple_of(2) { inner(acc, *sibling) } else { inner(*sibling, acc) };
        idx /= 2;
    }
    acc
}

/// Checks that `leaf` sits at `index` in the tree of `leaf_count` leaves
/// with root `expected`, using the sibling `path`.
pub fn verify(expected: u64, leaf_count: usize, index: usize, leaf: u64, path: &[u64]) -> bool {
    if index >= leaf_count || path.len() != depth(leaf_count) {
        return false;
    }
    fold(index, leaf, path) == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<u64> {
        (0..n).map(|i| leaf_hash(i as u16, &[i as u8; 4])).collect()
    }

    #[test]
    fn every_leaf_proves_membership() {
        for n in 1..=17 {
            let ls = leaves(n);
            let r = root(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let p = proof(&ls, i);
                assert_eq!(p.len(), depth(n), "n={n} i={i}");
                assert!(verify(r, n, i, *leaf, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_wrong_index_wrong_root_all_fail() {
        let ls = leaves(7);
        let r = root(&ls);
        let p = proof(&ls, 3);
        let leaf3 = ls[3];
        assert!(verify(r, 7, 3, leaf3, &p));
        assert!(!verify(r, 7, 3, leaf3 ^ 1, &p));
        assert!(!verify(r, 7, 2, leaf3, &p));
        assert!(!verify(r ^ 1, 7, 3, leaf3, &p));
        assert!(!verify(r, 7, 9, leaf3, &p), "out-of-range index");
        assert!(!verify(r, 7, 3, leaf3, &p[..2]), "truncated proof");
    }

    #[test]
    fn proof_for_out_of_range_index_is_empty_and_rejected() {
        let ls = leaves(4);
        assert!(proof(&ls, 9).is_empty());
        assert!(!verify(root(&ls), 4, 9, ls[0], &[]));
    }

    #[test]
    fn single_leaf_tree_has_empty_proofs() {
        let ls = leaves(1);
        assert_eq!(depth(1), 0);
        assert!(verify(root(&ls), 1, 0, ls[0], &[]));
    }

    #[test]
    fn root_depends_on_leaf_order() {
        let mut ls = leaves(4);
        let r = root(&ls);
        ls.swap(1, 2);
        assert_ne!(root(&ls), r);
    }
}
