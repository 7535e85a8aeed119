//! A fixed-capacity bitset over node identifiers.

use crate::NodeId;

/// A set of [`NodeId`]s backed by `u64` words, held inline (no heap
/// allocation) for capacities up to 128 nodes.
///
/// Protocol hot paths track "which peers have I already counted?" per
/// step or per phase; a hash set pays hashing and allocation per probe,
/// and a sorted vector pays a linear scan. For the small, dense id
/// spaces of a consensus cluster a bitset makes membership test and
/// insert one shift and mask, and the whole set for n ≤ 64 is a single
/// word.
///
/// # Example
///
/// ```
/// use bft_types::{NodeBitset, NodeId};
///
/// let mut seen = NodeBitset::new(7);
/// assert!(seen.insert(NodeId::new(3)));
/// assert!(!seen.insert(NodeId::new(3))); // already present
/// assert!(seen.contains(NodeId::new(3)));
/// assert_eq!(seen.len(), 1);
/// ```
#[derive(Clone)]
pub struct NodeBitset {
    words: Words,
    len: usize,
}

/// How many words live inside the set itself: clusters up to 128 nodes —
/// every size the protocols here are run at — never touch the heap.
const INLINE_WORDS: usize = 2;

/// The word storage: inline up to [`INLINE_WORDS`], on the heap above.
/// `used` is the capacity in words, so an inline set still rejects ids
/// beyond the `n` it was created for.
#[derive(Clone)]
enum Words {
    Inline { buf: [u64; INLINE_WORDS], used: u8 },
    Heap(Box<[u64]>),
}

impl NodeBitset {
    /// Creates an empty set with capacity for nodes `0..n`.
    pub fn new(n: usize) -> Self {
        let used = n.div_ceil(64);
        let words = if used <= INLINE_WORDS {
            Words::Inline { buf: [0; INLINE_WORDS], used: used as u8 }
        } else {
            Words::Heap(vec![0; used].into_boxed_slice())
        };
        NodeBitset { words, len: 0 }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline { buf, used } => &buf[..usize::from(*used)],
            Words::Heap(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline { buf, used } => &mut buf[..usize::from(*used)],
            Words::Heap(words) => words,
        }
    }

    /// Adds `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the capacity the set was created with.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        let slot = &mut self.words_mut()[word];
        let fresh = *slot & bit == 0;
        *slot |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is in the set. Out-of-capacity ids are never members.
    pub fn contains(&self, id: NodeId) -> bool {
        self.words().get(id.index() / 64).is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::new(w * 64 + bit))
            })
        })
    }
}

impl Default for NodeBitset {
    /// The empty set of capacity zero.
    fn default() -> Self {
        NodeBitset::new(0)
    }
}

/// Sets are equal when they hold the same members at the same capacity,
/// wherever the words live.
impl PartialEq for NodeBitset {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for NodeBitset {}

impl std::fmt::Debug for NodeBitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeBitset").field("words", &self.words()).field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = NodeBitset::new(130);
        assert!(s.is_empty());
        for i in [0usize, 63, 64, 129] {
            assert!(!s.contains(NodeId::new(i)));
            assert!(s.insert(NodeId::new(i)));
            assert!(s.contains(NodeId::new(i)));
        }
        assert!(!s.insert(NodeId::new(64)));
        assert_eq!(s.len(), 4);
        assert!(!s.contains(NodeId::new(1)));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = NodeBitset::new(100);
        for i in [99usize, 0, 64, 63, 7] {
            s.insert(NodeId::new(i));
        }
        let ids: Vec<usize> = s.iter().map(|id| id.index()).collect();
        assert_eq!(ids, vec![0, 7, 63, 64, 99]);
    }

    #[test]
    fn out_of_capacity_is_not_a_member() {
        let s = NodeBitset::new(4);
        assert!(!s.contains(NodeId::new(1000)));
    }

    #[test]
    #[should_panic]
    fn insert_beyond_capacity_panics() {
        NodeBitset::new(4).insert(NodeId::new(64));
    }

    /// The same contract on both sides of the inline/heap boundary: every
    /// id below `n` inserts once, ids in words the set was not created
    /// with are never members and panic on insert, and `Debug`/`Eq` see
    /// the words, not where they are stored.
    #[test]
    fn inline_and_heap_storage_behave_alike() {
        for n in [1usize, 64, 65, 128, 129] {
            let mut s = NodeBitset::new(n);
            assert_eq!(matches!(s.words, Words::Inline { .. }), n <= 128, "storage at n={n}");
            let words = n.div_ceil(64);
            assert_eq!(
                format!("{s:?}"),
                format!("NodeBitset {{ words: {:?}, len: 0 }}", vec![0u64; words])
            );
            for i in 0..n {
                assert!(s.insert(NodeId::new(i)), "n={n}: {i} is new");
                assert!(!s.insert(NodeId::new(i)), "n={n}: {i} is a duplicate");
            }
            assert_eq!(s.len(), n);
            assert_eq!(
                s.iter().map(|id| id.index()).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            let beyond = NodeId::new(words * 64);
            assert!(!s.contains(beyond));
            assert!(std::panic::catch_unwind(move || s.clone().insert(beyond)).is_err());

            let (mut a, mut b) = (NodeBitset::new(n), NodeBitset::new(n));
            assert_eq!(a, b);
            a.insert(NodeId::new(n - 1));
            assert_ne!(a, b);
            b.insert(NodeId::new(n - 1));
            assert_eq!(a, b);
            assert_eq!(a.clone(), a);
        }
        assert_ne!(NodeBitset::new(64), NodeBitset::new(65), "capacity is part of equality");
        assert_eq!(NodeBitset::default(), NodeBitset::new(0));
        assert!(std::mem::size_of::<NodeBitset>() <= 32, "no larger than the Vec-backed set");
    }
}
