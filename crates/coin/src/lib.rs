//! Coin-flip schemes for randomized asynchronous Byzantine agreement.
//!
//! FLP rules out deterministic asynchronous consensus; Bracha's protocol
//! (like Ben-Or's) escapes it by letting undecided processes adopt a
//! random value. The *source* of that randomness determines the expected
//! round count:
//!
//! * [`LocalCoin`] — each node flips privately (the scheme of the 1984
//!   paper). Termination has probability 1, but the adversary can keep
//!   correct nodes split, so the expected number of rounds grows
//!   exponentially with the number of flipping nodes in the worst case.
//! * [`CommonCoin`] — all correct nodes observe the *same* unpredictable
//!   flip per round. The paper attributes this model to Rabin's trusted
//!   dealer; modern systems (HoneyBadgerBFT and its descendants) realise
//!   it with threshold signatures. With a common coin the expected number
//!   of rounds is constant. We model the dealer with a keyed PRF over
//!   `(instance, round)` — same interface, same unpredictability-to-the-
//!   protocol property, no crypto (documented substitution, DESIGN.md).
//! * [`FixedCoin`] — a deterministic test double used to drive protocols
//!   into specific executions and for adversarial worst-case experiments.
//!
//! All schemes implement [`CoinScheme`], which protocols consume via
//! dependency injection so that the state machines themselves stay
//! deterministic and reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bft_types::{NodeId, Value};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A source of coin flips for a randomized agreement protocol.
///
/// `flip(round)` is called by a node when the protocol reaches its coin
/// step in `round`. Whether different nodes see the same flip is the
/// defining property of the scheme (local vs common).
pub trait CoinScheme {
    /// Returns the coin value for `round` at this node.
    fn flip(&mut self, round: u64) -> Value;

    /// A short label for experiment reports (e.g. `"local"`).
    fn name(&self) -> &'static str;
}

/// A boxed coin scheme, for heterogeneous harness code.
pub type BoxedCoin = Box<dyn CoinScheme + Send>;

impl CoinScheme for BoxedCoin {
    fn flip(&mut self, round: u64) -> Value {
        (**self).flip(round)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A private, per-node fair coin — the scheme of Bracha's 1984 protocol.
///
/// The flip is a keyed PRF over `(seed, node, instance, round)`, exactly
/// like [`CommonCoin`] but with the node id (and an instance number) mixed
/// into the key, so different nodes — and different concurrent agreement
/// instances at *one* node — draw independent streams. Keying by round
/// (rather than advancing a stateful RNG per call) makes the flip a pure
/// function of the round: replays that reach the coin step a different
/// number of times still agree per-round.
///
/// # Example
///
/// ```
/// use bft_coin::{CoinScheme, LocalCoin};
/// use bft_types::NodeId;
///
/// let mut a = LocalCoin::new(42, NodeId::new(0));
/// let mut b = LocalCoin::new(42, NodeId::new(0));
/// assert_eq!(a.flip(1), b.flip(1)); // same node, same seed → same stream
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LocalCoin {
    seed: u64,
    node: NodeId,
    instance: u64,
}

impl LocalCoin {
    /// Creates the local coin for `node` in a run seeded with `seed`
    /// (agreement instance 0).
    pub fn new(seed: u64, node: NodeId) -> Self {
        LocalCoin::for_instance(seed, node, 0)
    }

    /// Creates the local coin for agreement instance `instance` at `node`.
    ///
    /// Multi-instance protocols (one binary agreement per ACS slot, one
    /// ACS per epoch) must give each instance its own number, or every
    /// instance at the node would see the same flip in the same round.
    pub fn for_instance(seed: u64, node: NodeId, instance: u64) -> Self {
        LocalCoin { seed, node, instance }
    }
}

impl CoinScheme for LocalCoin {
    fn flip(&mut self, round: u64) -> Value {
        // Keyed PRF over (seed, node, instance, round): one ChaCha8 block,
        // one bit. See CommonCoin::flip for the dealer-model analogue.
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..16].copy_from_slice(&(self.node.index() as u64).to_le_bytes());
        key[16..24].copy_from_slice(&self.instance.to_le_bytes());
        key[24..32].copy_from_slice(&round.to_le_bytes());
        let mut rng = ChaCha8Rng::from_seed(key);
        Value::from_bit((rng.next_u32() & 1) as u8)
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// A common coin in the trusted-dealer model: every node constructed with
/// the same `(seed, instance)` observes the same flip for the same round.
///
/// The flip is a keyed PRF over `(instance, round)`; protocol code cannot
/// predict it before asking (and the simulator's schedulers never ask), so
/// the adversary-unpredictability assumption of the dealer model holds for
/// every experiment in this workspace.
///
/// # Example
///
/// ```
/// use bft_coin::{CoinScheme, CommonCoin};
///
/// let mut a = CommonCoin::new(7, 0);
/// let mut b = CommonCoin::new(7, 0);
/// assert_eq!(a.flip(3), b.flip(3)); // same dealer → same coin at all nodes
/// ```
#[derive(Clone, Debug)]
pub struct CommonCoin {
    seed: u64,
    instance: u64,
}

impl CommonCoin {
    /// Creates the dealer coin for agreement instance `instance` in a run
    /// seeded with `seed`.
    pub const fn new(seed: u64, instance: u64) -> Self {
        CommonCoin { seed, instance }
    }
}

impl CoinScheme for CommonCoin {
    fn flip(&mut self, round: u64) -> Value {
        // Keyed PRF: seed the stream cipher with (seed, instance, round)
        // and take one bit. Deterministic across nodes, unpredictable to
        // protocol code that has not queried it.
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..16].copy_from_slice(&self.instance.to_le_bytes());
        key[16..24].copy_from_slice(&round.to_le_bytes());
        let mut rng = ChaCha8Rng::from_seed(key);
        Value::from_bit((rng.next_u32() & 1) as u8)
    }

    fn name(&self) -> &'static str {
        "common"
    }
}

/// A coin that always lands on the same value. Test double: drives a
/// protocol into a chosen branch, and models the worst case where the
/// adversary fully controls local randomness.
#[derive(Clone, Copy, Debug)]
pub struct FixedCoin {
    value: Value,
}

impl FixedCoin {
    /// Creates a coin that always returns `value`.
    pub const fn new(value: Value) -> Self {
        FixedCoin { value }
    }
}

impl CoinScheme for FixedCoin {
    fn flip(&mut self, _round: u64) -> Value {
        self.value
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_coins_differ_across_nodes() {
        let mut a = LocalCoin::new(1, NodeId::new(0));
        let mut b = LocalCoin::new(1, NodeId::new(1));
        let fa: Vec<Value> = (0..64).map(|r| a.flip(r)).collect();
        let fb: Vec<Value> = (0..64).map(|r| b.flip(r)).collect();
        assert_ne!(fa, fb, "independent nodes must have independent streams");
    }

    #[test]
    fn local_coin_is_roughly_fair() {
        let mut c = LocalCoin::new(99, NodeId::new(3));
        let ones: usize = (0..10_000).map(|r| c.flip(r).index()).sum();
        assert!((4_000..=6_000).contains(&ones), "got {ones} ones out of 10000");
    }

    #[test]
    fn local_coin_instances_at_one_node_flip_independently() {
        // Regression: LocalCoin used to ignore both its round argument and
        // any instance dimension, so two concurrent agreement instances at
        // one node drew identical streams.
        let mut a = LocalCoin::for_instance(7, NodeId::new(2), 0);
        let mut b = LocalCoin::for_instance(7, NodeId::new(2), 1);
        let fa: Vec<Value> = (0..64).map(|r| a.flip(r)).collect();
        let fb: Vec<Value> = (0..64).map(|r| b.flip(r)).collect();
        assert_ne!(fa, fb, "instances at one node must have independent streams");
    }

    #[test]
    fn local_coin_replays_agree_per_round() {
        // Regression: the flip used to advance a stateful RNG per call, so
        // replays that reached the coin step a different number of times
        // diverged. The flip must be a pure function of the round.
        let mut warm = LocalCoin::new(13, NodeId::new(1));
        for r in 0..100 {
            let _ = warm.flip(r); // burn 100 calls in a different order
        }
        let mut fresh = LocalCoin::new(13, NodeId::new(1));
        for r in (0..50).rev() {
            assert_eq!(warm.flip(r), fresh.flip(r), "round {r} flip is call-order-dependent");
        }
    }

    #[test]
    fn common_coin_agrees_across_nodes_and_rounds() {
        for round in 1..50 {
            let mut a = CommonCoin::new(5, 2);
            let mut b = CommonCoin::new(5, 2);
            assert_eq!(a.flip(round), b.flip(round));
        }
    }

    #[test]
    fn common_coin_varies_with_round_instance_and_seed() {
        let mut c = CommonCoin::new(5, 2);
        let flips: Vec<Value> = (1..200).map(|r| c.flip(r)).collect();
        let ones = flips.iter().filter(|v| **v == Value::One).count();
        assert!((40..160).contains(&ones), "coin should vary: {ones} ones");

        let mut c1 = CommonCoin::new(5, 3);
        let mut c2 = CommonCoin::new(6, 2);
        let alt1: Vec<Value> = (1..200).map(|r| c1.flip(r)).collect();
        let alt2: Vec<Value> = (1..200).map(|r| c2.flip(r)).collect();
        assert_ne!(flips, alt1, "instance must matter");
        assert_ne!(flips, alt2, "seed must matter");
    }

    #[test]
    fn fixed_and_cycling_are_deterministic() {
        let mut f = FixedCoin::new(Value::One);
        assert_eq!(f.flip(1), Value::One);
        assert_eq!(f.flip(2), Value::One);
    }

    #[test]
    fn boxed_coin_dispatches() {
        let mut c: BoxedCoin = Box::new(FixedCoin::new(Value::Zero));
        assert_eq!(c.flip(9), Value::Zero);
        assert_eq!(c.name(), "fixed");
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            LocalCoin::new(0, NodeId::new(0)).name(),
            CommonCoin::new(0, 0).name(),
            FixedCoin::new(Value::Zero).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
