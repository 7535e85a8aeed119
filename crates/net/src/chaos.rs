//! Deterministic link-level chaos: delay.
//!
//! The one fault injected on real sockets is head-of-line delay: a frame
//! waits before it is written, and the frames behind it wait with it, as
//! on a slow ordered link. Per-link FIFO order, sequence numbers and
//! exactly-once delivery are untouched. Loss, duplication, gaps and cut
//! connections are the link machines' business and are checked where
//! they are deterministic: on the in-memory byte pipe of
//! `crate::link`'s tests.
//!
//! All randomness is a per-link xorshift generator seeded from the
//! configured seed and the link endpoints, so a given configuration
//! produces the same delay pattern per link on every run, independent of
//! thread scheduling.

use bft_types::hash::Fnv64;
use bft_types::NodeId;

/// Chaos configuration for a run. `Default` is a fully quiet network.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Seed for the per-link generators.
    pub seed: u64,
    /// Probability (per mille) that a frame is delayed before sending.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosConfig {
    /// Whether any fault injection is configured.
    pub fn enabled(&self) -> bool {
        self.delay_per_mille > 0 && self.max_delay_ms > 0
    }

    /// The delay stream of one directed link.
    pub(crate) fn link(&self, from: NodeId, to: NodeId) -> LinkChaos {
        let mut h = Fnv64::new();
        h.update_u64(self.seed);
        h.update(&(from.index() as u32).to_le_bytes());
        h.update(&(to.index() as u32).to_le_bytes());
        LinkChaos {
            rng: XorShift::new(h.finish()),
            delay_per_mille: self.delay_per_mille,
            max_delay_ms: self.max_delay_ms,
        }
    }
}

/// Per-link chaos state, owned by that link's sender.
#[derive(Clone, Debug)]
pub(crate) struct LinkChaos {
    rng: XorShift,
    delay_per_mille: u16,
    max_delay_ms: u64,
}

impl LinkChaos {
    /// Injected delay before the next frame, in milliseconds (0 = none).
    pub(crate) fn delay_ms(&mut self) -> u64 {
        if self.max_delay_ms > 0 && self.rng.chance_per_mille(self.delay_per_mille) {
            1 + self.rng.below(self.max_delay_ms)
        } else {
            0
        }
    }
}

/// A tiny xorshift64* generator: deterministic, dependency-free, good
/// enough for fault injection (not for protocol randomness, which goes
/// through `bft-coin`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct XorShift {
    state: u64,
}

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point.
        XorShift { state: seed | 1 }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish draw in `[0, bound)`; `bound` must be nonzero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    pub(crate) fn chance_per_mille(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.below(1000) < per_mille as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.enabled());
        let mut link = cfg.link(NodeId::new(0), NodeId::new(1));
        for _ in 0..100 {
            assert_eq!(link.delay_ms(), 0);
        }
    }

    fn delays(cfg: &ChaosConfig, from: usize, to: usize, frames: usize) -> Vec<u64> {
        let mut link = cfg.link(NodeId::new(from), NodeId::new(to));
        (0..frames).map(|_| link.delay_ms()).collect()
    }

    #[test]
    fn per_link_streams_are_deterministic_and_distinct() {
        let cfg = ChaosConfig { seed: 7, delay_per_mille: 500, max_delay_ms: 9 };
        assert_eq!(delays(&cfg, 0, 1, 64), delays(&cfg, 0, 1, 64), "same link, same stream");
        assert_ne!(delays(&cfg, 0, 1, 64), delays(&cfg, 1, 0, 64), "direction changes the stream");
    }

    #[test]
    fn delay_rate_is_plausible() {
        let cfg = ChaosConfig { seed: 42, delay_per_mille: 100, max_delay_ms: 5 };
        let delayed = delays(&cfg, 2, 3, 10_000).into_iter().filter(|&d| d > 0).count();
        assert!((500..1500).contains(&delayed), "10% ±5% of 10k, got {delayed}");
    }

    #[test]
    fn delays_stay_within_one_to_the_bound() {
        let cfg = ChaosConfig { seed: 3, delay_per_mille: 1000, max_delay_ms: 4 };
        let all = delays(&cfg, 0, 1, 1000);
        assert!(all.iter().all(|d| (1..=4).contains(d)), "every frame delayed by 1..=4 ms");
        for bound in 1..=4 {
            assert!(all.contains(&bound), "{bound} ms never drawn");
        }
        let off = ChaosConfig { max_delay_ms: 0, ..cfg };
        assert!(!off.enabled(), "a zero bound turns the delay off");
        assert!(delays(&off, 0, 1, 100).iter().all(|&d| d == 0));
    }
}
