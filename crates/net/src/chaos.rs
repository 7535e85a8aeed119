//! Deterministic link-level chaos injection.
//!
//! The chaos layer models an unreliable *network under* the reliable
//! link abstraction, the way packet loss sits under TCP. Bracha's
//! asynchronous model requires eventual delivery on correct links, so a
//! "dropped" frame is not silently forgotten: the writer re-transmits
//! the same frame after a short retransmission timeout, preserving
//! per-link FIFO order and sequence contiguity. What chaos *does* create
//! is real delay, duplication (receivers must dedup by sequence number)
//! and outage windows (partitions) — the failure modes the reconnect and
//! dedup machinery exists to absorb.
//!
//! All randomness is a per-link xorshift generator seeded from the
//! configured seed and the link endpoints, so a given configuration
//! produces the same drop/duplicate/delay pattern per link on every run,
//! independent of thread scheduling.

use bft_types::hash::Fnv64;
use bft_types::NodeId;

/// A scheduled one-way link outage (partition window), in milliseconds
//  since run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkOutage {
    /// Sending side of the affected link.
    pub from: NodeId,
    /// Receiving side of the affected link.
    pub to: NodeId,
    /// Window start, ms since run start.
    pub start_ms: u64,
    /// Window end (exclusive), ms since run start.
    pub end_ms: u64,
}

/// Chaos configuration for a run. `Default` is a fully quiet network.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Seed for the per-link generators.
    pub seed: u64,
    /// Probability (per mille) that a frame transmission attempt is
    /// dropped on the wire and must be re-transmitted.
    pub drop_per_mille: u16,
    /// Probability (per mille) that a frame is sent twice.
    pub dup_per_mille: u16,
    /// Probability (per mille) that a frame is delayed before sending.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Scheduled one-way outage windows.
    pub outages: Vec<LinkOutage>,
    /// On each link's *first* reconnect, the writer pretends it lost its
    /// replay log and resumes from its send counter instead of replaying
    /// from sequence 1. Models a peer whose retransmit state did not
    /// survive the disconnect; the receiver must detect the resulting
    /// sequence gap and drop the connection.
    pub skip_first_replay: bool,
}

impl ChaosConfig {
    /// Whether any fault injection is configured.
    pub fn enabled(&self) -> bool {
        self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || (self.delay_per_mille > 0 && self.max_delay_ms > 0)
            || !self.outages.is_empty()
            || self.skip_first_replay
    }

    /// The chaos state for one directed link.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkChaos {
        let mut h = Fnv64::new();
        h.update_u64(self.seed);
        h.update(&(from.index() as u32).to_le_bytes());
        h.update(&(to.index() as u32).to_le_bytes());
        LinkChaos {
            rng: XorShift::new(h.finish()),
            drop_per_mille: self.drop_per_mille,
            dup_per_mille: self.dup_per_mille,
            delay_per_mille: self.delay_per_mille,
            max_delay_ms: self.max_delay_ms,
            outages: self
                .outages
                .iter()
                .copied()
                .filter(|o| o.from == from && o.to == to)
                .collect(),
            skip_replay: self.skip_first_replay,
        }
    }
}

/// Per-link chaos state, owned by that link's writer thread.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    rng: XorShift,
    drop_per_mille: u16,
    dup_per_mille: u16,
    delay_per_mille: u16,
    max_delay_ms: u64,
    outages: Vec<LinkOutage>,
    skip_replay: bool,
}

impl LinkChaos {
    /// One-shot: whether this reconnect should resume from the send
    /// counter instead of replaying the log. Arms at most once per link
    /// so the *second* reconnect recovers via a full replay.
    pub fn skip_replay_once(&mut self) -> bool {
        let skip = self.skip_replay;
        self.skip_replay = false;
        skip
    }

    /// Whether the current transmission attempt is lost on the wire.
    pub fn attempt_dropped(&mut self) -> bool {
        self.rng.chance_per_mille(self.drop_per_mille)
    }

    /// Whether the frame should be transmitted twice.
    pub fn duplicate(&mut self) -> bool {
        self.rng.chance_per_mille(self.dup_per_mille)
    }

    /// Injected delay before this frame, in milliseconds (0 = none).
    pub fn delay_ms(&mut self) -> u64 {
        if self.max_delay_ms > 0 && self.rng.chance_per_mille(self.delay_per_mille) {
            1 + self.rng.below(self.max_delay_ms)
        } else {
            0
        }
    }

    /// If the link is inside an outage window at `now_ms`, the window's
    /// end; otherwise `None`.
    pub fn outage_until(&self, now_ms: u64) -> Option<u64> {
        self.outages.iter().find(|o| o.start_ms <= now_ms && now_ms < o.end_ms).map(|o| o.end_ms)
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
            assert!(!link.attempt_dropped());
            assert!(!link.duplicate());
            assert_eq!(link.delay_ms(), 0);
        }
    }

    #[test]
    fn per_link_streams_are_deterministic_and_distinct() {
        let cfg = ChaosConfig { seed: 7, drop_per_mille: 500, ..ChaosConfig::default() };
        let drops = |from: usize, to: usize| -> Vec<bool> {
            let mut link = cfg.link(NodeId::new(from), NodeId::new(to));
            (0..64).map(|_| link.attempt_dropped()).collect()
        };
        assert_eq!(drops(0, 1), drops(0, 1), "same link, same stream");
        assert_ne!(drops(0, 1), drops(1, 0), "direction changes the stream");
    }

    #[test]
    fn drop_rate_is_plausible() {
        let cfg = ChaosConfig { seed: 42, drop_per_mille: 100, ..ChaosConfig::default() };
        let mut link = cfg.link(NodeId::new(2), NodeId::new(3));
        let dropped = (0..10_000).filter(|_| link.attempt_dropped()).count();
        assert!((500..1500).contains(&dropped), "10% ±5% of 10k, got {dropped}");
    }

    #[test]
    fn outage_windows() {
        let cfg = ChaosConfig {
            outages: vec![LinkOutage {
                from: NodeId::new(0),
                to: NodeId::new(1),
                start_ms: 10,
                end_ms: 20,
            }],
            ..ChaosConfig::default()
        };
        let link = cfg.link(NodeId::new(0), NodeId::new(1));
        assert_eq!(link.outage_until(9), None);
        assert_eq!(link.outage_until(10), Some(20));
        assert_eq!(link.outage_until(19), Some(20));
        assert_eq!(link.outage_until(20), None);
        let other = cfg.link(NodeId::new(1), NodeId::new(0));
        assert_eq!(other.outage_until(15), None, "outages are one-way");
    }
}
