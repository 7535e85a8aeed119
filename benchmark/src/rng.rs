//! SplitMix64: the benchmark's only randomness source. Every input the
//! program receives (tx bytes, keys, client→gateway assignment, coin and
//! scheduler seeds) is drawn from streams forked off `--seed`.

/// A seeded 64-bit generator (Steele/Lea/Flood SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a consumer
    /// never shifts the values another consumer sees.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// at the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::fork(7, "tx");
        let mut b = Rng::fork(7, "tx");
        let mut c = Rng::fork(7, "keys");
        let mut d = Rng::fork(8, "tx");
        let (x, y) = (a.next_u64(), b.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn fill_covers_ragged_tails_and_shuffle_permutes() {
        let mut buf = [0u8; 13];
        Rng::new(1).fill(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
        let mut v: Vec<u32> = (0..32).collect();
        Rng::new(2).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
