//! The AVX2 interpolation kernel: split-nibble GF(2⁸) products, 32 bytes
//! per instruction.
//!
//! Multiplying by a coefficient `c` is linear over XOR, so
//! `c · b = lo[b & 15] ^ hi[b >> 4]` with the two 16-entry
//! [`gf256::nibble_tables`] of `c`, and `vpshufb` looks up 32 such
//! entries at once (the tables are repeated in both 128-bit lanes). The
//! kernel walks the shards in blocks of [`BLOCK`] chunks: each 32-byte
//! source chunk is loaded and split into its nibbles once, then reused
//! for every target, whose block is summed in place while it sits in L1.
//! The output is bit-identical to the scalar kernel's.
//!
//! This is the crate's one `unsafe` module: calling the
//! `#[target_feature]` kernel after detection, and the unaligned vector
//! load and store, each of which covers one whole `[u8; 32]`.

use crate::gf256;
use std::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_xor_si256,
};

/// Bytes per vector.
const WIDTH: usize = 32;

/// Evaluates the whole 32-byte chunks of every output, where `coeffs[t]`
/// holds target `t`'s coefficient for each shard, and returns how many
/// leading bytes of each output that covered. Returns 0, having written
/// nothing, when the host lacks AVX2, there are no shards, or a shard or
/// output is shorter than the first output's chunked length: the caller's
/// scalar kernel then covers everything.
pub(crate) fn interpolate(coeffs: &[Vec<u8>], shards: &[&[u8]], outs: &mut [&mut [u8]]) -> usize {
    let wide = outs.first().map_or(0, |out| out.len()) / WIDTH * WIDTH;
    let fits = |len: usize| len >= wide;
    if wide == 0
        || shards.is_empty()
        || !shards.iter().all(|s| fits(s.len()))
        || !outs.iter().all(|o| fits(o.len()))
        || !is_x86_feature_detected!("avx2")
    {
        return 0;
    }
    let tables: Vec<[[u8; WIDTH]; 2]> = coeffs
        .iter()
        .flatten()
        .map(|&c| gf256::nibble_tables(c).map(|half| std::array::from_fn(|i| half[i % 16])))
        .collect();
    let sources: Vec<&[[u8; WIDTH]]> = shards.iter().map(|s| s[..wide].as_chunks().0).collect();
    let mut targets: Vec<&mut [[u8; WIDTH]]> =
        outs.iter_mut().map(|o| o[..wide].as_chunks_mut().0).collect();
    // SAFETY: the host supports AVX2, checked just above.
    unsafe { kernel(&tables, &sources, &mut targets) };
    wide
}

/// Chunks per block: a block of every source, split, and of every output
/// stays in L1 while all targets are evaluated over it.
const BLOCK: usize = 16;

/// `tables[t * sources.len() + j]` holds the nibble tables of target `t`'s
/// coefficient for source `j`; every slice has the same chunk count.
#[target_feature(enable = "avx2")]
fn kernel(
    tables: &[[[u8; WIDTH]; 2]],
    sources: &[&[[u8; WIDTH]]],
    targets: &mut [&mut [[u8; WIDTH]]],
) {
    let mask = _mm256_set1_epi8(0x0f);
    // Source `j`'s block, split: `split[j * BLOCK + i]` holds the low and
    // high nibbles of its chunk `i`.
    let mut split = vec![(_mm256_setzero_si256(), _mm256_setzero_si256()); sources.len() * BLOCK];
    let chunks = targets.first().map_or(0, |t| t.len());
    for start in (0..chunks).step_by(BLOCK) {
        let block = start..chunks.min(start + BLOCK);
        for (split, source) in split.chunks_exact_mut(BLOCK).zip(sources) {
            for (nibbles, chunk) in split.iter_mut().zip(&source[block.clone()]) {
                let v = load(chunk);
                let hi = _mm256_srli_epi16::<4>(v);
                *nibbles = (_mm256_and_si256(v, mask), _mm256_and_si256(hi, mask));
            }
        }
        for (target, tables) in targets.iter_mut().zip(tables.chunks_exact(sources.len())) {
            let out = &mut target[block.clone()];
            for (j, (split, [lo, hi])) in split.chunks_exact(BLOCK).zip(tables).enumerate() {
                let (lo_table, hi_table) = (load(lo), load(hi));
                for (chunk, &(lo, hi)) in out.iter_mut().zip(split) {
                    let product = _mm256_xor_si256(
                        _mm256_shuffle_epi8(lo_table, lo),
                        _mm256_shuffle_epi8(hi_table, hi),
                    );
                    let sum = if j == 0 { product } else { _mm256_xor_si256(load(chunk), product) };
                    store(chunk, sum);
                }
            }
        }
    }
}

#[inline]
#[target_feature(enable = "avx2")]
fn load(chunk: &[u8; WIDTH]) -> __m256i {
    // SAFETY: `chunk` is 32 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn store(chunk: &mut [u8; WIDTH], v: __m256i) {
    // SAFETY: `chunk` is 32 writable bytes, and `storeu` needs no alignment.
    unsafe { _mm256_storeu_si256(chunk.as_mut_ptr().cast(), v) }
}
