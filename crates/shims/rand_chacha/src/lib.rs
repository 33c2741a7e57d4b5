//! Offline vendored stand-in for `rand_chacha`.
//!
//! Implements a genuine ChaCha stream-cipher keystream generator (the
//! same algorithm family as the upstream crate) behind the vendored
//! [`rand`] shim's traits. Streams are **not** guaranteed to be
//! bit-compatible with the upstream `rand_chacha` — every determinism
//! test in this repository compares two runs of the same seeded code,
//! never upstream golden values — but the statistical quality is the
//! real thing: a full ChaCha quarter-round core over a 256-bit key with
//! a 64-bit block counter.
//!
//! A refill computes four consecutive blocks at once, lane-wise across
//! the blocks: with SSE2 on x86_64 (part of that target's baseline, so
//! there is no runtime detection), with the scalar block function
//! elsewhere. The keystream is the same word for word as computing one
//! block per refill.

use rand::{RngCore, SeedableRng};

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Words buffered per refill: four 16-word blocks.
const BUF_WORDS: usize = 64;

/// One ChaCha quarter round.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The scalar ChaCha block function: keystream block `counter` of
/// `stream` under `key`.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block<const ROUNDS: usize>(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    s[4..12].copy_from_slice(key);
    s[12] = counter as u32;
    s[13] = (counter >> 32) as u32;
    s[14] = stream as u32;
    s[15] = (stream >> 32) as u32;
    let input = s;
    for _ in 0..ROUNDS / 2 {
        // Column round.
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (out, inp) in s.iter_mut().zip(&input) {
        *out = out.wrapping_add(*inp);
    }
    s
}

/// Blocks `counter..counter + 3` (wrapping), block-major into `out`,
/// one scalar block at a time.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn blocks4_scalar<const ROUNDS: usize>(
    key: &[u32; 8],
    counter: u64,
    stream: u64,
    out: &mut [u32; BUF_WORDS],
) {
    for (k, chunk) in out.chunks_exact_mut(16).enumerate() {
        chunk.copy_from_slice(&block::<ROUNDS>(key, counter.wrapping_add(k as u64), stream));
    }
}

#[cfg(not(target_arch = "x86_64"))]
use blocks4_scalar as blocks4;
#[cfg(target_arch = "x86_64")]
use sse2::blocks4;

#[cfg(target_arch = "x86_64")]
mod sse2 {
    //! The four-block refill over SSE2: vector `x[i]` holds state word
    //! `i` of all four blocks, one block per lane, so every quarter round
    //! advances the four blocks together.

    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_shufflehi_epi16,
        _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32,
        _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    use super::{BUF_WORDS, SIGMA};

    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// Rotation by 16 swaps the 16-bit halves of every lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl16(x: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(x))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// Blocks `counter..counter + 3` (wrapping), block-major into `out`;
    /// word for word the scalar block function's output.
    pub(super) fn blocks4<const ROUNDS: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; BUF_WORDS],
    ) {
        // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64
        // CPU has it.
        unsafe { blocks4_sse2::<ROUNDS>(key, counter, stream, out) }
    }

    #[target_feature(enable = "sse2")]
    fn blocks4_sse2<const ROUNDS: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; BUF_WORDS],
    ) {
        let splat = |w: u32| _mm_set1_epi32(w as i32);
        // Lane `k` is block `counter + k`; `_mm_set_epi32` takes the
        // highest lane first.
        let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|k| counter.wrapping_add(k));
        let counter_lo = _mm_set_epi32(c3 as i32, c2 as i32, c1 as i32, c0 as i32);
        let counter_hi = _mm_set_epi32(
            (c3 >> 32) as i32,
            (c2 >> 32) as i32,
            (c1 >> 32) as i32,
            (c0 >> 32) as i32,
        );
        let input = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            counter_lo,
            counter_hi,
            splat(stream as u32),
            splat((stream >> 32) as u32),
        ];
        let mut x = input;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        // Add the input, then transpose each group of four words from
        // word-major lanes to block-major rows.
        for g in 0..4 {
            let [a, b, c, d] = [0, 1, 2, 3].map(|k| _mm_add_epi32(x[4 * g + k], input[4 * g + k]));
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            let rows = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (blk, row) in rows.into_iter().enumerate() {
                let dst = &mut out[16 * blk + 4 * g..16 * blk + 4 * g + 4];
                // SAFETY: `dst` is four in-bounds, writable `u32`s (16
                // bytes), and the store is unaligned.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), row) };
            }
        }
    }
}

/// A ChaCha keystream generator with `R` rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaChaRng<const ROUNDS: usize> {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// 64-bit block counter (words 12-13 of the state) of the block after
    /// the buffered four.
    counter: u64,
    /// 64-bit stream id (words 14-15 of the state).
    stream: u64,
    /// Four consecutive keystream blocks, block-major.
    buf: [u32; BUF_WORDS],
    /// Next unread word within `buf`; `BUF_WORDS` means exhausted.
    index: usize,
}

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        blocks4::<ROUNDS>(&self.key, self.counter, self.stream, &mut self.buf);
        self.index = 0;
        self.counter = self.counter.wrapping_add(4);
    }

    /// Selects an independent keystream (matches the upstream
    /// `set_stream` API shape).
    ///
    /// The rest of the block being read is dropped, and the new stream
    /// starts at the block after it.
    pub fn set_stream(&mut self, stream: u64) {
        let unread_blocks = (BUF_WORDS - self.index) / 16;
        self.counter = self.counter.wrapping_sub(unread_blocks as u64);
        self.stream = stream;
        self.index = BUF_WORDS;
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let i = self.index;
        if i + 1 < BUF_WORDS {
            self.index = i + 2;
            return u64::from(self.buf[i]) | u64::from(self.buf[i + 1]) << 32;
        }
        // The pair straddles the end of the buffer.
        let lo = u64::from(self.buf[i]);
        self.refill();
        self.index = 1;
        lo | u64::from(self.buf[0]) << 32
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self { key, counter: 0, stream: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

/// ChaCha with 8 rounds — the fast simulation-grade variant.
pub type ChaCha8Rng = ChaChaRng<8>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<12>;
/// ChaCha with 20 rounds — the full-strength variant.
pub type ChaCha20Rng = ChaChaRng<20>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    #[test]
    fn chacha20_matches_rfc7539_zero_vector() {
        // RFC 7539 Appendix A.1 test vector #1: all-zero key and nonce,
        // block counter 0. First keystream bytes:
        // 76 b8 e0 ad a0 f1 3d 90 40 5d 6a e5 53 86 bd 28 ...
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        let expected: [u32; 8] = [
            0xade0_b876,
            0x903d_f1a0,
            0xe56a_5d40,
            0x28bd_8653,
            0xb819_d2bd,
            0x1aed_8da0,
            0xccef_36a8,
            0xc70d_778b,
        ];
        for &want in &expected {
            assert_eq!(rng.next_u32(), want, "keystream diverges from RFC 7539");
        }
    }

    /// The first 128 words of `ChaCha8Rng::seed_from_u64(42)`, as the
    /// one-block-per-refill generator produced them.
    #[test]
    fn seed_42_keystream_is_pinned() {
        #[rustfmt::skip]
        const WORDS: [u32; 128] = [
            0x87c9_1afc, 0x3115_9ef9, 0xb416_9001, 0x1755_9844, 0x9ad9_a69f, 0xf7d0_afbf,
            0xfd37_495a, 0xb920_7ad5, 0x6132_9c11, 0x072d_b0db, 0xeca2_6593, 0x4051_bc3b,
            0xcc47_03b6, 0xbfaa_b970, 0x8f89_d223, 0xaff5_425d, 0x6b94_7e05, 0xf687_5512,
            0x953f_9601, 0x2670_6e48, 0x6a9f_2b2f, 0x54ff_14b5, 0x150e_06ce, 0x9cf9_c5f7,
            0x8e1d_738c, 0xe350_7e34, 0x4c28_e1a6, 0xc89c_0205, 0x3852_0378, 0xb51f_dc8f,
            0xb1c8_96b5, 0x6384_b6fe, 0x13e2_8956, 0xa1d6_606a, 0xc623_20de, 0x0094_99f6,
            0xeecf_5513, 0x66e8_79a9, 0x49ee_5d3a, 0xc96f_f513, 0x31d6_b0ea, 0x21ad_4a95,
            0x9387_9897, 0x1610_979f, 0xb7c9_9eb3, 0xc32d_7ad1, 0xc7f0_30f3, 0x6f09_6b0d,
            0x6777_749f, 0x1d32_dd7d, 0x4b6a_a339, 0xf79a_ed1b, 0x6ad8_2589, 0x0b6c_8342,
            0x3a4d_e16e, 0x987d_a572, 0xc0a4_2ce1, 0x2b38_cfc9, 0xc41d_2633, 0xaac8_1189,
            0x0d6b_6a1c, 0xefd8_97c0, 0xbeef_b700, 0xea89_20dc, 0x7e5f_1558, 0x94ad_96ac,
            0x2d4b_b141, 0x1560_1912, 0x9765_faf7, 0x20ec_c5e7, 0xd641_59dd, 0x9b6c_f9fe,
            0x5363_135a, 0x12a3_3a24, 0xbab0_636b, 0xf3da_0133, 0x416f_5457, 0xee79_04ce,
            0xce88_4231, 0x4430_3e54, 0x16b4_97d0, 0x5cc1_0863, 0x69d0_f179, 0x172c_3651,
            0xd709_7e71, 0xd2a6_3572, 0xfcff_99a0, 0x9151_a6ec, 0x3d7d_5868, 0x0f19_07c0,
            0x5957_a05c, 0x8c5b_b9a3, 0x8ea9_3875, 0x23ad_fbc6, 0x50b1_51ef, 0x452f_54e1,
            0x13b9_5903, 0x62ef_d4ba, 0x944b_2f46, 0x2e21_0aae, 0x9795_a4b9, 0x4047_34be,
            0x195f_4099, 0x45d5_2b23, 0x9403_fbce, 0xca8b_026e, 0xc42d_22a0, 0xd3e2_6f37,
            0x020d_7eb9, 0x1dbf_c9df, 0xd2ed_2b9a, 0xbdb8_36b7, 0xc406_101f, 0x6a74_2fd4,
            0xe329_5970, 0x552a_3357, 0x05e7_835a, 0x1966_e63b, 0xc549_d00d, 0xc364_89dd,
            0x4bc3_0f17, 0x9b29_6980, 0x2ba1_7034, 0xff82_bada, 0x8e4a_dc06, 0x75e6_ae37,
            0xd636_71e1, 0x2f23_037d,
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let got: Vec<u32> = (0..128).map(|_| rng.next_u32()).collect();
        assert_eq!(got, WORDS);
    }

    /// Block counters around the 2³² carry into word 13 and the 2⁶⁴ wrap.
    const EDGE_COUNTERS: [u64; 6] =
        [0, (1 << 32) - 3, (1 << 32) - 1, u64::MAX - 2, u64::MAX, u64::MAX - 5];

    fn start_counter(rng: &mut SmallRng, case: usize) -> u64 {
        EDGE_COUNTERS.get(case).copied().unwrap_or_else(|| rng.gen())
    }

    fn check_blocks4<const ROUNDS: usize>(key: &[u32; 8], counter: u64, stream: u64) {
        let (mut fast, mut slow) = ([0; BUF_WORDS], [0; BUF_WORDS]);
        blocks4::<ROUNDS>(key, counter, stream, &mut fast);
        blocks4_scalar::<ROUNDS>(key, counter, stream, &mut slow);
        assert_eq!(fast, slow, "{ROUNDS} rounds, counter {counter:#x}, stream {stream:#x}");
    }

    #[test]
    fn four_block_refill_matches_the_scalar_block_function() {
        let mut rng = SmallRng::seed_from_u64(7);
        for case in 0..300 {
            let key: [u32; 8] = core::array::from_fn(|_| rng.gen());
            let counter = start_counter(&mut rng, case);
            let stream = rng.gen();
            check_blocks4::<8>(&key, counter, stream);
            check_blocks4::<12>(&key, counter, stream);
            check_blocks4::<20>(&key, counter, stream);
        }
    }

    /// The generator as it stood with one block per refill and
    /// `next_u64` as two `next_u32` calls, over the scalar block function.
    struct OneBlock {
        key: [u32; 8],
        counter: u64,
        stream: u64,
        block: [u32; 16],
        index: usize,
    }

    impl OneBlock {
        fn next_u32(&mut self) -> u32 {
            if self.index >= 16 {
                self.block = block::<8>(&self.key, self.counter, self.stream);
                self.index = 0;
                self.counter = self.counter.wrapping_add(1);
            }
            self.index += 1;
            self.block[self.index - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            lo | u64::from(self.next_u32()) << 32
        }

        fn set_stream(&mut self, stream: u64) {
            self.stream = stream;
            self.index = 16;
        }
    }

    fn pair(key: [u32; 8], counter: u64, stream: u64) -> (ChaCha8Rng, OneBlock) {
        let fast = ChaCha8Rng { key, counter, stream, buf: [0; BUF_WORDS], index: BUF_WORDS };
        (fast, OneBlock { key, counter, stream, block: [0; 16], index: 16 })
    }

    #[test]
    fn keystream_matches_the_one_block_generator_under_mixed_draws() {
        let mut rng = SmallRng::seed_from_u64(11);
        for case in 0..200 {
            let key: [u32; 8] = core::array::from_fn(|_| rng.gen());
            let (mut fast, mut slow) = pair(key, start_counter(&mut rng, case), rng.gen());
            for op in 0..400 {
                match rng.gen_range(0..16u32) {
                    0 => {
                        let stream = rng.gen();
                        fast.set_stream(stream);
                        slow.set_stream(stream);
                    }
                    1..=6 => assert_eq!(fast.next_u32(), slow.next_u32(), "case {case} op {op}"),
                    _ => assert_eq!(fast.next_u64(), slow.next_u64(), "case {case} op {op}"),
                }
            }
        }
    }

    /// Every word offset into the buffer, then a `next_u64` that may
    /// straddle the 64-word boundary and a `set_stream` mid-buffer.
    #[test]
    fn keystream_matches_at_every_buffer_offset() {
        for counter in EDGE_COUNTERS {
            for offset in 0..=2 * BUF_WORDS + 1 {
                let (mut fast, mut slow) = pair([0x0123_4567; 8], counter, 3);
                for _ in 0..offset {
                    assert_eq!(fast.next_u32(), slow.next_u32());
                }
                for _ in 0..3 {
                    assert_eq!(fast.next_u64(), slow.next_u64(), "offset {offset}");
                }
                fast.set_stream(9);
                slow.set_stream(9);
                for _ in 0..BUF_WORDS + 3 {
                    assert_eq!(
                        fast.next_u64(),
                        slow.next_u64(),
                        "offset {offset} after set_stream"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| c.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_streams_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        b.set_stream(9);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniformity_smoke() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let ones: u32 = (0..1000).map(|_| rng.next_u32().count_ones()).sum();
        let bit_rate = ones as f64 / 32_000.0;
        assert!((bit_rate - 0.5).abs() < 0.01, "bit rate {bit_rate}");
    }
}
