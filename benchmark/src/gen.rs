//! The one seeded generator behind every benchmark input.
//!
//! `--seed` is the only source of variation between two runs of the same
//! binary: vectors, images, the OSEM event stream (through the
//! reconstruction config's seed) and the serving submission order are all
//! drawn from [`Gen`] streams derived from it. The program under test sees
//! only the generated data, never the seed.

/// Seed used when none is given on the command line (the paper's conference
/// date, as in `osem::ReconstructionConfig`).
pub const DEFAULT_SEED: u64 = 20120521;

/// SplitMix64: tiny, statistically solid for input generation, and every
/// output is a pure function of `(seed, stream, position)`.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// A generator for one named input stream of a run. Distinct `stream`
    /// ids give independent sequences under the same seed.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        // Decorrelate nearby (seed, stream) pairs.
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..bound` (`bound > 0`; the modulo bias at the
    /// bounds used here, all < 2^16, is below 2^-48).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f32` in `[lo, hi)` with 24 random mantissa bits.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    /// `n` uniform floats in `[lo, hi)`.
    pub fn f32_vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32_in(lo, hi)).collect()
    }

    /// `n` floats on the dyadic grid `{0, 1/steps, …, (steps-1)/steps}`
    /// (`steps` a power of two). Products and sums of such values stay exact
    /// in `f32` far longer than random mantissas do, so a sequential `f32`
    /// fold over them agrees with an `f64` fold regardless of association
    /// order — what `reduce_scan` needs to verify against a tolerance that
    /// random data would sit on the edge of.
    pub fn dyadic_vec(&mut self, n: usize, steps: u64) -> Vec<f32> {
        (0..n)
            .map(|_| self.below(steps) as f32 / steps as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let a = Gen::new(7, 1).f32_vec(64, -1.0, 1.0);
        let b = Gen::new(7, 1).f32_vec(64, -1.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn streams_and_seeds_differ() {
        let base = Gen::new(7, 1).f32_vec(64, -1.0, 1.0);
        assert_ne!(base, Gen::new(7, 2).f32_vec(64, -1.0, 1.0));
        assert_ne!(base, Gen::new(8, 1).f32_vec(64, -1.0, 1.0));
    }

    #[test]
    fn ranges_hold() {
        let mut g = Gen::new(DEFAULT_SEED, 3);
        assert!(g
            .f32_vec(4096, -2.0, 2.0)
            .iter()
            .all(|x| (-2.0..2.0).contains(x)));
        assert!(g
            .dyadic_vec(4096, 8)
            .iter()
            .all(|x| (0.0..1.0).contains(x) && (x * 8.0).fract() == 0.0));
        assert!((0..4096).all(|_| g.below(64) < 64));
    }
}
