//! Stand-in for `rand` 0.8 (see `benchmark/README.md`, "Shims").
//!
//! Surface covered: `rand::rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen::<f64>()` (uniform in `[0, 1)`) and
//! `Rng::gen_range(lo..hi)` over `f64` ranges, plus the `std`, `std_rng` and
//! `small_rng` cargo features. `StdRng` is **SplitMix64**, not ChaCha12: the
//! same seed gives the same stream on every run and host, but not the stream
//! the published crate would give, so datasets generated under this shim
//! differ voxel-for-voxel from ones generated with the real `rand`.

use std::ops::Range;

/// Generators.
pub mod rngs {
    /// Deterministic SplitMix64 generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }
}

/// Types `Rng::gen` can produce.
pub trait Generate {
    /// Draws one value.
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Generate for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The sampling methods `mri::synth` uses.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A value of `T` (only `f64`, uniform in `[0, 1)`).
    fn gen<T: Generate>(&mut self) -> T {
        T::generate(self)
    }

    /// Uniform in `[range.start, range.end)`.
    ///
    /// # Panics
    /// If the range is empty, like the real crate.
    fn gen_range(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let v = range.start + (range.end - range.start) * self.gen::<f64>();
        // Rounding can land exactly on `end`; keep the half-open promise.
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn splitmix64_reference_vector() {
        // First outputs of SplitMix64 from state 0 (Vigna's reference
        // implementation).
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8).map(|_| rng.gen::<f64>()).collect::<Vec<f64>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn unit_floats_and_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
            let r = rng.gen_range(0.05..0.12);
            assert!((0.05..0.12).contains(&r));
        }
        assert!(
            (sum / 10_000.0 - 0.5).abs() < 0.02,
            "mean {}",
            sum / 10_000.0
        );
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(1).gen_range(1.0..1.0);
    }
}
