//! Property tests over the core data structures and invariants:
//! co-occurrence accumulation, sparse equivalence, feature bounds,
//! chunk-grid tiling, storage round-trips and quantization.
//!
//! They name only `haralick` and `mri`, so they live here, in the outermost
//! crate that builds without a registry. The generated inputs come from an
//! in-file generator with a fixed base seed per property, so the suite needs
//! no dev-dependency and a failing case prints the seed that reproduces it.

use haralick::features::MatrixStats;
use haralick::quantize::Quantizer;
use haralick::window::SlidingWindow;
use haralick::{
    compute_features, CoMatrix, Dims4, Direction, DirectionSet, Feature, FeatureSelection,
    LevelVolume, Point4, Region4, RoiShape, SparseAccumulator, SparseCoMatrix,
};
use mri::chunks::ChunkGrid;
use mri::raw::RawVolume;

const CASES: u32 = 64;

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    /// A value in `lo..=hi`.
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.next() as usize % (hi - lo + 1)
    }
}

/// Names the failing case when a property panics inside it.
struct CaseSeed(u32);

impl Drop for CaseSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case seed {:#010x}", self.0);
        }
    }
}

/// Runs `property` on `CASES` generators seeded from `base_seed`.
fn for_each_case(base_seed: u32, property: impl Fn(&mut Lcg)) {
    for case in 0..CASES {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let _named_on_panic = CaseSeed(seed);
        property(&mut Lcg(seed));
    }
}

/// A small random 4D level volume with `Ng = levels`.
fn level_volume(rng: &mut Lcg, levels: u16) -> LevelVolume {
    let dims = Dims4::new(
        rng.in_range(2, 6),
        rng.in_range(2, 6),
        rng.in_range(1, 3),
        rng.in_range(1, 3),
    );
    let data = (0..dims.len())
        .map(|_| rng.in_range(0, usize::from(levels) - 1) as u8)
        .collect();
    LevelVolume::from_raw(dims, data, levels).unwrap()
}

/// A random non-zero unit displacement.
fn direction(rng: &mut Lcg) -> Direction {
    loop {
        let mut step = || rng.in_range(0, 2) as i32 - 1;
        let (a, b, c, d) = (step(), step(), step(), step());
        if (a, b, c, d) != (0, 0, 0, 0) {
            return Direction::new(a, b, c, d);
        }
    }
}

#[test]
fn cooccurrence_is_symmetric_and_conserves_total() {
    for_each_case(0x4b50_0001, |rng| {
        let (vol, d) = (level_volume(rng, 8), direction(rng));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::single(d));
        assert!(m.is_symmetric());
        let sum: u64 = m.as_slice().iter().map(|&c| u64::from(c)).sum();
        assert_eq!(sum, m.total());
        // Total is even: every pair counted forward and backward.
        assert_eq!(m.total() % 2, 0);
    });
}

#[test]
fn opposite_displacements_give_identical_matrices() {
    for_each_case(0x4b50_0002, |rng| {
        let (vol, d) = (level_volume(rng, 6), direction(rng));
        let f = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::single(d));
        let b = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::single(d.negate()));
        assert_eq!(f, b);
    });
}

#[test]
fn sparse_accumulation_equals_dense_conversion() {
    for_each_case(0x4b50_0003, |rng| {
        let (vol, d) = (level_volume(rng, 8), direction(rng));
        let dirs = DirectionSet::single(d);
        let dense = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let via_dense = SparseCoMatrix::from_dense(&dense);
        let direct = SparseAccumulator::from_region(&vol, vol.full_region(), &dirs);
        assert_eq!(via_dense, direct);
    });
}

#[test]
fn features_agree_across_representations() {
    for_each_case(0x4b50_0004, |rng| {
        let (vol, d) = (level_volume(rng, 8), direction(rng));
        let dirs = DirectionSet::single(d);
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let sel = FeatureSelection::all();
        let a = compute_features(&m.stats_checked(), &sel);
        let b = compute_features(&m.stats_naive(), &sel);
        let s = SparseCoMatrix::from_dense(&m);
        let c = compute_features(&MatrixStats::from_sparse(&s), &sel);
        for f in Feature::ALL {
            let (x, y, z) = (a.get(f).unwrap(), b.get(f).unwrap(), c.get(f).unwrap());
            assert!((x - y).abs() < 1e-9, "{f:?} checked {x} vs naive {y}");
            assert!((x - z).abs() < 1e-9, "{f:?} checked {x} vs sparse {z}");
        }
    });
}

#[test]
fn feature_bounds_hold() {
    for_each_case(0x4b50_0005, |rng| {
        let (vol, d) = (level_volume(rng, 8), direction(rng));
        let dirs = DirectionSet::single(d);
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        let get = |feat| f.get(feat).unwrap();
        assert!((0.0..=1.0).contains(&get(Feature::AngularSecondMoment)));
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&get(Feature::Correlation)));
        assert!((0.0..=1.0).contains(&get(Feature::InverseDifferenceMoment)));
        assert!(get(Feature::Entropy) >= 0.0);
        assert!(get(Feature::SumEntropy) >= 0.0);
        assert!(get(Feature::DifferenceEntropy) >= 0.0);
        assert!(get(Feature::SumOfSquares) >= 0.0);
        assert!(get(Feature::SumVariance) >= -1e-12);
        assert!(get(Feature::DifferenceVariance) >= -1e-12);
        assert!((0.0..=1.0 + 1e-9).contains(&get(Feature::InfoMeasureCorrelation2)));
        assert!((0.0..=1.0 + 1e-9).contains(&get(Feature::MaximalCorrelationCoefficient)));
    });
}

#[test]
fn level_shift_preserves_shiftinvariant_features() {
    for_each_case(0x4b50_0006, |rng| {
        let (vol, d) = (level_volume(rng, 4), direction(rng));
        let shift = rng.in_range(1, 3) as u8;
        // Shifting all gray levels by a constant leaves contrast-type
        // features unchanged (they depend only on level differences and
        // probabilities, not absolute levels).
        let dirs = DirectionSet::single(d);
        let shifted_data: Vec<u8> = vol.as_slice().iter().map(|&v| v + shift).collect();
        let shifted = LevelVolume::from_raw(vol.dims(), shifted_data, 8).unwrap();
        let widened = LevelVolume::from_raw(vol.dims(), vol.as_slice().to_vec(), 8).unwrap();
        let ma = CoMatrix::from_region(&widened, widened.full_region(), &dirs);
        let mb = CoMatrix::from_region(&shifted, shifted.full_region(), &dirs);
        let sel = FeatureSelection::of(&[
            Feature::AngularSecondMoment,
            Feature::Contrast,
            Feature::InverseDifferenceMoment,
            Feature::Entropy,
            Feature::DifferenceEntropy,
        ]);
        let fa = compute_features(&ma.stats_checked(), &sel);
        let fb = compute_features(&mb.stats_checked(), &sel);
        for feat in sel.iter() {
            let (x, y) = (fa.get(feat).unwrap(), fb.get(feat).unwrap());
            assert!((x - y).abs() < 1e-9, "{feat:?}: {x} vs {y}");
        }
    });
}

#[test]
fn chunk_grid_tiles_outputs_exactly() {
    for_each_case(0x4b50_0007, |rng| {
        let dims = Dims4::new(
            rng.in_range(12, 39),
            rng.in_range(12, 39),
            rng.in_range(3, 9),
            rng.in_range(3, 9),
        );
        let (cx, cz) = (rng.in_range(12, 23), rng.in_range(3, 5));
        let roi = RoiShape::from_lengths(5, 5, 2, 2);
        let chunk_dims = Dims4::new(cx, cx, cz, cz);
        let grid = ChunkGrid::new(dims, roi, chunk_dims);
        let mut covered = vec![false; grid.out_dims().len()];
        for chunk in grid.chunks() {
            assert!(dims.region().contains_region(&chunk.input));
            for p in chunk.owned_output.points() {
                let i = grid.out_dims().index(p);
                assert!(!covered[i], "output {p:?} owned twice");
                covered[i] = true;
                assert!(chunk.input.contains_region(&roi.region_at(p)));
            }
        }
        assert!(covered.iter().all(|&c| c), "uncovered outputs");
    });
}

#[test]
fn raw_volume_extract_paste_roundtrip() {
    for_each_case(0x4b50_0008, |rng| {
        let dims = Dims4::new(
            rng.in_range(4, 9),
            rng.in_range(4, 9),
            rng.in_range(2, 4),
            rng.in_range(2, 4),
        );
        let seed = rng.in_range(0, 999) as u16;
        let data: Vec<u16> = (0..dims.len())
            .map(|i| (i as u16).wrapping_mul(seed))
            .collect();
        let vol = RawVolume::new(dims, data);
        let r = Region4::new(
            Point4::new(1, 1, 0, 0),
            Dims4::new(dims.x - 2, dims.y - 2, dims.z - 1, dims.t - 1),
        );
        let sub = vol.extract(r);
        let mut blank = RawVolume::zeros(dims);
        blank.paste(&sub, r.origin);
        for p in r.points() {
            assert_eq!(blank.get(p), vol.get(p));
        }
        // Byte serialization round-trips too.
        let back = RawVolume::from_le_bytes(sub.dims(), &sub.to_le_bytes());
        assert_eq!(back, sub);
    });
}

#[test]
fn quantizer_is_monotone_and_in_range() {
    for_each_case(0x4b50_0009, |rng| {
        let levels = rng.in_range(2, 63) as u16;
        let lo = rng.in_range(0, 999) as u16;
        let span = rng.in_range(1, 4999) as u16;
        let mut sorted: Vec<u16> = (0..rng.in_range(1, 49))
            .map(|_| rng.in_range(0, 5999) as u16)
            .collect();
        let q = Quantizer::linear(levels, lo, lo.saturating_add(span));
        sorted.sort_unstable();
        let mut prev = 0u8;
        for (i, &v) in sorted.iter().enumerate() {
            let l = q.level_of(v);
            assert!((l as u16) < levels);
            if i > 0 {
                assert!(l >= prev, "monotonicity violated");
            }
            prev = l;
        }
    });
}

#[test]
fn sliding_window_equals_rebuild_everywhere() {
    for_each_case(0x4b50_000a, |rng| {
        let (vol, d) = (level_volume(rng, 6), direction(rng));
        let dims = vol.dims();
        let roi = Dims4::new(
            (dims.x / 2).max(1),
            (dims.y / 2).max(1),
            dims.z.min(2),
            dims.t.min(2),
        );
        let dirs = DirectionSet::single(d);
        let slides = dims.x - roi.x;
        let mut win = SlidingWindow::new(&vol, &dirs, roi, Point4::ZERO);
        for step in 1..=slides {
            win.slide_x();
            let expect =
                CoMatrix::from_region(&vol, Region4::new(Point4::new(step, 0, 0, 0), roi), &dirs);
            assert_eq!(win.matrix(), &expect, "divergence at slide {step}");
        }
    });
}

#[test]
fn direction_set_never_contains_opposites() {
    for_each_case(0x4b50_000b, |rng| {
        let dirs: Vec<Direction> = (0..rng.in_range(1, 19)).map(|_| direction(rng)).collect();
        let set = DirectionSet::new(dirs);
        for (i, a) in set.iter().enumerate() {
            for b in set.directions()[i + 1..].iter() {
                assert!(*a != b.negate(), "{a} and {b} are opposites");
                assert!(a != b, "duplicate {a}");
            }
        }
    });
}
