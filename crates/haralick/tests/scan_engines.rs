//! The fused scan engine is **bit-identical** to the sequential reference
//! scan (`raster_scan`) across seeded random volumes, ROI shapes, direction
//! sets and all four co-occurrence representations, at the shapes the
//! repository's benchmark times, and on degenerate geometries.
//!
//! Bit-identicality (not just tolerance) holds because the fused kernel
//! replays the reference's exact floating-point operation sequence: the
//! support-mask sweep visits the same non-zero cells in the same order as
//! the reference's pass (row-major zero-skip for the dense representations,
//! sorted sparse-entry order for the sparse ones) and the integer column
//! histograms keep the matrix exact.
//!
//! Identity is asserted both as a max-abs-diff of zero and as an FNV-1a
//! checksum over the raw output bits.
//!
//! The random cases come from an in-file generator with a fixed base seed,
//! so the suite needs no dev-dependency and a failure names the case seed
//! that reproduces it.

use haralick::direction::{Direction, DirectionSet};
use haralick::features::FeatureSelection;
use haralick::quantize::Quantizer;
use haralick::raster::{
    raster_scan, scan, scan_placements_raw, FeatureMaps, Representation, ScanConfig, ScanEngine,
    TSlidePolicy,
};
use haralick::roi::RoiShape;
use haralick::volume::{Dims4, LevelVolume, Point4};

const REPRESENTATIONS: [Representation; 4] = [
    Representation::Full,
    Representation::FullNaive,
    Representation::Sparse,
    Representation::SparseAccum,
];

const DIRECTION_KINDS: usize = 8;

/// Kinds 0–4 are distance 1; 5 is distance 2; 6 mixes `|dx|` from 0 to 3;
/// 7 holds displacements at least as long as every ROI extent the seeded
/// loop draws (x, y ≤ 4, z ≤ 2, t ≤ 3), which pair nothing and must not
/// index outside the volume.
fn direction_set(kind: usize) -> DirectionSet {
    let d = Direction::new;
    match kind {
        0 => DirectionSet::single(d(1, 0, 0, 0)),
        1 => DirectionSet::single(d(1, 1, 1, 1)),
        2 => DirectionSet::all_unique_2d(1),
        3 => DirectionSet::paper_4d(1),
        4 => DirectionSet::all_unique_4d(1),
        5 => DirectionSet::all_unique_4d(2),
        6 => DirectionSet::new([
            d(2, 0, 0, 0),
            d(1, -1, 0, 0),
            d(0, 1, 0, 0),
            d(-2, 1, 1, 0),
            d(3, 0, 0, 1),
            d(0, 0, 0, 1),
            d(-1, 2, -1, 1),
        ]),
        _ => DirectionSet::new([
            d(4, 0, 0, 0),
            d(1, 1, 0, 0),
            d(1, -4, 0, 0),
            d(0, 1, 2, 0),
            d(-1, 0, 0, 3),
            d(0, 0, 1, 0),
        ]),
    }
}

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

fn lcg_volume(dims: Dims4, ng: u16, seed: u32) -> LevelVolume {
    let mut rng = Lcg(seed);
    let data: Vec<u8> = (0..dims.len())
        .map(|_| (rng.next() % u32::from(ng)) as u8)
        .collect();
    LevelVolume::from_raw(dims, data, ng).unwrap()
}

/// Raw voxels in `0..=4000`, the range the benchmark's quantizer maps.
fn lcg_raw(dims: Dims4, seed: u32) -> Vec<u16> {
    let mut rng = Lcg(seed);
    (0..dims.len())
        .map(|_| (rng.next() % 4001) as u16)
        .collect()
}

/// FNV-1a over the output's raw f64 bits.
fn fnv_checksum(maps: &FeatureMaps) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in maps.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn assert_bit_identical(got: &FeatureMaps, want: &FeatureMaps, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: output dims");
    assert_eq!(
        got.max_abs_diff(want),
        0.0,
        "{what}: fused diverged from raster_scan"
    );
    assert_eq!(
        fnv_checksum(got),
        fnv_checksum(want),
        "{what}: checksum diverged"
    );
}

fn config(roi: RoiShape, directions: DirectionSet, representation: Representation) -> ScanConfig {
    ScanConfig {
        roi,
        directions,
        selection: FeatureSelection::all(),
        representation,
        engine: ScanEngine::Fused,
        t_slide: TSlidePolicy::Auto,
    }
}

#[test]
fn fused_bit_identical_to_reference_on_seeded_random_cases() {
    const CASES: u32 = 64;
    const BASE_SEED: u32 = 0x4834_4421;
    for case in 0..CASES {
        let seed = BASE_SEED.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let mut rng = Lcg(seed);
        let dims = Dims4::new(
            rng.in_range(4, 9),
            rng.in_range(4, 8),
            rng.in_range(1, 3),
            rng.in_range(1, 6),
        );
        let roi = RoiShape::from_lengths(
            rng.in_range(2, 4),
            rng.in_range(2, 4),
            rng.in_range(1, 2),
            rng.in_range(1, 3),
        );
        let ng = [2u16, 6, 16][rng.in_range(0, 2)];
        let kind = case as usize % DIRECTION_KINDS;
        let vol = lcg_volume(dims, ng, rng.next() << 16 | rng.next());
        for repr in REPRESENTATIONS {
            let cfg = config(roi, direction_set(kind), repr);
            assert_bit_identical(
                &scan(&vol, &cfg),
                &raster_scan(&vol, &cfg),
                &format!(
                    "case seed {seed:#010x} ({dims:?}, {roi:?}, Ng {ng}, kind {kind}, {repr:?})"
                ),
            );
        }
    }
}

/// `Fused` through `scan_placements_raw` on the sub-block at `base`, against
/// the same placements cut out of a whole-volume `raster_scan`.
fn assert_raw_block_matches(
    dims: Dims4,
    ng: u16,
    cfg: &ScanConfig,
    base: Point4,
    extent: Dims4,
    what: &str,
) {
    assert!(
        base != Point4::ZERO && extent.t >= 2,
        "the case must exercise a shifted, t-deep block"
    );
    let raw = lcg_raw(dims, 0x5eed ^ u32::from(ng));
    let quantizer = Quantizer::linear(ng, 0, 4000);
    let whole = raster_scan(&quantizer.quantize(dims, &raw), cfg);
    let mut want = FeatureMaps::zeros(extent, cfg.selection);
    for p in extent.region().points() {
        let q = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
        want.set_values(p, whole.values_at(q));
    }
    let got = scan_placements_raw(dims, &raw, &quantizer, cfg, base, extent);
    assert_bit_identical(&got, &want, what);
}

#[test]
fn paper_shape_single_direction_matches_through_the_raw_path() {
    // The benchmark's `paper_hmp` kernel shape: paper ROI, Ng 32, direction
    // (1,1,1,1), the paper's four features.
    for repr in [Representation::Full, Representation::Sparse] {
        let mut cfg = config(
            RoiShape::paper_default(),
            DirectionSet::single(Direction::new(1, 1, 1, 1)),
            repr,
        );
        cfg.selection = FeatureSelection::paper_default();
        assert_raw_block_matches(
            Dims4::new(16, 14, 5, 6),
            32,
            &cfg,
            Point4::new(1, 1, 1, 1),
            Dims4::new(5, 3, 2, 2),
            &format!("paper ROI, Ng 32, 1 direction, {repr:?}"),
        );
    }
}

#[test]
fn paper_shape_forty_directions_at_256_levels_matches_through_the_raw_path() {
    // The benchmark's `dense_40dir` kernel shape.
    let mut cfg = config(
        RoiShape::paper_default(),
        DirectionSet::all_unique_4d(1),
        Representation::Full,
    );
    cfg.selection = FeatureSelection::paper_default();
    assert_raw_block_matches(
        Dims4::new(13, 12, 4, 5),
        256,
        &cfg,
        Point4::new(1, 0, 0, 1),
        Dims4::new(3, 3, 2, 2),
        "paper ROI, Ng 256, 40 directions",
    );
}

#[test]
fn every_representation_matches_through_the_raw_path() {
    for repr in REPRESENTATIONS {
        assert_raw_block_matches(
            Dims4::new(9, 8, 4, 5),
            16,
            &config(
                RoiShape::from_lengths(4, 3, 2, 2),
                DirectionSet::paper_4d(1),
                repr,
            ),
            Point4::new(2, 1, 0, 1),
            Dims4::new(3, 4, 3, 3),
            &format!("small volume, {repr:?}"),
        );
    }
}

#[test]
fn offset_sub_block_with_mixed_dx_matches_through_the_raw_path() {
    // base != 0 and the block ends short of the output in every axis, so the
    // sheet's span starts and stops inside the volume; |dx| runs from 0 to 3.
    for repr in REPRESENTATIONS {
        assert_raw_block_matches(
            Dims4::new(12, 10, 5, 6),
            16,
            &config(RoiShape::from_lengths(4, 3, 2, 2), direction_set(6), repr),
            Point4::new(2, 1, 1, 1),
            Dims4::new(5, 4, 2, 3),
            &format!("offset sub-block, mixed |dx|, {repr:?}"),
        );
    }
}

/// All four representations on one degenerate geometry.
fn assert_fused_matches(vol: &LevelVolume, roi: RoiShape, directions: DirectionSet) {
    for repr in REPRESENTATIONS {
        let cfg = config(roi, directions.clone(), repr);
        assert_bit_identical(
            &scan(vol, &cfg),
            &raster_scan(vol, &cfg),
            &format!("{repr:?} on degenerate input"),
        );
    }
}

#[test]
fn degenerate_two_level_volume_matches() {
    // ng = 2 exercises the smallest possible matrix (4 cells, 3 in the
    // upper triangle).
    let vol = lcg_volume(Dims4::new(8, 7, 2, 2), 2, 7);
    assert_fused_matches(
        &vol,
        RoiShape::from_lengths(3, 3, 2, 2),
        DirectionSet::paper_4d(1),
    );
}

#[test]
fn degenerate_single_voxel_roi_matches() {
    // A 1x1x1x1 ROI has no in-window pairs: every matrix is empty and every
    // feature comes from the zero-mass branch, identically on both engines.
    let vol = lcg_volume(Dims4::new(6, 5, 3, 3), 16, 11);
    assert_fused_matches(
        &vol,
        RoiShape::from_lengths(1, 1, 1, 1),
        DirectionSet::all_unique_4d(1),
    );
}

#[test]
fn degenerate_one_voxel_t_extent_matches() {
    // roi.t = 1: every direction with a t component pairs nothing.
    let vol = lcg_volume(Dims4::new(7, 6, 2, 7), 8, 19);
    assert_fused_matches(
        &vol,
        RoiShape::from_lengths(3, 3, 2, 1),
        DirectionSet::all_unique_4d(1),
    );
}

#[test]
fn degenerate_window_spanning_the_volume_in_x_and_t_matches() {
    // roi.x == dims.x leaves one placement per output row (no plane ever
    // leaves the window); roi.t == dims.t leaves a single sheet per z.
    let vol = lcg_volume(Dims4::new(6, 7, 3, 3), 8, 29);
    assert_fused_matches(
        &vol,
        RoiShape::from_lengths(6, 3, 2, 3),
        DirectionSet::all_unique_4d(1),
    );
}

#[test]
fn degenerate_constant_volume_matches() {
    // An all-equal volume concentrates the whole matrix on one diagonal
    // cell — the maximal-duplicate case for the fused touched-cell list,
    // single-entry columns, and a single-entry list for the sparse
    // representations.
    let dims = Dims4::new(9, 6, 2, 5);
    let data = vec![3u8; dims.len()];
    let vol = LevelVolume::from_raw(dims, data, 16).unwrap();
    assert_fused_matches(
        &vol,
        RoiShape::from_lengths(4, 3, 2, 3),
        DirectionSet::all_unique_4d(1),
    );
}
