//! Quickstart: compute 4D Haralick texture features of a synthetic DCE-MRI
//! volume, entirely in memory.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use haralick4d::haralick::{
    coocc::CoMatrix,
    direction::{Direction, DirectionSet},
    features::{compute_features, Feature, FeatureSelection},
    raster::{scan, Representation, ScanConfig, ScanEngine, TSlidePolicy},
    roi::RoiShape,
    sparse::SparseCoMatrix,
    volume::{Point4, Region4},
};
use haralick4d::mri::synth::{generate, SynthConfig};

fn main() {
    // 1. A small synthetic DCE-MRI study: 64x64 pixels, 8 slices, 8 time
    //    steps, with enhancing lesions (deterministic in the seed).
    let cfg = SynthConfig::test_scale(42);
    let raw = generate(&cfg);
    println!(
        "generated {} voxels ({} bytes raw)",
        raw.dims().len(),
        raw.byte_len()
    );

    // 2. Requantize to Ng = 32 gray levels (the paper's setting).
    let vol = raw.quantize_min_max(32);

    // 3. One co-occurrence matrix: a 10x10x3x3 ROI at the volume center,
    //    displacement (1,1,1,1) — one specific distance and direction, as
    //    Haralick defines it.
    let roi = RoiShape::from_lengths(10, 10, 3, 3);
    let origin = Point4::new(27, 27, 2, 2);
    let dirs = DirectionSet::single(Direction::new(1, 1, 1, 1));
    let m = CoMatrix::from_region(&vol, Region4::new(origin, roi.size()), &dirs);
    let sparse = SparseCoMatrix::from_dense(&m);
    println!(
        "co-occurrence at {origin:?}: {} of {} unique entries non-zero ({:.1}% fill)",
        sparse.nnz(),
        32 * 33 / 2,
        100.0 * sparse.fill_ratio()
    );

    // 4. All fourteen Haralick features from that matrix.
    let all = FeatureSelection::all();
    let f = compute_features(&m.stats_checked(), &all);
    println!("\nall fourteen Haralick features at {origin:?}:");
    for (feature, value) in f.iter() {
        println!("  {:<22} = {:>12.6}", feature.short_name(), value);
    }

    // 5. A full raster scan (the fused engine, output rows dispatched on
    //    the rayon pool) producing dense feature maps for the paper's four
    //    parameters.
    let scan_cfg = ScanConfig {
        roi,
        directions: dirs,
        selection: FeatureSelection::paper_default(),
        representation: Representation::Full,
        engine: ScanEngine::default(),
        t_slide: TSlidePolicy::default(),
    };
    let t = std::time::Instant::now();
    let maps = scan(&vol, &scan_cfg);
    println!(
        "\nraster scan: {} ROI placements -> {} feature maps in {:.2?}",
        maps.dims().len(),
        scan_cfg.selection.len(),
        t.elapsed()
    );
    for feature in [Feature::AngularSecondMoment, Feature::Correlation] {
        let (lo, hi) = maps.min_max(feature);
        println!("  {:<22} range [{lo:.4}, {hi:.4}]", feature.short_name());
    }
}
