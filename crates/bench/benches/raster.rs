//! Raster-scan benchmarks: the reference rebuild vs the fused engine, and
//! per-representation end-to-end cost on a small volume.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use haralick::direction::{Direction, DirectionSet};
use haralick::features::FeatureSelection;
use haralick::raster::{raster_scan, scan, Representation, ScanConfig, ScanEngine, TSlidePolicy};
use haralick::roi::RoiShape;
use haralick::volume::{Dims4, LevelVolume};
use mri::synth::{generate, SynthConfig};

fn small_volume() -> LevelVolume {
    generate(&SynthConfig {
        dims: Dims4::new(32, 32, 6, 6),
        ..SynthConfig::test_scale(42)
    })
    .quantize_min_max(32)
}

fn cfg(repr: Representation) -> ScanConfig {
    ScanConfig {
        roi: RoiShape::from_lengths(8, 8, 3, 3),
        directions: DirectionSet::single(Direction::new(1, 1, 1, 1)),
        selection: FeatureSelection::paper_default(),
        representation: repr,
        engine: ScanEngine::default(),
        t_slide: TSlidePolicy::default(),
    }
}

fn bench_drivers(c: &mut Criterion) {
    let vol = small_volume();
    let base = cfg(Representation::Full);
    let mut g = c.benchmark_group("raster_driver");
    g.sample_size(10);
    for engine in [ScanEngine::Reference, ScanEngine::Fused] {
        let pinned = ScanConfig {
            engine,
            ..base.clone()
        };
        g.bench_function(format!("{engine:?}"), |b| b.iter(|| scan(&vol, &pinned)));
    }
    g.finish();
}

fn bench_representations(c: &mut Criterion) {
    let vol = small_volume();
    let mut g = c.benchmark_group("raster_representation");
    g.sample_size(10);
    for repr in [
        Representation::FullNaive,
        Representation::Full,
        Representation::Sparse,
        Representation::SparseAccum,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{repr:?}")),
            &cfg(repr),
            |b, scan| b.iter(|| raster_scan(&vol, scan)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_drivers, bench_representations);
criterion_main!(benches);
