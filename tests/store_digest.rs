//! Property tests over the result store's key recipe and blob integrity:
//! chunk keys are pure functions of content + config (visit-order
//! invariant), any single-voxel or single-config-field change moves the
//! key, and corrupted or truncated blobs are detected, evicted and
//! recomputed — never served.
//!
//! The generated inputs come from an in-file generator with a fixed base
//! seed per property, so the suite needs no dev-dependency and a failing
//! case prints the seed that reproduces it.

use haralick4d::haralick::direction::{Direction, DirectionSet};
use haralick4d::haralick::features::{Feature, FeatureSelection};
use haralick4d::haralick::quantize::Quantizer;
use haralick4d::haralick::raster::{Representation, ScanEngine};
use haralick4d::haralick::{Dims4, RoiShape};
use haralick4d::mri::chunks::ChunkGrid;
use haralick4d::mri::raw::RawVolume;
use haralick4d::pipeline::config::AppConfig;
use haralick4d::pipeline::payload::ParamPacket;
use haralick4d::pipeline::store::{
    config_digest, KeyRecipe, ResultStore, StoreSession, StoreStage,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    fn u64(&mut self) -> u64 {
        (0..4).fold(0, |v, _| v << 16 | u64::from(self.next()))
    }

    /// A value in `lo..=hi`.
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.next() as usize % (hi - lo + 1)
    }

    /// A value in `lo..hi`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.u64() >> 11) as f64 / (1u64 << 53) as f64)
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

/// Runs `property` on `cases` generators seeded from `base_seed`.
fn for_each_case(cases: u32, base_seed: u32, property: impl Fn(&mut Lcg)) {
    for case in 0..cases {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let _named_on_panic = CaseSeed(seed);
        property(&mut Lcg(seed));
    }
}

/// A config whose geometry matches the generated grid; everything else at
/// test-scale defaults.
fn cfg_for(dims: Dims4, roi: RoiShape, chunk_dims: Dims4) -> AppConfig {
    let mut cfg = AppConfig::test_scale(Representation::Full);
    cfg.dims = dims;
    cfg.roi = roi;
    cfg.chunk_dims = chunk_dims;
    cfg
}

/// Deterministic pseudo-random raw content in the quantizer's range.
fn fill(dims: Dims4, seed: u16) -> RawVolume {
    let data: Vec<u16> = (0..dims.len())
        .map(|i| (i as u16).wrapping_mul(seed.max(1)).wrapping_add(seed) % 4000)
        .collect();
    RawVolume::new(dims, data)
}

#[test]
fn chunk_keys_are_visit_order_invariant_and_distinct() {
    for_each_case(48, 0x5344_0001, |rng| {
        let dims = Dims4::new(
            rng.in_range(12, 31),
            rng.in_range(12, 31),
            rng.in_range(3, 7),
            rng.in_range(3, 7),
        );
        let (cx, cz) = (rng.in_range(12, 19), rng.in_range(3, 4));
        let seed = rng.in_range(1, 999) as u16;
        let roi = RoiShape::from_lengths(5, 5, 2, 2);
        let chunk_dims = Dims4::new(cx, cx, cz, cz);
        let cfg = cfg_for(dims, roi, chunk_dims);
        let grid = ChunkGrid::new(dims, roi, chunk_dims);
        let vol = fill(dims, seed);

        // Forward visit order with one recipe, reverse order with a fresh
        // one: the per-chunk keys must agree — nothing about a key depends
        // on what was digested before it.
        let recipe = KeyRecipe::new(&cfg, StoreStage::Params);
        let forward: Vec<u64> = grid
            .chunks()
            .map(|c| {
                let content = recipe.content_digest(&c, &vol.extract(c.input));
                recipe.key(&c, content, 0).digest
            })
            .collect();
        let recipe2 = KeyRecipe::new(&cfg, StoreStage::Params);
        let chunks: Vec<_> = grid.chunks().collect();
        let mut backward: Vec<u64> = chunks
            .iter()
            .rev()
            .map(|c| {
                let content = recipe2.content_digest(c, &vol.extract(c.input));
                recipe2.key(c, content, 0).digest
            })
            .collect();
        backward.reverse();
        assert_eq!(&forward, &backward);

        // Distinct chunks get distinct keys (chunk identity is folded in).
        let mut sorted = forward.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), forward.len(), "key collision across chunks");
    });
}

#[test]
fn single_voxel_change_moves_the_key() {
    for_each_case(48, 0x5344_0002, |rng| {
        let (dx, dz) = (rng.in_range(12, 27), rng.in_range(3, 5));
        let seed = rng.in_range(1, 999) as u16;
        let (pick, voxel) = (rng.u64() as usize, rng.u64() as usize);
        let dims = Dims4::new(dx, dx, dz, dz);
        let roi = RoiShape::from_lengths(5, 5, 2, 2);
        let chunk_dims = Dims4::new(12, 12, 3, 3);
        let cfg = cfg_for(dims, roi, chunk_dims);
        let grid = ChunkGrid::new(dims, roi, chunk_dims);
        let chunks: Vec<_> = grid.chunks().collect();
        let chunk = chunks[pick % chunks.len()];
        let vol = fill(dims, seed);
        let raw = vol.extract(chunk.input);

        let mut data = raw.as_slice().to_vec();
        let i = voxel % data.len();
        data[i] = (data[i] + 1) % 4000;
        let edited = RawVolume::new(raw.dims(), data);

        let recipe = KeyRecipe::new(&cfg, StoreStage::Params);
        let a = recipe.content_digest(&chunk, &raw);
        let b = recipe.content_digest(&chunk, &edited);
        assert_ne!(a, b, "voxel {i} change left the content digest fixed");
        assert_ne!(
            recipe.key(&chunk, a, 0).digest,
            recipe.key(&chunk, b, 0).digest
        );
    });
}

#[test]
fn packet_index_and_stage_separate_keys() {
    for_each_case(48, 0x5344_0003, |rng| {
        let seed = rng.in_range(1, 999) as u16;
        let (i, j) = (rng.in_range(0, 15), rng.in_range(0, 15));
        let cfg = AppConfig::test_scale(Representation::Full);
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().next().unwrap();
        let raw = fill(chunk.input.size, seed);
        let params = KeyRecipe::new(&cfg, StoreStage::Params);
        let matrices = KeyRecipe::new(&cfg, StoreStage::Matrices);
        let content = params.content_digest(&chunk, &raw);
        if i != j {
            assert_ne!(
                params.key(&chunk, content, i).digest,
                params.key(&chunk, content, j).digest,
                "packets {i} and {j} share a key"
            );
        }
        // The same chunk content under the other stage is a different key:
        // parameter maps can never be served where matrices are expected.
        let m_content = matrices.content_digest(&chunk, &raw);
        assert_ne!(
            params.key(&chunk, content, i).digest,
            matrices.key(&chunk, m_content, i).digest
        );
    });
}

/// An edit of one `AppConfig` field.
type Mutation = Box<dyn Fn(&mut AppConfig)>;

#[test]
fn every_semantic_config_field_moves_the_fingerprint() {
    let base = AppConfig::test_scale(Representation::Full);
    let d0 = config_digest(&base);

    let mutations: Vec<(&str, Mutation)> = vec![
        ("levels", Box::new(|c| c.levels = 16)),
        (
            "quantizer",
            Box::new(|c| c.quantizer = Quantizer::linear(32, 0, 2000)),
        ),
        (
            "roi",
            Box::new(|c| c.roi = RoiShape::from_lengths(4, 4, 2, 2)),
        ),
        (
            "directions",
            Box::new(|c| c.directions = DirectionSet::single(Direction::new(1, 0, 0, 0))),
        ),
        (
            "selection",
            Box::new(|c| c.selection = FeatureSelection::all()),
        ),
        (
            "representation",
            Box::new(|c| c.representation = Representation::Sparse),
        ),
        ("packet_split", Box::new(|c| c.packet_split = 2)),
    ];
    for (name, mutate) in &mutations {
        let mut c = base.clone();
        mutate(&mut c);
        assert_ne!(
            config_digest(&c),
            d0,
            "{name} changed but the config fingerprint did not"
        );
    }

    // The two `AppConfig` fields that say where or how fast to run, not
    // what to compute, must NOT move the fingerprint — otherwise switching
    // engines or re-distributing a dataset would discard every cached
    // result. (Caching, canonical output, transport and the store path are
    // not in `AppConfig` at all: they live in `IoRuntime` / `NodeConfig`.)
    let neutral: Vec<(&str, Mutation)> = vec![
        // Both engines are byte-identical by hard invariant.
        ("engine", Box::new(|c| c.engine = ScanEngine::Reference)),
        ("storage_nodes", Box::new(|c| c.storage_nodes = 7)),
    ];
    for (name, mutate) in &neutral {
        let mut c = base.clone();
        mutate(&mut c);
        assert_eq!(
            config_digest(&c),
            d0,
            "value-neutral knob {name} must not invalidate the store"
        );
    }
}

/// Unique store directory per case; never share state between cases.
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("h4d_digestprop_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupted_or_truncated_blobs_are_never_served() {
    for_each_case(16, 0x5344_0004, |rng| {
        let values: Vec<f64> = (0..rng.in_range(1, 39))
            .map(|_| rng.f64_in(-1e3, 1e3))
            .collect();
        let corrupt_at = rng.u64() as usize;
        let truncate = rng.next() & 1 == 1;
        let dir = case_dir();
        let cfg = AppConfig::test_scale(Representation::Full);
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().next().unwrap();
        let raw = fill(chunk.input.size, 7);
        let recipe = KeyRecipe::new(&cfg, StoreStage::Params);
        let key = recipe.key(&chunk, recipe.content_digest(&chunk, &raw), 0);
        let packet = ParamPacket {
            chunk,
            feature: Feature::Contrast,
            first: 0,
            values: values.clone(),
        };

        let store = ResultStore::open_fs(&dir).unwrap();
        let writer = StoreSession::new(&store, &cfg);
        writer.publish_params(&key, std::slice::from_ref(&packet));
        writer.commit().unwrap();

        // Intact round-trip first: served bit-exactly.
        let reader = StoreSession::new(&store, &cfg);
        let served = reader.lookup_params(&key).expect("intact blob is served");
        assert_eq!(served.len(), 1);
        assert!(served[0].feature == Feature::Contrast);
        for (a, b) in served[0].values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Corrupt the committed object in place: flip one byte or truncate.
        let hex = format!("{:016x}", key.digest);
        let path = dir
            .join("objects")
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(&hex);
        assert!(path.exists(), "committed object missing at {path:?}");
        let mut bytes = std::fs::read(&path).unwrap();
        if truncate {
            bytes.truncate(corrupt_at % bytes.len());
        } else {
            let i = corrupt_at % bytes.len();
            bytes[i] ^= 0xff;
        }
        std::fs::write(&path, &bytes).unwrap();

        // Detected, counted, evicted — and absolutely not served.
        let before = store.stats().corrupt_rejected();
        assert!(reader.lookup_params(&key).is_none());
        assert_eq!(store.stats().corrupt_rejected(), before + 1);
        assert!(!path.exists(), "corrupt blob must be evicted");

        // The follow-up lookup is a clean miss, not another rejection.
        assert!(reader.lookup_params(&key).is_none());
        assert_eq!(store.stats().corrupt_rejected(), before + 1);

        // Recompute-and-republish heals the entry.
        let healer = StoreSession::new(&store, &cfg);
        healer.publish_params(&key, std::slice::from_ref(&packet));
        healer.commit().unwrap();
        let healed = reader.lookup_params(&key).expect("healed blob is served");
        for (a, b) in healed[0].values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
