//! Property-based tests (proptest) over the result store's key recipe and
//! blob integrity: chunk keys are pure functions of content + config
//! (visit-order invariant), any single-voxel or single-config-field change
//! moves the key, and corrupted or truncated blobs are detected, evicted
//! and recomputed — never served.

use haralick4d::haralick::direction::{Direction, DirectionSet};
use haralick4d::haralick::features::{Feature, FeatureSelection};
use haralick4d::haralick::quantize::Quantizer;
use haralick4d::haralick::raster::{Representation, ScanEngine};
use haralick4d::haralick::{Dims4, Point4, RoiShape};
use haralick4d::mri::chunks::ChunkGrid;
use haralick4d::mri::raw::RawVolume;
use haralick4d::pipeline::config::AppConfig;
use haralick4d::pipeline::payload::ParamPacket;
use haralick4d::pipeline::store::{
    config_digest, KeyRecipe, ResultStore, StoreSession, StoreStage,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunk_keys_are_visit_order_invariant_and_distinct(
        dx in 12usize..32,
        dy in 12usize..32,
        dz in 3usize..8,
        dt in 3usize..8,
        cx in 12usize..20,
        cz in 3usize..5,
        seed in 1u16..1000,
    ) {
        let dims = Dims4::new(dx, dy, dz, dt);
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
        prop_assert_eq!(&forward, &backward);

        // Distinct chunks get distinct keys (chunk identity is folded in).
        let mut sorted = forward.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), forward.len(), "key collision across chunks");
    }

    #[test]
    fn single_voxel_change_moves_the_key(
        dx in 12usize..28,
        dz in 3usize..6,
        seed in 1u16..1000,
        pick in any::<usize>(),
        voxel in any::<usize>(),
    ) {
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
        prop_assert_ne!(a, b, "voxel {} change left the content digest fixed", i);
        prop_assert_ne!(
            recipe.key(&chunk, a, 0).digest,
            recipe.key(&chunk, b, 0).digest
        );
    }

    #[test]
    fn packet_index_and_stage_separate_keys(
        seed in 1u16..1000,
        i in 0usize..16,
        j in 0usize..16,
    ) {
        let cfg = AppConfig::test_scale(Representation::Full);
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().next().unwrap();
        let raw = fill(chunk.input.size, seed);
        let params = KeyRecipe::new(&cfg, StoreStage::Params);
        let matrices = KeyRecipe::new(&cfg, StoreStage::Matrices);
        let content = params.content_digest(&chunk, &raw);
        if i != j {
            prop_assert_ne!(
                params.key(&chunk, content, i).digest,
                params.key(&chunk, content, j).digest,
                "packets {} and {} share a key", i, j
            );
        }
        // The same chunk content under the other stage is a different key:
        // parameter maps can never be served where matrices are expected.
        let m_content = matrices.content_digest(&chunk, &raw);
        prop_assert_ne!(
            params.key(&chunk, content, i).digest,
            matrices.key(&chunk, m_content, i).digest
        );
    }
}

#[test]
fn every_semantic_config_field_moves_the_fingerprint() {
    let base = AppConfig::test_scale(Representation::Full);
    let d0 = config_digest(&base);

    let mutations: Vec<(&str, Box<dyn Fn(&mut AppConfig)>)> = vec![
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

    // Value-neutral knobs (where or how fast to run, not what to compute)
    // must NOT move the fingerprint — otherwise moving a store directory or
    // switching engines would discard every cached result.
    let neutral: Vec<(&str, Box<dyn Fn(&mut AppConfig)>)> = vec![
        // Both engines are byte-identical by hard invariant.
        ("engine", Box::new(|c| c.engine = ScanEngine::Reference)),
        ("canonical_output", Box::new(|c| c.canonical_output = true)),
        ("io_cache_bytes", Box::new(|c| c.io_cache_bytes = 0)),
        ("storage_nodes", Box::new(|c| c.storage_nodes = 7)),
        (
            "transport_checksum",
            Box::new(|c| c.transport_checksum = true),
        ),
        (
            "result_store",
            Box::new(|c| c.result_store = Some(PathBuf::from("/elsewhere"))),
        ),
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

/// Unique store directory per proptest case (cases run sequentially but
/// shrinking revisits them; never share state between cases).
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("h4d_digestprop_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corrupted_or_truncated_blobs_are_never_served(
        values in proptest::collection::vec(-1e3f64..1e3, 1..40),
        corrupt_at in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let dir = case_dir();
        let cfg = AppConfig::test_scale(Representation::Full);
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().next().unwrap();
        let raw = fill(chunk.input.size, 7);
        let recipe = KeyRecipe::new(&cfg, StoreStage::Params);
        let key = recipe.key(&chunk, recipe.content_digest(&chunk, &raw), 0);
        let packet = ParamPacket {
            feature: Feature::Contrast,
            points: Arc::new(vec![Point4::ZERO; values.len()]),
            values: values.clone(),
        };

        let store = ResultStore::open_fs(&dir).unwrap();
        let writer = StoreSession::new(&store, &cfg);
        writer.publish_params(&key, std::slice::from_ref(&packet));
        writer.commit().unwrap();

        // Intact round-trip first: served bit-exactly.
        let reader = StoreSession::new(&store, &cfg);
        let served = reader.lookup_params(&key).expect("intact blob is served");
        prop_assert_eq!(served.len(), 1);
        prop_assert!(served[0].feature == Feature::Contrast);
        for (a, b) in served[0].values.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Corrupt the committed object in place: flip one byte or truncate.
        let hex = format!("{:016x}", key.digest);
        let path = dir
            .join("objects")
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(&hex);
        prop_assert!(path.exists(), "committed object missing at {:?}", path);
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
        prop_assert!(reader.lookup_params(&key).is_none());
        prop_assert_eq!(store.stats().corrupt_rejected(), before + 1);
        prop_assert!(!path.exists(), "corrupt blob must be evicted");

        // The follow-up lookup is a clean miss, not another rejection.
        prop_assert!(reader.lookup_params(&key).is_none());
        prop_assert_eq!(store.stats().corrupt_rejected(), before + 1);

        // Recompute-and-republish heals the entry.
        let healer = StoreSession::new(&store, &cfg);
        healer.publish_params(&key, std::slice::from_ref(&packet));
        healer.commit().unwrap();
        let healed = reader.lookup_params(&key).expect("healed blob is served");
        for (a, b) in healed[0].values.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
