//! Randomized tests of the threaded engine: delivery guarantees and policy
//! laws over arbitrary pipeline shapes and buffer counts.
//!
//! The shapes come from an in-file generator with a fixed base seed per
//! property, so the suite needs no dev-dependency and a failing case prints
//! the seed that reproduces it.

use datacutter::{
    run_graph, DataBuffer, EngineConfig, Filter, FilterContext, FilterError, GraphSpec,
    SchedulePolicy,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// Thread spawning is comparatively expensive; keep the case count sane.
const CASES: u32 = 24;

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

struct Source {
    count: u64,
}

impl Filter for Source {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        let (copies, me) = (ctx.num_copies() as u64, ctx.copy_index() as u64);
        for tag in (0..self.count).filter(|t| t % copies == me) {
            ctx.emit(0, DataBuffer::new(tag, 8, tag))?;
        }
        Ok(())
    }
    fn process(
        &mut self,
        _: usize,
        _: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        unreachable!()
    }
}

struct Relay {
    log: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Filter for Relay {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        self.log.lock().unwrap().push((ctx.copy_index(), buf.tag()));
        if ctx.output_count() > 0 {
            ctx.emit(0, buf)?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Shape {
    buffers: u64,
    sources: usize,
    stages: Vec<(usize, u8)>, // (copies, policy)
}

fn arb_shape(rng: &mut Lcg) -> Shape {
    Shape {
        buffers: rng.in_range(1, 119) as u64,
        sources: rng.in_range(1, 3),
        stages: (0..rng.in_range(1, 3))
            .map(|_| (rng.in_range(1, 4), rng.in_range(0, 2) as u8))
            .collect(),
    }
}

fn policy_of(p: u8) -> SchedulePolicy {
    match p {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::DemandDriven,
        _ => SchedulePolicy::ByTagModulo,
    }
}

type StageLog = Arc<Mutex<Vec<(usize, u64)>>>;

fn run_shape(shape: &Shape) -> Vec<StageLog> {
    let mut spec = GraphSpec::new().filter("s0", shape.sources);
    let mut prev = "s0".to_string();
    for (i, (copies, policy)) in shape.stages.iter().enumerate() {
        let name = format!("s{}", i + 1);
        spec =
            spec.filter(&name, *copies)
                .stream(&format!("e{i}"), &prev, &name, policy_of(*policy));
        prev = name;
    }
    let mut factories: HashMap<String, datacutter::engine::FilterFactory> = HashMap::new();
    let count = shape.buffers;
    factories.insert(
        "s0".into(),
        Box::new(move |_| Ok(Box::new(Source { count }))),
    );
    let mut logs = Vec::new();
    for i in 0..shape.stages.len() {
        let log = Arc::new(Mutex::new(Vec::new()));
        logs.push(log.clone());
        factories.insert(
            format!("s{}", i + 1),
            Box::new(move |_| Ok(Box::new(Relay { log: log.clone() }))),
        );
    }
    run_graph(&spec, &mut factories, &EngineConfig::default()).expect("run");
    logs
}

#[test]
fn every_stage_sees_each_tag_exactly_once() {
    for_each_case(0x4552_0001, |rng| {
        let shape = arb_shape(rng);
        let logs = run_shape(&shape);
        for (i, log) in logs.iter().enumerate() {
            let mut tags: Vec<u64> = log.lock().unwrap().iter().map(|(_, t)| *t).collect();
            tags.sort_unstable();
            let expect: Vec<u64> = (0..shape.buffers).collect();
            assert_eq!(&tags, &expect, "stage {} delivery broken", i + 1);
        }
    });
}

#[test]
fn tag_modulo_is_exact_everywhere() {
    for_each_case(0x4552_0002, |rng| {
        let shape = arb_shape(rng);
        let logs = run_shape(&shape);
        for (i, (copies, policy)) in shape.stages.iter().enumerate() {
            if policy_of(*policy) != SchedulePolicy::ByTagModulo {
                continue;
            }
            for (copy, tag) in logs[i].lock().unwrap().iter() {
                assert_eq!(*copy as u64, tag % *copies as u64);
            }
        }
    });
}

#[test]
fn single_producer_round_robin_is_balanced() {
    for_each_case(0x4552_0003, |rng| {
        let (buffers, copies) = (rng.in_range(1, 119) as u64, rng.in_range(1, 4));
        // With one producer, RR fairness is exact (multi-producer RR is
        // only fair per producer).
        let shape = Shape {
            buffers,
            sources: 1,
            stages: vec![(copies, 0)],
        };
        let logs = run_shape(&shape);
        let mut per_copy = vec![0u64; copies];
        for (copy, _) in logs[0].lock().unwrap().iter() {
            per_copy[*copy] += 1;
        }
        let (min, max) = (
            *per_copy.iter().min().unwrap(),
            *per_copy.iter().max().unwrap(),
        );
        assert!(max - min <= 1, "unbalanced RR: {per_copy:?}");
    });
}
