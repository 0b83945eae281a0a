//! Randomized pipeline tests of the discrete-event simulator: conservation
//! laws, lower bounds, determinism and option toggles over arbitrary linear
//! pipelines.
//!
//! The pipelines come from an in-file generator with a fixed base seed per
//! property, so the suite needs no dev-dependency and a failing case prints
//! the seed that reproduces it.

use cluster::des::{
    simulate_with, SimAction, SimBuf, SimFilter, SimFilterFactory, SimOptions, SourceItem,
};
use cluster::presets;
use datacutter::{GraphSpec, SchedulePolicy};
use std::collections::HashMap;

const CASES: u32 = 48;

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

    /// A value in `0.0..hi`.
    fn below(&mut self, hi: f64) -> f64 {
        hi * f64::from(self.next() << 16 | self.next()) / 4_294_967_296.0
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

/// Runs `property` on the saved regression case, then on `CASES` pipelines
/// seeded from `base_seed`.
fn for_each_case(base_seed: u32, property: impl Fn(&Pipe)) {
    // What `des_random.proptest-regressions` held: the shape a past failure
    // shrank to (a free source feeding a 2-copy demand-driven stage).
    property(&Pipe {
        buffers: 2,
        src_cost: 0.0,
        stages: vec![(2, 0.012014408550569101, 1, 1)],
    });
    for case in 0..CASES {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let _named_on_panic = CaseSeed(seed);
        property(&arb_pipe(&mut Lcg(seed)));
    }
}

struct Src {
    n: u64,
    cost: f64,
    bytes: u64,
}

impl SimFilter for Src {
    fn source(&mut self) -> Vec<SourceItem> {
        (0..self.n)
            .map(|tag| SourceItem {
                cost: self.cost,
                emits: vec![(
                    0,
                    SimBuf {
                        tag,
                        bytes: self.bytes,
                    },
                )],
            })
            .collect()
    }
    fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction {
        unreachable!()
    }
}

struct Stage {
    cost: f64,
    fan_out: usize,
    forward: bool,
}

impl SimFilter for Stage {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        SimAction {
            cost: self.cost,
            emits: if self.forward {
                (0..self.fan_out).map(|_| (0, *buf)).collect()
            } else {
                vec![]
            },
        }
    }
}

/// A random linear pipeline description.
#[derive(Debug, Clone)]
struct Pipe {
    buffers: u64,
    src_cost: f64,
    stages: Vec<(usize, f64, usize, u8)>, // (copies, cost, fan_out, policy)
}

fn arb_pipe(rng: &mut Lcg) -> Pipe {
    Pipe {
        buffers: rng.in_range(1, 39) as u64,
        src_cost: rng.below(0.01),
        stages: (0..rng.in_range(1, 3))
            .map(|_| {
                (
                    rng.in_range(1, 3),
                    rng.below(0.02),
                    rng.in_range(1, 2),
                    rng.in_range(0, 2) as u8,
                )
            })
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

fn build(pipe: &Pipe) -> (GraphSpec, Vec<String>) {
    // Place everything on a comfortably large uniform cluster.
    let total_copies: usize = 1 + pipe.stages.iter().map(|s| s.0).sum::<usize>();
    let _ = total_copies;
    let mut names = vec!["s0".to_string()];
    let mut spec = GraphSpec::new().filter_placed("s0", vec![0]);
    let mut node = 1usize;
    for (i, (copies, _, _, policy)) in pipe.stages.iter().enumerate() {
        let name = format!("s{}", i + 1);
        let placement: Vec<usize> = (node..node + copies).collect();
        node += copies;
        spec = spec.filter_placed(&name, placement).stream(
            &format!("e{i}"),
            &names[i],
            &name,
            policy_of(*policy),
        );
        names.push(name);
    }
    (spec, names)
}

fn run_pipe(pipe: &Pipe, options: &SimOptions) -> cluster::des::SimReport {
    let (spec, _) = build(pipe);
    let nodes_needed = 1 + pipe.stages.iter().map(|s| s.0).sum::<usize>();
    let cluster = presets::uniform(nodes_needed);
    let mut factories: HashMap<String, SimFilterFactory> = HashMap::new();
    factories.insert(
        "s0".into(),
        Box::new({
            let (n, c) = (pipe.buffers, pipe.src_cost);
            move |_| {
                Box::new(Src {
                    n,
                    cost: c,
                    bytes: 64,
                }) as Box<dyn SimFilter>
            }
        }),
    );
    for (i, (_, cost, fan_out, _)) in pipe.stages.iter().enumerate() {
        let last = i + 1 == pipe.stages.len();
        let (cost, fan_out) = (*cost, *fan_out);
        factories.insert(
            format!("s{}", i + 1),
            Box::new(move |_| {
                Box::new(Stage {
                    cost,
                    fan_out,
                    forward: !last,
                }) as Box<dyn SimFilter>
            }),
        );
    }
    simulate_with(&spec, &cluster, &mut factories, options)
}

#[test]
fn buffers_are_conserved_through_every_stage() {
    for_each_case(0x4445_0001, |pipe| {
        let rep = run_pipe(pipe, &SimOptions::default());
        // Expected input of stage k = buffers * prod(fan_out of stages < k).
        let mut expected = pipe.buffers;
        for (i, (_, _, fan_out, _)) in pipe.stages.iter().enumerate() {
            let name = format!("s{}", i + 1);
            assert_eq!(
                rep.per_copy.buffers_into(&name),
                expected,
                "stage {name} lost or duplicated buffers"
            );
            expected *= *fan_out as u64;
        }
    });
}

#[test]
fn makespan_respects_work_lower_bound() {
    for_each_case(0x4445_0002, |pipe| {
        let rep = run_pipe(pipe, &SimOptions::default());
        // Each stage's total work divided by its copy count bounds the
        // makespan from below (unit speeds, no way to go faster).
        let mut inflow = pipe.buffers as f64;
        let mut bound: f64 = pipe.src_cost * pipe.buffers as f64;
        for (copies, cost, fan_out, _) in &pipe.stages {
            bound = bound.max(inflow * cost / *copies as f64);
            inflow *= *fan_out as f64;
        }
        assert!(
            rep.makespan + 1e-9 >= bound,
            "makespan {} below physical bound {}",
            rep.makespan,
            bound
        );
    });
}

#[test]
fn simulation_is_deterministic() {
    for_each_case(0x4445_0003, |pipe| {
        let a = run_pipe(pipe, &SimOptions::default());
        let b = run_pipe(pipe, &SimOptions::default());
        assert_eq!(a, b, "two identical runs diverged");
    });
}

#[test]
fn option_toggles_preserve_conservation() {
    for_each_case(0x4445_0004, |pipe| {
        for options in [
            SimOptions {
                synchronous_sends: false,
                ..SimOptions::default()
            },
            SimOptions {
                bounded_queues: false,
                ..SimOptions::default()
            },
            SimOptions {
                synchronous_sends: false,
                bounded_queues: false,
            },
        ] {
            let rep = run_pipe(pipe, &options);
            assert_eq!(rep.per_copy.buffers_into("s1"), pipe.buffers);
            assert!(rep.makespan.is_finite());
        }
    });
}

#[test]
fn idealized_options_never_slow_the_run_much() {
    for_each_case(0x4445_0005, |pipe| {
        // Removing blocking sends can only help or be neutral (modulo
        // demand-driven decisions shifting); allow a small tolerance for
        // scheduling noise but catch gross regressions.
        let real = run_pipe(pipe, &SimOptions::default());
        let free = run_pipe(
            pipe,
            &SimOptions {
                synchronous_sends: false,
                ..SimOptions::default()
            },
        );
        assert!(
            free.makespan <= real.makespan * 1.25 + 1e-6,
            "free sends made the run much slower: {} vs {}",
            free.makespan,
            real.makespan
        );
    });
}

#[test]
fn round_robin_remains_exact_under_randomized_interleavings() {
    // Deterministic check kept out of the seeded loops: a wide stage under
    // RR gets an exact split regardless of pipeline shape.
    let pipe = Pipe {
        buffers: 36,
        src_cost: 0.001,
        stages: vec![(3, 0.002, 1, 0)],
    };
    let rep = run_pipe(&pipe, &SimOptions::default());
    for (copy, n) in rep.per_copy.per_copy_buffers_in("s1") {
        assert_eq!(n, 12, "copy {copy} got {n}");
    }
}
