//! Randomized pipeline tests of the discrete-event simulator: conservation
//! laws, lower bounds, determinism and option toggles over arbitrary linear
//! pipelines.

use cluster::des::{
    simulate_with, SimAction, SimBuf, SimFilter, SimFilterFactory, SimOptions, SourceItem,
};
use cluster::presets;
use datacutter::{GraphSpec, SchedulePolicy};
use proptest::prelude::*;
use std::collections::HashMap;

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

fn pipe_strategy() -> impl Strategy<Value = Pipe> {
    (
        1u64..40,
        0.0f64..0.01,
        proptest::collection::vec((1usize..4, 0.0f64..0.02, 1usize..3, 0u8..3), 1..4),
    )
        .prop_map(|(buffers, src_cost, stages)| Pipe {
            buffers,
            src_cost,
            stages,
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn buffers_are_conserved_through_every_stage(pipe in pipe_strategy()) {
        let rep = run_pipe(&pipe, &SimOptions::default());
        // Expected input of stage k = buffers * prod(fan_out of stages < k).
        let mut expected = pipe.buffers;
        for (i, (_, _, fan_out, _)) in pipe.stages.iter().enumerate() {
            let name = format!("s{}", i + 1);
            prop_assert_eq!(
                rep.per_copy.buffers_into(&name),
                expected,
                "stage {} lost or duplicated buffers", name
            );
            expected *= *fan_out as u64;
        }
    }

    #[test]
    fn makespan_respects_work_lower_bound(pipe in pipe_strategy()) {
        let rep = run_pipe(&pipe, &SimOptions::default());
        // Each stage's total work divided by its copy count bounds the
        // makespan from below (unit speeds, no way to go faster).
        let mut inflow = pipe.buffers as f64;
        let mut bound: f64 = pipe.src_cost * pipe.buffers as f64;
        for (copies, cost, fan_out, _) in &pipe.stages {
            bound = bound.max(inflow * cost / *copies as f64);
            inflow *= *fan_out as f64;
        }
        prop_assert!(
            rep.makespan + 1e-9 >= bound,
            "makespan {} below physical bound {}", rep.makespan, bound
        );
    }

    #[test]
    fn simulation_is_deterministic(pipe in pipe_strategy()) {
        let a = run_pipe(&pipe, &SimOptions::default());
        let b = run_pipe(&pipe, &SimOptions::default());
        prop_assert_eq!(a, b, "two identical runs diverged");
    }

    #[test]
    fn option_toggles_preserve_conservation(pipe in pipe_strategy()) {
        for options in [
            SimOptions { synchronous_sends: false, ..SimOptions::default() },
            SimOptions { bounded_queues: false, ..SimOptions::default() },
            SimOptions { synchronous_sends: false, bounded_queues: false },
        ] {
            let rep = run_pipe(&pipe, &options);
            prop_assert_eq!(rep.per_copy.buffers_into("s1"), pipe.buffers);
            prop_assert!(rep.makespan.is_finite());
        }
    }

    #[test]
    fn idealized_options_never_slow_the_run_much(pipe in pipe_strategy()) {
        // Removing blocking sends can only help or be neutral (modulo
        // demand-driven decisions shifting); allow a small tolerance for
        // scheduling noise but catch gross regressions.
        let real = run_pipe(&pipe, &SimOptions::default());
        let free = run_pipe(
            &pipe,
            &SimOptions { synchronous_sends: false, ..SimOptions::default() },
        );
        prop_assert!(
            free.makespan <= real.makespan * 1.25 + 1e-6,
            "free sends made the run much slower: {} vs {}",
            free.makespan,
            real.makespan
        );
    }
}

#[test]
fn round_robin_remains_exact_under_randomized_interleavings() {
    // Deterministic check kept out of proptest: a wide stage under RR gets
    // an exact split regardless of pipeline shape.
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
