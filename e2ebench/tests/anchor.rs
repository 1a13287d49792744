//! Runs every workload at minimum size — one set-up, no warm-up, one
//! untraced and one traced operation — and checks the exact counts that
//! anchor the benchmark.

use provp_e2ebench::{chosen_inputs, run, Config, Layers, Outcome, WorkloadName};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn minimal(workload: WorkloadName, seed: u64) -> (Outcome, Layers) {
    let outcome = run(&Config {
        setup_reps: 1,
        warm_up: false,
        ..Config::new(workload, seed, 0.0, true)
    });
    assert_eq!(
        outcome.failed,
        0,
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    let layers = outcome
        .per_layer
        .clone()
        .expect("a traced run reports layers");
    (outcome, layers)
}

fn exact(l: &Layers) -> [u64; 5] {
    [
        l.sim_instructions,
        l.value_events,
        l.cells_fused,
        l.ilp_trace_replays,
        l.tagged,
    ]
}

#[test]
fn every_metric_prints_with_its_unit_and_exact_counts_repeat() {
    let declared = BENCHMARK.matches("{\"name\": \"").count() - WorkloadName::ALL.len();
    for workload in WorkloadName::ALL {
        let (first, layers) = minimal(workload, 11);
        let metrics: Vec<_> = first
            .end_to_end
            .iter()
            .cloned()
            .chain(layers.metrics())
            .collect();
        assert_eq!(
            metrics.len(),
            declared,
            "{}: every declared metric",
            workload.name()
        );
        for m in &metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                BENCHMARK.contains(&entry),
                "{}: {entry} not in BENCHMARK.json",
                workload.name()
            );
            assert!(m.value.is_finite());
        }
        for m in &first.end_to_end {
            assert!(m.value > 0.0, "{}: {} is 0", workload.name(), m.name);
        }
        assert!(layers.sim_instructions > 0);

        let (_, again) = minimal(workload, 11);
        assert_eq!(
            exact(&layers),
            exact(&again),
            "{}: exact counts repeat",
            workload.name()
        );
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for workload in [
        WorkloadName::PgoTrain,
        WorkloadName::PredictSweep,
        WorkloadName::StreamSweep,
    ] {
        assert_eq!(chosen_inputs(workload, 5), chosen_inputs(workload, 5));
        assert_ne!(chosen_inputs(workload, 5), chosen_inputs(workload, 6));
    }
    let (_, a) = minimal(WorkloadName::PgoTrain, 5);
    let (_, b) = minimal(WorkloadName::PgoTrain, 6);
    assert_ne!(a.sim_instructions, b.sim_instructions);
}
