//! Property tests for the fused sweep-matrix replay: for arbitrary
//! traces and cell sets, every cell of a multi-cell
//! [`provp_core::ReplayRequest`] plan must be **bit-identical** to an
//! independent per-cell replay — including plans with duplicate cells and
//! multiple directive-annotation tables.
//!
//! "Per-cell replay" is a single-cell request, which the property and
//! `singleton_plan_matches_the_reference` pin to the event-at-a-time
//! [`common::reference_replay`]. Generators live in `common/mod.rs`.

mod common;

use common::{arb_config, arb_events, program_with, reference_replay, replay_cell};
use provp_core::{ReplayCellOutcome, ReplayRequest, Suite, SweepPlan};
use vp_isa::Program;
use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
use vp_rng::{prop, Rng};
use vp_sim::Trace;
use vp_workloads::WorkloadKind;

/// The fused replay of a whole plan.
fn replay_plan(trace: &Trace, plan: &SweepPlan, attribution: bool) -> Vec<ReplayCellOutcome> {
    ReplayRequest::batch(trace)
        .plan(plan.clone())
        .attribution(attribution)
        .run()
        .expect("matrix")
        .cells
}

/// A fixed panel spanning every configuration shape (for the
/// deterministic tests).
fn panel() -> Vec<PredictorConfig> {
    let fsm = ClassifierKind::two_bit_counter();
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::InfiniteStride { classifier: fsm },
        PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        },
        PredictorConfig::TableTwoDelta {
            geometry: TableGeometry::new(12, 2),
            classifier: ClassifierKind::Directive,
        },
        PredictorConfig::Hybrid {
            stride: TableGeometry::new(4, 2),
            last_value: TableGeometry::new(8, 2),
        },
    ]
}

/// A deterministic mixed trace + the tagged and stripped programs.
fn fixture() -> (Trace, Program, Program) {
    let mut rng = Rng::seed_from_u64(7);
    let program = program_with(60);
    let stripped = program.without_directives();
    let trace = Trace::from_events(arb_events(&mut rng, 60, 4_000));
    (trace, program, stripped)
}

#[test]
fn empty_plan_yields_an_empty_grid() {
    let (trace, program, _) = fixture();
    let mut plan = SweepPlan::new();
    plan.add_directives(&program);
    assert!(plan.is_empty());
    for attribution in [false, true] {
        assert!(replay_plan(&trace, &plan, attribution).is_empty());
    }
}

#[test]
fn singleton_plan_matches_the_reference() {
    let (trace, program, _) = fixture();
    for config in panel() {
        let cell = replay_cell(&trace, &program, config, true);
        let (stats, occupancy, table) = reference_replay(&trace, &program, config);
        assert_eq!(cell.outcome.stats, stats, "{}", config.label());
        assert_eq!(cell.outcome.occupancy, occupancy, "{}", config.label());
        assert_eq!(cell.attribution, Some(table), "{}", config.label());
    }
}

#[test]
fn duplicate_cells_all_receive_the_shared_outcome() {
    let (trace, program, _) = fixture();
    let config = PredictorConfig::spec_table_stride_fsm();
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    for _ in 0..3 {
        plan.add_cell(config, table);
    }
    // Registering an identical annotation again reuses the same table,
    // so these cells dedupe with the three above as well.
    let again = plan.add_directives(&program);
    assert_eq!(again, table, "identical annotation tables must collapse");
    plan.add_cell(config, again);
    let expected = replay_cell(&trace, &program, config, true);
    let fused = replay_plan(&trace, &plan, true);
    assert_eq!(fused.len(), 4, "every requested cell gets an outcome");
    for cell in &fused {
        assert_eq!(cell.outcome.stats, expected.outcome.stats);
        assert_eq!(cell.outcome.occupancy, expected.outcome.occupancy);
        assert_eq!(cell.attribution, expected.attribution);
    }
}

#[test]
fn mixed_plan_matches_per_cell_replays() {
    let (trace, program, stripped) = fixture();
    let mut plan = SweepPlan::new();
    let tagged = plan.add_directives(&program);
    let bare = plan.add_directives(&stripped);
    assert_ne!(tagged, bare, "distinct annotations keep distinct tables");
    // (config, table, per-cell reference program) across both tables.
    let mut cells: Vec<(PredictorConfig, usize, &Program)> = Vec::new();
    for config in panel() {
        cells.push((config, tagged, &program));
        cells.push((config, bare, &stripped));
    }
    for &(config, table, _) in &cells {
        plan.add_cell(config, table);
    }
    let fused = replay_plan(&trace, &plan, false);
    assert_eq!(fused.len(), cells.len());
    for (i, (cell, &(config, _, p))) in fused.iter().zip(&cells).enumerate() {
        let exp = replay_cell(&trace, p, config, false).outcome;
        let out = &cell.outcome;
        assert_eq!(out.stats, exp.stats, "cell {i} ({})", config.label());
        assert_eq!(out.occupancy, exp.occupancy, "cell {i}");
    }
}

#[test]
fn attributed_matrix_matches_attributed_per_cell_replay() {
    let (trace, program, stripped) = fixture();
    let mut plan = SweepPlan::new();
    let tagged = plan.add_directives(&program);
    let bare = plan.add_directives(&stripped);
    let cells: Vec<(PredictorConfig, usize, &Program)> = vec![
        (PredictorConfig::spec_table_stride_fsm(), tagged, &program),
        (
            PredictorConfig::spec_table_stride_profile(),
            tagged,
            &program,
        ),
        (
            PredictorConfig::spec_table_stride_profile(),
            bare,
            &stripped,
        ),
        // Two classifiers over one infinite-stride walk.
        (
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::two_bit_counter(),
            },
            tagged,
            &program,
        ),
        (
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::Directive,
            },
            tagged,
            &program,
        ),
    ];
    for &(config, table, _) in &cells {
        plan.add_cell(config, table);
    }
    let fused = replay_plan(&trace, &plan, true);
    assert_eq!(fused.len(), cells.len());
    for (i, (cell, &(config, _, p))) in fused.iter().zip(&cells).enumerate() {
        let (stats, occupancy, expected) = reference_replay(&trace, p, config);
        let (out, table) = (
            &cell.outcome,
            cell.attribution.as_ref().expect("attributed"),
        );
        assert_eq!(out.stats, stats, "cell {i}");
        assert_eq!(out.occupancy, occupancy, "cell {i}");
        assert_eq!(*table, expected, "cell {i} attribution table");
        table
            .reconcile(&out.stats)
            .expect("attribution totals reconcile with the fused stats");
    }
}

#[test]
fn prop_fused_matrix_is_bit_identical_to_per_cell_replay() {
    prop::forall("fused matrix == per-cell replays == reference", |rng| {
        let n_static = rng.gen_range(4..160u32);
        let len = rng.gen_range(50..1500usize);
        let events = arb_events(rng, n_static, len);
        let n_cells = rng.gen_range(1..7usize);
        let configs: Vec<PredictorConfig> = (0..n_cells).map(|_| arb_config(rng)).collect();
        // Duplicate a random cell half the time to keep dedup honest.
        let dup = (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..n_cells));
        (n_static, events, configs, dup)
    })
    .cases(32)
    .check(|(n_static, events, configs, dup)| {
        let program = program_with(*n_static);
        let stripped = program.without_directives();
        let trace = Trace::from_events(events.clone());
        let mut plan = SweepPlan::new();
        let tagged = plan.add_directives(&program);
        let bare = plan.add_directives(&stripped);
        // Alternate cells between the two annotation tables.
        let mut cells: Vec<(PredictorConfig, usize, &Program)> = configs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i % 2 == 0 {
                    (c, tagged, &program)
                } else {
                    (c, bare, &stripped)
                }
            })
            .collect();
        if let Some(i) = dup {
            cells.push(cells[*i]);
        }
        for &(config, table, _) in &cells {
            plan.add_cell(config, table);
        }
        let fused = replay_plan(&trace, &plan, false);
        assert_eq!(fused.len(), cells.len());
        for (i, (cell, &(config, _, p))) in fused.iter().zip(&cells).enumerate() {
            let (out, exp) = (&cell.outcome, replay_cell(&trace, p, config, false).outcome);
            // The per-cell replay itself must equal the event-at-a-time
            // reference.
            let (stats, occupancy, _) = reference_replay(&trace, p, config);
            assert_eq!(exp.stats, stats, "{} != reference", config.label());
            assert_eq!(exp.occupancy, occupancy, "{} != reference", config.label());
            assert_eq!(out.stats, exp.stats, "cell {i} ({})", config.label());
            assert_eq!(out.occupancy, exp.occupancy, "cell {i}");
        }
    });
}

#[test]
fn suite_matrix_matches_per_cell_requests_and_is_job_invariant() {
    let kind = WorkloadKind::Compress;
    let cells = [
        (PredictorConfig::spec_table_stride_fsm(), None),
        (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
        (PredictorConfig::spec_table_stride_profile(), Some(0.7)),
        // A duplicate request-cell: answered like its twin.
        (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
    ];
    let suite = Suite::with_train_runs(2);
    let grid = suite.predictor_stats_matrix(kind, &cells);
    assert_eq!(grid.len(), cells.len());
    assert_eq!(grid[1], grid[3], "duplicate request-cells share a result");
    for (i, &(config, threshold)) in cells.iter().enumerate() {
        // The memoised per-cell path must agree with the fused grid.
        assert_eq!(
            suite.predictor_stats(kind, config, threshold),
            grid[i],
            "cell {i}"
        );
    }
    // A parallel suite computes the identical grid.
    let parallel = Suite::with_train_runs(2).with_jobs(4);
    assert_eq!(parallel.predictor_stats_matrix(kind, &cells), grid);
    // The empty request stays empty.
    assert!(suite.predictor_stats_matrix(kind, &[]).is_empty());
}
