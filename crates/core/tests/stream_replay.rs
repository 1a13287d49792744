//! Property tests for the bounded-memory streaming replay engine: for
//! arbitrary loop-kernel programs, the streamed
//! [`provp_core::ReplayRequest`] grid (stats, occupancy, attribution
//! tables) must be **bit-identical** to the batch grid over the captured
//! trace, across all six predictor configuration families — the
//! producer/consumer interleaving may change the schedule, never the
//! result. A simulator fault mid-stream must end the
//! replay in the same typed error a capture reports, never a hang.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use provp_core::{ReplayRequest, SweepPlan};
use vp_isa::asm::assemble;
use vp_isa::Program;
use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
use vp_rng::{prop, Rng};
use vp_sim::{RunLimits, SimError, Trace};

/// The six predictor configuration families under both paper baselines:
/// the fixed panel every streamed replay is checked against.
fn six_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::two_bit_counter(),
        },
        PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        },
        PredictorConfig::TableTwoDelta {
            geometry: TableGeometry::new(12, 2),
            classifier: ClassifierKind::Directive,
        },
        PredictorConfig::Hybrid {
            stride: TableGeometry::new(8, 2),
            last_value: TableGeometry::new(12, 2),
        },
    ]
}

/// A random loop kernel: `producers` static value-writing instructions
/// (directives cycling none → stride → last-value, value patterns mixing
/// strides, repeats and loop-carried noise) executed `iters` times, so
/// the streamed run emits several thousand value events over a block
/// boundary or two.
fn kernel(rng: &mut Rng) -> Program {
    let producers = rng.gen_range(3..12u32);
    let iters = rng.gen_range(200..1200u32);
    let mut src = format!("li r1, 0\nli r2, {iters}\ntop:\n");
    for i in 0..producers {
        let reg = 3 + (i % 6); // r3..r8
        let suffix = match i % 3 {
            0 => "",
            1 => ".st",
            _ => ".lv",
        };
        match rng.gen_range(0..3u32) {
            // Constant stride.
            0 => src.push_str(&format!(
                "addi{suffix} r{reg}, r{reg}, {}\n",
                rng.gen_range(1..16u32)
            )),
            // Repeat of a loop-invariant.
            1 => src.push_str(&format!("add{suffix} r{reg}, r2, r0\n")),
            // Loop-carried mix (pseudo-noise).
            _ => src.push_str(&format!("add{suffix} r{reg}, r{reg}, r1\n")),
        }
    }
    src.push_str("addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
    assemble(&src).expect("synthetic kernel assembles")
}

#[test]
fn prop_streaming_is_bit_identical_to_batch() {
    prop::forall("streamed replay == batch replay", kernel)
        .cases(10)
        .check(|program| {
            let limits = RunLimits::default();
            let trace = Trace::capture(program, limits).expect("capture");
            let mut plan = SweepPlan::new();
            let table = plan.add_directives(program);
            for config in six_configs() {
                plan.add_cell(config, table);
            }
            let batch = ReplayRequest::batch(&trace)
                .plan(plan.clone())
                .run()
                .expect("batch replay")
                .outcomes();
            let streamed = ReplayRequest::stream(program, limits)
                .plan(plan.clone())
                .run()
                .expect("streamed replay")
                .outcomes();
            assert_eq!(streamed.len(), batch.len());
            for (cell, (s, b)) in streamed.iter().zip(&batch).enumerate() {
                assert_eq!(s.stats, b.stats, "cell {cell} stats diverged");
                assert_eq!(s.occupancy, b.occupancy, "cell {cell} occupancy diverged");
            }
        });
}

#[test]
fn prop_streamed_attribution_tables_match_batch() {
    prop::forall("streamed attribution == batch attribution", kernel)
        .cases(6)
        .check(|program| {
            let limits = RunLimits::default();
            let trace = Trace::capture(program, limits).expect("capture");
            let mut plan = SweepPlan::new();
            let table = plan.add_directives(program);
            for config in six_configs() {
                plan.add_cell(config, table);
            }
            let batch = ReplayRequest::batch(&trace)
                .plan(plan.clone())
                .attribution(true)
                .run()
                .expect("batch attributed replay");
            let streamed = ReplayRequest::stream(program, limits)
                .plan(plan.clone())
                .attribution(true)
                .run()
                .expect("streamed attributed replay");
            for (cell, (s, b)) in streamed.cells.iter().zip(&batch.cells).enumerate() {
                assert_eq!(
                    s.outcome.stats, b.outcome.stats,
                    "cell {cell} stats diverged"
                );
                assert_eq!(
                    s.attribution, b.attribution,
                    "cell {cell} attribution table diverged"
                );
                // Attribution totals reconcile with the stats in
                // streaming mode too (every access accounted).
                s.attribution
                    .as_ref()
                    .expect("attribution requested")
                    .reconcile(&s.outcome.stats)
                    .unwrap_or_else(|e| panic!("cell {cell} fails to reconcile: {e}"));
            }
        });
}

/// Duplicate cells dedupe to one predictor-bank slot in streaming mode
/// exactly as in batch mode, and each duplicate receives the shared
/// slot's result.
#[test]
fn streamed_duplicate_cells_share_one_slot() {
    let program = assemble(
        "li r1, 0\nli r2, 500\n\
         top: addi.st r3, r3, 4\nadd.lv r4, r2, r0\naddi r1, r1, 1\n\
         bne r1, r2, top\nhalt\n",
    )
    .expect("kernel assembles");
    let limits = RunLimits::default();
    let cfg = PredictorConfig::spec_table_stride_fsm();
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    plan.add_cell(cfg, table);
    plan.add_cell(cfg, table); // duplicate
    plan.add_cell(PredictorConfig::spec_table_stride_profile(), table);
    let streamed = ReplayRequest::stream(&program, limits)
        .plan(plan)
        .run()
        .expect("streamed replay")
        .outcomes();
    assert_eq!(streamed.len(), 3);
    assert_eq!(streamed[0].stats, streamed[1].stats);
    assert_eq!(streamed[0].occupancy, streamed[1].occupancy);
}

/// A simulator fault mid-stream ends the replay in a typed error, never
/// a hang: the program falls off its text segment (no `halt`) after
/// about 15k value events — more blocks than the queue holds. The error
/// carries the same [`SimError`] a plain capture reports.
#[test]
fn simulator_fault_mid_stream_is_a_typed_error() {
    let program = assemble("li r1, 0\nli r2, 15000\ntop: addi r1, r1, 1\nbne r1, r2, top\n")
        .expect("kernel assembles");
    let limits = RunLimits::default();
    let expected = Trace::capture(&program, limits).expect_err("the kernel faults");
    assert!(
        matches!(expected, SimError::PcOutOfRange { .. }),
        "{expected}"
    );
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    plan.add_cell(PredictorConfig::spec_table_stride_fsm(), table);
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = ReplayRequest::stream(&program, limits)
            .plan(plan)
            .run()
            .map(|_| ());
        let _ = tx.send(result);
    });
    let err = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stream hung")
        .expect_err("a faulting simulation cannot stream to completion");
    let fault = err.get_ref().and_then(|e| e.downcast_ref::<SimError>());
    assert_eq!(fault, Some(&expected), "{err}");
}
