//! End-to-end integration: the three-phase methodology across crates.

use provp::core::Suite;
use provp::isa::encode::text_delta;
use provp::sim::{run, FnTracer, Retirement, RunLimits};
use provp::workloads::{InputSet, Workload, WorkloadKind};

/// Folds a retirement stream into an order-sensitive checksum of
/// (address, destination value) pairs.
fn trace_checksum(program: &provp::isa::Program) -> (u64, u64) {
    let mut checksum = 0u64;
    let mut count = 0u64;
    {
        let mut t = FnTracer::new(|ev: &Retirement<'_>| {
            count += 1;
            if let Some((_, _, v)) = ev.dest {
                checksum = checksum
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(u64::from(ev.addr.index()))
                    .wrapping_add(v.rotate_left(17));
            }
        });
        run(program, &mut t, RunLimits::default()).expect("program runs");
    }
    (checksum, count)
}

/// Directives are *hints*: phase 3 must never change what the program
/// computes, only how the hardware predicts it.
#[test]
fn annotation_preserves_architectural_semantics() {
    for kind in [
        WorkloadKind::Compress,
        WorkloadKind::Go,
        WorkloadKind::Mgrid,
    ] {
        let suite = Suite::with_train_runs(2);

        // Evaluate on the reference input with and without directives.
        let bare = suite.reference_program(kind, None);
        let tagged = suite.reference_program(kind, Some(0.7));
        assert_ne!(bare.directive_counts(), tagged.directive_counts(), "{kind}");
        assert_eq!(
            trace_checksum(&bare),
            trace_checksum(&tagged),
            "{kind}: semantics changed"
        );
    }
}

/// Phase 3 touches only the two directive bits of the encoded words.
#[test]
fn annotation_is_a_directive_bit_patch() {
    let (annotated, _) = Suite::with_train_runs(2).annotated(WorkloadKind::Perl, 0.5);
    let base = Workload::new(WorkloadKind::Perl).program(&InputSet::train(0));
    let deltas = text_delta(&base, &annotated).unwrap();
    assert!(
        !deltas.is_empty(),
        "the pass must tag something at a 50% threshold"
    );
    assert!(deltas.iter().all(|d| d.directive_only));
}

/// Training profiles predict evaluation behaviour: an instruction tagged
/// from training inputs should predict well on the reference input too
/// (the transfer property Section 4 establishes).
#[test]
fn training_classification_transfers_to_reference_input() {
    use provp::predictor::PredictorConfig;

    let stats = Suite::with_train_runs(3).predictor_stats(
        WorkloadKind::Ijpeg,
        PredictorConfig::spec_table_stride_profile(),
        Some(0.9),
    );
    assert!(
        stats.effective_accuracy() > 0.85,
        "instructions tagged at a 90% training threshold should stay accurate \
         on unseen inputs, got {:.1}%",
        100.0 * stats.effective_accuracy()
    );
}
