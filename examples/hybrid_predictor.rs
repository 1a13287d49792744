//! The hybrid predictor the paper's conclusions propose: a small stride
//! table for `.st`-tagged instructions plus a larger last-value table for
//! `.lv`-tagged ones, routed by the opcode directive.
//!
//! ```text
//! cargo run --release --example hybrid_predictor [workload]
//! ```
//!
//! Compares three same-budget designs on a phase-3 annotated binary:
//! a 512-entry stride table (counters), a 512-entry stride table
//! (directives) and a 128-stride + 384-last-value hybrid — showing how the
//! split spends the stride fields only where they pay.

use provp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = std::env::args()
        .nth(1)
        .map(|name| WorkloadKind::from_name(&name).ok_or(format!("unknown workload `{name}`")))
        .transpose()?
        .unwrap_or(WorkloadKind::Li);

    let suite = Suite::new();
    let tagged = suite.reference_program(kind, Some(0.7));
    let (_, lv, st) = tagged.directive_counts();
    println!("workload: {kind} — {st} stride-tagged, {lv} last-value-tagged producers\n");

    let designs: [(&str, PredictorConfig); 3] = [
        (
            "stride 512x2 + counters",
            PredictorConfig::spec_table_stride_fsm(),
        ),
        (
            "stride 512x2 + directives",
            PredictorConfig::spec_table_stride_profile(),
        ),
        (
            "hybrid 128 stride + 384 lv",
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(128, 2),
                last_value: TableGeometry::new(384, 2),
            },
        ),
    ];

    let trace = Trace::capture(&tagged, RunLimits::default())?;
    for (name, config) in designs {
        let stats = ReplayRequest::batch(&trace)
            .single(&tagged, config)
            .run()?
            .into_single()
            .outcome
            .stats;
        println!(
            "{name:<28} correct {:>8}  wrong {:>6}  effective accuracy {:>5.1}%",
            stats.speculated_correct,
            stats.speculated_incorrect(),
            100.0 * stats.effective_accuracy()
        );
    }

    // Show the hybrid's internal routing explicitly by driving it by hand.
    let mut hybrid = provp::predictor::HybridPredictor::new(
        TableGeometry::new(128, 2),
        TableGeometry::new(384, 2),
    );
    let mut feed = provp::sim::FnTracer::new(|ev: &provp::sim::Retirement<'_>| {
        if let Some((_, _, value)) = ev.dest {
            hybrid.access(ev.addr, ev.instr.directive, value);
        }
    });
    trace.replay(&tagged, &mut feed)?;
    let _ = feed; // release the closure's borrow of `hybrid`
    println!(
        "\nhybrid routing: stride side holds {} entries ({} correct), \
         last-value side {} entries ({} correct)",
        hybrid.stride_occupancy(),
        hybrid.stride_stats().speculated_correct,
        hybrid.last_value_occupancy(),
        hybrid.last_value_stats().speculated_correct,
    );
    Ok(())
}
