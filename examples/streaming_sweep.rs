//! Bounded-memory replay: sweep a predictor matrix without ever holding
//! the trace in memory.
//!
//! ```text
//! cargo run --release --example streaming_sweep [workload]
//! ```
//!
//! The batch path captures the full retirement trace once and replays it
//! through the fused sweep kernel; the streaming path re-simulates the
//! program while 1024-event blocks flow through a bounded queue into the
//! fused kernel, so peak memory no longer scales with trace length. Both paths answer through the same
//! [`ReplayRequest`] builder and are bit-identical — this example runs
//! them side by side and asserts it.

use provp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = std::env::args()
        .nth(1)
        .map(|name| WorkloadKind::from_name(&name).ok_or(format!("unknown workload `{name}`")))
        .transpose()?
        .unwrap_or(WorkloadKind::Compress);
    // A phase-3 annotated binary, so the directive-routed configurations
    // in the sweep have tags to work with.
    let program = Suite::new().reference_program(kind, Some(0.7));
    let limits = RunLimits::default();

    // The sweep: both paper baselines plus a hybrid, sharing the
    // workload's own directive annotation.
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    for config in [
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::Hybrid {
            stride: TableGeometry::new(128, 2),
            last_value: TableGeometry::new(384, 2),
        },
    ] {
        plan.add_cell(config, table);
    }

    // Batch: capture the whole trace, then one fused pass over it.
    let trace = Trace::capture(&program, limits)?;
    println!(
        "{kind}: {} retired events resident in the batch trace",
        trace.len()
    );
    let batch = ReplayRequest::batch(&trace).plan(plan.clone()).run()?;

    // Streaming: no trace — the producer re-simulates into a bounded
    // queue of BLOCK_POOL blocks while the caller consumes.
    let streamed = ReplayRequest::stream(&program, limits).plan(plan).run()?;

    for (cell, (s, b)) in streamed.outcomes().iter().zip(batch.outcomes()).enumerate() {
        assert_eq!(s.stats, b.stats, "cell {cell} diverged");
        println!("cell {cell}: {}", s.stats);
    }
    println!("streaming == batch on every cell");
    Ok(())
}
