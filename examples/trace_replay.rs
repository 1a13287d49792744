//! Record once, analyze many times: the SHADE-style trace workflow.
//!
//! ```text
//! cargo run --release --example trace_replay [workload]
//! ```
//!
//! Simulates one workload a single time while recording its retirement
//! trace (columnar, in memory), then replays it into three different
//! consumers — the profiler, a predictor, and the ILP machine — without
//! touching the simulator again.

use provp::core::ReplayRequest;
use provp::ilp::{IlpConfig, IlpLanes};
use provp::predictor::PredictorConfig;
use provp::profile::ProfileCollector;
use provp::sim::{run, RunLimits, Trace, TraceRecorder};
use provp::workloads::{InputSet, Workload, WorkloadKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = std::env::args()
        .nth(1)
        .map(|name| WorkloadKind::from_name(&name).ok_or(format!("unknown workload `{name}`")))
        .transpose()?
        .unwrap_or(WorkloadKind::Compress);
    let program = Workload::new(kind).program(&InputSet::reference());

    // Simulate once, recording the trace in columnar form.
    let mut recorder = TraceRecorder::new();
    let summary = run(&program, &mut recorder, RunLimits::default())?;
    println!("recorded {kind}: {summary}");
    let trace = Trace::from_columns(recorder.into_columns());

    // Consumer 1: the phase-2 profiler.
    let mut profiler = ProfileCollector::new(kind.name());
    trace.replay(&program, &mut profiler)?;
    let image = profiler.into_image();
    println!("profiler:  {} static value producers", image.len());

    // Consumer 2: the finite-table predictor — fed from the value-event
    // columns alone, the same fast path the experiment suite replays.
    let mut predictor = PredictorConfig::spec_table_stride_fsm().build();
    for block in trace.columns().value_events() {
        for (addr, value) in block.iter() {
            let directive = program.text()[addr.index() as usize].directive;
            predictor.access(addr, directive, value);
        }
    }
    println!("predictor: {}", predictor.stats());

    // The replay builder the experiment suite uses gives the same
    // statistics as the hand-written value-event scan.
    let replayed = ReplayRequest::batch(&trace)
        .single(&program, PredictorConfig::spec_table_stride_fsm())
        .run()?
        .into_single();
    assert_eq!(&replayed.outcome.stats, predictor.stats());

    // Consumer 3: the abstract ILP machine, as a one-lane pass.
    let mut ilp = IlpLanes::new(IlpConfig::PAPER_WINDOW);
    ilp.lane(&IlpConfig::paper_no_vp(), None);
    trace.replay(&program, &mut ilp)?;
    println!("ilp:       {}", ilp.finish().0[0]);
    Ok(())
}
