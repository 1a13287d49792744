//! `predict-sweep` and `stream-sweep`: the paper's full sweep matrix
//! (`classification`, `table_5_1` and `finite_table` cells) over seeded
//! evaluation inputs, replayed from resident traces on one thread
//! (`ReplayRequest::batch`) or streamed from a live simulation through a
//! producer and one consumer thread (`ReplayRequest::stream`). Both give
//! the same per-cell statistics, checked against the same references.

use std::collections::HashSet;

use provp_core::experiments::{classification, finite_table, table_5_1};
use provp_core::replay::{ReplayRequest, SweepPlan};
use vp_isa::Program;
use vp_predictor::PredictorConfig;
use vp_sim::{RunLimits, Trace};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::digest::{Digest, References};
use crate::pgo_train::{train_kind, Trained};
use crate::spans::Recorder;
use crate::{count_run, pick, Bench, Layers};

/// Evaluation inputs per kind in one operation.
pub const EVAL_INPUTS: u32 = 10;

/// The seed draws evaluation inputs from `train(EVAL_FIRST) ..
/// train(EVAL_FIRST + EVAL_POOL - 1)`, all held out from the paper's
/// training inputs `train(0..5)`.
pub const EVAL_FIRST: u32 = Workload::PAPER_TRAIN_RUNS;

/// Size of the evaluation-input pool.
pub const EVAL_POOL: u32 = 32;

/// The evaluation inputs the seed picks for `kind`: `EVAL_INPUTS`
/// consecutive pool entries, wrapping around.
pub(crate) fn eval_inputs(seed: u64, kind: WorkloadKind) -> Vec<u32> {
    let start = pick(seed, 0x200 + kind as u64, EVAL_POOL);
    (0..EVAL_INPUTS)
        .map(|j| EVAL_FIRST + (start + j) % EVAL_POOL)
        .collect()
}

/// Reference key of one evaluation input's sweep.
pub(crate) fn key(kind: WorkloadKind, input: u32) -> String {
    format!("sweep/{kind}/{input}")
}

/// Every sweep cell the paper's predictor experiments request per kind, as
/// `repro-all` primes them.
pub(crate) fn paper_sweep_cells() -> Vec<(PredictorConfig, Option<f64>)> {
    let mut cells = classification::matrix_cells();
    cells.extend(table_5_1::matrix_cells());
    cells.extend(finite_table::matrix_cells());
    cells
}

/// Trains `kind` on the paper's training inputs and builds its sweep plan:
/// the bare program's directives for hardware-classified cells, the
/// annotated program's at each threshold for profile-classified ones.
pub(crate) fn plan_kind(
    kind: WorkloadKind,
    rec: &mut Recorder,
) -> Result<(SweepPlan, Trained), String> {
    let workload = Workload::new(kind);
    let programs: Vec<Program> = InputSet::train_set(Workload::PAPER_TRAIN_RUNS)
        .iter()
        .map(|input| rec.time("workloads.program", || workload.program(input)))
        .collect();
    let base = programs[0].without_directives();
    let trained = train_kind(kind, &programs, &base, rec)?;
    let mut plan = SweepPlan::new();
    for (config, threshold) in paper_sweep_cells() {
        let program = match threshold {
            None => &base,
            Some(th) => {
                &trained
                    .annotated
                    .iter()
                    .find(|(t, _)| *t == th)
                    .expect("sweep thresholds are PAPER_SWEEP thresholds")
                    .1
            }
        };
        let table = plan.add_directives(program);
        plan.add_cell(config, table);
    }
    Ok((plan, trained))
}

/// Distinct cells of a plan: what the fused kernel actually replays.
pub(crate) fn fused_cells(plan: &SweepPlan) -> u64 {
    plan.cells().iter().collect::<HashSet<_>>().len() as u64
}

/// Digest of one replay's per-cell statistics, in plan order.
pub(crate) fn digest(response: &provp_core::ReplayResponse) -> u64 {
    let mut d = Digest::default();
    for cell in &response.cells {
        d.stats(&cell.outcome.stats, cell.outcome.occupancy);
    }
    d.finish()
}

/// Captures `program`'s trace, failing on a fault or an exhausted budget.
pub(crate) fn capture(
    kind: WorkloadKind,
    program: &Program,
    rec: &mut Recorder,
) -> Result<Trace, String> {
    let limits = RunLimits::default();
    let span = rec.open("sim.capture");
    let trace =
        Trace::capture(program, limits).map_err(|e| format!("{kind}: capture fault: {e}"))?;
    rec.close(span, trace.len() as u64);
    if trace.len() as u64 >= limits.max_instructions {
        return Err(format!("{kind}: captured run exhausted its budget"));
    }
    Ok(trace)
}

enum Source {
    Trace(Trace),
    Program(Program),
}

struct Unit {
    kind: WorkloadKind,
    input: u32,
    plan: usize,
    source: Source,
    instructions: u64,
    events: u64,
}

pub(crate) struct Sweep {
    plans: Vec<SweepPlan>,
    fused: Vec<u64>,
    units: Vec<Unit>,
    tagged: u64,
}

/// Builds every kind's plan, then captures (batch) or sizes (stream) the
/// seeded evaluation inputs.
pub(crate) fn setup(seed: u64, streaming: bool, rec: &mut Recorder) -> Result<Sweep, String> {
    let mut sweep = Sweep {
        plans: Vec::new(),
        fused: Vec::new(),
        units: Vec::new(),
        tagged: 0,
    };
    for kind in WorkloadKind::ALL {
        let (plan, trained) = plan_kind(kind, rec)?;
        sweep.tagged += trained.tagged;
        sweep.fused.push(fused_cells(&plan));
        sweep.plans.push(plan);
        let workload = Workload::new(kind);
        for input in eval_inputs(seed, kind) {
            let program = rec.time("workloads.program", || {
                workload.program(&InputSet::train(input))
            });
            let (source, instructions, events) = if streaming {
                // Sized by one untimed simulation; the timed stream
                // re-simulates from the program.
                let (instructions, events) =
                    count_run(&program).map_err(|e| format!("{kind}/train({input}): {e}"))?;
                (Source::Program(program), instructions, events)
            } else {
                let trace = capture(kind, &program, rec)?;
                let (len, events) = (trace.len() as u64, trace.columns().dest_count() as u64);
                (Source::Trace(trace), len, events)
            };
            sweep.units.push(Unit {
                kind,
                input,
                plan: sweep.plans.len() - 1,
                source,
                instructions,
                events,
            });
        }
    }
    Ok(sweep)
}

impl Bench for Sweep {
    fn op(&mut self, refs: &References, rec: &mut Recorder) -> Result<(), String> {
        for unit in &self.units {
            let plan = self.plans[unit.plan].clone();
            let response = match &unit.source {
                Source::Trace(trace) => {
                    let span = rec.open("replay.batch");
                    let response = ReplayRequest::batch(trace)
                        .plan(plan)
                        .shards(1)
                        .jobs(1)
                        .run();
                    rec.close(span, unit.events * self.fused[unit.plan]);
                    response
                }
                Source::Program(program) => {
                    let span = rec.open("replay.stream");
                    let response = ReplayRequest::stream(program, RunLimits::default())
                        .plan(plan)
                        .shards(1)
                        .run();
                    rec.close(span, unit.events);
                    response
                }
            }
            .map_err(|e| format!("{}/train({}): replay error: {e}", unit.kind, unit.input))?;
            refs.check(&key(unit.kind, unit.input), digest(&response))?;
        }
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.units.iter().map(|u| u.instructions).sum()
    }

    fn layers(&mut self, rec: &Recorder, _ops: &[u32], layers: &mut Layers) {
        layers.capture_ns_per_instr = rec.ns_per_count("sim.capture");
        layers.tagged = self.tagged;
        layers.value_events = self.units.iter().map(|u| u.events).sum();
        layers.cells_requested = self
            .units
            .iter()
            .map(|u| self.plans[u.plan].cells().len() as u64)
            .sum();
        layers.cells_fused = self.units.iter().map(|u| self.fused[u.plan]).sum();
        layers.batch_ns_per_event_cell = rec.ns_per_count("replay.batch");
        layers.stream_ns_per_event = rec.ns_per_count("replay.stream");
        layers.stream_cpu_per_wall = rec.cpu_per_wall("replay.stream");
    }
}
