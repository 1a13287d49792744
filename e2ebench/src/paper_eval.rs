//! `paper-eval`: the whole evaluation exactly as `repro-all` runs it —
//! the nine Table 4.1 kinds, five training runs, batch mode, one job —
//! on a fresh `Suite` per operation. The rendered text is byte-for-byte
//! the `repro-all` standard output, and its digest is checked.

use std::fmt::Write as _;

use provp_core::experiments::{
    classification, fig_2_2, fig_2_3, fig_4, finite_table, table_2_1, table_5_1, table_5_2,
};
use provp_core::replay::SweepPlan;
use provp_core::Suite;
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::digest::{Digest, References};
use crate::spans::Recorder;
use crate::sweep::{fused_cells, paper_sweep_cells};
use crate::{count_run, Bench, Layers};

/// Span names of the experiment calls, in `repro-all` order; each
/// per-layer metric is the span name with an `_ms` suffix.
pub const EXPERIMENTS: [&str; 9] = [
    "experiments.table_2_1",
    "experiments.fig_2_2",
    "experiments.fig_2_3",
    "experiments.fig_4",
    "experiments.sweep",
    "experiments.classification",
    "experiments.table_5_1",
    "experiments.finite_table",
    "experiments.table_5_2",
];

/// Reference key of the rendered evaluation.
pub(crate) const KEY: &str = "paper-eval";

/// Machines Table 5.2 models per workload.
const ILP_MACHINES: u64 = 7;

/// What one evaluation left behind, for the per-layer counts.
#[derive(Default)]
struct SuiteCounts {
    trace_replays: u64,
    captures: u64,
    resident_bytes: u64,
}

/// Runs every experiment on a fresh suite and returns the text
/// `repro-all` prints.
fn evaluate(rec: &mut Recorder) -> (String, SuiteCounts) {
    let suite = Suite::new();
    let kinds = WorkloadKind::ALL;
    let int: Vec<WorkloadKind> = kinds.iter().copied().filter(|k| !k.is_fp()).collect();
    let fp: Vec<WorkloadKind> = kinds.iter().copied().filter(|k| k.is_fp()).collect();
    let mut out = String::new();
    let [t21, f22, f23, f4, sweep, cls, t51, ft, t52] = EXPERIMENTS;

    let r = rec.time(t21, || table_2_1::run(&suite, &int, &fp));
    writeln!(out, "{}\n", r.render()).expect("write to String");
    let r = rec.time(f22, || fig_2_2::run(&suite, &kinds));
    writeln!(out, "{}\n", r.render()).expect("write to String");
    let r = rec.time(f23, || fig_2_3::run(&suite, &kinds));
    writeln!(out, "{}\n", r.render()).expect("write to String");
    let r = rec.time(f4, || fig_4::run(&suite, &kinds));
    for which in [
        fig_4::Which::VMax,
        fig_4::Which::VAverage,
        fig_4::Which::SAverage,
    ] {
        writeln!(out, "{}\n", r.render(which)).expect("write to String");
    }
    rec.time(sweep, || suite.prime_matrix(&kinds, &paper_sweep_cells()));
    let r = rec.time(cls, || classification::run(&suite, &kinds));
    for which in [
        classification::Which::Mispredictions,
        classification::Which::CorrectPredictions,
    ] {
        writeln!(out, "{}\n", r.render(which)).expect("write to String");
    }
    let r = rec.time(t51, || table_5_1::run(&suite, &kinds));
    writeln!(out, "{}\n", r.render()).expect("write to String");
    let r = rec.time(ft, || finite_table::run(&suite, &kinds));
    for which in [finite_table::Which::Correct, finite_table::Which::Incorrect] {
        writeln!(out, "{}\n", r.render(which)).expect("write to String");
    }
    let before = suite.trace_stats().requests;
    let r = rec.time(t52, || table_5_2::run(&suite, &kinds));
    writeln!(out, "{}", r.render()).expect("write to String");
    let stats = suite.trace_stats();
    let counts = SuiteCounts {
        trace_replays: stats.requests - before,
        captures: stats.captures,
        resident_bytes: stats.resident_bytes,
    };
    (out, counts)
}

/// Digest of one evaluation's rendered text.
fn text_digest(text: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(text.as_bytes());
    d.finish()
}

/// Digest of one full evaluation.
pub(crate) fn digest(rec: &mut Recorder) -> u64 {
    text_digest(&evaluate(rec).0)
}

pub(crate) struct PaperEval {
    /// Per kind: (training-run instructions, reference instructions,
    /// reference value events).
    sizes: Vec<(u64, u64, u64)>,
    counts: SuiteCounts,
}

/// Generates every program the evaluation uses and simulates each once to
/// size the work an operation covers.
pub(crate) fn setup(rec: &mut Recorder) -> Result<PaperEval, String> {
    let mut sizes = Vec::new();
    for kind in WorkloadKind::ALL {
        let workload = Workload::new(kind);
        let mut size = (0, 0, 0);
        let mut inputs = InputSet::train_set(Workload::PAPER_TRAIN_RUNS);
        inputs.push(InputSet::reference());
        for input in inputs {
            let program = rec.time("workloads.program", || workload.program(&input));
            let (instructions, events) =
                count_run(&program).map_err(|e| format!("{kind}/{input}: {e}"))?;
            if input.is_reference() {
                size.1 = instructions;
                size.2 = events;
            } else {
                size.0 += instructions;
            }
        }
        sizes.push(size);
    }
    Ok(PaperEval {
        sizes,
        counts: SuiteCounts::default(),
    })
}

impl Bench for PaperEval {
    fn op(&mut self, refs: &References, rec: &mut Recorder) -> Result<(), String> {
        let (text, counts) = evaluate(rec);
        self.counts = counts;
        refs.check(KEY, text_digest(&text))
    }

    fn instructions(&self) -> u64 {
        self.sizes
            .iter()
            .map(|&(train, reference, _)| train + reference)
            .sum()
    }

    fn layers(&mut self, rec: &Recorder, ops: &[u32], layers: &mut Layers) {
        let ns = |name: &str| rec.per_op_ms(name, ops) * 1e6;
        let train: u64 = self.sizes.iter().map(|s| s.0).sum();
        let reference: u64 = self.sizes.iter().map(|s| s.1).sum();
        let events: u64 = self.sizes.iter().map(|s| s.2).sum();

        // Sweep shape: the plans the suite fuses, rebuilt untimed from the
        // annotated programs of a fresh suite.
        let suite = Suite::new();
        let cells = paper_sweep_cells();
        let mut event_cells = 0;
        for (kind, size) in WorkloadKind::ALL.into_iter().zip(&self.sizes) {
            let mut plan = SweepPlan::new();
            for &(config, threshold) in &cells {
                let table = plan.add_directives(&suite.reference_program(kind, threshold));
                plan.add_cell(config, table);
            }
            let fused = fused_cells(&plan);
            layers.cells_requested += cells.len() as u64;
            layers.cells_fused += fused;
            event_cells += size.2 * fused;
        }

        // The suite's layers run inside the experiment calls; each rate
        // divides the experiment the layer dominates by the layer's work.
        layers.profile_ns_per_instr = ratio(ns(EXPERIMENTS[3]), train);
        layers.capture_ns_per_instr = ratio(ns(EXPERIMENTS[0]), reference);
        layers.batch_ns_per_event_cell = ratio(ns(EXPERIMENTS[4]), event_cells);
        layers.ilp_ns_per_event_machine = ratio(ns(EXPERIMENTS[8]), reference * ILP_MACHINES);
        layers.value_events = events;
        layers.ilp_trace_replays = self.counts.trace_replays;
        layers.trace_captures = self.counts.captures;
        layers.trace_resident_mb = self.counts.resident_bytes as f64 / (1024.0 * 1024.0);
        for (slot, name) in layers.experiments_ms.iter_mut().zip(EXPERIMENTS) {
            *slot = rec.per_op_ms(name, ops);
        }
    }
}

fn ratio(ns: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns / units as f64
    }
}
