//! `pgo-train`: the paper's three PGO phases over many seeded training
//! inputs per kind — profile each run (`vp_sim::run` into a
//! `ProfileCollector`), merge the images (`merge::intersect_and_sum`),
//! annotate at the five `ThresholdPolicy::PAPER_SWEEP` thresholds.
//! No trace capture, no predictor, no ILP.

use vp_compiler::{annotate, ThresholdPolicy};
use vp_isa::Program;
use vp_profile::{merge, ProfileCollector};
use vp_sim::RunLimits;
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::digest::{Digest, References};
use crate::spans::Recorder;
use crate::{pick, Bench, Layers};

/// Training runs per kind in one operation.
pub const TRAIN_WINDOW: u32 = 20;

/// Window starts the seed chooses from; the window of start `b` is
/// `train(b) .. train(b + TRAIN_WINDOW - 1)`.
pub const WINDOW_STARTS: u32 = 32;

/// One kind's trained artifacts.
pub(crate) struct Trained {
    /// Digest of the merged image and the five annotation summaries.
    pub digest: u64,
    /// The annotated program at each `PAPER_SWEEP` threshold.
    pub annotated: Vec<(f64, Program)>,
    /// Instructions tagged, summed over the thresholds.
    pub tagged: u64,
    /// Instructions simulated while profiling.
    pub instructions: u64,
}

/// Profiles `programs`, merges their images and annotates `base` at every
/// paper threshold. Every annotated program must differ from `base` in
/// directive bits only.
pub(crate) fn train_kind(
    kind: WorkloadKind,
    programs: &[Program],
    base: &Program,
    rec: &mut Recorder,
) -> Result<Trained, String> {
    let mut images = Vec::with_capacity(programs.len());
    let mut instructions = 0;
    for program in programs {
        let mut collector = ProfileCollector::new(kind.name());
        let span = rec.open("sim.profile");
        let summary = vp_sim::run(program, &mut collector, RunLimits::default())
            .map_err(|e| format!("{kind}: simulation fault while profiling: {e}"))?;
        rec.close(span, summary.instructions());
        if !summary.halted() {
            return Err(format!("{kind}: profiling run exhausted its budget"));
        }
        instructions += summary.instructions();
        images.push(collector.into_image());
    }
    let span = rec.open("profile.merge");
    let merged = merge::intersect_and_sum(&images).image;
    rec.close(span, images.len() as u64);

    let mut digest = Digest::default();
    digest.image(&merged);
    let mut annotated = Vec::with_capacity(ThresholdPolicy::PAPER_SWEEP.len());
    let mut tagged = 0;
    for th in ThresholdPolicy::PAPER_SWEEP {
        let span = rec.open("compiler.annotate");
        let out = annotate(base, &merged, &ThresholdPolicy::new(th));
        rec.close(span, 1);
        let deltas = vp_isa::encode::text_delta(base, out.program())
            .map_err(|e| format!("{kind}: annotated text does not encode: {e}"))?;
        if let Some(d) = deltas.iter().find(|d| !d.directive_only) {
            return Err(format!(
                "{kind}: annotation at {th} changed word {} beyond its directive bits",
                d.index
            ));
        }
        digest.summary(out.summary());
        tagged += out.summary().tagged() as u64;
        annotated.push((th, out.into_program()));
    }
    Ok(Trained {
        digest: digest.finish(),
        annotated,
        tagged,
        instructions,
    })
}

/// Reference key of one kind's window.
pub(crate) fn key(kind: WorkloadKind, start: u32) -> String {
    format!("pgo/{kind}/{start}")
}

/// The window start the seed picks for `kind`.
pub(crate) fn window_start(seed: u64, kind: WorkloadKind) -> u32 {
    pick(seed, 0x100 + kind as u64, WINDOW_STARTS)
}

/// Training programs `train(start) ..` of one window.
pub(crate) fn window(kind: WorkloadKind, start: u32, rec: &mut Recorder) -> Vec<Program> {
    let workload = Workload::new(kind);
    (start..start + TRAIN_WINDOW)
        .map(|k| {
            rec.time("workloads.program", || {
                workload.program(&InputSet::train(k))
            })
        })
        .collect()
}

struct KindWindow {
    kind: WorkloadKind,
    start: u32,
    programs: Vec<Program>,
    base: Program,
}

pub(crate) struct PgoTrain {
    windows: Vec<KindWindow>,
    instructions: u64,
    tagged: u64,
}

/// Generates every kind's seeded training programs.
pub(crate) fn setup(seed: u64, rec: &mut Recorder) -> PgoTrain {
    let windows = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let start = window_start(seed, kind);
            let programs = window(kind, start, rec);
            let base = programs[0].without_directives();
            KindWindow {
                kind,
                start,
                programs,
                base,
            }
        })
        .collect();
    PgoTrain {
        windows,
        instructions: 0,
        tagged: 0,
    }
}

impl Bench for PgoTrain {
    fn op(&mut self, refs: &References, rec: &mut Recorder) -> Result<(), String> {
        let (mut instructions, mut tagged) = (0, 0);
        for w in &self.windows {
            let trained = train_kind(w.kind, &w.programs, &w.base, rec)?;
            refs.check(&key(w.kind, w.start), trained.digest)?;
            instructions += trained.instructions;
            tagged += trained.tagged;
        }
        self.instructions = instructions;
        self.tagged = tagged;
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }

    fn layers(&mut self, rec: &Recorder, ops: &[u32], layers: &mut Layers) {
        layers.profile_ns_per_instr = rec.ns_per_count("sim.profile");
        layers.merge_ms = rec.per_op_ms("profile.merge", ops);
        layers.annotate_ms = rec.per_op_ms("compiler.annotate", ops);
        layers.tagged = self.tagged;
    }
}
