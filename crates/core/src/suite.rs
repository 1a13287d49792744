//! Memoised experiment context.
//!
//! The evaluation section re-uses the same expensive artifacts — five
//! training-run profile images per workload, merged profiles, annotated
//! binaries — across many tables and figures. A [`Suite`] computes each
//! artifact once and hands out clones. It is also the paper's three-phase
//! methodology: [`Suite::train_images`] profiles the phase-1 binary under
//! each training input, [`Suite::merged_image`] merges those images by
//! intersection, and [`Suite::annotated`] re-emits the binary with
//! directives (phase 3).
//!
//! Every method takes `&self`: caches live behind mutexes, the underlying
//! simulations are memoised as retirement traces in a shared
//! [`TraceStore`], and independent grid points can be fanned out over
//! threads with [`Suite::par_map`] while keeping output order (and
//! therefore rendered experiment output) byte-identical to a serial run.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

use vp_compiler::{annotate, AnnotationSummary, ThresholdPolicy};
use vp_ilp::{IlpConfig, IlpLanes, IlpResult, LaneOutcomes};
use vp_isa::Program;
use vp_predictor::{AttributionTable, OutcomeColumn, PredictorConfig, PredictorStats};
use vp_profile::{merge, ProfileCollector, ProfileImage};
use vp_sim::{run, RunLimits, Trace, Tracer};
use vp_workloads::{InputSet, Workload, WorkloadKind};

use crate::exec::parallel_map;
use crate::memo::Memo;
use crate::replay::{ReplayRequest, SweepPlan};
use crate::trace_store::{TraceError, TraceKey, TraceStore, TraceStoreStats};

/// Threshold key with stable hashing (per-mille accuracy).
fn th_key(threshold: f64) -> u32 {
    (threshold * 1000.0).round() as u32
}

/// Identity of one sweep-matrix cell: configuration × annotation
/// threshold, for one workload's reference trace.
type CellKey = (WorkloadKind, PredictorConfig, Option<u32>);

/// The memoised result of one sweep-matrix cell. Attribution is captured
/// at compute time (when the process has it enabled) so later requests
/// for the same cell can record their run without replaying. The outcome
/// column is recorded for the cells an ILP machine reads.
#[derive(Clone)]
struct CellResult {
    stats: PredictorStats,
    occupancy: usize,
    attribution: Option<Arc<AttributionTable>>,
    outcomes: Option<Arc<OutcomeColumn>>,
}

/// A memoising context for the whole evaluation.
///
/// All methods take `&self` (caches use interior mutability, so a single
/// suite can be shared across worker threads) and return owned values;
/// profile images and programs are small enough that cloning is negligible
/// next to simulation. Functional simulations run at most once per
/// `(workload, input, limits)` key — every consumer replays the memoised
/// retirement trace from the embedded [`TraceStore`].
///
/// # Examples
///
/// The profile → merge → annotate phases for one workload:
///
/// ```
/// use provp_core::Suite;
/// use vp_workloads::WorkloadKind;
///
/// let suite = Suite::with_train_runs(2); // the paper uses 5
/// let images = suite.train_images(WorkloadKind::Compress);
/// let merged = suite.merged_image(WorkloadKind::Compress);
/// let (_, summary) = suite.annotated(WorkloadKind::Compress, 0.9);
/// assert_eq!(images.len(), 2);
/// assert!(!merged.is_empty());
/// assert!(summary.tagged() > 0);
/// ```
pub struct Suite {
    limits: RunLimits,
    train_runs: u32,
    jobs: usize,
    streaming: bool,
    traces: Arc<TraceStore>,
    train_images: Memo<WorkloadKind, Vec<ProfileImage>>,
    merged_images: Memo<WorkloadKind, ProfileImage>,
    reference_images: Memo<WorkloadKind, ProfileImage>,
    annotated: Memo<(WorkloadKind, u32), (Program, AnnotationSummary)>,
    sweep: Memo<CellKey, CellResult>,
    /// Kinds whose reference trace has been matrix-replayed at least
    /// once (drives the `replay.matrix_traces` counter, the denominator
    /// of the CI `matrix_passes per trace` gate).
    swept: Memo<WorkloadKind, ()>,
    /// Kinds whose reference trace has run through the ILP lanes at
    /// least once (drives `ilp.traces`, the denominator of the
    /// `ilp.lane_passes` per trace gate).
    ilp_traced: Memo<WorkloadKind, ()>,
}

impl Suite {
    /// A suite with the paper's parameters (5 training runs), serial
    /// execution and an in-memory trace cache.
    #[must_use]
    pub fn new() -> Self {
        Suite::with_train_runs(Workload::PAPER_TRAIN_RUNS)
    }

    /// A suite with an abbreviated number of training runs (for tests).
    #[must_use]
    pub fn with_train_runs(train_runs: u32) -> Self {
        assert!(train_runs >= 1, "at least one training run required");
        Suite {
            limits: RunLimits::default(),
            train_runs,
            jobs: 1,
            streaming: false,
            traces: Arc::new(TraceStore::new()),
            train_images: Memo::new(),
            merged_images: Memo::new(),
            reference_images: Memo::new(),
            annotated: Memo::new(),
            sweep: Memo::new(),
            swept: Memo::new(),
            ilp_traced: Memo::new(),
        }
    }

    /// Sets the number of worker threads used by [`Suite::par_map`]
    /// (1 = serial; output is byte-identical either way).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Runs predictor sweeps in **streaming** mode: the
    /// reference simulation feeds the fused replay
    /// kernel through a bounded channel ([`crate::replay::stream`]) and
    /// the trace is never materialised, so peak RSS stays independent of
    /// trace length. Results are bit-identical to batch mode. Consumers
    /// that need a full trace (profiling, ILP) still
    /// capture one through the [`TraceStore`] as before — full traces
    /// become an optional cache policy, not a requirement of the sweep.
    #[must_use]
    pub fn with_streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Number of training runs per workload.
    #[must_use]
    pub fn train_runs(&self) -> u32 {
        self.train_runs
    }

    /// Worker threads used by [`Suite::par_map`].
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Usage counters of the embedded trace store.
    #[must_use]
    pub fn trace_stats(&self) -> TraceStoreStats {
        self.traces.stats()
    }

    /// A handle on the embedded trace store (shared, so a mid-run
    /// sampler hook can snapshot its internally-consistent stats from a
    /// background thread).
    #[must_use]
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.traces)
    }

    /// Maps `f` over `items` on up to [`Suite::jobs`] threads, returning
    /// results in input order — the building block every experiment grid
    /// uses to fan out per-workload work deterministically.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        parallel_map(self.jobs, items, f)
    }

    /// The memoised reference trace of `kind`, for the batch sweep
    /// (simulating at most once).
    fn trace(&self, kind: WorkloadKind) -> Arc<Trace> {
        expect_trace(self.traces.get(kind, InputSet::reference(), self.limits))
    }

    /// Replays the memoised trace of `kind` under `input` into `tracer`
    /// against `program` (simulating at most once per key, feeding the
    /// first consumer during the capture). Every trace consumer of the
    /// suite and its experiments goes through here.
    ///
    /// # Panics
    ///
    /// Panics if the simulation faults, or the trace does not replay
    /// against `program`; the message carries the offending trace key.
    pub(crate) fn replay_trace(
        &self,
        kind: WorkloadKind,
        input: InputSet,
        program: &Program,
        tracer: &mut impl Tracer,
    ) {
        expect_trace(
            self.traces
                .replay_into(kind, input, self.limits, program, tracer),
        );
    }

    fn profile_once(&self, kind: WorkloadKind, input: &InputSet) -> ProfileImage {
        let _span = vp_obs::span("profile");
        let workload = Workload::new(kind);
        let program = workload.program(input);
        let mut collector = ProfileCollector::new(format!("{}/{input}", workload.name()));
        if input.is_reference() {
            // Reference traces have many consumers (profilers, predictor
            // configurations, ILP models): worth memoising.
            self.replay_trace(kind, *input, &program, &mut collector);
        } else {
            // A training trace is consumed exactly once (its profile image
            // is what gets memoised), so recording it would cost memory
            // for nothing: simulate straight into the collector.
            expect_trace(
                run(&program, &mut collector, self.limits).map_err(|source| TraceError::Capture {
                    key: TraceKey::new(kind, *input, self.limits),
                    source,
                }),
            );
        }
        collector.into_image()
    }

    /// Profile images of the training runs (phase 2), one per input.
    pub fn train_images(&self, kind: WorkloadKind) -> Vec<ProfileImage> {
        self.train_images.get_or_compute(kind, || {
            let inputs = InputSet::train_set(self.train_runs);
            self.par_map(&inputs, |input| self.profile_once(kind, input))
        })
    }

    /// The intersected-and-summed training profile the compiler consumes.
    pub fn merged_image(&self, kind: WorkloadKind) -> ProfileImage {
        self.merged_images.get_or_compute(kind, || {
            let images = self.train_images(kind);
            let _span = vp_obs::span("merge");
            merge::intersect_and_sum(&images).image
        })
    }

    /// A profile image of the held-out reference run (used by the
    /// Section 2 characterisation tables/figures).
    pub fn reference_image(&self, kind: WorkloadKind) -> ProfileImage {
        self.reference_images
            .get_or_compute(kind, || self.profile_once(kind, &InputSet::reference()))
    }

    /// For FP workloads: `(init, computation)` phase images of the
    /// reference run, cut from [`Suite::reference_image`] at the
    /// workload's phase split.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no phase split (only the FP workloads
    /// do).
    pub fn reference_phase_images(&self, kind: WorkloadKind) -> (ProfileImage, ProfileImage) {
        let w = Workload::new(kind);
        let split = w
            .phase_split()
            .unwrap_or_else(|| panic!("{kind} has no phase split"));
        self.reference_image(kind).split_at(split, w.name())
    }

    /// The phase-3 annotated binary (trained on the training inputs) plus
    /// the annotation report, for one accuracy threshold.
    pub fn annotated(&self, kind: WorkloadKind, threshold: f64) -> (Program, AnnotationSummary) {
        self.annotated
            .get_or_compute((kind, th_key(threshold)), || {
                let merged = self.merged_image(kind);
                let _span = vp_obs::span("annotate");
                let base = Workload::new(kind)
                    .program(&InputSet::train(0))
                    .without_directives();
                let out = annotate(&base, &merged, &ThresholdPolicy::new(threshold));
                (out.program().clone(), *out.summary())
            })
    }

    /// The reference-input program, carrying directives from the training
    /// profile when `threshold` is given (the evaluation configuration:
    /// train on training inputs, run on the reference input).
    pub fn reference_program(&self, kind: WorkloadKind, threshold: Option<f64>) -> Program {
        let fresh = Workload::new(kind).program(&InputSet::reference());
        match threshold {
            None => fresh,
            Some(th) => {
                let (tagged, _) = self.annotated(kind, th);
                fresh.with_directives(|addr, _| tagged.text()[addr.index() as usize].directive)
            }
        }
    }

    /// Runs the reference input through a predictor configuration and
    /// returns the predictor statistics. `threshold` selects the annotated
    /// binary (profile-guided classification) or the bare one (hardware
    /// classification).
    ///
    /// Directives never change execution, so every configuration replays
    /// the same memoised reference trace instead of re-simulating.
    pub fn predictor_stats(
        &self,
        kind: WorkloadKind,
        config: PredictorConfig,
        threshold: Option<f64>,
    ) -> PredictorStats {
        self.predictor_stats_matrix(kind, &[(config, threshold)])
            .pop()
            .expect("singleton matrix returns one cell")
    }

    /// [`Suite::predictor_stats`] for a whole sweep at once: every
    /// requested `(config, threshold)` cell of `kind`'s reference trace,
    /// in request order.
    ///
    /// Missing cells are computed by **one** fused [`ReplayRequest`]
    /// pass over the reference value stream — the memoised trace, or, in
    /// [`Suite::with_streaming`] mode, a live simulation feeding the
    /// kernel through a bounded channel (duplicate cells dedupe,
    /// already-memoised cells are reused) — so a 6-configuration ×
    /// 5-threshold sweep scans the stream once instead of 30 times.
    /// Results are bit-identical to per-cell [`Suite::predictor_stats`]
    /// calls in either mode.
    ///
    /// Observability is per *request*, exactly as for the singleton path:
    /// every returned cell folds its stats into the `predictor.*`
    /// counters and (with attribution enabled) records one attribution
    /// run, whether it was a memo hit or freshly computed — so
    /// attribution run totals stay in exact 1:1 agreement with the
    /// counters.
    pub fn predictor_stats_matrix(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
    ) -> Vec<PredictorStats> {
        if cells.is_empty() {
            return Vec::new();
        }
        let results = self.sweep_cells(kind, cells, false);
        let mut grid = Vec::with_capacity(cells.len());
        for (&(config, threshold), result) in cells.iter().zip(&results) {
            if let Some(table) = &result.attribution {
                // Drift compares the Phase-2 training profile's promised
                // accuracy against what the reference replay observed;
                // merged_image is memoised, so this costs one lookup per
                // exported PC (outside the predict span either way).
                let top = crate::attribution::top_k().unwrap_or(0);
                let merged = self.merged_image(kind);
                crate::attribution::record(crate::attribution::run_from_table(
                    Workload::new(kind).name(),
                    &config.label(),
                    threshold,
                    table,
                    top,
                    |addr, directive| merged.get(addr).map(|p| p.profiled_accuracy(directive)),
                ));
            }
            vp_obs::gauge("predictor.occupancy.max").set_max(result.occupancy as u64);
            publish_predictor_metrics(&result.stats);
            grid.push(result.stats);
        }
        grid
    }

    /// Computes (and memoises) sweep cells for each of `kinds` without
    /// publishing any per-request observability — no `predictor.*`
    /// counters, no attribution runs. Later [`Suite::predictor_stats`] /
    /// [`Suite::predictor_stats_matrix`] requests for the primed cells
    /// become memo hits, so a driver like `repro-all` can fuse the whole
    /// paper sweep into one matrix pass per trace up front while every
    /// experiment still accounts its own requests exactly as before.
    pub fn prime_matrix(&self, kinds: &[WorkloadKind], cells: &[(PredictorConfig, Option<f64>)]) {
        if cells.is_empty() {
            return;
        }
        self.par_map(kinds, |&kind| {
            let _ = self.sweep_cells(kind, cells, false);
        });
    }

    /// Batch get-or-compute over the sweep memo: the cells nobody has
    /// computed or claimed are computed together by one fused matrix
    /// pass; cells claimed by other threads are waited for. A computed
    /// cell records its outcome column when `outcomes` asks for it or
    /// when it is one of the cells Table 5.2's machines read
    /// ([`finite_table::matrix_cells`]), so a primed paper sweep already
    /// holds every column the ILP lanes need.
    ///
    /// [`finite_table::matrix_cells`]: crate::experiments::finite_table::matrix_cells
    fn sweep_cells(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
        outcomes: bool,
    ) -> Vec<CellResult> {
        let keys: Vec<CellKey> = cells
            .iter()
            .map(|&(config, th)| (kind, config, th.map(th_key)))
            .collect();
        // Reversed so a key's first request cell wins, as it would claim.
        let cell_of: HashMap<CellKey, (PredictorConfig, Option<f64>)> = keys
            .iter()
            .copied()
            .zip(cells.iter().copied())
            .rev()
            .collect();
        let ilp_cells: Vec<CellKey> = crate::experiments::finite_table::matrix_cells()
            .into_iter()
            .map(|(config, th)| (kind, config, th.map(th_key)))
            .collect();
        let Ok(results) = self.sweep.get_or_compute_many(&keys, |claimed| {
            let plan_cells: Vec<_> = claimed
                .iter()
                .map(|key| (cell_of[key], outcomes || ilp_cells.contains(key)))
                .collect();
            Ok::<_, Infallible>(self.compute_matrix(kind, &plan_cells))
        });
        results
    }

    /// One fused matrix pass over `kind`'s reference trace for `cells`
    /// (assumed distinct), each flagged with whether it records its
    /// outcome column. Quiet: publishes nothing per cell — callers
    /// account requests themselves.
    fn compute_matrix(
        &self,
        kind: WorkloadKind,
        cells: &[((PredictorConfig, Option<f64>), bool)],
    ) -> Vec<CellResult> {
        // Resolve each distinct threshold's annotated program into a
        // directive table of the plan (annotation/merge cost lands in
        // their own spans, outside `predict`).
        let mut plan = SweepPlan::new();
        let mut table_of: HashMap<Option<u32>, usize> = HashMap::new();
        let mut plan_tables = Vec::with_capacity(cells.len());
        for &((_, threshold), _) in cells {
            let key = threshold.map(th_key);
            let table = match table_of.get(&key) {
                Some(&t) => t,
                None => {
                    let program = self.reference_program(kind, threshold);
                    let t = plan.add_directives(&program);
                    table_of.insert(key, t);
                    t
                }
            };
            plan_tables.push(table);
        }
        for (&((config, _), outcomes), &table) in cells.iter().zip(&plan_tables) {
            if outcomes {
                plan.add_outcome_cell(config, table);
            } else {
                plan.add_cell(config, table);
            }
        }
        self.swept
            .get_or_compute(kind, || vp_obs::counter("replay.matrix_traces").add(1));
        let replay_failed = |source| TraceError::Replay {
            key: TraceKey::new(kind, InputSet::reference(), self.limits),
            source,
        };
        // Attribution is observation-only: the same state walks run
        // either way, and the kernel decides once per block whether to
        // fold their codes into per-PC tables (byte-identical stdout).
        let attribution = crate::attribution::enabled();
        let response = expect_trace(if self.streaming {
            // Streaming: simulate the bare reference program (directive
            // annotations never influence execution — the plan's tables
            // carry them) and predict concurrently; no resident trace.
            let program = self.reference_program(kind, None);
            let _span = vp_obs::span("predict");
            ReplayRequest::stream(&program, self.limits)
                .plan(plan)
                .attribution(attribution)
                .run()
                .map_err(replay_failed)
        } else {
            // Materialise (or fetch) the memoised trace outside the
            // predict phase: capture cost is accounted to its own
            // `capture` span.
            let trace = self.trace(kind);
            let _span = vp_obs::span("predict");
            ReplayRequest::batch(&trace)
                .plan(plan)
                .attribution(attribution)
                .run()
                .map_err(replay_failed)
        });
        response
            .cells
            .into_iter()
            .map(|cell| CellResult {
                stats: cell.outcome.stats,
                occupancy: cell.outcome.occupancy,
                attribution: cell.attribution.map(Arc::new),
                outcomes: cell.outcomes.map(Arc::new),
            })
            .collect()
    }

    /// Replays the reference input through the abstract ILP machine: a
    /// one-machine [`Suite::ilp_machines`].
    pub fn ilp(&self, kind: WorkloadKind, config: IlpConfig, threshold: Option<f64>) -> IlpResult {
        self.ilp_machines(kind, &[(config, threshold)])
            .pop()
            .expect("one machine returns one result")
    }

    /// Runs every `(machine, threshold)` over `kind`'s reference input in
    /// **one** pass ([`IlpLanes`]), returning results in request order.
    /// `threshold` selects the annotated binary a value-predicting
    /// machine's predictor reads directives from, as for
    /// [`Suite::predictor_stats`].
    ///
    /// No predictor runs here: each predicting machine reads its cell's
    /// outcome column from the sweep memo (computed by one fused matrix
    /// pass if nobody has), and its [`IlpResult::predictor`] is that
    /// cell's [`PredictorStats`]. Results equal per-machine replays of
    /// the reference model, `vp_verify::refilp::IlpAnalyzer`.
    ///
    /// # Panics
    ///
    /// Panics if the machines do not share one window size.
    pub fn ilp_machines(
        &self,
        kind: WorkloadKind,
        machines: &[(IlpConfig, Option<f64>)],
    ) -> Vec<IlpResult> {
        let Some((first, _)) = machines.first() else {
            return Vec::new();
        };
        let cells: Vec<(PredictorConfig, Option<f64>)> = machines
            .iter()
            .filter_map(|(config, threshold)| config.predictor.map(|p| (p, *threshold)))
            .collect();
        let columns = self.outcome_cells(kind, &cells);
        let mut columns = columns.iter();
        let mut lanes = IlpLanes::new(first.window);
        for (config, _) in machines {
            let outcomes = config.predictor.map(|_| {
                let (column, stats) = columns.next().expect("one column per predicting machine");
                LaneOutcomes {
                    column,
                    stats: *stats,
                }
            });
            lanes.lane(config, outcomes);
        }
        // Directives only steer predictors, which ran in the sweep: the
        // bare program replays the trace.
        let program = self.reference_program(kind, None);
        let _span = vp_obs::span("ilp");
        self.replay_trace(kind, InputSet::reference(), &program, &mut lanes);
        vp_obs::counter("ilp.lane_passes").add(1);
        self.ilp_traced
            .get_or_compute(kind, || vp_obs::counter("ilp.traces").add(1));
        lanes.finish().0
    }

    /// The outcome column and stats of each cell, in request order. A
    /// cell an earlier sweep computed without its column (one outside
    /// the paper's ILP cells) is replayed again, unmemoised, to record it.
    fn outcome_cells(
        &self,
        kind: WorkloadKind,
        cells: &[(PredictorConfig, Option<f64>)],
    ) -> Vec<(Arc<OutcomeColumn>, PredictorStats)> {
        let results = self.sweep_cells(kind, cells, true);
        let missing: Vec<_> = cells
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.outcomes.is_none())
            .map(|(&cell, _)| (cell, true))
            .collect();
        let mut recorded = if missing.is_empty() {
            Vec::new()
        } else {
            self.compute_matrix(kind, &missing)
        }
        .into_iter();
        results
            .into_iter()
            .map(|r| {
                let r = match r.outcomes {
                    Some(_) => r,
                    None => recorded
                        .next()
                        .expect("one recorded cell per missing column"),
                };
                (r.outcomes.expect("recorded column"), r.stats)
            })
            .collect()
    }
}

/// The suite's one simulation fault site: a workload that faults or a
/// trace that fails to replay is a generator bug the suite does not
/// recover from, so it panics with the offending trace key.
fn expect_trace<T>(result: Result<T, TraceError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Folds one run's predictor statistics into the process-wide
/// observability counters (table pressure + per-classification hit rates).
fn publish_predictor_metrics(stats: &PredictorStats) {
    vp_obs::counter("predictor.accesses").add(stats.accesses);
    vp_obs::counter("predictor.hits").add(stats.hits);
    vp_obs::counter("predictor.raw_correct").add(stats.raw_correct);
    vp_obs::counter("predictor.speculated").add(stats.speculated);
    vp_obs::counter("predictor.speculated_correct").add(stats.speculated_correct);
    vp_obs::counter("predictor.allocations").add(stats.allocations);
    vp_obs::counter("predictor.evictions").add(stats.evictions);
    vp_obs::counter("predictor.set_conflicts").add(stats.set_conflicts);
    vp_obs::counter("predictor.stride.accesses").add(stats.stride_accesses);
    vp_obs::counter("predictor.stride.correct").add(stats.stride_correct);
    vp_obs::counter("predictor.last_value.accesses").add(stats.last_value_accesses);
    vp_obs::counter("predictor.last_value.correct").add(stats.last_value_correct);
    vp_obs::counter("predictor.unclassified.accesses").add(stats.unclassified_accesses);
    vp_obs::counter("predictor.unclassified.correct").add(stats.unclassified_correct);
}

impl Default for Suite {
    fn default() -> Self {
        Suite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::encode::text_delta;

    #[test]
    fn train_images_are_memoised() {
        let s = Suite::with_train_runs(2);
        let a = s.train_images(WorkloadKind::Compress);
        let b = s.train_images(WorkloadKind::Compress);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Training profiles are simulated straight into the collector
        // (their single consumer): nothing is recorded.
        assert_eq!(s.trace_stats().requests, 0);
    }

    /// The training merge runs once per workload, however many
    /// thresholds are annotated or attributed cells look it up.
    #[test]
    fn merged_image_is_memoised() {
        let s = Suite::with_train_runs(2);
        let kind = WorkloadKind::Compress;
        {
            let _scope = vp_obs::span("merged_image_memo_test");
            let first = s.merged_image(kind);
            for threshold in [0.5, 0.7, 0.9] {
                let _ = s.annotated(kind, threshold);
            }
            assert_eq!(first, s.merged_image(kind));
        }
        let snap = vp_obs::global().snapshot();
        let merges = snap.spans.get("merged_image_memo_test/merge");
        assert_eq!(merges.map(|phase| phase.count), Some(1));
    }

    #[test]
    fn pipeline_tags_ijpeg_loop_machinery() {
        let (_, summary) = Suite::with_train_runs(2).annotated(WorkloadKind::Ijpeg, 0.9);
        assert!(summary.stride_tagged >= 5, "{summary}");
        assert!(summary.below_threshold > 0, "{summary}");
        // ijpeg's sample loads and accumulations must not qualify at 90%.
        assert!(summary.tagged() < summary.producers());
    }

    #[test]
    fn pipeline_output_differs_only_in_directive_bits() {
        let (annotated, _) = Suite::with_train_runs(2).annotated(WorkloadKind::Compress, 0.8);
        let base = Workload::new(WorkloadKind::Compress).program(&InputSet::train(0));
        let deltas = text_delta(&base, &annotated).unwrap();
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|d| d.directive_only));
    }

    #[test]
    fn merged_profile_covers_every_run() {
        let s = Suite::with_train_runs(2);
        let images = s.train_images(WorkloadKind::M88ksim);
        let merged = s.merged_image(WorkloadKind::M88ksim);
        assert_eq!(images.len(), 2);
        let total: u64 = images.iter().map(ProfileImage::total_execs).sum();
        // Executions of instructions dropped by intersection.
        let omitted: u64 = images
            .iter()
            .flat_map(|img| img.iter())
            .filter(|(a, _)| merged.get(*a).is_none())
            .map(|(_, r)| r.execs)
            .sum();
        assert_eq!(merged.total_execs() + omitted, total);
    }

    #[test]
    fn annotated_threshold_monotonicity() {
        let s = Suite::with_train_runs(2);
        let (_, strict) = s.annotated(WorkloadKind::Ijpeg, 0.9);
        let (_, lax) = s.annotated(WorkloadKind::Ijpeg, 0.5);
        assert!(lax.tagged() >= strict.tagged());
    }

    #[test]
    fn reference_program_carries_directives_only_when_asked() {
        let s = Suite::with_train_runs(2);
        let bare = s.reference_program(WorkloadKind::M88ksim, None);
        let tagged = s.reference_program(WorkloadKind::M88ksim, Some(0.9));
        assert_eq!(bare.directive_counts().1 + bare.directive_counts().2, 0);
        let (_, lv, st) = tagged.directive_counts();
        assert!(lv + st > 0, "m88ksim must have predictable instructions");
        // Same text modulo directives, reference data.
        assert_eq!(bare.len(), tagged.len());
        assert_eq!(bare.data(), tagged.data());
    }

    #[test]
    fn mgrid_phase_images_are_disjoint() {
        let s = Suite::with_train_runs(1);
        let (init, comp) = s.reference_phase_images(WorkloadKind::Mgrid);
        assert!(!init.is_empty() && !comp.is_empty());
        for (addr, _) in init.iter() {
            assert!(comp.get(addr).is_none(), "{addr} in both phases");
        }
    }

    #[test]
    fn reference_trace_is_simulated_once_across_consumers() {
        let s = Suite::with_train_runs(1);
        let kind = WorkloadKind::Compress;
        let _ = s.reference_image(kind);
        let _ = s.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None);
        let _ = s.predictor_stats(
            kind,
            PredictorConfig::spec_table_stride_profile(),
            Some(0.9),
        );
        let _ = s.ilp(kind, IlpConfig::paper_vp_fsm(), None);
        let stats = s.trace_stats();
        // The reference input is simulated exactly once; every further
        // consumer (predictor configurations, the ILP machine) replays
        // the memoised trace from memory.
        assert_eq!(stats.captures, 1);
        assert!(stats.memory_hits >= 3, "{stats:?}");
    }

    #[test]
    fn streaming_suite_matches_batch_suite() {
        let batch = Suite::with_train_runs(1);
        let streamed = Suite::with_train_runs(1).with_jobs(2).with_streaming();
        let kind = WorkloadKind::Compress;
        let cells = [
            (PredictorConfig::spec_table_stride_fsm(), None),
            (PredictorConfig::spec_table_stride_profile(), Some(0.9)),
        ];
        assert_eq!(
            batch.predictor_stats_matrix(kind, &cells),
            streamed.predictor_stats_matrix(kind, &cells),
        );
        // Streaming sweeps never materialise the reference trace.
        assert_eq!(streamed.trace_stats().captures, 0);
    }

    #[test]
    fn parallel_suite_matches_serial_suite() {
        let serial = Suite::with_train_runs(2);
        let threaded = Suite::with_train_runs(2).with_jobs(4);
        let kind = WorkloadKind::Ijpeg;
        assert_eq!(serial.train_images(kind), threaded.train_images(kind));
        assert_eq!(
            serial.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None),
            threaded.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None),
        );
    }
}
