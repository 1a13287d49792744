//! Fused predictor replay: one pass over a trace for a whole sweep.
//!
//! Every headline figure of the paper is a sweep — several predictor
//! configurations × several profiling thresholds over the *same* trace —
//! and replaying per cell scans the identical value stream `cells` times.
//! The fused engine reads the trace's value events once, as
//! [`ValueBlock`]s, resolves each distinct directive annotation's per-PC
//! row once per block, walks each distinct
//! predictor *state* over the block once ([`vp_predictor::StateWalk`]:
//! cells that differ only in classifier or directive table share one
//! walk) and lets every cell tally the walk's raw codes into its
//! [`vp_predictor::CodeHistogram`], so every cell's grid entry is
//! bit-identical to its own per-access replay. An attributed replay runs
//! the same walks and also folds each cell's view of the codes into its
//! per-PC [`AttributionTable`].
//!
//! A replay runs on the calling thread; a streamed one adds one thread,
//! the simulation that feeds it. The experiments' parallelism is one
//! level up, in the per-workload grids ([`crate::exec::parallel_map`]).
//!
//! ## Entry point
//!
//! All replays go through one builder, [`ReplayRequest`]: pick a source
//! ([`ReplayRequest::batch`] for a resident [`Trace`],
//! [`ReplayRequest::stream`] to simulate and predict concurrently without
//! ever materialising the trace — see [`stream`]), describe the cells
//! ([`ReplayRequest::plan`] / [`ReplayRequest::single`]), and [`run`]
//! it. Both sources deliver the same blocks — the resident trace's
//! decoder ([`vp_sim::TraceColumns::value_events`]) and the stream's
//! producer cut the value events into the same [`VALUE_BLOCK`]-event
//! [`ValueBlock`]s — and the kernel scans each block as it arrives. It
//! fans its slots out to the plan's cells the same way for either
//! source, and attribution only adds an observer to that kernel, so the
//! four combinations of source × attribution share one code path.
//!
//! [`run`]: ReplayRequest::run

use std::collections::HashMap;
use std::io;

use vp_isa::{Directive, Program};
use vp_predictor::{
    AttributionTable, CodeHistogram, OutcomeColumn, PredictorConfig, PredictorStats, StateWalk,
};
use vp_sim::{RunLimits, Trace, ValueBlock, VALUE_BLOCK};

pub mod stream;

/// The result of a predictor replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOutcome {
    /// Predictor statistics, bit-identical to a per-access replay.
    pub stats: PredictorStats,
    /// Occupied table entries at the end of the replay.
    pub occupancy: usize,
}

/// One cell of a [`SweepPlan`]: a predictor configuration replayed under
/// one of the plan's directive annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixCell {
    /// The predictor + classifier to replay.
    pub config: PredictorConfig,
    /// Index of the directive table (from [`SweepPlan::add_directives`])
    /// this cell reads its per-PC directives from. Cells sharing a table
    /// share its resolved directive row — the sweep's "compute each
    /// threshold's annotation once" cache.
    pub directives: usize,
    /// Whether the replay also records the cell's [`OutcomeColumn`]
    /// (one outcome per value event, in trace order) for a dataflow
    /// model to read.
    pub outcomes: bool,
}

/// The full sweep matrix for one trace: a set of directive annotations
/// (one per distinct profiling threshold, plus the bare program) and the
/// `(PredictorConfig, annotation)` cells to replay under them.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    tables: Vec<Vec<Directive>>,
    cells: Vec<MatrixCell>,
}

impl SweepPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        SweepPlan::default()
    }

    /// Registers `program`'s directive annotation as a table and returns
    /// its index for [`SweepPlan::add_cell`]. Identical annotations (e.g.
    /// two thresholds that saturate to the same tagging) dedupe to one
    /// table, so the kernel resolves their directive row once.
    pub fn add_directives(&mut self, program: &Program) -> usize {
        let table: Vec<Directive> = program.text().iter().map(|i| i.directive).collect();
        if let Some(i) = self.tables.iter().position(|t| *t == table) {
            return i;
        }
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Adds a cell replaying `config` under directive table `directives`.
    ///
    /// # Panics
    ///
    /// Panics if `directives` was not returned by
    /// [`SweepPlan::add_directives`] on this plan.
    pub fn add_cell(&mut self, config: PredictorConfig, directives: usize) {
        self.push_cell(config, directives, false);
    }

    /// [`SweepPlan::add_cell`] for a cell whose replay also records its
    /// [`OutcomeColumn`] ([`ReplayCellOutcome::outcomes`]).
    ///
    /// # Panics
    ///
    /// Panics if `directives` was not returned by
    /// [`SweepPlan::add_directives`] on this plan.
    pub fn add_outcome_cell(&mut self, config: PredictorConfig, directives: usize) {
        self.push_cell(config, directives, true);
    }

    fn push_cell(&mut self, config: PredictorConfig, directives: usize, outcomes: bool) {
        assert!(
            directives < self.tables.len(),
            "directive table {directives} not registered (plan has {})",
            self.tables.len()
        );
        self.cells.push(MatrixCell {
            config,
            directives,
            outcomes,
        });
    }

    /// The cells in request order.
    #[must_use]
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The registered directive tables, in registration order.
    pub(crate) fn tables(&self) -> &[Vec<Directive>] {
        &self.tables
    }

    /// Whether the plan has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A plan's cells fused for one pass: the distinct cells (slots), the
/// state walks that serve them, and the maps between the three.
pub(crate) struct Fused {
    /// The distinct cells; a slot records outcomes when any of its
    /// cells asks.
    slots: Vec<MatrixCell>,
    /// Per request cell, its slot.
    slot_of: Vec<usize>,
    /// Per state walk, the configuration that builds it and the
    /// directive table it reads (any of its slots' tables when the walk
    /// reads none).
    walks: Vec<(PredictorConfig, usize)>,
    /// Per slot, the walk that serves it.
    walk_of: Vec<usize>,
}

/// Dedupes the plan's cells into slots, groups the slots by the state
/// their predictors evolve ([`PredictorConfig::shared_state`], plus the
/// directive table when the walk reads one) and counts the fused pass.
pub(crate) fn fuse_cells(plan: &SweepPlan) -> Fused {
    let mut slots: Vec<MatrixCell> = Vec::new();
    let mut slot_of = Vec::with_capacity(plan.cells.len());
    let mut index: HashMap<(PredictorConfig, usize), usize> = HashMap::new();
    for &cell in &plan.cells {
        let slot = *index
            .entry((cell.config, cell.directives))
            .or_insert_with(|| {
                slots.push(cell);
                slots.len() - 1
            });
        slots[slot].outcomes |= cell.outcomes;
        slot_of.push(slot);
    }
    let mut walks = Vec::new();
    let mut walk_index: HashMap<(PredictorConfig, Option<usize>), usize> = HashMap::new();
    let walk_of = slots
        .iter()
        .map(|cell| {
            let (state, reads) = cell.config.shared_state();
            let key = (state, reads.then_some(cell.directives));
            *walk_index.entry(key).or_insert_with(|| {
                walks.push((state, cell.directives));
                walks.len() - 1
            })
        })
        .collect();
    vp_obs::counter("replay.matrix_passes").add(1);
    vp_obs::counter("replay.fused_cells").add(slots.len() as u64);
    vp_obs::counter("replay.state_walks").add(walks.len() as u64);
    Fused {
        slots,
        slot_of,
        walks,
        walk_of,
    }
}

/// The distinct directive tables the slots actually read, ascending.
fn used_tables(slots: &[MatrixCell]) -> Vec<usize> {
    let mut used: Vec<usize> = slots.iter().map(|c| c.directives).collect();
    used.sort_unstable();
    used.dedup();
    used
}

/// One slot's result: stats, occupied table entries, for an attributed
/// replay the slot's per-PC [`AttributionTable`], and for an
/// outcome-recording slot its [`OutcomeColumn`].
type SlotResult = (
    PredictorStats,
    usize,
    Option<AttributionTable>,
    Option<OutcomeColumn>,
);

/// The fused kernel, fed one [`ValueBlock`] at a time: resolves each
/// block's directive row once per distinct annotation, walks each shared
/// predictor state over the block once ([`StateWalk::walk`], one virtual
/// call per block per walk, statically dispatched inside), and lets every
/// slot tally its walk's codes into its [`CodeHistogram`]. A slot that
/// records outcomes derives one [`vp_predictor::Outcome`] per event from
/// the same codes, and an attributed scanner folds them into each slot's
/// [`AttributionTable`] under the slot's classifier
/// ([`AttributionTable::observe_codes`]); whether it attributes is decided
/// once per block.
///
/// The batch scan and the streaming consumer ([`stream`]) hand their
/// blocks to this same kernel ([`MatrixScanner::scan`]), so their
/// per-event instruction streams — and therefore their results — cannot
/// drift apart. Every state a block leaves behind carries into the next,
/// so where the blocks are cut never changes a result either.
struct MatrixScanner<'p> {
    /// One state per walk.
    walks: Vec<Box<dyn StateWalk>>,
    /// One code column per walk, for the current block.
    codes: Vec<Vec<u8>>,
    /// One histogram per slot.
    tallies: Vec<CodeHistogram>,
    /// One table per slot, when the replay attributes.
    attributions: Option<Vec<AttributionTable>>,
    /// One column per outcome-recording slot.
    outcomes: Vec<Option<OutcomeColumn>>,
    tables: &'p [Vec<Directive>],
    fused: &'p Fused,
    used: Vec<usize>,
    rows: Vec<Vec<Directive>>,
}

impl<'p> MatrixScanner<'p> {
    fn new(req: &'p ReplayRequest<'_>, fused: &'p Fused) -> Self {
        let slots = &fused.slots;
        let tables = req.plan.tables();
        MatrixScanner {
            walks: fused.walks.iter().map(|(c, _)| c.walker()).collect(),
            codes: fused
                .walks
                .iter()
                .map(|_| Vec::with_capacity(VALUE_BLOCK))
                .collect(),
            tallies: slots.iter().map(|_| CodeHistogram::new()).collect(),
            attributions: req
                .attribution
                .then(|| slots.iter().map(|_| AttributionTable::new()).collect()),
            outcomes: slots
                .iter()
                .map(|c| c.outcomes.then(OutcomeColumn::new))
                .collect(),
            tables,
            fused,
            used: used_tables(slots),
            rows: tables
                .iter()
                .map(|_| Vec::with_capacity(VALUE_BLOCK))
                .collect(),
        }
    }

    /// Runs one block of value events through every walk and slot.
    fn scan(&mut self, block: &ValueBlock) -> io::Result<()> {
        let (addrs, values) = (block.addrs(), block.values());
        for &t in &self.used {
            let table = &self.tables[t];
            let row = &mut self.rows[t];
            row.clear();
            for &addr in addrs {
                row.push(
                    *table
                        .get(addr.index() as usize)
                        .ok_or_else(|| outside_text(addr))?,
                );
            }
        }
        let (slots, walk_of) = (&self.fused.slots, &self.fused.walk_of);
        for ((walk, codes), &(_, table)) in self
            .walks
            .iter_mut()
            .zip(self.codes.iter_mut())
            .zip(&self.fused.walks)
        {
            walk.walk(addrs, &self.rows[table], values, codes);
        }
        for (((cell, tally), column), &w) in slots
            .iter()
            .zip(&mut self.tallies)
            .zip(&mut self.outcomes)
            .zip(walk_of)
        {
            let (row, codes) = (&self.rows[cell.directives], &self.codes[w]);
            tally.tally(row, codes);
            if let Some(column) = column {
                let classifier = cell.config.classifier();
                for (&directive, &code) in row.iter().zip(codes) {
                    column.push(classifier.outcome(directive, code));
                }
            }
        }
        if let Some(attributions) = &mut self.attributions {
            for ((cell, table), &w) in slots.iter().zip(attributions).zip(walk_of) {
                table.observe_codes(
                    cell.config.classifier(),
                    addrs,
                    &self.rows[cell.directives],
                    &self.codes[w],
                    values,
                );
            }
        }
        Ok(())
    }

    fn finish(self) -> Vec<SlotResult> {
        let mut attributions = self.attributions.map(Vec::into_iter);
        self.fused
            .slots
            .iter()
            .zip(self.tallies)
            .zip(&self.fused.walk_of)
            .zip(self.outcomes)
            .map(|(((cell, tally), &w), column)| {
                let walk = &self.walks[w];
                let mut stats = tally.stats(cell.config.classifier());
                stats.evictions = walk.evictions();
                stats.set_conflicts = walk.conflicts();
                let table = attributions.as_mut().and_then(Iterator::next);
                (stats, walk.occupancy(), table, column)
            })
            .collect()
    }
}

/// Fans the slot results out to plan order through `slot_of`: duplicate
/// cells receive copies of their shared slot's result.
fn fan_out(per_slot: &[SlotResult], slot_of: &[usize]) -> Vec<ReplayCellOutcome> {
    slot_of
        .iter()
        .map(|&s| {
            let (stats, occupancy, ref table, ref column) = per_slot[s];
            ReplayCellOutcome {
                outcome: ReplayOutcome { stats, occupancy },
                attribution: table.clone(),
                outcomes: column.clone(),
            }
        })
        .collect()
}

/// Where a [`ReplayRequest`] reads its value events from.
#[derive(Debug, Clone, Copy)]
enum ReplaySource<'a> {
    /// Replay a fully materialised in-memory [`Trace`] (the classic
    /// path: capture once via [`crate::TraceStore`], replay many times).
    Batch(&'a Trace),
    /// Simulate `program` under `limits` and feed its value events
    /// straight into the fused kernel through a bounded block channel —
    /// the trace is never resident. See [`stream`].
    Stream {
        /// The program to simulate (directive annotations are irrelevant
        /// to execution; the plan's tables supply the directives).
        program: &'a Program,
        /// Instruction budget for the simulation.
        limits: RunLimits,
    },
}

/// One cell's result from a [`ReplayRequest`]: the replay outcome plus,
/// when attribution was requested, its per-PC [`AttributionTable`], and
/// when the cell records outcomes, its [`OutcomeColumn`] (duplicate cells
/// receive clones of the shared slot's table and column).
#[derive(Debug, Clone)]
pub struct ReplayCellOutcome {
    /// Stats and occupancy — bit-identical to a per-access replay of the
    /// cell.
    pub outcome: ReplayOutcome,
    /// The per-PC attribution table, if [`ReplayRequest::attribution`]
    /// asked for one.
    pub attribution: Option<AttributionTable>,
    /// One [`vp_predictor::Outcome`] per value event of the trace, in
    /// trace order, if the cell (or a duplicate of it) was added with
    /// [`SweepPlan::add_outcome_cell`].
    pub outcomes: Option<OutcomeColumn>,
}

/// The per-cell results of a [`ReplayRequest`], in plan order.
#[derive(Debug, Clone, Default)]
pub struct ReplayResponse {
    /// One entry per plan cell, in [`SweepPlan::cells`] order.
    pub cells: Vec<ReplayCellOutcome>,
}

impl ReplayResponse {
    /// The plain outcomes in plan order (convenience for callers that
    /// don't use attribution).
    #[must_use]
    pub fn outcomes(&self) -> Vec<ReplayOutcome> {
        self.cells.iter().map(|c| c.outcome).collect()
    }

    /// Unwraps a single-cell response.
    ///
    /// # Panics
    ///
    /// Panics if the response does not hold exactly one cell.
    #[must_use]
    pub fn into_single(mut self) -> ReplayCellOutcome {
        assert_eq!(
            self.cells.len(),
            1,
            "response holds {} cells",
            self.cells.len()
        );
        self.cells.pop().expect("one cell")
    }
}

/// A builder describing one replay: which cells to evaluate
/// ([`SweepPlan`]), whether to attribute mispredictions, and where the
/// value events come from (a resident trace or a live simulation).
///
/// It is the only replay entry point:
///
/// ```
/// use provp_core::replay::ReplayRequest;
/// use vp_isa::asm::assemble;
/// use vp_predictor::PredictorConfig;
/// use vp_sim::{RunLimits, Trace};
///
/// # fn main() -> std::io::Result<()> {
/// let p = assemble("li r1, 0\nli r2, 9\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n").unwrap();
/// let trace = Trace::capture(&p, RunLimits::default()).unwrap();
///
/// // Batch: replay the captured trace.
/// let batch = ReplayRequest::batch(&trace)
///     .single(&p, PredictorConfig::spec_table_stride_fsm())
///     .run()?
///     .into_single();
///
/// // Streaming: same result, no resident trace.
/// let streamed = ReplayRequest::stream(&p, RunLimits::default())
///     .single(&p, PredictorConfig::spec_table_stride_fsm())
///     .run()?
///     .into_single();
/// assert_eq!(batch.outcome.stats, streamed.outcome.stats);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplayRequest<'a> {
    plan: SweepPlan,
    source: ReplaySource<'a>,
    attribution: bool,
}

impl<'a> ReplayRequest<'a> {
    /// A request reading value events from `source`.
    fn new(source: ReplaySource<'a>) -> Self {
        ReplayRequest {
            plan: SweepPlan::new(),
            source,
            attribution: false,
        }
    }

    /// A request replaying the materialised `trace`.
    #[must_use]
    pub fn batch(trace: &'a Trace) -> Self {
        ReplayRequest::new(ReplaySource::Batch(trace))
    }

    /// A request simulating `program` and predicting concurrently,
    /// without materialising a trace.
    #[must_use]
    pub fn stream(program: &'a Program, limits: RunLimits) -> Self {
        ReplayRequest::new(ReplaySource::Stream { program, limits })
    }

    /// Replaces the request's sweep plan wholesale.
    #[must_use]
    pub fn plan(mut self, plan: SweepPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Appends a single cell: `config` replayed under `program`'s
    /// directive annotation (registered as a plan table, deduped).
    #[must_use]
    pub fn single(mut self, program: &Program, config: PredictorConfig) -> Self {
        let table = self.plan.add_directives(program);
        self.plan.add_cell(config, table);
        self
    }

    /// Whether to additionally build a per-PC [`AttributionTable`] per
    /// cell (observation-only; stats stay bit-identical).
    #[must_use]
    pub fn attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Does nothing. A replay always runs as one pass on the calling
    /// thread; the method is kept only so callers written against the
    /// former PC-sharded replay still build.
    #[deprecated(note = "replays are not sharded; this is a no-op")]
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Does nothing. A replay always runs as one pass on the calling
    /// thread; the method is kept only so callers written against the
    /// former PC-sharded replay still build.
    #[deprecated(note = "replays are not sharded; this is a no-op")]
    #[must_use]
    pub fn jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Runs the replay and returns per-cell results in plan order.
    ///
    /// Duplicate cells are deduped into one predictor-bank slot and share
    /// one replay; the results are **bit-identical** to per-cell
    /// per-access replays (property-tested and fuzzed via the vp-verify oracle, including a streaming ≡ batch
    /// stage).
    ///
    /// # Errors
    ///
    /// [`io::Error`] of kind `InvalidData` when a value event's address
    /// lies outside a used directive table (a foreign trace or program);
    /// for streaming sources, any [`vp_sim::SimError`] fault surfaces as
    /// an [`io::Error`] with the fault as its [`source`].
    ///
    /// [`source`]: std::error::Error::source
    pub fn run(self) -> io::Result<ReplayResponse> {
        if self.plan.is_empty() {
            return Ok(ReplayResponse::default());
        }
        let _span = vp_obs::span(match self.source {
            ReplaySource::Batch(_) => "matrix",
            ReplaySource::Stream { .. } => "stream",
        });
        let fused = fuse_cells(&self.plan);
        let mut scanner = MatrixScanner::new(&self, &fused);
        match self.source {
            ReplaySource::Batch(trace) => {
                for block in trace.columns().value_events() {
                    scanner.scan(&block)?;
                }
            }
            ReplaySource::Stream { program, limits } => {
                stream::run_streamed(program, limits, |block| scanner.scan(block))?;
            }
        }
        Ok(ReplayResponse {
            cells: fan_out(&scanner.finish(), &fused.slot_of),
        })
    }
}

pub(crate) fn outside_text(addr: vp_isa::InstrAddr) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("trace event at {addr} outside program text"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_isa::InstrAddr;
    use vp_predictor::{ClassifierKind, TableGeometry};

    fn sample() -> (Program, Trace) {
        let p = assemble(
            "li r1, 0\nli r2, 200\n\
             top: addi.st r1, r1, 1\nadd r3, r1, r1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        (p, trace)
    }

    fn single_outcome(trace: &Trace, p: &Program, config: &PredictorConfig) -> ReplayOutcome {
        ReplayRequest::batch(trace)
            .single(p, *config)
            .run()
            .unwrap()
            .into_single()
            .outcome
    }

    #[test]
    fn only_value_producers_reach_the_predictor() {
        let p = assemble("li r1, 1\nsd r1, (r0)\nbeq r0, r0, e\ne: halt\n").unwrap();
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        let config = PredictorConfig::spec_table_stride_fsm();
        let outcome = single_outcome(&trace, &p, &config);
        assert_eq!(outcome.stats.accesses, 1, "only the li produces a value");
    }

    #[test]
    fn directive_annotated_program_steers_the_profile_predictor() {
        let src = "li r1, 0\nli r2, 50\ntop: addi.st r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let p = assemble(src).unwrap();
        let trace = Trace::capture(&p, RunLimits::default()).unwrap();
        let config = PredictorConfig::spec_table_stride_profile();
        let s = single_outcome(&trace, &p, &config).stats;
        // Only the tagged addi is admitted; the li's are untagged.
        assert_eq!(s.allocations, 1);
        assert!(s.speculated_correct >= 47);
    }

    #[test]
    fn attributed_replay_matches_plain_and_reconciles() {
        let (p, trace) = sample();
        for config in [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(8, 2),
                last_value: TableGeometry::new(12, 2),
            },
        ] {
            let plain = single_outcome(&trace, &p, &config);
            let attributed = ReplayRequest::batch(&trace)
                .single(&p, config)
                .attribution(true)
                .run()
                .unwrap()
                .into_single();
            let table = attributed.attribution.expect("attribution requested");
            // Observation-only: attribution never perturbs the stats.
            assert_eq!(attributed.outcome.stats, plain.stats, "{}", config.label());
            assert_eq!(attributed.outcome.occupancy, plain.occupancy);
            table
                .reconcile(&attributed.outcome.stats)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
        }
    }

    #[test]
    fn foreign_traces_are_rejected() {
        let (_, trace) = sample();
        let other = assemble("halt\n").unwrap();
        let cfg = PredictorConfig::spec_table_stride_fsm();
        let e = ReplayRequest::batch(&trace)
            .single(&other, cfg)
            .run()
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_plan_returns_no_cells() {
        let (_, trace) = sample();
        let response = ReplayRequest::batch(&trace).run().unwrap();
        assert!(response.cells.is_empty());
    }

    /// Value producers mixing strides, repeats and loop-carried noise
    /// under both directives, with tables small enough to evict: 5,002
    /// value events, several blocks' worth.
    fn mixed_sample() -> (Program, SweepPlan) {
        let p = assemble(
            "li r1, 0\nli r2, 1000\n\
             top: addi.st r3, r3, 7\nadd.lv r4, r2, r0\nadd r5, r5, r1\n\
             xor.st r6, r5, r3\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let mut plan = SweepPlan::new();
        let annotated = plan.add_directives(&p);
        let bare = plan.add_directives(&p.without_directives());
        for config in [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::InfiniteLastValue {
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::TableTwoDelta {
                geometry: TableGeometry::new(2, 1),
                classifier: ClassifierKind::Directive,
            },
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(2, 2),
                last_value: TableGeometry::new(4, 2),
            },
        ] {
            plan.add_outcome_cell(config, annotated);
            plan.add_cell(config, bare);
        }
        (p, plan)
    }

    fn assert_same_cells(got: &[ReplayCellOutcome], want: &[ReplayCellOutcome], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (cell, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.outcome.stats, w.outcome.stats,
                "{what}: cell {cell} stats"
            );
            assert_eq!(
                g.outcome.occupancy, w.outcome.occupancy,
                "{what}: cell {cell} occupancy"
            );
            assert_eq!(g.outcomes, w.outcomes, "{what}: cell {cell} outcome column");
            assert_eq!(
                g.attribution, w.attribution,
                "{what}: cell {cell} attribution"
            );
        }
    }

    /// Where the value events are cut into blocks never changes a result:
    /// the kernel fed blocks of random lengths (decoded from the trace's
    /// full events, not its value blocks) answers exactly what the batch
    /// and the streamed replay answer from their 1024-event blocks.
    #[test]
    fn prop_block_boundaries_never_matter() {
        let (p, plan) = mixed_sample();
        let limits = RunLimits::default();
        let trace = Trace::capture(&p, limits).unwrap();
        let events: Vec<(InstrAddr, u64)> = trace
            .iter()
            .filter_map(|ev| ev.dest.map(|(_, _, value)| (ev.addr, value)))
            .collect();
        assert!(events.len() > 4 * VALUE_BLOCK, "{} events", events.len());
        let batch = ReplayRequest::batch(&trace)
            .plan(plan.clone())
            .attribution(true)
            .run()
            .unwrap();
        let streamed = ReplayRequest::stream(&p, limits)
            .plan(plan.clone())
            .attribution(true)
            .run()
            .unwrap();
        assert_same_cells(&streamed.cells, &batch.cells, "streamed");

        vp_rng::prop::forall("block boundaries never matter", |rng| {
            let mut cuts = Vec::new();
            let mut covered = 0;
            while covered < events.len() {
                // Half the cuts short, so boundaries crowd some stretches.
                let len = if rng.gen_bool(0.5) {
                    rng.gen_range(1..=16usize)
                } else {
                    rng.gen_range(1..=VALUE_BLOCK)
                };
                cuts.push(len);
                covered += len;
            }
            cuts
        })
        .cases(24)
        .check(|cuts: &Vec<usize>| {
            let req = ReplayRequest::batch(&trace)
                .plan(plan.clone())
                .attribution(true);
            let fused = fuse_cells(&req.plan);
            let mut scanner = MatrixScanner::new(&req, &fused);
            let mut rest = &events[..];
            for &len in cuts {
                let (head, tail) = rest.split_at(len.min(rest.len()));
                let mut block = ValueBlock::new();
                for &(addr, value) in head {
                    block.push(addr, value);
                }
                scanner.scan(&block).unwrap();
                rest = tail;
            }
            let cells = fan_out(&scanner.finish(), &fused.slot_of);
            assert_same_cells(&cells, &batch.cells, "random cut");
        });
    }
}
