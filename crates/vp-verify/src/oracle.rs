//! The differential oracle: one fuzzed program, every optimised layer of
//! the stack checked against its reference model.
//!
//! A single [`run_case`] performs, in order:
//!
//! 1. **Simulation differential** — the optimised [`vp_sim`] machine (with
//!    the columnar [`TraceRecorder`] attached) against the row-oriented
//!    [`ref_run`] interpreter: identical run status, retired-instruction
//!    count, final program counter, retirement event stream (both as the
//!    columns iterate it and as [`Trace::replay`] rebuilds it), final
//!    register files and final memory. [`Trace::capture`] and
//!    [`Trace::capture_with`] must record the recorder's columns (or fault
//!    alike), and the tracer `capture_with` feeds must see the reference
//!    stream.
//! 2. **Profile differential** — the dense [`ProfileCollector`] against
//!    the map-based [`RefProfileCollector`], both fed by the trace
//!    replay: identical images in [`format::to_text`] form.
//! 3. **Predictor differential** — for a panel of predictor
//!    configurations, the naive [`ref_predict`] models, fed the reference
//!    interpreter's value stream, against (a) the real predictor fed the
//!    same stream directly, one [`vp_predictor::ValuePredictor::access`]
//!    per event, and (b) a [`ReplayRequest`] replay of the trace's
//!    value-event columns: identical [`PredictorStats`] and occupancy.
//!    The direct loop (a)
//!    also observes every access into an [`AttributionTable`] and
//!    records its [`Outcome`]: it is the per-access reference stages 4
//!    to 7 compare the fused kernel against.
//! 4. **Attribution oracle** — the attributed replay
//!    ([`ReplayRequest::attribution`]) must leave the stats untouched
//!    (observation-only), produce exactly the per-PC table the direct
//!    loop observed, and its totals must reconcile
//!    *exactly* with the [`PredictorStats`] (every access accounted,
//!    every raw miss charged to one cause).
//! 5. **Matrix oracle** — the fused sweep ([`ReplayRequest`] over the
//!    whole plan) over every oracle configuration (with a duplicate cell,
//!    a second, directive-stripped annotation table, and cells of one
//!    predictor state under several classifiers, which share one state
//!    walk) must return exactly the grid — and, attributed, the per-PC
//!    tables — that per-cell direct loops produce.
//! 6. **ILP lanes differential** — Table 5.2's seven machines plus one
//!    with a bimodal branch front end run as one [`IlpLanes`] pass,
//!    reading outcome columns the fused matrix kernel recorded. Each lane
//!    must equal an [`IlpAnalyzer`] that runs its own predictor: the same
//!    instructions, cycles and [`PredictorStats`]. The no-VP lane tracks
//!    its critical path, and the report must charge every instruction
//!    exactly once (structural + data-bound = instructions). The
//!    recorded columns, and those of an attributed and a streamed replay
//!    of the same plan, must equal the direct loops' outcome columns.
//! 7. **Streaming oracle** — the bounded-memory streaming engine
//!    ([`ReplayRequest::stream`]), which re-simulates the program and
//!    predicts concurrently without a resident trace, must reproduce the
//!    per-cell grid bit-identically, including attribution tables.
//!
//! Any mismatch is returned as a typed [`Divergence`], whose
//! [`Divergence::stage`] names the stage that found it; `Ok` carries the
//! captured trace so the fuzz loop can fold it into coverage.
//! [`run_case_through`] stops after a given [`Stage`], so the shrinker
//! never pays for the stages after the one that diverged.

use std::error::Error;
use std::fmt;

use provp_core::experiments::table_5_2;
use provp_core::{ReplayRequest, SweepPlan};
use vp_ilp::{BranchConfig, IlpConfig, IlpLanes, LaneOutcomes};
use vp_isa::{Directive, InstrAddr, Program, Reg, RegClass};
use vp_predictor::{
    AttributionTable, ClassifierKind, Outcome, OutcomeColumn, PredictorConfig, PredictorStats,
    SatCounter, TableGeometry,
};
use vp_profile::{format, ProfileCollector};
use vp_sim::record::{first_divergence, TraceDivergence, TraceEvent, TraceRecorder};
use vp_sim::{
    runner, ChainTracer, FnTracer, Machine, Retirement, RunLimits, RunSummary, SimError, Trace,
    TraceColumns,
};

use crate::refilp::IlpAnalyzer;
use crate::refpred::ref_predict;
use crate::refprofile::RefProfileCollector;
use crate::refsim::ref_run;

/// A mismatch between the optimised stack and its reference model.
#[derive(Debug)]
pub enum Divergence {
    /// Run status / fault / retired-count / final PC mismatch.
    Status {
        /// Optimised outcome rendered for humans.
        optimized: String,
        /// Reference outcome rendered for humans.
        reference: String,
    },
    /// The retirement event streams differ.
    Events(Box<TraceDivergence>),
    /// A final register differs (`class` is "int" or "fp").
    Register {
        /// Register file ("int" or "fp").
        class: &'static str,
        /// Register index.
        index: u8,
        /// Optimised final value (raw bits for fp).
        optimized: u64,
        /// Reference final value.
        reference: u64,
    },
    /// A final memory word differs.
    Memory {
        /// Word address.
        addr: u64,
        /// Optimised value.
        optimized: u64,
        /// Reference value.
        reference: u64,
    },
    /// The dense profile collector's image differs from the reference
    /// collector's.
    Profile {
        /// The first differing lines of the two images' text form.
        detail: String,
    },
    /// A predictor's statistics or occupancy differ from the reference
    /// model.
    Predictor {
        /// `PredictorConfig::label()` of the diverging configuration.
        label: String,
        /// Which path diverged: "direct", "replay" or "attributed-replay".
        mode: &'static str,
        /// Human-readable field-level detail.
        detail: String,
    },
    /// The per-PC attribution layer broke its contract: the attributed
    /// replay's table differs from the per-access one, or its totals fail
    /// to reconcile with [`PredictorStats`].
    Attribution {
        /// `PredictorConfig::label()` of the diverging configuration.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The fused sweep matrix diverged from per-cell replays.
    Matrix {
        /// `PredictorConfig::label()` of the diverging cell's
        /// configuration, with its plan position and annotation table.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// An [`IlpLanes`] lane diverged from its per-machine
    /// [`IlpAnalyzer`], its critical-path report does not partition the
    /// trace, or the outcome columns it read diverged between batch and
    /// streamed replay.
    Ilp {
        /// The machine: its lane index and configuration.
        label: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The streaming replay engine diverged from batch replay.
    Stream {
        /// `PredictorConfig::label()` of the diverging cell's
        /// configuration, with its plan position — or "whole plan".
        label: String,
        /// Human-readable detail.
        detail: String,
    },
}

/// One stage of [`run_case`], in the order the oracle runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// 1. Simulation differential.
    Simulation,
    /// 2. Profile differential.
    Profile,
    /// 3. Predictor differential.
    Predictor,
    /// 4. Attribution oracle.
    Attribution,
    /// 5. Matrix oracle.
    Matrix,
    /// 6. ILP lanes differential.
    Ilp,
    /// 7. Streaming oracle.
    Stream,
}

impl Divergence {
    /// The stage of [`run_case`] that found this divergence.
    #[must_use]
    pub fn stage(&self) -> Stage {
        match self {
            Divergence::Status { .. }
            | Divergence::Events(_)
            | Divergence::Register { .. }
            | Divergence::Memory { .. } => Stage::Simulation,
            Divergence::Profile { .. } => Stage::Profile,
            // The attribution stage re-checks the attributed replay's
            // stats with the predictor comparison.
            Divergence::Predictor {
                mode: "attributed-replay",
                ..
            }
            | Divergence::Attribution { .. } => Stage::Attribution,
            Divergence::Predictor { .. } => Stage::Predictor,
            Divergence::Matrix { .. } => Stage::Matrix,
            Divergence::Ilp { .. } => Stage::Ilp,
            Divergence::Stream { .. } => Stage::Stream,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Status {
                optimized,
                reference,
            } => write!(
                f,
                "run status diverges: optimized {optimized}, reference {reference}"
            ),
            Divergence::Events(d) => write!(f, "{d}"),
            Divergence::Register {
                class,
                index,
                optimized,
                reference,
            } => write!(
                f,
                "{class} register {index} diverges: optimized {optimized:#x}, reference {reference:#x}"
            ),
            Divergence::Memory {
                addr,
                optimized,
                reference,
            } => write!(
                f,
                "memory word {addr:#x} diverges: optimized {optimized:#x}, reference {reference:#x}"
            ),
            Divergence::Profile { detail } => write!(f, "profile image diverges: {detail}"),
            Divergence::Predictor {
                label,
                mode,
                detail,
            } => write!(f, "predictor `{label}` ({mode}) diverges: {detail}"),
            Divergence::Attribution { label, detail } => {
                write!(f, "attribution for `{label}` diverges: {detail}")
            }
            Divergence::Matrix { label, detail } => {
                write!(f, "fused matrix cell `{label}` diverges: {detail}")
            }
            Divergence::Ilp { label, detail } => {
                write!(f, "ILP lane {label} diverges: {detail}")
            }
            Divergence::Stream { label, detail } => {
                write!(f, "streamed replay of `{label}` diverges: {detail}")
            }
        }
    }
}

impl Error for Divergence {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Divergence::Events(d) => Some(&**d),
            _ => None,
        }
    }
}

/// The predictor configurations every fuzz case is checked under: both
/// paper baselines, infinite tables under both classification mechanisms,
/// a small thrash-prone table, a non-power-of-two geometry (modulo set
/// indexing), and the directive-routed hybrid.
#[must_use]
pub fn oracle_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::spec_table_stride_profile(),
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::two_bit_counter(),
        },
        PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        },
        PredictorConfig::TableLastValue {
            geometry: TableGeometry::new(8, 2),
            classifier: ClassifierKind::two_bit_counter(),
        },
        PredictorConfig::TableTwoDelta {
            geometry: TableGeometry::new(12, 2),
            classifier: ClassifierKind::Directive,
        },
        PredictorConfig::Hybrid {
            stride: TableGeometry::new(4, 2),
            last_value: TableGeometry::new(8, 2),
        },
    ]
}

/// Runs the full differential oracle on one program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; `Ok` carries the captured
/// trace.
pub fn run_case(program: &Program, max_instructions: u64) -> Result<Trace, Divergence> {
    run_case_through(program, max_instructions, Stage::Stream)
}

/// Runs the differential oracle on one program up to and including
/// stage `last`, skipping every later stage.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; `Ok` carries the captured
/// trace.
pub fn run_case_through(
    program: &Program,
    max_instructions: u64,
    last: Stage,
) -> Result<Trace, Divergence> {
    let limits = RunLimits::with_max(max_instructions);

    // --- 1. simulation differential ---
    let mut machine = Machine::for_program(program);
    let mut recorder = TraceRecorder::new();
    let optimized = runner::run_on(&mut machine, program, &mut recorder, limits);
    let reference = ref_run(program, max_instructions);

    let status_matches = match (&optimized, &reference.status) {
        (Ok(s), Ok(r)) => s.status() == *r && s.instructions() == reference.retired,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if !status_matches || machine.pc() != reference.pc {
        return Err(Divergence::Status {
            optimized: match &optimized {
                Ok(s) => format!(
                    "{:?} after {} instructions at {}",
                    s.status(),
                    s.instructions(),
                    machine.pc()
                ),
                Err(e) => format!("fault: {e}, machine at {}", machine.pc()),
            },
            reference: match &reference.status {
                Ok(r) => format!(
                    "{:?} after {} instructions at {}",
                    r, reference.retired, reference.pc
                ),
                Err(e) => format!("fault: {e}, machine at {}", reference.pc),
            },
        });
    }

    let trace = Trace::from_columns(recorder.into_columns());
    let cols = trace.columns();
    if let Some(d) = first_divergence(reference.events.iter().cloned(), cols.iter()) {
        return Err(Divergence::Events(Box::new(d)));
    }
    // The replay path is what profiling, ILP and the characterisation
    // passes consume: every retirement it rebuilds must match too. A
    // replay error stops the stream short, which the comparison reports.
    let mut replayed = Vec::with_capacity(cols.len());
    let _ = cols.replay(
        program,
        &mut FnTracer::new(|r: &Retirement<'_>| replayed.push(TraceEvent::from_retirement(r))),
    );
    if let Some(d) = first_divergence(reference.events.iter().cloned(), replayed) {
        return Err(Divergence::Events(Box::new(d)));
    }
    check_captures(program, limits, &optimized, cols, &reference.events)?;

    for r in 0..32u8 {
        let opt = machine.read_reg(RegClass::Int, Reg::new(r));
        let reference_value = reference.int_regs[usize::from(r)];
        if opt != reference_value {
            return Err(Divergence::Register {
                class: "int",
                index: r,
                optimized: opt,
                reference: reference_value,
            });
        }
        let opt_fp = machine.read_reg(RegClass::Fp, Reg::new(r));
        let ref_fp = reference.fp_regs[usize::from(r)];
        if opt_fp != ref_fp {
            return Err(Divergence::Register {
                class: "fp",
                index: r,
                optimized: opt_fp,
                reference: ref_fp,
            });
        }
    }

    for (&addr, &value) in &reference.memory {
        let opt = machine.memory().read(addr);
        if opt != value {
            return Err(Divergence::Memory {
                addr,
                optimized: opt,
                reference: value,
            });
        }
    }

    if last == Stage::Simulation {
        return Ok(trace);
    }

    // --- 2. profile differential ---
    let mut profiles = ChainTracer::new(
        ProfileCollector::new(program.name()),
        RefProfileCollector::new(program.name()),
    );
    let _ = cols.replay(program, &mut profiles);
    let (dense, ref_profile) = profiles.into_inner();
    let dense_text = format::to_text(&dense.into_image());
    let ref_text = format::to_text(&ref_profile.into_image());
    let first_diff = dense_text
        .lines()
        .chain(["<end>"])
        .zip(ref_text.lines().chain(["<end>"]))
        .find(|(d, r)| d != r);
    if let Some((d, r)) = first_diff {
        return Err(Divergence::Profile {
            detail: format!("dense `{d}`, reference `{r}`"),
        });
    }

    if last == Stage::Profile {
        return Ok(trace);
    }

    // --- 3. predictor differential ---
    // The reference models read the reference interpreter's value stream;
    // the replays read the trace's value-event columns.
    let values: Vec<(InstrAddr, u64)> = reference
        .events
        .iter()
        .filter_map(|e| e.dest.map(|(_, _, value)| (e.addr, value)))
        .collect();
    let directives = directives_of(program);

    for config in oracle_configs() {
        let (ref_stats, ref_occ) = ref_predict(&directives, &values, &config);

        // (a) the real predictor, fed directly.
        let direct = Direct::replay(&config, &directives, &values);
        check_predictor(
            &config,
            "direct",
            (direct.stats, direct.occupancy),
            (ref_stats, ref_occ),
        )?;

        // (b) the fused replay of the trace.
        let outcome = ReplayRequest::batch(&trace)
            .single(program, config)
            .run()
            .map_err(|e| Divergence::Predictor {
                label: config.label(),
                mode: "replay",
                detail: format!("replay failed: {e}"),
            })?
            .into_single()
            .outcome;
        check_predictor(
            &config,
            "replay",
            (outcome.stats, outcome.occupancy),
            (ref_stats, ref_occ),
        )?;

        // --- 4. attribution oracle ---
        if last == Stage::Predictor {
            continue;
        }
        let attr_err = |detail: String| Divergence::Attribution {
            label: config.label(),
            detail,
        };
        let cell = ReplayRequest::batch(&trace)
            .single(program, config)
            .attribution(true)
            .run()
            .map_err(|e| attr_err(format!("attributed replay failed: {e}")))?
            .into_single();
        // Observation-only: attribution must not perturb the replay.
        check_predictor(
            &config,
            "attributed-replay",
            (cell.outcome.stats, cell.outcome.occupancy),
            (ref_stats, ref_occ),
        )?;
        let table = cell.attribution.expect("attribution on");
        table
            .reconcile(&cell.outcome.stats)
            .map_err(|e| attr_err(format!("totals fail to reconcile with stats: {e}")))?;
        if table != direct.attribution {
            return Err(attr_err(
                "per-PC table differs from the per-access table".into(),
            ));
        }
    }

    if last <= Stage::Attribution {
        return Ok(trace);
    }

    // --- 5. matrix oracle ---
    // One fused pass over every oracle configuration, with a duplicate
    // cell (exercising the dedup path), a second annotation table (the
    // directive-stripped program), and cells that share one predictor
    // state walk across classifiers: infinite stride under all three
    // classifiers and the §5.2 table under counters and `Always`, each
    // under both tables, plus an infinite-stride cell whose counter
    // template differs, which must not share their walk. Each cell is
    // checked against its own direct loop, once plain and once
    // attributed; the attributed pass's per-PC tables must equal the
    // loops' tables.
    let stripped = program.without_directives();
    let mut plan = SweepPlan::new();
    let tagged_table = plan.add_directives(program);
    let stripped_table = plan.add_directives(&stripped);
    let configs = oracle_configs();
    // (config, annotation table, per-cell reference program).
    let mut matrix_cells: Vec<(PredictorConfig, usize, &Program)> = configs
        .iter()
        .map(|&c| (c, tagged_table, program))
        .collect();
    matrix_cells.push((configs[0], tagged_table, program));
    matrix_cells.push((configs[0], stripped_table, &stripped));
    matrix_cells.push((configs[1], stripped_table, &stripped));
    let shared = [
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::Directive,
        },
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::Always,
        },
        PredictorConfig::TableStride {
            geometry: TableGeometry::SPEC_512_2WAY,
            classifier: ClassifierKind::Always,
        },
    ];
    for config in shared {
        matrix_cells.push((config, tagged_table, program));
        matrix_cells.push((config, stripped_table, &stripped));
    }
    matrix_cells.push((
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::SatCounter {
                template: SatCounter::new(1, 3, 3),
            },
        },
        tagged_table,
        program,
    ));
    for &(config, table, _) in &matrix_cells {
        plan.add_cell(config, table);
    }
    let expected: Vec<Direct> = matrix_cells
        .iter()
        .map(|(config, _, cell_program)| {
            Direct::replay(config, &directives_of(cell_program), &values)
        })
        .collect();
    let cell_label = |i: usize| {
        let (config, table, _) = &matrix_cells[i];
        format!("{} (cell {i}, table {table})", config.label())
    };
    for attribution in [false, true] {
        let matrix_err = |label: String, detail: String| Divergence::Matrix {
            label: if attribution {
                format!("{label}, attributed")
            } else {
                label
            },
            detail,
        };
        let fused = ReplayRequest::batch(&trace)
            .plan(plan.clone())
            .attribution(attribution)
            .run()
            .map(|r| r.cells)
            .map_err(|e| matrix_err("whole plan".into(), format!("fused replay failed: {e}")))?;
        if fused.len() != matrix_cells.len() {
            return Err(matrix_err(
                "whole plan".into(),
                format!(
                    "fused replay returned {} outcomes for {} cells",
                    fused.len(),
                    matrix_cells.len()
                ),
            ));
        }
        for (i, (cell, e)) in fused.iter().zip(&expected).enumerate() {
            let f = &cell.outcome;
            if f.stats != e.stats {
                return Err(matrix_err(
                    cell_label(i),
                    format!(
                        "stats differ:\nfused {:#?}\nper-cell {:#?}",
                        f.stats, e.stats
                    ),
                ));
            }
            if f.occupancy != e.occupancy {
                return Err(matrix_err(
                    cell_label(i),
                    format!(
                        "occupancy differs: fused {}, per-cell {}",
                        f.occupancy, e.occupancy
                    ),
                ));
            }
            if attribution && cell.attribution.as_ref() != Some(&e.attribution) {
                return Err(matrix_err(
                    cell_label(i),
                    "attribution table differs from the per-access table".into(),
                ));
            }
        }
    }

    if last == Stage::Matrix {
        return Ok(trace);
    }

    // --- 6. ILP lanes differential ---
    ilp_lanes_differential(program, &trace, &values, limits, optimized.is_ok())?;
    if last == Stage::Ilp {
        return Ok(trace);
    }

    // --- 7. streaming oracle ---
    // The bounded-memory streaming engine re-simulates the program and
    // feeds the same fused kernel through a bounded block channel; its
    // grid must be bit-identical to the batch grid. Faulting programs are
    // excluded: a streamed replay surfaces the simulator fault as an
    // error (there is no well-defined full stream), while the batch path
    // above replays the pre-fault prefix that the recorder captured.
    if optimized.is_err() {
        return Ok(trace);
    }
    let stream_err = |label: String, detail: String| Divergence::Stream { label, detail };
    let streamed = ReplayRequest::stream(program, limits)
        .plan(plan.clone())
        .run()
        .map_err(|e| stream_err("whole plan".into(), format!("streamed replay failed: {e}")))?;
    if streamed.cells.len() != matrix_cells.len() {
        return Err(stream_err(
            "whole plan".into(),
            format!(
                "streamed replay returned {} outcomes for {} cells",
                streamed.cells.len(),
                matrix_cells.len()
            ),
        ));
    }
    for (i, (s, e)) in streamed.cells.iter().zip(&expected).enumerate() {
        if s.outcome.stats != e.stats {
            return Err(stream_err(
                cell_label(i),
                format!(
                    "stats differ:\nstreamed {:#?}\nbatch {:#?}",
                    s.outcome.stats, e.stats
                ),
            ));
        }
        if s.outcome.occupancy != e.occupancy {
            return Err(stream_err(
                cell_label(i),
                format!(
                    "occupancy differs: streamed {}, batch {}",
                    s.outcome.occupancy, e.occupancy
                ),
            ));
        }
    }
    // Attributed streaming: tables must match the direct loops' exactly.
    let stream_attr = ReplayRequest::stream(program, limits)
        .plan(plan.clone())
        .attribution(true)
        .run()
        .map_err(|e| {
            stream_err(
                "whole plan (attributed)".into(),
                format!("attributed streamed replay failed: {e}"),
            )
        })?;
    for (i, (s, e)) in stream_attr.cells.iter().zip(&expected).enumerate() {
        let stream_err = |detail: String| stream_err(cell_label(i), detail);
        if s.outcome.stats != e.stats {
            return Err(stream_err(
                "attributed streamed stats differ from per-cell".into(),
            ));
        }
        if s.attribution.as_ref() != Some(&e.attribution) {
            return Err(stream_err(
                "attribution table differs from the per-access table".into(),
            ));
        }
    }

    Ok(trace)
}

/// The machines of the ILP lanes stage, each with the program its
/// predictor reads directives from: Table 5.2's seven (the bare program
/// stands in for no threshold; the `k`-th threshold keeps the case's
/// directives on every `addr % 5 <= k`, so stricter thresholds tag less),
/// then VP + profiling behind a bimodal front end.
/// Checks both capture entry points against a [`TraceRecorder`] run:
/// [`Trace::capture`] and [`Trace::capture_with`] must record the columns
/// `recorded` holds, or fail with the error `run` ended in, and the tracer
/// `capture_with` feeds must see the `reference` interpreter's stream.
fn check_captures(
    program: &Program,
    limits: RunLimits,
    run: &Result<RunSummary, SimError>,
    recorded: &TraceColumns,
    reference: &[TraceEvent],
) -> Result<(), Divergence> {
    let captured = Trace::capture(program, limits);
    let mut seen = Vec::with_capacity(reference.len());
    let captured_with = Trace::capture_with(
        program,
        limits,
        &mut FnTracer::new(|r: &Retirement<'_>| seen.push(TraceEvent::from_retirement(r))),
    );
    if let Some(d) = first_divergence(reference.iter().copied(), seen) {
        return Err(Divergence::Events(Box::new(d)));
    }
    for (entry, captured) in [
        ("Trace::capture", captured),
        ("Trace::capture_with", captured_with),
    ] {
        match (captured, run) {
            (Ok(trace), Ok(_)) if trace.columns() == recorded => {}
            (Ok(trace), Ok(_)) => {
                // Equal event streams in unequal columns differ only in
                // their encoding; the divergence then points past the end.
                let d =
                    first_divergence(recorded.iter(), trace.iter()).unwrap_or(TraceDivergence {
                        index: recorded.len(),
                        left: None,
                        right: None,
                    });
                return Err(Divergence::Events(Box::new(d)));
            }
            (Err(a), Err(b)) if a == *b => {}
            (captured, run) => {
                return Err(Divergence::Status {
                    optimized: match captured {
                        Ok(trace) => format!("{entry} recorded {} events", trace.len()),
                        Err(e) => format!("{entry} fault: {e}"),
                    },
                    reference: match run {
                        Ok(s) => format!("a TraceRecorder run retired {s}"),
                        Err(e) => format!("a TraceRecorder run faulted: {e}"),
                    },
                });
            }
        }
    }
    Ok(())
}

fn ilp_machines(program: &Program) -> Vec<(IlpConfig, Program)> {
    let mut machines: Vec<(IlpConfig, Program)> = table_5_2::machines()
        .into_iter()
        .scan(0u32, |k, (config, threshold)| {
            let annotated = match threshold {
                None => program.without_directives(),
                Some(_) => {
                    let keep = *k;
                    *k += 1;
                    program.with_directives(|addr, instr| {
                        if addr.index() % 5 <= keep {
                            instr.directive
                        } else {
                            Directive::None
                        }
                    })
                }
            };
            Some((config, annotated))
        })
        .collect();
    let (profile, annotated) = machines.last().expect("Table 5.2 machines").clone();
    machines.push((
        profile.with_branch(BranchConfig::bimodal_4k(), 8),
        annotated,
    ));
    machines
}

fn ilp_lanes_differential(
    program: &Program,
    trace: &Trace,
    values: &[(InstrAddr, u64)],
    limits: RunLimits,
    streamable: bool,
) -> Result<(), Divergence> {
    let machines = ilp_machines(program);
    let label = |i: usize| format!("{i} ({:?})", machines[i].0);
    let whole = |detail: String| Divergence::Ilp {
        label: "whole pass".into(),
        detail,
    };
    let mut plan = SweepPlan::new();
    let mut direct = Vec::new();
    for (config, annotated) in &machines {
        if let Some(predictor) = config.predictor {
            let table = plan.add_directives(annotated);
            plan.add_outcome_cell(predictor, table);
            direct.push(Direct::replay(&predictor, &directives_of(annotated), values).outcomes);
        }
    }
    let recorded = ReplayRequest::batch(trace)
        .plan(plan.clone())
        .run()
        .map_err(|e| whole(format!("outcome replay failed: {e}")))?
        .cells;
    let mut cells = recorded.iter();
    let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
    for (config, _) in &machines {
        let outcomes = match config.predictor {
            None => None,
            Some(_) => {
                let cell = cells.next().expect("one cell per predicting machine");
                Some(LaneOutcomes {
                    column: cell
                        .outcomes
                        .as_ref()
                        .ok_or_else(|| whole("an outcome cell recorded no column".into()))?,
                    stats: cell.outcome.stats,
                })
            }
        };
        lanes.lane(config, outcomes);
    }
    lanes.track_critical_path(0); // Table 5.2's no-VP machine
    trace
        .replay(program, &mut lanes)
        .map_err(|e| whole(format!("lane replay failed: {e}")))?;
    let (results, report) = lanes.finish();
    let report = report.expect("lane 0 is tracked");
    let (structural, data) = (report.structural, report.data_bound());
    if structural + data != report.instructions {
        return Err(Divergence::Ilp {
            label: label(0),
            detail: format!(
                "critical path charges {structural} structural + {data} data-bound issues to {} instructions",
                report.instructions
            ),
        });
    }
    for (i, ((config, annotated), got)) in machines.iter().zip(&results).enumerate() {
        let mut alone = IlpAnalyzer::new(config.clone());
        trace
            .replay(annotated, &mut alone)
            .map_err(|e| whole(format!("reference replay failed: {e}")))?;
        let want = alone.finish();
        if (got.instructions, got.cycles) != (want.instructions, want.cycles) {
            return Err(Divergence::Ilp {
                label: label(i),
                detail: format!("lanes {got}, analyzer {want}"),
            });
        }
        if got.predictor != want.predictor {
            return Err(Divergence::Ilp {
                label: label(i),
                detail: format!(
                    "predictor stats differ:\nlanes {:#?}\nanalyzer {:#?}",
                    got.predictor, want.predictor
                ),
            });
        }
    }
    // Every recorded column must equal its direct loop's: the pass the
    // lanes read, an attributed pass, and a streamed replay.
    let attributed = ReplayRequest::batch(trace)
        .plan(plan.clone())
        .attribution(true)
        .run()
        .map_err(|e| whole(format!("attributed outcome replay failed: {e}")))?
        .cells;
    let mut others = vec![("batch", recorded), ("attributed", attributed)];
    if streamable {
        let streamed = ReplayRequest::stream(program, limits)
            .plan(plan)
            .run()
            .map_err(|e| whole(format!("streamed outcome replay failed: {e}")))?
            .cells;
        others.push(("streamed", streamed));
    }
    for (mode, cells) in others {
        if cells
            .iter()
            .zip(&direct)
            .any(|(o, d)| o.outcomes.as_ref() != Some(d))
        {
            return Err(whole(format!(
                "{mode} replay recorded different outcome columns"
            )));
        }
    }
    Ok(())
}

/// One cell's per-access reference: the configuration's own predictor
/// fed the reference interpreter's value stream one
/// [`vp_predictor::ValuePredictor::access`] at a time, each access
/// observed into an [`AttributionTable`] and its [`Outcome`] recorded.
struct Direct {
    stats: PredictorStats,
    occupancy: usize,
    attribution: AttributionTable,
    outcomes: OutcomeColumn,
}

impl Direct {
    fn replay(
        config: &PredictorConfig,
        directives: &[Directive],
        values: &[(InstrAddr, u64)],
    ) -> Direct {
        let mut predictor = config.build();
        let mut attribution = AttributionTable::new();
        let mut outcomes = OutcomeColumn::new();
        for &(addr, value) in values {
            let d = directives
                .get(addr.index() as usize)
                .copied()
                .unwrap_or(Directive::None);
            let access = predictor.access(addr, d, value);
            attribution.observe(addr, d, &access, value);
            outcomes.push(Outcome::of(&access));
        }
        Direct {
            stats: *predictor.stats(),
            occupancy: predictor.occupancy(),
            attribution,
            outcomes,
        }
    }
}

/// `program`'s per-instruction directive table.
fn directives_of(program: &Program) -> Vec<Directive> {
    program.text().iter().map(|i| i.directive).collect()
}

fn check_predictor(
    config: &PredictorConfig,
    mode: &'static str,
    (opt_stats, opt_occ): (PredictorStats, usize),
    (ref_stats, ref_occ): (PredictorStats, usize),
) -> Result<(), Divergence> {
    if opt_stats != ref_stats {
        return Err(Divergence::Predictor {
            label: config.label(),
            mode,
            detail: format!("stats differ:\noptimized {opt_stats:#?}\nreference {ref_stats:#?}"),
        });
    }
    if opt_occ != ref_occ {
        return Err(Divergence::Predictor {
            label: config.label(),
            mode,
            detail: format!("occupancy differs: optimized {opt_occ}, reference {ref_occ}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen_program, GenConfig};
    use vp_rng::Rng;

    #[test]
    fn capture_checks_report_foreign_columns_streams_and_faults() {
        let limits = RunLimits::default();
        let p = vp_isa::asm::assemble(
            "li r1, 3\ntop: sd r1, 4(r1)\nld r2, 4(r1)\naddi r1, r1, -1\nbne r1, r0, top\nhalt\n",
        )
        .unwrap();
        let reference = ref_run(&p, limits.max_instructions).events;
        let run = vp_sim::run(&p, &mut vp_sim::NullTracer, limits);
        let ours = Trace::capture(&p, limits).unwrap();
        assert!(check_captures(&p, limits, &run, ours.columns(), &reference).is_ok());

        let other = vp_isa::asm::assemble("li r1, 1\nhalt\n").unwrap();
        let foreign = Trace::capture(&other, limits).unwrap();
        let d = check_captures(&p, limits, &run, foreign.columns(), &reference).unwrap_err();
        assert!(matches!(d, Divergence::Events(_)), "{d}");
        let d = check_captures(&p, limits, &run, ours.columns(), &reference[1..]).unwrap_err();
        assert!(matches!(d, Divergence::Events(_)), "{d}");

        let fault = Err(SimError::PcOutOfRange {
            pc: InstrAddr::new(9),
            text_len: 6,
        });
        let d = check_captures(&p, limits, &fault, ours.columns(), &reference).unwrap_err();
        assert!(matches!(d, Divergence::Status { .. }), "{d}");
        assert_eq!(d.stage(), Stage::Simulation);
    }

    #[test]
    fn hand_written_kernels_pass_the_oracle() {
        for src in [
            // The FP loop from the workload suite's shape.
            ".f64 1.5\nli r1, 0\nli r2, 12\ntop: fld f1, (r0)\nfadd f2, f2, f1\n\
             sd r1, 5(r1)\nld r3, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
            // Faulting program: both stacks must fault identically.
            "li r1, -5\njalr r0, r1, 0\nhalt\n",
            // Budget exhaustion: both stacks must stop at the same count.
            "top: addi r8, r8, 1\nbeq r0, r0, top\nhalt\n",
            // Calls and returns, and a write to r0 that retires no dest.
            "li r1, 0\nli r2, 3\ntop: addi r0, r1, 7\njal r31, sub\naddi r1, r1, 1\n\
             bne r1, r2, top\nhalt\nsub: addi r4, r4, 2\njalr r0, r31, 0\n",
            // Loads and stores walking across the dense/spill page
            // boundary of `vp_sim::Memory` (word 1 Mi), then at the top
            // of the address space.
            "li r1, 1048572\nli r2, 1048580\nli r3, 5\ntop: sd r3, 0(r1)\n\
             ld r4, -1(r1)\nadd r3, r3, r4\naddi r1, r1, 1\nbne r1, r2, top\n\
             li r5, -2\nsd r3, 1(r5)\nld r6, 1(r5)\nfld f1, -1(r1)\nhalt\n",
        ] {
            let p = vp_isa::asm::assemble(src).unwrap();
            if let Err(d) = run_case(&p, 5_000) {
                panic!("oracle diverged on hand-written kernel: {d}\n{p}");
            }
        }

        // Control transfers the assembler cannot express: targets outside
        // the text or the address space. Each program first leaves state in
        // an integer register, an FP register and memory, which the oracle
        // compares with the final PC after the fault.
        use vp_isa::{Instr, Opcode};
        use vp_sim::SimError;
        let (r1, r2, r31) = (Reg::new(1), Reg::new(2), Reg::new(31));
        let prologue = [
            Instr::rd_imm(Opcode::Li, r1, 7),
            Instr::store(Opcode::Sd, r1, Reg::ZERO, 3),
            Instr::unary(Opcode::CvtIf, Reg::new(4), r1),
        ];
        let overflow = |at| {
            Some(SimError::TargetOverflow {
                at: InstrAddr::new(at),
            })
        };
        for (tail, fault) in [
            // Untaken branches whose targets are unrepresentable: no fault.
            (
                vec![
                    Instr::branch(Opcode::Beq, r1, Reg::ZERO, i64::MAX),
                    Instr::branch(Opcode::Bltu, r1, r2, -100),
                    Instr::halt(),
                ],
                None,
            ),
            // The same branches taken fault at their own PC.
            (
                vec![
                    Instr::branch(Opcode::Bne, r1, Reg::ZERO, i64::MAX),
                    Instr::halt(),
                ],
                overflow(3),
            ),
            (
                vec![Instr::branch(Opcode::Bgeu, r1, r2, -100), Instr::halt()],
                overflow(3),
            ),
            // A `jal` that cannot be represented faults before linking.
            (
                vec![Instr::rd_imm(Opcode::Jal, r31, -4), Instr::halt()],
                overflow(3),
            ),
            // A `jal` past the end of the text links, then the next fetch
            // faults.
            (
                vec![Instr::rd_imm(Opcode::Jal, r31, 10), Instr::halt()],
                Some(SimError::PcOutOfRange {
                    pc: InstrAddr::new(13),
                    text_len: 5,
                }),
            ),
        ] {
            let text = prologue.iter().copied().chain(tail).collect();
            let p = Program::new("fault-paths", text, vec![0; 4]);
            if let Err(d) = run_case(&p, 5_000) {
                panic!("oracle diverged on a fault path: {d}\n{p}");
            }
            let outcome = vp_sim::run(&p, &mut vp_sim::NullTracer, RunLimits::with_max(5_000));
            assert_eq!(outcome.err(), fault, "{p}");
        }
    }

    #[test]
    fn divergences_name_their_stage() {
        let predictor = |mode| Divergence::Predictor {
            label: "p".into(),
            mode,
            detail: String::new(),
        };
        assert_eq!(predictor("replay").stage(), Stage::Predictor);
        assert_eq!(predictor("attributed-replay").stage(), Stage::Attribution);
        let profile = Divergence::Profile {
            detail: String::new(),
        };
        assert_eq!(profile.stage(), Stage::Profile);
        let stream = Divergence::Stream {
            label: "whole plan".into(),
            detail: String::new(),
        };
        assert_eq!(stream.stage(), Stage::Stream);
        assert!(Stage::Simulation < Stage::Stream);
    }

    #[test]
    fn every_stage_prefix_passes_a_healthy_program() {
        let p = vp_isa::asm::assemble(
            "li r1, 0\nli r2, 40\ntop: addi.st r1, r1, 1\nsd r1, 3(r1)\n\
             bne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let full = run_case(&p, 5_000).unwrap();
        for last in [
            Stage::Simulation,
            Stage::Profile,
            Stage::Predictor,
            Stage::Attribution,
            Stage::Matrix,
            Stage::Ilp,
        ] {
            let trace = run_case_through(&p, 5_000, last).unwrap();
            assert_eq!(trace.columns(), full.columns(), "through {last:?}");
        }
    }

    #[test]
    fn fuzzed_programs_pass_the_oracle() {
        let cfg = GenConfig::default();
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = gen_program(&mut rng, &cfg, "oracle");
            if let Err(d) = run_case(&p, 100_000) {
                panic!("oracle diverged at seed {seed}: {d}\n{p}");
            }
        }
    }

    #[test]
    fn stream_divergence_renders_with_cell() {
        let d = Divergence::Stream {
            label: "stride (cell 1, table 0)".into(),
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("cell 1"), "{s}");
        assert!(s.contains("stats differ"), "{s}");
    }

    #[test]
    fn matrix_divergence_renders_with_cell() {
        let d = Divergence::Matrix {
            label: "stride (cell 2, table 0)".into(),
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("cell 2"), "{s}");
        assert!(s.contains("stats differ"), "{s}");
    }

    /// A directive-tagged kernel keeps the matrix oracle's two annotation
    /// tables distinct (the stripped program really differs), so the
    /// multi-table fused path is exercised, not just deduped away.
    #[test]
    fn matrix_oracle_covers_distinct_annotation_tables() {
        let src = "li r1, 0\nli r2, 9\ntop: addi.st r3, r3, 4\nsd r3, 3(r1)\n\
                   ld.lv r4, 3(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n";
        let p = vp_isa::asm::assemble(src).unwrap();
        assert_ne!(p, p.without_directives(), "kernel must carry directives");
        if let Err(d) = run_case(&p, 5_000) {
            panic!("oracle diverged on the tagged kernel: {d}\n{p}");
        }
    }

    /// The oracle must actually *catch* bugs: feed it a program pair where
    /// the "reference" is the real semantics and the optimised side is
    /// simulated with a deliberately corrupted trace.
    #[test]
    fn a_corrupted_event_stream_is_caught() {
        let p = vp_isa::asm::assemble("li r8, 7\naddi r8, r8, 1\nhalt\n").unwrap();
        let trace = run_case(&p, 1_000).expect("clean program must pass");
        let mut events: Vec<_> = trace.iter().collect();
        events[1].dest = events[1].dest.map(|(c, r, v)| (c, r, v ^ 1));
        let reference = crate::refsim::ref_run(&p, 1_000);
        let d = first_divergence(reference.events, events).expect("must detect the flip");
        assert_eq!(d.index, 1);
    }
}
