//! The differential oracle: one fuzzed program, every optimised layer of
//! the stack checked against its reference model.
//!
//! A single [`run_case`] performs, in order:
//!
//! 1. **Simulation differential** — the optimised [`vp_sim`] machine (with
//!    the columnar [`TraceRecorder`] attached) against the row-oriented
//!    [`ref_run`] interpreter: identical run status, retired-instruction
//!    count, retirement event stream, final register files and final
//!    memory.
//! 2. **Serialisation oracle** — the captured columnar trace must survive
//!    a `write_to`/`read_from` round trip bit-identically (the `provptr3`
//!    encoder and its checksum are on this path).
//! 3. **Predictor differential** — for a panel of predictor
//!    configurations, the naive [`ref_predict`] models against (a) the
//!    real predictor fed directly, (b) a sequential [`ReplayRequest`]
//!    replay, and (c) a PC-sharded parallel one: identical
//!    [`PredictorStats`] and occupancy.
//! 4. **Attribution oracle** — the attributed replay
//!    ([`ReplayRequest::attribution`]) must leave the stats untouched
//!    (observation-only), produce a bit-identical per-PC
//!    [`vp_predictor::AttributionTable`] at any shard/job count, and its
//!    totals must reconcile *exactly* with the [`PredictorStats`]
//!    (every access accounted, every raw miss charged to one cause).
//! 5. **Matrix oracle** — the fused sweep ([`ReplayRequest`] over the
//!    whole plan) over every oracle configuration (with a duplicate cell
//!    and a second, directive-stripped annotation table in the plan)
//!    must return, at any shard count, exactly the grid that per-cell
//!    replays produce.
//! 6. **Streaming oracle** — the bounded-memory streaming engine
//!    ([`ReplayRequest::stream`]), which re-simulates the program and
//!    predicts concurrently without a resident trace, must reproduce the
//!    batch grid bit-identically at every tested shard × block-pool
//!    combination, including attribution tables.
//!
//! Any mismatch is returned as a typed [`Divergence`]; `Ok` carries the
//! captured trace so the fuzz loop can fold it into coverage.

use std::error::Error;
use std::fmt;

use provp_core::{ReplayRequest, SweepPlan};
use vp_isa::{Directive, InstrAddr, Program, Reg, RegClass};
use vp_predictor::{ClassifierKind, PredictorConfig, PredictorStats, TableGeometry};
use vp_sim::record::{first_divergence, TraceDivergence, TraceRecorder};
use vp_sim::{runner, Machine, RunLimits, Trace};

use crate::refpred::ref_predict;
use crate::refsim::ref_run;

/// A mismatch between the optimised stack and its reference model.
#[derive(Debug)]
pub enum Divergence {
    /// Run status / fault / retired-count mismatch.
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
    /// The trace did not survive a serialisation round trip.
    Serialization {
        /// What went wrong, rendered for humans.
        detail: String,
        /// The underlying codec error, when one exists (pure value
        /// mismatches have none); exposed through
        /// [`std::error::Error::source`].
        source: Option<Box<dyn Error + Send + Sync>>,
    },
    /// A predictor's statistics or occupancy differ from the reference
    /// model.
    Predictor {
        /// `PredictorConfig::label()` of the diverging configuration.
        label: String,
        /// Which path diverged: "direct", "replay" or "sharded-replay".
        mode: &'static str,
        /// Human-readable field-level detail.
        detail: String,
    },
    /// The per-PC attribution layer broke its contract: the attributed
    /// replay perturbed the stats, the table differs across shard
    /// counts, or its totals fail to reconcile with [`PredictorStats`].
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
        /// Shard count the fused replay ran at.
        shards: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The streaming replay engine diverged from batch replay.
    Stream {
        /// `PredictorConfig::label()` of the diverging cell's
        /// configuration, with its plan position — or "whole plan".
        label: String,
        /// Shard (consumer) count the streamed replay ran at.
        shards: usize,
        /// Block-pool size the streamed replay ran with.
        pool: usize,
        /// Human-readable detail.
        detail: String,
    },
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
            Divergence::Serialization { detail, .. } => {
                write!(f, "trace serialisation diverges: {detail}")
            }
            Divergence::Predictor {
                label,
                mode,
                detail,
            } => write!(f, "predictor `{label}` ({mode}) diverges: {detail}"),
            Divergence::Attribution { label, detail } => {
                write!(f, "attribution for `{label}` diverges: {detail}")
            }
            Divergence::Matrix {
                label,
                shards,
                detail,
            } => write!(
                f,
                "fused matrix cell `{label}` ({shards} shards) diverges: {detail}"
            ),
            Divergence::Stream {
                label,
                shards,
                pool,
                detail,
            } => write!(
                f,
                "streamed replay of `{label}` ({shards} shards, pool {pool}) diverges: {detail}"
            ),
        }
    }
}

impl Error for Divergence {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Divergence::Events(d) => Some(&**d),
            Divergence::Serialization {
                source: Some(e), ..
            } => Some(&**e as &(dyn Error + 'static)),
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
    if !status_matches {
        return Err(Divergence::Status {
            optimized: match &optimized {
                Ok(s) => format!("{:?} after {} instructions", s.status(), s.instructions()),
                Err(e) => format!("fault: {e}"),
            },
            reference: match &reference.status {
                Ok(r) => format!("{:?} after {} instructions", r, reference.retired),
                Err(e) => format!("fault: {e}"),
            },
        });
    }

    let cols = recorder.into_columns();
    if let Some(d) = first_divergence(reference.events.iter().cloned(), cols.iter()) {
        return Err(Divergence::Events(Box::new(d)));
    }

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
        let opt = machine.memory().peek(addr);
        if opt != value {
            return Err(Divergence::Memory {
                addr,
                optimized: opt,
                reference: value,
            });
        }
    }

    // --- 2. serialisation oracle ---
    let trace = Trace::from_columns(cols);
    let mut bytes = Vec::new();
    if let Err(e) = trace.write_to(&mut bytes) {
        return Err(Divergence::Serialization {
            detail: format!("write failed: {e}"),
            source: Some(Box::new(e)),
        });
    }
    match Trace::read_from(bytes.as_slice()) {
        Ok(back) if back.columns() == trace.columns() => {}
        Ok(_) => {
            return Err(Divergence::Serialization {
                detail: "round trip decoded different columns".into(),
                source: None,
            })
        }
        Err(e) => {
            return Err(Divergence::Serialization {
                detail: format!("read failed: {e}"),
                source: Some(Box::new(e)),
            })
        }
    }

    // --- 3. predictor differential ---
    let directives: Vec<Directive> = program.text().iter().map(|i| i.directive).collect();
    let values: Vec<(InstrAddr, u64)> = trace.columns().value_events().collect();
    let expected_values = reference.events.iter().filter(|e| e.dest.is_some()).count();
    if values.len() != expected_values {
        return Err(Divergence::Serialization {
            detail: format!(
                "value_events yields {} events, reference saw {expected_values} dest writes",
                values.len()
            ),
            source: None,
        });
    }

    for config in oracle_configs() {
        let (ref_stats, ref_occ) = ref_predict(&directives, &values, &config);

        // (a) the real predictor, fed directly.
        let mut direct = config.build();
        for &(addr, value) in &values {
            let d = directives
                .get(addr.index() as usize)
                .copied()
                .unwrap_or(Directive::None);
            direct.access(addr, d, value);
        }
        check_predictor(
            &config,
            "direct",
            (*direct.stats(), direct.occupancy()),
            (ref_stats, ref_occ),
        )?;

        // (b) sequential replay, (c) PC-sharded parallel replay.
        for (mode, shards, jobs) in [("replay", 1usize, 1usize), ("sharded-replay", 3, 2)] {
            let outcome = ReplayRequest::batch(&trace)
                .single(program, config)
                .shards(shards)
                .jobs(jobs)
                .run()
                .map_err(|e| Divergence::Predictor {
                    label: config.label(),
                    mode,
                    detail: format!("replay failed: {e}"),
                })?
                .into_single()
                .outcome;
            check_predictor(
                &config,
                mode,
                (outcome.stats, outcome.occupancy),
                (ref_stats, ref_occ),
            )?;
        }

        // --- 4. attribution oracle ---
        let attr_err = |detail: String| Divergence::Attribution {
            label: config.label(),
            detail,
        };
        let attributed = |shards: usize, jobs: usize| {
            ReplayRequest::batch(&trace)
                .single(program, config)
                .attribution(true)
                .shards(shards)
                .jobs(jobs)
                .run()
                .map(|r| {
                    let cell = r.into_single();
                    (cell.outcome, cell.attribution.expect("attribution on"))
                })
        };
        let (seq_out, seq_table) =
            attributed(1, 1).map_err(|e| attr_err(format!("attributed replay failed: {e}")))?;
        // Observation-only: attribution must not perturb the replay.
        check_predictor(
            &config,
            "attributed-replay",
            (seq_out.stats, seq_out.occupancy),
            (ref_stats, ref_occ),
        )?;
        seq_table
            .reconcile(&seq_out.stats)
            .map_err(|e| attr_err(format!("totals fail to reconcile with stats: {e}")))?;
        let (par_out, par_table) = attributed(3, 2)
            .map_err(|e| attr_err(format!("sharded attributed replay failed: {e}")))?;
        if par_out.stats != seq_out.stats {
            return Err(attr_err(
                "sharded attributed replay changed the stats".into(),
            ));
        }
        if par_table != seq_table {
            return Err(attr_err(
                "per-PC table differs between 1 and 3 shards".into(),
            ));
        }
    }

    // --- 5. matrix oracle ---
    // One fused pass over every oracle configuration, with a duplicate
    // cell (exercising the dedup path) and a second annotation table
    // (the directive-stripped program), checked cell by cell against
    // independent per-cell replays at each shard count.
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
    for &(config, table, _) in &matrix_cells {
        plan.add_cell(config, table);
    }
    let expected: Vec<_> = matrix_cells
        .iter()
        .map(|(config, _, cell_program)| {
            ReplayRequest::batch(&trace)
                .single(cell_program, *config)
                .run()
                .map(|r| r.into_single().outcome)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| Divergence::Matrix {
            label: "per-cell reference".into(),
            shards: 1,
            detail: format!("replay failed: {e}"),
        })?;
    let cell_label = |i: usize| {
        let (config, table, _) = &matrix_cells[i];
        format!("{} (cell {i}, table {table})", config.label())
    };
    for shards in [1usize, 3] {
        let fused = ReplayRequest::batch(&trace)
            .plan(plan.clone())
            .shards(shards)
            .jobs(2)
            .run()
            .map(|r| r.outcomes())
            .map_err(|e| Divergence::Matrix {
                label: "whole plan".into(),
                shards,
                detail: format!("fused replay failed: {e}"),
            })?;
        if fused.len() != matrix_cells.len() {
            return Err(Divergence::Matrix {
                label: "whole plan".into(),
                shards,
                detail: format!(
                    "fused replay returned {} outcomes for {} cells",
                    fused.len(),
                    matrix_cells.len()
                ),
            });
        }
        for (i, (f, e)) in fused.iter().zip(&expected).enumerate() {
            if f.stats != e.stats {
                return Err(Divergence::Matrix {
                    label: cell_label(i),
                    shards,
                    detail: format!(
                        "stats differ:\nfused {:#?}\nper-cell {:#?}",
                        f.stats, e.stats
                    ),
                });
            }
            if f.occupancy != e.occupancy {
                return Err(Divergence::Matrix {
                    label: cell_label(i),
                    shards,
                    detail: format!(
                        "occupancy differs: fused {}, per-cell {}",
                        f.occupancy, e.occupancy
                    ),
                });
            }
        }
    }

    // --- 6. streaming oracle ---
    // The bounded-memory streaming engine re-simulates the program and
    // feeds the same fused kernel through a bounded block channel; its
    // grid must be bit-identical to the batch grid at every tested shard
    // (consumer) count × block-pool size — including a pool of 2, where
    // the producer stalls on every other block. Faulting programs are
    // excluded: a streamed replay surfaces the simulator fault as an
    // error (there is no well-defined full stream), while the batch path
    // above replays the pre-fault prefix that the recorder captured.
    if optimized.is_err() {
        return Ok(trace);
    }
    for (shards, pool) in [(1usize, 2usize), (3, 2), (3, 8)] {
        let stream_err = |label: String, detail: String| Divergence::Stream {
            label,
            shards,
            pool,
            detail,
        };
        let streamed = ReplayRequest::stream(program, limits)
            .plan(plan.clone())
            .shards(shards)
            .block_pool(pool)
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
    }
    // Attributed streaming: tables must match batch attribution exactly.
    let attributed_of = |request: ReplayRequest<'_>| {
        request
            .plan(plan.clone())
            .attribution(true)
            .shards(3)
            .jobs(2)
            .block_pool(2)
            .run()
    };
    let batch_attr =
        attributed_of(ReplayRequest::batch(&trace)).map_err(|e| Divergence::Stream {
            label: "whole plan (attributed batch)".into(),
            shards: 3,
            pool: 2,
            detail: format!("attributed batch replay failed: {e}"),
        })?;
    let stream_attr =
        attributed_of(ReplayRequest::stream(program, limits)).map_err(|e| Divergence::Stream {
            label: "whole plan (attributed)".into(),
            shards: 3,
            pool: 2,
            detail: format!("attributed streamed replay failed: {e}"),
        })?;
    for (i, (s, b)) in stream_attr.cells.iter().zip(&batch_attr.cells).enumerate() {
        let stream_err = |detail: String| Divergence::Stream {
            label: cell_label(i),
            shards: 3,
            pool: 2,
            detail,
        };
        if s.outcome.stats != b.outcome.stats {
            return Err(stream_err(
                "attributed streamed stats differ from batch".into(),
            ));
        }
        if s.attribution != b.attribution {
            return Err(stream_err(
                "attribution table differs between streamed and batch replay".into(),
            ));
        }
    }

    Ok(trace)
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
    fn hand_written_kernels_pass_the_oracle() {
        for src in [
            // The FP loop from the workload suite's shape.
            ".f64 1.5\nli r1, 0\nli r2, 12\ntop: fld f1, (r0)\nfadd f2, f2, f1\n\
             sd r1, 5(r1)\nld r3, 5(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
            // Faulting program: both stacks must fault identically.
            "li r1, -5\njalr r0, r1, 0\nhalt\n",
            // Budget exhaustion: both stacks must stop at the same count.
            "top: addi r8, r8, 1\nbeq r0, r0, top\nhalt\n",
        ] {
            let p = vp_isa::asm::assemble(src).unwrap();
            if let Err(d) = run_case(&p, 5_000) {
                panic!("oracle diverged on hand-written kernel: {d}\n{p}");
            }
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
    fn stream_divergence_renders_with_shards_and_pool() {
        let d = Divergence::Stream {
            label: "stride (cell 1, table 0)".into(),
            shards: 3,
            pool: 2,
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("3 shards"), "{s}");
        assert!(s.contains("pool 2"), "{s}");
        assert!(s.contains("stats differ"), "{s}");
    }

    #[test]
    fn serialization_divergence_chains_its_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        let d = Divergence::Serialization {
            detail: format!("read failed: {inner}"),
            source: Some(Box::new(inner)),
        };
        let source = d.source().expect("typed source must be exposed");
        assert!(source.to_string().contains("short read"));
        // Pure value mismatches have no cause.
        let bare = Divergence::Serialization {
            detail: "round trip decoded different columns".into(),
            source: None,
        };
        assert!(bare.source().is_none());
    }

    #[test]
    fn matrix_divergence_renders_with_cell_and_shards() {
        let d = Divergence::Matrix {
            label: "stride (cell 2, table 0)".into(),
            shards: 3,
            detail: "stats differ".into(),
        };
        let s = d.to_string();
        assert!(s.contains("cell 2"), "{s}");
        assert!(s.contains("3 shards"), "{s}");
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
