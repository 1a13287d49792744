//! The simulator against the reference interpreter on the nine Table 4.1
//! reference programs, at full size.
//!
//! The fuzzer's generated programs are short; these are the programs every
//! experiment runs. Each one must retire the same event stream and end with
//! the same registers and memory under `vp_sim::run_on` as under
//! `vp_verify::ref_run`, and `vp_profile::ProfileCollector` must build the
//! same profile image as `vp_verify::RefProfileCollector`. CI runs this
//! file in release:
//!
//! ```text
//! cargo test --release --offline -p vp-verify --test reference_programs
//! ```
//!
//! Three `#[ignore]`d tests print the measurements behind
//! `results/perf_predecoded_interp.md`, `results/trace_cache_removal.md`,
//! `results/perf_inline_collector.md` and `results/perf_ilp_fast_path.md`:
//!
//! ```text
//! cargo test --release --offline -p vp-verify --test reference_programs \
//!     -- --ignored --nocapture --test-threads=1
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use provp_core::experiments::table_5_2;
use provp_core::Suite;
use vp_ilp::{IlpConfig, IlpLanes, LaneOutcomes};
use vp_isa::{Opcode, Program, Reg, RegClass};
use vp_predictor::{Outcome, OutcomeColumn, PredictorStats};
use vp_profile::format::to_text;
use vp_profile::ProfileCollector;
use vp_sim::record::{first_divergence, TraceEvent};
use vp_sim::runner::run_on;
use vp_sim::{
    FnTracer, Machine, NullTracer, Retirement, RunLimits, RunStatus, Trace, TraceRecorder, Tracer,
};
use vp_verify::{ref_run, RefProfileCollector};
use vp_workloads::{InputSet, Workload, WorkloadKind};

/// Dynamic instructions of the nine reference runs together.
const REFERENCE_INSTRUCTIONS: u64 = 1_727_262;

fn reference_program(kind: WorkloadKind) -> Program {
    Workload::new(kind).program(&InputSet::reference())
}

fn assert_registers_match(kind: WorkloadKind, machine: &Machine, int: &[u64], fp: &[u64]) {
    for r in 0..32u8 {
        let reg = Reg::new(r);
        assert_eq!(
            machine.read_reg(RegClass::Int, reg),
            int[usize::from(r)],
            "{kind}: r{r}"
        );
        assert_eq!(
            machine.read_reg(RegClass::Fp, reg),
            fp[usize::from(r)],
            "{kind}: f{r}"
        );
    }
}

fn assert_memory_matches(kind: WorkloadKind, machine: &Machine, memory: &BTreeMap<u64, u64>) {
    for (&addr, &value) in memory {
        assert_eq!(machine.memory().read(addr), value, "{kind}: word {addr:#x}");
    }
}

#[test]
fn reference_programs_match_the_reference_interpreter() {
    let limits = RunLimits::default();
    let mut total = 0;
    for kind in WorkloadKind::ALL {
        let program = reference_program(kind);
        let mut machine = Machine::for_program(&program);
        let mut recorder = TraceRecorder::new();
        let summary = run_on(&mut machine, &program, &mut recorder, limits)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let reference = ref_run(&program, limits.max_instructions);

        assert!(summary.halted(), "{kind}: {summary}");
        assert_eq!(reference.status, Ok(RunStatus::Halted), "{kind}");
        assert_eq!(summary.instructions(), reference.retired, "{kind}");
        let columns = recorder.into_columns();
        if let Some(d) = first_divergence(reference.events.iter().copied(), columns.iter()) {
            panic!("{kind}: {d}");
        }
        assert_registers_match(kind, &machine, &reference.int_regs, &reference.fp_regs);
        assert_memory_matches(kind, &machine, &reference.memory);
        total += summary.instructions();
    }
    assert_eq!(total, REFERENCE_INSTRUCTIONS);
}

/// The dense `ProfileCollector` must build the map-based
/// `RefProfileCollector`'s image on every reference program, simulated
/// straight into it and fed through `Trace::capture_with` (the path of
/// Table 2.1's reference capture).
#[test]
fn the_profile_collector_matches_the_reference_collector() {
    let limits = RunLimits::default();
    for kind in WorkloadKind::ALL {
        let program = reference_program(kind);
        let mut reference = RefProfileCollector::new(program.name());
        vp_sim::run(&program, &mut reference, limits).unwrap();
        let expected = to_text(&reference.into_image());
        assert!(expected.lines().count() > 10, "{kind}: {expected}");

        let mut run = ProfileCollector::new(program.name());
        vp_sim::run(&program, &mut run, limits).unwrap();
        let mut captured = ProfileCollector::new(program.name());
        Trace::capture_with(&program, limits, &mut captured).unwrap();
        for (path, collector) in [("run", run), ("capture_with", captured)] {
            let text = to_text(&collector.into_image());
            if let Some((got, want)) = text.lines().zip(expected.lines()).find(|(a, b)| a != b) {
                panic!("{kind} ({path}): {got:?}, reference {want:?}");
            }
            assert_eq!(text, expected, "{kind} ({path})");
        }
    }
}

fn record(events: &mut Vec<TraceEvent>) -> impl Tracer + '_ {
    FnTracer::new(move |r: &Retirement<'_>| events.push(TraceEvent::from_retirement(r)))
}

/// `run_on` keeps the machine between calls, so a run cut by its budget and
/// resumed must be the straight run, event for event, on a program that
/// keeps values in FP registers and memory across the cut.
#[test]
fn a_resumed_run_equals_a_straight_run() {
    let kind = WorkloadKind::Swim;
    let program = reference_program(kind);
    let limits = RunLimits::default();

    let mut straight_events = Vec::new();
    let mut straight = Machine::for_program(&program);
    let whole = run_on(
        &mut straight,
        &program,
        &mut record(&mut straight_events),
        limits,
    )
    .unwrap();
    assert!(whole.halted());
    assert!(straight_events.iter().any(|e| e.stored.is_some()));
    assert!(straight_events
        .iter()
        .any(|e| matches!(e.dest, Some((RegClass::Fp, _, _)))));

    let reference = ref_run(&program, limits.max_instructions);
    for cut in [1, 977, whole.instructions() / 2, whole.instructions() - 1] {
        let mut events = Vec::new();
        let mut machine = Machine::for_program(&program);
        let first = run_on(
            &mut machine,
            &program,
            &mut record(&mut events),
            RunLimits::with_max(cut),
        )
        .unwrap();
        assert_eq!(first.status(), RunStatus::BudgetExhausted, "cut {cut}");
        assert_eq!(first.instructions(), cut);
        assert_eq!(
            machine.pc(),
            straight_events[cut as usize].addr,
            "cut {cut}"
        );
        let rest = run_on(&mut machine, &program, &mut record(&mut events), limits).unwrap();
        assert!(rest.halted(), "cut {cut}");
        assert_eq!(
            first.instructions() + rest.instructions(),
            whole.instructions()
        );
        if let Some(d) = first_divergence(straight_events.iter().copied(), events) {
            panic!("cut {cut}: {d}");
        }
        assert_eq!(machine.pc(), straight.pc(), "cut {cut}");
        assert_registers_match(kind, &machine, &reference.int_regs, &reference.fp_regs);
        assert_memory_matches(kind, &machine, &reference.memory);
    }
}

/// Prints the dynamic opcode mix and the most frequent adjacent opcode
/// pairs over the nine reference runs.
#[test]
#[ignore = "prints a measurement; run with --ignored --nocapture"]
fn print_opcode_and_pair_mix() {
    let mut ops: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut pairs: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut total = 0u64;
    for kind in WorkloadKind::ALL {
        let program = reference_program(kind);
        let mut prev: Option<Opcode> = None;
        let mut tracer = FnTracer::new(|r: &Retirement<'_>| {
            let op = r.instr.op;
            *ops.entry(op.mnemonic()).or_default() += 1;
            if let Some(p) = prev {
                *pairs.entry((p.mnemonic(), op.mnemonic())).or_default() += 1;
            }
            prev = Some(op);
        });
        let summary = vp_sim::run(&program, &mut tracer, RunLimits::default()).unwrap();
        total += summary.instructions();
    }
    let pair_total: u64 = pairs.values().sum();
    let pct = |n: u64, of: u64| 100.0 * n as f64 / of as f64;

    let mut ops: Vec<_> = ops.into_iter().collect();
    ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("{total} instructions, {} opcodes used\n", ops.len());
    println!("| opcode | count | share |\n|---|---:|---:|");
    for (op, n) in &ops {
        println!("| `{op}` | {n} | {:.1}% |", pct(*n, total));
    }

    let mut pairs: Vec<_> = pairs.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("\n{pair_total} adjacent pairs, {} distinct\n", pairs.len());
    println!("| pair | count | share |\n|---|---:|---:|");
    for ((a, b), n) in pairs.iter().take(20) {
        println!("| `{a}→{b}` | {n} | {:.1}% |", pct(*n, pair_total));
    }
}

/// Timing repetitions of the `#[ignore]`d measurements.
const REPS: usize = 7;

/// Best wall time of `run` over `REPS` runs; `setup` and dropping the
/// output stay outside the timed region.
fn best_ns<S, T>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let state = setup();
        let start = Instant::now();
        let output = run(state);
        best = best.min(start.elapsed().as_nanos() as f64);
        drop(std::hint::black_box(output));
    }
    best
}

/// Prints the best-of-7 nanoseconds per instruction of each reference
/// run, bare (`NullTracer`), with a `ProfileCollector` attached and with
/// one no-VP `IlpLanes` lane attached, each both simulated (`run_on`) and
/// replayed from a resident `Trace`; plus the cost of `Trace::capture`,
/// bare and feeding a `ProfileCollector` (`Trace::capture_with`, the path
/// of Table 2.1's reference capture).
/// Machine set-up is outside the timed region; the consumer's set-up and
/// everything `run_on` (or the replay, or the capture) does is inside.
#[test]
#[ignore = "prints a measurement; run with --ignored --nocapture"]
fn time_the_interpreter() {
    fn lane() -> IlpLanes<'static> {
        let config = IlpConfig::paper_no_vp();
        let mut lanes = IlpLanes::new(config.window);
        lanes.lane(&config, None);
        lanes
    }

    const COLUMNS: [&str; 8] = [
        "bare run",
        "bare replay",
        "profiled run",
        "profiled replay",
        "ILP lane run",
        "ILP lane replay",
        "capture",
        "capture + profile",
    ];
    println!("ns per instruction, best of {REPS}:\n");
    println!(
        "| workload | instructions | {} |\n|---|---:|{}",
        COLUMNS.join(" | "),
        "---:|".repeat(COLUMNS.len())
    );
    let (mut total, mut sums) = (0u64, [0.0f64; COLUMNS.len()]);
    for kind in WorkloadKind::ALL {
        let program = reference_program(kind);
        let limits = RunLimits::default();
        let trace = Trace::capture(&program, limits).unwrap();
        let n = trace.len() as u64;
        let machine = || Machine::for_program(&program);
        let row = [
            best_ns(machine, |mut m| {
                run_on(&mut m, &program, &mut NullTracer, limits)
            }),
            best_ns(|| (), |()| trace.replay(&program, &mut NullTracer)),
            best_ns(machine, |mut m| {
                let mut collector = ProfileCollector::new(program.name());
                run_on(&mut m, &program, &mut collector, limits).unwrap();
                collector
            }),
            best_ns(
                || (),
                |()| {
                    let mut collector = ProfileCollector::new(program.name());
                    trace.replay(&program, &mut collector).unwrap();
                    collector
                },
            ),
            best_ns(machine, |mut m| {
                let mut lanes = lane();
                run_on(&mut m, &program, &mut lanes, limits).unwrap();
                lanes
            }),
            best_ns(
                || (),
                |()| {
                    let mut lanes = lane();
                    trace.replay(&program, &mut lanes).unwrap();
                    lanes
                },
            ),
            best_ns(|| (), |()| Trace::capture(&program, limits).unwrap()),
            best_ns(
                || (),
                |()| {
                    let mut collector = ProfileCollector::new(program.name());
                    let trace = Trace::capture_with(&program, limits, &mut collector).unwrap();
                    (trace, collector)
                },
            ),
        ];
        let cells: Vec<String> = row
            .iter()
            .map(|ns| format!("{:.2}", ns / n as f64))
            .collect();
        println!("| {kind} | {n} | {} |", cells.join(" | "));
        total += n;
        for (sum, ns) in sums.iter_mut().zip(row) {
            *sum += ns;
        }
    }
    let cells: Vec<String> = sums
        .iter()
        .map(|ns| format!("{:.2}", ns / total as f64))
        .collect();
    println!("| all nine | {total} | {} |", cells.join(" | "));
}

/// Prints the best-of-7 nanoseconds per event of Table 5.2's seven
/// machines (`provp_core::experiments::table_5_2::machines`) as one
/// `IlpLanes` pass over each resident reference trace, next to a bare
/// replay of the same trace: the `table_5_2/ilp` layer of `repro-all`.
/// The lanes read real outcome columns, recorded before the timed region
/// by each machine's predictor over the trace replayed against the
/// annotated program it predicts on.
#[test]
#[ignore = "prints a measurement; run with --ignored --nocapture"]
fn time_the_table_5_2_lanes() {
    let suite = Suite::new();
    let machines = table_5_2::machines();
    println!("ns per event, best of {REPS}, {} lanes:\n", machines.len());
    println!("| workload | events | bare replay | Table 5.2 lanes |\n|---|---:|---:|---:|");
    let (mut total, mut sums) = (0u64, [0.0f64; 2]);
    for kind in WorkloadKind::ALL {
        let program = suite.reference_program(kind, None);
        let trace = Trace::capture(&program, RunLimits::default()).unwrap();
        let recorded: Vec<Option<(OutcomeColumn, PredictorStats)>> = machines
            .iter()
            .map(|(config, threshold)| {
                let mut predictor = config.predictor?.build();
                let annotated = suite.reference_program(kind, *threshold);
                let mut column = OutcomeColumn::new();
                let mut tracer = FnTracer::new(|ev: &Retirement<'_>| {
                    if let Some((_, _, value)) = ev.dest {
                        let access = predictor.access(ev.addr, ev.instr.directive, value);
                        column.push(Outcome::of(&access));
                    }
                });
                trace.replay(&annotated, &mut tracer).unwrap();
                Some((column, *predictor.stats()))
            })
            .collect();
        let n = trace.len() as u64;
        let row = [
            best_ns(|| (), |()| trace.replay(&program, &mut NullTracer)),
            best_ns(
                || (),
                |()| {
                    let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
                    for ((config, _), outcomes) in machines.iter().zip(&recorded) {
                        let outcomes = outcomes.as_ref().map(|(column, stats)| LaneOutcomes {
                            column,
                            stats: *stats,
                        });
                        lanes.lane(config, outcomes);
                    }
                    trace.replay(&program, &mut lanes).unwrap();
                    lanes.finish()
                },
            ),
        ];
        println!(
            "| {kind} | {n} | {:.2} | {:.2} |",
            row[0] / n as f64,
            row[1] / n as f64
        );
        total += n;
        for (sum, ns) in sums.iter_mut().zip(row) {
            *sum += ns;
        }
    }
    println!(
        "| all nine | {total} | {:.2} | {:.2} |",
        sums[0] / total as f64,
        sums[1] / total as f64
    );
}
