//! The simulator against the reference interpreter on the nine Table 4.1
//! reference programs, at full size.
//!
//! The fuzzer's generated programs are short; these are the programs every
//! experiment runs. Each one must retire the same event stream and end with
//! the same registers and memory under `vp_sim::run_on` as under
//! `vp_verify::ref_run`. CI runs this file in release:
//!
//! ```text
//! cargo test --release --offline -p vp-verify --test reference_programs
//! ```
//!
//! Two `#[ignore]`d tests print the measurements behind
//! `results/perf_predecoded_interp.md`:
//!
//! ```text
//! cargo test --release --offline -p vp-verify --test reference_programs \
//!     -- --ignored --nocapture --test-threads=1
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use vp_isa::{Opcode, Program, Reg, RegClass};
use vp_profile::ProfileCollector;
use vp_sim::record::{first_divergence, TraceEvent};
use vp_sim::runner::run_on;
use vp_sim::{
    FnTracer, Machine, NullTracer, Retirement, RunLimits, RunStatus, TraceRecorder, Tracer,
};
use vp_verify::ref_run;
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

/// Prints the best-of-7 nanoseconds per instruction of each reference
/// run, bare (`NullTracer`) and with a `ProfileCollector` attached. Machine
/// set-up is outside the timed region; everything `run_on` does is inside.
#[test]
#[ignore = "prints a measurement; run with --ignored --nocapture"]
fn time_the_interpreter() {
    const REPS: usize = 7;
    fn best_ns<T>(program: &Program, mut run: impl FnMut(&mut Machine) -> (u64, T)) -> (u64, f64) {
        let mut best = f64::INFINITY;
        let mut instructions = 0;
        for _ in 0..REPS {
            let mut machine = Machine::for_program(program);
            let start = Instant::now();
            let (n, output) = run(&mut machine);
            best = best.min(start.elapsed().as_nanos() as f64);
            drop(std::hint::black_box(output));
            instructions = n;
        }
        (instructions, best)
    }

    println!(
        "| workload | instructions | bare ns/instr | profiled ns/instr |\n|---|---:|---:|---:|"
    );
    let (mut total, mut bare_ns, mut profiled_ns) = (0u64, 0.0, 0.0);
    for kind in WorkloadKind::ALL {
        let program = reference_program(kind);
        let limits = RunLimits::default();
        let (n, bare) = best_ns(&program, |m| {
            let summary = run_on(m, &program, &mut NullTracer, limits).unwrap();
            (summary.instructions(), ())
        });
        let (_, profiled) = best_ns(&program, |m| {
            let mut collector = ProfileCollector::new(program.name());
            let summary = run_on(m, &program, &mut collector, limits).unwrap();
            (summary.instructions(), collector)
        });
        println!(
            "| {kind} | {n} | {:.2} | {:.2} |",
            bare / n as f64,
            profiled / n as f64
        );
        total += n;
        bare_ns += bare;
        profiled_ns += profiled;
    }
    println!(
        "| all nine | {total} | {:.2} | {:.2} |",
        bare_ns / total as f64,
        profiled_ns / total as f64
    );
}
