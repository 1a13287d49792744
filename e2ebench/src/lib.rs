//! End-to-end and per-layer benchmark of provp.
//!
//! One run sets a workload up (timed, repeated, median reported), runs
//! one untimed warm-up operation, then repeats operations for a fixed
//! number of seconds, timing each from outside. Every operation's outputs
//! are digested and checked against references recorded from the
//! program; a mismatch, a simulation fault, an exhausted budget or a
//! replay error fails the operation. A traced run alternates untraced
//! operations with operations under the span recorder, and derives the
//! per-layer metrics from the spans.
//!
//! See `README.md` beside this crate for the workloads, the layer map and
//! the call surface the benchmark restricts itself to.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vp_workloads::{InputSet, Workload, WorkloadKind};

mod digest;
mod measure;
mod paper_eval;
mod pgo_train;
pub mod spans;
mod sweep;

use digest::{ref_line, References};
use measure::{iqr_share, median, peak_rss_mb};
use paper_eval::EXPERIMENTS;
use spans::{Recorder, Step};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The whole evaluation, as `repro-all` runs it.
    PaperEval,
    /// Profile, merge and annotate over seeded training inputs.
    PgoTrain,
    /// The sweep matrix replayed from resident traces on one thread.
    PredictSweep,
    /// The same sweep streamed from a live simulation.
    StreamSweep,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::PaperEval,
        WorkloadName::PgoTrain,
        WorkloadName::PredictSweep,
        WorkloadName::StreamSweep,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::PaperEval => "paper-eval",
            WorkloadName::PgoTrain => "pgo-train",
            WorkloadName::PredictSweep => "predict-sweep",
            WorkloadName::StreamSweep => "stream-sweep",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Picks a value in `0..n` from `seed` and `salt` (splitmix64 finaliser).
pub(crate) fn pick(seed: u64, salt: u64, n: u32) -> u32 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % u64::from(n)) as u32
}

/// Simulates `program` once, counting `(instructions, value events)`;
/// fails on a fault or an exhausted budget.
pub(crate) fn count_run(program: &vp_isa::Program) -> Result<(u64, u64), String> {
    let mut events = 0u64;
    let mut count =
        vp_sim::FnTracer::new(|ev: &vp_sim::Retirement<'_>| events += u64::from(ev.dest.is_some()));
    let summary = vp_sim::run(program, &mut count, vp_sim::RunLimits::default())
        .map_err(|e| format!("simulation fault: {e}"))?;
    if !summary.halted() {
        return Err("run exhausted its budget".to_owned());
    }
    Ok((summary.instructions(), events))
}

/// The `InputSet::train(k)` indices the seed chooses, per kind (empty
/// for `paper-eval`, whose inputs are the paper's fixed ones).
#[must_use]
pub fn chosen_inputs(workload: WorkloadName, seed: u64) -> Vec<(WorkloadKind, Vec<u32>)> {
    WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let inputs = match workload {
                WorkloadName::PaperEval => Vec::new(),
                WorkloadName::PgoTrain => {
                    let start = pgo_train::window_start(seed, kind);
                    (start..start + pgo_train::TRAIN_WINDOW).collect()
                }
                WorkloadName::PredictSweep | WorkloadName::StreamSweep => {
                    sweep::eval_inputs(seed, kind)
                }
            };
            (kind, inputs)
        })
        .collect()
}

/// One workload, set up and ready to run operations.
trait Bench {
    /// Runs one operation; `Err` says why it failed.
    fn op(&mut self, refs: &References, rec: &mut Recorder) -> Result<(), String>;
    /// Dynamic instructions one operation covers (simulated or replayed).
    fn instructions(&self) -> u64;
    /// Fills the per-layer metrics this workload measures, from the spans
    /// of the traced operations `ops`.
    fn layers(&mut self, rec: &Recorder, ops: &[u32], layers: &mut Layers);
}

fn setup(workload: WorkloadName, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        WorkloadName::PaperEval => Box::new(paper_eval::setup(rec)?),
        WorkloadName::PgoTrain => Box::new(pgo_train::setup(seed, rec)),
        WorkloadName::PredictSweep => Box::new(sweep::setup(seed, false, rec)?),
        WorkloadName::StreamSweep => Box::new(sweep::setup(seed, true, rec)?),
    })
}

/// Per-layer metrics; a workload leaves the layers it does not exercise
/// at 0. Times are per operation unless the name says otherwise.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `Workload::program` time per set-up.
    pub program_ms: f64,
    /// Instructions one operation covers (exact).
    pub sim_instructions: u64,
    /// Profiling simulation time per instruction.
    pub profile_ns_per_instr: f64,
    /// Trace capture time per instruction.
    pub capture_ns_per_instr: f64,
    /// `merge::intersect_and_sum` time.
    pub merge_ms: f64,
    /// `annotate` time.
    pub annotate_ms: f64,
    /// Tagged instructions over all kinds and thresholds (exact).
    pub tagged: u64,
    /// Value events replayed per operation (exact).
    pub value_events: u64,
    /// Plan cells before dedupe (exact).
    pub cells_requested: u64,
    /// Plan cells after dedupe (exact).
    pub cells_fused: u64,
    /// Batch replay time per (event × fused cell).
    pub batch_ns_per_event_cell: f64,
    /// Streamed replay wall time per event.
    pub stream_ns_per_event: f64,
    /// CPU over wall time inside streamed replays.
    pub stream_cpu_per_wall: f64,
    /// Table 5.2 time per (reference event × machine).
    pub ilp_ns_per_event_machine: f64,
    /// Trace-store requests Table 5.2 makes (exact).
    pub ilp_trace_replays: u64,
    /// Trace captures of one evaluation (exact).
    pub trace_captures: u64,
    /// Trace bytes resident after one evaluation, in MiB.
    pub trace_resident_mb: f64,
    /// Time of each experiment call, in `repro-all` order.
    pub experiments_ms: [f64; 9],
    /// Traced over untraced `wall_s` (fastest steps), minus one, in %.
    pub trace_overhead_pct: f64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

impl Layers {
    /// Every per-layer metric, in report order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            metric("workloads.program_ms", self.program_ms, "ms"),
            metric("sim.instructions", self.sim_instructions as f64, "count"),
            metric("sim.profile_ns_per_instr", self.profile_ns_per_instr, "ns"),
            metric("sim.capture_ns_per_instr", self.capture_ns_per_instr, "ns"),
            metric("profile.merge_ms", self.merge_ms, "ms"),
            metric("compiler.annotate_ms", self.annotate_ms, "ms"),
            metric("compiler.tagged", self.tagged as f64, "count"),
            metric("replay.value_events", self.value_events as f64, "count"),
            metric(
                "replay.cells_requested",
                self.cells_requested as f64,
                "count",
            ),
            metric("replay.cells_fused", self.cells_fused as f64, "count"),
            metric(
                "replay.batch_ns_per_event_cell",
                self.batch_ns_per_event_cell,
                "ns",
            ),
            metric("stream.ns_per_event", self.stream_ns_per_event, "ns"),
            metric("stream.cpu_per_wall", self.stream_cpu_per_wall, "ratio"),
            metric(
                "ilp.ns_per_event_machine",
                self.ilp_ns_per_event_machine,
                "ns",
            ),
            metric("ilp.trace_replays", self.ilp_trace_replays as f64, "count"),
            metric("suite.trace_captures", self.trace_captures as f64, "count"),
            metric("suite.trace_resident_mb", self.trace_resident_mb, "MiB"),
        ];
        for (name, &ms) in EXPERIMENTS.iter().zip(&self.experiments_ms) {
            m.push(metric(&format!("{name}_ms"), ms, "ms"));
        }
        m.push(metric(
            "bench.trace_overhead_pct",
            self.trace_overhead_pct,
            "%",
        ));
        m
    }
}

/// Set-up repeats beyond `Config::setup_reps` until this much time has
/// been spent in it ...
const SETUP_MIN_SECONDS: f64 = 2.0;

/// ... or it has run this many times.
const SETUP_MAX_REPS: usize = 25;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadName,
    /// Seed choosing the inputs.
    pub seed: u64,
    /// Seconds of timed operations (at least one operation always runs,
    /// two in a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Minimum set-up repetitions (cheap set-ups repeat for longer).
    pub setup_reps: usize,
    /// Whether an untimed warm-up operation precedes timing.
    pub warm_up: bool,
}

impl Config {
    /// The configuration the command line runs.
    #[must_use]
    pub fn new(workload: WorkloadName, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            setup_reps: 3,
            warm_up: true,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations that failed (a failed set-up counts as one).
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// End-to-end metrics, from the untraced operations.
    pub end_to_end: Vec<Metric>,
    /// Median, within-run spread (interquartile range over median) and
    /// sample count of the set-up repetitions and of whole untraced
    /// operations.
    pub spreads: Vec<(&'static str, f64, f64, usize)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Option<Layers>,
    /// The span recorder (empty in untraced runs).
    pub recorder: Recorder,
}

/// Runs one workload as `cfg` says.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let refs = References::load();
    let mut rec = Recorder::new(cfg.trace);
    let mut next_op = 0u32;
    let mut new_op = || {
        next_op += 1;
        next_op
    };

    // Set-up: its own region, repeated at least `setup_reps` times and,
    // when it is cheap, until SETUP_MIN_SECONDS have passed, so every step
    // has enough repetitions. Only the last result is kept, and the
    // previous one is dropped first so peak memory holds one copy.
    let mut setup_steps: Vec<Vec<Step>> = Vec::new();
    let mut setup_ops = Vec::new();
    let mut bench = None;
    let mut failures = Vec::new();
    let spent = |reps: &[Vec<Step>]| reps.iter().flatten().map(|s| s.0).sum::<f64>();
    while setup_steps.len() < cfg.setup_reps.max(1)
        || (spent(&setup_steps) < SETUP_MIN_SECONDS && setup_steps.len() < SETUP_MAX_REPS)
    {
        drop(bench.take());
        let op = new_op();
        setup_ops.push(op);
        let root = rec.begin_op(op, "setup");
        let built = setup(cfg.workload, cfg.seed, &mut rec);
        setup_steps.push(rec.end_op(root));
        match built {
            Ok(b) => bench = Some(b),
            Err(e) => {
                failures.push(format!("set-up: {e}"));
                break;
            }
        }
    }
    let Some(mut bench) = bench else {
        return Outcome {
            attempted: 1,
            failed: 1,
            failures,
            end_to_end: Vec::new(),
            spreads: Vec::new(),
            per_layer: None,
            recorder: rec,
        };
    };

    let mut attempted = 0u64;
    let mut one_op =
        |bench: &mut Box<dyn Bench>, rec: &mut Recorder, failures: &mut Vec<String>, op| {
            let root = rec.begin_op(op, "op");
            let result = catch_unwind(AssertUnwindSafe(|| bench.op(&refs, rec)));
            let steps = rec.end_op(root);
            attempted += 1;
            match result {
                Ok(Ok(())) => return Some(steps),
                Ok(Err(e)) => failures.push(e),
                Err(panic) => failures.push(format!(
                    "panic: {}",
                    panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("(non-string payload)")
                )),
            }
            None
        };

    if cfg.warm_up {
        rec.set_enabled(false);
        one_op(&mut bench, &mut rec, &mut failures, new_op());
    }

    // Timed operations, each kept as its steps (failed ones are dropped:
    // they stop early). A traced run alternates untraced and traced
    // operations, so both see the same host conditions.
    let (mut untraced, mut traced, mut traced_ops) = (vec![], vec![], vec![]);
    let (mut ran, mut ran_traced) = (0, 0);
    let started = Instant::now();
    while ran == 0
        || (cfg.trace && ran_traced == 0)
        || started.elapsed().as_secs_f64() < cfg.seconds
    {
        let tracing = cfg.trace && ran > ran_traced;
        rec.set_enabled(tracing);
        let op = new_op();
        let steps = one_op(&mut bench, &mut rec, &mut failures, op);
        if tracing {
            ran_traced += 1;
            traced_ops.push(op);
            traced.extend(steps);
        } else {
            ran += 1;
            untraced.extend(steps);
        }
    }
    rec.set_enabled(false);

    let (wall_s, cpu_s) = fastest_steps(&untraced);
    let end_to_end = vec![
        metric("setup_s", fastest_steps(&setup_steps).0, "s"),
        metric("wall_s", wall_s, "s"),
        metric("cpu_s", cpu_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "minstr_per_s",
            bench.instructions() as f64 / wall_s / 1e6,
            "Minstr/s",
        ),
    ];
    let spread = |name, reps: &[Vec<Step>], pick: fn(&Step) -> f64| {
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().map(pick).sum()).collect();
        (name, median(&totals), iqr_share(&totals), totals.len())
    };
    let spreads = vec![
        spread("set-up wall", &setup_steps, |s| s.0),
        spread("operation wall", &untraced, |s| s.0),
        spread("operation CPU", &untraced, |s| s.1),
    ];
    let per_layer = cfg.trace.then(|| {
        let mut layers = Layers {
            program_ms: rec.per_op_ms("workloads.program", &setup_ops),
            sim_instructions: bench.instructions(),
            trace_overhead_pct: (fastest_steps(&traced).0 / wall_s - 1.0) * 100.0,
            ..Layers::default()
        };
        bench.layers(&rec, &traced_ops, &mut layers);
        layers
    });
    Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        end_to_end,
        spreads,
        per_layer,
        recorder: rec,
    }
}

/// Wall and CPU time of an operation with every step at its fastest
/// repetition: the sum over steps of each step's minimum across `ops`.
///
/// On a shared virtual machine the CPU is taken away in bursts of
/// milliseconds. A burst lands in some step of most operations, so
/// whole-operation times can scatter by tens of percent from run to run,
/// while the fastest repetition of each short step does not. See the
/// README for measurements.
fn fastest_steps(ops: &[Vec<Step>]) -> (f64, f64) {
    let Some(first) = ops.first() else {
        return (0.0, 0.0);
    };
    let complete = || ops.iter().filter(|s| s.len() == first.len());
    (0..first.len()).fold((0.0, 0.0), |(wall, cpu), i| {
        let fastest = |pick: fn(&Step) -> f64| {
            complete()
                .map(|s| pick(&s[i]))
                .fold(f64::INFINITY, f64::min)
        };
        (wall + fastest(|s| s.0), cpu + fastest(|s| s.1))
    })
}

/// Computes the reference digest of every unit any seed can choose, as
/// `refs.txt` lines.
///
/// # Errors
///
/// The first simulation fault, exhausted budget or replay error.
pub fn record() -> Result<Vec<String>, String> {
    let mut rec = Recorder::new(false);
    let mut lines = vec![ref_line(paper_eval::KEY, paper_eval::digest(&mut rec))];
    for kind in WorkloadKind::ALL {
        let workload = Workload::new(kind);
        let window = pgo_train::TRAIN_WINDOW as usize;
        let programs: Vec<_> = (0..pgo_train::WINDOW_STARTS + pgo_train::TRAIN_WINDOW - 1)
            .map(|k| workload.program(&InputSet::train(k)))
            .collect();
        for start in 0..pgo_train::WINDOW_STARTS {
            let window = &programs[start as usize..start as usize + window];
            let base = window[0].without_directives();
            let trained = pgo_train::train_kind(kind, window, &base, &mut rec)?;
            lines.push(ref_line(&pgo_train::key(kind, start), trained.digest));
        }
        let (plan, _) = sweep::plan_kind(kind, &mut rec)?;
        for input in sweep::EVAL_FIRST..sweep::EVAL_FIRST + sweep::EVAL_POOL {
            let program = workload.program(&InputSet::train(input));
            let trace = sweep::capture(kind, &program, &mut rec)?;
            let response = provp_core::replay::ReplayRequest::batch(&trace)
                .plan(plan.clone())
                .run()
                .map_err(|e| format!("{kind}/train({input}): replay error: {e}"))?;
            lines.push(ref_line(&sweep::key(kind, input), sweep::digest(&response)));
        }
    }
    Ok(lines)
}
