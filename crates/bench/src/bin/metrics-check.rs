//! CI gate: compares a fresh run manifest against a checked-in baseline
//! and fails when any gated quantity regressed beyond its limit.
//!
//! ```text
//! metrics-check --manifest=/tmp/manifest.json --baseline=BENCH_baseline.json \
//!               [--max-regression=0.30] \
//!               [--phase=repro-all/classification/predict] \
//!               [--max-phase-regression=0.25] \
//!               [--max-accuracy-drop=0.005] \
//!               [--max-phase-share-regression=0.15] \
//!               [--max-matrix-passes-per-trace=1] \
//!               [--max-ilp-passes-per-trace=1] \
//!               [--max-peak-rss-regression=0.25]
//! ```
//!
//! Both flag forms (`--flag=V` and `--flag V`) are accepted. Every gate
//! is one row of [`GATES`]: its limit flag, the quantity it reads from
//! each manifest, which direction is worse and how the limit turns the
//! baseline value into a bound:
//!
//! | flag | quantity | bound |
//! |---|---|---|
//! | `--max-regression` (default 0.30) | simulator instr/s | floor: baseline × (1 − F) |
//! | `--max-phase-regression` (default 0.25, per `--phase=`) | the phase's `total_ms` | ceiling: baseline × (1 + F) |
//! | `--max-accuracy-drop` | effective prediction accuracy | floor: baseline − F |
//! | `--max-peak-rss-regression` | peak RSS | ceiling: baseline × (1 + F) |
//! | `--max-matrix-passes-per-trace` | fused-sweep passes per swept trace | ceiling: N (no baseline read) |
//! | `--max-ilp-passes-per-trace` | ILP lane passes per traced workload | ceiling: N (no baseline read) |
//! | `--max-phase-share-regression` (per profiled phase) | the phase's share of the profile's self time | ceiling: baseline + F |
//!
//! One missing-data policy covers every gate: data the *baseline* lacks
//! skips that check with a warning (refresh the baseline to re-arm it);
//! data the *current* manifest lacks is a usage error (exit 2), because
//! the gate was asked to check something the run never measured. The
//! per-gate readings decide what "lacks" means: a phase absent from the
//! baseline profile reads as share 0 (brand-new hot phases are what the
//! share gate exists to catch), a zero baseline never bounds a relative
//! gate, and a run that simulated nothing reads as 0 instr/s (a 100%
//! throughput regression, not missing data). Peak RSS is
//! `peak_rss_bytes`, the kernel's lifetime high-water mark (`VmHWM`),
//! which includes transient peaks freed before the end of the run.
//!
//! A failing accuracy gate names the guiltiest PCs from the current
//! manifest's `attribution` array; a failing phase-share gate names the
//! stack under the phase with the most self time.
//!
//! Exit status:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | every gate within its limit (or skipped for lack of baseline data) |
//! | 1 | a gate failed |
//! | 2 | usage error, the *current* manifest is missing/unparsable, or it lacks data a gate reads |
//! | 3 | the *baseline* manifest is missing (unreadable) |
//! | 4 | the *baseline* manifest is unparsable |
//!
//! Codes 3 and 4 let CI distinguish "the gate could not run" (fix the
//! baseline) from "the gate ran and failed" (a real regression); both
//! print a `PROVP_LOG`-visible warning on stderr.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use vp_obs::{obs_error, obs_warn, RunManifest};

/// Reads one gated quantity for one subject (a phase path, or `""` for
/// run-wide gates) from a manifest; `None` when the manifest lacks it.
type Read = fn(&RunManifest, &str) -> Option<f64>;

/// How a gate's limit turns the baseline value into a bound.
enum Bound {
    /// The limit is a fraction of the baseline value (read by the fn;
    /// a zero baseline counts as missing).
    Relative(Read),
    /// The limit is an absolute distance from the baseline value.
    Absolute(Read),
    /// The limit itself is the bound; the baseline is never read.
    Fixed,
}

/// Which direction of the gated quantity is a regression.
#[derive(Clone, Copy)]
enum Worse {
    Lower,
    Higher,
}

/// One row of the gate table.
struct Gate {
    /// The limit flag.
    flag: &'static str,
    /// The limit when the flag is absent (`None`: the gate is off).
    default: Option<f64>,
    /// Accepted limits, and their description for the usage error.
    valid: fn(f64) -> bool,
    want: &'static str,
    /// Short name in skip warnings ("skipping the accuracy gate").
    name: &'static str,
    /// Report-line label; a non-empty subject is appended in backticks.
    title: &'static str,
    /// What a manifest lacking the data lacks, per subject.
    needs: fn(&str) -> String,
    /// The subjects checked, from the parsed flags and current manifest.
    subjects: fn(&Args, &RunManifest) -> Vec<String>,
    current: Read,
    bound: Bound,
    worse: Worse,
    /// Formats a value of the quantity.
    show: fn(f64) -> String,
    /// Extra report lines when the gate fails for a subject.
    blame: Option<fn(&RunManifest, &str)>,
}

const MIB: f64 = 1024.0 * 1024.0;

/// Every gate, in evaluation order.
const GATES: [Gate; 7] = [
    Gate {
        flag: "--max-regression",
        default: Some(0.30),
        valid: |r| (0.0..1.0).contains(&r),
        want: "0.0..1.0",
        name: "throughput",
        title: "simulator throughput",
        needs: |_| "simulator throughput".to_owned(),
        subjects: run_wide,
        current: |m, _| Some(m.sim_instr_per_sec()),
        bound: Bound::Relative(|m, _| Some(m.sim_instr_per_sec())),
        worse: Worse::Lower,
        show: |v| format!("{v:.0} instr/s"),
        blame: None,
    },
    Gate {
        flag: "--max-accuracy-drop",
        default: None,
        valid: |r| (0.0..=1.0).contains(&r),
        want: "0.0..=1.0",
        name: "accuracy",
        title: "effective accuracy",
        needs: |_| "predictor.speculated* counters".to_owned(),
        subjects: run_wide,
        current: effective_accuracy,
        bound: Bound::Absolute(effective_accuracy),
        worse: Worse::Lower,
        show: |v| format!("{:.2}%", 100.0 * v),
        blame: Some(blame_accuracy),
    },
    Gate {
        flag: "--max-peak-rss-regression",
        default: None,
        valid: |r| r >= 0.0,
        want: ">= 0.0",
        name: "peak-RSS",
        title: "peak RSS",
        needs: |_| "peak RSS (peak_rss_bytes)".to_owned(),
        subjects: run_wide,
        current: peak_rss,
        bound: Bound::Relative(peak_rss),
        worse: Worse::Higher,
        show: |v| format!("{:.1} MiB", v / MIB),
        blame: None,
    },
    Gate {
        flag: "--max-matrix-passes-per-trace",
        default: None,
        valid: |n| n >= 1.0 && n.fract() == 0.0,
        want: ">= 1",
        name: "matrix-pass",
        title: "matrix passes per swept trace",
        needs: |_| {
            "replay.matrix_passes / replay.matrix_traces counters (or swept no traces)".to_owned()
        },
        subjects: run_wide,
        current: matrix_passes_per_trace,
        bound: Bound::Fixed,
        worse: Worse::Higher,
        show: |v| format!("{v:.2}"),
        blame: None,
    },
    Gate {
        flag: "--max-ilp-passes-per-trace",
        default: None,
        valid: |n| n >= 1.0 && n.fract() == 0.0,
        want: ">= 1",
        name: "ilp-pass",
        title: "ILP lane passes per traced workload",
        needs: |_| "ilp.lane_passes / ilp.traces counters (or ran no ILP model)".to_owned(),
        subjects: run_wide,
        current: ilp_passes_per_trace,
        bound: Bound::Fixed,
        worse: Worse::Higher,
        show: |v| format!("{v:.2}"),
        blame: None,
    },
    Gate {
        flag: "--max-phase-share-regression",
        default: None,
        valid: |r| (0.0..=1.0).contains(&r),
        want: "0.0..=1.0",
        name: "phase-share",
        title: "phase-share of",
        needs: |_| "profile section".to_owned(),
        // Every profiled phase; a run without a profile gets one
        // subject, which reads as missing.
        subjects: |_, m| {
            m.profile.as_ref().map_or_else(
                || vec![String::new()],
                |p| p.phases.iter().map(|ph| ph.path.clone()).collect(),
            )
        },
        current: |m, path| {
            let profile = m.profile.as_ref()?;
            let phase = profile.phases.iter().find(|p| p.path == path)?;
            Some(phase.total_share)
        },
        bound: Bound::Absolute(|m, path| {
            let profile = m.profile.as_ref()?;
            let phase = profile.phases.iter().find(|p| p.path == path);
            Some(phase.map_or(0.0, |p| p.total_share))
        }),
        worse: Worse::Higher,
        show: |v| format!("{:.1}%", 100.0 * v),
        blame: Some(|m, path| {
            if let Some(stack) = hottest_stack_under(m, path) {
                println!("metrics-check: blame hottest stack `{stack}`");
            }
        }),
    },
    Gate {
        flag: "--max-phase-regression",
        default: Some(0.25),
        valid: |r| r >= 0.0,
        want: ">= 0.0",
        name: "phase",
        title: "phase",
        needs: |path| format!("phase `{path}`"),
        subjects: |args, _| args.phases.clone(),
        current: phase_ms,
        bound: Bound::Relative(phase_ms),
        worse: Worse::Higher,
        show: |v| format!("{v:.2} ms"),
        blame: None,
    },
];

fn run_wide(_: &Args, _: &RunManifest) -> Vec<String> {
    vec![String::new()]
}

fn phase_ms(m: &RunManifest, path: &str) -> Option<f64> {
    m.phases.iter().find(|p| p.path == path).map(|p| p.total_ms)
}

/// Run-wide effective prediction accuracy (`None` when the run recorded
/// no speculated predictions).
fn effective_accuracy(m: &RunManifest, _: &str) -> Option<f64> {
    let speculated = *m.counters.get("predictor.speculated")?;
    let correct = *m.counters.get("predictor.speculated_correct")?;
    (speculated > 0).then(|| correct as f64 / speculated as f64)
}

/// The run's peak RSS (`None` when the platform could not read it).
fn peak_rss(m: &RunManifest, _: &str) -> Option<f64> {
    (m.peak_rss_bytes > 0).then_some(m.peak_rss_bytes as f64)
}

/// Fused-sweep passes per distinct swept trace (`None` when the counters
/// are absent or the run swept no traces).
fn matrix_passes_per_trace(m: &RunManifest, _: &str) -> Option<f64> {
    per_trace(m, "replay.matrix_passes", "replay.matrix_traces")
}

/// ILP lane passes per distinct workload trace the lanes read (`None`
/// when the counters are absent or the run modelled no ILP).
fn ilp_passes_per_trace(m: &RunManifest, _: &str) -> Option<f64> {
    per_trace(m, "ilp.lane_passes", "ilp.traces")
}

fn per_trace(m: &RunManifest, passes: &str, traces: &str) -> Option<f64> {
    let passes = *m.counters.get(passes)?;
    let traces = *m.counters.get(traces)?;
    (traces > 0).then(|| passes as f64 / traces as f64)
}

/// Prints per-PC blame lines for an accuracy regression from the current
/// manifest's attribution array.
fn blame_accuracy(current: &RunManifest, _: &str) {
    if current.attribution.is_empty() {
        println!(
            "metrics-check: no attribution in the manifest; rerun with --attribution \
             to blame specific PCs"
        );
        return;
    }
    let mut rows: Vec<(&vp_obs::AttributionRun, &vp_obs::AttributionPc)> = current
        .attribution
        .iter()
        .flat_map(|run| run.pcs.iter().map(move |pc| (run, pc)))
        .collect();
    rows.sort_by(|(_, a), (_, b)| {
        b.speculated_incorrect()
            .cmp(&a.speculated_incorrect())
            .then_with(|| a.pc.cmp(&b.pc))
    });
    for (run, pc) in rows.iter().take(5) {
        let cause = pc.dominant_cause().unwrap_or("-");
        let drift = pc
            .drift
            .map_or_else(|| "-".to_owned(), |d| format!("{:+.1}pp", d * 100.0));
        println!(
            "metrics-check: blame {} @{} [{}]  {} wrong speculations, cause {cause}, drift {drift}",
            run.label(),
            pc.pc,
            pc.directive,
            pc.speculated_incorrect(),
        );
    }
}

/// The hot stack with the most self time whose frames start with the
/// phase path (stacks are `;`-joined, phase paths `/`-joined).
fn hottest_stack_under(m: &RunManifest, phase_path: &str) -> Option<String> {
    let prefix: Vec<&str> = phase_path.split('/').collect();
    m.profile
        .as_ref()?
        .hot_stacks
        .iter()
        .filter(|h| {
            let frames: Vec<&str> = h.stack.split(';').collect();
            frames.len() >= prefix.len() && frames[..prefix.len()] == prefix[..]
        })
        .max_by(|a, b| a.us.cmp(&b.us).then_with(|| b.stack.cmp(&a.stack)))
        .map(|h| h.stack.clone())
}

struct Args {
    manifest: PathBuf,
    baseline: PathBuf,
    phases: Vec<String>,
    /// One limit per [`GATES`] row (`None`: the gate is off).
    limits: Vec<Option<f64>>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut manifest, mut baseline, mut phases) = (None, None, Vec::new());
    let mut limits: Vec<Option<f64>> = GATES.iter().map(|g| g.default).collect();
    for arg in provp_bench::args::normalize(args, &[])? {
        let (flag, value) = arg.split_once('=').unwrap_or((&arg, ""));
        match flag {
            "--manifest" => manifest = Some(PathBuf::from(value)),
            "--baseline" => baseline = Some(PathBuf::from(value)),
            "--phase" if value.is_empty() => return Err("empty --phase path".to_owned()),
            "--phase" => phases.push(value.to_owned()),
            _ => {
                let Some(i) = GATES.iter().position(|g| g.flag == flag) else {
                    let flags: Vec<String> = GATES.iter().map(|g| format!("{}=", g.flag)).collect();
                    return Err(format!(
                        "unknown argument `{arg}` (try --manifest=, --baseline=, --phase=, {})",
                        flags.join(", ")
                    ));
                };
                let gate = &GATES[i];
                limits[i] = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&l| (gate.valid)(l))
                        .ok_or_else(|| {
                            format!("bad {flag} value `{value}` (want {})", gate.want)
                        })?,
                );
            }
        }
    }
    Ok(Args {
        manifest: manifest.ok_or("missing --manifest=FILE")?,
        baseline: baseline.ok_or("missing --baseline=FILE")?,
        phases,
        limits,
    })
}

/// Evaluates every enabled gate; the exit code (0 pass, 1 regression,
/// 2 current manifest lacks gated data).
fn run_gates(args: &Args, baseline: &RunManifest, current: &RunManifest) -> u8 {
    let mut failed = false;
    let mut warned = BTreeSet::new();
    for (gate, limit) in GATES.iter().zip(&args.limits) {
        let Some(limit) = *limit else { continue };
        for subject in (gate.subjects)(args, current) {
            let label = if subject.is_empty() {
                gate.title.to_owned()
            } else {
                format!("{} `{subject}`", gate.title)
            };
            let Some(cur) = (gate.current)(current, &subject) else {
                obs_error!(
                    "{} given but the current manifest {:?} records no {}",
                    gate.flag,
                    args.manifest,
                    (gate.needs)(&subject)
                );
                return 2;
            };
            let base = match gate.bound {
                Bound::Fixed => None,
                Bound::Relative(read) => read(baseline, &subject).filter(|&b| b > 0.0),
                Bound::Absolute(read) => read(baseline, &subject),
            };
            let sign = match gate.worse {
                Worse::Lower => -1.0,
                Worse::Higher => 1.0,
            };
            let (bound, moved, limit_text) = match (&gate.bound, base) {
                (Bound::Fixed, _) => (
                    limit,
                    format!("to {}", (gate.show)(cur)),
                    format!("{limit}"),
                ),
                (Bound::Relative(_), Some(b)) => (
                    b * (1.0 + sign * limit),
                    format!("{:.1}%", 100.0 * (cur / b - 1.0).abs()),
                    format!("{:.0}%", 100.0 * limit),
                ),
                (Bound::Absolute(_), Some(b)) => (
                    b + sign * limit,
                    format!("{:.2}pp", 100.0 * (cur - b).abs()),
                    format!("{:.2}pp", 100.0 * limit),
                ),
                (_, None) => {
                    let msg = format!(
                        "baseline records no {}; skipping the {} gate (refresh \
                         BENCH_baseline.json to re-arm it)",
                        (gate.needs)(&subject),
                        gate.name
                    );
                    if warned.insert(msg.clone()) {
                        obs_warn!("{msg}");
                    }
                    continue;
                }
            };
            let side = match gate.worse {
                Worse::Lower => "floor",
                Worse::Higher => "ceiling",
            };
            match base {
                Some(b) => println!(
                    "metrics-check: {label} {} vs baseline {} ({side} {}, limit {limit_text})",
                    (gate.show)(cur),
                    (gate.show)(b),
                    (gate.show)(bound)
                ),
                None => println!(
                    "metrics-check: {label} {} (limit {limit_text})",
                    (gate.show)(cur)
                ),
            }
            if sign * (cur - bound) > 0.0 {
                obs_error!("{label} regressed {moved} (limit {limit_text})");
                if let Some(blame) = gate.blame {
                    blame(current, &subject);
                }
                failed = true;
            }
        }
    }
    u8::from(failed)
}

/// Why a manifest could not be used (each maps to a distinct exit code,
/// so CI can tell "fix the baseline" from "fix the regression").
#[derive(Debug, PartialEq)]
enum LoadError {
    /// The file could not be read (missing, unreadable).
    Missing(String),
    /// The file was read but is not a valid manifest.
    Unparsable(String),
}

fn load(path: &std::path::Path, what: &str) -> Result<RunManifest, LoadError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LoadError::Missing(format!("cannot read {what}{path:?}: {e}")))?;
    RunManifest::parse(text.trim_end())
        .map_err(|e| LoadError::Unparsable(format!("cannot parse {what}{path:?}: {e}")))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let current = match load(&args.manifest, "") {
        Ok(c) => c,
        Err(LoadError::Missing(msg) | LoadError::Unparsable(msg)) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let baseline = match load(&args.baseline, "baseline ") {
        Ok(b) => b,
        Err(LoadError::Missing(msg)) => {
            obs_warn!("{msg}; the gates cannot run (exit 3)");
            return ExitCode::from(3);
        }
        Err(LoadError::Unparsable(msg)) => {
            obs_warn!("{msg}; refresh BENCH_baseline.json (exit 4)");
            return ExitCode::from(4);
        }
    };
    ExitCode::from(run_gates(&args, &baseline, &current))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(extra: &[&str]) -> Result<Args, String> {
        let mut all = vec!["--manifest=m".to_owned(), "--baseline=b".to_owned()];
        all.extend(extra.iter().map(|s| (*s).to_owned()));
        parse_args(all)
    }

    fn limit(a: &Args, flag: &str) -> Option<f64> {
        let i = GATES.iter().position(|g| g.flag == flag).unwrap();
        a.limits[i]
    }

    fn manifest() -> RunManifest {
        RunManifest {
            bin: "x".to_owned(),
            ..RunManifest::default()
        }
    }

    #[test]
    fn parses_and_validates_flags() {
        let a = parse_args([
            "--manifest=/tmp/m.json".to_owned(),
            "--baseline=b.json".to_owned(),
            "--max-regression=0.5".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.manifest, PathBuf::from("/tmp/m.json"));
        assert_eq!(limit(&a, "--max-regression"), Some(0.5));
        assert!(a.phases.is_empty());
        assert_eq!(limit(&a, "--max-phase-regression"), Some(0.25));
        assert!(parse_args(["--manifest=m".to_owned()]).is_err());
        assert!(args(&["--max-regression=2"]).is_err());
        assert!(args(&["--frobnicate=1"]).is_err());
        // Every gate flag is spelled exactly once.
        let flags: BTreeSet<&str> = GATES.iter().map(|g| g.flag).collect();
        assert_eq!(flags.len(), GATES.len());
    }

    #[test]
    fn missing_baseline_is_distinguished_from_unparsable() {
        let dir = std::env::temp_dir().join(format!("metrics-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file -> Missing (exit 3 path).
        let err = load(&dir.join("nope.json"), "baseline ").unwrap_err();
        assert!(matches!(err, LoadError::Missing(_)), "{err:?}");

        // Present but garbage -> Unparsable (exit 4 path).
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not a manifest").unwrap();
        let err = load(&bad, "baseline ").unwrap_err();
        assert!(matches!(err, LoadError::Unparsable(_)), "{err:?}");

        // A valid manifest loads fine through the same path.
        let good = dir.join("good.json");
        std::fs::write(&good, manifest().to_json()).unwrap();
        assert_eq!(load(&good, "baseline ").unwrap(), manifest());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accuracy_gate_flag_and_counters() {
        // Space-separated form.
        let a = args(&["--max-accuracy-drop", "0.01"]).unwrap();
        assert_eq!(limit(&a, "--max-accuracy-drop"), Some(0.01));
        assert_eq!(limit(&args(&[]).unwrap(), "--max-accuracy-drop"), None);
        assert!(args(&["--max-accuracy-drop=2"]).is_err());

        let mut m = manifest();
        assert_eq!(effective_accuracy(&m, ""), None);
        m.counters.insert("predictor.speculated".to_owned(), 200);
        m.counters
            .insert("predictor.speculated_correct".to_owned(), 150);
        assert_eq!(effective_accuracy(&m, ""), Some(0.75));
    }

    fn profiled(phases: &[(&str, f64)], stacks: &[(&str, u64)]) -> RunManifest {
        let mut m = manifest();
        m.profile = Some(vp_obs::ProfileSection {
            total_us: stacks.iter().map(|(_, us)| us).sum(),
            threads: 1,
            hot_stacks: stacks
                .iter()
                .map(|(s, us)| vp_obs::HotStack {
                    stack: (*s).to_owned(),
                    us: *us,
                    share: 0.0,
                })
                .collect(),
            phases: phases
                .iter()
                .map(|(p, share)| vp_obs::PhaseShare {
                    path: (*p).to_owned(),
                    self_share: *share,
                    total_share: *share,
                })
                .collect(),
        });
        m
    }

    #[test]
    fn phase_share_gate_blames_the_phase_that_grew() {
        // `run/profile` went from 12% to 31% of the profile while
        // everything else shrank.
        let base = profiled(&[("run", 1.0), ("run/profile", 0.12)], &[]);
        let cur = profiled(
            &[("run", 1.0), ("run/profile", 0.31)],
            &[
                ("run;predict", 40),
                ("run;profile;merge", 25),
                ("run;profile", 6),
            ],
        );
        let gate = |limit: &str| {
            run_gates(
                &args(&[&format!("--max-phase-share-regression={limit}")]).unwrap(),
                &base,
                &cur,
            )
        };
        assert_eq!(gate("0.15"), 1);
        assert_eq!(gate("0.25"), 0, "within bounds");
        assert_eq!(
            hottest_stack_under(&cur, "run/profile").as_deref(),
            Some("run;profile;merge"),
            "the hottest stack *under* the guilty phase must be named"
        );
    }

    #[test]
    fn phase_share_gate_counts_new_phases_from_zero() {
        let base = profiled(&[("run", 1.0)], &[]);
        let cur = profiled(&[("run", 1.0), ("run/surprise", 0.2)], &[("other", 1)]);
        let a = args(&["--max-phase-share-regression=0.1"]).unwrap();
        assert_eq!(run_gates(&a, &base, &cur), 1);
        // No hot stack lives under the new phase: blame stays honest.
        assert_eq!(hottest_stack_under(&cur, "run/surprise"), None);
        // A baseline without any profile skips the gate instead.
        assert_eq!(run_gates(&a, &manifest(), &cur), 0);
        // A current manifest without one is a usage error.
        assert_eq!(run_gates(&a, &base, &manifest()), 2);
    }

    #[test]
    fn parses_phase_share_flag() {
        let a = args(&["--max-phase-share-regression=0.15"]).unwrap();
        assert_eq!(limit(&a, "--max-phase-share-regression"), Some(0.15));
        assert_eq!(
            limit(&args(&[]).unwrap(), "--max-phase-share-regression"),
            None
        );
        assert!(args(&["--max-phase-share-regression=1.5"]).is_err());
    }

    #[test]
    fn matrix_pass_gate_flag_and_counters() {
        // Space-separated form.
        let a = args(&["--max-matrix-passes-per-trace", "1"]).unwrap();
        assert_eq!(limit(&a, "--max-matrix-passes-per-trace"), Some(1.0));
        assert_eq!(
            limit(&args(&[]).unwrap(), "--max-matrix-passes-per-trace"),
            None
        );
        assert!(args(&["--max-matrix-passes-per-trace=0"]).is_err());
        assert!(args(&["--max-matrix-passes-per-trace=1.5"]).is_err());
        assert!(args(&["--max-matrix-passes-per-trace=lots"]).is_err());

        let mut m = manifest();
        // Counters absent -> the gate cannot judge the run.
        assert_eq!(matrix_passes_per_trace(&m, ""), None);
        m.counters.insert("replay.matrix_passes".to_owned(), 18);
        assert_eq!(matrix_passes_per_trace(&m, ""), None);
        // Counters present but no trace swept -> still unjudgeable.
        m.counters.insert("replay.matrix_traces".to_owned(), 0);
        assert_eq!(matrix_passes_per_trace(&m, ""), None);
        m.counters.insert("replay.matrix_traces".to_owned(), 9);
        assert_eq!(matrix_passes_per_trace(&m, ""), Some(2.0));
    }

    #[test]
    fn ilp_pass_gate_flag_and_counters() {
        let a = args(&["--max-ilp-passes-per-trace", "1"]).unwrap();
        assert_eq!(limit(&a, "--max-ilp-passes-per-trace"), Some(1.0));
        assert_eq!(
            limit(&args(&[]).unwrap(), "--max-ilp-passes-per-trace"),
            None
        );
        assert!(args(&["--max-ilp-passes-per-trace=0"]).is_err());
        assert!(args(&["--max-ilp-passes-per-trace=1.5"]).is_err());
        assert!(args(&["--max-ilp-passes-per-trace=lots"]).is_err());

        let mut m = manifest();
        // Counters absent -> the gate cannot judge the run.
        assert_eq!(ilp_passes_per_trace(&m, ""), None);
        m.counters.insert("ilp.lane_passes".to_owned(), 63);
        assert_eq!(ilp_passes_per_trace(&m, ""), None);
        // Counters present but no trace modelled -> still unjudgeable.
        m.counters.insert("ilp.traces".to_owned(), 0);
        assert_eq!(ilp_passes_per_trace(&m, ""), None);
        m.counters.insert("ilp.traces".to_owned(), 9);
        assert_eq!(ilp_passes_per_trace(&m, ""), Some(7.0));
    }

    #[test]
    fn peak_rss_gate_flag_and_readings() {
        // Space-separated form.
        let a = args(&["--max-peak-rss-regression", "0.25"]).unwrap();
        assert_eq!(limit(&a, "--max-peak-rss-regression"), Some(0.25));
        assert_eq!(
            limit(&args(&[]).unwrap(), "--max-peak-rss-regression"),
            None
        );
        assert!(args(&["--max-peak-rss-regression=-0.1"]).is_err());

        let mut m = manifest();
        // Not recorded (0) -> the gate cannot judge the run.
        assert_eq!(peak_rss(&m, ""), None);
        m.peak_rss_bytes = 64 << 20;
        assert_eq!(peak_rss(&m, ""), Some(f64::from(64u32 << 20)));
    }

    #[test]
    fn parses_phase_gates() {
        let a = args(&[
            "--phase=repro-all/classification/predict",
            "--phase=repro-all/finite_table/predict",
            "--max-phase-regression=0.4",
        ])
        .unwrap();
        assert_eq!(
            a.phases,
            vec![
                "repro-all/classification/predict".to_owned(),
                "repro-all/finite_table/predict".to_owned()
            ]
        );
        assert_eq!(limit(&a, "--max-phase-regression"), Some(0.4));
        assert!(args(&["--phase="]).is_err());
        assert!(args(&["--max-phase-regression=-1"]).is_err());
    }
}
