//! Pins the `metrics-check` command line end to end: exit codes 0–4 and,
//! for every gate, the pass / fail / baseline-lacks-data /
//! current-lacks-data outcomes. Each case writes a baseline and a current
//! manifest (built from [`RunManifest`]) into a temp dir, runs the real
//! binary on them, and checks the exit code plus one substring of the
//! combined stdout/stderr.

use std::path::{Path, PathBuf};
use std::process::Command;

use vp_obs::{
    AttributionPc, AttributionRun, AttributionTotals, HotStack, PhaseShare, ProfileSection,
    RunManifest,
};

const MIB: u64 = 1024 * 1024;

/// A manifest carrying the data every gate reads: simulator throughput
/// (1 M instr/s), predictor accuracy (90%), fused-sweep and ILP lane
/// pass counters (one pass per trace each), peak RSS (100 MiB), a `run/sweep` phase
/// (100 ms), a profile with `run/profile` at 12% of its time, and one
/// attributed PC for accuracy blame.
fn full() -> RunManifest {
    let mut m = RunManifest {
        bin: "repro-all".to_owned(),
        wall_ms: 1000.0,
        peak_rss_bytes: 100 * MIB,
        ..RunManifest::default()
    };
    for (key, value) in [
        ("sim.instructions", 1_000_000),
        ("sim.wall_ns", 1_000_000_000),
        ("predictor.speculated", 1_000),
        ("predictor.speculated_correct", 900),
        ("replay.matrix_passes", 9),
        ("replay.matrix_traces", 9),
        ("ilp.lane_passes", 9),
        ("ilp.traces", 9),
    ] {
        m.counters.insert(key.to_owned(), value);
    }
    m.phases.push(vp_obs::manifest::PhaseEntry {
        path: "run/sweep".to_owned(),
        count: 1,
        total_ms: 100.0,
        min_ms: 100.0,
        max_ms: 100.0,
    });
    m.profile = Some(profile(0.12));
    m.attribution = vec![AttributionRun {
        workload: "compress".to_owned(),
        config: "stride".to_owned(),
        threshold: None,
        totals: AttributionTotals::default(),
        pcs: vec![AttributionPc {
            pc: 0x40,
            directive: "stride".to_owned(),
            accesses: 10,
            hits: 10,
            raw_correct: 5,
            speculated: 10,
            speculated_correct: 5,
            causes: std::iter::once(("stride-break".to_owned(), 5)).collect(),
            profiled_accuracy: None,
            drift: None,
        }],
    }];
    m
}

fn profile(profile_share: f64) -> ProfileSection {
    ProfileSection {
        total_us: 100,
        threads: 1,
        hot_stacks: vec![
            HotStack {
                stack: "run;sweep".to_owned(),
                us: 60,
                share: 0.6,
            },
            HotStack {
                stack: "run;profile;merge".to_owned(),
                us: 30,
                share: 0.3,
            },
        ],
        phases: vec![
            PhaseShare {
                path: "run".to_owned(),
                self_share: 0.0,
                total_share: 1.0,
            },
            PhaseShare {
                path: "run/profile".to_owned(),
                self_share: profile_share,
                total_share: profile_share,
            },
        ],
    }
}

fn with(edit: fn(&mut RunManifest)) -> RunManifest {
    let mut m = full();
    edit(&mut m);
    m
}

/// What a case writes as one of its two manifests.
enum Input {
    Manifest(Box<RunManifest>),
    Missing,
    Garbage,
}

fn write_input(path: &Path, input: &Input) {
    match input {
        Input::Manifest(m) => std::fs::write(path, m.to_json()).unwrap(),
        Input::Missing => {}
        Input::Garbage => std::fs::write(path, "{ not a manifest").unwrap(),
    }
}

struct Case {
    name: &'static str,
    flags: &'static [&'static str],
    baseline: Input,
    current: Input,
    code: i32,
    needle: &'static str,
}

fn ok(m: RunManifest) -> Input {
    Input::Manifest(Box::new(m))
}

#[allow(clippy::too_many_lines)]
fn cases() -> Vec<Case> {
    let case = |name, flags, baseline, current, code, needle| Case {
        name,
        flags,
        baseline,
        current,
        code,
        needle,
    };
    vec![
        // --- exit codes ---------------------------------------------------
        case(
            "all eight flags pass",
            &[
                "--max-regression=0.30",
                "--phase=run/sweep",
                "--max-phase-regression=0.50",
                "--max-matrix-passes-per-trace=1",
                "--max-ilp-passes-per-trace=1",
                "--max-accuracy-drop=0.01",
                "--max-phase-share-regression=0.15",
                "--max-peak-rss-regression=0.25",
            ],
            ok(full()),
            ok(full()),
            0,
            "effective accuracy",
        ),
        case(
            "unknown flag is a usage error",
            &["--frobnicate=1"],
            ok(full()),
            ok(full()),
            2,
            "unknown argument",
        ),
        case(
            "out-of-range limit is a usage error",
            &["--max-regression=2"],
            ok(full()),
            ok(full()),
            2,
            "bad --max-regression value",
        ),
        case(
            "missing current manifest",
            &[],
            ok(full()),
            Input::Missing,
            2,
            "cannot read",
        ),
        case(
            "unparsable current manifest",
            &[],
            ok(full()),
            Input::Garbage,
            2,
            "cannot parse",
        ),
        case(
            "missing baseline",
            &[],
            Input::Missing,
            ok(full()),
            3,
            "cannot read baseline",
        ),
        case(
            "unparsable baseline",
            &[],
            Input::Garbage,
            ok(full()),
            4,
            "cannot parse baseline",
        ),
        // --- simulator throughput (always on) -----------------------------
        case(
            "throughput pass",
            &[],
            ok(full()),
            ok(full()),
            0,
            "1000000 instr/s",
        ),
        case(
            "throughput fail",
            &["--max-regression=0.30"],
            ok(full()),
            ok(with(|m| {
                m.counters.insert("sim.wall_ns".to_owned(), 2_000_000_000);
            })),
            1,
            "simulator throughput regressed",
        ),
        case(
            "throughput baseline lacks data",
            &[],
            ok(with(|m| {
                m.counters.remove("sim.instructions");
                m.counters.remove("sim.wall_ns");
            })),
            ok(full()),
            0,
            "baseline records no simulator throughput",
        ),
        case(
            // A run that simulated nothing reads as 0 instr/s: a 100%
            // regression, not missing data.
            "throughput current lacks data",
            &[],
            ok(full()),
            ok(with(|m| {
                m.counters.remove("sim.instructions");
                m.counters.remove("sim.wall_ns");
            })),
            1,
            "simulator throughput regressed 100.0%",
        ),
        // --- per-phase wall time -----------------------------------------
        case(
            "phase pass",
            &["--phase=run/sweep"],
            ok(full()),
            ok(full()),
            0,
            "100.00 ms vs baseline 100.00 ms",
        ),
        case(
            "phase fail",
            &["--phase=run/sweep", "--max-phase-regression=0.25"],
            ok(full()),
            ok(with(|m| m.phases[0].total_ms = 200.0)),
            1,
            "phase `run/sweep` regressed 100.0%",
        ),
        case(
            "phase baseline lacks data",
            &["--phase=run/sweep"],
            ok(with(|m| m.phases.clear())),
            ok(full()),
            0,
            "skipping",
        ),
        case(
            "phase current lacks data",
            &["--phase=run/sweep"],
            ok(full()),
            ok(with(|m| m.phases.clear())),
            2,
            "current manifest",
        ),
        // --- effective accuracy ------------------------------------------
        case(
            "accuracy pass",
            &["--max-accuracy-drop=0.01"],
            ok(full()),
            ok(full()),
            0,
            "effective accuracy 90.00% vs baseline 90.00%",
        ),
        case(
            "accuracy fail blames PCs",
            &["--max-accuracy-drop=0.01"],
            ok(full()),
            ok(with(|m| {
                m.counters
                    .insert("predictor.speculated_correct".to_owned(), 800);
            })),
            1,
            "metrics-check: blame compress/stride @64",
        ),
        case(
            "accuracy baseline lacks data",
            &["--max-accuracy-drop=0.01"],
            ok(with(|m| {
                m.counters.remove("predictor.speculated");
            })),
            ok(full()),
            0,
            "skipping the accuracy gate",
        ),
        case(
            "accuracy current lacks data",
            &["--max-accuracy-drop=0.01"],
            ok(full()),
            ok(with(|m| {
                m.counters.remove("predictor.speculated");
            })),
            2,
            "--max-accuracy-drop given but the current manifest",
        ),
        // --- peak RSS -----------------------------------------------------
        case(
            "peak RSS pass",
            &["--max-peak-rss-regression=0.25"],
            ok(full()),
            ok(full()),
            0,
            "peak RSS 100.0 MiB vs baseline 100.0 MiB",
        ),
        case(
            "peak RSS fail",
            &["--max-peak-rss-regression=0.25"],
            ok(full()),
            ok(with(|m| m.peak_rss_bytes = 150 * MIB)),
            1,
            "peak RSS regressed 50.0%",
        ),
        case(
            "peak RSS baseline lacks data",
            &["--max-peak-rss-regression=0.25"],
            ok(with(|m| m.peak_rss_bytes = 0)),
            ok(full()),
            0,
            "baseline records no peak RSS",
        ),
        case(
            "peak RSS current lacks data",
            &["--max-peak-rss-regression=0.25"],
            ok(full()),
            ok(with(|m| m.peak_rss_bytes = 0)),
            2,
            "--max-peak-rss-regression given but the current manifest",
        ),
        // --- fused-sweep matrix passes -----------------------------------
        case(
            "matrix passes pass",
            &["--max-matrix-passes-per-trace=1"],
            ok(full()),
            ok(full()),
            0,
            "matrix passes",
        ),
        case(
            "matrix passes fail",
            &["--max-matrix-passes-per-trace=1"],
            ok(full()),
            ok(with(|m| {
                m.counters.insert("replay.matrix_passes".to_owned(), 18);
            })),
            1,
            "matrix passes",
        ),
        case(
            // The limit is absolute: the gate never reads the baseline.
            "matrix passes baseline lacks data",
            &["--max-matrix-passes-per-trace=1"],
            ok(with(|m| {
                m.counters.remove("replay.matrix_passes");
                m.counters.remove("replay.matrix_traces");
            })),
            ok(full()),
            0,
            "matrix passes",
        ),
        case(
            "matrix passes current lacks data",
            &["--max-matrix-passes-per-trace=1"],
            ok(full()),
            ok(with(|m| {
                m.counters.remove("replay.matrix_traces");
            })),
            2,
            "--max-matrix-passes-per-trace given but the current manifest",
        ),
        // --- ILP lane passes ---------------------------------------------
        case(
            "ILP passes pass",
            &["--max-ilp-passes-per-trace=1"],
            ok(full()),
            ok(full()),
            0,
            "ILP lane passes",
        ),
        case(
            "ILP passes fail",
            &["--max-ilp-passes-per-trace=1"],
            ok(full()),
            ok(with(|m| {
                m.counters.insert("ilp.lane_passes".to_owned(), 63);
            })),
            1,
            "ILP lane passes",
        ),
        case(
            // The limit is absolute: the gate never reads the baseline.
            "ILP passes baseline lacks data",
            &["--max-ilp-passes-per-trace=1"],
            ok(with(|m| {
                m.counters.remove("ilp.lane_passes");
                m.counters.remove("ilp.traces");
            })),
            ok(full()),
            0,
            "ILP lane passes",
        ),
        case(
            "ILP passes current lacks data",
            &["--max-ilp-passes-per-trace=1"],
            ok(full()),
            ok(with(|m| {
                m.counters.remove("ilp.traces");
            })),
            2,
            "--max-ilp-passes-per-trace given but the current manifest",
        ),
        // --- profiled phase share ----------------------------------------
        case(
            "phase share pass",
            &["--max-phase-share-regression=0.15"],
            ok(full()),
            ok(full()),
            0,
            "phase-share",
        ),
        case(
            "phase share fail blames the hottest stack",
            &["--max-phase-share-regression=0.15"],
            ok(full()),
            ok(with(|m| m.profile = Some(profile(0.31)))),
            1,
            "blame hottest stack `run;profile;merge`",
        ),
        case(
            "phase share baseline lacks data",
            &["--max-phase-share-regression=0.15"],
            ok(with(|m| m.profile = None)),
            ok(full()),
            0,
            "skipping the phase-share gate",
        ),
        case(
            "phase share current lacks data",
            &["--max-phase-share-regression=0.15"],
            ok(full()),
            ok(with(|m| m.profile = None)),
            2,
            "--max-phase-share-regression given but the current manifest",
        ),
    ]
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metrics-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_gate_and_exit_code_is_pinned() {
    let dir = scratch_dir();
    let mut failures = Vec::new();
    for (i, case) in cases().iter().enumerate() {
        let baseline = dir.join(format!("{i}-baseline.json"));
        let current = dir.join(format!("{i}-current.json"));
        let _ = std::fs::remove_file(&baseline);
        let _ = std::fs::remove_file(&current);
        write_input(&baseline, &case.baseline);
        write_input(&current, &case.current);
        let out = Command::new(env!("CARGO_BIN_EXE_metrics-check"))
            .arg(format!("--manifest={}", current.display()))
            .arg(format!("--baseline={}", baseline.display()))
            .args(case.flags)
            .output()
            .expect("metrics-check runs");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        if out.status.code() != Some(case.code) || !text.contains(case.needle) {
            failures.push(format!(
                "{}: want exit {} with `{}`, got {:?}:\n{text}",
                case.name,
                case.code,
                case.needle,
                out.status.code()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
