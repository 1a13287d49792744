//! Guards the observability layer's central contract: requesting a run
//! manifest must not perturb experiment output. Runs the real `repro-all`
//! binary with and without observability flags (`--metrics-out`,
//! `--sample-ms`, `--attribution`, `--profile-out`) and asserts stdout
//! is byte-identical, then sanity-checks the emitted manifest, the
//! time-series samples, the per-PC attribution layer (deterministic
//! across `--jobs`, totals reconciling exactly with the predictor
//! counters), the span self-time profile's folded/manifest exports, and
//! the
//! `manifest-diff` / `attribution-report` reporting tools.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use vp_obs::json::Json;
use vp_obs::{RunManifest, SCHEMA_V5};

const ARGS: &[&str] = &["--workloads=compress,ijpeg", "--train-runs=2", "--jobs=2"];

fn run_repro_all(extra: &[String]) -> std::process::Output {
    let exe = env!("CARGO_BIN_EXE_repro-all");
    Command::new(exe)
        .args(ARGS)
        .args(extra)
        .output()
        .expect("repro-all runs")
}

#[test]
fn metrics_out_leaves_stdout_byte_identical() {
    let manifest_path =
        std::env::temp_dir().join(format!("provp-metrics-golden-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest_path);

    let plain = run_repro_all(&[]);
    let instrumented = run_repro_all(&[format!("--metrics-out={}", manifest_path.display())]);

    assert!(plain.status.success(), "plain run failed");
    assert!(instrumented.status.success(), "instrumented run failed");
    assert_eq!(
        plain.stdout, instrumented.stdout,
        "--metrics-out must not change experiment stdout"
    );
    assert!(
        plain.stderr.is_empty(),
        "plain run must not write to stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let manifest = parse_manifest(&manifest_path);
    std::fs::remove_file(&manifest_path).unwrap();

    // The manifest must actually describe this run.
    assert_eq!(manifest.bin, "repro-all");
    assert!(manifest.wall_ms > 0.0);
    assert!(manifest.peak_rss_bytes > 0, "peak RSS must be captured");
    assert!(
        manifest
            .args
            .iter()
            .any(|a| a.starts_with("--metrics-out=")),
        "argv recorded"
    );

    // Phase rows: the root span plus one row per repro-all experiment.
    let has_phase = |p: &str| manifest.phases.iter().any(|e| e.path == p);
    assert!(has_phase("repro-all"), "root span present");
    for sub in [
        "table_2_1",
        "fig_2_2",
        "fig_2_3",
        "fig_4",
        "classification",
        "table_5_1",
        "finite_table",
        "table_5_2",
    ] {
        assert!(
            has_phase(&format!("repro-all/{sub}")),
            "missing phase row repro-all/{sub}"
        );
    }
    // Suite phases nest under their experiment (profiling happens under
    // the first experiment that needs each image).
    assert!(
        manifest.phases.iter().any(|e| e.path.ends_with("/profile")),
        "profile spans must nest under experiments"
    );

    // Counters: simulator throughput and trace-store behaviour.
    let counter = |k: &str| manifest.counters.get(k).copied().unwrap_or(0);
    assert!(counter("sim.runs") > 0);
    assert!(counter("sim.instructions") > 0);
    assert!(counter("sim.wall_ns") > 0);
    assert!(manifest.sim_instr_per_sec() > 0.0);
    // Trace captures: every recorded event was a simulated instruction.
    assert!(counter("record.events") > 0);
    assert!(counter("record.events") <= counter("sim.instructions"));
    assert!(manifest.record_ns_per_event() > 0.0);
    assert!(counter("trace_store.requests") > 0);
    assert_eq!(
        counter("trace_store.memory_hits") + counter("trace_store.misses"),
        counter("trace_store.requests"),
        "trace-store snapshot must balance"
    );
    assert!(manifest.trace_hit_rate() > 0.0, "experiments share traces");
    assert!(counter("predictor.accesses") > 0);
    assert!(
        manifest.gauges.get("predictor.occupancy.max").copied() > Some(0),
        "table occupancy observed"
    );
    // Without --attribution the manifest carries no attribution array.
    assert!(manifest.attribution.is_empty(), "attribution is opt-in");
}

fn parse_manifest(path: &Path) -> RunManifest {
    let text = std::fs::read_to_string(path).expect("manifest written");
    assert!(text.ends_with('\n'), "manifest ends with newline");
    // Every manifest is written under the one schema, flags or not.
    assert!(
        text.contains(&format!(r#""schema":"{SCHEMA_V5}""#)),
        "manifest is written as {SCHEMA_V5}"
    );
    RunManifest::parse(text.trim_end()).expect("manifest parses")
}

/// Sampled observability run: `--sample-ms` + `--metrics-out` together
/// must still leave experiment stdout byte-identical, while producing a
/// manifest whose time series is internally consistent.
#[test]
fn samples_leave_stdout_byte_identical() {
    let pid = std::process::id();
    let manifest_path = std::env::temp_dir().join(format!("provp-samples-golden-{pid}.json"));
    let _ = std::fs::remove_file(&manifest_path);

    let plain = run_repro_all(&[]);
    let instrumented = run_repro_all(&[
        format!("--metrics-out={}", manifest_path.display()),
        "--sample-ms=25".to_owned(),
    ]);

    assert!(plain.status.success(), "plain run failed");
    assert!(instrumented.status.success(), "instrumented run failed");
    assert_eq!(
        plain.stdout, instrumented.stdout,
        "--sample-ms must not change experiment stdout"
    );

    // -- manifest with an internally consistent time series --
    let manifest = parse_manifest(&manifest_path);
    std::fs::remove_file(&manifest_path).unwrap();
    assert!(
        manifest.samples.len() >= 2,
        "immediate + final samples guarantee >= 2 points, got {}",
        manifest.samples.len()
    );
    let counter = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
    for s in &manifest.samples {
        assert_eq!(
            counter(&s.counters, "trace_store.memory_hits")
                + counter(&s.counters, "trace_store.misses"),
            counter(&s.counters, "trace_store.requests"),
            "mid-run sample at t={}ms must balance (lock-consistent hook)",
            s.t_ms
        );
    }
    for pair in manifest.samples.windows(2) {
        assert!(
            pair[0].t_ms <= pair[1].t_ms,
            "sample series must be monotone"
        );
        assert!(
            counter(&pair[0].counters, "trace_store.requests")
                <= counter(&pair[1].counters, "trace_store.requests"),
            "monotone counters must not go backwards across samples"
        );
    }
}

/// The per-PC attribution layer end to end: `--attribution` must leave
/// experiment stdout byte-identical, add the manifest's `attribution`
/// array, produce attribution tables that are byte-identical between `--jobs=1`
/// and `--jobs=2` (worker-order determinism), reconcile exactly with the
/// aggregate predictor counters, and render through `attribution-report`
/// as markdown.
#[test]
fn attribution_is_deterministic_and_reconciles() {
    let pid = std::process::id();
    let path_j2 = std::env::temp_dir().join(format!("provp-attr-golden-j2-{pid}.json"));
    let path_j1 = std::env::temp_dir().join(format!("provp-attr-golden-j1-{pid}.json"));
    let _ = std::fs::remove_file(&path_j2);
    let _ = std::fs::remove_file(&path_j1);

    let plain = run_repro_all(&[]);
    let attributed = run_repro_all(&[
        "--attribution".to_owned(),
        format!("--metrics-out={}", path_j2.display()),
    ]);
    // --jobs=1 overrides the baseline --jobs=2 (later flag wins).
    let serial = run_repro_all(&[
        "--jobs=1".to_owned(),
        "--attribution".to_owned(),
        format!("--metrics-out={}", path_j1.display()),
    ]);

    assert!(plain.status.success() && attributed.status.success() && serial.status.success());
    assert_eq!(
        plain.stdout, attributed.stdout,
        "--attribution must not change experiment stdout"
    );
    assert_eq!(
        plain.stdout, serial.stdout,
        "stdout must stay byte-identical at any job count"
    );

    let m2 = parse_manifest(&path_j2);
    let m1 = parse_manifest(&path_j1);
    std::fs::remove_file(&path_j1).unwrap();

    assert!(!m2.attribution.is_empty(), "attribution collected");

    // Worker-order determinism: the attribution arrays at jobs=1 and
    // jobs=2 must be byte-identical (same runs, same order, same
    // counts, same drift), even though wall times differ.
    let render = |m: &RunManifest| {
        Json::Arr(m.attribution.iter().map(|r| r.to_json()).collect()).to_string()
    };
    assert_eq!(
        render(&m1),
        render(&m2),
        "attribution must be bit-identical across --jobs"
    );

    // Exact reconciliation with the aggregate predictor counters: the
    // per-run totals sum to the run-wide counters, and every raw miss is
    // charged to exactly one cause.
    let counter = |k: &str| m2.counters.get(k).copied().unwrap_or(0);
    let sum = |f: fn(&vp_obs::AttributionTotals) -> u64| {
        m2.attribution.iter().map(|r| f(&r.totals)).sum::<u64>()
    };
    assert_eq!(sum(|t| t.accesses), counter("predictor.accesses"));
    assert_eq!(sum(|t| t.hits), counter("predictor.hits"));
    assert_eq!(sum(|t| t.raw_correct), counter("predictor.raw_correct"));
    assert_eq!(sum(|t| t.speculated), counter("predictor.speculated"));
    assert_eq!(
        sum(|t| t.speculated_correct),
        counter("predictor.speculated_correct")
    );
    for run in &m2.attribution {
        assert_eq!(
            run.totals.causes.values().sum::<u64>(),
            run.totals.accesses - run.totals.raw_correct,
            "{}: every raw miss charged to exactly one cause",
            run.label()
        );
        for pc in &run.pcs {
            assert_eq!(
                pc.causes.values().sum::<u64>(),
                pc.accesses - pc.raw_correct,
                "{} @{}: per-PC causes must partition the misses",
                run.label(),
                pc.pc
            );
        }
    }
    // Profile-guided runs must carry drift for profiled PCs.
    assert!(
        m2.attribution
            .iter()
            .filter(|r| r.threshold.is_some())
            .any(|r| r.pcs.iter().any(|pc| pc.drift.is_some())),
        "profile-guided runs must report drift"
    );

    // -- attribution-report golden --
    let report = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_attribution-report"))
            .arg(format!("--manifest={}", path_j2.display()))
            .args(extra)
            .output()
            .expect("attribution-report runs");
        assert!(out.status.success(), "attribution-report failed");
        String::from_utf8(out.stdout).unwrap()
    };
    let md = report(&["--top=10"]);
    assert_eq!(
        md.matches("### Attribution: `").count(),
        m2.attribution.len(),
        "markdown report renders every run:\n{md}"
    );
    assert_eq!(
        md.matches("\ncauses: ").count(),
        m2.attribution.len(),
        "every run carries its causes line:\n{md}"
    );
    // One format: the flag that chose between three is gone.
    for format in ["--format=markdown", "--format=json"] {
        let gone = Command::new(env!("CARGO_BIN_EXE_attribution-report"))
            .arg(format!("--manifest={}", path_j2.display()))
            .arg(format)
            .output()
            .expect("attribution-report runs");
        assert_eq!(gone.status.code(), Some(2), "{format} exits 2");
    }
    // Usage errors exit 2.
    let usage = Command::new(env!("CARGO_BIN_EXE_attribution-report"))
        .output()
        .expect("attribution-report runs");
    assert_eq!(usage.status.code(), Some(2), "missing --manifest exits 2");

    std::fs::remove_file(&path_j2).unwrap();
}

/// The span self-time profile end to end: `--profile-out`/`--metrics-out`
/// must leave experiment stdout byte-identical, the manifest must carry
/// an internally consistent `profile` section, and the collapsed-stack
/// file must parse back to the section's total and nothing next to it.
#[test]
fn profiler_leaves_stdout_byte_identical() {
    let pid = std::process::id();
    let manifest_path = std::env::temp_dir().join(format!("provp-prof-golden-{pid}.json"));
    let folded_path = std::env::temp_dir().join(format!("provp-prof-golden-{pid}.folded"));
    let svg_path = folded_path.with_extension("svg");
    let _ = std::fs::remove_file(&manifest_path);
    let _ = std::fs::remove_file(&folded_path);
    let _ = std::fs::remove_file(&svg_path);

    let plain = run_repro_all(&[]);
    let profiled = run_repro_all(&[
        format!("--profile-out={}", folded_path.display()),
        format!("--metrics-out={}", manifest_path.display()),
    ]);

    assert!(plain.status.success(), "plain run failed");
    assert!(profiled.status.success(), "profiled run failed");
    assert_eq!(
        plain.stdout, profiled.stdout,
        "--profile-out/--metrics-out must not change experiment stdout"
    );

    // -- manifest with a consistent profile section --
    let manifest = parse_manifest(&manifest_path);
    std::fs::remove_file(&manifest_path).unwrap();
    let profile = manifest.profile.as_ref().expect("profile section present");
    assert!(profile.total_us > 0, "the run's spans recorded self time");
    assert!(profile.threads >= 1);
    assert!(!profile.hot_stacks.is_empty());
    assert!(!profile.phases.is_empty());
    // Every span nests under the root span, and the workers adopt paths
    // below it, so the root phase carries the whole profile.
    let root = profile
        .phases
        .iter()
        .find(|p| p.path == "repro-all")
        .expect("root phase profiled");
    assert!(
        root.total_share > 0.9,
        "root span must dominate the profile, got {}",
        root.total_share
    );
    for p in &profile.phases {
        assert!(
            p.self_share <= p.total_share + 1e-12,
            "{}: self_share may not exceed total_share",
            p.path
        );
    }

    // -- folded output parses back to the section's total --
    let folded_text = std::fs::read_to_string(&folded_path).expect("folded file written");
    std::fs::remove_file(&folded_path).unwrap();
    let folded = vp_obs::Profile::parse_folded(&folded_text).expect("folded file parses");
    assert_eq!(
        folded.values().sum::<u64>(),
        profile.total_us,
        "folded µs must sum to the section's total_us"
    );
    assert!(
        folded.keys().all(|k| k.starts_with("repro-all")),
        "every stack is rooted at the binary's root span"
    );

    assert!(
        !svg_path.exists(),
        "--profile-out writes the folded file only, no side file"
    );
}

/// Golden test for the `manifest-diff` attribution tool: a synthesized
/// regression (one slower phase, one counter swing) must be blamed in
/// its markdown report, with exit code 0 (differences are reported,
/// never an error) and usage errors exiting 2.
#[test]
fn manifest_diff_attributes_synthesized_regression() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("provp-diff-golden-{pid}"));
    std::fs::create_dir_all(&dir).unwrap();

    let mut base = RunManifest {
        bin: "repro-all".to_owned(),
        wall_ms: 1_000.0,
        ..RunManifest::default()
    };
    base.phases.push(vp_obs::manifest::PhaseEntry {
        path: "repro-all/fig_4".to_owned(),
        count: 1,
        total_ms: 100.0,
        min_ms: 100.0,
        max_ms: 100.0,
    });
    base.counters
        .insert("sim.instructions".to_owned(), 1_000_000);
    base.counters
        .insert("sim.wall_ns".to_owned(), 1_000_000_000);
    base.counters.insert("trace_store.requests".to_owned(), 24);

    let mut cur = base.clone();
    cur.wall_ms = 1_400.0;
    cur.phases[0].total_ms = 450.0; // the regression to blame
    cur.counters.insert("sim.wall_ns".to_owned(), 2_000_000_000); // throughput halved
    cur.counters.insert("trace_store.requests".to_owned(), 48);

    let base_path = dir.join("base.json");
    let cur_path = dir.join("cur.json");
    std::fs::write(&base_path, base.to_json()).unwrap();
    std::fs::write(&cur_path, cur.to_json()).unwrap();

    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_manifest-diff"))
            .arg(format!("--baseline={}", base_path.display()))
            .arg(format!("--manifest={}", cur_path.display()))
            .args(extra)
            .output()
            .expect("manifest-diff runs")
    };

    // Markdown, the one format: the slow phase, the moved counters and
    // the derived throughput are attributed.
    let md = run(&[]);
    assert!(md.status.success(), "diff reports, never errors");
    let text = String::from_utf8(md.stdout).unwrap();
    assert!(
        text.starts_with("### Manifest diff"),
        "markdown heading:\n{text}"
    );
    assert!(
        text.contains("| `repro-all/fig_4` | 100.00 | 450.00 | +350.00 |"),
        "blames the slow phase:\n{text}"
    );
    assert!(
        text.contains("| `trace_store.requests` | 24 | 48 | +24 |"),
        "counter swing listed:\n{text}"
    );
    assert!(
        text.contains("| `sim_instr_per_sec` |"),
        "derived throughput shown:\n{text}"
    );

    // The format and row-count knobs are gone.
    for gone in ["--format=markdown", "--format=json", "--top=1"] {
        assert_eq!(run(&[gone]).status.code(), Some(2), "{gone} exits 2");
    }

    // Usage and read errors exit 2.
    let missing = Command::new(env!("CARGO_BIN_EXE_manifest-diff"))
        .arg("--baseline=/nonexistent/base.json")
        .arg(format!("--manifest={}", cur_path.display()))
        .output()
        .expect("manifest-diff runs");
    assert_eq!(missing.status.code(), Some(2), "unreadable input exits 2");
    let usage = Command::new(env!("CARGO_BIN_EXE_manifest-diff"))
        .output()
        .expect("manifest-diff runs");
    assert_eq!(usage.status.code(), Some(2), "missing flags exit 2");

    std::fs::remove_dir_all(&dir).unwrap();
}
