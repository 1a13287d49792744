//! Attributes the differences between two run manifests: which phases
//! gained wall clock, which counters moved, what happened to derived
//! throughput. The CI pipeline runs this when `metrics-check` fails, so
//! a throughput regression arrives with a blame table instead of a bare
//! exit code.
//!
//! ```text
//! manifest-diff --baseline=BENCH_baseline.json --manifest=/tmp/manifest.json
//! ```
//!
//! The report is GitHub-flavoured Markdown (pipe it into
//! `$GITHUB_STEP_SUMMARY`; it reads as plain text in a log) showing the
//! 15 biggest movers per section. Accepts both flag forms (`--flag=V`
//! and `--flag V`). Per-PC accuracy and sample-share movement are not
//! diffed: `metrics-check` blames a failed accuracy gate on the
//! guiltiest PCs and a failed share gate on the hottest stack, and
//! `attribution-report` renders one run's per-PC drift. This is a
//! reporting tool, not experiment instrumentation: it prints its result
//! to stdout.
//!
//! Exit status: 0 on success (differences are *reported*, never an
//! error), 2 on usage/read/parse errors.

use std::path::PathBuf;
use std::process::ExitCode;

use vp_obs::{obs_error, ManifestDiff, RunManifest};

struct Args {
    baseline: PathBuf,
    manifest: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut baseline, mut manifest) = (None, None);
    for arg in provp_bench::args::normalize(args, &[])? {
        if let Some(p) = arg.strip_prefix("--baseline=") {
            baseline = Some(PathBuf::from(p));
        } else if let Some(p) = arg.strip_prefix("--manifest=") {
            manifest = Some(PathBuf::from(p));
        } else {
            return Err(format!(
                "unknown argument `{arg}` (try --baseline=, --manifest=)"
            ));
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("missing --baseline=FILE")?,
        manifest: manifest.ok_or("missing --manifest=FILE")?,
    })
}

fn load(path: &std::path::Path) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    RunManifest::parse(text.trim_end()).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (load(&args.baseline), load(&args.manifest)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            obs_error!("{e}");
            return ExitCode::from(2);
        }
    };
    print!(
        "{}",
        ManifestDiff::compute(&baseline, &current).render_markdown()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_rejects_bad_values() {
        let a = parse_args([
            "--baseline=b.json".to_owned(),
            "--manifest=m.json".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.baseline, PathBuf::from("b.json"));
        assert_eq!(a.manifest, PathBuf::from("m.json"));

        // The space-separated flag form.
        let a = parse_args([
            "--baseline".to_owned(),
            "b".to_owned(),
            "--manifest=m".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.baseline, PathBuf::from("b"));

        assert!(parse_args(["--baseline=b".to_owned()]).is_err());
        for gone in ["--format=markdown", "--top=3"] {
            assert!(parse_args([
                "--baseline=b".to_owned(),
                "--manifest=m".to_owned(),
                gone.to_owned()
            ])
            .is_err());
        }
    }
}
