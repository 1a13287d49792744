//! Coverage-guided differential fuzzing of the whole simulation stack.
//!
//! Generates random well-formed programs, runs each through the
//! `vp-verify` oracle (reference interpreter vs the optimized machine,
//! reference profile collector vs the dense one, reference predictors vs
//! the table predictors and the fused batch and streamed replays, the ILP
//! lanes vs `vp_verify::refilp::IlpAnalyzer`) and reports any divergence
//! with a minimised repro.
//!
//! ```text
//! fuzz-sim [--cases=N] [--seed=S] [--max-shrink-steps=K] \
//!          [--corpus=DIR] [--metrics-out=FILE]
//! ```
//!
//! Every flag also accepts the space-separated form (`--cases 10000`),
//! via the crate-wide [`provp_bench::args::normalize`] helper.
//! A run is fully reproduced by `(seed, cases)`; a single failing case is
//! reproduced by `--cases=1 --seed=<case_seed>` using the per-case seed
//! printed in the report (see TESTING.md).
//!
//! Exit status: 0 when every case agrees, 1 when any divergence was
//! found, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vp_obs::{obs_error, RunManifest};
use vp_verify::{run_fuzz, FuzzOptions};

struct Args {
    fuzz: FuzzOptions,
    metrics_out: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut fuzz = FuzzOptions::default();
    let mut metrics_out = None;
    for arg in provp_bench::args::normalize(args, &[])? {
        if let Some(v) = arg.strip_prefix("--cases=") {
            fuzz.cases = v
                .parse()
                .map_err(|e| format!("bad --cases value `{v}`: {e}"))?;
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            fuzz.seed = v
                .parse()
                .map_err(|e| format!("bad --seed value `{v}`: {e}"))?;
        } else if let Some(v) = arg.strip_prefix("--max-shrink-steps=") {
            fuzz.max_shrink_steps = v
                .parse()
                .map_err(|e| format!("bad --max-shrink-steps value `{v}`: {e}"))?;
        } else if let Some(v) = arg.strip_prefix("--corpus=") {
            fuzz.corpus = Some(PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--metrics-out=") {
            metrics_out = Some(PathBuf::from(v));
        } else {
            return Err(format!(
                "unknown argument `{arg}` (try --cases=, --seed=, \
                 --max-shrink-steps=, --corpus=, --metrics-out=)"
            ));
        }
    }
    Ok(Args { fuzz, metrics_out })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let report = {
        let _s = vp_obs::span("fuzz-sim");
        match run_fuzz(&args.fuzz) {
            Ok(r) => r,
            Err(e) => {
                obs_error!("fuzz run failed writing repros: {e}");
                return ExitCode::from(2);
            }
        }
    };

    println!(
        "fuzz-sim: {} cases (seed {}), {} divergences, coverage {} opcodes / {} edges, {:.1}s",
        report.cases,
        args.fuzz.seed,
        report.divergences.len(),
        report.distinct_opcodes,
        report.distinct_edges,
        started.elapsed().as_secs_f64()
    );

    for d in &report.divergences {
        println!(
            "\ndivergence in case {} — repro: fuzz-sim --cases 1 --seed {}",
            d.case, d.case_seed
        );
        println!("  {}", d.divergence);
        println!(
            "  shrunk {} -> {} instructions in {} steps",
            d.original_len,
            d.shrunk.text().len(),
            d.shrink_steps
        );
        match &d.repro_path {
            Some(path) => println!("  repro written to {}", path.display()),
            None => println!("  minimised program:\n{}", d.shrunk),
        }
    }

    if let Some(path) = &args.metrics_out {
        let manifest = RunManifest::from_snapshot(
            "fuzz-sim",
            std::env::args().skip(1).collect(),
            started.elapsed().as_secs_f64() * 1e3,
            &vp_obs::global().snapshot(),
        );
        if let Err(e) = vp_obs::write_manifest(&manifest, path) {
            obs_error!("failed to write manifest to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_both_flag_forms() {
        let a = parse_args([
            "--cases=42".to_owned(),
            "--seed".to_owned(),
            "7".to_owned(),
            "--max-shrink-steps=9".to_owned(),
            "--corpus".to_owned(),
            "/tmp/c".to_owned(),
            "--metrics-out=/tmp/m.json".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.fuzz.cases, 42);
        assert_eq!(a.fuzz.seed, 7);
        assert_eq!(a.fuzz.max_shrink_steps, 9);
        assert_eq!(a.fuzz.corpus, Some(PathBuf::from("/tmp/c")));
        assert_eq!(a.metrics_out, Some(PathBuf::from("/tmp/m.json")));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(["--cases".to_owned()]).is_err());
        assert!(parse_args(["--cases=many".to_owned()]).is_err());
        assert!(parse_args(["--frobnicate=1".to_owned()]).is_err());
    }
}
