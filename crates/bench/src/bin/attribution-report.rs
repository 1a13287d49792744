//! Renders the `attribution` array of a run manifest: the hottest mispredicting PCs per attributed run, their
//! misprediction-cause breakdown and their profile drift (promised
//! training-profile accuracy minus observed replay accuracy).
//!
//! ```text
//! attribution-report --manifest=/tmp/manifest.json [--top=N]
//! ```
//!
//! The report is GitHub-flavoured Markdown (pipe it into
//! `$GITHUB_STEP_SUMMARY`; it reads as plain text in a log): per run,
//! the totals, the cause counts and the `--top=N` hottest PCs (default
//! 10; 0 means every PC the manifest carries). For the raw array, read
//! the manifest itself (`jq .attribution`).
//!
//! Both flag forms (`--flag=V` and `--flag V`) are accepted. Like
//! `manifest-diff`, this is a reporting tool: the report goes to stdout.
//!
//! Exit status: 0 on success (including a manifest with no attribution,
//! which reports how to collect some), 2 on usage/read/parse errors.

use std::path::PathBuf;
use std::process::ExitCode;

use vp_obs::attribution::render_report_markdown;
use vp_obs::{obs_error, RunManifest};

struct Args {
    manifest: PathBuf,
    top: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut manifest = None;
    let mut top = 10usize;
    for arg in provp_bench::args::normalize(args, &[])? {
        if let Some(p) = arg.strip_prefix("--manifest=") {
            manifest = Some(PathBuf::from(p));
        } else if let Some(n) = arg.strip_prefix("--top=") {
            top = n
                .parse()
                .map_err(|_| format!("bad --top value `{n}` (want an integer; 0 = unlimited)"))?;
        } else {
            return Err(format!(
                "unknown argument `{arg}` (try --manifest=, --top=)"
            ));
        }
    }
    Ok(Args {
        manifest: manifest.ok_or("missing --manifest=FILE")?,
        top,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            return ExitCode::from(2);
        }
    };
    let manifest = match std::fs::read_to_string(&args.manifest)
        .map_err(|e| format!("cannot read {:?}: {e}", args.manifest))
        .and_then(|text| {
            RunManifest::parse(text.trim_end())
                .map_err(|e| format!("cannot parse {:?}: {e}", args.manifest))
        }) {
        Ok(m) => m,
        Err(e) => {
            obs_error!("{e}");
            return ExitCode::from(2);
        }
    };

    if manifest.attribution.is_empty() {
        println!(
            "attribution-report: {:?} carries no attribution data; rerun the \
             experiment with --attribution --metrics-out=... to collect some",
            args.manifest
        );
        return ExitCode::SUCCESS;
    }

    print!(
        "{}",
        render_report_markdown(&manifest.attribution, args.top)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_in_both_forms() {
        let a = parse_args([
            "--manifest".to_owned(),
            "m.json".to_owned(),
            "--top".to_owned(),
            "3".to_owned(),
        ])
        .unwrap();
        assert_eq!(a.manifest, PathBuf::from("m.json"));
        assert_eq!(a.top, 3);

        let a = parse_args(["--manifest=m".to_owned()]).unwrap();
        assert_eq!(a.top, 10);

        assert!(parse_args([]).is_err());
        assert!(parse_args(["--manifest=m".to_owned(), "--format=markdown".to_owned()]).is_err());
        assert!(parse_args(["--manifest=m".to_owned(), "--top=half".to_owned()]).is_err());
    }
}
