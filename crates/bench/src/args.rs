//! Shared command-line argument normalisation for every bench binary.
//!
//! All binaries in this crate document their flags in `--flag=VALUE`
//! form, but shells and CI templates often pass `--flag VALUE`. Instead
//! of every binary hand-rolling the dual-form loop (as `fuzz-sim` once
//! did), [`normalize`] rewrites the space-separated form into the `=`
//! form up front; the per-binary parsers then match on `strip_prefix`
//! exactly as before.
//!
//! The normaliser needs to know which flags are boolean *switches*
//! (`--metrics-table`): a switch never consumes the following argument.
//! Every other `--flag` without an `=` takes the next argument as its
//! value — and refuses a value that itself looks like a flag, so
//! `--corpus --metrics-out=x` reports a missing value instead of
//! silently swallowing the next flag.

/// Rewrites `--flag VALUE` pairs into `--flag=VALUE`, leaving
/// `--flag=VALUE`, switches listed in `switches`, and positional
/// arguments untouched.
///
/// # Errors
///
/// Returns a human-readable message when a non-switch `--flag` has no
/// following value (or the following argument is itself a flag).
pub fn normalize(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let takes_value = arg.starts_with("--")
            && arg.len() > 2
            && !arg.contains('=')
            && !switches.contains(&arg.as_str());
        if !takes_value {
            out.push(arg);
            continue;
        }
        match args.next() {
            Some(value) if !value.starts_with("--") => out.push(format!("{arg}={value}")),
            _ => return Err(format!("flag `{arg}` is missing a value")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(args: &[&str], switches: &[&str]) -> Result<Vec<String>, String> {
        normalize(args.iter().map(|s| (*s).to_owned()), switches)
    }

    #[test]
    fn space_form_becomes_equals_form() {
        let out = norm(
            &[
                "--jobs",
                "4",
                "--metrics-table",
                "--metrics-out=/tmp/m.json",
                "pos",
            ],
            &["--metrics-table"],
        )
        .unwrap();
        assert_eq!(
            out,
            [
                "--jobs=4",
                "--metrics-table",
                "--metrics-out=/tmp/m.json",
                "pos"
            ]
        );
    }

    #[test]
    fn missing_values_are_rejected() {
        assert!(norm(&["--jobs"], &[]).is_err());
        // A flag is not a value for the preceding flag.
        assert!(norm(&["--jobs", "--metrics-table"], &["--metrics-table"]).is_err());
    }

    #[test]
    fn equals_form_and_positionals_pass_through() {
        let out = norm(&["--jobs=2", "--", "-x", "plain"], &[]).unwrap();
        assert_eq!(out, ["--jobs=2", "--", "-x", "plain"]);
    }
}
