//! Text serialisation of profile images.
//!
//! The format is the paper's three-column profile file extended with raw
//! counts (so merges are exact) and a category column:
//!
//! ```text
//! # provp-profile v1
//! # name: ijpeg/train0
//! # addr execs stride_correct nonzero_stride_correct lv_correct category
//! 3 1000 999 999 0 int-alu
//! 7 1000 120 3 118 int-load
//! ```
//!
//! Derived columns (accuracy, stride efficiency ratio) are intentionally
//! not stored — they are recomputed, so a file can never disagree with
//! itself.

use vp_isa::InstrAddr;

use crate::{InstrProfile, ProfileError, ProfileImage, VpCategory};

const MAGIC: &str = "# provp-profile v1";

/// Serialises an image to the text format.
#[must_use]
pub fn to_text(image: &ProfileImage) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("# name: {}\n", image.name()));
    out.push_str("# addr execs stride_correct nonzero_stride_correct lv_correct category\n");
    for (addr, r) in image.iter() {
        out.push_str(&format!(
            "{} {} {} {} {} {}\n",
            addr.index(),
            r.execs,
            r.stride_correct,
            r.nonzero_stride_correct,
            r.last_value_correct,
            r.category
        ));
    }
    out
}

/// Parses the text format back into an image.
///
/// # Errors
///
/// - [`ProfileError::BadHeader`] if the magic line is missing;
/// - [`ProfileError::Parse`] for malformed lines;
/// - [`ProfileError::Inconsistent`] if a record claims more correct
///   predictions than executions (or more non-zero-stride corrects than
///   stride corrects).
pub fn from_text(text: &str) -> Result<ProfileImage, ProfileError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == MAGIC => {}
        _ => return Err(ProfileError::BadHeader),
    }
    let mut image = ProfileImage::new("unnamed");
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(name) = rest.trim().strip_prefix("name:") {
                image.set_name(name.trim());
            }
            continue;
        }
        let bad = |message: String| ProfileError::Parse {
            line: lineno,
            message,
        };
        let mut parts = line.split_whitespace();
        let mut next_u64 = |what: &str| -> Result<u64, ProfileError> {
            let token = parts.next().and_then(|t| t.parse().ok());
            token.ok_or_else(|| bad(format!("bad {what}")))
        };
        let addr = next_u64("addr")?;
        let execs = next_u64("execs")?;
        let stride_correct = next_u64("stride_correct")?;
        let nonzero_stride_correct = next_u64("nonzero_stride_correct")?;
        let last_value_correct = next_u64("lv_correct")?;
        let cat_tok = parts.next().ok_or_else(|| bad("missing category".into()))?;
        let category = VpCategory::from_str_name(cat_tok)
            .ok_or_else(|| bad(format!("unknown category `{cat_tok}`")))?;
        if parts.next().is_some() {
            return Err(bad("trailing fields".into()));
        }
        if stride_correct > execs || last_value_correct > execs {
            return Err(ProfileError::Inconsistent {
                line: lineno,
                message: "more correct predictions than executions".into(),
            });
        }
        if nonzero_stride_correct > stride_correct {
            return Err(ProfileError::Inconsistent {
                line: lineno,
                message: "more non-zero-stride corrects than stride corrects".into(),
            });
        }
        let addr = u32::try_from(addr).map_err(|_| bad("address exceeds 32 bits".into()))?;
        image.insert(
            InstrAddr::new(addr),
            InstrProfile {
                category,
                execs,
                stride_correct,
                nonzero_stride_correct,
                last_value_correct,
            },
        );
    }
    Ok(image)
}

/// Renders the paper's own three-column view (Table 3.1) of an image:
/// address, prediction accuracy, stride efficiency ratio.
#[must_use]
pub fn to_paper_table(image: &ProfileImage) -> String {
    let mut out = String::from("addr  accuracy  stride-efficiency\n");
    for (addr, r) in image.iter() {
        out.push_str(&format!(
            "{:<5} {:>7.2}%  {:>7.2}%\n",
            addr.index(),
            100.0 * r.stride_accuracy(),
            100.0 * r.stride_efficiency_ratio()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileImage {
        let mut img = ProfileImage::new("demo");
        img.insert(
            InstrAddr::new(3),
            InstrProfile {
                category: VpCategory::IntAlu,
                execs: 100,
                stride_correct: 99,
                nonzero_stride_correct: 99,
                last_value_correct: 0,
            },
        );
        img.insert(
            InstrAddr::new(7),
            InstrProfile {
                category: VpCategory::FpLoad,
                execs: 50,
                stride_correct: 40,
                nonzero_stride_correct: 2,
                last_value_correct: 39,
            },
        );
        img
    }

    #[test]
    fn round_trip_preserves_everything() {
        let img = sample();
        let parsed = from_text(&to_text(&img)).unwrap();
        assert_eq!(parsed, img);
        assert_eq!(parsed.name(), "demo");
    }

    #[test]
    fn missing_header_is_rejected() {
        assert_eq!(
            from_text("3 1 1 1 1 int-alu\n"),
            Err(ProfileError::BadHeader)
        );
        assert_eq!(from_text(""), Err(ProfileError::BadHeader));
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let text = format!("{MAGIC}\n3 1 1 1 1 int-alu\nbogus line here x y\n");
        match from_text(&text) {
            Err(ProfileError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        let text = format!("{MAGIC}\n3 10 11 0 0 int-alu\n");
        assert!(matches!(
            from_text(&text),
            Err(ProfileError::Inconsistent { .. })
        ));
        let text = format!("{MAGIC}\n3 10 5 6 0 int-alu\n");
        assert!(matches!(
            from_text(&text),
            Err(ProfileError::Inconsistent { .. })
        ));
    }

    #[test]
    fn unknown_category_is_rejected() {
        let text = format!("{MAGIC}\n3 10 5 2 1 warp-core\n");
        assert!(matches!(from_text(&text), Err(ProfileError::Parse { .. })));
    }

    #[test]
    fn paper_table_shows_percentages() {
        let table = to_paper_table(&sample());
        assert!(table.contains("99.00%"));
        assert!(table.contains("80.00%"));
    }
}
