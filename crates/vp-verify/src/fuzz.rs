//! The deterministic, coverage-guided fuzz loop.
//!
//! A fuzz run is fully described by `(seed, cases)`: case `i` derives its
//! own seed with a SplitMix64 finalizer over `seed + i`, generates a
//! program, runs the full differential [`oracle`](crate::oracle), and
//! folds the execution into the [`Coverage`] map. Every few cases the
//! generator is focused on the least-covered opcode, so the corpus
//! systematically reaches rare instructions instead of hoping for them.
//!
//! On a divergence the failing program is [shrunk](crate::shrink) (the
//! predicate being "the oracle, run only through the stage that
//! diverged, still diverges in that stage") and the minimised repro is written to the corpus directory with its case seed
//! and divergence message in the header. Re-running a single case needs
//! only its reported `case_seed`.
//!
//! Observability: `fuzz.cases`, `fuzz.coverage` (distinct opcodes +
//! distinct edges) and `fuzz.divergences` counters, via [`vp_obs`].

use std::io;
use std::path::PathBuf;

use vp_isa::Program;
use vp_rng::Rng;

use crate::corpus::write_repro;
use crate::coverage::Coverage;
use crate::generate::{gen_program, GenConfig};
use crate::oracle::{run_case, run_case_through};
use crate::shrink::shrink_program;

/// Per-case instruction budget: far above what `GenConfig::default()` can
/// produce, so budget exhaustion still gets exercised only via generated
/// long loops, not as the common case.
const CASE_BUDGET: u64 = 200_000;

/// Steer the generator toward the least-covered opcode on every third
/// case.
const FOCUS_PERIOD: u64 = 3;

/// Options for one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of cases to run.
    pub cases: u64,
    /// Base seed; case `i` runs with `splitmix64(seed + i)`.
    pub seed: u64,
    /// Maximum accepted shrink steps per divergence.
    pub max_shrink_steps: u32,
    /// Where to write minimised repros (`None`: report only).
    pub corpus: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 1000,
            seed: 1,
            max_shrink_steps: 200,
            corpus: None,
        }
    }
}

/// One divergence found by a fuzz run.
#[derive(Debug)]
pub struct DivergenceRecord {
    /// Case index within the run.
    pub case: u64,
    /// The derived per-case seed (sufficient to regenerate the program).
    pub case_seed: u64,
    /// Rendered divergence message.
    pub divergence: String,
    /// Instruction count of the original failing program.
    pub original_len: usize,
    /// The minimised program.
    pub shrunk: Program,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
    /// Where the repro was written, when a corpus directory was given.
    pub repro_path: Option<PathBuf>,
}

/// Summary of a fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Divergences found (empty on a healthy stack).
    pub divergences: Vec<DivergenceRecord>,
    /// Distinct opcodes retired across all cases.
    pub distinct_opcodes: usize,
    /// Distinct opcode→opcode retirement edges across all cases.
    pub distinct_edges: usize,
}

/// SplitMix64 finalizer: decorrelates sequential case indices into
/// independent generator seeds.
#[must_use]
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut z = base.wrapping_add(case).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the fuzz loop.
///
/// # Errors
///
/// Only filesystem errors (writing corpus repros) are returned as `Err`;
/// divergences are data in the report.
pub fn run_fuzz(opts: &FuzzOptions) -> io::Result<FuzzReport> {
    let mut coverage = Coverage::new();
    let mut divergences = Vec::new();

    for case in 0..opts.cases {
        let seed = case_seed(opts.seed, case);
        let mut cfg = GenConfig::default();
        if case % FOCUS_PERIOD == FOCUS_PERIOD - 1 {
            cfg.focus = coverage.least_covered();
        }
        let mut rng = Rng::seed_from_u64(seed);
        let program = gen_program(&mut rng, &cfg, &format!("fuzz-{seed:016x}"));

        match run_case(&program, CASE_BUDGET) {
            Ok(trace) => {
                let events: Vec<_> = trace.iter().collect();
                coverage.observe(&program, events.iter());
            }
            Err(divergence) => {
                let message = divergence.to_string();
                let stage = divergence.stage();
                let (shrunk, shrink_steps) = shrink_program(
                    &program,
                    &mut |p| {
                        run_case_through(p, CASE_BUDGET, stage).is_err_and(|d| d.stage() == stage)
                    },
                    opts.max_shrink_steps,
                );
                let repro_path = match &opts.corpus {
                    Some(dir) => Some(write_repro(
                        dir,
                        &format!("div-{seed:016x}"),
                        &shrunk,
                        &format!("fuzz divergence, case {case} (seed {seed:#018x})\n{message}"),
                    )?),
                    None => None,
                };
                divergences.push(DivergenceRecord {
                    case,
                    case_seed: seed,
                    divergence: message,
                    original_len: program.text().len(),
                    shrunk,
                    shrink_steps,
                    repro_path,
                });
            }
        }
        vp_obs::counter("fuzz.cases").add(1);
    }

    let (distinct_opcodes, distinct_edges) = coverage.distinct();
    vp_obs::gauge("fuzz.coverage").set((distinct_opcodes + distinct_edges) as u64);
    vp_obs::counter("fuzz.divergences").add(divergences.len() as u64);

    Ok(FuzzReport {
        cases: opts.cases,
        divergences,
        distinct_opcodes,
        distinct_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_finds_no_divergences_and_broad_coverage() {
        let report = run_fuzz(&FuzzOptions {
            cases: 30,
            seed: 0xf00d,
            max_shrink_steps: 50,
            corpus: None,
        })
        .unwrap();
        assert_eq!(report.cases, 30);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences: {:?}",
            report.divergences
        );
        // 30 varied programs must exercise a healthy slice of the ISA.
        assert!(
            report.distinct_opcodes >= 20,
            "only {} distinct opcodes covered",
            report.distinct_opcodes
        );
        assert!(report.distinct_edges > report.distinct_opcodes);
    }

    #[test]
    fn case_seeds_are_decorrelated() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stability: repro commands printed in CI logs must stay valid.
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
    }
}
