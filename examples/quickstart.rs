//! Quickstart: the paper's three-phase methodology on one workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Phase 1 compiles the `ijpeg` analogue, phase 2 profiles it under five
//! training inputs on the tracing simulator, phase 3 re-emits the binary
//! with value-prediction directives — then we evaluate on a held-out
//! reference input and compare ILP with and without value prediction.

use provp::core::Suite;
use provp::ilp::IlpConfig;
use provp::workloads::WorkloadKind;

fn main() {
    let kind = WorkloadKind::Ijpeg;
    let suite = Suite::new();

    // Phases 1-3: compile, profile (n = 5 training inputs), merge, and
    // annotate at a 90% accuracy threshold.
    let (_, summary) = suite.annotated(kind, 0.9);
    println!(
        "profiled {} static value producers over {} runs",
        suite.merged_image(kind).len(),
        suite.train_images(kind).len()
    );
    println!("annotation report: {summary}");

    // Evaluation: a *reference* input the profiler never saw, carrying the
    // training-derived directives.
    let base = suite.ilp(kind, IlpConfig::paper_no_vp(), None);
    let vp = suite.ilp(kind, IlpConfig::paper_vp_profile(), Some(0.9));

    println!("no value prediction:          {base}");
    println!("profile-guided value pred.:   {vp}");
    println!(
        "ILP increase:                 {:+.1}%",
        vp.ilp_increase_over(&base)
    );
}
