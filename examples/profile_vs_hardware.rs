//! Head-to-head: profile-guided classification vs. saturating counters on
//! a finite prediction table (the paper's §5.2 scenario), for one
//! large-working-set workload.
//!
//! ```text
//! cargo run --release --example profile_vs_hardware [workload]
//! ```
//!
//! The hardware classifier must allocate every dynamic value producer into
//! the 512-entry table, so `gcc`'s ~900 hot producers thrash it; the
//! profile-guided classifier admits only directive-tagged instructions and
//! keeps the table clean.

use provp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = std::env::args()
        .nth(1)
        .map(|name| WorkloadKind::from_name(&name).ok_or(format!("unknown workload `{name}`")))
        .transpose()?
        .unwrap_or(WorkloadKind::Gcc);

    let suite = Suite::new();

    // Hardware-only: every producer competes for the table.
    let fsm = suite.predictor_stats(kind, PredictorConfig::spec_table_stride_fsm(), None);

    // Profile-guided at a 90% threshold: only tagged producers enter.
    let prof = suite.predictor_stats(
        kind,
        PredictorConfig::spec_table_stride_profile(),
        Some(0.9),
    );

    println!("workload: {kind} (512-entry 2-way stride table)\n");
    println!("saturating counters : {fsm}");
    println!("profile-guided @90% : {prof}\n");
    println!(
        "correct predictions : {} -> {} ({:+.1}%)",
        fsm.speculated_correct,
        prof.speculated_correct,
        100.0 * (prof.speculated_correct as f64 / fsm.speculated_correct.max(1) as f64 - 1.0)
    );
    println!(
        "mispredictions      : {} -> {} ({:+.1}%)",
        fsm.speculated_incorrect(),
        prof.speculated_incorrect(),
        100.0
            * (prof.speculated_incorrect() as f64 / fsm.speculated_incorrect().max(1) as f64 - 1.0)
    );
    println!(
        "table allocations   : {} -> {} (evictions {} -> {})",
        fsm.allocations, prof.allocations, fsm.evictions, prof.evictions
    );
    Ok(())
}
