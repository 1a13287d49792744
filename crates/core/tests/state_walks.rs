//! The count gate on the fused sweep's state sharing: priming the paper
//! sweep (`repro-all`'s cells) over the nine workloads walks each shared
//! predictor state once per trace, fewer walks than fused cells, with or
//! without attribution.
//!
//! The counters are process-global, so this binary holds one test.

use provp_core::experiments::{classification, finite_table, table_5_1};
use provp_core::Suite;
use vp_workloads::WorkloadKind;

#[test]
fn prime_matrix_walks_each_shared_state_once() {
    let mut cells = classification::matrix_cells();
    cells.extend(table_5_1::matrix_cells());
    cells.extend(finite_table::matrix_cells());
    Suite::new().prime_matrix(&WorkloadKind::ALL, &cells);
    let counters = vp_obs::global().snapshot().counters;
    assert_eq!(counters["replay.matrix_passes"], 9);
    assert_eq!(counters["replay.fused_cells"], 62);
    // Per workload: one infinite-stride walk serves the counter cell and
    // every threshold's directive cell, one walk the counter-classified
    // table, and each distinct annotation one directive-admitted table.
    assert_eq!(counters["replay.state_walks"], 40);

    // Attribution observes the same walks' codes: an attributed sweep
    // walks exactly as many states as an unattributed one.
    provp_core::attribution::enable(0);
    Suite::new().prime_matrix(&WorkloadKind::ALL, &cells);
    let counters = vp_obs::global().snapshot().counters;
    assert_eq!(counters["replay.fused_cells"], 124);
    assert_eq!(counters["replay.state_walks"], 80);
}
