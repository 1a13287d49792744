//! Section 2's FP phase images are a partition of the reference image.
//!
//! `Suite::reference_phase_images` cuts the memoised reference image at the
//! workload's phase split. This suite checks, for every workload with a
//! phase split (the opt-in Figure 2.2 codes included), that the two halves
//! partition the reference image record for record, and that they equal
//! the images of the reference collector splitting by phase during the run.

use provp_core::Suite;
use vp_isa::InstrAddr;
use vp_profile::format::to_text;
use vp_profile::ProfileImage;
use vp_sim::{run, RunLimits};
use vp_verify::RefProfileCollector;
use vp_workloads::{InputSet, Workload, WorkloadKind};

fn records(image: &ProfileImage) -> Vec<(InstrAddr, vp_profile::InstrProfile)> {
    image.iter().map(|(a, r)| (a, *r)).collect()
}

#[test]
fn phase_images_partition_the_reference_image() {
    let suite = Suite::with_train_runs(1);
    let split_kinds: Vec<WorkloadKind> = WorkloadKind::ALL_EXTENDED
        .into_iter()
        .filter(|&k| Workload::new(k).phase_split().is_some())
        .collect();
    for kind in [
        WorkloadKind::Mgrid,
        WorkloadKind::Swim,
        WorkloadKind::Tomcatv,
        WorkloadKind::Su2cor,
        WorkloadKind::Hydro2d,
    ] {
        assert!(split_kinds.contains(&kind), "{kind} lost its phase split");
    }

    for kind in split_kinds {
        let w = Workload::new(kind);
        let split = w.phase_split().unwrap();
        let whole = suite.reference_image(kind);
        let (init, comp) = suite.reference_phase_images(kind);
        assert_eq!(init.name(), format!("{}/init", w.name()));
        assert_eq!(comp.name(), format!("{}/comp", w.name()));
        assert!(!init.is_empty() && !comp.is_empty(), "{kind}");
        assert!(init.addrs().all(|a| a < split), "{kind}: init past split");
        assert!(
            comp.addrs().all(|a| a >= split),
            "{kind}: comp before split"
        );

        // Record for record: the init records followed by the comp records
        // are exactly the reference image's, in address order.
        let mut halves = records(&init);
        halves.extend(records(&comp));
        assert_eq!(
            halves,
            records(&whole),
            "{kind}: halves are not a partition"
        );

        // And they are what a collector splitting during the run records.
        let program = w.program(&InputSet::reference());
        let mut reference = RefProfileCollector::with_phase_split(w.name(), split);
        run(&program, &mut reference, RunLimits::default()).unwrap();
        let (ref_init, ref_comp) = reference.into_phase_images();
        assert_eq!(to_text(&init), to_text(&ref_init), "{kind} init");
        assert_eq!(to_text(&comp), to_text(&ref_comp), "{kind} comp");
    }
}
