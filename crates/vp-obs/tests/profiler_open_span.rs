//! A span still open when the profile is built contributes nothing: the
//! profile is built from the self times that span closes record, so an
//! open span's time appears once it closes, never as a partial figure.
//!
//! Lives in its own integration-test binary so that no other test's
//! spans share this process's registry.

use std::time::Duration;

use vp_obs::{Profile, RunManifest};

fn profile() -> Profile {
    Profile::from_spans(&vp_obs::global().snapshot().spans)
}

#[test]
fn a_span_open_when_the_profile_is_built_contributes_nothing() {
    let outer = vp_obs::span("open-at-build");
    {
        let _closed = vp_obs::span("closed");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(2));

    let open = profile();
    assert!(open.folded["open-at-build;closed"] >= 2_000);
    assert!(
        !open.folded.contains_key("open-at-build"),
        "the open span's own time is not counted yet: {:?}",
        open.folded
    );
    let manifest = RunManifest::from_snapshot("t", Vec::new(), 0.0, &vp_obs::global().snapshot());
    let section = manifest
        .profile
        .expect("snapshot manifests carry a profile");
    let root = section
        .phases
        .iter()
        .find(|p| p.path == "open-at-build")
        .expect("the open span is a prefix of a closed one");
    assert_eq!(root.self_share, 0.0);
    assert!(manifest.phases.iter().all(|p| p.path != "open-at-build"));

    drop(outer);
    let closed = profile();
    assert!(closed.folded["open-at-build"] >= 2_000);
    assert_eq!(
        closed.folded["open-at-build;closed"],
        open.folded["open-at-build;closed"]
    );
}
