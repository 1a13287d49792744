//! The profile tick samples current RSS into a max-gauge, so a
//! transient allocation peak — memory allocated and freed entirely
//! between process start and the final procfs read — is still visible
//! in the manifest. Own test binary: the assertion depends on this
//! process's memory profile staying small outside the deliberate spike.

use std::time::Duration;

use vp_obs::{Schedule, Ticker};

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "needs procfs")]
fn transient_allocation_is_captured_by_sampled_peak() {
    let before = vp_obs::rss::current_rss_bytes();
    assert!(before > 0, "procfs current-RSS must be readable");

    let schedule = Schedule {
        profile_hz: Some(500),
        ..Schedule::default()
    };
    let ticker = Ticker::start(schedule, vp_obs::global(), || {}).unwrap();
    {
        // A deliberate ~64 MiB transient: touched so the pages are
        // resident, freed before the ticker stops.
        let spike: Vec<u8> = (0..64 * 1024 * 1024).map(|i| i as u8).collect();
        std::hint::black_box(&spike);
        std::thread::sleep(Duration::from_millis(120));
    }
    std::thread::sleep(Duration::from_millis(30));
    drop(ticker.stop());

    let sampled_peak = vp_obs::gauge("rss.sampled_peak_bytes").get();
    assert!(
        sampled_peak >= before + 32 * 1024 * 1024,
        "the 64 MiB transient must be visible in the sampled peak \
         (before: {before}, sampled peak: {sampled_peak})"
    );
    // The sampled peak tracks the kernel's high-water mark (VmRSS is
    // maintained in batched per-thread counters, so allow it to read a
    // little past VmHWM rather than asserting strict ordering).
    let hwm = vp_obs::rss::peak_rss_bytes();
    assert!(
        sampled_peak <= hwm + 8 * 1024 * 1024,
        "sampled peak {sampled_peak} implausibly far above VmHWM {hwm}"
    );
}
