//! The manifest's `peak_rss_bytes` is `VmHWM`, the kernel's high-water
//! mark over the whole process lifetime, so a transient allocation peak
//! (memory allocated and freed before the end-of-run read) is still
//! visible. Own test binary: the assertion depends on this process's
//! memory staying small outside the deliberate spike.

const MIB: u64 = 1024 * 1024;

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "needs procfs")]
fn transient_allocation_raises_the_high_water_mark() {
    let before = vp_obs::rss::peak_rss_bytes();
    assert!(before > 0, "procfs VmHWM must be readable");
    {
        // A deliberate 64 MiB transient, touched so the pages are
        // resident, freed before the read. The rise is asserted at half
        // of it: the kernel's RSS counters are batched, and the mark may
        // already sit a little above the resident set.
        let spike: Vec<u8> = (0..64 * MIB).map(|i| i as u8).collect();
        std::hint::black_box(&spike);
    }
    let after = vp_obs::rss::peak_rss_bytes();
    assert!(
        after >= before + 32 * MIB,
        "the freed 64 MiB transient must raise VmHWM by at least 32 MiB \
         (before: {before}, after: {after})"
    );
}
