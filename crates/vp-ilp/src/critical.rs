//! Critical-path analysis: *which* instructions bind the schedule.
//!
//! The paper's conclusions name this as ongoing work: "the effect of the
//! profiling information on the scheduling of instructions within a basic
//! block and the analysis of the critical path". This crate performs that
//! analysis on the abstract machine: for every dynamic instruction it
//! determines the *binding constraint* of its issue — the window, a
//! register operand, or a memory dependence — and charges the constraint
//! to the static instruction that produced it.
//!
//! The schedule is the §5.3 machine's own: a tracked lane of
//! [`crate::IlpLanes`] ([`crate::IlpLanes::track_critical_path`]) does
//! the attribution and returns this module's [`CriticalityReport`].
//!
//! Joining the result against a profile image answers the question Table
//! 5.2 leaves implicit: a workload gains from value prediction exactly to
//! the extent that its critical producers are value-predictable.

use std::collections::HashMap;

use vp_isa::InstrAddr;

/// Accumulated criticality statistics of one tracked lane.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_ilp::{IlpConfig, IlpLanes};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("li r1, 0\nli r2, 500\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")?;
/// let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
/// lanes.lane(&IlpConfig::paper_no_vp(), None);
/// lanes.track_critical_path(0);
/// run(&p, &mut lanes, RunLimits::default())?;
/// let report = lanes.finish().1.expect("lane 0 is tracked");
/// // The loop-index increment at @2 binds almost every issue.
/// assert_eq!(report.ranked()[0].0, vp_isa::InstrAddr::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CriticalityReport {
    /// Dynamic instructions analysed.
    pub instructions: u64,
    /// Issues bound by the window or fetch (or free).
    pub structural: u64,
    /// Issues bound per producing static instruction (register or memory).
    pub by_producer: HashMap<InstrAddr, u64>,
}

impl CriticalityReport {
    /// Issues bound by a data dependence (any producer).
    #[must_use]
    pub fn data_bound(&self) -> u64 {
        self.by_producer.values().sum()
    }

    /// The producers ranked by how often they bound an issue, descending.
    #[must_use]
    pub fn ranked(&self) -> Vec<(InstrAddr, u64)> {
        let mut v: Vec<(InstrAddr, u64)> = self.by_producer.iter().map(|(&a, &n)| (a, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The fraction of data-bound issues charged to producers accepted by
    /// `predictable` — with a profile-image closure this is "how much of
    /// the critical path is value-predictable".
    #[must_use]
    pub fn predictable_fraction(&self, mut predictable: impl FnMut(InstrAddr) -> bool) -> f64 {
        let data = self.data_bound();
        if data == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .by_producer
            .iter()
            .filter(|(&a, _)| predictable(a))
            .map(|(_, &n)| n)
            .sum();
        hits as f64 / data as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IlpConfig, IlpLanes};
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    fn analyse(src: &str) -> CriticalityReport {
        let p = assemble(src).unwrap();
        let mut lanes = IlpLanes::new(40);
        lanes.lane(&IlpConfig::paper_no_vp(), None);
        lanes.track_critical_path(0);
        run(&p, &mut lanes, RunLimits::default()).unwrap();
        lanes.finish().1.unwrap()
    }

    #[test]
    fn serial_chain_charges_its_producer() {
        let r = analyse("li r1, 0\nli r2, 1000\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        let ranked = r.ranked();
        assert_eq!(ranked[0].0, InstrAddr::new(2), "{ranked:?}");
        // The addi binds both its own next iteration and the bne.
        assert!(ranked[0].1 > 1500);
    }

    #[test]
    fn memory_dependences_charge_the_store() {
        let r = analyse(
            "li r1, 0\nli r2, 400\ntop: sd r1, 100(r0)\nld r3, 100(r0)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        );
        // The load at @3 is bound by the store at @2.
        assert!(
            r.by_producer.get(&InstrAddr::new(2)).copied().unwrap_or(0) >= 399,
            "{r:?}"
        );
    }

    #[test]
    fn independent_code_is_structurally_bound() {
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("li r{}, {i}\n", 1 + i % 31));
        }
        src.push_str("halt\n");
        let r = analyse(&src);
        assert_eq!(r.data_bound(), 0);
        assert_eq!(r.structural, r.instructions);
    }

    #[test]
    fn predictable_fraction_uses_the_filter() {
        let r = analyse("li r1, 0\nli r2, 500\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        assert!(r.predictable_fraction(|a| a == InstrAddr::new(2)) > 0.99);
        assert_eq!(r.predictable_fraction(|_| false), 0.0);
    }
}
