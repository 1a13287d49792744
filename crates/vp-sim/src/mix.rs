//! Dynamic instruction-mix accounting.

use std::fmt;

use vp_isa::OpCategory;

use crate::{Retirement, Tracer};

/// Counts retired instructions by [`OpCategory`].
///
/// Useful both as a sanity check on workloads (e.g. that an FP workload
/// actually retires FP instructions) and for normalising experiment output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    int_alu: u64,
    int_load: u64,
    fp_alu: u64,
    fp_load: u64,
    store: u64,
    branch: u64,
    jump: u64,
    system: u64,
}

impl InstrMix {
    /// An empty mix.
    #[must_use]
    pub fn new() -> Self {
        InstrMix::default()
    }

    /// Records one retired instruction.
    pub fn record(&mut self, cat: OpCategory) {
        match cat {
            OpCategory::IntAlu => self.int_alu += 1,
            OpCategory::IntLoad => self.int_load += 1,
            OpCategory::FpAlu => self.fp_alu += 1,
            OpCategory::FpLoad => self.fp_load += 1,
            OpCategory::Store => self.store += 1,
            OpCategory::Branch => self.branch += 1,
            OpCategory::Jump => self.jump += 1,
            OpCategory::System => self.system += 1,
        }
    }

    /// Count for one category.
    #[must_use]
    pub fn count(&self, cat: OpCategory) -> u64 {
        match cat {
            OpCategory::IntAlu => self.int_alu,
            OpCategory::IntLoad => self.int_load,
            OpCategory::FpAlu => self.fp_alu,
            OpCategory::FpLoad => self.fp_load,
            OpCategory::Store => self.store,
            OpCategory::Branch => self.branch,
            OpCategory::Jump => self.jump,
            OpCategory::System => self.system,
        }
    }

    /// Total retired instructions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.int_load
            + self.fp_alu
            + self.fp_load
            + self.store
            + self.branch
            + self.jump
            + self.system
    }

    /// Retired instructions that produced a register value (the
    /// value-prediction candidate stream). Jumps write link registers but
    /// the simulator reports `jal r0, …` writes as discarded, so this is an
    /// upper bound used only for reporting.
    #[must_use]
    pub fn value_producing(&self) -> u64 {
        self.int_alu + self.int_load + self.fp_alu + self.fp_load + self.jump
    }

    /// Fraction of the dynamic stream in `cat`, or 0 for an empty mix.
    #[must_use]
    pub fn fraction(&self, cat: OpCategory) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(cat) as f64 / total as f64
        }
    }
}

impl Tracer for InstrMix {
    #[inline]
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.record(ev.instr.op.category());
    }
}

impl fmt::Display for InstrMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "int-alu {} | int-load {} | fp-alu {} | fp-load {} | store {} | branch {} | jump {} | system {}",
            self.int_alu,
            self.int_load,
            self.fp_alu,
            self.fp_load,
            self.store,
            self.branch,
            self.jump,
            self.system
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunLimits};
    use vp_isa::asm::assemble;

    #[test]
    fn mix_counts_by_category() {
        let p = assemble(".f64 1.0\nli r1, 4\nld r2, (r0)\nfld f1, (r0)\nfadd f2, f1, f1\nsd r1, 9(r0)\nbeq r0, r0, skip\nskip: halt\n").unwrap();
        let mut mix = InstrMix::new();
        run(&p, &mut mix, RunLimits::default()).unwrap();
        assert_eq!(mix.count(OpCategory::IntAlu), 1);
        assert_eq!(mix.count(OpCategory::IntLoad), 1);
        assert_eq!(mix.count(OpCategory::FpLoad), 1);
        assert_eq!(mix.count(OpCategory::FpAlu), 1);
        assert_eq!(mix.count(OpCategory::Store), 1);
        assert_eq!(mix.count(OpCategory::Branch), 1);
        assert_eq!(mix.count(OpCategory::System), 1);
        assert_eq!(mix.total(), 7);
        assert!((mix.fraction(OpCategory::Store) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mix_fraction_is_zero() {
        assert_eq!(InstrMix::new().fraction(OpCategory::IntAlu), 0.0);
    }
}
