//! The profiling tracer: emulates both value predictors during a run.

use vp_isa::InstrAddr;
use vp_predictor::{PcSlots, PredEntry, StrideEntry};
use vp_sim::{Retirement, Tracer};

use crate::{InstrProfile, ProfileImage, VpCategory};

/// Everything kept about one static instruction: its stride cell and counts.
#[derive(Debug, Clone)]
struct Slot {
    stride: StrideEntry,
    profile: InstrProfile,
}

/// The per-instruction predictor cells and counts behind
/// [`ProfileCollector`] and [`crate::StoreValueCollector`].
#[derive(Debug, Clone)]
pub(crate) struct Cells {
    name: String,
    slots: PcSlots<Slot>,
}

impl Cells {
    pub(crate) fn new(name: String) -> Self {
        Cells {
            name,
            slots: PcSlots::new(),
        }
    }

    /// Counts one value produced at `addr`, evaluating both predictors
    /// before training them. A first occurrence allocates a slot of
    /// `category()` (or is ignored if that is `None`) and counts as a miss.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        addr: InstrAddr,
        value: u64,
        category: impl FnOnce() -> Option<VpCategory>,
    ) {
        if let Some(slot) = self.slots.get_mut(addr) {
            let rec = &mut slot.profile;
            let stride_ok = slot.stride.predict() == value;
            rec.execs += 1;
            rec.stride_correct += u64::from(stride_ok);
            rec.nonzero_stride_correct += u64::from(stride_ok && slot.stride.nonzero_stride());
            rec.last_value_correct += u64::from(slot.stride.last() == value);
            slot.stride.train(value);
        } else if let Some(category) = category() {
            self.allocate(addr, category, value);
        }
    }

    #[cold]
    fn allocate(&mut self, addr: InstrAddr, category: VpCategory, value: u64) {
        let mut profile = InstrProfile::new(category);
        profile.execs = 1;
        let slot = Slot {
            stride: StrideEntry::allocate(value),
            profile,
        };
        self.slots.get_or_insert_with(addr, || slot);
    }

    /// The image, built once in address order.
    pub(crate) fn into_image(self) -> ProfileImage {
        let mut image = ProfileImage::new(self.name);
        for (addr, slot) in self.slots.iter() {
            image.insert(addr, slot.profile);
        }
        image
    }
}

/// A `vp-sim` [`Tracer`] that builds a [`ProfileImage`].
///
/// For every value-producing static instruction it emulates an unbounded
/// stride predictor and an unbounded last-value predictor (the paper's
/// phase-2 simulator "can emulate the operation of the value predictor and
/// measure for each instruction its prediction accuracy" — emulating both
/// costs nothing and yields Table 2.1 for free).
///
/// The two predictors share one cell: both are allocated with the first
/// value and trained with every value, so the stride cell's last value is
/// the last-value prediction. That cell and the instruction's counts share
/// one [`PcSlots`] slot, so a value event costs one direct-indexed lookup;
/// the category is looked up only when the slot is allocated. The image is
/// built once, in address order, by [`ProfileCollector::into_image`].
/// Phase images (the paper's FP init/computation split) are cut from the
/// finished image with [`ProfileImage::split_at`].
#[derive(Debug, Clone)]
pub struct ProfileCollector(Cells);

impl ProfileCollector {
    /// A collector producing an image named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProfileCollector(Cells::new(name.into()))
    }

    /// Finishes collection, returning the image.
    #[must_use]
    pub fn into_image(self) -> ProfileImage {
        self.0.into_image()
    }
}

impl Tracer for ProfileCollector {
    // `always`: with a plain `#[inline]`, provp-core's training runs
    // (`Suite::profile_once`) still call this out of line.
    #[inline(always)]
    fn retire(&mut self, ev: &Retirement<'_>) {
        if let Some((_, _, value)) = ev.dest {
            let category = || VpCategory::from_op_category(ev.instr.op.category());
            self.0.observe(ev.addr, value, category);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;
    use vp_sim::{run, RunLimits};

    fn profile(src: &str) -> ProfileImage {
        let p = assemble(src).unwrap();
        let mut c = ProfileCollector::new("test");
        run(&p, &mut c, RunLimits::default()).unwrap();
        c.into_image()
    }

    #[test]
    fn loop_index_is_stride_predictable() {
        // The paper's Table 3.1 situation: index increments predict ~100%
        // by stride, ~0% by last-value.
        let img = profile("li r1, 0\nli r2, 200\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        let rec = img.get(InstrAddr::new(2)).unwrap();
        assert_eq!(rec.execs, 200);
        // Misses only the allocation and the stride warm-up.
        assert_eq!(rec.stride_correct, 198);
        assert_eq!(rec.nonzero_stride_correct, 198);
        assert_eq!(rec.last_value_correct, 0);
    }

    #[test]
    fn constant_reload_is_last_value_predictable() {
        let img = profile(
            ".data 77\nli r1, 0\nli r2, 100\ntop: ld r3, (r0)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        );
        let rec = img.get(InstrAddr::new(2)).unwrap();
        assert_eq!(rec.execs, 100);
        assert_eq!(rec.last_value_correct, 99);
        assert_eq!(rec.stride_correct, 99); // zero stride also repeats
        assert_eq!(rec.nonzero_stride_correct, 0); // ... with no stride use
        assert!(rec.stride_efficiency_ratio() < 0.01);
    }

    #[test]
    fn non_producers_are_not_recorded() {
        let img = profile("li r1, 1\nsd r1, (r0)\nbeq r0, r0, next\nnext: halt\n");
        assert!(
            img.get(InstrAddr::new(1)).is_none(),
            "store must not be profiled"
        );
        assert!(
            img.get(InstrAddr::new(2)).is_none(),
            "branch must not be profiled"
        );
        assert_eq!(img.len(), 1);
    }

    #[test]
    fn categories_split_int_and_fp() {
        let img = profile(
            ".f64 1.0\nli r1, 0\nli r2, 50\ntop: fld f1, (r0)\nfadd f2, f1, f1\nld r3, (r0)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
        );
        use crate::VpCategory::*;
        assert!(img.category_last_value_accuracy(FpLoad) > 0.9);
        assert!(img.category_last_value_accuracy(FpAlu) > 0.9);
        assert!(img.category_last_value_accuracy(IntLoad) > 0.9);
        // Loop index makes int-alu stride-friendly and lv-hostile.
        assert!(img.category_stride_accuracy(IntAlu) > 0.9);
        assert!(img.category_last_value_accuracy(IntAlu) < 0.1);
    }

    #[test]
    fn phase_split_partitions_by_address() {
        let src = "li r1, 0\nli r2, 30\ninit: addi r1, r1, 1\nbne r1, r2, init\nli r3, 0\ncomp: addi r3, r3, 2\nbne r3, r2, comp\nhalt\n";
        let (init, comp) = profile(src).split_at(InstrAddr::new(4), "t");
        assert!(init.get(InstrAddr::new(2)).is_some());
        assert!(init.get(InstrAddr::new(5)).is_none());
        assert!(comp.get(InstrAddr::new(5)).is_some());
        assert!(comp.get(InstrAddr::new(2)).is_none());
        assert_eq!(init.name(), "t/init");
        assert_eq!(comp.name(), "t/comp");
    }
}
