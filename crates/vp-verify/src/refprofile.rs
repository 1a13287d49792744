//! Reference profile collector: the map-based model of
//! [`vp_profile::ProfileCollector`].
//!
//! Per-instruction predictor cells live in a `HashMap` and every value
//! event updates the image's `BTreeMap` record in place, so each step is
//! visibly the paper's phase-2 rule: evaluate both predictors, then train
//! them. An optional phase split writes records below the split to an
//! `{name}/init` image and the rest to `{name}/comp`, with predictor state
//! shared across the phases — the way Section 2 measured the FP phases
//! before phase images were cut from one image with
//! [`vp_profile::ProfileImage::split_at`].

use std::collections::HashMap;

use vp_isa::InstrAddr;
use vp_predictor::{LastValueEntry, PredEntry, StrideEntry};
use vp_profile::{ProfileImage, VpCategory};
use vp_sim::{Retirement, Tracer};

#[derive(Debug, Clone)]
struct PerInstr {
    stride: StrideEntry,
    last_value: LastValueEntry,
}

/// A map-based profiling tracer producing the same images as
/// [`vp_profile::ProfileCollector`].
#[derive(Debug, Clone)]
pub struct RefProfileCollector {
    state: HashMap<InstrAddr, PerInstr>,
    image: ProfileImage,
    comp_image: Option<ProfileImage>,
    split: Option<InstrAddr>,
}

impl RefProfileCollector {
    /// A collector producing a single image named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        RefProfileCollector {
            state: HashMap::new(),
            image: ProfileImage::new(name),
            comp_image: None,
            split: None,
        }
    }

    /// A collector that sends instructions at addresses `< split` to the
    /// `{name}/init` image and the rest to `{name}/comp`.
    #[must_use]
    pub fn with_phase_split(name: impl Into<String>, split: InstrAddr) -> Self {
        let name = name.into();
        RefProfileCollector {
            state: HashMap::new(),
            comp_image: Some(ProfileImage::new(format!("{name}/comp"))),
            image: ProfileImage::new(format!("{name}/init")),
            split: Some(split),
        }
    }

    /// The single image (the init image of a phase-split collector).
    #[must_use]
    pub fn into_image(self) -> ProfileImage {
        self.image
    }

    /// The `(init, computation)` images of a phase-split collector.
    ///
    /// # Panics
    ///
    /// Panics if the collector was not built with a phase split.
    #[must_use]
    pub fn into_phase_images(self) -> (ProfileImage, ProfileImage) {
        let comp = self.comp_image.expect("collector has no phase split");
        (self.image, comp)
    }

    fn image_for(&mut self, addr: InstrAddr) -> &mut ProfileImage {
        match (self.split, &mut self.comp_image) {
            (Some(split), Some(comp)) if addr >= split => comp,
            _ => &mut self.image,
        }
    }
}

impl Tracer for RefProfileCollector {
    fn retire(&mut self, ev: &Retirement<'_>) {
        let Some((_, _, value)) = ev.dest else { return };
        let Some(category) = VpCategory::from_op_category(ev.instr.op.category()) else {
            return;
        };
        let addr = ev.addr;

        // Evaluate both predictors before training; the first occurrence
        // allocates and counts as an (unavoidably) incorrect prediction.
        let (stride_ok, nonzero, lv_ok) = match self.state.get_mut(&addr) {
            Some(per) => {
                let stride_ok = per.stride.predict() == value;
                let nonzero = per.stride.nonzero_stride();
                let lv_ok = per.last_value.predict() == value;
                per.stride.train(value);
                per.last_value.train(value);
                (stride_ok, nonzero, lv_ok)
            }
            None => {
                self.state.insert(
                    addr,
                    PerInstr {
                        stride: StrideEntry::allocate(value),
                        last_value: LastValueEntry::allocate(value),
                    },
                );
                (false, false, false)
            }
        };

        let rec = self.image_for(addr).entry(addr, category);
        rec.execs += 1;
        rec.stride_correct += u64::from(stride_ok);
        rec.nonzero_stride_correct += u64::from(stride_ok && nonzero);
        rec.last_value_correct += u64::from(lv_ok);
    }
}

#[cfg(test)]
mod tests {
    use vp_isa::{Instr, Opcode, Reg, RegClass};
    use vp_predictor::slots::DENSE_LIMIT;
    use vp_profile::format::to_text;
    use vp_profile::{InstrProfile, ProfileCollector};

    use super::*;

    /// A fabricated retirement of `instr` at `addr` writing `value` to `r1`.
    fn event(addr: u32, instr: &Instr, value: u64) -> Retirement<'_> {
        Retirement {
            addr: InstrAddr::new(addr),
            instr,
            dest: Some((RegClass::Int, Reg::new(1), value)),
            mem: None,
            stored: None,
            taken: None,
            next_pc: InstrAddr::new(addr.wrapping_add(1)),
        }
    }

    /// The dense collector's image and the reference's, after both see
    /// `events`; they must agree byte for byte.
    fn both(events: &[Retirement<'_>]) -> ProfileImage {
        let mut dense = ProfileCollector::new("t");
        let mut reference = RefProfileCollector::new("t");
        for ev in events {
            dense.retire(ev);
            reference.retire(ev);
        }
        let (dense, reference) = (dense.into_image(), reference.into_image());
        assert_eq!(to_text(&dense), to_text(&reference));
        dense
    }

    #[test]
    fn spilled_addresses_are_recorded_in_address_order() {
        let addi = Instr::alu_ri(Opcode::Addi, Reg::new(1), Reg::new(1), 3);
        let limit = DENSE_LIMIT as u32;
        let addrs = [u32::MAX, limit + 7, 5, limit, limit - 1];
        let mut events = Vec::new();
        for i in 0..4 {
            for (k, &addr) in addrs.iter().enumerate() {
                // Address k strides by k: 0 is constant, the rest move.
                events.push(event(addr, &addi, 100 + i * k as u64));
            }
        }
        let image = both(&events);
        let order: Vec<u32> = image.addrs().map(InstrAddr::index).collect();
        assert_eq!(order, vec![5, limit - 1, limit, limit + 7, u32::MAX]);
        let constant = image.get(InstrAddr::new(u32::MAX)).unwrap();
        assert_eq!((constant.execs, constant.stride_correct), (4, 3));
        assert_eq!(constant.nonzero_stride_correct, 0);
        assert_eq!(constant.last_value_correct, 3);
        for addr in [limit + 7, 5, limit, limit - 1] {
            let rec = image.get(InstrAddr::new(addr)).unwrap();
            // Misses the allocation and the stride warm-up.
            assert_eq!((rec.execs, rec.stride_correct), (4, 2), "{addr}");
            assert_eq!(rec.nonzero_stride_correct, 2, "{addr}");
            assert_eq!(rec.last_value_correct, 0, "{addr}");
        }
    }

    #[test]
    fn a_first_occurrence_counts_one_execution_and_no_hits() {
        let li = Instr::rd_imm(Opcode::Li, Reg::new(1), 9);
        let image = both(&[event(3, &li, 9)]);
        let expected = InstrProfile {
            execs: 1,
            ..InstrProfile::new(VpCategory::IntAlu)
        };
        assert_eq!(image.get(InstrAddr::new(3)), Some(&expected));
        assert_eq!(image.len(), 1);
    }

    #[test]
    fn a_store_carrying_a_dest_is_not_recorded() {
        let sd = Instr::store(Opcode::Sd, Reg::new(1), Reg::ZERO, 0);
        let beq = Instr::branch(Opcode::Beq, Reg::ZERO, Reg::ZERO, 1);
        let image = both(&[
            event(4, &sd, 1),
            event(4, &sd, 1),
            event(6, &beq, 2),
            event(DENSE_LIMIT as u32 + 1, &sd, 3),
        ]);
        assert!(image.is_empty());
    }
}
