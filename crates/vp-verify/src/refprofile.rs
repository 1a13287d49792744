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
