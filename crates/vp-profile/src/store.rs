//! Store-value profiling: the §2.1 generalization.
//!
//! The paper notes the prediction schemes "could be generalized and applied
//! to memory storage operands, special registers, the program counter and
//! condition codes". This collector measures the first of those: for each
//! static store instruction, the predictability of the *values it writes to
//! memory* under the same unbounded last-value and stride predictors used
//! for destination registers.

use vp_sim::{Retirement, Tracer};

use crate::collector::Cells;
use crate::{ProfileImage, VpCategory};

/// A tracer profiling the values written by store instructions.
///
/// Produces a [`ProfileImage`] whose records carry
/// [`VpCategory::Store`]; the same accuracy/efficiency accessors apply.
///
/// # Examples
///
/// ```
/// use vp_isa::asm::assemble;
/// use vp_sim::{run, RunLimits};
/// use vp_profile::StoreValueCollector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The stored value strides by 2 every iteration.
/// let p = assemble(
///     "li r1, 0\nli r2, 100\ntop: slli r3, r1, 1\nsd r3, 50(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n",
/// )?;
/// let mut c = StoreValueCollector::new("demo");
/// run(&p, &mut c, RunLimits::default())?;
/// let image = c.into_image();
/// let rec = image.get(vp_isa::InstrAddr::new(3)).unwrap();
/// assert!(rec.stride_accuracy() > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StoreValueCollector(Cells);

impl StoreValueCollector {
    /// An empty collector labelled `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StoreValueCollector(Cells::new(name.into()))
    }

    /// Finishes collection, returning the store-value profile image.
    #[must_use]
    pub fn into_image(self) -> ProfileImage {
        self.0.into_image()
    }
}

impl Tracer for StoreValueCollector {
    #[inline]
    fn retire(&mut self, ev: &Retirement<'_>) {
        if let Some(value) = ev.stored {
            self.0.observe(ev.addr, value, || Some(VpCategory::Store));
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
        let mut c = StoreValueCollector::new("t");
        run(&p, &mut c, RunLimits::default()).unwrap();
        c.into_image()
    }

    #[test]
    fn constant_stores_are_last_value_predictable() {
        let img = profile("li r1, 0\nli r2, 50\nli r3, 7\ntop: sd r3, 10(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        let rec = img.get(vp_isa::InstrAddr::new(3)).unwrap();
        assert_eq!(rec.execs, 50);
        assert_eq!(rec.last_value_correct, 49);
        assert_eq!(rec.category, VpCategory::Store);
    }

    #[test]
    fn loads_and_alu_are_not_collected() {
        let img = profile("li r1, 5\nld r2, (r0)\nadd r3, r1, r2\nsd r3, (r0)\nhalt\n");
        assert_eq!(img.len(), 1, "only the store is profiled");
        assert!(img.get(vp_isa::InstrAddr::new(3)).is_some());
    }

    #[test]
    fn fp_stores_are_profiled_too() {
        let img = profile(".f64 2.5\nli r1, 0\nli r2, 30\nfld f1, (r0)\ntop: fsd f1, 10(r1)\naddi r1, r1, 1\nbne r1, r2, top\nhalt\n");
        let rec = img.get(vp_isa::InstrAddr::new(3)).unwrap();
        assert_eq!(rec.execs, 30);
        // Same bits stored every time: perfect last-value locality.
        assert_eq!(rec.last_value_correct, 29);
    }

    #[test]
    fn store_category_survives_the_file_format() {
        let img = profile("li r1, 1\nsd r1, (r0)\nsd r1, 1(r0)\nhalt\n");
        let text = crate::format::to_text(&img);
        assert!(text.contains(" store"));
        let back = crate::format::from_text(&text).unwrap();
        assert_eq!(back, img);
    }
}
