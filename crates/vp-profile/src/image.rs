//! The profile image: the output artifact of phase 2.

use std::collections::BTreeMap;

use vp_isa::InstrAddr;

use crate::record::ratio;
use crate::{InstrProfile, VpCategory};

/// A profile image: one [`InstrProfile`] per value-producing static
/// instruction observed during a training run (or merged over several).
///
/// The paper's profile file is "organized as a table; each entry is
/// associated with an individual instruction and consists of three fields:
/// the instruction's address, its prediction accuracy and its stride
/// efficiency ratio" — this type is that table, with raw counts retained so
/// runs can be merged exactly and with last-value accuracy kept alongside
/// for the Table 2.1 comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileImage {
    name: String,
    records: BTreeMap<InstrAddr, InstrProfile>,
}

impl ProfileImage {
    /// An empty image labelled `name` (typically `workload/input`).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProfileImage {
            name: name.into(),
            records: BTreeMap::new(),
        }
    }

    /// The image's label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the image (merged images get compound names).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The record for `addr`, if that instruction was observed.
    #[must_use]
    pub fn get(&self, addr: InstrAddr) -> Option<&InstrProfile> {
        self.records.get(&addr)
    }

    /// Mutable access, inserting a fresh record if absent.
    pub fn entry(&mut self, addr: InstrAddr, category: VpCategory) -> &mut InstrProfile {
        self.records
            .entry(addr)
            .or_insert_with(|| InstrProfile::new(category))
    }

    /// Inserts or replaces a record (used by the file parser).
    pub fn insert(&mut self, addr: InstrAddr, record: InstrProfile) {
        self.records.insert(addr, record);
    }

    /// Cuts the image at `addr` into `{base}/init` (the records below it)
    /// and `{base}/comp` (the rest): the paper's FP initialisation and
    /// computation phases. Predictor state is per instruction, so each
    /// half equals what profiling that phase alone would record.
    #[must_use]
    pub fn split_at(mut self, addr: InstrAddr, base: &str) -> (ProfileImage, ProfileImage) {
        let comp = self.records.split_off(&addr);
        let half = |phase, records| ProfileImage {
            name: format!("{base}/{phase}"),
            records,
        };
        (half("init", self.records), half("comp", comp))
    }

    /// Number of profiled static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates records in address order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrAddr, &InstrProfile)> {
        self.records.iter().map(|(&a, r)| (a, r))
    }

    /// The set of profiled addresses, in order.
    pub fn addrs(&self) -> impl Iterator<Item = InstrAddr> + '_ {
        self.records.keys().copied()
    }

    /// Total dynamic executions across all records.
    #[must_use]
    pub fn total_execs(&self) -> u64 {
        self.records.values().map(|r| r.execs).sum()
    }

    /// Drops records with fewer than `min_execs` executions.
    ///
    /// Profiles of rarely executed instructions carry little signal; the
    /// Section 4 vectors use a small floor so one-shot instructions do not
    /// read as "0% or 100% accurate" noise.
    pub fn retain_min_execs(&mut self, min_execs: u64) {
        self.records.retain(|_, r| r.execs >= min_execs);
    }

    /// Aggregates the records of one [`VpCategory`]: returns
    /// `(execs, stride_correct, last_value_correct)` totals.
    #[must_use]
    pub fn category_totals(&self, category: VpCategory) -> (u64, u64, u64) {
        self.records
            .values()
            .filter(|r| r.category == category)
            .fold((0, 0, 0), |(e, s, l), r| {
                (e + r.execs, s + r.stride_correct, l + r.last_value_correct)
            })
    }

    /// Dynamic stride-predictor accuracy for one category, in `[0, 1]`
    /// (Table 2.1, "S" columns).
    #[must_use]
    pub fn category_stride_accuracy(&self, category: VpCategory) -> f64 {
        let (e, s, _) = self.category_totals(category);
        ratio(s, e)
    }

    /// Dynamic last-value-predictor accuracy for one category, in `[0, 1]`
    /// (Table 2.1, "L" columns).
    #[must_use]
    pub fn category_last_value_accuracy(&self, category: VpCategory) -> f64 {
        let (e, _, l) = self.category_totals(category);
        ratio(l, e)
    }

    /// Dynamic (execution-weighted) stride efficiency ratio over the whole
    /// image, in `[0, 1]` — the §2.5 aggregate.
    #[must_use]
    pub fn dynamic_stride_efficiency_ratio(&self) -> f64 {
        let (nz, c) = self.records.values().fold((0u64, 0u64), |(nz, c), r| {
            (nz + r.nonzero_stride_correct, c + r.stride_correct)
        });
        ratio(nz, c)
    }
}

impl<'a> IntoIterator for &'a ProfileImage {
    type Item = (InstrAddr, &'a InstrProfile);
    type IntoIter = Box<dyn Iterator<Item = (InstrAddr, &'a InstrProfile)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.records.iter().map(|(&a, r)| (a, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cat: VpCategory, execs: u64, stride: u64, lv: u64) -> InstrProfile {
        InstrProfile {
            category: cat,
            execs,
            stride_correct: stride,
            nonzero_stride_correct: stride / 2,
            last_value_correct: lv,
        }
    }

    #[test]
    fn entry_creates_then_reuses() {
        let mut img = ProfileImage::new("t");
        img.entry(InstrAddr::new(1), VpCategory::IntAlu).execs += 1;
        img.entry(InstrAddr::new(1), VpCategory::IntAlu).execs += 1;
        assert_eq!(img.len(), 1);
        assert_eq!(img.get(InstrAddr::new(1)).unwrap().execs, 2);
    }

    #[test]
    fn category_accuracy_is_execution_weighted() {
        let mut img = ProfileImage::new("t");
        img.insert(InstrAddr::new(0), record(VpCategory::IntAlu, 90, 90, 0));
        img.insert(InstrAddr::new(1), record(VpCategory::IntAlu, 10, 0, 10));
        assert!((img.category_stride_accuracy(VpCategory::IntAlu) - 0.9).abs() < 1e-12);
        assert!((img.category_last_value_accuracy(VpCategory::IntAlu) - 0.1).abs() < 1e-12);
        // Empty category reads 0.
        assert_eq!(img.category_stride_accuracy(VpCategory::FpLoad), 0.0);
    }

    #[test]
    fn retain_min_execs_filters() {
        let mut img = ProfileImage::new("t");
        img.insert(InstrAddr::new(0), record(VpCategory::IntAlu, 100, 1, 1));
        img.insert(InstrAddr::new(1), record(VpCategory::IntAlu, 2, 1, 1));
        img.retain_min_execs(10);
        assert_eq!(img.len(), 1);
        assert!(img.get(InstrAddr::new(0)).is_some());
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut img = ProfileImage::new("t");
        for a in [5u32, 1, 3] {
            img.insert(InstrAddr::new(a), record(VpCategory::IntAlu, 1, 0, 0));
        }
        let order: Vec<u32> = img.addrs().map(|a| a.index()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn dynamic_stride_efficiency_aggregates() {
        let mut img = ProfileImage::new("t");
        img.insert(InstrAddr::new(0), record(VpCategory::IntAlu, 10, 8, 0)); // 4 nonzero
        img.insert(InstrAddr::new(1), record(VpCategory::IntAlu, 10, 4, 0)); // 2 nonzero
        assert!((img.dynamic_stride_efficiency_ratio() - 0.5).abs() < 1e-12);
    }
}
