//! Correctness digests and the reference table they are checked against.
//!
//! Every operation folds its outputs into a 64-bit FNV-1a digest. The
//! expected digests live in `refs.txt` beside this crate, one
//! `<key> <hex digest>` line per checked unit, recorded from the program
//! with `e2ebench --record`. A unit whose digest differs, or that has no
//! reference, is a failed operation.

use std::collections::HashMap;

use vp_compiler::AnnotationSummary;
use vp_predictor::PredictorStats;
use vp_profile::ProfileImage;

/// The recorded references, compiled into the binary.
const REFS: &str = include_str!("../refs.txt");

/// A streaming FNV-1a (64-bit) digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a profile image through its stable text serialisation.
    pub fn image(&mut self, image: &ProfileImage) {
        self.bytes(vp_profile::format::to_text(image).as_bytes());
    }

    /// Folds in an annotation summary, field by field.
    pub fn summary(&mut self, s: &AnnotationSummary) {
        for v in [
            s.stride_tagged as u64,
            s.last_value_tagged as u64,
            s.below_threshold as u64,
            s.unprofiled as u64,
            s.tagged_execs,
            s.total_execs,
        ] {
            self.u64(v);
        }
    }

    /// Folds in one sweep cell's statistics and table occupancy.
    pub fn stats(&mut self, s: &PredictorStats, occupancy: usize) {
        for v in [
            s.accesses,
            s.hits,
            s.allocations,
            s.evictions,
            s.raw_correct,
            s.raw_correct_recommended,
            s.raw_incorrect_suppressed,
            s.speculated,
            s.speculated_correct,
            occupancy as u64,
        ] {
            self.u64(v);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The expected digest of every checked unit.
#[derive(Debug)]
pub struct References(HashMap<String, u64>);

impl References {
    /// Parses the compiled-in `refs.txt`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed line: the file is part of the benchmark.
    #[must_use]
    pub fn load() -> Self {
        let map = REFS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, hex) = l.split_once(' ').expect("refs.txt: `<key> <hex>` lines");
                let digest = u64::from_str_radix(hex.trim(), 16).expect("refs.txt: hex digest");
                (key.to_owned(), digest)
            })
            .collect();
        References(map)
    }

    /// Checks `digest` against the reference recorded for `key`.
    ///
    /// # Errors
    ///
    /// Describes the mismatch, or the missing reference.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!(
                "{key}: digest {digest:016x}, reference {want:016x}"
            )),
            None => Err(format!("{key}: no reference digest recorded")),
        }
    }
}

/// Formats one `refs.txt` line.
#[must_use]
pub fn ref_line(key: &str, digest: u64) -> String {
    format!("{key} {digest:016x}")
}
