//! Sparse, word-addressed memory.
//!
//! The machine's memory is an array of 64-bit words indexed by `u64` word
//! addresses. It is backed by lazily allocated fixed-size pages, so workloads
//! can scatter data across a large address space without cost. Unwritten
//! words read as zero, like a zero-filled address space. The low pages,
//! where every workload keeps its data, are indexed directly; higher
//! pages live in a hash map.

use std::collections::HashMap;

/// Words per page. A power of two so address splitting is a shift/mask.
const PAGE_WORDS: usize = 1 << 12;

/// Pages reached by direct indexing (the low 1 Mi words).
const DENSE_PAGES: usize = 256;

/// Sparse word-addressed memory with zero-fill semantics.
///
/// # Examples
///
/// ```
/// use vp_sim::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.read(123), 0);
/// m.write(123, 7);
/// assert_eq!(m.read(123), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    low: Vec<Option<Box<[u64; PAGE_WORDS]>>>,
    high: HashMap<u64, Box<[u64; PAGE_WORDS]>>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Creates a memory whose low words hold `image` (the program's data
    /// segment), starting at word address 0.
    #[must_use]
    pub fn with_image(image: &[u64]) -> Self {
        let mut m = Memory::new();
        for (i, &w) in image.iter().enumerate() {
            if w != 0 {
                m.write(i as u64, w);
            }
        }
        m
    }

    /// Reads the word at `addr` (zero if never written).
    #[must_use]
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let (page, offset) = split(addr);
        match self.low.get(dense_index(page)) {
            Some(Some(words)) => words[offset],
            Some(None) => 0,
            None => self.read_cold(page, offset),
        }
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let (page, offset) = split(addr);
        match self.low.get_mut(dense_index(page)) {
            Some(Some(words)) => words[offset] = value,
            _ => self.write_cold(page, offset, value),
        }
    }

    // The run loop inlines `read` and `write`; what they reach rarely
    // (high pages, dense pages not yet allocated) stays out of line.
    #[cold]
    #[inline(never)]
    fn read_cold(&self, page: u64, offset: usize) -> u64 {
        self.high.get(&page).map_or(0, |words| words[offset])
    }

    #[cold]
    #[inline(never)]
    fn write_cold(&mut self, page: u64, offset: usize, value: u64) {
        let words = match usize::try_from(page) {
            Ok(p) if p < DENSE_PAGES => {
                if p >= self.low.len() {
                    self.low.resize_with(p + 1, || None);
                }
                self.low[p].get_or_insert_with(zero_page)
            }
            _ => self.high.entry(page).or_insert_with(zero_page),
        };
        words[offset] = value;
    }

    /// Number of pages that have been materialised.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.low.iter().flatten().count() + self.high.len()
    }
}

fn zero_page() -> Box<[u64; PAGE_WORDS]> {
    Box::new([0; PAGE_WORDS])
}

/// The index of `page` in the dense tier, or one that no dense page has:
/// `low` never grows past `DENSE_PAGES`, so a high page misses it.
#[inline]
fn dense_index(page: u64) -> usize {
    usize::try_from(page).unwrap_or(usize::MAX)
}

#[inline]
fn split(addr: u64) -> (u64, usize) {
    (
        addr / PAGE_WORDS as u64,
        (addr % PAGE_WORDS as u64) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u64::MAX), 0);
        // A dense page past the allocated ones reads zero too.
        assert_eq!(m.read(5 * PAGE_WORDS as u64 + 3), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut m = Memory::new();
        let addrs = [
            0u64,
            1,
            PAGE_WORDS as u64 - 1,
            PAGE_WORDS as u64,
            10 * PAGE_WORDS as u64 + 17,
        ];
        for (i, &a) in addrs.iter().enumerate() {
            m.write(a, i as u64 + 100);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(m.read(a), i as u64 + 100);
        }
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn image_loads_at_zero() {
        let m = Memory::with_image(&[5, 0, 7]);
        assert_eq!(m.read(0), 5);
        assert_eq!(m.read(1), 0);
        assert_eq!(m.read(2), 7);
        // A zero word of the image materialises nothing.
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn both_tiers_round_trip_at_their_edges() {
        let boundary = (DENSE_PAGES * PAGE_WORDS) as u64;
        let addrs = [
            boundary - PAGE_WORDS as u64, // first word of the last dense page
            boundary - 1,                 // last dense word
            boundary,                     // first spilled word
            boundary + PAGE_WORDS as u64 - 1,
            u64::MAX - PAGE_WORDS as u64,
            u64::MAX,
        ];
        let mut m = Memory::new();
        for (i, &a) in addrs.iter().enumerate() {
            m.write(a, i as u64 + 1);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(m.read(a), i as u64 + 1, "{a:#x}");
        }
        // Unwritten neighbours in resident pages of both tiers read zero.
        assert_eq!(m.read(boundary - 2), 0);
        assert_eq!(m.read(boundary + 1), 0);
        assert_eq!(m.read(u64::MAX - 1), 0);
        // One dense page, one spilled page at the boundary, two at the top.
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn image_reaching_the_spill_tier_fills_both_tiers() {
        let boundary = DENSE_PAGES * PAGE_WORDS;
        let mut image = vec![0u64; boundary + 2];
        image[3] = 1;
        image[boundary - 1] = 2;
        image[boundary + 1] = 3;
        let m = Memory::with_image(&image);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read(boundary as u64 - 1), 2);
        assert_eq!(m.read(boundary as u64 + 1), 3);
        assert_eq!(m.read(boundary as u64), 0);
    }
}
