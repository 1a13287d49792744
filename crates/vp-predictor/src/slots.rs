//! Per-static-instruction state, indexed by address without hashing.
//!
//! Static addresses are program-text indices, so slots live in a dense
//! array indexed by the address. Addresses at or past [`DENSE_LIMIT`]
//! (possible through the public APIs, never produced by the workloads) go
//! to a cold ordered spill map, so one absurd address cannot balloon the
//! array.

use std::collections::BTreeMap;

use vp_isa::InstrAddr;

/// Addresses below this index live in the dense array; the rest spill.
pub const DENSE_LIMIT: usize = 1 << 20;

/// One `T` per static address, iterated in address order.
///
/// # Examples
///
/// ```
/// use vp_isa::InstrAddr;
/// use vp_predictor::PcSlots;
///
/// let mut slots: PcSlots<u64> = PcSlots::new();
/// let (count, fresh) = slots.get_or_insert_with(InstrAddr::new(9), || 0);
/// assert!(fresh);
/// *count += 1;
/// assert_eq!(slots.get_or_insert_with(InstrAddr::new(9), || 0), (&mut 1, false));
/// assert_eq!(slots.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PcSlots<T> {
    dense: Vec<Option<T>>,
    spill: BTreeMap<InstrAddr, T>,
    len: usize,
}

impl<T> Default for PcSlots<T> {
    fn default() -> Self {
        PcSlots {
            dense: Vec::new(),
            spill: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<T> PcSlots<T> {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PcSlots::default()
    }

    /// The slot of `addr`, created with `init` if absent; the flag says
    /// whether this call created it.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        addr: InstrAddr,
        init: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let index = addr.index() as usize;
        let (slot, fresh) = if index < DENSE_LIMIT {
            if index >= self.dense.len() {
                self.dense.resize_with(index + 1, || None);
            }
            let slot = &mut self.dense[index];
            let fresh = slot.is_none();
            (slot.get_or_insert_with(init), fresh)
        } else {
            let fresh = !self.spill.contains_key(&addr);
            (self.spill.entry(addr).or_insert_with(init), fresh)
        };
        self.len += usize::from(fresh);
        (slot, fresh)
    }

    /// The slot of `addr`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, addr: InstrAddr) -> Option<&mut T> {
        let index = addr.index() as usize;
        if index < DENSE_LIMIT {
            self.dense.get_mut(index)?.as_mut()
        } else {
            self.spilled_mut(addr)
        }
    }

    #[cold]
    fn spilled_mut(&mut self, addr: InstrAddr) -> Option<&mut T> {
        self.spill.get_mut(&addr)
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every slot.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.spill.clear();
        self.len = 0;
    }

    /// Every occupied slot, in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrAddr, &T)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((InstrAddr::new(i as u32), slot.as_ref()?)));
        dense.chain(self.spill.iter().map(|(&a, t)| (a, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spilled_slots_iterate_in_address_order() {
        let mut slots: PcSlots<u32> = PcSlots::new();
        let top = u32::MAX;
        let limit = DENSE_LIMIT as u32;
        for a in [top, 7, limit, 3, limit - 1] {
            let (v, fresh) = slots.get_or_insert_with(InstrAddr::new(a), || a);
            assert!(fresh, "{a}");
            assert_eq!(*v, a);
        }
        let (v, fresh) = slots.get_or_insert_with(InstrAddr::new(top), || 0);
        assert!(!fresh);
        assert_eq!(*v, top);
        let order: Vec<u32> = slots.iter().map(|(a, _)| a.index()).collect();
        assert_eq!(order, vec![3, 7, limit - 1, limit, top]);
        assert_eq!(slots.len(), 5);
        slots.clear();
        assert!(slots.is_empty());
        assert_eq!(slots.iter().count(), 0);
    }
}
