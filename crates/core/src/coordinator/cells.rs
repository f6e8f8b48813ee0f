//! The coordinator's `(zone, network)` cell table.
//!
//! Every key inside the zone index owns one `u32` slot, laid out
//! `(col, row, network)` so that slot order is exactly the `Ord` of
//! `(ZoneId, NetworkId)`. A slot holds its cell's storage position plus
//! one (zero = untracked), so a lookup is an index computation and two
//! bounds-checked loads instead of a tree descent. Cells live in chunks
//! of [`CHUNK_CELLS`], each allocated once, in fill order, when the one
//! before it is full, and never reallocated: tracking a new cell never
//! moves an existing one.
//!
//! Keys outside the index (check-ins from points off the grid) go to an
//! ordered overflow map; only the input bounds how many there are. Every
//! ordered walk merges the slots and the overflow in key order, so the
//! table is observably the `BTreeMap` it replaced.

use std::collections::BTreeMap;

use wiscape_geo::CellId;
use wiscape_simnet::NetworkId;

use super::ZoneState;
use crate::zone::{ZoneId, ZoneIndex};

/// A cell key.
pub type Key = (ZoneId, NetworkId);

/// Cells per storage chunk.
const CHUNK_CELLS: usize = 4096;

/// Slots per zone.
const NETWORKS: usize = NetworkId::ALL.len();

/// Storage for every `(zone, network)` cell a coordinator tracks.
#[derive(Debug, Clone)]
pub struct CellTable {
    rows: usize,
    /// One entry per in-index key, in key order: storage position + 1,
    /// or 0 when the key is untracked.
    slots: Vec<u32>,
    /// Cell storage in fill order; every chunk but the last is full.
    chunks: Vec<Vec<ZoneState>>,
    /// Storage positions vacated by [`CellTable::untrack`], reused before
    /// the last chunk grows.
    free: Vec<u32>,
    /// Tracked in-index cells.
    slotted: usize,
    /// Cells whose key lies outside the index.
    overflow: BTreeMap<Key, ZoneState>,
}

impl CellTable {
    /// An empty table over `index`: 12 bytes of zeroed slots per index
    /// zone, no cell storage yet.
    pub fn new(index: &ZoneIndex) -> Self {
        let grid = index.grid();
        let cols = usize::try_from(grid.cols()).unwrap_or(0);
        let rows = usize::try_from(grid.rows()).unwrap_or(0);
        // Slots store positions + 1 as `u32`; an index with more keys
        // than that can number gets no slots, and every key overflows.
        let keys = cols
            .checked_mul(rows)
            .and_then(|zones| zones.checked_mul(NETWORKS))
            .filter(|&n| u32::try_from(n).is_ok_and(|n| n < u32::MAX))
            .unwrap_or(0);
        Self {
            rows,
            slots: vec![0; keys],
            chunks: Vec::new(),
            free: Vec::new(),
            slotted: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// Tracked cells.
    pub fn tracked(&self) -> usize {
        self.slotted + self.overflow.len()
    }

    /// Tracked cells whose key lies outside the index.
    pub fn tracked_out_of_index(&self) -> usize {
        self.overflow.len()
    }

    /// The slot of an in-index key.
    fn slot_of(&self, (zone, network): Key) -> Option<usize> {
        let col = usize::try_from(zone.0.col).ok()?;
        let row = usize::try_from(zone.0.row)
            .ok()
            .filter(|&r| r < self.rows)?;
        let net = usize::try_from(network.index()).ok()?;
        col.checked_mul(self.rows)?
            .checked_add(row)?
            .checked_mul(NETWORKS)?
            .checked_add(net)
            .filter(|&slot| slot < self.slots.len())
    }

    /// The cell stored under `key`, if tracked.
    pub fn cell(&self, key: Key) -> Option<&ZoneState> {
        let Some(slot) = self.slot_of(key) else {
            return self.overflow.get(&key);
        };
        stored(&self.chunks, self.slots.get(slot)?.checked_sub(1)?)
    }

    /// The cell stored under `key`, tracking `fresh()` there first if the
    /// key is new. `None` only if a slot pointed outside storage, which
    /// the table never does.
    pub fn cell_or_insert(
        &mut self,
        key: Key,
        fresh: impl FnOnce() -> ZoneState,
    ) -> Option<&mut ZoneState> {
        let Some(slot) = self.slot_of(key) else {
            return Some(self.overflow.entry(key).or_insert_with(fresh));
        };
        let pos = match self.slots.get(slot).copied()? {
            0 => {
                let pos = self.store(fresh())?;
                *self.slots.get_mut(slot)? = pos + 1;
                self.slotted += 1;
                pos
            }
            pos => pos - 1,
        };
        stored_mut(&mut self.chunks, pos)
    }

    /// Stores a new cell, returning its position: a vacated position if
    /// there is one, else the end of the last chunk.
    fn store(&mut self, state: ZoneState) -> Option<u32> {
        if let Some(pos) = self.free.pop() {
            *stored_mut(&mut self.chunks, pos)? = state;
            return Some(pos);
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK_CELLS) {
            // The chunk's one allocation, on the first touch of its
            // first cell: an allocation on the ingest path (DESIGN.md,
            // "Known soundness gaps").
            self.chunks.push(Vec::with_capacity(CHUNK_CELLS));
        }
        let full = (self.chunks.len() - 1) * CHUNK_CELLS;
        let last = self.chunks.last_mut()?;
        let pos = u32::try_from(full + last.len()).ok()?;
        last.push(state);
        Some(pos)
    }

    /// Stops tracking `key`, returning its cell.
    pub fn untrack(&mut self, key: Key) -> Option<ZoneState> {
        let Some(slot) = self.slot_of(key) else {
            return self.overflow.remove(&key);
        };
        let pos = match self.slots.get_mut(slot)? {
            0 => return None,
            pos => std::mem::take(pos) - 1,
        };
        self.slotted -= 1;
        self.free.push(pos);
        stored(&self.chunks, pos).copied()
    }

    /// Stops tracking every cell.
    pub fn untrack_all(&mut self) {
        if self.slotted > 0 {
            self.slots.fill(0);
        }
        self.chunks.clear();
        self.free.clear();
        self.slotted = 0;
        self.overflow.clear();
    }

    /// Visits every tracked cell in key order.
    pub fn walk(&self, mut f: impl FnMut(Key, &ZoneState)) {
        let mut overflow = self.overflow.iter().peekable();
        for_each_slotted(&self.slots, self.rows, |key, pos| {
            while let Some((k, c)) = overflow.next_if(|(k, _)| **k < key) {
                f(*k, c);
            }
            if let Some(cell) = stored(&self.chunks, pos) {
                f(key, cell);
            }
        });
        overflow.for_each(|(k, c)| f(*k, c));
    }

    /// [`CellTable::walk`] with mutable cells.
    pub fn walk_mut(&mut self, mut f: impl FnMut(Key, &mut ZoneState)) {
        let mut overflow = self.overflow.iter_mut().peekable();
        for_each_slotted(&self.slots, self.rows, |key, pos| {
            while let Some((k, c)) = overflow.next_if(|(k, _)| **k < key) {
                f(*k, c);
            }
            if let Some(cell) = stored_mut(&mut self.chunks, pos) {
                f(key, cell);
            }
        });
        overflow.for_each(|(k, c)| f(*k, c));
    }
}

/// Calls `g(key, storage position)` for every tracked slot of a table
/// with `rows` rows, in slot (= key) order.
fn for_each_slotted(slots: &[u32], rows: usize, mut g: impl FnMut(Key, u32)) {
    let rows = i32::try_from(rows).unwrap_or(i32::MAX);
    let (mut col, mut row) = (0, 0);
    for zone_slots in slots.chunks_exact(NETWORKS) {
        let zone = ZoneId(CellId::new(col, row));
        for (&pos, network) in zone_slots.iter().zip(NetworkId::ALL) {
            if let Some(pos) = pos.checked_sub(1) {
                g((zone, network), pos);
            }
        }
        row += 1;
        if row == rows {
            row = 0;
            col += 1;
        }
    }
}

fn stored(chunks: &[Vec<ZoneState>], pos: u32) -> Option<&ZoneState> {
    let pos = usize::try_from(pos).ok()?;
    chunks.get(pos / CHUNK_CELLS)?.get(pos % CHUNK_CELLS)
}

fn stored_mut(chunks: &mut [Vec<ZoneState>], pos: u32) -> Option<&mut ZoneState> {
    let pos = usize::try_from(pos).ok()?;
    chunks
        .get_mut(pos / CHUNK_CELLS)?
        .get_mut(pos % CHUNK_CELLS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiscape_geo::GeoPoint;

    fn table() -> CellTable {
        let center = GeoPoint::new(43.0731, -89.4012).unwrap();
        CellTable::new(&ZoneIndex::around(center, 2500.0).unwrap())
    }

    #[test]
    fn slot_order_is_key_order() {
        let mut t = table();
        t.slots.fill(1);
        let mut keys = Vec::new();
        for_each_slotted(&t.slots, t.rows, |key, _| keys.push(key));
        assert_eq!(keys.len(), t.slots.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (slot, &key) in keys.iter().enumerate() {
            assert_eq!(t.slot_of(key), Some(slot));
        }
    }

    #[test]
    fn vacated_positions_are_reused() {
        let mut t = table();
        let fresh = || ZoneState::fresh(Default::default(), Default::default());
        let key = |col, row| (ZoneId(CellId::new(col, row)), NetworkId::NetB);
        for col in 0..3 {
            t.cell_or_insert(key(col, 0), fresh)
                .unwrap()
                .issued_this_epoch = col as u32;
        }
        assert_eq!(t.untrack(key(1, 0)).unwrap().issued_this_epoch, 1);
        t.cell_or_insert(key(-1, 0), fresh).unwrap();
        t.cell_or_insert(key(5, 5), fresh).unwrap();
        assert_eq!((t.tracked(), t.tracked_out_of_index()), (4, 1));
        assert_eq!(t.chunks.iter().map(Vec::len).sum::<usize>(), 3);
        let mut walked = Vec::new();
        t.walk(|k, _| walked.push(k));
        assert_eq!(walked, [key(-1, 0), key(0, 0), key(2, 0), key(5, 5)]);
    }
}
