//! Load/store queue (64 entries in Table 1): program-order tracking of
//! in-flight memory operations, store-to-load forwarding and conservative
//! same-word conflict detection.
//!
//! Because the workload is trace-like, every memory operation's effective
//! address is known at dispatch; the timing consequences of dependences
//! remain (a load behind an unexecuted same-word store must wait for it).

use std::collections::VecDeque;

use crate::rob::InstId;

/// What a load should do about older stores in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDisposition {
    /// No older store overlaps: access the D-cache.
    AccessCache,
    /// An older store to the same word has executed: forward from the LSQ.
    Forward,
    /// An older store to the same word has not yet executed: the load must
    /// wait (re-attempt selection in a later cycle).
    WaitForStore(InstId),
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    id: InstId,
    is_store: bool,
    /// 8-byte-aligned word address (conflicts detected at word granularity).
    word: u64,
    /// A store's address and data are ready, so a load can forward from
    /// it. Only stores are marked; no query reads a load's flag.
    executed: bool,
}

/// The load/store queue.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, MemRef};
/// use dcg_sim::{LoadDisposition, Lsq, Rob};
///
/// let mut rob = Rob::new(8);
/// let mut lsq = Lsq::new(8);
/// let st = rob.push(Inst::store(0, MemRef::new(0x100, 8))).unwrap();
/// let ld = rob.push(Inst::load(4, MemRef::new(0x100, 8))).unwrap();
/// lsq.push(st, true, 0x100);
/// lsq.push(ld, false, 0x100);
/// // The load must wait until the same-word store executes, then forward.
/// assert_eq!(lsq.load_disposition(ld, 0x100), LoadDisposition::WaitForStore(st));
/// lsq.mark_executed(st);
/// assert_eq!(lsq.load_disposition(ld, 0x100), LoadDisposition::Forward);
/// ```
#[derive(Debug)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// Queued stores per word bucket ([`bucket`]): a load whose bucket
    /// is empty has no same-word store to wait for or forward from, so it
    /// skips the queue scan.
    stores_in_bucket: [u32; BUCKETS],
}

const BUCKETS: usize = 256;

#[inline]
fn bucket(word: u64) -> usize {
    ((word ^ (word >> 8)) as usize) % BUCKETS
}

impl Lsq {
    /// An empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Lsq {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stores_in_bucket: [0; BUCKETS],
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no memory operation is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no slot is free.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a memory operation at dispatch (program order).
    ///
    /// Returns `false` when full.
    pub fn push(&mut self, id: InstId, is_store: bool, addr: u64) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(
            self.entries.back().is_none_or(|b| b.id.seq() < id.seq()),
            "memory operations enter the LSQ in program order"
        );
        let word = addr >> 3;
        if is_store {
            self.stores_in_bucket[bucket(word)] += 1;
        }
        self.entries.push_back(LsqEntry {
            id,
            is_store,
            word,
            executed: false,
        });
        true
    }

    /// Position of `id` if queued, else where it would be inserted.
    /// Entries are pushed in program order, so sequence numbers ascend.
    #[inline]
    fn position(&self, id: InstId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id.seq(), |e| e.id.seq())
    }

    /// Decide how the load `id` (at `addr`) interacts with older stores.
    pub fn load_disposition(&self, id: InstId, addr: u64) -> LoadDisposition {
        let word = addr >> 3;
        if self.stores_in_bucket[bucket(word)] == 0 {
            return LoadDisposition::AccessCache;
        }
        let older = match self.position(id) {
            Ok(i) | Err(i) => i,
        };
        // Newest older store to the same word wins: walk back from the load.
        match self
            .entries
            .range(..older)
            .rev()
            .find(|e| e.is_store && e.word == word)
        {
            None => LoadDisposition::AccessCache,
            Some(e) if e.executed => LoadDisposition::Forward,
            Some(e) => LoadDisposition::WaitForStore(e.id),
        }
    }

    /// Mark a store as executed (address generated, data available for
    /// forwarding). Marking a load changes nothing: dispositions read
    /// only the flags of stores, so the pipeline marks stores only.
    pub fn mark_executed(&mut self, id: InstId) {
        if let Ok(i) = self.position(id) {
            self.entries[i].executed = true;
        }
    }

    /// Remove a memory operation (at commit).
    pub fn remove(&mut self, id: InstId) {
        if let Ok(i) = self.position(id) {
            let e = self.entries.remove(i).expect("position is in range");
            if e.is_store {
                self.stores_in_bucket[bucket(e.word)] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::Rob;
    use dcg_isa::{Inst, MemRef};

    fn mem_ids(n: usize) -> (Rob, Vec<InstId>) {
        let mut rob = Rob::new(n.max(1));
        let v = (0..n)
            .map(|k| {
                rob.push(Inst::load(k as u64 * 4, MemRef::new(0x100, 8)))
                    .unwrap()
            })
            .collect();
        (rob, v)
    }

    #[test]
    fn capacity_enforced() {
        let (_rob, ids) = mem_ids(3);
        let mut lsq = Lsq::new(2);
        assert!(lsq.push(ids[0], false, 0x100));
        assert!(lsq.push(ids[1], true, 0x108));
        assert!(lsq.is_full());
        assert!(!lsq.push(ids[2], false, 0x110));
    }

    #[test]
    fn load_with_no_older_store_accesses_cache() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], false, 0x100);
        lsq.push(ids[1], false, 0x100);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x100),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn load_waits_for_unexecuted_same_word_store() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x200);
        lsq.push(ids[1], false, 0x204); // same 8-byte word as 0x200
        assert_eq!(
            lsq.load_disposition(ids[1], 0x204),
            LoadDisposition::WaitForStore(ids[0])
        );
        lsq.mark_executed(ids[0]);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x204),
            LoadDisposition::Forward
        );
    }

    #[test]
    fn different_word_store_does_not_block() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x200);
        lsq.push(ids[1], false, 0x208);
        assert_eq!(
            lsq.load_disposition(ids[1], 0x208),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn newest_older_store_wins() {
        let (_rob, ids) = mem_ids(3);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x300);
        lsq.push(ids[1], true, 0x300);
        lsq.push(ids[2], false, 0x300);
        lsq.mark_executed(ids[0]);
        // The *newest* older store (ids[1]) is unexecuted, so wait on it.
        assert_eq!(
            lsq.load_disposition(ids[2], 0x300),
            LoadDisposition::WaitForStore(ids[1])
        );
    }

    #[test]
    fn younger_stores_are_ignored() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], false, 0x400); // load (older)
        lsq.push(ids[1], true, 0x400); // store (younger)
        assert_eq!(
            lsq.load_disposition(ids[0], 0x400),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn removed_store_no_longer_matches() {
        let (_rob, ids) = mem_ids(3);
        let mut lsq = Lsq::new(8);
        lsq.push(ids[0], true, 0x500);
        lsq.push(ids[1], true, 0x500);
        lsq.push(ids[2], false, 0x500);
        lsq.mark_executed(ids[1]);
        lsq.remove(ids[0]);
        assert_eq!(
            lsq.load_disposition(ids[2], 0x500),
            LoadDisposition::Forward
        );
        lsq.remove(ids[1]);
        assert_eq!(
            lsq.load_disposition(ids[2], 0x500),
            LoadDisposition::AccessCache
        );
    }

    #[test]
    fn marking_loads_changes_no_disposition() {
        // Stores and loads to two words, interleaved; every load's
        // disposition is compared with and without its older loads marked,
        // before and after each store executes.
        let (_rob, ids) = mem_ids(8);
        let ops = [
            (true, 0x600),
            (false, 0x600),
            (true, 0x608),
            (false, 0x600),
            (false, 0x608),
            (true, 0x600),
            (false, 0x600),
            (false, 0x608),
        ];
        let (mut stores_only, mut all) = (Lsq::new(8), Lsq::new(8));
        for (&id, &(is_store, addr)) in ids.iter().zip(&ops) {
            stores_only.push(id, is_store, addr);
            all.push(id, is_store, addr);
        }
        let dispositions = |lsq: &Lsq| -> Vec<LoadDisposition> {
            ids.iter()
                .zip(&ops)
                .filter(|(_, &(is_store, _))| !is_store)
                .map(|(&id, &(_, addr))| lsq.load_disposition(id, addr))
                .collect()
        };
        for (&id, &(is_store, _)) in ids.iter().zip(&ops) {
            if !is_store {
                all.mark_executed(id);
            }
        }
        assert_eq!(dispositions(&stores_only), dispositions(&all));
        for (&id, &(is_store, _)) in ids.iter().zip(&ops) {
            if is_store {
                stores_only.mark_executed(id);
                all.mark_executed(id);
                assert_eq!(dispositions(&stores_only), dispositions(&all));
            }
        }
        assert!(dispositions(&all).contains(&LoadDisposition::Forward));
        // Removing a marked load leaves the stores' answers as they were.
        stores_only.remove(ids[1]);
        all.remove(ids[1]);
        assert_eq!(dispositions(&stores_only), dispositions(&all));
    }

    #[test]
    fn remove_frees_space() {
        let (_rob, ids) = mem_ids(2);
        let mut lsq = Lsq::new(1);
        lsq.push(ids[0], true, 0x100);
        assert!(lsq.is_full());
        lsq.remove(ids[0]);
        assert!(lsq.is_empty());
        assert!(lsq.push(ids[1], false, 0x108));
    }
}
