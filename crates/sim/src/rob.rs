//! Reorder buffer: the in-flight instruction window (128 entries in
//! Table 1) and the per-instruction microarchitectural state.

use dcg_isa::Inst;

/// Handle to an in-flight instruction.
///
/// Carries the instruction's dynamic sequence number so stale handles
/// (slots recycled after commit) can be detected: a mismatched handle means
/// the producer already committed, i.e. its value is architecturally ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstId {
    slot: u32,
    seq: u64,
}

impl InstId {
    /// The instruction's global dynamic sequence number (program order).
    pub fn seq(self) -> u64 {
        self.seq
    }

    /// The ROB slot the instruction occupies (dense per-slot columns are
    /// indexed by it).
    pub(crate) fn slot(self) -> usize {
        self.slot as usize
    }
}

/// Microarchitectural state of one in-flight instruction.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The architectural instruction.
    pub inst: Inst,
    /// Dynamic sequence number (program order).
    pub seq: u64,
    /// The front end predicted this branch wrong; fetch is stalled until it
    /// executes.
    pub mispredicted: bool,
    /// Earliest cycle a consumer may issue (result forwarding), set at
    /// issue. Stays `None` for an instruction that writes no result; a
    /// consumer of one waits for its commit.
    pub result_ready: Option<u64>,
    /// Cycle at which the instruction becomes commit-eligible.
    pub complete_at: Option<u64>,
}

impl InFlight {
    /// Fresh entry for `inst` with sequence number `seq`.
    pub fn new(inst: Inst, seq: u64) -> InFlight {
        InFlight {
            inst,
            seq,
            mispredicted: false,
            result_ready: None,
            complete_at: None,
        }
    }

    /// `true` once the instruction may commit at `cycle`.
    pub fn commit_ready(&self, cycle: u64) -> bool {
        matches!(self.complete_at, Some(c) if c <= cycle)
    }
}

/// Circular reorder buffer.
///
/// Entries are allocated at dispatch (program order) and released at commit
/// (program order). Slots are recycled; [`InstId`] handles embed the
/// sequence number so stale handles never alias a newer instruction.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, OpClass};
/// use dcg_sim::Rob;
///
/// let mut rob = Rob::new(128);
/// let id = rob.push(Inst::alu(0x1000, OpClass::IntAlu)).unwrap();
/// rob.get_mut(id).unwrap().complete_at = Some(5);
/// assert!(rob.get(id).unwrap().commit_ready(5));
/// assert_eq!(rob.pop_head().seq, id.seq());
/// assert!(rob.get(id).is_none(), "handles die at commit");
/// ```
#[derive(Debug)]
pub struct Rob {
    entries: Vec<Option<InFlight>>,
    head: usize,
    len: usize,
    next_seq: u64,
}

impl Rob {
    /// An empty reorder buffer with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Rob {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            entries: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Slots in use.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when no slot is free.
    pub fn is_full(&self) -> bool {
        self.len == self.entries.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Allocate the next entry (program order). Returns `None` when full.
    pub fn push(&mut self, inst: Inst) -> Option<InstId> {
        if self.is_full() {
            return None;
        }
        let slot = (self.head + self.len) % self.entries.len();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries[slot] = Some(InFlight::new(inst, seq));
        self.len += 1;
        Some(InstId {
            slot: slot as u32,
            seq,
        })
    }

    /// Entry for `id`, or `None` if it already committed (stale handle).
    pub fn get(&self, id: InstId) -> Option<&InFlight> {
        self.entries[id.slot as usize]
            .as_ref()
            .filter(|e| e.seq == id.seq)
    }

    /// Mutable entry for `id`, or `None` if it already committed.
    pub fn get_mut(&mut self, id: InstId) -> Option<&mut InFlight> {
        self.entries[id.slot as usize]
            .as_mut()
            .filter(|e| e.seq == id.seq)
    }

    /// Handle and state of the oldest in-flight instruction.
    pub fn head(&self) -> Option<(InstId, &InFlight)> {
        if self.is_empty() {
            return None;
        }
        let e = self.entries[self.head].as_ref().expect("head occupied");
        let id = InstId {
            slot: self.head as u32,
            seq: e.seq,
        };
        Some((id, e))
    }

    /// Commit (remove) the oldest instruction and return its state.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn pop_head(&mut self) -> InFlight {
        assert!(!self.is_empty(), "pop from empty ROB");
        let e = self.entries[self.head].take().expect("head occupied");
        self.head = (self.head + 1) % self.entries.len();
        self.len -= 1;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_isa::OpClass;

    fn inst(k: u64) -> Inst {
        Inst::alu(k * 4, OpClass::IntAlu)
    }

    #[test]
    fn push_get_pop_roundtrip() {
        let mut rob = Rob::new(4);
        let a = rob.push(inst(0)).unwrap();
        let b = rob.push(inst(1)).unwrap();
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.get(a).unwrap().seq, 0);
        assert_eq!(rob.get(b).unwrap().seq, 1);
        assert_eq!(rob.head().map(|(id, _)| id), Some(a));
        let popped = rob.pop_head();
        assert_eq!(popped.seq, 0);
        assert_eq!(rob.head().map(|(id, _)| id), Some(b));
    }

    #[test]
    fn full_rejects_push() {
        let mut rob = Rob::new(2);
        rob.push(inst(0)).unwrap();
        rob.push(inst(1)).unwrap();
        assert!(rob.is_full());
        assert!(rob.push(inst(2)).is_none());
        rob.pop_head();
        assert!(rob.push(inst(2)).is_some());
    }

    #[test]
    fn stale_handles_do_not_alias() {
        let mut rob = Rob::new(2);
        let a = rob.push(inst(0)).unwrap();
        rob.pop_head();
        // Fill enough that slot 0 is reused.
        let _b = rob.push(inst(1)).unwrap();
        let c = rob.push(inst(2)).unwrap();
        assert!(rob.get(a).is_none(), "stale handle must not resolve");
        assert!(rob.get(c).is_some());
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut rob = Rob::new(3);
        let mut ids = Vec::new();
        for k in 0..3 {
            ids.push(rob.push(inst(k)).unwrap());
        }
        rob.pop_head();
        rob.pop_head();
        for k in 3..5 {
            ids.push(rob.push(inst(k)).unwrap());
        }
        assert_eq!(rob.head().map(|(id, _)| id), Some(ids[2]));
        let order: Vec<u64> = (0..3).map(|_| rob.pop_head().seq).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn commit_ready_logic() {
        let mut e = InFlight::new(inst(0), 0);
        assert!(!e.commit_ready(100));
        e.complete_at = Some(50);
        assert!(!e.commit_ready(49));
        assert!(e.commit_ready(50));
    }

    #[test]
    #[should_panic(expected = "empty ROB")]
    fn pop_empty_panics() {
        let mut rob = Rob::new(1);
        let _ = rob.pop_head();
    }
}
