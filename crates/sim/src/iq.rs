//! Issue queue: an age-ordered window with wake-up by producer.
//!
//! Each waiting entry learns when its operands arrive instead of asking
//! every cycle. At dispatch the pipeline hands [`IssueQueue::push`] the
//! latest result cycle among producers that have already issued, plus the
//! producers it still waits on; the entry joins each such producer's
//! dependents list. When the last of them issues (the grant closure
//! answers [`Grant::Result`]) or commits without writing a result
//! ([`IssueQueue::wake`]), the entry's ready cycle is stamped into a dense
//! column indexed by ROB slot: the latest result cycle among all its
//! producers.
//!
//! [`IssueQueue::select`] walks entries oldest-first, skips those whose
//! ready cycle has not come with one read of that column (the ROB is not
//! touched), and lets the pipeline's grant closure decide the rest (unit
//! and port availability, issue width, PLB constraints). Granted entries
//! are removed; the rest stay. This is the structure whose GRANT outputs
//! the paper taps for DCG (§3.1).
//!
//! The dependents lists are intrusive and allocation-free: a link names
//! one source operand of one consumer (`slot * 2 + source`), every ROB
//! slot holds the head of its own list, and every link holds the next.
//! Entries leave the queue only when granted, which needs every producer
//! to have woken them, so no list ever holds a departed consumer, and a
//! producer's list is empty by the time its ROB slot is reused.

use crate::rob::InstId;

/// The end of a dependents list.
const NIL: u32 = u32::MAX;

/// The grant closure's answer for one ready candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Not issued this cycle (no unit, no port, or an older same-word
    /// store): the entry stays.
    Refused,
    /// Issued; its dependents' operands are available from this cycle.
    Result(u64),
    /// Issued without writing a result (a store or a branch): its
    /// dependents wait for the [`IssueQueue::wake`] at its commit.
    NoResult,
}

/// Age-ordered issue queue of in-flight instruction handles.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, OpClass};
/// use dcg_sim::{Grant, IssueQueue, Rob};
///
/// let mut rob = Rob::new(8);
/// let mut iq = IssueQueue::new(8, rob.capacity());
/// let a = rob.push(Inst::alu(0, OpClass::IntAlu)).unwrap();
/// let b = rob.push(Inst::alu(4, OpClass::IntAlu)).unwrap();
/// iq.push(a, 0, [None, None]); // operands ready
/// iq.push(b, 0, [Some(a), None]); // waits for `a`
/// assert_eq!((iq.ready_at(a), iq.ready_at(b)), (Some(0), None));
/// // Cycle 1: only `a` is a candidate; it issues with a result at 3.
/// let mut seen = Vec::new();
/// let granted = iq.select(8, 1, |id| {
///     seen.push(id.seq());
///     Grant::Result(3)
/// });
/// assert_eq!((granted, seen), (1, vec![0]));
/// // `b` was woken for cycle 3, so cycle 2 finds nothing to try.
/// assert_eq!(iq.ready_at(b), Some(3));
/// assert_eq!(iq.select(8, 2, |_| unreachable!()), 0);
/// assert_eq!(iq.select(8, 3, |_| Grant::Result(4)), 1);
/// assert!(iq.is_empty());
/// ```
#[derive(Debug)]
pub struct IssueQueue {
    entries: Vec<InstId>,
    capacity: usize,
    /// Per ROB slot: the cycle from which every operand is available,
    /// stamped when the last producer wakes the entry (`u64::MAX` before).
    ready_at: Vec<u64>,
    /// Per ROB slot: producers that have not woken the entry yet.
    pending: Vec<u8>,
    /// Per ROB slot: the latest result cycle among the producers seen so
    /// far.
    latest_result: Vec<u64>,
    /// Per ROB slot: the first link of the slot's dependents list.
    first_dependent: Vec<u32>,
    /// Per link (`consumer slot * 2 + source`): the next link of the same
    /// producer's list.
    next_dependent: Vec<u32>,
}

impl IssueQueue {
    /// A zero-capacity stand-in that owns no allocation. The pipeline
    /// parks it in its own field while it holds the real queue, so the
    /// grant closure can borrow the rest of the processor.
    pub(crate) const PARKED: IssueQueue = IssueQueue {
        entries: Vec::new(),
        capacity: 0,
        ready_at: Vec::new(),
        pending: Vec::new(),
        latest_result: Vec::new(),
        first_dependent: Vec::new(),
        next_dependent: Vec::new(),
    };

    /// An empty queue holding at most `capacity` instructions from a
    /// reorder buffer of `rob_slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, rob_slots: usize) -> IssueQueue {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            ready_at: vec![u64::MAX; rob_slots],
            pending: vec![0; rob_slots],
            latest_result: vec![0; rob_slots],
            first_dependent: vec![NIL; rob_slots],
            next_dependent: vec![NIL; 2 * rob_slots],
        }
    }

    /// Entries currently waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no instruction is waiting.
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

    /// Insert a dispatched instruction (callers dispatch in program order,
    /// so the queue stays age-ordered). `known` is the latest result cycle
    /// among its producers that have already issued (0 if none);
    /// `waiting` names, per source operand, a producer whose
    /// [`Grant::Result`] or [`wake`](IssueQueue::wake) it still needs.
    /// Returns `false` when full.
    pub fn push(&mut self, id: InstId, known: u64, waiting: [Option<InstId>; 2]) -> bool {
        if self.is_full() {
            return false;
        }
        let slot = id.slot();
        debug_assert_eq!(
            self.first_dependent[slot], NIL,
            "a reused ROB slot starts with no dependents"
        );
        let mut pending = 0;
        for (k, producer) in waiting.into_iter().enumerate() {
            if let Some(p) = producer {
                let link = (2 * slot + k) as u32;
                let head = &mut self.first_dependent[p.slot()];
                self.next_dependent[link as usize] = *head;
                *head = link;
                pending += 1;
            }
        }
        self.pending[slot] = pending;
        self.latest_result[slot] = known;
        self.ready_at[slot] = if pending == 0 { known } else { u64::MAX };
        self.entries.push(id);
        true
    }

    /// Wake `producer`'s dependents: their operands from it are available
    /// from cycle `at`. Empties the producer's list.
    pub fn wake(&mut self, producer: InstId, at: u64) {
        let mut link = std::mem::replace(&mut self.first_dependent[producer.slot()], NIL);
        while link != NIL {
            let c = (link / 2) as usize;
            self.latest_result[c] = self.latest_result[c].max(at);
            self.pending[c] -= 1;
            if self.pending[c] == 0 {
                self.ready_at[c] = self.latest_result[c];
            }
            link = self.next_dependent[link as usize];
        }
    }

    /// The cycle from which every operand of the waiting entry `id` is
    /// available, or `None` while a producer has not woken it.
    pub fn ready_at(&self, id: InstId) -> Option<u64> {
        let slot = id.slot();
        (self.pending[slot] == 0).then_some(self.ready_at[slot])
    }

    /// Select up to `max_grants` instructions in cycle `now`, oldest first.
    ///
    /// `try_grant(id)` is called, in age order until `max_grants` have
    /// been granted, for each entry whose operands are available by `now`;
    /// entries still waiting are skipped without a call. The closure books
    /// the resources and answers; any grant removes the entry, and a
    /// [`Grant::Result`] wakes its dependents at once (a result is never
    /// ready in its issue cycle, so no entry later in the same pass becomes
    /// a candidate). The queue is compacted in place (no allocation).
    /// Returns the number of grants.
    pub fn select(
        &mut self,
        max_grants: usize,
        now: u64,
        mut try_grant: impl FnMut(InstId) -> Grant,
    ) -> usize {
        let mut granted = 0;
        if max_grants == 0 {
            return granted;
        }
        let mut entries = std::mem::take(&mut self.entries);
        entries.retain(|&id| {
            if granted == max_grants || self.ready_at[id.slot()] > now {
                return true;
            }
            match try_grant(id) {
                Grant::Refused => true,
                Grant::Result(at) => {
                    debug_assert!(at > now, "a result is never ready in its issue cycle");
                    self.wake(id, at);
                    granted += 1;
                    false
                }
                Grant::NoResult => {
                    granted += 1;
                    false
                }
            }
        });
        self.entries = entries;
        granted
    }

    /// Iterate waiting entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::Rob;
    use dcg_isa::{Inst, OpClass};

    fn ids(n: usize) -> (Rob, Vec<InstId>) {
        let mut rob = Rob::new(n.max(1));
        let v = (0..n)
            .map(|k| rob.push(Inst::alu(k as u64 * 4, OpClass::IntAlu)).unwrap())
            .collect();
        (rob, v)
    }

    /// A queue holding every handle in `handles`, all ready at cycle 0.
    fn ready_queue(rob: &Rob, handles: &[InstId]) -> IssueQueue {
        let mut iq = IssueQueue::new(8, rob.capacity());
        for &h in handles {
            assert!(iq.push(h, 0, [None, None]));
        }
        iq
    }

    fn grant_if(yes: bool) -> Grant {
        if yes {
            Grant::Result(u64::MAX)
        } else {
            Grant::Refused
        }
    }

    #[test]
    fn push_respects_capacity() {
        let (rob, handles) = ids(3);
        let mut iq = IssueQueue::new(2, rob.capacity());
        assert!(iq.push(handles[0], 0, [None, None]));
        assert!(iq.push(handles[1], 0, [None, None]));
        assert!(iq.is_full());
        assert!(!iq.push(handles[2], 0, [None, None]));
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn select_is_oldest_first_and_removes() {
        let (rob, handles) = ids(4);
        let mut iq = ready_queue(&rob, &handles);
        // Grant everything except the second-oldest.
        let mut seqs = Vec::new();
        let granted = iq.select(8, 1, |id| {
            let grant = id.seq() != 1;
            if grant {
                seqs.push(id.seq());
            }
            grant_if(grant)
        });
        assert_eq!(granted, 3);
        assert_eq!(seqs, vec![0, 2, 3]);
        let left: Vec<u64> = iq.iter().map(|g| g.seq()).collect();
        assert_eq!(left, vec![1]);
    }

    #[test]
    fn select_honours_max_grants() {
        let (rob, handles) = ids(6);
        let mut iq = ready_queue(&rob, &handles);
        let granted = iq.select(2, 1, |_| Grant::NoResult);
        assert_eq!(granted, 2);
        assert_eq!(iq.len(), 4);
        // Oldest remaining is seq 2.
        assert_eq!(iq.iter().next().unwrap().seq(), 2);
    }

    #[test]
    fn select_zero_is_noop() {
        let (rob, handles) = ids(2);
        let mut iq = ready_queue(&rob, &handles);
        let granted = iq.select(0, 1, |_| Grant::NoResult);
        assert_eq!(granted, 0);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn grant_closure_sees_each_ready_candidate_once() {
        let (rob, handles) = ids(5);
        let mut iq = ready_queue(&rob, &handles);
        let mut seen = Vec::new();
        let granted = iq.select(8, 1, |id| {
            seen.push(id.seq());
            Grant::Refused
        });
        assert_eq!(granted, 0);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(iq.len(), 5, "nothing granted, nothing removed");
    }

    #[test]
    fn the_last_producer_stamps_the_latest_result_cycle() {
        let (rob, h) = ids(4);
        let mut iq = IssueQueue::new(8, rob.capacity());
        iq.push(h[0], 0, [None, None]);
        iq.push(h[1], 0, [None, None]);
        // h[2] already has an operand from cycle 3 and waits on h[0] and
        // h[1]; h[3] reads h[0] through both sources.
        iq.push(h[2], 3, [Some(h[0]), Some(h[1])]);
        iq.push(h[3], 0, [Some(h[0]), Some(h[0])]);
        let candidates = |iq: &mut IssueQueue, now| {
            let mut seen = Vec::new();
            iq.select(8, now, |id| {
                seen.push(id.seq());
                Grant::Refused
            });
            seen
        };
        assert_eq!(candidates(&mut iq, 1), [0, 1]);
        assert_eq!((iq.ready_at(h[2]), iq.ready_at(h[3])), (None, None));
        // h[0] issues with a result at 5: h[3] (both sources) is woken,
        // h[2] still waits on h[1].
        iq.select(1, 1, |_| Grant::Result(5));
        assert_eq!((iq.ready_at(h[2]), iq.ready_at(h[3])), (None, Some(5)));
        assert_eq!(candidates(&mut iq, 4), [1]);
        assert_eq!(candidates(&mut iq, 5), [1, 3]);
        // h[1] writes no result: h[2] waits for its commit's wake-up.
        iq.select(1, 5, |_| Grant::NoResult);
        assert_eq!(candidates(&mut iq, 6), [3]);
        iq.wake(h[1], 7);
        assert_eq!(iq.ready_at(h[2]), Some(7));
        assert_eq!(candidates(&mut iq, 7), [2, 3]);
        assert_eq!(iq.iter().map(|id| id.seq()).collect::<Vec<_>>(), [2, 3]);
    }
}
