//! Issue queue: an age-ordered window with caller-supplied wakeup/select.
//!
//! The queue itself is policy-free: [`IssueQueue::select`] walks entries
//! oldest-first and lets the pipeline's grant closure decide whether each
//! entry can issue (operand readiness, unit availability, issue-width and
//! PLB constraints). Granted entries are removed; the rest stay. This is
//! the structure whose GRANT outputs the paper taps for DCG (§3.1).

use crate::rob::InstId;

/// Age-ordered issue queue of in-flight instruction handles.
///
/// # Example
///
/// ```
/// use dcg_isa::{Inst, OpClass};
/// use dcg_sim::{IssueQueue, Rob};
///
/// let mut rob = Rob::new(8);
/// let mut iq = IssueQueue::new(8);
/// for k in 0..3 {
///     iq.push(rob.push(Inst::alu(k * 4, OpClass::IntAlu)).unwrap());
/// }
/// // Grant at most two, oldest first; the closure books resources and
/// // answers whether each candidate issues (here: all of them).
/// let mut seen = Vec::new();
/// let granted = iq.select(2, |id| {
///     seen.push(id.seq());
///     true
/// });
/// assert_eq!(granted, 2);
/// assert_eq!(seen, [0, 1]);
/// assert_eq!(iq.iter().next().map(|id| id.seq()), Some(2));
/// ```
#[derive(Debug)]
pub struct IssueQueue {
    entries: Vec<InstId>,
    capacity: usize,
}

impl IssueQueue {
    /// A zero-capacity stand-in that owns no allocation. The pipeline
    /// parks it in its own field while it holds the real queue, so the
    /// grant closure can borrow the rest of the processor.
    pub(crate) const PARKED: IssueQueue = IssueQueue {
        entries: Vec::new(),
        capacity: 0,
    };

    /// An empty queue holding at most `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> IssueQueue {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
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
    /// so the vector stays age-ordered). Returns `false` when full.
    pub fn push(&mut self, id: InstId) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(id);
        true
    }

    /// Select up to `max_grants` instructions, oldest first.
    ///
    /// `try_grant` is called per candidate, in age order, until
    /// `max_grants` have been granted; it performs all readiness checks
    /// *and* resource booking, and returning `true` removes the entry from
    /// the queue. The queue is compacted in place (no allocation). Returns
    /// the number of grants.
    pub fn select(
        &mut self,
        max_grants: usize,
        mut try_grant: impl FnMut(InstId) -> bool,
    ) -> usize {
        let mut granted = 0;
        if max_grants == 0 {
            return granted;
        }
        self.entries.retain(|&id| {
            if granted < max_grants && try_grant(id) {
                granted += 1;
                false
            } else {
                true
            }
        });
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

    #[test]
    fn push_respects_capacity() {
        let (_rob, handles) = ids(3);
        let mut iq = IssueQueue::new(2);
        assert!(iq.push(handles[0]));
        assert!(iq.push(handles[1]));
        assert!(iq.is_full());
        assert!(!iq.push(handles[2]));
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn select_is_oldest_first_and_removes() {
        let (_rob, handles) = ids(4);
        let mut iq = IssueQueue::new(8);
        for &h in &handles {
            iq.push(h);
        }
        // Grant everything except the second-oldest.
        let mut seqs = Vec::new();
        let granted = iq.select(8, |id| {
            let grant = id.seq() != 1;
            if grant {
                seqs.push(id.seq());
            }
            grant
        });
        assert_eq!(granted, 3);
        assert_eq!(seqs, vec![0, 2, 3]);
        let left: Vec<u64> = iq.iter().map(|g| g.seq()).collect();
        assert_eq!(left, vec![1]);
    }

    #[test]
    fn select_honours_max_grants() {
        let (_rob, handles) = ids(6);
        let mut iq = IssueQueue::new(8);
        for &h in &handles {
            iq.push(h);
        }
        let granted = iq.select(2, |_| true);
        assert_eq!(granted, 2);
        assert_eq!(iq.len(), 4);
        // Oldest remaining is seq 2.
        assert_eq!(iq.iter().next().unwrap().seq(), 2);
    }

    #[test]
    fn select_zero_is_noop() {
        let (_rob, handles) = ids(2);
        let mut iq = IssueQueue::new(4);
        for &h in &handles {
            iq.push(h);
        }
        let granted = iq.select(0, |_| true);
        assert_eq!(granted, 0);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn grant_closure_sees_each_candidate_once() {
        let (_rob, handles) = ids(5);
        let mut iq = IssueQueue::new(8);
        for &h in &handles {
            iq.push(h);
        }
        let mut seen = Vec::new();
        let granted = iq.select(8, |id| {
            seen.push(id.seq());
            false
        });
        assert_eq!(granted, 0);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(iq.len(), 5, "nothing granted, nothing removed");
    }
}
