//! Execution-unit pool: instance tracking, reservation and the paper's
//! sequential-priority selection policy.
//!
//! §3.1 of the paper: *"Among the execution units of the same type, we
//! statically assign priorities to the units, so that the higher-priority
//! units are always chosen to be used before the lower priority units"* —
//! this keeps low-priority units parked in the gated state and minimises
//! control toggling. A round-robin policy is provided for the ablation
//! bench.

use dcg_isa::FuClass;

use crate::config::SimConfig;

/// Per-instance occupancy over the next 64 cycles: bit `k` set means the
/// instance is busy at `now + k`. Shift once per simulated cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyWindow(u64);

impl BusyWindow {
    /// `true` if the span `[now+start, now+start+len)` is entirely free.
    #[inline]
    pub fn is_free_span(self, start: u32, len: u32) -> bool {
        debug_assert!(start + len <= 64, "span escapes the busy window");
        let mask = span_mask(start, len);
        self.0 & mask == 0
    }

    /// Mark the span `[now+start, now+start+len)` busy.
    #[inline]
    pub fn reserve_span(&mut self, start: u32, len: u32) {
        debug_assert!(self.is_free_span(start, len), "double reservation");
        self.0 |= span_mask(start, len);
    }

    /// Advance one cycle (everything moves one cycle closer).
    #[inline]
    pub fn advance(&mut self) {
        self.0 >>= 1;
    }
}

#[inline]
fn span_mask(start: u32, len: u32) -> u64 {
    debug_assert!(len >= 1 && start + len <= 64);
    (((1u128 << len) - 1) as u64) << start
}

/// Instance-selection policy within a unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuSelectPolicy {
    /// Always pick the lowest-numbered free instance (paper §3.1) —
    /// low-numbered units stay hot, high-numbered units stay gated.
    #[default]
    SequentialPriority,
    /// Rotate the starting instance (ablation baseline: maximises toggling).
    RoundRobin,
}

/// One class's slice of the flat instance array.
#[derive(Debug, Clone, Copy)]
struct ClassPool {
    /// Index of instance 0 in [`FuPool::windows`].
    base: usize,
    count: usize,
    enabled: usize,
    rr_next: usize,
}

/// Pool of all execution-unit instances, one sub-pool per [`FuClass`].
///
/// # Example
///
/// ```
/// use dcg_isa::FuClass;
/// use dcg_sim::{FuPool, FuSelectPolicy, SimConfig};
///
/// let cfg = SimConfig::baseline_8wide();
/// let mut pool = FuPool::new(&cfg, FuSelectPolicy::SequentialPriority);
/// // Issue two adds for execution two cycles out: sequential priority
/// // always picks the lowest-numbered free instances (paper §3.1).
/// assert_eq!(pool.try_reserve(FuClass::IntAlu, 2, 1), Some(0));
/// assert_eq!(pool.try_reserve(FuClass::IntAlu, 2, 1), Some(1));
/// // Book both memory ports three cycles out: the first offset from 3
/// // with a free port is then 4.
/// assert_eq!(pool.reserve_any_at(FuClass::MemPort, 3), Some(0));
/// assert_eq!(pool.reserve_any_at(FuClass::MemPort, 3), Some(1));
/// assert_eq!(pool.first_free(FuClass::MemPort, 3), 4);
/// ```
#[derive(Debug)]
pub struct FuPool {
    /// Every instance's busy window, class-major (class order of
    /// [`FuClass::ALL`]), so one pass advances them all.
    windows: Vec<BusyWindow>,
    classes: [ClassPool; FuClass::COUNT],
    policy: FuSelectPolicy,
}

impl FuPool {
    /// Build the pool for `config` with the given selection policy.
    pub fn new(config: &SimConfig, policy: FuSelectPolicy) -> FuPool {
        let mut base = 0;
        let classes = FuClass::ALL.map(|c| {
            let count = config.fu_count(c);
            let pool = ClassPool {
                base,
                count,
                enabled: count,
                rr_next: 0,
            };
            base += count;
            pool
        });
        FuPool {
            windows: vec![BusyWindow::default(); base],
            classes,
            policy,
        }
    }

    /// Number of instances (enabled or not) of `class`.
    pub fn count(&self, class: FuClass) -> usize {
        self.classes[class.index()].count
    }

    /// Number of currently enabled instances of `class`.
    pub fn enabled(&self, class: FuClass) -> usize {
        self.classes[class.index()].enabled
    }

    /// Enable only the first `n` instances of `class` (PLB low-power modes
    /// disable the highest-numbered instances). `n` is clamped to the
    /// instance count.
    pub fn set_enabled(&mut self, class: FuClass, n: usize) {
        let pool = &mut self.classes[class.index()];
        pool.enabled = n.min(pool.count);
    }

    /// Advance all busy windows one cycle.
    pub fn advance(&mut self) {
        for w in &mut self.windows {
            w.advance();
        }
    }

    /// The enabled instances' windows of `class`.
    #[inline]
    fn enabled_windows(&self, class: FuClass) -> &[BusyWindow] {
        let pool = &self.classes[class.index()];
        &self.windows[pool.base..pool.base + pool.enabled]
    }

    /// The first offset at or after `from` at which some enabled instance
    /// of `class` is free for one cycle: one AND over the enabled busy
    /// windows. Returns 64 when every instance is busy to the end of the
    /// window (nothing is ever booked beyond it). Reserves nothing; later
    /// reservations can only move the answer later.
    #[inline]
    pub fn first_free(&self, class: FuClass, from: u32) -> u32 {
        debug_assert!(from < 64, "offset escapes the busy window");
        let all_busy = self
            .enabled_windows(class)
            .iter()
            .fold(u64::MAX, |m, w| m & w.0);
        from + (!all_busy >> from).trailing_zeros().min(64 - from)
    }

    /// Try to reserve an instance of `class` for the span
    /// `[now+start, now+start+occupy)`; returns the chosen instance index.
    pub fn try_reserve(&mut self, class: FuClass, start: u32, occupy: u32) -> Option<usize> {
        let pool = &mut self.classes[class.index()];
        let n = pool.enabled;
        let windows = &mut self.windows[pool.base..pool.base + n];
        let pick = match self.policy {
            FuSelectPolicy::SequentialPriority => {
                windows.iter().position(|w| w.is_free_span(start, occupy))
            }
            FuSelectPolicy::RoundRobin => {
                let found = (0..n)
                    .map(|k| (pool.rr_next + k) % n)
                    .find(|&i| windows[i].is_free_span(start, occupy));
                if let Some(i) = found {
                    pool.rr_next = (i + 1) % n;
                }
                found
            }
        };
        if let Some(i) = pick {
            windows[i].reserve_span(start, occupy);
        }
        pick
    }

    /// Find any enabled instance of `class` free at `now + offset` and
    /// reserve it for one cycle (lowest-numbered first, whatever the
    /// policy: committed stores grabbing a D-cache port).
    pub fn reserve_any_at(&mut self, class: FuClass, offset: u32) -> Option<usize> {
        let pool = &self.classes[class.index()];
        let windows = &mut self.windows[pool.base..pool.base + pool.enabled];
        let pick = windows.iter().position(|w| w.is_free_span(offset, 1))?;
        windows[pick].reserve_span(offset, 1);
        Some(pick)
    }
}

/// Horizon of [`ActiveTracker`] marks, in cycles (the span a
/// [`BusyWindow`] covers).
const ACTIVE_HORIZON: usize = 64;

/// Tracks which unit instances are *active* (holding an operation in any
/// internal pipe stage) each cycle.
///
/// Distinct from [`FuPool`] reservation: a pipelined FPU accepts a new op
/// every cycle (initiation interval 1) but each op keeps the unit's logic
/// switching for its full latency — the unit is only gateable in cycles
/// where *no* op is in flight. This tracker is the ground truth the DCG
/// invariant checks against.
///
/// Stored cycle-major: one per-class instance mask per future cycle, so
/// reading the current cycle's masks is one row and advancing clears one
/// row.
#[derive(Debug, Clone)]
pub struct ActiveTracker {
    /// `rows[(head + k) % ACTIVE_HORIZON][class]`: instances active at
    /// `now + k`.
    rows: [[u32; FuClass::COUNT]; ACTIVE_HORIZON],
    head: usize,
}

impl ActiveTracker {
    /// A tracker with every instance idle.
    pub fn new() -> ActiveTracker {
        ActiveTracker {
            rows: [[0; FuClass::COUNT]; ACTIVE_HORIZON],
            head: 0,
        }
    }

    /// Mark instance `index` of `class` active over
    /// `[now+start, now+start+len)`. Overlapping marks merge (overlapping
    /// ops on a pipelined unit are legal and both keep the unit active);
    /// cycles beyond the 64-cycle horizon are dropped.
    pub fn mark(&mut self, class: FuClass, index: usize, start: u32, len: u32) {
        debug_assert!(index < 32, "instance masks are 32 bits wide");
        let end = (start + len).min(ACTIVE_HORIZON as u32);
        for k in start..end {
            let row = (self.head + k as usize) % ACTIVE_HORIZON;
            self.rows[row][class.index()] |= 1 << index;
        }
    }

    /// Advance one cycle.
    pub fn advance(&mut self) {
        self.rows[self.head] = [0; FuClass::COUNT];
        self.head = (self.head + 1) % ACTIVE_HORIZON;
    }

    /// Every class's active mask in the current cycle, indexed by
    /// [`FuClass::index`].
    pub fn masks_now(&self) -> [u32; FuClass::COUNT] {
        self.rows[self.head]
    }
}

impl Default for ActiveTracker {
    fn default() -> ActiveTracker {
        ActiveTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn pool(policy: FuSelectPolicy) -> FuPool {
        FuPool::new(&SimConfig::baseline_8wide(), policy)
    }

    #[test]
    fn busy_window_span_logic() {
        let mut w = BusyWindow::default();
        assert!(w.is_free_span(2, 3));
        w.reserve_span(2, 3);
        assert!(w.is_free_span(0, 2));
        assert!(!w.is_free_span(2, 1) && !w.is_free_span(4, 1));
        assert!(w.is_free_span(5, 1));
        assert!(!w.is_free_span(4, 1));
        assert!(w.is_free_span(5, 10));
        w.advance();
        assert!(!w.is_free_span(1, 1) && !w.is_free_span(3, 1) && w.is_free_span(4, 1));
        w.advance();
        assert!(!w.is_free_span(0, 1));
    }

    #[test]
    fn sequential_priority_prefers_low_indices() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        // Two simultaneous int-alu reservations must take instances 0, 1.
        assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), Some(0));
        assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), Some(1));
        // Next cycle (advance) the same instances are preferred again.
        p.advance();
        assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), Some(0));
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = pool(FuSelectPolicy::RoundRobin);
        let a = p.try_reserve(FuClass::IntAlu, 2, 1).unwrap();
        p.advance();
        let b = p.try_reserve(FuClass::IntAlu, 2, 1).unwrap();
        assert_ne!(a, b, "round robin must rotate instances across cycles");
    }

    #[test]
    fn exhausting_a_class_returns_none() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        for i in 0..2 {
            assert_eq!(p.try_reserve(FuClass::IntMulDiv, 2, 1), Some(i));
        }
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 2, 1), None);
    }

    #[test]
    fn unpipelined_occupancy_blocks_reissue() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        // A 20-cycle divide occupies instance 0 for 20 cycles.
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 2, 20), Some(0));
        // A second divide goes to instance 1; a third has no instance.
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 2, 20), Some(1));
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 2, 20), None);
        // 10 cycles later both are still busy.
        for _ in 0..10 {
            p.advance();
        }
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 0, 1), None);
        // After the full latency they free up.
        for _ in 0..12 {
            p.advance();
        }
        assert_eq!(p.try_reserve(FuClass::IntMulDiv, 0, 1), Some(0));
    }

    #[test]
    fn disabling_instances_limits_selection() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        p.set_enabled(FuClass::IntAlu, 3); // PLB 4-wide mode: 6 -> 3 ALUs
        assert_eq!(p.enabled(FuClass::IntAlu), 3);
        for i in 0..3 {
            assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), Some(i));
        }
        assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), None);
        // Re-enabling restores capacity.
        p.set_enabled(FuClass::IntAlu, 6);
        assert_eq!(p.try_reserve(FuClass::IntAlu, 2, 1), Some(3));
    }

    #[test]
    fn any_port_reservation() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        assert_eq!(p.first_free(FuClass::MemPort, 1), 1);
        assert_eq!(p.reserve_any_at(FuClass::MemPort, 1), Some(0));
        assert_eq!(p.first_free(FuClass::MemPort, 1), 1, "one port left");
        assert_eq!(p.reserve_any_at(FuClass::MemPort, 1), Some(1));
        assert_eq!(p.first_free(FuClass::MemPort, 1), 2, "both ports booked");
        assert_eq!(p.reserve_any_at(FuClass::MemPort, 1), None);
        assert_eq!(p.first_free(FuClass::MemPort, 0), 0);
        // A first-free search agrees with try_reserve under a narrowed pool.
        p.set_enabled(FuClass::MemPort, 1);
        assert_eq!(p.try_reserve(FuClass::MemPort, 1, 1), None);
        assert_eq!(p.first_free(FuClass::MemPort, 1), 2);
        assert_eq!(p.reserve_any_at(FuClass::MemPort, 2), Some(0));
        // Port 1 is disabled, so its free cycle at 2 does not count.
        assert_eq!(p.first_free(FuClass::MemPort, 1), 3);
    }

    #[test]
    fn first_free_ands_the_enabled_windows() {
        let mut p = pool(FuSelectPolicy::SequentialPriority);
        // Port 0 busy over [3, 10), port 1 over [3, 6) and [7, 12): only
        // offset 6 is free on some port before 10.
        for (port, start, len) in [(0, 3, 7), (1, 3, 3), (1, 7, 5)] {
            p.windows[p.classes[FuClass::MemPort.index()].base + port].reserve_span(start, len);
        }
        assert_eq!(p.first_free(FuClass::MemPort, 2), 2);
        assert_eq!(p.first_free(FuClass::MemPort, 3), 6);
        assert_eq!(p.first_free(FuClass::MemPort, 7), 10);
        assert_eq!(p.reserve_any_at(FuClass::MemPort, 6), Some(1));
        assert_eq!(p.first_free(FuClass::MemPort, 3), 10);
        // Both ports busy to the end of the window.
        for port in 0..2 {
            p.windows[p.classes[FuClass::MemPort.index()].base + port].reserve_span(40, 24);
        }
        assert_eq!(p.first_free(FuClass::MemPort, 40), 64);
        assert_eq!(p.first_free(FuClass::MemPort, 63), 64);
        // No port enabled: nothing is ever free.
        p.set_enabled(FuClass::MemPort, 0);
        assert_eq!(p.first_free(FuClass::MemPort, 0), 64);
    }

    #[test]
    fn active_tracker_marks_merge_and_expire() {
        let mut t = ActiveTracker::new();
        t.mark(FuClass::FpAlu, 0, 1, 2);
        t.mark(FuClass::FpAlu, 2, 2, 1);
        t.mark(FuClass::MemPort, 1, 0, 1);
        assert_eq!(t.masks_now()[FuClass::FpAlu.index()], 0);
        assert_eq!(t.masks_now()[FuClass::MemPort.index()], 0b10);
        t.advance();
        assert_eq!(t.masks_now()[FuClass::FpAlu.index()], 0b001);
        assert_eq!(t.masks_now()[FuClass::MemPort.index()], 0);
        t.advance();
        assert_eq!(t.masks_now()[FuClass::FpAlu.index()], 0b101);
        t.advance();
        assert_eq!(t.masks_now(), [0; FuClass::COUNT]);
        // Marks past the horizon are dropped, not wrapped onto early cycles.
        t.mark(FuClass::IntAlu, 0, 60, 10);
        for k in 0..64 {
            assert_eq!(
                t.masks_now()[FuClass::IntAlu.index()] != 0,
                k >= 60,
                "cycle +{k}"
            );
            t.advance();
        }
        assert_eq!(t.masks_now()[FuClass::IntAlu.index()], 0);
    }
}
