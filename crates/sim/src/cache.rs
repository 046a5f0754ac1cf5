//! Set-associative caches and the two-level hierarchy (Table 1: 64 KB
//! 2-way 2-cycle L1 I/D, 2 MB 8-way 12-cycle unified L2, LRU replacement,
//! 100-cycle infinite-capacity main memory).
//!
//! Timing model: accesses return the cycle at which their data is
//! available. Misses are non-blocking — each outstanding line fill is
//! tracked so secondary misses to the same line merge with the fill in
//! flight (MSHR behaviour) instead of paying the full latency again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::config::CacheConfig;

/// Hasher for line-number keys: one multiply by the 64-bit golden-ratio
/// constant, high half folded into the low half (hashbrown takes bucket
/// bits from the low end and tag bits from the top). The keys are the
/// simulated program's own line addresses, looked up on every cache
/// access, so SipHash's protection against crafted collisions buys
/// nothing here but costs time; a program that made its lines collide
/// would only slow its own simulation.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Outstanding line fills: line number -> fill completion cycle.
type PendingFills = HashMap<u64, u64, BuildHasherDefault<LineHasher>>;

/// Result of a tag-array lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent (caller decides how to fill).
    Miss,
}

/// One set-associative, LRU, write-allocate cache level (tags only — the
/// simulator needs residency, not data).
///
/// # Example
///
/// ```
/// use dcg_sim::{CacheArray, LookupResult, SimConfig};
///
/// let mut l1 = CacheArray::new(SimConfig::baseline_8wide().dcache);
/// assert_eq!(l1.probe(0x1000), LookupResult::Miss);
/// l1.fill(0x1000);
/// assert_eq!(l1.probe(0x1000), LookupResult::Hit);
/// assert_eq!(l1.misses(), 1);
/// ```
#[derive(Debug)]
pub struct CacheArray {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    tags: Vec<u64>,
    valid: Vec<bool>,
    lru: Vec<u64>,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl CacheArray {
    /// Build the tag array for `cfg`.
    pub fn new(cfg: CacheConfig) -> CacheArray {
        let sets = cfg.sets();
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^k");
        CacheArray {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![0; sets * cfg.ways],
            valid: vec![false; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration this array was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Probe for `addr`, updating LRU and hit/miss statistics.
    pub fn probe(&mut self, addr: u64) -> LookupResult {
        self.accesses += 1;
        self.tick += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        for w in 0..self.cfg.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == line {
                self.lru[i] = self.tick;
                return LookupResult::Hit;
            }
        }
        self.misses += 1;
        LookupResult::Miss
    }

    /// Probe without perturbing state or statistics (testing/debug).
    pub fn peek(&self, addr: u64) -> LookupResult {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        for w in 0..self.cfg.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == line {
                return LookupResult::Hit;
            }
        }
        LookupResult::Miss
    }

    /// Install the line containing `addr`, evicting the set's LRU way if
    /// necessary. Returns the evicted line's base address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        // Already present (merged fill): refresh.
        for w in 0..self.cfg.ways {
            let i = base + w;
            if self.valid[i] && self.tags[i] == line {
                self.lru[i] = self.tick;
                return None;
            }
        }
        // Invalid way first.
        for w in 0..self.cfg.ways {
            let i = base + w;
            if !self.valid[i] {
                self.valid[i] = true;
                self.tags[i] = line;
                self.lru[i] = self.tick;
                return None;
            }
        }
        // Evict LRU.
        let victim = (0..self.cfg.ways)
            .map(|w| base + w)
            .min_by_key(|&i| self.lru[i])
            .expect("ways > 0");
        let evicted = self.tags[victim] << self.line_shift;
        self.tags[victim] = line;
        self.lru[victim] = self.tick;
        Some(evicted)
    }

    /// Accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Timing outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available to the pipeline.
    pub data_ready: u64,
    /// L1 missed.
    pub l1_miss: bool,
    /// L2 was accessed and missed (went to memory).
    pub l2_miss: bool,
    /// A next-line prefetch was launched alongside this access.
    pub prefetched: bool,
}

/// A two-level hierarchy: a private L1 in front of a shared L2 in front of
/// fixed-latency memory. The instruction and data sides each own one of
/// these (sharing the L2 between them is modelled by identical L2 contents
/// pressure being negligible for the synthetic workloads — documented in
/// DESIGN.md).
///
/// # Example
///
/// ```
/// use dcg_sim::{CacheHierarchy, SimConfig};
///
/// let cfg = SimConfig::baseline_8wide();
/// let mut d = CacheHierarchy::new(cfg.dcache, cfg.l2, cfg.mem_latency);
/// let cold = d.access(0x8000, 0);
/// assert!(cold.l1_miss && cold.l2_miss);
/// assert_eq!(cold.data_ready, 2 + 12 + 100); // L1 + L2 + memory
/// let warm = d.access(0x8000, cold.data_ready + 1);
/// assert!(!warm.l1_miss);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: CacheArray,
    l2: CacheArray,
    mem_latency: u32,
    /// Outstanding L1 line fills: line -> fill completion cycle.
    ///
    /// Entries are retired lazily — only when an access to the same line
    /// finds its fill already landed — and never pruned by age. Access
    /// cycles are not monotonic (a committed store is scheduled up to 33
    /// cycles ahead, a load 3), so an entry that looks stale to one access
    /// can still delay an earlier-scheduled one; and
    /// [`maybe_prefetch`](Self::maybe_prefetch) skips any line that still
    /// has an entry, landed or not. Pruning would therefore move timing
    /// and the prefetch ablation. Nothing iterates these maps, so their
    /// size costs only memory.
    l1_pending: PendingFills,
    /// Outstanding L2 line fills (retired lazily, like `l1_pending`).
    l2_pending: PendingFills,
    l2_accesses: u64,
    l2_misses_seen: u64,
    prefetch_next_line: bool,
    prefetches: u64,
}

impl CacheHierarchy {
    /// Build a hierarchy from the two level configurations and the memory
    /// latency.
    pub fn new(l1: CacheConfig, l2: CacheConfig, mem_latency: u32) -> CacheHierarchy {
        CacheHierarchy {
            l1: CacheArray::new(l1),
            l2: CacheArray::new(l2),
            mem_latency,
            l1_pending: PendingFills::default(),
            l2_pending: PendingFills::default(),
            l2_accesses: 0,
            l2_misses_seen: 0,
            prefetch_next_line: false,
            prefetches: 0,
        }
    }

    /// Enable the tagged next-line prefetcher: every demand miss also
    /// launches a fill for the following line (an extension knob — the
    /// paper's Table-1 machine has no prefetcher).
    pub fn with_next_line_prefetch(mut self) -> CacheHierarchy {
        self.prefetch_next_line = true;
        self
    }

    /// Next-line prefetches launched so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Access `addr` at `cycle`; returns when data is ready and which
    /// levels missed. Writes allocate like reads (write-allocate policy);
    /// write-back traffic is not timed (write buffers hide it).
    pub fn access(&mut self, addr: u64, cycle: u64) -> AccessOutcome {
        let l1_line = addr >> self.l1.line_shift;
        let l1_lat = u64::from(self.l1.config().latency);

        // Merge with an in-flight fill for this line, if newer than a hit.
        if let Some(&fill) = self.l1_pending.get(&l1_line) {
            if fill > cycle {
                return AccessOutcome {
                    data_ready: fill.max(cycle + l1_lat),
                    l1_miss: true,
                    l2_miss: false,
                    prefetched: false,
                };
            }
            // The fill already landed (lines are installed eagerly at miss
            // time); just retire the MSHR entry.
            self.l1_pending.remove(&l1_line);
        }

        match self.l1.probe(addr) {
            LookupResult::Hit => AccessOutcome {
                data_ready: cycle + l1_lat,
                l1_miss: false,
                l2_miss: false,
                prefetched: false,
            },
            LookupResult::Miss => {
                let (l2_ready, l2_miss) = self.access_l2(addr, cycle + l1_lat);
                let data_ready = l2_ready;
                self.l1_pending.insert(l1_line, data_ready);
                // Install eagerly; residency from 'now' is a fine
                // approximation since timing comes from the pending map.
                self.l1.fill(addr);
                let prefetched = self.maybe_prefetch(addr, cycle + l1_lat);
                AccessOutcome {
                    data_ready,
                    l1_miss: true,
                    l2_miss,
                    prefetched,
                }
            }
        }
    }

    /// Launch a next-line fill on a demand miss, if enabled and not
    /// already resident or in flight. Returns whether one was launched.
    fn maybe_prefetch(&mut self, addr: u64, cycle: u64) -> bool {
        if !self.prefetch_next_line {
            return false;
        }
        let next =
            addr.wrapping_add(self.l1.config().line_bytes) & !(self.l1.config().line_bytes - 1);
        let line = next >> self.l1.line_shift;
        if self.l1_pending.contains_key(&line) || self.l1.peek(next) == LookupResult::Hit {
            return false;
        }
        let (ready, _) = self.access_l2(next, cycle);
        self.l1_pending.insert(line, ready);
        self.l1.fill(next);
        self.prefetches += 1;
        true
    }

    fn access_l2(&mut self, addr: u64, cycle: u64) -> (u64, bool) {
        self.l2_accesses += 1;
        let l2_line = addr >> self.l2.line_shift;
        let l2_lat = u64::from(self.l2.config().latency);

        if let Some(&fill) = self.l2_pending.get(&l2_line) {
            if fill > cycle {
                return (fill.max(cycle + l2_lat), true);
            }
            self.l2_pending.remove(&l2_line);
        }

        match self.l2.probe(addr) {
            LookupResult::Hit => (cycle + l2_lat, false),
            LookupResult::Miss => {
                self.l2_misses_seen += 1;
                let ready = cycle + l2_lat + u64::from(self.mem_latency);
                self.l2_pending.insert(l2_line, ready);
                self.l2.fill(addr);
                (ready, true)
            }
        }
    }

    /// The L1 tag array (for statistics).
    pub fn l1(&self) -> &CacheArray {
        &self.l1
    }

    /// The L2 tag array (for statistics).
    pub fn l2(&self) -> &CacheArray {
        &self.l2
    }

    /// L2 accesses observed (equals L1 misses routed down).
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }

    /// L2 misses observed (went to main memory).
    pub fn l2_misses(&self) -> u64 {
        self.l2_misses_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 1 << 10, // 1 KB
            ways: 2,
            line_bytes: 32,
            latency: 2,
        }
    }

    fn small_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 << 10,
            ways: 4,
            line_bytes: 64,
            latency: 12,
        }
    }

    #[test]
    fn array_hit_after_fill() {
        let mut c = CacheArray::new(small_l1());
        assert_eq!(c.probe(0x1000), LookupResult::Miss);
        c.fill(0x1000);
        assert_eq!(c.probe(0x1000), LookupResult::Hit);
        assert_eq!(c.probe(0x101f), LookupResult::Hit, "same line");
        assert_eq!(c.probe(0x1020), LookupResult::Miss, "next line");
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn array_lru_eviction() {
        let mut c = CacheArray::new(small_l1()); // 16 sets, 2 ways
        let set_stride = 16 * 32; // same set every 512 bytes
        c.fill(0x0);
        c.fill(set_stride);
        // Touch the first line so the second becomes LRU.
        assert_eq!(c.probe(0x0), LookupResult::Hit);
        let evicted = c.fill(2 * set_stride);
        assert_eq!(evicted, Some(set_stride));
        assert_eq!(c.peek(0x0), LookupResult::Hit, "MRU way survives");
        assert_eq!(c.peek(set_stride), LookupResult::Miss, "LRU way evicted");
    }

    #[test]
    fn peek_does_not_perturb() {
        let mut c = CacheArray::new(small_l1());
        c.fill(0x40);
        let (a, m) = (c.accesses(), c.misses());
        assert_eq!(c.peek(0x40), LookupResult::Hit);
        assert_eq!(c.peek(0x4000), LookupResult::Miss);
        assert_eq!((c.accesses(), c.misses()), (a, m));
    }

    #[test]
    fn fill_same_line_twice_no_evict() {
        let mut c = CacheArray::new(small_l1());
        assert_eq!(c.fill(0x80), None);
        assert_eq!(c.fill(0x80), None, "refresh, not duplicate");
    }

    #[test]
    fn hierarchy_l1_hit_latency() {
        let mut h = CacheHierarchy::new(small_l1(), small_l2(), 100);
        let first = h.access(0x2000, 10);
        assert!(first.l1_miss && first.l2_miss);
        assert_eq!(first.data_ready, 10 + 2 + 12 + 100);

        let warm = h.access(0x2000, first.data_ready + 1);
        assert!(!warm.l1_miss);
        assert_eq!(warm.data_ready, first.data_ready + 1 + 2);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::new(small_l1(), small_l2(), 100);
        let mut t = 0;
        let a = h.access(0x0, t);
        t = a.data_ready + 1;
        // Evict 0x0 from L1 by filling its set with two more lines.
        let stride = 16 * 32;
        for k in 1..=2u64 {
            let r = h.access(k * stride, t);
            t = r.data_ready + 1;
        }
        let back = h.access(0x0, t);
        assert!(back.l1_miss, "line was evicted from L1");
        assert!(!back.l2_miss, "line still resident in L2");
        assert_eq!(back.data_ready, t + 2 + 12);
    }

    #[test]
    fn mshr_merges_secondary_miss() {
        let mut h = CacheHierarchy::new(small_l1(), small_l2(), 100);
        let first = h.access(0x3000, 0);
        assert!(first.l1_miss);
        // Secondary miss to the same line two cycles later merges with the
        // outstanding fill rather than paying the full latency again.
        let second = h.access(0x3008, 2);
        assert!(second.l1_miss);
        assert_eq!(second.data_ready, first.data_ready);
        // After the fill lands, it hits.
        let third = h.access(0x3000, first.data_ready + 5);
        assert!(!third.l1_miss);
    }

    #[test]
    fn next_line_prefetch_turns_streaming_misses_into_hits() {
        let mut plain = CacheHierarchy::new(small_l1(), small_l2(), 100);
        let mut pf = CacheHierarchy::new(small_l1(), small_l2(), 100).with_next_line_prefetch();
        // Stream line-by-line with long gaps so fills land before reuse.
        let mut t = 0u64;
        for k in 0..32u64 {
            let addr = 0x8000 + k * 32;
            let a = plain.access(addr, t);
            let b = pf.access(addr, t);
            t = a.data_ready.max(b.data_ready) + 200;
        }
        assert!(pf.prefetches() > 0);
        assert!(
            pf.l1().misses() < plain.l1().misses(),
            "prefetched stream must miss less: {} vs {}",
            pf.l1().misses(),
            plain.l1().misses()
        );
    }

    #[test]
    fn prefetch_does_not_duplicate_resident_lines() {
        let mut pf = CacheHierarchy::new(small_l1(), small_l2(), 100).with_next_line_prefetch();
        let first = pf.access(0x1000, 0);
        assert!(first.prefetched, "miss launches a next-line prefetch");
        // Re-missing near the same area must not re-prefetch a resident or
        // pending line.
        let again = pf.access(0x1000, first.data_ready + 1);
        assert!(!again.l1_miss);
        assert_eq!(pf.prefetches(), 1);
    }

    #[test]
    fn stale_pending_fill_suppresses_the_next_line_prefetch() {
        // A landed fill for line L+1 whose MSHR entry was never retired
        // (no later access touched L+1) still blocks the next-line
        // prefetch for L+1 after L+1 is evicted: pending entries retire
        // lazily, never by age, and the prefetcher tests the map.
        let mut pf = CacheHierarchy::new(small_l1(), small_l2(), 100).with_next_line_prefetch();
        let l_next = 0x1020; // line L+1 for L = 0x1000 (32-byte lines)
        let first = pf.access(l_next, 0);
        assert!(first.l1_miss && first.prefetched);
        // Evict L+1 from L1 by filling its 2-way set with two other lines.
        let stride = 16 * 32;
        let mut t = first.data_ready + 1;
        for k in 1..=2u64 {
            t = pf.access(l_next + k * stride, t).data_ready + 1;
        }
        assert_eq!(pf.l1().peek(l_next), LookupResult::Miss, "L+1 evicted");
        let before = pf.prefetches();
        // Demand miss on L: L+1 is neither resident nor in flight, but its
        // landed entry is still in the map, so no prefetch is launched.
        let miss = pf.access(0x1000, t + 1000);
        assert!(miss.l1_miss);
        assert!(
            !miss.prefetched,
            "stale entry for L+1 suppresses the prefetch"
        );
        assert_eq!(pf.prefetches(), before);
        // Once a demand access retires the entry, L+1 behaves normally.
        let refill = pf.access(l_next, t + 2000);
        assert!(refill.l1_miss);
    }

    #[test]
    fn miss_rate_accounting() {
        let mut h = CacheHierarchy::new(small_l1(), small_l2(), 50);
        let mut t = 0;
        for i in 0..64u64 {
            let r = h.access(i * 4096, t);
            t = r.data_ready + 1;
        }
        assert!(h.l1().miss_rate() > 0.9, "streaming pattern misses L1");
        assert_eq!(h.l2_accesses(), h.l1().misses());
        assert!(h.l2_misses() > 0);
    }
}
