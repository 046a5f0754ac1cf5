//! Per-cycle activity records and pipeline-latch geometry.
//!
//! [`CycleActivity`] is the contract between the simulator, the power model
//! and the clock-gating policies:
//!
//! * **usage counts** say what actually happened this cycle (for energy
//!   accounting and for verifying that a gating policy never gated a used
//!   block);
//! * **advance-knowledge signals** say what is *deterministically known* at
//!   the end of this cycle about near-future cycles (issue GRANTs, the
//!   one-hot issued-slot count, scheduled stores, booked result buses) —
//!   exactly the signals the paper's DCG controller taps (§3).

use dcg_isa::FuClass;

use crate::config::PipelineDepth;

/// Where a latch group's occupancy (and DCG gate control) comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSource {
    /// Instructions fetched per cycle (front-end flow).
    Fetched,
    /// Instructions traversing rename per cycle (known from decode one
    /// cycle earlier — paper §2.2.1).
    Renamed,
    /// Instructions issued per cycle (the one-hot encoding of §3.2).
    Issued,
}

/// One pipeline-latch group (the latch bank at the end of one stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatchGroupSpec {
    /// Stage name, e.g. `"regread0"`.
    pub name: String,
    /// Which flow's count gives this group's occupancy.
    pub source: FlowSource,
    /// Occupancy at cycle `X` equals the source flow at `X - delay`.
    pub delay: u32,
    /// `true` if DCG can gate this group (paper Figure 3 tick marks:
    /// rename and all post-issue latches; fetch/decode/issue cannot be
    /// gated).
    pub gated: bool,
}

/// The ordered set of latch groups implied by a pipeline geometry.
///
/// # Example
///
/// ```
/// use dcg_sim::{LatchGroups, PipelineDepth};
///
/// let groups = LatchGroups::new(&PipelineDepth::stages8());
/// assert_eq!(groups.len(), 8);
/// // Paper Figure 3: rename + the four post-issue stages are gateable.
/// assert_eq!(groups.gated_count(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct LatchGroups {
    specs: Vec<LatchGroupSpec>,
}

impl LatchGroups {
    /// Derive the latch groups for `depth`.
    ///
    /// For the paper's 8-stage pipeline this yields 8 groups of which 5 are
    /// gateable (rename, regread, execute, memory, writeback).
    pub fn new(depth: &PipelineDepth) -> LatchGroups {
        let mut specs = Vec::with_capacity(depth.total());
        for i in 0..depth.fetch {
            specs.push(LatchGroupSpec {
                name: format!("fetch{i}"),
                source: FlowSource::Fetched,
                delay: i as u32,
                gated: false,
            });
        }
        for i in 0..depth.decode {
            specs.push(LatchGroupSpec {
                name: format!("decode{i}"),
                source: FlowSource::Fetched,
                delay: (depth.fetch + i) as u32,
                gated: false,
            });
        }
        for i in 0..depth.rename {
            specs.push(LatchGroupSpec {
                name: format!("rename{i}"),
                source: FlowSource::Renamed,
                delay: i as u32,
                gated: true,
            });
        }
        for i in 0..depth.issue {
            specs.push(LatchGroupSpec {
                name: format!("issue{i}"),
                source: FlowSource::Issued,
                delay: 0,
                gated: false,
            });
        }
        let mut back_delay = 1u32;
        for (stage, count) in [
            ("regread", depth.regread),
            ("execute", depth.execute),
            ("mem", depth.mem),
            ("writeback", depth.writeback),
        ] {
            for i in 0..count {
                specs.push(LatchGroupSpec {
                    name: format!("{stage}{i}"),
                    source: FlowSource::Issued,
                    delay: back_delay,
                    gated: true,
                });
                back_delay += 1;
            }
        }
        LatchGroups { specs }
    }

    /// The group specifications, in pipeline order.
    pub fn specs(&self) -> &[LatchGroupSpec] {
        &self.specs
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if there are no groups (never happens for valid geometries).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of gateable groups.
    pub fn gated_count(&self) -> usize {
        self.specs.iter().filter(|s| s.gated).count()
    }

    /// Maximum delay used by any group (history depth requirement).
    pub fn max_delay(&self) -> u32 {
        self.specs.iter().map(|s| s.delay).max().unwrap_or(0)
    }

    /// Compute per-group occupancy from a flow history.
    pub fn occupancies(&self, history: &FlowHistory, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.specs.iter().map(|s| history.get(s.source, s.delay)));
    }
}

/// Ring-buffer history of the three per-cycle flows that determine latch
/// occupancy.
#[derive(Debug, Clone)]
pub struct FlowHistory {
    fetched: [u32; Self::DEPTH],
    renamed: [u32; Self::DEPTH],
    issued: [u32; Self::DEPTH],
    pos: usize,
}

impl FlowHistory {
    /// History depth in cycles; comfortably exceeds any latch delay.
    pub const DEPTH: usize = 32;

    /// A history with all flows zero.
    pub fn new() -> FlowHistory {
        FlowHistory {
            fetched: [0; Self::DEPTH],
            renamed: [0; Self::DEPTH],
            issued: [0; Self::DEPTH],
            pos: 0,
        }
    }

    /// Record this cycle's flows (call once per cycle).
    pub fn record(&mut self, fetched: u32, renamed: u32, issued: u32) {
        self.pos = (self.pos + 1) % Self::DEPTH;
        self.fetched[self.pos] = fetched;
        self.renamed[self.pos] = renamed;
        self.issued[self.pos] = issued;
    }

    /// Flow value `delay` cycles ago (0 = the cycle just recorded).
    pub fn get(&self, source: FlowSource, delay: u32) -> u32 {
        let d = delay as usize % Self::DEPTH;
        let idx = (self.pos + Self::DEPTH - d) % Self::DEPTH;
        match source {
            FlowSource::Fetched => self.fetched[idx],
            FlowSource::Renamed => self.renamed[idx],
            FlowSource::Issued => self.issued[idx],
        }
    }
}

impl Default for FlowHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// One issue-stage GRANT: the selection logic matched an instruction to an
/// execution-unit instance (paper Figure 4), fixing that instance's future
/// activity deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuGrant {
    /// Unit class granted.
    pub class: FuClass,
    /// Instance within the class.
    pub instance: usize,
    /// Cycles from now until the instance becomes active (2 for the
    /// 8-stage pipeline's execute stage; 3 for a load's D-cache access).
    pub exec_start: u32,
    /// Cycles the instance stays active (op latency; 1 for cache ports).
    pub active_len: u32,
}

/// Everything that happened in (and is deterministically known at the end
/// of) one simulated cycle.
///
/// This record is the complete interface between the timing simulation and
/// everything downstream (power accounting, gating policies, statistics):
/// a recorded stream of `CycleActivity` replays bit-identically through
/// any passive policy. The `dcg-trace` activity frame serializes every
/// field; adding, removing or re-meaning a field requires bumping that
/// format's schema constant so stale cached traces are invalidated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Cycle number.
    pub cycle: u64,
    // ---- flows ----
    /// Instructions fetched.
    pub fetched: u32,
    /// Instructions entering rename.
    pub renamed: u32,
    /// Instructions dispatched into the window.
    pub dispatched: u32,
    /// Instructions issued (selected).
    pub issued: u32,
    /// Issued floating-point operations.
    pub issued_fp: u32,
    /// Issued loads.
    pub issued_loads: u32,
    /// Issued stores.
    pub issued_stores: u32,
    /// Instructions committed.
    pub committed: u32,
    // ---- usage (this cycle) ----
    /// Busy mask per unit class (bit *i* = instance *i* active), indexed by
    /// [`FuClass::index`].
    pub fu_active: [u32; FuClass::COUNT],
    /// D-cache port mask in use this cycle (wordline decoders firing).
    pub dcache_port_mask: u32,
    /// Loads accessing the D-cache this cycle.
    pub dcache_load_accesses: u32,
    /// Stores accessing the D-cache this cycle.
    pub dcache_store_accesses: u32,
    /// D-cache accesses that missed (this cycle's accesses).
    pub dcache_misses: u32,
    /// L2 accesses initiated this cycle.
    pub l2_accesses: u32,
    /// I-cache probed this cycle.
    pub icache_access: bool,
    /// The I-cache probe missed.
    pub icache_miss: bool,
    /// Branch-predictor lookups.
    pub bpred_lookups: u32,
    /// Branch-predictor lookups that mispredicted this cycle.
    pub bpred_mispredicts: u32,
    /// Register-file read ports used (issued source operands).
    pub regfile_reads: u32,
    /// Register-file write ports used (writebacks).
    pub regfile_writes: u32,
    /// Result buses driven this cycle.
    pub result_bus_used: u32,
    /// Per-latch-group slots written this cycle (indexed like
    /// [`LatchGroups::specs`]).
    pub latch_occupancy: Vec<u32>,
    // ---- advance knowledge (known at end of this cycle) ----
    /// Issue-stage grants made this cycle (future unit activity).
    pub grants: Vec<FuGrant>,
    /// Instructions sitting at the end of decode that will traverse rename
    /// next cycle (paper §2.2.1: the rename latch's gate control is known
    /// from the decode stage one cycle ahead). The actual rename flow next
    /// cycle is at most this (zero if rename stalls).
    pub decode_ready_next: u32,
    /// Issue-queue entries occupied at the end of this cycle. Entries
    /// beyond `iq_occupancy + dispatch width` are deterministically empty
    /// next cycle — the signal behind the deterministic issue-queue gating
    /// of \[6\], which the paper cites in §2.2.2.
    pub iq_occupancy: u32,
    /// Reorder-buffer entries occupied at the end of this cycle (window
    /// fill level; feeds the occupancy histograms of the metrics layer).
    pub rob_occupancy: u32,
    /// Load/store-queue entries occupied at the end of this cycle.
    pub lsq_occupancy: u32,
    /// Store D-cache accesses already scheduled for the *next* cycle
    /// (paper §3.3 advance knowledge), as (port, count) mask.
    pub store_ports_next: u32,
    /// Result buses already booked for cycle `cycle + 2` (paper §3.4:
    /// writeback usage is known two cycles ahead).
    pub result_bus_in_2: u32,
}

impl CycleActivity {
    /// Reset all fields for reuse (keeps allocations).
    pub fn reset(&mut self, cycle: u64) {
        // Exhaustive destructuring: a new field fails to compile here
        // until it is reset too.
        let CycleActivity {
            cycle: c,
            fetched,
            renamed,
            dispatched,
            issued,
            issued_fp,
            issued_loads,
            issued_stores,
            committed,
            fu_active,
            dcache_port_mask,
            dcache_load_accesses,
            dcache_store_accesses,
            dcache_misses,
            l2_accesses,
            icache_access,
            icache_miss,
            bpred_lookups,
            bpred_mispredicts,
            regfile_reads,
            regfile_writes,
            result_bus_used,
            latch_occupancy,
            grants,
            decode_ready_next,
            iq_occupancy,
            rob_occupancy,
            lsq_occupancy,
            store_ports_next,
            result_bus_in_2,
        } = self;
        *c = cycle;
        *fu_active = [0; FuClass::COUNT];
        *icache_access = false;
        *icache_miss = false;
        latch_occupancy.clear();
        grants.clear();
        for v in [
            fetched,
            renamed,
            dispatched,
            issued,
            issued_fp,
            issued_loads,
            issued_stores,
            committed,
            dcache_port_mask,
            dcache_load_accesses,
            dcache_store_accesses,
            dcache_misses,
            l2_accesses,
            bpred_lookups,
            bpred_mispredicts,
            regfile_reads,
            regfile_writes,
            result_bus_used,
            decode_ready_next,
            iq_occupancy,
            rob_occupancy,
            lsq_occupancy,
            store_ports_next,
            result_bus_in_2,
        ] {
            *v = 0;
        }
    }
}

/// Cycles per [`ActivityBlock`] (and per on-disk trace block).
///
/// Chosen to match the lane width of `u64` masks: bit *i* of a lane mask
/// refers to cycle `first_cycle + i` of the block, so "any cycle in this
/// block touched X" is a single mask test and "how many cycles" is one
/// popcount.
pub const BLOCK_CYCLES: usize = 64;

/// Struct-of-arrays batch of up to [`BLOCK_CYCLES`] consecutive
/// [`CycleActivity`] records.
///
/// This is the hot-path representation behind the per-cycle
/// [`CycleActivity`] interface: the trace reader decodes straight into a
/// block, statistics fold over whole columns, and boolean per-cycle facts
/// (I-cache touched, any FU of a class busy, any D-cache port firing, any
/// result bus driven, latch group occupied) are packed as `u64` *lane
/// masks* where bit `i` stands for cycle index `i` within the block.
///
/// Invariants (maintained by [`push`](ActivityBlock::push), relied on by
/// [`extract`](ActivityBlock::extract)):
///
/// * column `i` of every array describes cycle `first_cycle + i`, valid
///   for `i < len`;
/// * `latch_occupancy` is cycle-major: cycle `i`, group `g` lives at
///   `i * groups + g`;
/// * `grants` is flat; cycle `i`'s grants are
///   `grants[grant_end[i-1]..grant_end[i]]` (`0` for the lower bound at
///   `i == 0`);
/// * the lane masks and per-class `fu_any` summaries agree with the
///   columns they summarize.
///
/// A round-trip through `push` + `extract` reproduces the original
/// [`CycleActivity`] exactly (covered by a property suite), which is what
/// lets the block path claim bit-identity with the scalar path.
#[derive(Debug, Clone)]
pub struct ActivityBlock {
    /// Cycle number of column 0.
    pub first_cycle: u64,
    /// Valid columns (`<= BLOCK_CYCLES`).
    pub len: usize,
    /// Latch groups per cycle (row width of `latch_occupancy`).
    pub groups: usize,
    // ---- flows ----
    /// Instructions fetched per cycle.
    pub fetched: [u32; BLOCK_CYCLES],
    /// Instructions entering rename per cycle.
    pub renamed: [u32; BLOCK_CYCLES],
    /// Instructions dispatched per cycle.
    pub dispatched: [u32; BLOCK_CYCLES],
    /// Instructions issued per cycle.
    pub issued: [u32; BLOCK_CYCLES],
    /// Issued FP operations per cycle.
    pub issued_fp: [u32; BLOCK_CYCLES],
    /// Issued loads per cycle.
    pub issued_loads: [u32; BLOCK_CYCLES],
    /// Issued stores per cycle.
    pub issued_stores: [u32; BLOCK_CYCLES],
    /// Instructions committed per cycle.
    pub committed: [u32; BLOCK_CYCLES],
    // ---- usage ----
    /// Per-class busy masks, indexed by [`FuClass::index`] then cycle.
    pub fu_active: [[u32; BLOCK_CYCLES]; FuClass::COUNT],
    /// Lane mask per unit class: bit `i` set iff any instance of the class
    /// was active at cycle `i`.
    pub fu_any: [u64; FuClass::COUNT],
    /// D-cache port mask per cycle.
    pub dcache_port_mask: [u32; BLOCK_CYCLES],
    /// Lane mask: bit `i` set iff any D-cache port fired at cycle `i`.
    pub port_any: u64,
    /// Loads accessing the D-cache per cycle.
    pub dcache_load_accesses: [u32; BLOCK_CYCLES],
    /// Stores accessing the D-cache per cycle.
    pub dcache_store_accesses: [u32; BLOCK_CYCLES],
    /// D-cache misses per cycle.
    pub dcache_misses: [u32; BLOCK_CYCLES],
    /// L2 accesses per cycle.
    pub l2_accesses: [u32; BLOCK_CYCLES],
    /// Lane mask: bit `i` set iff the I-cache was probed at cycle `i`.
    pub icache_access_lanes: u64,
    /// Lane mask: bit `i` set iff the I-cache probe missed at cycle `i`.
    pub icache_miss_lanes: u64,
    /// Branch-predictor lookups per cycle.
    pub bpred_lookups: [u32; BLOCK_CYCLES],
    /// Branch mispredictions per cycle.
    pub bpred_mispredicts: [u32; BLOCK_CYCLES],
    /// Register-file read ports used per cycle.
    pub regfile_reads: [u32; BLOCK_CYCLES],
    /// Register-file write ports used per cycle.
    pub regfile_writes: [u32; BLOCK_CYCLES],
    /// Result buses driven per cycle.
    pub result_bus_used: [u32; BLOCK_CYCLES],
    /// Lane mask: bit `i` set iff any result bus was driven at cycle `i`.
    pub bus_any: u64,
    /// Cycle-major latch occupancy (`len * groups` entries).
    pub latch_occupancy: Vec<u32>,
    /// Lane mask per latch group: bit `i` set iff the group had any slot
    /// written at cycle `i` (`groups` entries).
    pub latch_any: Vec<u64>,
    /// Flat grant list for the whole block.
    pub grants: Vec<FuGrant>,
    /// Exclusive end index into `grants` for each cycle.
    pub grant_end: [u32; BLOCK_CYCLES],
    // ---- advance knowledge ----
    /// Decode-ready count per cycle.
    pub decode_ready_next: [u32; BLOCK_CYCLES],
    /// Issue-queue occupancy per cycle.
    pub iq_occupancy: [u32; BLOCK_CYCLES],
    /// Reorder-buffer occupancy per cycle.
    pub rob_occupancy: [u32; BLOCK_CYCLES],
    /// Load/store-queue occupancy per cycle.
    pub lsq_occupancy: [u32; BLOCK_CYCLES],
    /// Stores scheduled for the next cycle, per cycle.
    pub store_ports_next: [u32; BLOCK_CYCLES],
    /// Result buses booked two cycles ahead, per cycle.
    pub result_bus_in_2: [u32; BLOCK_CYCLES],
}

impl ActivityBlock {
    /// Empty block for traces with `groups` latch groups per cycle.
    pub fn new(groups: usize) -> ActivityBlock {
        ActivityBlock {
            first_cycle: 0,
            len: 0,
            groups,
            fetched: [0; BLOCK_CYCLES],
            renamed: [0; BLOCK_CYCLES],
            dispatched: [0; BLOCK_CYCLES],
            issued: [0; BLOCK_CYCLES],
            issued_fp: [0; BLOCK_CYCLES],
            issued_loads: [0; BLOCK_CYCLES],
            issued_stores: [0; BLOCK_CYCLES],
            committed: [0; BLOCK_CYCLES],
            fu_active: [[0; BLOCK_CYCLES]; FuClass::COUNT],
            fu_any: [0; FuClass::COUNT],
            dcache_port_mask: [0; BLOCK_CYCLES],
            port_any: 0,
            dcache_load_accesses: [0; BLOCK_CYCLES],
            dcache_store_accesses: [0; BLOCK_CYCLES],
            dcache_misses: [0; BLOCK_CYCLES],
            l2_accesses: [0; BLOCK_CYCLES],
            icache_access_lanes: 0,
            icache_miss_lanes: 0,
            bpred_lookups: [0; BLOCK_CYCLES],
            bpred_mispredicts: [0; BLOCK_CYCLES],
            regfile_reads: [0; BLOCK_CYCLES],
            regfile_writes: [0; BLOCK_CYCLES],
            result_bus_used: [0; BLOCK_CYCLES],
            bus_any: 0,
            latch_occupancy: Vec::with_capacity(BLOCK_CYCLES * groups),
            latch_any: vec![0; groups],
            grants: Vec::new(),
            grant_end: [0; BLOCK_CYCLES],
            decode_ready_next: [0; BLOCK_CYCLES],
            iq_occupancy: [0; BLOCK_CYCLES],
            rob_occupancy: [0; BLOCK_CYCLES],
            lsq_occupancy: [0; BLOCK_CYCLES],
            store_ports_next: [0; BLOCK_CYCLES],
            result_bus_in_2: [0; BLOCK_CYCLES],
        }
    }

    /// Reset for reuse (keeps allocations); column 0 will be `first_cycle`.
    pub fn clear(&mut self, first_cycle: u64) {
        self.first_cycle = first_cycle;
        self.len = 0;
        self.fu_any = [0; FuClass::COUNT];
        self.port_any = 0;
        self.bus_any = 0;
        self.icache_access_lanes = 0;
        self.icache_miss_lanes = 0;
        self.latch_occupancy.clear();
        self.latch_any.iter_mut().for_each(|m| *m = 0);
        self.grants.clear();
    }

    /// Valid columns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no cycles have been pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cycle number of column `i`.
    pub fn cycle(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.first_cycle + i as u64
    }

    /// Lane mask with bits `from..to` set (the screen/summary masks are
    /// ANDed with this to restrict a query to a sub-span of the block).
    pub fn lane_range(from: usize, to: usize) -> u64 {
        debug_assert!(from <= to && to <= BLOCK_CYCLES);
        let hi = if to == BLOCK_CYCLES {
            u64::MAX
        } else {
            (1u64 << to) - 1
        };
        let lo = if from == BLOCK_CYCLES {
            u64::MAX
        } else {
            (1u64 << from) - 1
        };
        hi & !lo
    }

    /// Latch occupancies of cycle `i` (one entry per group).
    pub fn latches(&self, i: usize) -> &[u32] {
        debug_assert!(i < self.len);
        &self.latch_occupancy[i * self.groups..(i + 1) * self.groups]
    }

    /// Grants made at cycle `i`.
    pub fn grants_at(&self, i: usize) -> &[FuGrant] {
        debug_assert!(i < self.len);
        let lo = if i == 0 {
            0
        } else {
            self.grant_end[i - 1] as usize
        };
        &self.grants[lo..self.grant_end[i] as usize]
    }

    /// Append one cycle (must be the next consecutive cycle, with
    /// `groups` latch entries).
    ///
    /// # Panics
    ///
    /// Panics if the block is full or `act` does not continue the block.
    pub fn push(&mut self, act: &CycleActivity) {
        if self.len == 0 {
            self.first_cycle = act.cycle;
        }
        assert_eq!(
            act.cycle,
            self.first_cycle + self.len as u64,
            "non-consecutive cycle pushed into ActivityBlock"
        );
        self.push_untimed(act);
    }

    /// Append one cycle ignoring `act.cycle` — lane numbers stay implicit
    /// (`first_cycle + index`). The trace writer stages records through
    /// this: on-disk cycle numbers are reconstructed by counting, so the
    /// record's own `cycle` field never constrains the block.
    ///
    /// # Panics
    ///
    /// Panics if the block is full or the latch group count mismatches.
    pub fn push_untimed(&mut self, act: &CycleActivity) {
        assert!(self.len < BLOCK_CYCLES, "ActivityBlock overflow");
        assert_eq!(act.latch_occupancy.len(), self.groups, "latch group count");
        let i = self.len;
        self.fetched[i] = act.fetched;
        self.renamed[i] = act.renamed;
        self.dispatched[i] = act.dispatched;
        self.issued[i] = act.issued;
        self.issued_fp[i] = act.issued_fp;
        self.issued_loads[i] = act.issued_loads;
        self.issued_stores[i] = act.issued_stores;
        self.committed[i] = act.committed;
        // Lane bits are set without branches: which counters are zero
        // varies cycle to cycle and would mispredict.
        let lane = |set: bool| u64::from(set) << i;
        for c in 0..FuClass::COUNT {
            let m = act.fu_active[c];
            self.fu_active[c][i] = m;
            self.fu_any[c] |= lane(m != 0);
        }
        self.dcache_port_mask[i] = act.dcache_port_mask;
        self.port_any |= lane(act.dcache_port_mask != 0);
        self.dcache_load_accesses[i] = act.dcache_load_accesses;
        self.dcache_store_accesses[i] = act.dcache_store_accesses;
        self.dcache_misses[i] = act.dcache_misses;
        self.l2_accesses[i] = act.l2_accesses;
        self.icache_access_lanes |= lane(act.icache_access);
        self.icache_miss_lanes |= lane(act.icache_miss);
        self.bpred_lookups[i] = act.bpred_lookups;
        self.bpred_mispredicts[i] = act.bpred_mispredicts;
        self.regfile_reads[i] = act.regfile_reads;
        self.regfile_writes[i] = act.regfile_writes;
        self.result_bus_used[i] = act.result_bus_used;
        self.bus_any |= lane(act.result_bus_used != 0);
        self.latch_occupancy.extend_from_slice(&act.latch_occupancy);
        for (any, &occ) in self.latch_any.iter_mut().zip(&act.latch_occupancy) {
            *any |= lane(occ != 0);
        }
        self.grants.extend_from_slice(&act.grants);
        self.grant_end[i] = self.grants.len() as u32;
        self.decode_ready_next[i] = act.decode_ready_next;
        self.iq_occupancy[i] = act.iq_occupancy;
        self.rob_occupancy[i] = act.rob_occupancy;
        self.lsq_occupancy[i] = act.lsq_occupancy;
        self.store_ports_next[i] = act.store_ports_next;
        self.result_bus_in_2[i] = act.result_bus_in_2;
        self.len = i + 1;
    }

    /// Reconstruct column `i` as a [`CycleActivity`] (exact inverse of
    /// [`push`](ActivityBlock::push); reuses `out`'s allocations).
    pub fn extract(&self, i: usize, out: &mut CycleActivity) {
        debug_assert!(i < self.len, "extract past block length");
        out.reset(self.first_cycle + i as u64);
        out.fetched = self.fetched[i];
        out.renamed = self.renamed[i];
        out.dispatched = self.dispatched[i];
        out.issued = self.issued[i];
        out.issued_fp = self.issued_fp[i];
        out.issued_loads = self.issued_loads[i];
        out.issued_stores = self.issued_stores[i];
        out.committed = self.committed[i];
        for c in 0..FuClass::COUNT {
            out.fu_active[c] = self.fu_active[c][i];
        }
        out.dcache_port_mask = self.dcache_port_mask[i];
        out.dcache_load_accesses = self.dcache_load_accesses[i];
        out.dcache_store_accesses = self.dcache_store_accesses[i];
        out.dcache_misses = self.dcache_misses[i];
        out.l2_accesses = self.l2_accesses[i];
        let bit = 1u64 << i;
        out.icache_access = self.icache_access_lanes & bit != 0;
        out.icache_miss = self.icache_miss_lanes & bit != 0;
        out.bpred_lookups = self.bpred_lookups[i];
        out.bpred_mispredicts = self.bpred_mispredicts[i];
        out.regfile_reads = self.regfile_reads[i];
        out.regfile_writes = self.regfile_writes[i];
        out.result_bus_used = self.result_bus_used[i];
        out.latch_occupancy.extend_from_slice(self.latches(i));
        out.grants.extend_from_slice(self.grants_at(i));
        out.decode_ready_next = self.decode_ready_next[i];
        out.iq_occupancy = self.iq_occupancy[i];
        out.rob_occupancy = self.rob_occupancy[i];
        out.lsq_occupancy = self.lsq_occupancy[i];
        out.store_ports_next = self.store_ports_next[i];
        out.result_bus_in_2 = self.result_bus_in_2[i];
    }

    /// Columns `from..to` as an [`ActivityColumns`] view (index `j` of the
    /// view is block index `from + j`).
    #[inline]
    pub fn columns(&self, from: usize, to: usize) -> ActivityColumns<'_> {
        debug_assert!(from <= to && to <= self.len);
        let g = self.groups;
        ActivityColumns {
            first_cycle: self.first_cycle + from as u64,
            len: to - from,
            groups: g,
            fetched: &self.fetched[from..to],
            renamed: &self.renamed[from..to],
            dispatched: &self.dispatched[from..to],
            issued: &self.issued[from..to],
            issued_loads: &self.issued_loads[from..to],
            issued_stores: &self.issued_stores[from..to],
            committed: &self.committed[from..to],
            fu_active: std::array::from_fn(|c| &self.fu_active[c][from..to]),
            dcache_port_mask: &self.dcache_port_mask[from..to],
            dcache_load_accesses: &self.dcache_load_accesses[from..to],
            dcache_store_accesses: &self.dcache_store_accesses[from..to],
            l2_accesses: &self.l2_accesses[from..to],
            icache_access_lanes: (self.icache_access_lanes & Self::lane_range(from, to))
                .checked_shr(from as u32)
                .unwrap_or(0),
            bpred_lookups: &self.bpred_lookups[from..to],
            regfile_reads: &self.regfile_reads[from..to],
            regfile_writes: &self.regfile_writes[from..to],
            result_bus_used: &self.result_bus_used[from..to],
            latch_occupancy: &self.latch_occupancy[from * g..to * g],
            iq_occupancy: &self.iq_occupancy[from..to],
            rob_occupancy: &self.rob_occupancy[from..to],
            lsq_occupancy: &self.lsq_occupancy[from..to],
        }
    }
}

/// Borrowed columns of `len` consecutive cycles: a span of an
/// [`ActivityBlock`] ([`ActivityBlock::columns`]) or one
/// [`CycleActivity`] as a single lane ([`CycleActivity::columns`]).
///
/// The accounting folds downstream (energy, gating audit, metrics) read
/// their inputs through this view, so the per-cycle and the block path
/// run one implementation. Index `j` of every column is cycle
/// `first_cycle + j`. The view carries the columns those folds read; a
/// policy's advance-knowledge inputs (grants, scheduled stores, booked
/// buses) are read from the block itself.
#[derive(Debug, Clone, Copy)]
pub struct ActivityColumns<'a> {
    /// Cycle number of index 0.
    pub first_cycle: u64,
    /// Cycles in the view (the length of every per-cycle column).
    pub len: usize,
    /// Latch groups per cycle (row width of `latch_occupancy`).
    pub groups: usize,
    /// Instructions fetched.
    pub fetched: &'a [u32],
    /// Instructions entering rename.
    pub renamed: &'a [u32],
    /// Instructions dispatched.
    pub dispatched: &'a [u32],
    /// Instructions issued.
    pub issued: &'a [u32],
    /// Issued loads.
    pub issued_loads: &'a [u32],
    /// Issued stores.
    pub issued_stores: &'a [u32],
    /// Instructions committed.
    pub committed: &'a [u32],
    /// Busy masks per unit class, indexed by [`FuClass::index`].
    pub fu_active: [&'a [u32]; FuClass::COUNT],
    /// D-cache port masks.
    pub dcache_port_mask: &'a [u32],
    /// Loads accessing the D-cache.
    pub dcache_load_accesses: &'a [u32],
    /// Stores accessing the D-cache.
    pub dcache_store_accesses: &'a [u32],
    /// L2 accesses.
    pub l2_accesses: &'a [u32],
    /// Lane mask: bit `j` set iff the I-cache was probed at index `j`.
    pub icache_access_lanes: u64,
    /// Branch-predictor lookups.
    pub bpred_lookups: &'a [u32],
    /// Register-file reads.
    pub regfile_reads: &'a [u32],
    /// Register-file writes.
    pub regfile_writes: &'a [u32],
    /// Result buses driven.
    pub result_bus_used: &'a [u32],
    /// Cycle-major latch occupancy (`len * groups` entries).
    pub latch_occupancy: &'a [u32],
    /// Issue-queue occupancy.
    pub iq_occupancy: &'a [u32],
    /// Reorder-buffer occupancy.
    pub rob_occupancy: &'a [u32],
    /// Load/store-queue occupancy.
    pub lsq_occupancy: &'a [u32],
}

impl<'a> ActivityColumns<'a> {
    /// Cycle number of index `j`.
    #[inline]
    pub fn cycle(&self, j: usize) -> u64 {
        self.first_cycle + j as u64
    }

    /// Latch occupancies of index `j` (one entry per group).
    #[inline]
    pub fn latches(&self, j: usize) -> &'a [u32] {
        &self.latch_occupancy[j * self.groups..(j + 1) * self.groups]
    }
}

impl CycleActivity {
    /// This cycle as a one-lane [`ActivityColumns`] view.
    #[inline]
    pub fn columns(&self) -> ActivityColumns<'_> {
        use std::slice::from_ref;
        ActivityColumns {
            first_cycle: self.cycle,
            len: 1,
            groups: self.latch_occupancy.len(),
            fetched: from_ref(&self.fetched),
            renamed: from_ref(&self.renamed),
            dispatched: from_ref(&self.dispatched),
            issued: from_ref(&self.issued),
            issued_loads: from_ref(&self.issued_loads),
            issued_stores: from_ref(&self.issued_stores),
            committed: from_ref(&self.committed),
            fu_active: std::array::from_fn(|c| from_ref(&self.fu_active[c])),
            dcache_port_mask: from_ref(&self.dcache_port_mask),
            dcache_load_accesses: from_ref(&self.dcache_load_accesses),
            dcache_store_accesses: from_ref(&self.dcache_store_accesses),
            l2_accesses: from_ref(&self.l2_accesses),
            icache_access_lanes: u64::from(self.icache_access),
            bpred_lookups: from_ref(&self.bpred_lookups),
            regfile_reads: from_ref(&self.regfile_reads),
            regfile_writes: from_ref(&self.regfile_writes),
            result_bus_used: from_ref(&self.result_bus_used),
            latch_occupancy: &self.latch_occupancy,
            iq_occupancy: from_ref(&self.iq_occupancy),
            rob_occupancy: from_ref(&self.rob_occupancy),
            lsq_occupancy: from_ref(&self.lsq_occupancy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_stage_groups_match_paper_figure_3() {
        let g = LatchGroups::new(&PipelineDepth::stages8());
        assert_eq!(g.len(), 8);
        assert_eq!(g.gated_count(), 5, "rename + rf/ex/mem/wb are gateable");
        let names: Vec<&str> = g.specs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "fetch0",
                "decode0",
                "rename0",
                "issue0",
                "regread0",
                "execute0",
                "mem0",
                "writeback0"
            ]
        );
        // Fetch/decode/issue latches cannot be gated (paper §2.2.1).
        for s in g.specs() {
            let front = s.name.starts_with("fetch")
                || s.name.starts_with("decode")
                || s.name.starts_with("issue");
            assert_eq!(s.gated, !front, "{}", s.name);
        }
    }

    #[test]
    fn twenty_stage_groups_keep_gateable_majority() {
        let g = LatchGroups::new(&PipelineDepth::stages20());
        assert_eq!(g.len(), 20);
        assert_eq!(g.gated_count(), 12);
        assert!(g.max_delay() < FlowHistory::DEPTH as u32);
    }

    #[test]
    fn backend_delays_are_consecutive() {
        let g = LatchGroups::new(&PipelineDepth::stages8());
        let backend: Vec<u32> = g
            .specs()
            .iter()
            .filter(|s| s.source == FlowSource::Issued && s.gated)
            .map(|s| s.delay)
            .collect();
        assert_eq!(backend, vec![1, 2, 3, 4]);
    }

    #[test]
    fn flow_history_lookup() {
        let mut h = FlowHistory::new();
        h.record(8, 6, 4); // cycle 0
        h.record(7, 5, 3); // cycle 1
        assert_eq!(h.get(FlowSource::Fetched, 0), 7);
        assert_eq!(h.get(FlowSource::Fetched, 1), 8);
        assert_eq!(h.get(FlowSource::Renamed, 0), 5);
        assert_eq!(h.get(FlowSource::Issued, 1), 4);
        assert_eq!(h.get(FlowSource::Issued, 5), 0, "pre-history is zero");
    }

    #[test]
    fn occupancies_follow_delays() {
        let groups = LatchGroups::new(&PipelineDepth::stages8());
        let mut h = FlowHistory::new();
        // One burst of 8 issued at cycle 0, nothing after.
        h.record(8, 8, 8);
        let mut occ = Vec::new();
        for expect_stage in ["issue0", "regread0", "execute0", "mem0", "writeback0"] {
            groups.occupancies(&h, &mut occ);
            let idx = groups
                .specs()
                .iter()
                .position(|s| s.name == expect_stage)
                .unwrap();
            assert_eq!(
                occ[idx], 8,
                "burst should be at {expect_stage} now: {occ:?}"
            );
            h.record(0, 0, 0);
        }
        // Burst has drained past writeback.
        groups.occupancies(&h, &mut occ);
        assert!(occ[4..].iter().all(|&o| o == 0));
    }

    fn sample_activity(cycle: u64, groups: usize) -> CycleActivity {
        let mut a = CycleActivity {
            cycle,
            fetched: 3,
            renamed: 2,
            issued: 4,
            committed: (cycle % 5) as u32,
            dcache_port_mask: if cycle.is_multiple_of(2) { 0b11 } else { 0 },
            icache_access: cycle.is_multiple_of(3),
            icache_miss: cycle.is_multiple_of(7),
            result_bus_used: (cycle % 3) as u32,
            ..CycleActivity::default()
        };
        a.fu_active[FuClass::IntAlu.index()] = (cycle as u32) & 0xf;
        a.latch_occupancy = (0..groups)
            .map(|g| ((cycle as usize + g) % 4) as u32)
            .collect();
        if cycle.is_multiple_of(4) {
            a.grants.push(FuGrant {
                class: FuClass::FpAlu,
                instance: (cycle % 2) as usize,
                exec_start: 2,
                active_len: 3,
            });
        }
        a
    }

    #[test]
    fn block_push_extract_round_trips() {
        let groups = 8;
        let mut block = ActivityBlock::new(groups);
        let acts: Vec<CycleActivity> = (1..=BLOCK_CYCLES as u64)
            .map(|c| sample_activity(c, groups))
            .collect();
        for a in &acts {
            block.push(a);
        }
        assert_eq!(block.len(), BLOCK_CYCLES);
        let mut out = CycleActivity::default();
        for (i, a) in acts.iter().enumerate() {
            block.extract(i, &mut out);
            assert_eq!(&out, a, "cycle {}", a.cycle);
        }
        // Lane masks agree with the columns they summarize.
        for (i, a) in acts.iter().enumerate() {
            let bit = 1u64 << i;
            assert_eq!(block.port_any & bit != 0, block.dcache_port_mask[i] != 0);
            assert_eq!(block.bus_any & bit != 0, block.result_bus_used[i] != 0);
            assert_eq!(block.icache_access_lanes & bit != 0, a.icache_access);
            for c in 0..FuClass::COUNT {
                assert_eq!(block.fu_any[c] & bit != 0, block.fu_active[c][i] != 0);
            }
            for g in 0..groups {
                assert_eq!(block.latch_any[g] & bit != 0, block.latches(i)[g] != 0);
            }
        }
        // Clear keeps allocations but resets summaries.
        block.clear(100);
        assert!(block.is_empty());
        assert_eq!(block.port_any, 0);
        assert!(block.latch_any.iter().all(|&m| m == 0));
        block.push(&sample_activity(100, groups));
        assert_eq!(block.cycle(0), 100);
    }

    #[test]
    fn block_columns_view_each_cycle_as_its_record_does() {
        let groups = 3;
        let mut block = ActivityBlock::new(groups);
        let acts: Vec<CycleActivity> = (1..=40u64).map(|c| sample_activity(c, groups)).collect();
        for a in &acts {
            block.push(a);
        }
        // Every one-lane span of the block views exactly what the cycle's
        // own record views, icache lane bit included.
        for (i, a) in acts.iter().enumerate() {
            assert_eq!(
                format!("{:?}", block.columns(i, i + 1)),
                format!("{:?}", a.columns()),
                "cycle {}",
                a.cycle
            );
        }
        // A wider span re-bases lane masks and cycle numbers on `from`.
        let span = block.columns(5, 29);
        assert_eq!((span.len, span.first_cycle, span.cycle(3)), (24, 6, 9));
        assert_eq!(span.latches(2), block.latches(7));
        for j in 0..span.len {
            assert_eq!(
                (span.icache_access_lanes >> j) & 1 == 1,
                acts[5 + j].icache_access
            );
        }
        assert_eq!(span.icache_access_lanes >> span.len, 0);
    }

    #[test]
    fn lane_range_masks() {
        assert_eq!(ActivityBlock::lane_range(0, 64), u64::MAX);
        assert_eq!(ActivityBlock::lane_range(0, 0), 0);
        assert_eq!(ActivityBlock::lane_range(64, 64), 0);
        assert_eq!(ActivityBlock::lane_range(1, 3), 0b110);
        assert_eq!(ActivityBlock::lane_range(63, 64), 1 << 63);
    }

    #[test]
    #[should_panic(expected = "non-consecutive")]
    fn block_rejects_cycle_gaps() {
        let mut block = ActivityBlock::new(2);
        block.push(&sample_activity(1, 2));
        block.push(&sample_activity(3, 2));
    }

    #[test]
    fn activity_reset_clears() {
        let mut a = CycleActivity {
            issued: 5,
            ..CycleActivity::default()
        };
        a.grants.push(FuGrant {
            class: FuClass::IntAlu,
            instance: 0,
            exec_start: 2,
            active_len: 1,
        });
        a.latch_occupancy.push(3);
        a.reset(42);
        assert_eq!(a.cycle, 42);
        assert_eq!(a.issued, 0);
        assert!(a.grants.is_empty());
        assert!(a.latch_occupancy.is_empty());
    }
}
