//! Simulator configuration (Table 1 of the paper).
//!
//! [`SimConfig::baseline_8wide`] reproduces the paper's baseline processor:
//!
//! > 8-way issue, 128-entry window, 64-entry load/store queue, 6 integer
//! > ALUs, 2 integer multiply/divide units, 4 floating point ALUs, 4
//! > floating point multiply/divide units; 2-level branch prediction,
//! > 8192-entry tables, 32-entry RAS, 8192-entry 4-way BTB, 8-cycle
//! > mispredict penalty; 64 KB 2-way 2-cycle I/D L1, 2 MB 8-way 12-cycle
//! > L2, both LRU; infinite-capacity 100-cycle main memory.
//!
//! The paper's §4.4 concludes 6 integer ALUs are power/performance optimal
//! for the 8-wide machine, and Table 1 uses that configuration; the
//! [`SimConfig::int_alus`] knob reproduces the §4.4 sweep.

use dcg_isa::{FuClass, OpClass};

use crate::Fnv1a;

/// Geometry of one class of execution units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuSpec {
    /// Number of unit instances.
    pub count: usize,
    /// Result latency in cycles (time from execute start to result).
    pub latency: u32,
    /// Initiation interval: 1 for fully pipelined units, `latency` for
    /// unpipelined units (e.g. dividers).
    pub interval: u32,
}

impl FuSpec {
    /// A fully pipelined unit class.
    pub fn pipelined(count: usize, latency: u32) -> FuSpec {
        FuSpec {
            count,
            latency,
            interval: 1,
        }
    }

    /// An unpipelined unit class (initiation interval = latency).
    pub fn unpipelined(count: usize, latency: u32) -> FuSpec {
        FuSpec {
            count,
            latency,
            interval: latency,
        }
    }
}

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not a power of
    /// two.
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

/// Direction-predictor organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// 2-level gshare-style predictor (Table 1's configuration).
    #[default]
    TwoLevel,
    /// Bimodal: the PHT is indexed by PC alone (no global history) —
    /// an ablation alternative, not the paper's configuration.
    Bimodal,
}

/// Branch-predictor parameters (2-level + BTB + RAS, per Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// Direction-predictor organisation.
    pub kind: PredictorKind,
    /// Entries in the pattern-history table (second level).
    pub pht_entries: usize,
    /// Global-history bits used to index the PHT.
    pub history_bits: u32,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

/// How the simulator times committed stores' D-cache accesses, reproducing
/// the two options of paper §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreTiming {
    /// The store's cache access is known one cycle in advance (the
    /// load/store queue exposes the upcoming access), so clock-gate control
    /// can be set up with no delay. This is the paper's default assumption.
    #[default]
    KnownOneCycleAhead,
    /// No advance knowledge is available; the store is delayed by one cycle
    /// to create clock-gate set-up time ("virtually no performance loss"
    /// because stores produce no values — §3.3).
    DelayOneCycle,
}

/// Pipeline-depth geometry.
///
/// The base machine is the paper's 8-stage pipeline (Figure 3): Fetch,
/// Decode, Rename, Issue, Register read, Execute, Memory, Writeback. The
/// deep variant models the paper's §5.6 20-stage machine by splitting
/// stages; per §5.6, extra latches for any stage *except fetch, decode and
/// issue* remain gateable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineDepth {
    /// Fetch stages (ungateable latches).
    pub fetch: usize,
    /// Decode stages (ungateable latches).
    pub decode: usize,
    /// Rename stages (latches gated from decode information).
    pub rename: usize,
    /// Issue stages (ungateable latches — selection is known too late).
    pub issue: usize,
    /// Register-read stages (gated from issue information).
    pub regread: usize,
    /// Execute transport stages excluding the FU latency itself (gated).
    pub execute: usize,
    /// Memory stages (gated).
    pub mem: usize,
    /// Writeback stages (gated).
    pub writeback: usize,
}

impl PipelineDepth {
    /// The paper's 8-stage baseline.
    pub fn stages8() -> PipelineDepth {
        PipelineDepth {
            fetch: 1,
            decode: 1,
            rename: 1,
            issue: 1,
            regread: 1,
            execute: 1,
            mem: 1,
            writeback: 1,
        }
    }

    /// A 20-stage machine for the §5.6 deep-pipeline experiment.
    pub fn stages20() -> PipelineDepth {
        PipelineDepth {
            fetch: 3,
            decode: 3,
            rename: 2,
            issue: 2,
            regread: 2,
            execute: 2,
            mem: 3,
            writeback: 3,
        }
    }

    /// Total pipeline stages.
    pub fn total(&self) -> usize {
        self.fetch
            + self.decode
            + self.rename
            + self.issue
            + self.regread
            + self.execute
            + self.mem
            + self.writeback
    }

    /// Front-end depth in cycles: fetch through rename (the delay-line the
    /// simulator models before dispatch into the window).
    pub fn front_depth(&self) -> usize {
        self.fetch + self.decode + self.rename
    }

    /// Cycles between issue and execute (issue transit + register read).
    ///
    /// For the 8-stage machine this is 2 — the paper's Figure 6 timing:
    /// instructions selected in cycle X use the execution units in X+2.
    pub fn issue_to_execute(&self) -> u32 {
        (self.issue - 1 + self.regread + 1) as u32
    }

    /// Cycles between execute completion and writeback (memory-stage
    /// transit). For the 8-stage machine this is 2 (paper §3.4: an
    /// instruction executed in cycle X writes back in X+2).
    pub fn execute_to_writeback(&self) -> u32 {
        (self.mem + self.writeback - 1 + 1) as u32
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Maximum instructions issued per cycle (8 in Table 1).
    pub issue_width: usize,
    /// Maximum instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer ("window") entries: 128 in Table 1.
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load/store-queue entries: 64 in Table 1.
    pub lsq_entries: usize,
    /// Integer ALU count (Table 1: 6; §4.4 sweeps 8/6/4).
    pub int_alus: usize,
    /// Integer multiply/divide unit count.
    pub int_muldivs: usize,
    /// FP ALU count.
    pub fp_alus: usize,
    /// FP multiply/divide unit count.
    pub fp_muldivs: usize,
    /// D-cache ports (each port = AGU + wordline decoder).
    pub mem_ports: usize,
    /// Result buses (one per issue slot in the baseline).
    pub result_buses: usize,
    /// Pipeline-depth geometry.
    pub depth: PipelineDepth,
    /// Branch predictor parameters.
    pub bpred: BpredConfig,
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (Table 1: 100).
    pub mem_latency: u32,
    /// Store commit timing (paper §3.3).
    pub store_timing: StoreTiming,
    /// Tagged next-line D-cache prefetcher (extension knob; the paper's
    /// machine has none).
    pub dcache_next_line_prefetch: bool,
    /// Operation latencies, indexed by [`OpClass::index`]; memory classes
    /// hold the address-generation latency (cache latency is added by the
    /// memory model).
    pub op_latency: [u32; OpClass::COUNT],
    /// Unpipelined operation classes (occupy their unit for the full
    /// latency).
    pub unpipelined: [bool; OpClass::COUNT],
}

impl SimConfig {
    /// The paper's Table 1 baseline.
    pub fn baseline_8wide() -> SimConfig {
        let mut op_latency = [1u32; OpClass::COUNT];
        op_latency[OpClass::IntMul.index()] = 3;
        op_latency[OpClass::IntDiv.index()] = 20;
        op_latency[OpClass::FpAlu.index()] = 2;
        op_latency[OpClass::FpMul.index()] = 4;
        op_latency[OpClass::FpDiv.index()] = 12;
        let mut unpipelined = [false; OpClass::COUNT];
        unpipelined[OpClass::IntDiv.index()] = true;
        unpipelined[OpClass::FpDiv.index()] = true;

        SimConfig {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 128,
            iq_entries: 128,
            lsq_entries: 64,
            int_alus: 6,
            int_muldivs: 2,
            fp_alus: 4,
            fp_muldivs: 4,
            mem_ports: 2,
            result_buses: 8,
            depth: PipelineDepth::stages8(),
            bpred: BpredConfig {
                kind: PredictorKind::TwoLevel,
                pht_entries: 8192,
                history_bits: 13,
                btb_entries: 8192,
                btb_ways: 4,
                ras_entries: 32,
            },
            icache: CacheConfig {
                size_bytes: 64 << 10,
                ways: 2,
                line_bytes: 32,
                latency: 2,
            },
            dcache: CacheConfig {
                size_bytes: 64 << 10,
                ways: 2,
                line_bytes: 32,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            },
            mem_latency: 100,
            store_timing: StoreTiming::default(),
            dcache_next_line_prefetch: false,
            op_latency,
            unpipelined,
        }
    }

    /// The §5.6 deep-pipeline (20-stage) variant of the baseline.
    pub fn deep_pipeline_20() -> SimConfig {
        SimConfig {
            depth: PipelineDepth::stages20(),
            ..Self::baseline_8wide()
        }
    }

    /// Number of unit instances of `class`.
    pub fn fu_count(&self, class: FuClass) -> usize {
        match class {
            FuClass::IntAlu => self.int_alus,
            FuClass::IntMulDiv => self.int_muldivs,
            FuClass::FpAlu => self.fp_alus,
            FuClass::FpMulDiv => self.fp_muldivs,
            FuClass::MemPort => self.mem_ports,
        }
    }

    /// Execution spec (latency/interval) for an operation class.
    pub fn op_spec(&self, op: OpClass) -> FuSpec {
        let latency = self.op_latency[op.index()];
        let count = self.fu_count(op.fu_class());
        if self.unpipelined[op.index()] {
            FuSpec::unpipelined(count, latency)
        } else {
            FuSpec::pipelined(count, latency)
        }
    }

    /// Stable 64-bit content digest over every configuration field
    /// ([`Fnv1a`]).
    ///
    /// Two configurations digest equally iff they simulate identically,
    /// so the digest content-addresses cached activity traces: any field
    /// change — widths, unit counts, cache geometry, latencies, pipeline
    /// depth — yields a different digest and therefore a different cache
    /// entry. Not a cryptographic hash.
    pub fn digest(&self) -> u64 {
        let mut state = Fnv1a::new();
        let mut mix = |v: u64| state.write(&v.to_le_bytes());
        for v in [
            self.fetch_width as u64,
            self.issue_width as u64,
            self.commit_width as u64,
            self.rob_entries as u64,
            self.iq_entries as u64,
            self.lsq_entries as u64,
            self.int_alus as u64,
            self.int_muldivs as u64,
            self.fp_alus as u64,
            self.fp_muldivs as u64,
            self.mem_ports as u64,
            self.result_buses as u64,
            self.depth.fetch as u64,
            self.depth.decode as u64,
            self.depth.rename as u64,
            self.depth.issue as u64,
            self.depth.regread as u64,
            self.depth.execute as u64,
            self.depth.mem as u64,
            self.depth.writeback as u64,
            match self.bpred.kind {
                PredictorKind::TwoLevel => 0,
                PredictorKind::Bimodal => 1,
            },
            self.bpred.pht_entries as u64,
            u64::from(self.bpred.history_bits),
            self.bpred.btb_entries as u64,
            self.bpred.btb_ways as u64,
            self.bpred.ras_entries as u64,
            u64::from(self.mem_latency),
            match self.store_timing {
                StoreTiming::KnownOneCycleAhead => 0,
                StoreTiming::DelayOneCycle => 1,
            },
            u64::from(self.dcache_next_line_prefetch),
        ] {
            mix(v);
        }
        for c in [&self.icache, &self.dcache, &self.l2] {
            mix(c.size_bytes);
            mix(c.ways as u64);
            mix(c.line_bytes);
            mix(u64::from(c.latency));
        }
        for lat in self.op_latency {
            mix(u64::from(lat));
        }
        for up in self.unpipelined {
            mix(u64::from(up));
        }
        state.finish()
    }

    /// Validate structural constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("widths must be positive".into());
        }
        if self.rob_entries < self.issue_width {
            return Err("ROB must hold at least one issue group".into());
        }
        if self.iq_entries == 0 || self.lsq_entries == 0 {
            return Err("queues must be non-empty".into());
        }
        if self.int_alus == 0 || self.mem_ports == 0 {
            return Err("need at least one integer ALU and one memory port".into());
        }
        if self.result_buses == 0 {
            return Err("need at least one result bus".into());
        }
        for c in [&self.icache, &self.dcache, &self.l2] {
            let _ = c.sets(); // panics on bad geometry are converted below
            if c.latency == 0 {
                return Err("cache latency must be positive".into());
            }
        }
        if self.depth.total() < 8 {
            return Err("pipeline must have at least 8 stages".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline_8wide()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_1() {
        let c = SimConfig::baseline_8wide();
        c.validate().expect("baseline is valid");
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.lsq_entries, 64);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.int_muldivs, 2);
        assert_eq!(c.fp_alus, 4);
        assert_eq!(c.fp_muldivs, 4);
        assert_eq!(c.bpred.pht_entries, 8192);
        assert_eq!(c.bpred.btb_entries, 8192);
        assert_eq!(c.bpred.btb_ways, 4);
        assert_eq!(c.bpred.ras_entries, 32);
        assert_eq!(c.icache.size_bytes, 64 << 10);
        assert_eq!(c.dcache.latency, 2);
        assert_eq!(c.l2.size_bytes, 2 << 20);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.mem_latency, 100);
        assert_eq!(c.depth.total(), 8);
    }

    #[test]
    fn deep_pipeline_has_20_stages() {
        let c = SimConfig::deep_pipeline_20();
        c.validate().expect("valid");
        assert_eq!(c.depth.total(), 20);
        assert!(c.depth.front_depth() > PipelineDepth::stages8().front_depth());
    }

    #[test]
    fn issue_to_execute_matches_figure_6() {
        // Paper Figure 6: instructions selected in cycle X use the
        // execution units in cycle X+2.
        assert_eq!(PipelineDepth::stages8().issue_to_execute(), 2);
        // Paper §3.4: executed in X, writeback in X+2.
        assert_eq!(PipelineDepth::stages8().execute_to_writeback(), 2);
    }

    #[test]
    fn cache_geometry() {
        let c = SimConfig::baseline_8wide();
        assert_eq!(c.dcache.sets(), 1024);
        assert_eq!(c.l2.sets(), 4096);
    }

    #[test]
    fn op_specs() {
        let c = SimConfig::baseline_8wide();
        let div = c.op_spec(OpClass::IntDiv);
        assert_eq!(div.interval, div.latency, "divide is unpipelined");
        let mul = c.op_spec(OpClass::FpMul);
        assert_eq!(mul.interval, 1, "FP multiply is pipelined");
        assert_eq!(mul.count, 4);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SimConfig::baseline_8wide();
        c.issue_width = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::baseline_8wide();
        c.int_alus = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::baseline_8wide();
        c.rob_entries = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let base = SimConfig::baseline_8wide();
        assert_eq!(base.digest(), SimConfig::baseline_8wide().digest());
        assert_ne!(base.digest(), SimConfig::deep_pipeline_20().digest());
        let fewer_alus = SimConfig {
            int_alus: 4,
            ..SimConfig::baseline_8wide()
        };
        assert_ne!(base.digest(), fewer_alus.digest());
        let slow_mem = SimConfig {
            mem_latency: 101,
            ..SimConfig::baseline_8wide()
        };
        assert_ne!(base.digest(), slow_mem.digest());
        let delayed_stores = SimConfig {
            store_timing: StoreTiming::DelayOneCycle,
            ..SimConfig::baseline_8wide()
        };
        assert_ne!(base.digest(), delayed_stores.digest());
    }

    #[test]
    fn fu_counts_route_correctly() {
        let c = SimConfig::baseline_8wide();
        assert_eq!(c.fu_count(FuClass::IntAlu), 6);
        assert_eq!(c.fu_count(FuClass::MemPort), 2);
    }
}
