//! The out-of-order pipeline driver.
//!
//! Structure (paper Figure 3): Fetch → Decode → Rename → Issue → Register
//! read → Execute → Memory → Writeback, with in-order dispatch into a
//! 128-entry window, age-ordered wakeup/select, and in-order commit.
//!
//! ## Timing conventions (8-stage geometry)
//!
//! * an instruction selected (issued) in cycle `X` reads registers in `X+1`
//!   and starts executing in `X+2` (paper Figure 6);
//! * a load issued in `X` accesses the D-cache in `X+3` (paper §3.3);
//! * an instruction finishing execution in cycle `Y` drives a result bus
//!   (writeback) in `Y+2` (paper §3.4);
//! * committed stores access the D-cache 1 cycle after reaching the head
//!   (or 2 with [`StoreTiming::DelayOneCycle`]).
//!
//! ## Trace-driven simplifications (documented in DESIGN.md)
//!
//! * Wrong-path instructions are not simulated: a mispredicted branch
//!   stalls fetch until it executes, after which the front end refills —
//!   the effective penalty matches Table 1's 8 cycles.
//! * Cache outcomes are computed when an access is *scheduled* (its cycle
//!   is passed explicitly), which makes all future resource usage
//!   deterministic — the property DCG exploits.

use std::collections::VecDeque;

use dcg_isa::{FuClass, Inst, OpClass};
use dcg_workloads::InstStream;

use crate::activity::{CycleActivity, FlowHistory, FuGrant, LatchGroups};
use crate::bpred::BranchPredictor;
use crate::cache::CacheHierarchy;
use crate::config::{SimConfig, StoreTiming};
use crate::constraint::ResourceConstraints;
use crate::fu::{ActiveTracker, FuPool, FuSelectPolicy};
use crate::iq::{Grant, IssueQueue};
use crate::lsq::{LoadDisposition, Lsq};
use crate::rob::{InstId, Rob};
use crate::stats::SimStats;

/// Scheduling-ring horizon; must exceed the worst-case scheduling distance
/// (L2 + memory latency + slack).
const RING: usize = 512;

/// Cycles without a commit before the watchdog declares a deadlock.
const WATCHDOG_CYCLES: u64 = 100_000;

#[derive(Debug, Clone, Copy)]
struct FrontInst {
    inst: Inst,
    mispredicted: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct DcacheSched {
    loads: u32,
    stores: u32,
    misses: u32,
    l2: u32,
}

/// The simulated processor.
///
/// # Example
///
/// ```
/// use dcg_sim::{Processor, SimConfig};
/// use dcg_workloads::{Spec2000, SyntheticWorkload};
///
/// let stream = SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1);
/// let mut cpu = Processor::new(SimConfig::baseline_8wide(), stream);
/// cpu.run_until_commits(1_000, |_act| {});
/// assert!(cpu.stats().ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct Processor<S> {
    cfg: SimConfig,
    constraints: ResourceConstraints,
    /// `set_constraints` changed the enabled unit counts; the issue stage
    /// applies them to `fus` (at the point in the cycle where it always
    /// has, after commit has reserved its store ports).
    fu_enabled_stale: bool,
    /// No load can find a free memory port before this issue cycle. Only
    /// a change in the enabled port count can bring it earlier, so
    /// `set_constraints` resets it.
    load_ports_free_at: u64,
    stream: S,
    peeked: Option<Inst>,
    cycle: u64,
    rob: Rob,
    iq: IssueQueue,
    lsq: Lsq,
    fus: FuPool,
    active: ActiveTracker,
    bpred: BranchPredictor,
    icache: CacheHierarchy,
    dcache: CacheHierarchy,
    map_table: Vec<Option<InstId>>,
    front: Vec<VecDeque<FrontInst>>,
    fetch_blocked: bool,
    fetch_resume_at: Option<u64>,
    icache_stall_until: u64,
    // Scheduling rings, indexed by cycle % RING.
    bus_booked: Vec<u32>,
    load_port_ring: Vec<u32>,
    store_port_ring: Vec<u32>,
    dcache_ring: Vec<DcacheSched>,
    store_drain: Vec<(u64, InstId)>,
    latch_groups: LatchGroups,
    history: FlowHistory,
    activity: CycleActivity,
    stats: SimStats,
    last_commit_cycle: u64,
    issue_to_exec: u32,
    exec_to_wb: u32,
    renamed_this_cycle: u32,
    retire_log_enabled: bool,
    retire_log: Vec<Inst>,
    /// Producers of each ROB slot's operands at dispatch: the input of
    /// the wake-up's debug reference (`Processor::polled_operands_at`).
    #[cfg(debug_assertions)]
    producers: Vec<[Option<InstId>; 2]>,
}

impl<S: InstStream> Processor<S> {
    /// Build a processor running `stream` with the default (sequential
    /// priority, §3.1) unit-selection policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn new(config: SimConfig, stream: S) -> Processor<S> {
        Self::with_policy(config, stream, FuSelectPolicy::SequentialPriority)
    }

    /// Build a processor with an explicit unit-selection policy (used by
    /// the FU-policy ablation).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn with_policy(config: SimConfig, stream: S, policy: FuSelectPolicy) -> Processor<S> {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        let front_depth = config.depth.front_depth();
        let latch_groups = LatchGroups::new(&config.depth);
        Processor {
            constraints: ResourceConstraints::unrestricted(&config),
            fu_enabled_stale: false,
            load_ports_free_at: 0,
            stream,
            peeked: None,
            cycle: 0,
            rob: Rob::new(config.rob_entries),
            iq: IssueQueue::new(config.iq_entries, config.rob_entries),
            lsq: Lsq::new(config.lsq_entries),
            fus: FuPool::new(&config, policy),
            active: ActiveTracker::new(),
            bpred: BranchPredictor::new(&config.bpred),
            icache: CacheHierarchy::new(config.icache, config.l2, config.mem_latency),
            dcache: {
                let d = CacheHierarchy::new(config.dcache, config.l2, config.mem_latency);
                if config.dcache_next_line_prefetch {
                    d.with_next_line_prefetch()
                } else {
                    d
                }
            },
            map_table: vec![None; dcg_isa::NUM_ARCH_REGS as usize],
            front: (0..front_depth).map(|_| VecDeque::new()).collect(),
            fetch_blocked: false,
            fetch_resume_at: None,
            icache_stall_until: 0,
            bus_booked: vec![0; RING],
            load_port_ring: vec![0; RING],
            store_port_ring: vec![0; RING],
            dcache_ring: vec![DcacheSched::default(); RING],
            store_drain: Vec::new(),
            latch_groups,
            history: FlowHistory::new(),
            activity: CycleActivity::default(),
            stats: SimStats::default(),
            last_commit_cycle: 0,
            issue_to_exec: config.depth.issue_to_execute(),
            exec_to_wb: config.depth.execute_to_writeback(),
            renamed_this_cycle: 0,
            retire_log_enabled: false,
            retire_log: Vec::new(),
            #[cfg(debug_assertions)]
            producers: vec![[None; 2]; config.rob_entries],
            cfg: config,
        }
    }

    /// The configuration the processor was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The pipeline-latch geometry (for the power model and DCG).
    pub fn latch_groups(&self) -> &LatchGroups {
        &self.latch_groups
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The branch predictor (for accuracy statistics).
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// The data-cache hierarchy (for miss statistics).
    pub fn dcache(&self) -> &CacheHierarchy {
        &self.dcache
    }

    /// Replace the dynamic resource constraints (PLB mode switches).
    ///
    /// # Panics
    ///
    /// Panics if the constraints are invalid for this configuration.
    pub fn set_constraints(&mut self, constraints: ResourceConstraints) {
        if let Err(e) = constraints.validate(&self.cfg) {
            panic!("invalid resource constraints: {e}");
        }
        self.constraints = constraints;
        self.fu_enabled_stale = true;
        self.load_ports_free_at = 0;
    }

    /// Current resource constraints.
    pub fn constraints(&self) -> &ResourceConstraints {
        &self.constraints
    }

    /// The instruction stream driving this processor.
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Start recording every retired instruction, in commit order.
    ///
    /// Off by default: the differential harness turns it on to compare
    /// the pipeline's retired stream against a functional reference
    /// model. Purely observational — it does not perturb timing, the
    /// activity trace, or any statistic.
    pub fn enable_retire_log(&mut self) {
        self.retire_log_enabled = true;
    }

    /// Retired instructions recorded since [`Processor::enable_retire_log`].
    pub fn retired_log(&self) -> &[Inst] {
        &self.retire_log
    }

    /// Advance one cycle and return what happened.
    ///
    /// # Panics
    ///
    /// Panics if no instruction commits for 100 000 consecutive cycles
    /// (deadlock watchdog).
    pub fn step(&mut self) -> &CycleActivity {
        self.cycle += 1;
        let now = self.cycle;
        self.fus.advance();
        self.active.advance();
        self.activity.reset(now);
        self.renamed_this_cycle = 0;

        self.drain_stores(now);
        self.do_commit(now);
        self.do_issue(now);
        self.do_dispatch();
        self.do_front_advance();
        self.do_fetch(now);
        self.finalize_cycle(now);
        &self.activity
    }

    /// Run until `n` further instructions commit, invoking `on_cycle` with
    /// each cycle's activity.
    pub fn run_until_commits(&mut self, n: u64, mut on_cycle: impl FnMut(&CycleActivity)) {
        let target = self.stats.committed + n;
        while self.stats.committed < target {
            self.step();
            on_cycle(&self.activity);
        }
    }

    // ------------------------------------------------------------------
    // Stage implementations
    // ------------------------------------------------------------------

    fn drain_stores(&mut self, now: u64) {
        let lsq = &mut self.lsq;
        self.store_drain.retain(|&(t, id)| {
            if t <= now {
                lsq.remove(id);
                false
            } else {
                true
            }
        });
    }

    fn do_commit(&mut self, now: u64) {
        let mut committed = 0u32;
        while committed < self.cfg.commit_width as u32 {
            let Some((head, e)) = self.rob.head() else {
                break;
            };
            if !e.commit_ready(now) {
                break;
            }
            let inst = e.inst;
            debug_assert!(
                e.result_ready.is_none_or(|r| r <= now),
                "a result is ready by commit (the wake-up's debug reference relies on it)"
            );
            if inst.op == OpClass::Store {
                // Schedule the commit-time D-cache access; the store then
                // retires immediately and drains through the LSQ/write
                // buffer (paper §3.3).
                let delay = match self.cfg.store_timing {
                    StoreTiming::KnownOneCycleAhead => 1,
                    StoreTiming::DelayOneCycle => 2,
                };
                let Some((t, port)) = self.reserve_store_port(now, delay) else {
                    break; // port pressure: retry next cycle
                };
                let addr = inst.mem.expect("store has an address").addr;
                let out = self.dcache.access(addr, t);
                let idx = (t % RING as u64) as usize;
                self.store_port_ring[idx] |= 1 << port;
                self.dcache_ring[idx].stores += 1;
                if out.l1_miss {
                    self.dcache_ring[idx].misses += 1;
                    self.dcache_ring[idx].l2 += 1;
                }
                if out.prefetched {
                    self.dcache_ring[idx].l2 += 1;
                }
                self.active
                    .mark(FuClass::MemPort, port, (t - now) as u32, 1);
                self.store_drain.push((t, head));
            } else if inst.op == OpClass::Load {
                self.lsq.remove(head);
            }
            // Past the last early-exit: this instruction definitely
            // retires this cycle.
            if self.retire_log_enabled {
                self.retire_log.push(inst);
            }
            if let Some(r) = inst.dest {
                let slot = &mut self.map_table[r.dense()];
                if *slot == Some(head) {
                    *slot = None;
                }
            }
            // Dependents of an instruction that writes no result wait for
            // its commit; anything else woke its dependents at issue.
            self.iq.wake(head, now);
            self.rob.pop_head();
            committed += 1;
        }
        self.activity.committed = committed;
        if committed > 0 {
            self.last_commit_cycle = now;
        } else if now - self.last_commit_cycle > WATCHDOG_CYCLES {
            panic!(
                "deadlock: no commit for {WATCHDOG_CYCLES} cycles at cycle {now} \
                 (rob={}, iq={}, lsq={})",
                self.rob.len(),
                self.iq.len(),
                self.lsq.len()
            );
        }
    }

    /// Book the first memory port free within 32 cycles of `now + delay`.
    fn reserve_store_port(&mut self, now: u64, delay: u32) -> Option<(u64, usize)> {
        let offset = self.fus.first_free(FuClass::MemPort, delay);
        if offset >= delay + 32 {
            return None;
        }
        let port = self
            .fus
            .reserve_any_at(FuClass::MemPort, offset)
            .expect("a port is free at the first free offset");
        Some((now + u64::from(offset), port))
    }

    fn do_issue(&mut self, now: u64) {
        if self.fu_enabled_stale {
            for c in FuClass::ALL {
                self.fus.set_enabled(c, self.constraints.enabled(c));
            }
            self.fu_enabled_stale = false;
        }
        #[cfg(debug_assertions)]
        self.check_wakeup(now);
        let allowed = self.cfg.issue_width.min(self.constraints.issue_width);
        let mut iq = std::mem::replace(&mut self.iq, IssueQueue::PARKED);
        let granted = iq.select(allowed, now, |id| self.try_issue_one(id, now));
        self.iq = iq;
        debug_assert_eq!(granted, self.activity.issued as usize);
    }

    /// Debug reference for the wake-up: the per-cycle poll it replaced.
    /// The cycle from which every operand of `id` is available, or `None`
    /// while a producer still in flight has not issued or writes no
    /// result. A committed producer's value is architectural.
    #[cfg(debug_assertions)]
    fn polled_operands_at(&self, id: InstId) -> Option<u64> {
        let mut at = 0;
        for p in self.producers[id.slot()].into_iter().flatten() {
            if let Some(pe) = self.rob.get(p) {
                at = at.max(pe.result_ready?);
            }
        }
        Some(at)
    }

    /// Checks every waiting entry's stamped ready cycle against the poll
    /// before select, so every grant is covered. While every producer is
    /// in flight the two are equal. The poll no longer sees a committed
    /// producer (its result was ready by its commit), so after that only
    /// their answers for `now` must agree.
    #[cfg(debug_assertions)]
    fn check_wakeup(&self, now: u64) {
        for id in self.iq.iter() {
            let stamped = self.iq.ready_at(id);
            let polled = self.polled_operands_at(id);
            let all_live = self.producers[id.slot()]
                .into_iter()
                .flatten()
                .all(|p| self.rob.get(p).is_some());
            if all_live {
                debug_assert_eq!(stamped, polled, "wake-up of {id:?} at cycle {now}");
            } else {
                debug_assert_eq!(
                    stamped.is_some_and(|t| t <= now),
                    polled.is_some_and(|t| t <= now),
                    "wake-up of {id:?} at cycle {now}"
                );
            }
        }
    }

    fn try_issue_one(&mut self, id: InstId, now: u64) -> Grant {
        let e = self.rob.get(id).expect("candidate is live");
        let (op, mem, mispredicted) = (e.inst.op, e.inst.mem, e.mispredicted);
        let srcs = e.inst.src_count() as u32;
        let grant = match op {
            OpClass::Load => self.issue_load(id, now, mem.expect("load has addr").addr),
            OpClass::Store => self.issue_store(id, now),
            _ => {
                let spec = self.cfg.op_spec(op);
                self.issue_alu(id, now, op, spec.latency, spec.interval, mispredicted)
            }
        };
        if grant == Grant::Refused {
            return grant;
        }
        self.activity.issued += 1;
        if op.is_fp() {
            self.activity.issued_fp += 1;
        }
        self.activity.regfile_reads += srcs;
        grant
    }

    fn issue_load(&mut self, id: InstId, now: u64, addr: u64) -> Grant {
        let ex_off = self.issue_to_exec;
        // The port pipeline is fully pipelined (AGU then array access):
        // only the array-access cycle at X+3 is a structural resource, so
        // at most `mem_ports` loads can issue per cycle. Both checks below
        // are pure, so testing the ports first (the usual reason a load
        // waits) skips the LSQ scan without changing any outcome. A load
        // that finds every port booked records the first issue cycle with
        // a free one, and loads skip the search until then.
        if now < self.load_ports_free_at {
            return Grant::Refused;
        }
        let first_free = self.fus.first_free(FuClass::MemPort, ex_off + 1);
        if first_free > ex_off + 1 {
            self.load_ports_free_at = now + u64::from(first_free - (ex_off + 1));
            return Grant::Refused;
        }
        let disp = self.lsq.load_disposition(id, addr);
        if matches!(disp, LoadDisposition::WaitForStore(_)) {
            return Grant::Refused;
        }
        let port = self
            .fus
            .try_reserve(FuClass::MemPort, ex_off + 1, 1)
            .expect("a port was free");
        let access_cycle = now + u64::from(ex_off) + 1;
        let out = self.dcache.access(addr, access_cycle);
        // Paper §3.3: the load accesses the cache and the LSQ
        // simultaneously; a forwarded load still fires the decoders but its
        // data comes from the queue at hit latency.
        let data_ready = if matches!(disp, LoadDisposition::Forward) {
            access_cycle + u64::from(self.cfg.dcache.latency)
        } else {
            out.data_ready
        };
        let idx = (access_cycle % RING as u64) as usize;
        self.load_port_ring[idx] |= 1 << port;
        self.dcache_ring[idx].loads += 1;
        if out.l1_miss {
            self.dcache_ring[idx].misses += 1;
            self.dcache_ring[idx].l2 += 1;
        }
        if out.prefetched {
            self.dcache_ring[idx].l2 += 1;
        }
        // Decoder active exactly in the access cycle.
        self.active.mark(FuClass::MemPort, port, ex_off + 1, 1);
        let wb = self.book_bus(data_ready + 1);
        let result_ready = data_ready.saturating_sub(2).max(now + 1);
        let e = self.rob.get_mut(id).expect("load is live");
        e.result_ready = Some(result_ready);
        e.complete_at = Some(wb);
        self.activity.issued_loads += 1;
        self.activity.grants.push(FuGrant {
            class: FuClass::MemPort,
            instance: port,
            exec_start: ex_off + 1,
            active_len: 1,
        });
        Grant::Result(result_ready)
    }

    fn issue_store(&mut self, id: InstId, now: u64) -> Grant {
        let ex_off = self.issue_to_exec;
        // Address generation only: the pipelined AGU is not a structural
        // hazard, and the D-cache access happens at commit (§3.3).
        let e = self.rob.get_mut(id).expect("store is live");
        e.complete_at = Some(now + u64::from(ex_off) + 1);
        self.lsq.mark_executed(id);
        self.activity.issued_stores += 1;
        Grant::NoResult
    }

    fn issue_alu(
        &mut self,
        id: InstId,
        now: u64,
        op: OpClass,
        latency: u32,
        interval: u32,
        mispredicted: bool,
    ) -> Grant {
        let class = op.fu_class();
        let ex_off = self.issue_to_exec;
        let Some(fu) = self.fus.try_reserve(class, ex_off, interval) else {
            return Grant::Refused;
        };
        let exec_end = now + u64::from(ex_off) + u64::from(latency) - 1;
        self.active.mark(class, fu, ex_off, latency);
        let (result_ready, complete_at) = if op.writes_result() {
            let wb = self.book_bus(exec_end + u64::from(self.exec_to_wb));
            (Some(now + u64::from(latency)), wb)
        } else {
            (None, exec_end + 1)
        };
        let e = self.rob.get_mut(id).expect("candidate is live");
        e.result_ready = result_ready;
        e.complete_at = Some(complete_at);
        if mispredicted {
            // Branch resolves at the end of execute; fetch restarts next
            // cycle (Table 1's 8-cycle penalty emerges from the refill).
            self.fetch_resume_at = Some(exec_end + 1);
        }
        self.activity.grants.push(FuGrant {
            class,
            instance: fu,
            exec_start: ex_off,
            active_len: latency,
        });
        result_ready.map_or(Grant::NoResult, Grant::Result)
    }

    /// Book a result bus at the first free cycle at or after `desired`.
    fn book_bus(&mut self, desired: u64) -> u64 {
        let mut t = desired;
        loop {
            let idx = (t % RING as u64) as usize;
            if self.bus_booked[idx] < self.cfg.result_buses as u32 {
                self.bus_booked[idx] += 1;
                return t;
            }
            t += 1;
        }
    }

    fn do_dispatch(&mut self) {
        let last = self.front.len() - 1;
        let mut dispatched = 0u32;
        while let Some(fi) = self.front[last].front().copied() {
            let is_mem = fi.inst.op.is_mem();
            if self.rob.is_full() || self.iq.is_full() || (is_mem && self.lsq.is_full()) {
                break;
            }
            self.front[last].pop_front();
            let id = self.rob.push(fi.inst).expect("checked not full");
            // Wire producers from the map table: one that has issued gives
            // its result cycle now, any other wakes this entry later.
            let mut known = 0;
            let mut waiting = [None, None];
            #[cfg(debug_assertions)]
            {
                self.producers[id.slot()] = [None, None];
            }
            for (k, src) in fi.inst.srcs.iter().enumerate() {
                let Some(p) = src
                    .filter(|r| !r.is_zero())
                    .and_then(|r| self.map_table[r.dense()])
                else {
                    continue;
                };
                #[cfg(debug_assertions)]
                {
                    self.producers[id.slot()][k] = Some(p);
                }
                match self.rob.get(p).map(|pe| pe.result_ready) {
                    Some(Some(t)) => known = known.max(t),
                    Some(None) => waiting[k] = Some(p),
                    None => {} // committed: the value is architectural
                }
            }
            self.rob.get_mut(id).expect("just pushed").mispredicted = fi.mispredicted;
            if let Some(dest) = fi.inst.dest {
                if !dest.is_zero() {
                    self.map_table[dest.dense()] = Some(id);
                }
            }
            if is_mem {
                let pushed = self.lsq.push(
                    id,
                    fi.inst.op == OpClass::Store,
                    fi.inst.mem.expect("mem op").addr,
                );
                debug_assert!(pushed, "LSQ space was checked");
            }
            let pushed = self.iq.push(id, known, waiting);
            debug_assert!(pushed, "IQ space was checked");
            dispatched += 1;
        }
        self.activity.dispatched = dispatched;
    }

    fn do_front_advance(&mut self) {
        let depth = &self.cfg.depth;
        let first_rename_slot = depth.fetch + depth.decode;
        for i in (1..self.front.len()).rev() {
            if self.front[i].is_empty() && !self.front[i - 1].is_empty() {
                // Swap rather than take: the emptied deque keeps its
                // buffer for the next group.
                self.front.swap(i - 1, i);
                if i == first_rename_slot {
                    self.renamed_this_cycle = self.front[i].len() as u32;
                }
            }
        }
        // Single front slot (no distinct rename slot) degenerate case is
        // impossible: front_depth >= 3 for all valid geometries.
        self.activity.renamed = self.renamed_this_cycle;
    }

    fn do_fetch(&mut self, now: u64) {
        if self.fetch_blocked {
            match self.fetch_resume_at {
                Some(r) if now >= r => {
                    self.fetch_blocked = false;
                    self.fetch_resume_at = None;
                }
                _ => return,
            }
        }
        if now < self.icache_stall_until {
            return;
        }
        if !self.front[0].is_empty() {
            return; // structural stall: decode latch still occupied
        }

        let first_pc = self.peek().pc;
        self.activity.icache_access = true;
        let out = self.icache.access(first_pc, now);
        if out.l1_miss {
            self.activity.icache_miss = true;
            self.icache_stall_until = out.data_ready;
            return;
        }

        let fetch_limit = self.cfg.fetch_width.min(self.constraints.fetch_width);
        let mut fetched = 0u32;
        while (fetched as usize) < fetch_limit {
            let inst = self.take();
            let mut stop = false;
            let mut mispredicted = false;
            if let Some(info) = inst.branch {
                self.activity.bpred_lookups += 1;
                let (_pred, miss) = self.bpred.predict_and_update(inst.pc, info);
                mispredicted = miss;
                self.activity.bpred_mispredicts += u32::from(miss);
                // Cannot fetch past a taken branch in the same cycle.
                stop = info.taken || miss;
            }
            self.front[0].push_back(FrontInst { inst, mispredicted });
            fetched += 1;
            if mispredicted {
                self.fetch_blocked = true;
                self.fetch_resume_at = None; // set when the branch issues
                break;
            }
            if stop {
                break;
            }
        }
        self.activity.fetched = fetched;
    }

    fn peek(&mut self) -> &Inst {
        if self.peeked.is_none() {
            self.peeked = Some(self.stream.next_inst());
        }
        self.peeked.as_ref().expect("just filled")
    }

    fn take(&mut self) -> Inst {
        if let Some(i) = self.peeked.take() {
            i
        } else {
            self.stream.next_inst()
        }
    }

    fn finalize_cycle(&mut self, now: u64) {
        self.history.record(
            self.activity.fetched,
            self.activity.renamed,
            self.activity.issued,
        );
        self.latch_groups
            .occupancies(&self.history, &mut self.activity.latch_occupancy);
        self.activity.fu_active = self.active.masks_now();
        let idx = (now % RING as u64) as usize;
        self.activity.dcache_port_mask = self.load_port_ring[idx] | self.store_port_ring[idx];
        debug_assert_eq!(
            self.activity.dcache_port_mask,
            self.activity.fu_active[FuClass::MemPort.index()],
            "decoder mask must agree with the active tracker"
        );
        let sched = self.dcache_ring[idx];
        self.activity.dcache_load_accesses = sched.loads;
        self.activity.dcache_store_accesses = sched.stores;
        self.activity.dcache_misses = sched.misses;
        self.activity.l2_accesses = sched.l2;
        self.activity.result_bus_used = self.bus_booked[idx];
        self.activity.regfile_writes = self.bus_booked[idx];

        // Advance knowledge exposed to gating policies.
        let feed_slot = self.cfg.depth.fetch + self.cfg.depth.decode - 1;
        self.activity.decode_ready_next = self.front[feed_slot].len() as u32;
        self.activity.iq_occupancy = self.iq.len() as u32;
        self.activity.rob_occupancy = self.rob.len() as u32;
        self.activity.lsq_occupancy = self.lsq.len() as u32;
        self.activity.store_ports_next = self.store_port_ring[((now + 1) % RING as u64) as usize];
        self.activity.result_bus_in_2 = self.bus_booked[((now + 2) % RING as u64) as usize];

        // Retire this cycle's ring slots for reuse RING cycles from now.
        self.bus_booked[idx] = 0;
        self.load_port_ring[idx] = 0;
        self.store_port_ring[idx] = 0;
        self.dcache_ring[idx] = DcacheSched::default();

        self.stats.record(&self.activity);
        debug_assert_eq!(
            self.stats.mispredicts,
            self.bpred.mispredicts(),
            "per-cycle mispredict counts must sum to the predictor's total"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceConstraints;
    use dcg_workloads::{Spec2000, SyntheticWorkload};

    fn ipc(cfg: SimConfig, bench: &str, commits: u64) -> f64 {
        let mut cpu = Processor::new(
            cfg,
            SyntheticWorkload::new(Spec2000::by_name(bench).expect("known"), 42),
        );
        cpu.run_until_commits(commits, |_| {});
        cpu.stats().ipc()
    }

    #[test]
    fn narrowing_issue_width_lowers_ipc() {
        let cfg = SimConfig::baseline_8wide();
        let mut cpu = Processor::new(
            cfg.clone(),
            SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 42),
        );
        cpu.set_constraints(
            ResourceConstraints::unrestricted(&cfg)
                .with_issue_width(2)
                .with_fetch_width(2),
        );
        cpu.run_until_commits(30_000, |_| {});
        let narrow = cpu.stats().ipc();
        let full = ipc(cfg, "gzip", 30_000);
        assert!(
            narrow < 0.8 * full,
            "2-wide machine must be slower: {narrow:.2} vs {full:.2}"
        );
        assert!(
            narrow <= 2.05,
            "cannot beat its own issue limit: {narrow:.2}"
        );
    }

    #[test]
    fn store_timing_options_cost_almost_nothing() {
        // Paper §3.3: delaying stores one cycle for clock-gate set-up has
        // "virtually no performance loss".
        let known = ipc(SimConfig::baseline_8wide(), "bzip2", 40_000);
        let delayed = ipc(
            SimConfig {
                store_timing: StoreTiming::DelayOneCycle,
                ..SimConfig::baseline_8wide()
            },
            "bzip2",
            40_000,
        );
        let loss = 1.0 - delayed / known;
        assert!(
            loss.abs() < 0.02,
            "store delay should be nearly free: {known:.3} -> {delayed:.3}"
        );
    }

    #[test]
    fn deeper_pipeline_pays_for_mispredicts() {
        // The 20-stage machine's longer refill shows up on a branchy,
        // poorly-predicted workload.
        let shallow = ipc(SimConfig::baseline_8wide(), "gcc", 40_000);
        let deep = ipc(SimConfig::deep_pipeline_20(), "gcc", 40_000);
        assert!(
            deep < shallow,
            "20 stages must not be faster on branchy code: {deep:.2} vs {shallow:.2}"
        );
    }

    #[test]
    fn activity_flows_are_conserved() {
        let cfg = SimConfig::baseline_8wide();
        let mut cpu = Processor::new(
            cfg,
            SyntheticWorkload::new(Spec2000::by_name("parser").unwrap(), 1),
        );
        let (mut fetched, mut dispatched, mut issued, mut committed) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..20_000 {
            let act = cpu.step();
            fetched += u64::from(act.fetched);
            dispatched += u64::from(act.dispatched);
            issued += u64::from(act.issued);
            committed += u64::from(act.committed);
        }
        // No wrong path is simulated, so nothing is ever discarded:
        // fetched >= dispatched >= issued >= committed, with bounded slack.
        assert!(fetched >= dispatched && dispatched >= issued && issued >= committed);
        assert!(fetched - dispatched <= 8 * 8, "front-end slack is bounded");
        assert!(dispatched - issued <= 128 + 8, "window slack is bounded");
        assert!(issued - committed <= 128 + 8, "ROB slack is bounded");
    }

    #[test]
    fn huge_code_footprints_miss_the_icache() {
        use dcg_isa::{ArchReg, BranchInfo, BranchKind, Inst, OpClass};
        use dcg_workloads::ReplayStream;
        // Straight-line code spanning 1 MB of PCs: every fetched line is
        // cold on the first lap and the I-cache (64 KB) cannot hold it.
        let span = 1 << 20;
        let mut trace: Vec<Inst> = (0..span / 4 - 1)
            .map(|k| {
                Inst::alu(4 * k, OpClass::IntAlu)
                    .with_dest(ArchReg::int(6 + (k % 20) as u8))
                    .with_srcs([Some(ArchReg::int(0)), None])
            })
            .collect();
        trace.push(Inst::branch(
            span - 4,
            BranchInfo {
                kind: BranchKind::Jump,
                taken: true,
                target: 0,
            },
        ));
        let mut big = Processor::new(
            SimConfig::baseline_8wide(),
            ReplayStream::new("bigcode", trace),
        );
        big.run_until_commits(400_000, |_| {});
        assert!(
            big.stats().icache_misses > 1_000,
            "1 MB of code must thrash the 64 KB I-cache: {} misses",
            big.stats().icache_misses
        );
        // A small loop with the same instruction mix barely misses.
        let small: Vec<Inst> = (0..63)
            .map(|k| {
                Inst::alu(4 * k, OpClass::IntAlu)
                    .with_dest(ArchReg::int(6 + (k % 20) as u8))
                    .with_srcs([Some(ArchReg::int(0)), None])
            })
            .chain(std::iter::once(Inst::branch(
                252,
                BranchInfo {
                    kind: BranchKind::Jump,
                    taken: true,
                    target: 0,
                },
            )))
            .collect();
        let mut tiny = Processor::new(
            SimConfig::baseline_8wide(),
            ReplayStream::new("tinycode", small),
        );
        tiny.run_until_commits(50_000, |_| {});
        assert!(tiny.stats().icache_misses < 20);
        assert!(
            tiny.stats().ipc() > big.stats().ipc(),
            "code misses must cost fetch bandwidth"
        );
    }

    #[test]
    fn a_consumer_of_a_producer_without_a_result_waits_for_its_commit() {
        use dcg_isa::{ArchReg, BranchInfo, BranchKind, Inst, OpClass};
        use dcg_workloads::ReplayStream;
        // A branch that names a destination writes no result, so its
        // consumer (the stream's only FP op) reads the register once the
        // branch commits. Well-formed streams never do this.
        let producer = Inst::branch(
            0,
            BranchInfo {
                kind: BranchKind::Conditional,
                taken: false,
                target: 0x100,
            },
        )
        .with_dest(ArchReg::fp(5));
        assert!(!producer.is_well_formed());
        let mut trace = vec![
            producer,
            Inst::alu(4, OpClass::FpAlu)
                .with_dest(ArchReg::fp(6))
                .with_srcs([Some(ArchReg::fp(5)), None]),
        ];
        trace.extend((2..64).map(|k| Inst::alu(4 * k, OpClass::IntAlu)));
        let mut cpu = Processor::new(
            SimConfig::baseline_8wide(),
            ReplayStream::new("no-result-producer", trace),
        );
        let (mut first_commit, mut first_fp_issue) = (None, None);
        while first_fp_issue.is_none() {
            let act = cpu.step();
            if act.committed > 0 {
                first_commit.get_or_insert(act.cycle);
            }
            if act.issued_fp > 0 {
                first_fp_issue = Some(act.cycle);
            }
        }
        assert!(
            first_commit.is_some_and(|c| c > 6),
            "the branch commits late"
        );
        assert_eq!(
            first_fp_issue, first_commit,
            "the consumer issues in its producer's commit cycle"
        );
    }

    #[test]
    #[should_panic(expected = "invalid resource constraints")]
    fn bad_constraints_are_rejected() {
        let cfg = SimConfig::baseline_8wide();
        let mut cpu = Processor::new(
            cfg.clone(),
            SyntheticWorkload::new(Spec2000::by_name("gzip").unwrap(), 1),
        );
        cpu.set_constraints(ResourceConstraints::unrestricted(&cfg).with_issue_width(0));
    }

    #[test]
    fn store_ports_next_signal_is_exact_for_stores() {
        // The §3.3 advance-knowledge signal: every store decoder firing at
        // cycle X was announced in store_ports_next at X-1.
        let cfg = SimConfig::baseline_8wide();
        let mut cpu = Processor::new(
            cfg,
            SyntheticWorkload::new(Spec2000::by_name("bzip2").unwrap(), 2),
        );
        let mut announced: u32 = 0;
        for _ in 0..20_000 {
            let act = cpu.step();
            // The announcement made at X-1 is the exact store port mask
            // for X (loads are covered by grants instead).
            assert_eq!(
                announced.count_ones(),
                act.dcache_store_accesses,
                "store announcement mismatch at cycle {}",
                act.cycle
            );
            assert_eq!(
                announced & !act.dcache_port_mask,
                0,
                "announced store port unused at cycle {}",
                act.cycle
            );
            announced = act.store_ports_next;
        }
    }
}
