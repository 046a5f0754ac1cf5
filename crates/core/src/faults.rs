//! Deterministic fault injection for the gating-safety subsystem.
//!
//! A [`FaultPlan`] expands a single `u64` seed into a list of
//! [`FaultSpec`]s, round-robining over every named [`FaultPoint`] so a
//! campaign of `n >= FaultPoint::COUNT` faults exercises them all. Each
//! spec carries its own sub-seed; every parameter a fault needs (window
//! placement, targeted component, corrupted byte) is drawn from a
//! [`SmallRng`] seeded with it, so the whole campaign replays
//! bit-identically from the one seed (`DCG_FAULT_SEED`).
//!
//! This module holds the injectors that live inside the simulate-once
//! pass: [`FaultyPolicy`] perturbs a wrapped policy's gate decisions
//! (the first four points) and [`PanicSink`] panics mid-drive. The
//! trace/cache points are applied by the campaign driver in
//! `dcg-experiments`, which owns the files being corrupted.

use dcg_isa::FuClass;
use dcg_power::GateState;
use dcg_sim::{CycleActivity, LatchGroups, ResourceConstraints, SimConfig};
use dcg_testkit::rng::{splitmix64, SmallRng};

use crate::policy::GatingPolicy;
use crate::sinks::ActivitySink;

/// A named injection point in the simulate-once pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Flip a gating decision: gate a unit the policy powered (hazard if
    /// the unit turns out to be used).
    GateUsedUnit,
    /// Flip a gating decision the safe way: power a component class the
    /// policy gated (never a hazard; costs energy).
    PowerIdleUnit,
    /// Skew the GRANT pipe one cycle late: serve each cycle the previous
    /// cycle's gate decision.
    SkewLate,
    /// Skew the GRANT pipe one cycle early: serve each cycle the next
    /// cycle's gate decision (consuming its ring slots).
    SkewEarly,
    /// Corrupt one byte of a recorded activity trace before decode.
    TraceCorrupt,
    /// Truncate a recorded activity trace below the run's length.
    TraceTruncate,
    /// Fail the trace cache's store I/O (unwritable cache directory).
    CacheStoreIo,
    /// Corrupt a stored cache entry before the next load.
    CacheLoadCorrupt,
    /// Panic inside an [`ActivitySink`] mid-drive.
    SinkPanic,
    /// Tear a trace-store checkpoint mid-write: a truncated or corrupt
    /// temp image left beside the log, as a crash before its rename
    /// leaves it.
    CheckpointTorn,
    /// Truncate the trace store's journal mid-record, as a crashed
    /// appender would leave it.
    JournalTruncate,
    /// Strand an orphaned `.tmp` file in the store directory, as a
    /// writer dying before its journal record would.
    StoreOrphanTmp,
}

impl FaultPoint {
    /// Number of injection points.
    pub const COUNT: usize = 12;

    /// Every point, in round-robin order.
    pub const ALL: [FaultPoint; FaultPoint::COUNT] = [
        FaultPoint::GateUsedUnit,
        FaultPoint::PowerIdleUnit,
        FaultPoint::SkewLate,
        FaultPoint::SkewEarly,
        FaultPoint::TraceCorrupt,
        FaultPoint::TraceTruncate,
        FaultPoint::CacheStoreIo,
        FaultPoint::CacheLoadCorrupt,
        FaultPoint::SinkPanic,
        FaultPoint::CheckpointTorn,
        FaultPoint::JournalTruncate,
        FaultPoint::StoreOrphanTmp,
    ];

    /// Stable label (used in campaign reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultPoint::GateUsedUnit => "gate-used-unit",
            FaultPoint::PowerIdleUnit => "power-idle-unit",
            FaultPoint::SkewLate => "skew-grant-late",
            FaultPoint::SkewEarly => "skew-grant-early",
            FaultPoint::TraceCorrupt => "trace-corrupt",
            FaultPoint::TraceTruncate => "trace-truncate",
            FaultPoint::CacheStoreIo => "cache-store-io",
            FaultPoint::CacheLoadCorrupt => "cache-load-corrupt",
            FaultPoint::SinkPanic => "sink-panic",
            FaultPoint::CheckpointTorn => "store-checkpoint-torn",
            FaultPoint::JournalTruncate => "store-journal-truncate",
            FaultPoint::StoreOrphanTmp => "store-orphan-tmp",
        }
    }

    /// `true` for the points [`FaultyPolicy`] injects (gate-decision
    /// perturbations inside the drive loop).
    pub fn is_gate_level(self) -> bool {
        matches!(
            self,
            FaultPoint::GateUsedUnit
                | FaultPoint::PowerIdleUnit
                | FaultPoint::SkewLate
                | FaultPoint::SkewEarly
        )
    }
}

/// One planned fault: an injection point plus the sub-seed every one of
/// its parameters is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Position in the campaign (0-based).
    pub id: u32,
    /// Where to inject.
    pub point: FaultPoint,
    /// Sub-seed for this fault's parameters.
    pub seed: u64,
}

/// A deterministic campaign plan: `n` faults expanded from one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The campaign seed the plan was generated from.
    pub seed: u64,
    /// The planned faults, in execution order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Expand `seed` into `n` faults, round-robining over
    /// [`FaultPoint::ALL`] so any `n >= FaultPoint::COUNT` covers every
    /// point. The same `(seed, n)` always yields the same plan.
    pub fn generate(seed: u64, n: u32) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0xDC6F_A017_5EED_u64));
        let faults = (0..n)
            .map(|id| FaultSpec {
                id,
                point: FaultPoint::ALL[id as usize % FaultPoint::COUNT],
                seed: rng.next_u64(),
            })
            .collect();
        FaultPlan { seed, faults }
    }
}

/// The cycle window a gate-level fault is active in, derived from a
/// fault's sub-seed. Kept well inside the shortest campaign run so the
/// perturbation always lands in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First perturbed cycle.
    pub start: u64,
    /// Number of perturbed cycles.
    pub len: u64,
}

impl FaultWindow {
    /// Derive the window from a parameter stream.
    fn draw(rng: &mut SmallRng) -> FaultWindow {
        FaultWindow {
            start: rng.gen_range(20u64..260),
            len: rng.gen_range(8u64..48),
        }
    }

    /// `true` if `cycle` is inside the window.
    pub fn contains(self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.start + self.len
    }
}

/// Wraps a [`GatingPolicy`] and perturbs its gate decisions inside a
/// seeded cycle window — the injector for the four gate-level
/// [`FaultPoint`]s.
///
/// The wrapper is itself a passive policy: it forwards `observe`,
/// `constraints`, `horizon` and `is_passive` untouched, so it rides the
/// normal passive runners. The perturbed decisions are exactly what the
/// safety checker must catch (or what must be provably harmless).
pub struct FaultyPolicy<'a> {
    inner: &'a mut dyn GatingPolicy,
    point: FaultPoint,
    window: FaultWindow,
    /// Component class targeted by the flip points (index into
    /// [`TARGET_CLASSES`] semantics below).
    target: u32,
    /// Fully powered template for [`FaultPoint::PowerIdleUnit`].
    ungated: GateState,
    /// Delay line for [`FaultPoint::SkewLate`].
    prev: GateState,
    /// Index of a gateable latch group (latch-flip target).
    latch_group: usize,
    /// Cycles actually perturbed.
    altered: u64,
    name: String,
}

impl<'a> FaultyPolicy<'a> {
    /// Wrap `inner`, deriving every parameter from `spec.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.point` is not gate-level (see
    /// [`FaultPoint::is_gate_level`]).
    pub fn new(
        inner: &'a mut dyn GatingPolicy,
        spec: FaultSpec,
        config: &SimConfig,
        groups: &LatchGroups,
    ) -> FaultyPolicy<'a> {
        assert!(
            spec.point.is_gate_level(),
            "{} is not a gate-level fault point",
            spec.point.label()
        );
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let window = FaultWindow::draw(&mut rng);
        let target = rng.gen_range(0u32..4);
        let gated: Vec<usize> = groups
            .specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.gated)
            .map(|(i, _)| i)
            .collect();
        let latch_group = gated[rng.gen_range(0..gated.len() as u32) as usize];
        let ungated = GateState::ungated(config, groups);
        let name = format!("{}+{}", inner.name(), spec.point.label());
        FaultyPolicy {
            inner,
            point: spec.point,
            window,
            target,
            prev: ungated.clone(),
            ungated,
            latch_group,
            altered: 0,
            name,
        }
    }

    /// The active window (for tests and campaign reporting).
    pub fn window(&self) -> FaultWindow {
        self.window
    }

    /// Cycles whose gate decision was perturbed.
    pub fn altered(&self) -> u64 {
        self.altered
    }

    /// Apply the flip points to `out` for one in-window cycle.
    fn flip(&mut self, out: &mut GateState) {
        match self.point {
            FaultPoint::GateUsedUnit => match self.target {
                // Gate one powered instance/port, or narrow a latch group
                // to zero slots — whatever the policy powered, take away.
                0 => {
                    let m = &mut out.fu_powered[FuClass::IntAlu.index()];
                    *m &= m.wrapping_sub(1);
                }
                1 => {
                    let m = &mut out.dcache_ports_powered;
                    *m &= m.wrapping_sub(1);
                }
                2 => out.result_buses_powered = out.result_buses_powered.saturating_sub(1),
                _ => out.latch_slots[self.latch_group] = Some(0),
            },
            FaultPoint::PowerIdleUnit => match self.target {
                0 => {
                    out.fu_powered[FuClass::IntAlu.index()] =
                        self.ungated.fu_powered[FuClass::IntAlu.index()];
                }
                1 => out.dcache_ports_powered = self.ungated.dcache_ports_powered,
                2 => out.result_buses_powered = self.ungated.result_buses_powered,
                _ => out.latch_slots[self.latch_group] = None,
            },
            _ => unreachable!("skews are handled in gate_into"),
        }
    }
}

impl std::fmt::Debug for FaultyPolicy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyPolicy")
            .field("name", &self.name)
            .field("point", &self.point)
            .field("window", &self.window)
            .field("altered", &self.altered)
            .finish_non_exhaustive()
    }
}

impl GatingPolicy for FaultyPolicy<'_> {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        let mut out = self.ungated.clone();
        self.gate_into(cycle, &mut out);
        out
    }

    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        match self.point {
            FaultPoint::SkewLate => {
                // Serve the previous cycle's decision while in-window; the
                // delay line tracks the current decision throughout so the
                // skew is exactly one cycle, not cumulative.
                self.inner.gate_into(cycle, out);
                if self.window.contains(cycle) {
                    std::mem::swap(out, &mut self.prev);
                    self.altered += 1;
                } else {
                    self.prev.clone_from(out);
                }
            }
            FaultPoint::SkewEarly => {
                if self.window.contains(cycle) {
                    // Asking the controller for cycle + 1 consumes that
                    // cycle's ring slots — both the misplacement and the
                    // destruction are the fault.
                    self.inner.gate_into(cycle + 1, out);
                    self.altered += 1;
                } else {
                    self.inner.gate_into(cycle, out);
                }
            }
            _ => {
                self.inner.gate_into(cycle, out);
                if self.window.contains(cycle) {
                    self.flip(out);
                    self.altered += 1;
                }
            }
        }
    }

    fn constraints(&self) -> ResourceConstraints {
        self.inner.constraints()
    }

    // Faults perturb gates, never constraints.
    fn horizon(&self) -> usize {
        self.inner.horizon()
    }

    fn observe(&mut self, activity: &CycleActivity) {
        self.inner.observe(activity);
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// An [`ActivitySink`] that panics at a seeded cycle — the
/// [`FaultPoint::SinkPanic`] injector. The campaign wraps the run in
/// `catch_unwind` and classifies the panic as detected.
#[derive(Debug)]
pub struct PanicSink {
    at_cycle: u64,
    seen: u64,
}

impl PanicSink {
    /// A sink that panics on the `n`-th observed cycle, `n` derived from
    /// `spec.seed` (always within the shortest campaign run).
    pub fn new(spec: FaultSpec) -> PanicSink {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        PanicSink {
            at_cycle: rng.gen_range(10u64..250),
            seen: 0,
        }
    }

    fn tick(&mut self) {
        self.seen += 1;
        if self.seen == self.at_cycle {
            panic!("injected sink fault at observed cycle {}", self.seen);
        }
    }
}

impl ActivitySink for PanicSink {
    fn warmup_cycle(&mut self, _act: &CycleActivity) {
        self.tick();
    }

    fn measure_cycle(&mut self, _act: &CycleActivity) {
        self.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NoGating;

    #[test]
    fn plan_is_deterministic_and_covers_every_point() {
        let a = FaultPlan::generate(7, 32);
        let b = FaultPlan::generate(7, 32);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::generate(8, 32);
        assert_ne!(a, c, "different seed, different sub-seeds");
        for p in FaultPoint::ALL {
            assert!(
                a.faults.iter().any(|f| f.point == p),
                "32 faults must cover {}",
                p.label()
            );
        }
    }

    #[test]
    fn gate_flip_perturbs_only_inside_window() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut inner = NoGating::new(&cfg, &groups);
        let spec = FaultPlan::generate(3, 9).faults[0];
        assert_eq!(spec.point, FaultPoint::GateUsedUnit);
        let mut faulty = FaultyPolicy::new(&mut inner, spec, &cfg, &groups);
        let w = faulty.window();
        let clean = GateState::ungated(&cfg, &groups);

        let before = faulty.gate_for(w.start.saturating_sub(1));
        assert_eq!(before, clean, "pre-window decisions are untouched");
        let during = faulty.gate_for(w.start);
        assert_ne!(during, clean, "in-window decisions are perturbed");
        let after = faulty.gate_for(w.start + w.len);
        assert_eq!(after, clean, "post-window decisions are untouched");
        assert_eq!(faulty.altered(), 1);
    }

    #[test]
    fn skew_late_serves_previous_decision() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        // NoGating is cycle-invariant, so skewing it is invisible; what
        // must hold is that the wrapper still produces valid states and
        // counts its alterations.
        let mut inner = NoGating::new(&cfg, &groups);
        let spec = FaultSpec {
            id: 2,
            point: FaultPoint::SkewLate,
            seed: 99,
        };
        let mut faulty = FaultyPolicy::new(&mut inner, spec, &cfg, &groups);
        let w = faulty.window();
        for cycle in 0..(w.start + w.len + 8) {
            let g = faulty.gate_for(cycle);
            g.validate(&cfg, &groups).expect("valid state");
        }
        assert_eq!(faulty.altered(), w.len);
    }

    #[test]
    #[should_panic(expected = "injected sink fault")]
    fn panic_sink_fires_at_seeded_cycle() {
        let spec = FaultSpec {
            id: 8,
            point: FaultPoint::SinkPanic,
            seed: 5,
        };
        let mut sink = PanicSink::new(spec);
        let act = CycleActivity::default();
        for _ in 0..300 {
            sink.warmup_cycle(&act);
        }
    }

    #[test]
    #[should_panic(expected = "not a gate-level fault point")]
    fn faulty_policy_rejects_non_gate_points() {
        let cfg = SimConfig::baseline_8wide();
        let groups = LatchGroups::new(&cfg.depth);
        let mut inner = NoGating::new(&cfg, &groups);
        let spec = FaultSpec {
            id: 4,
            point: FaultPoint::TraceCorrupt,
            seed: 1,
        };
        let _ = FaultyPolicy::new(&mut inner, spec, &cfg, &groups);
    }
}
