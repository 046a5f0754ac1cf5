//! Pins the live pipeline's complete per-cycle activity stream.
//!
//! Every field of every cycle's `CycleActivity`, the final `SimStats` and
//! the cache miss counts are folded into one FNV-1a digest per run. The
//! constants below were computed before the pipeline's hot path was
//! rewritten for speed; any change to a timing decision, a counter or the
//! order of grants moves a digest. Covered: the 18 profiles on the
//! baseline 8-wide machine, the 20-stage pipeline, delayed store timing,
//! the next-line prefetcher, round-robin unit selection, and a run whose
//! resource constraints flip between full and narrow every 256 cycles
//! (the PLB mode-switch pattern).
//!
//! The same runs also pin the recorder: `encoded_trace_images` hashes the
//! whole `.dcgact` image `ActivityTraceWriter` writes for each profile and
//! for the constraint-flip run, so any change to the encoder's bytes
//! fails it (the trace property suites only check that a decode gives
//! the input back).

use dcg_repro::isa::FuClass;
use dcg_repro::sim::{
    fnv1a, CycleActivity, Fnv1a, FuSelectPolicy, LatchGroups, Processor, ResourceConstraints,
    SimConfig, StoreTiming, BLOCK_CYCLES,
};
use dcg_repro::trace::{ActivityHeader, ActivityTraceWriter};
use dcg_repro::workloads::{Spec2000, SyntheticWorkload};

/// Cycles per profile in the baseline sweep.
const PROFILE_CYCLES: u64 = 10_000;
/// Cycles per configuration variant.
const VARIANT_CYCLES: u64 = 30_000;
const SEED: u64 = 42;

fn put(h: &mut Fnv1a, v: u64) {
    h.write(&v.to_le_bytes());
}

fn fold_cycle(h: &mut Fnv1a, a: &CycleActivity) {
    for v in [
        a.cycle,
        u64::from(a.fetched),
        u64::from(a.renamed),
        u64::from(a.dispatched),
        u64::from(a.issued),
        u64::from(a.issued_fp),
        u64::from(a.issued_loads),
        u64::from(a.issued_stores),
        u64::from(a.committed),
    ] {
        put(h, v);
    }
    for m in a.fu_active {
        put(h, u64::from(m));
    }
    for v in [
        a.dcache_port_mask,
        a.dcache_load_accesses,
        a.dcache_store_accesses,
        a.dcache_misses,
        a.l2_accesses,
        u32::from(a.icache_access),
        u32::from(a.icache_miss),
        a.bpred_lookups,
        a.bpred_mispredicts,
        a.regfile_reads,
        a.regfile_writes,
        a.result_bus_used,
    ] {
        put(h, u64::from(v));
    }
    put(h, a.latch_occupancy.len() as u64);
    for &o in &a.latch_occupancy {
        put(h, u64::from(o));
    }
    put(h, a.grants.len() as u64);
    for g in &a.grants {
        put(h, g.class.index() as u64);
        put(h, g.instance as u64);
        put(h, u64::from(g.exec_start));
        put(h, u64::from(g.active_len));
    }
    for v in [
        a.decode_ready_next,
        a.iq_occupancy,
        a.rob_occupancy,
        a.lsq_occupancy,
        a.store_ports_next,
        a.result_bus_in_2,
    ] {
        put(h, u64::from(v));
    }
}

fn fold_end<S: dcg_repro::workloads::InstStream>(h: &mut Fnv1a, cpu: &Processor<S>) {
    let s = cpu.stats();
    for v in [
        s.cycles,
        s.committed,
        s.fetched,
        s.issued,
        s.issued_fp,
        s.issued_loads,
        s.issued_stores,
    ] {
        put(h, v);
    }
    for v in s.fu_active_cycles {
        put(h, v);
    }
    for v in [
        s.dcache_port_cycles,
        s.dcache_accesses,
        s.dcache_misses,
        s.l2_accesses,
        s.icache_accesses,
        s.icache_misses,
        s.bpred_lookups,
        s.mispredicts,
        s.result_bus_cycles,
        s.regfile_reads,
        s.regfile_writes,
    ] {
        put(h, v);
    }
    for &v in &s.latch_slot_writes {
        put(h, v);
    }
    let d = cpu.dcache();
    for v in [
        d.l1().accesses(),
        d.l1().misses(),
        d.l2_accesses(),
        d.l2_misses(),
        d.prefetches(),
    ] {
        put(h, v);
    }
}

/// Run `cycles` live cycles of `bench`, handing each cycle to
/// `on_cycle`; `flip` (if any) is applied every 256 cycles, alternating
/// with the unrestricted constraints.
fn run(
    cfg: SimConfig,
    policy: FuSelectPolicy,
    bench: &str,
    cycles: u64,
    flip: Option<ResourceConstraints>,
    mut on_cycle: impl FnMut(&CycleActivity),
) -> Processor<SyntheticWorkload> {
    let full = ResourceConstraints::unrestricted(&cfg);
    let stream = SyntheticWorkload::new(Spec2000::by_name(bench).expect("known profile"), SEED);
    let mut cpu = Processor::with_policy(cfg, stream, policy);
    for k in 0..cycles {
        if let Some(narrow) = flip {
            if k % 256 == 0 {
                cpu.set_constraints(if (k / 256) % 2 == 0 { full } else { narrow });
            }
        }
        on_cycle(cpu.step());
    }
    cpu
}

/// Digest of the activity stream and end state of one [`run`].
fn digest(
    cfg: SimConfig,
    policy: FuSelectPolicy,
    bench: &str,
    cycles: u64,
    flip: Option<ResourceConstraints>,
) -> u64 {
    let mut h = Fnv1a::new();
    let cpu = run(cfg, policy, bench, cycles, flip, |a| fold_cycle(&mut h, a));
    fold_end(&mut h, &cpu);
    h.finish()
}

/// FNV-1a of the whole `.dcgact` image recorded from one [`run`]
/// (sequential-priority selection).
fn image_digest(
    cfg: SimConfig,
    bench: &str,
    cycles: u64,
    flip: Option<ResourceConstraints>,
) -> u64 {
    assert_ne!(
        cycles % BLOCK_CYCLES as u64,
        0,
        "the run must end in a short block"
    );
    let groups = LatchGroups::new(&cfg.depth).len();
    let header =
        ActivityHeader::new(bench, cfg.digest(), SEED, 0, cycles, groups).expect("valid header");
    let mut w = ActivityTraceWriter::new(Vec::new(), &header).expect("header writes");
    run(
        cfg,
        FuSelectPolicy::SequentialPriority,
        bench,
        cycles,
        flip,
        |a| w.write_cycle(a).expect("cycle encodes"),
    );
    fnv1a(&w.finish().expect("trace finishes"))
}

fn baseline(bench: &str) -> u64 {
    digest(
        SimConfig::baseline_8wide(),
        FuSelectPolicy::SequentialPriority,
        bench,
        PROFILE_CYCLES,
        None,
    )
}

fn variant(cfg: SimConfig, policy: FuSelectPolicy, bench: &str) -> u64 {
    digest(cfg, policy, bench, VARIANT_CYCLES, None)
}

#[test]
fn every_profile_at_baseline_8wide() {
    const PINNED: [(&str, u64); 18] = [
        ("bzip2", 0xf3bd13e4f497b482),
        ("gcc", 0xe964b46b480c536b),
        ("gzip", 0x049a6c1a267d5cbf),
        ("mcf", 0x5a843fc676ab0c36),
        ("parser", 0x00e33bf81772650f),
        ("perlbmk", 0x463b667c8e90934f),
        ("twolf", 0x38e368ecd2407d52),
        ("vortex", 0x4549786eb80c3030),
        ("vpr", 0x8b7d78cca8a8ac73),
        ("applu", 0x95eb63a487ae816b),
        ("apsi", 0xc48ac4512f6c80ae),
        ("art", 0xdf4b2abcd79510cb),
        ("equake", 0xba45977270b9c63b),
        ("lucas", 0x6b91fd1ff79a0f30),
        ("mesa", 0x6719ab68b53021b1),
        ("mgrid", 0x8d5618e4e9456e55),
        ("swim", 0x12e29b739e156431),
        ("wupwise", 0xf4edf90ae4c87c46),
    ];
    let got: Vec<(String, u64)> = Spec2000::all()
        .iter()
        .map(|p| (p.name.to_string(), baseline(p.name)))
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want);
}

#[test]
fn deep_pipeline_20() {
    let got = variant(
        SimConfig::deep_pipeline_20(),
        FuSelectPolicy::SequentialPriority,
        "gcc",
    );
    assert_eq!(got, 0xf818bd55de21ef23);
}

#[test]
fn delayed_store_timing() {
    let cfg = SimConfig {
        store_timing: StoreTiming::DelayOneCycle,
        ..SimConfig::baseline_8wide()
    };
    assert_eq!(
        variant(cfg, FuSelectPolicy::SequentialPriority, "bzip2"),
        0x14a7d71ee3b44bb8
    );
}

#[test]
fn next_line_prefetch() {
    let cfg = SimConfig {
        dcache_next_line_prefetch: true,
        ..SimConfig::baseline_8wide()
    };
    assert_eq!(
        variant(cfg, FuSelectPolicy::SequentialPriority, "mcf"),
        0xc4d70c3864414f32
    );
}

#[test]
fn round_robin_unit_selection() {
    assert_eq!(
        variant(
            SimConfig::baseline_8wide(),
            FuSelectPolicy::RoundRobin,
            "swim"
        ),
        0x23af5bd54b0c7d3b
    );
}

/// PLB's 4-wide mode, plus a halved set of memory ports so the flip
/// also reaches commit-time store-port reservation.
fn narrow_mode(cfg: &SimConfig) -> ResourceConstraints {
    let mut narrow = ResourceConstraints::unrestricted(cfg)
        .with_issue_width(4)
        .with_fetch_width(4)
        .with_enabled(FuClass::MemPort, 1);
    for c in [
        FuClass::IntAlu,
        FuClass::IntMulDiv,
        FuClass::FpAlu,
        FuClass::FpMulDiv,
    ] {
        narrow = narrow.with_enabled(c, cfg.fu_count(c).div_ceil(2));
    }
    narrow
}

#[test]
fn constraints_flip_every_256_cycles() {
    let cfg = SimConfig::baseline_8wide();
    let narrow = narrow_mode(&cfg);
    let got = digest(
        cfg,
        FuSelectPolicy::SequentialPriority,
        "vortex",
        VARIANT_CYCLES,
        Some(narrow),
    );
    assert_eq!(got, 0x480e1d3b8715f580);
}

#[test]
fn encoded_trace_images() {
    const PINNED: [(&str, u64); 18] = [
        ("bzip2", 0xf399028e900e6ccf),
        ("gcc", 0x03ff263621dbc26c),
        ("gzip", 0x91fb9274991c0e66),
        ("mcf", 0x0b6bfd7f2f46c736),
        ("parser", 0x53b76ed80fbc96b4),
        ("perlbmk", 0x94b02671f663eb4e),
        ("twolf", 0x6387bf55073565d7),
        ("vortex", 0x5411e243eebf9194),
        ("vpr", 0xce0f17320b950503),
        ("applu", 0x9e123ecf403d5e9d),
        ("apsi", 0x27e63bf83cb859e6),
        ("art", 0xbe04c5ec88da80fc),
        ("equake", 0x6aa75592cb9cb06d),
        ("lucas", 0x86fe91b015f1bd01),
        ("mesa", 0x41e1f97e2e7b4974),
        ("mgrid", 0x5f563773cfb2b4b3),
        ("swim", 0x82d0435a9593b4ed),
        ("wupwise", 0x8bfc1f8c6ff538f9),
    ];
    let got: Vec<(String, u64)> = Spec2000::all()
        .iter()
        .map(|p| {
            let d = image_digest(SimConfig::baseline_8wide(), p.name, PROFILE_CYCLES, None);
            (p.name.to_string(), d)
        })
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want);
    let cfg = SimConfig::baseline_8wide();
    let narrow = narrow_mode(&cfg);
    assert_eq!(
        image_digest(cfg, "vortex", VARIANT_CYCLES, Some(narrow)),
        0xc0903b9ed2ae96bb
    );
}
