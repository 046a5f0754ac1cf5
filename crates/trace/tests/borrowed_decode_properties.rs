//! Property tests: the borrowed-block decode over a memory-mapped file
//! ([`ActivityTraceReader::open`]) is bit-equivalent to the owned
//! in-memory path ([`ActivityTraceReader::new`]) — identical decoded
//! [`ActivityBlock`] contents on valid traces, and identical error
//! classifications on corrupted ones. The zero-copy warm-sweep path
//! rests on this equivalence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcg_isa::FuClass;
use dcg_sim::{ActivityBlock, CycleActivity, FuGrant};
use dcg_testkit::prop::{self, Gen};
use dcg_trace::{ActivityHeader, ActivityTraceReader, ActivityTraceWriter};

/// Latch-group count used by all traces in this file.
const ACT_GROUPS: usize = 5;

fn act_header() -> ActivityHeader {
    ActivityHeader::new("borrow", 0xdead_cafe, 23, 50, 450, ACT_GROUPS).expect("valid header")
}

/// An arbitrary per-cycle activity record (not necessarily physically
/// plausible — the decode paths must agree on *any* well-formed frame).
fn arb_activity() -> Gen<CycleActivity> {
    prop::tuple((
        prop::vec(prop::any_u64(), 35..=35usize),
        prop::vec(prop::any_u64(), 0..=4usize),
        prop::any_bool(),
        prop::any_bool(),
    ))
    .map(|(words, grant_words, icache_access, icache_miss)| {
        let w = |i: usize| (words[i] & 0xffff_ffff) as u32;
        let mut a = CycleActivity {
            fetched: w(0),
            renamed: w(1),
            dispatched: w(2),
            issued: w(3),
            issued_fp: w(4),
            issued_loads: w(5),
            issued_stores: w(6),
            committed: w(7),
            fu_active: [w(8), w(9), w(10), w(11), w(12)],
            dcache_port_mask: w(13),
            dcache_load_accesses: w(14),
            dcache_store_accesses: w(15),
            dcache_misses: w(16),
            l2_accesses: w(17),
            icache_access,
            icache_miss,
            bpred_lookups: w(18),
            bpred_mispredicts: w(19),
            regfile_reads: w(20),
            regfile_writes: w(21),
            result_bus_used: w(22),
            decode_ready_next: w(23),
            iq_occupancy: w(24),
            rob_occupancy: w(25),
            lsq_occupancy: w(26),
            store_ports_next: w(27),
            result_bus_in_2: w(28),
            latch_occupancy: (0..ACT_GROUPS).map(|g| w(29 + g)).collect(),
            ..CycleActivity::default()
        };
        a.grants = grant_words
            .iter()
            .map(|gw| FuGrant {
                class: FuClass::from_index((*gw as usize) % FuClass::COUNT).expect("in range"),
                instance: ((gw >> 8) & 0xff) as usize,
                exec_start: ((gw >> 16) & 0xffff) as u32,
                active_len: ((gw >> 32) & 0xffff) as u32,
            })
            .collect();
        a
    })
}

fn encode_activities(cycles: &[CycleActivity]) -> Vec<u8> {
    let mut w = ActivityTraceWriter::new(Vec::new(), &act_header()).expect("header");
    for a in cycles {
        w.write_cycle(a).expect("write");
    }
    w.finish().expect("finish")
}

/// A trace written to disk, removed on drop, so `open` exercises the
/// real mmap path.
struct OnDisk(PathBuf);

impl OnDisk {
    fn new(bytes: &[u8]) -> OnDisk {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "dcg-borrow-{}-{}.trace",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("write trace file");
        OnDisk(path)
    }
}

impl Drop for OnDisk {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Drain a reader block-by-block; return every decoded block's exact
/// contents (Debug covers every column) and the terminal outcome: clean
/// EOF (`None`) or the error's classification (its Display string).
fn drain(r: &mut ActivityTraceReader) -> (Vec<String>, Option<String>) {
    let mut blocks = Vec::new();
    let mut block = ActivityBlock::new(ACT_GROUPS);
    loop {
        match r.read_block(&mut block) {
            Ok(true) => blocks.push(format!("{block:?}")),
            Ok(false) => return (blocks, None),
            Err(e) => return (blocks, Some(format!("{e}"))),
        }
    }
}

#[test]
fn mapped_decode_equals_owned_decode() {
    prop::check(
        "mapped_decode_equals_owned_decode",
        prop::vec(arb_activity(), 0..=150usize),
        |cycles| {
            let buf = encode_activities(&cycles);
            let file = OnDisk::new(&buf);

            let mut owned = ActivityTraceReader::new(&buf[..]).expect("owned reader");
            let mut mapped = ActivityTraceReader::open(&file.0).expect("mapped reader");

            assert_eq!(owned.header(), mapped.header(), "headers must agree");
            assert_eq!(
                owned.verified_totals(),
                mapped.verified_totals(),
                "trailer verification must agree"
            );

            let (owned_blocks, owned_end) = drain(&mut owned);
            let (mapped_blocks, mapped_end) = drain(&mut mapped);
            assert_eq!(owned_end, None, "a finished trace decodes cleanly");
            assert_eq!(
                owned_blocks, mapped_blocks,
                "decoded blocks must be identical"
            );
            assert_eq!(owned_end, mapped_end);

            // Rewind must restore both to the first record.
            owned.rewind();
            mapped.rewind();
            assert_eq!(drain(&mut owned).0, owned_blocks, "owned rewind replays");
            assert_eq!(drain(&mut mapped).0, mapped_blocks, "mapped rewind replays");
        },
    );
}

#[test]
fn measured_window_matches_scalar_drive_reference() {
    // The subheader-index window measurement must equal, bit for bit,
    // what the drive loop observes: same measured cycle count,
    // same measured committed total, for ANY (warmup, measure) window —
    // including zero-length ones and windows past the end of the trace.
    prop::check(
        "measured_window_matches_scalar_drive_reference",
        prop::tuple((
            prop::vec(arb_activity(), 0..=150usize),
            prop::any_u64(),
            prop::any_u64(),
        )),
        |(cycles, warm_choice, measure_choice)| {
            let buf = encode_activities(&cycles);
            let file = OnDisk::new(&buf);
            let total: u64 = cycles.iter().map(|a| u64::from(a.committed)).sum();

            // Windows spanning the interesting range: inside the trace,
            // exactly at its end, and past it.
            let warm = warm_choice % (total + 2);
            let measure = measure_choice % (total + 2);
            let target = warm + measure;

            // Reference: the drive loop's per-cycle boundary checks, one
            // cycle at a time.
            let mut r = ActivityTraceReader::new(&buf[..]).expect("reader");
            let mut act = dcg_sim::CycleActivity::default();
            let mut cum = 0u64;
            let (mut ref_cycles, mut ref_committed) = (0u64, 0u64);
            let mut measuring = false;
            let mut covered = true;
            while cum < target {
                if !measuring && cum >= warm {
                    measuring = true;
                }
                if !r.read_cycle(&mut act).expect("clean trace") {
                    covered = false;
                    break;
                }
                cum += u64::from(act.committed);
                if measuring {
                    ref_cycles += 1;
                    ref_committed += u64::from(act.committed);
                }
            }

            for reader in [
                ActivityTraceReader::new(&buf[..]).expect("owned"),
                ActivityTraceReader::open(&file.0).expect("mapped"),
            ] {
                let got = reader.measured_window(warm, measure).expect("clean trace");
                if covered {
                    assert_eq!(
                        got,
                        Some((ref_cycles, ref_committed)),
                        "window warm={warm} measure={measure} total={total}"
                    );
                } else {
                    assert_eq!(
                        got, None,
                        "a window past the end must defer to the full decode"
                    );
                }
            }
        },
    );
}

#[test]
fn corruption_classifies_identically_on_both_paths() {
    // Flip one arbitrary byte anywhere past the header: both paths must
    // agree exactly — same constructor outcome, same decoded prefix, and
    // the same error classification when decode fails.
    prop::check(
        "corruption_classifies_identically_on_both_paths",
        prop::tuple((
            prop::vec(arb_activity(), 1..=60usize),
            prop::any_u64(),
            1u8..=255,
        )),
        |(cycles, site_choice, flip)| {
            let header_len = {
                let mut hdr = Vec::new();
                act_header().write_to(&mut hdr).expect("header");
                hdr.len()
            };
            let mut buf = encode_activities(&cycles);
            let site = header_len + (site_choice as usize) % (buf.len() - header_len);
            buf[site] ^= flip;
            let file = OnDisk::new(&buf);

            let owned = ActivityTraceReader::new(&buf[..]);
            let mapped = ActivityTraceReader::open(&file.0);
            match (owned, mapped) {
                (Err(eo), Err(em)) => {
                    assert_eq!(
                        format!("{eo}"),
                        format!("{em}"),
                        "construction errors agree"
                    );
                }
                (Ok(mut ro), Ok(mut rm)) => {
                    assert_eq!(
                        ro.verified_totals(),
                        rm.verified_totals(),
                        "trailer verification must agree"
                    );
                    let (owned_blocks, owned_end) = drain(&mut ro);
                    let (mapped_blocks, mapped_end) = drain(&mut rm);
                    assert_eq!(owned_blocks, mapped_blocks, "decoded prefixes agree");
                    assert_eq!(owned_end, mapped_end, "error classifications agree");
                }
                (o, m) => panic!(
                    "paths disagree on construction: owned={:?} mapped={:?}",
                    o.map(|_| "ok"),
                    m.map(|_| "ok"),
                ),
            }
        },
    );
}
