//! Activity-trace frames: the simulate-once archive format.
//!
//! An activity trace stores the full per-cycle [`CycleActivity`] stream of
//! one simulation — every usage count and advance-knowledge signal — so
//! that passive gating policies, power accounting and statistics can be
//! *replayed* without re-simulating the pipeline. Cycle numbers are
//! implicit: record *i* (zero-based) is cycle *i + 1*, exactly the cycle
//! numbering a fresh [`dcg_sim::Processor`] produces.
//!
//! Layout (version 2, block-structured and columnar):
//!
//! ```text
//! magic    : 8 bytes  = "DCGACT01"
//! version  : u32 LE   = 2
//! schema   : u32 LE   = ACTIVITY_SCHEMA (CycleActivity field-set fingerprint)
//! cfg      : u64 LE   SimConfig::digest() of the producing simulation
//! seed     : u64 LE   workload seed
//! warmup   : varint   warm-up instructions of the producing run
//! measure  : varint   measured instructions of the producing run
//! groups   : varint   latch-group count (fixes the latch column count)
//! namelen  : varint (<= 255) + name bytes (UTF-8 benchmark name)
//! blocks   : each (up to BLOCK_CYCLES records per block):
//!   blen   : u32 LE   payload length in bytes
//!   bcycles: u32 LE   records in this block (1..=BLOCK_CYCLES)
//!   bcommit: u64 LE   committed instructions in this block
//!   bcheck : u64 LE   checksum over the payload bytes
//!   payload: struct-of-arrays, lane bit i = record i of the block:
//!     access : u64 LE  icache-access lane mask
//!     miss   : u64 LE  icache-miss lane mask
//!     columns: one sparse column per counter, in declaration order —
//!              the flow/usage counters, then `groups` latch-occupancy
//!              columns, then the six advance-knowledge counters, then
//!              the per-cycle grant counts. Each column is a u64 LE
//!              nonzero-lane mask followed by one varint per set lane
//!              (ascending); zero lanes are not stored at all.
//!     grants : four homogeneous streams covering the block's grants in
//!              cycle order — `sum(grant counts)` raw class bytes, then
//!              that many instance varints, exec_start varints and
//!              active_len varints
//!   (any lane-mask bit at or above bcycles is invalid)
//! trailer  : written by `finish()`:
//!   magic  : 8 bytes  = "DCGACT$$"
//!   cycles : u64 LE   records written
//!   commit : u64 LE   total committed instructions
//!   rbytes : u64 LE   block-section length in bytes (subheaders + payloads)
//!   check  : u64 LE   checksum over the block *subheaders*
//! ```
//!
//! The columnar form is what makes warm replay fast: most counters are
//! zero on most cycles (realistic IPC leaves well over half the lanes
//! idle), and a zero lane costs nothing — the decoder walks each column's
//! mask with `trailing_zeros` and decodes varints only for set bits,
//! which both shrinks the file and skips the per-field branch work a
//! record-major layout pays on every cycle. The masks double as the
//! block's summary lanes (`fu_any`, `port_any`, `bus_any`, `latch_any`),
//! so the struct-of-arrays [`ActivityBlock`] consumed by the block drive
//! path is materialized straight from the wire with no per-record pass.
//!
//! The two-level checksum scheme keeps both validation passes cheap:
//! open-time verification walks the subheader chain and checksums only
//! those 24-byte subheaders (a few KB for a multi-MB trace) instead of
//! re-reading every payload byte, and each payload is verified exactly
//! once — lazily, when the decoder first enters its block. A file cut
//! anywhere loses or garbles the trailer, so truncation is always
//! detected at open; in-place payload corruption is detected on block
//! entry before any record of that block is decoded. A stream with no
//! trailer (never `finish()`ed) simply reads as unverified.
//!
//! A replay is only valid for the exact `(config, workload, seed)` that
//! produced it; the header carries enough identity for a cache to check.
//! When `CycleActivity` gains, loses or re-means a field, bump
//! [`ACTIVITY_SCHEMA`] — stale files then fail header validation instead
//! of silently mis-decoding. Version-1 files (one flat record section,
//! whole-file checksum) fail with `UnsupportedVersion` and are simply
//! re-recorded by the cache.

use std::io::{ErrorKind, Read, Write};

use dcg_isa::FuClass;
use dcg_sim::{ActivityBlock, CycleActivity, FuGrant, BLOCK_CYCLES};

use crate::error::TraceError;
use crate::mmap::TraceData;
use crate::varint;

/// Activity-trace file magic.
pub const ACTIVITY_MAGIC: [u8; 8] = *b"DCGACT01";
/// Current activity-frame format version. Version 2 groups records into
/// checksummed blocks of up to [`dcg_sim::BLOCK_CYCLES`] cycles.
pub const ACTIVITY_VERSION: u32 = 2;
/// Fingerprint of the serialized [`CycleActivity`] field set. Bump this
/// whenever `CycleActivity` changes shape so cached traces are invalidated.
/// Schema 2 added the `rob_occupancy`/`lsq_occupancy` fill levels.
pub const ACTIVITY_SCHEMA: u32 = 2;
/// Longest accepted benchmark name (shared with the instruction format).
pub const ACTIVITY_MAX_NAME: usize = 255;
/// Upper bound on latch groups a header may declare (sanity bound; real
/// geometries have 8–20).
pub const MAX_GROUPS: usize = 1024;
/// Upper bound on grants per record (sanity bound; real cycles grant at
/// most the issue width).
pub const MAX_GRANTS: usize = 256;
/// Trailer magic (end-of-records marker written by `finish()`).
pub const ACTIVITY_TRAILER_MAGIC: [u8; 8] = *b"DCGACT$$";
/// Total trailer length in bytes (magic + four `u64` fields).
pub const ACTIVITY_TRAILER_LEN: usize = 40;
/// On-disk block subheader length: payload length `u32`, cycle count
/// `u32`, committed-in-block `u64`, payload checksum `u64`.
pub const ACTIVITY_BLOCK_HEADER_LEN: usize = 24;

const CHECKSUM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const CHECKSUM_MULT: u64 = 0x2545_f491_4f6c_dd1d;

/// Streaming order-sensitive checksum over four interleaved 64-bit
/// lanes (32-byte stride).
///
/// Not cryptographic — it guards a trace cache against accidental
/// truncation and bit rot. Four independent multiply chains give the
/// superscalar core parallel work, so verification runs near memory
/// speed; every warm replay re-checksums each block payload on entry,
/// which makes this loop part of the replay hot path.
#[derive(Debug, Clone)]
struct Checksum {
    h: [u64; 4],
    pending: [u8; 32],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            h: [
                CHECKSUM_SEED,
                CHECKSUM_SEED.rotate_left(16),
                CHECKSUM_SEED.rotate_left(32),
                CHECKSUM_SEED.rotate_left(48),
            ],
            pending: [0; 32],
            pending_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix_chunk(h: &mut [u64; 4], chunk: &[u8]) {
        for (k, hk) in h.iter_mut().enumerate() {
            let lane = u64::from_le_bytes(chunk[k * 8..k * 8 + 8].try_into().expect("8 bytes"));
            *hk = (*hk ^ lane).wrapping_mul(CHECKSUM_MULT).rotate_left(23);
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len == 32 {
                let pending = self.pending;
                Self::mix_chunk(&mut self.h, &pending);
                self.pending_len = 0;
            } else {
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(32);
        for c in &mut chunks {
            Self::mix_chunk(&mut self.h, c);
        }
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    fn finish(&self) -> u64 {
        let mut c = self.clone();
        if c.pending_len > 0 {
            c.pending[c.pending_len..].fill(0);
            let pending = c.pending;
            Self::mix_chunk(&mut c.h, &pending);
        }
        let mut out = c.h[0];
        for &hk in &c.h[1..] {
            out = (out ^ hk).wrapping_mul(CHECKSUM_MULT).rotate_left(23);
        }
        out ^ c.len
    }
}

fn record_checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// The activity format's 4-lane payload checksum over an arbitrary byte
/// slice — the same function the trace trailer and per-block subheaders
/// use, exported so the trace *store*'s whole-entry fingerprints share
/// one integrity primitive instead of inventing a second one.
///
/// Not cryptographic: it guards against truncation, torn writes and bit
/// rot, and runs near memory speed.
#[must_use]
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    record_checksum(bytes)
}

fn read_u32<R: Read>(r: &mut R, what: &'static str) -> Result<u32, TraceError> {
    u32::try_from(varint::read_u64(r)?).map_err(|_| TraceError::BadActivity(what))
}

fn decode_u32(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, TraceError> {
    u32::try_from(varint::decode_u64(buf, pos)?).map_err(|_| TraceError::BadActivity(what))
}

/// Parsed activity-trace header: identity of the producing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityHeader {
    /// Format version.
    pub version: u32,
    /// [`CycleActivity`] schema fingerprint at write time.
    pub schema: u32,
    /// [`dcg_sim::SimConfig::digest`] of the producing configuration.
    pub config_digest: u64,
    /// Workload seed.
    pub seed: u64,
    /// Warm-up instructions of the producing run.
    pub warmup_insts: u64,
    /// Measured instructions of the producing run.
    pub measure_insts: u64,
    /// Latch-group count (length of every record's occupancy vector).
    pub groups: u32,
    /// Benchmark name.
    pub name: String,
}

impl ActivityHeader {
    /// Header for one producing simulation.
    ///
    /// # Errors
    ///
    /// Fails with [`TraceError::BadName`] on an oversized name and
    /// [`TraceError::BadActivity`] on an out-of-range group count.
    pub fn new(
        name: &str,
        config_digest: u64,
        seed: u64,
        warmup_insts: u64,
        measure_insts: u64,
        groups: usize,
    ) -> Result<ActivityHeader, TraceError> {
        if name.len() > ACTIVITY_MAX_NAME {
            return Err(TraceError::BadName);
        }
        if groups > MAX_GROUPS {
            return Err(TraceError::BadActivity("too many latch groups"));
        }
        Ok(ActivityHeader {
            version: ACTIVITY_VERSION,
            schema: ACTIVITY_SCHEMA,
            config_digest,
            seed,
            warmup_insts,
            measure_insts,
            groups: groups as u32,
            name: name.to_string(),
        })
    }

    /// Serialise; returns bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<usize, TraceError> {
        w.write_all(&ACTIVITY_MAGIC)?;
        w.write_all(&self.version.to_le_bytes())?;
        w.write_all(&self.schema.to_le_bytes())?;
        w.write_all(&self.config_digest.to_le_bytes())?;
        w.write_all(&self.seed.to_le_bytes())?;
        let mut n = ACTIVITY_MAGIC.len() + 4 + 4 + 8 + 8;
        n += varint::write_u64(w, self.warmup_insts)?;
        n += varint::write_u64(w, self.measure_insts)?;
        n += varint::write_u64(w, u64::from(self.groups))?;
        n += varint::write_u64(w, self.name.len() as u64)?;
        w.write_all(self.name.as_bytes())?;
        n += self.name.len();
        Ok(n)
    }

    /// Parse a header from `r`.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, an unsupported version, a schema mismatch (the
    /// file predates a [`CycleActivity`] change), oversized fields, or
    /// I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> Result<ActivityHeader, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != ACTIVITY_MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word)?;
        let version = u32::from_le_bytes(word);
        if version != ACTIVITY_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        r.read_exact(&mut word)?;
        let schema = u32::from_le_bytes(word);
        if schema != ACTIVITY_SCHEMA {
            return Err(TraceError::BadActivity("activity schema mismatch"));
        }
        let mut dword = [0u8; 8];
        r.read_exact(&mut dword)?;
        let config_digest = u64::from_le_bytes(dword);
        r.read_exact(&mut dword)?;
        let seed = u64::from_le_bytes(dword);
        let warmup_insts = varint::read_u64(r)?;
        let measure_insts = varint::read_u64(r)?;
        let groups = read_u32(r, "group count overflows u32")?;
        if groups as usize > MAX_GROUPS {
            return Err(TraceError::BadActivity("too many latch groups"));
        }
        let len = varint::read_u64(r)? as usize;
        if len > ACTIVITY_MAX_NAME {
            return Err(TraceError::BadName);
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| TraceError::BadName)?;
        Ok(ActivityHeader {
            version,
            schema,
            config_digest,
            seed,
            warmup_insts,
            measure_insts,
            groups,
            name,
        })
    }
}

/// Write `value` as LEB128 at the front of `out` (the same bytes
/// [`varint::write_u64`] writes, without its `io::Write` path); returns
/// the length.
#[inline]
fn put_varint(out: &mut [u8], mut value: u64) -> usize {
    let mut n = 0;
    while value >= 0x80 {
        out[n] = value as u8 | 0x80;
        value >>= 7;
        n += 1;
    }
    out[n] = value as u8;
    n + 1
}

/// The mask of `lanes`' nonzero values and the OR of all of them. One
/// byte-per-lane pass the compiler vectorises, then one multiply folds
/// eight lane bytes into eight mask bits.
#[inline]
fn lane_mask(lanes: &[u32]) -> (u64, u32) {
    let mut nonzero = [0u8; BLOCK_CYCLES];
    let mut all = 0;
    for (z, &v) in nonzero.iter_mut().zip(lanes) {
        *z = u8::from(v != 0);
        all |= v;
    }
    let mut mask = 0;
    for (k, bytes) in nonzero.chunks_exact(8).enumerate() {
        // Byte j's 0/1 lands on bit 56 + j of the product; no carries.
        let x = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        mask |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    (mask, all)
}

/// Append one sparse column straight into the block buffer: the mask of
/// nonzero lanes, then a varint per set lane in ascending order. Only
/// the set lanes are read a second time.
fn encode_column(out: &mut Vec<u8>, lanes: &[u32]) {
    let (mask, all) = lane_mask(lanes);
    out.extend_from_slice(&mask.to_le_bytes());
    // Room for every set lane at its widest, trimmed after.
    let widest = if all < 0x80 { 1 } else { 5 };
    let mut len = out.len();
    out.resize(len + widest * mask.count_ones() as usize, 0);
    let mut m = mask;
    while m != 0 {
        len += put_varint(
            &mut out[len..],
            u64::from(lanes[m.trailing_zeros() as usize]),
        );
        m &= m - 1;
    }
    out.truncate(len);
}

/// Append one LEB128 varint per value straight into the block buffer.
fn encode_stream(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    let mut len = out.len();
    out.resize(len + varint::MAX_LEN * values.len(), 0);
    for v in values {
        len += put_varint(&mut out[len..], v);
    }
    out.truncate(len);
}

/// Serialise a staged block into the columnar payload form.
fn encode_block(b: &ActivityBlock, out: &mut Vec<u8>) {
    let n = b.len();
    let column = |out: &mut Vec<u8>, lanes: &[u32]| encode_column(out, &lanes[..n]);
    out.extend_from_slice(&b.icache_access_lanes.to_le_bytes());
    out.extend_from_slice(&b.icache_miss_lanes.to_le_bytes());
    column(out, &b.fetched);
    column(out, &b.renamed);
    column(out, &b.dispatched);
    column(out, &b.issued);
    column(out, &b.issued_fp);
    column(out, &b.issued_loads);
    column(out, &b.issued_stores);
    column(out, &b.committed);
    for lanes in &b.fu_active {
        column(out, lanes);
    }
    column(out, &b.dcache_port_mask);
    column(out, &b.dcache_load_accesses);
    column(out, &b.dcache_store_accesses);
    column(out, &b.dcache_misses);
    column(out, &b.l2_accesses);
    column(out, &b.bpred_lookups);
    column(out, &b.bpred_mispredicts);
    column(out, &b.regfile_reads);
    column(out, &b.regfile_writes);
    column(out, &b.result_bus_used);
    // Latch occupancy is cycle-major; gather each group's lanes.
    let mut gathered = [0u32; BLOCK_CYCLES];
    for g in 0..b.groups {
        let lanes = b.latch_occupancy[g..].iter().step_by(b.groups);
        for (dst, &v) in gathered.iter_mut().zip(lanes) {
            *dst = v;
        }
        column(out, &gathered);
    }
    column(out, &b.decode_ready_next);
    column(out, &b.iq_occupancy);
    column(out, &b.rob_occupancy);
    column(out, &b.lsq_occupancy);
    column(out, &b.store_ports_next);
    column(out, &b.result_bus_in_2);
    let mut start = 0;
    for (dst, &end) in gathered.iter_mut().zip(&b.grant_end[..n]) {
        *dst = end - start;
        start = end;
    }
    column(out, &gathered);
    // Grant fields as four homogeneous streams (classes are raw bytes),
    // so the decoder runs one tight loop per field instead of a
    // branch-heavy record walk.
    out.extend(b.grants.iter().map(|g| g.class.index() as u8));
    encode_stream(out, b.grants.iter().map(|g| g.instance as u64));
    encode_stream(out, b.grants.iter().map(|g| u64::from(g.exec_start)));
    encode_stream(out, b.grants.iter().map(|g| u64::from(g.active_len)));
}

/// Streams [`CycleActivity`] records into an activity-trace file,
/// staging them in a struct-of-arrays [`ActivityBlock`] and emitting one
/// checksummed columnar block per [`dcg_sim::BLOCK_CYCLES`] cycles (the
/// final block may be shorter).
#[derive(Debug)]
pub struct ActivityTraceWriter<W: Write> {
    sink: W,
    groups: usize,
    cycles: u64,
    committed: u64,
    bytes: u64,
    section_len: u64,
    stage: Box<ActivityBlock>,
    /// Reused lane for staging a block lane by lane.
    lane: CycleActivity,
    block: Vec<u8>,
    block_committed: u64,
    checksum: Checksum,
}

impl<W: Write> ActivityTraceWriter<W> {
    /// Write `header` to `sink` and position for the first record.
    ///
    /// # Errors
    ///
    /// Propagates header serialisation failures.
    pub fn new(mut sink: W, header: &ActivityHeader) -> Result<ActivityTraceWriter<W>, TraceError> {
        let bytes = header.write_to(&mut sink)?;
        Ok(ActivityTraceWriter {
            sink,
            groups: header.groups as usize,
            cycles: 0,
            committed: 0,
            bytes: bytes as u64,
            section_len: 0,
            stage: Box::new(ActivityBlock::new(header.groups as usize)),
            lane: CycleActivity::default(),
            block: Vec::with_capacity(16 * 1024),
            block_committed: 0,
            checksum: Checksum::new(),
        })
    }

    /// Encode and emit the staged block (if any).
    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.stage.is_empty() {
            return Ok(());
        }
        self.emit(None, self.block_committed)?;
        self.stage.clear(0);
        self.block_committed = 0;
        Ok(())
    }

    /// Encode `block` (the staged block when `None`), which commits
    /// `committed` instructions, and emit it behind its subheader,
    /// folding the subheader into the trailer checksum.
    fn emit(&mut self, block: Option<&ActivityBlock>, committed: u64) -> Result<(), TraceError> {
        let b = block.unwrap_or(&self.stage);
        self.block.clear();
        encode_block(b, &mut self.block);
        let mut sub = [0u8; ACTIVITY_BLOCK_HEADER_LEN];
        sub[0..4].copy_from_slice(&(self.block.len() as u32).to_le_bytes());
        sub[4..8].copy_from_slice(&(b.len() as u32).to_le_bytes());
        sub[8..16].copy_from_slice(&committed.to_le_bytes());
        sub[16..24].copy_from_slice(&record_checksum(&self.block).to_le_bytes());
        self.sink.write_all(&sub)?;
        self.sink.write_all(&self.block)?;
        self.checksum.update(&sub);
        self.section_len += (ACTIVITY_BLOCK_HEADER_LEN + self.block.len()) as u64;
        self.bytes += (ACTIVITY_BLOCK_HEADER_LEN + self.block.len()) as u64;
        Ok(())
    }

    /// Append one cycle's activity. Records must be written in cycle
    /// order starting at cycle 1 (the reader reconstructs cycle numbers
    /// by counting; the record's own `cycle` field is not stored).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an activity whose latch-occupancy length
    /// does not match the header's group count, or one granting more
    /// than [`MAX_GRANTS`] units.
    pub fn write_cycle(&mut self, act: &CycleActivity) -> Result<(), TraceError> {
        if act.latch_occupancy.len() != self.groups {
            return Err(TraceError::BadActivity("latch group count mismatch"));
        }
        if act.grants.len() > MAX_GRANTS {
            return Err(TraceError::BadActivity("too many grants in one cycle"));
        }
        self.stage.push_untimed(act);
        self.cycles += 1;
        self.committed += u64::from(act.committed);
        self.block_committed += u64::from(act.committed);
        if self.stage.len() == BLOCK_CYCLES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Append every cycle of `block`, in order: the same bytes as one
    /// [`write_cycle`](ActivityTraceWriter::write_cycle) per lane.
    ///
    /// A full block arriving with nothing staged is encoded straight from
    /// its columns, without the staging copy; any other block is staged
    /// lane by lane.
    ///
    /// # Errors
    ///
    /// As [`write_cycle`](ActivityTraceWriter::write_cycle). A bad lane
    /// staged lane by lane fails after the lanes before it are written;
    /// a directly encoded block is checked whole before any byte is.
    pub fn write_block(&mut self, block: &ActivityBlock) -> Result<(), TraceError> {
        if !self.stage.is_empty() || block.len() < BLOCK_CYCLES {
            let mut lane = std::mem::take(&mut self.lane);
            let written = (0..block.len()).try_for_each(|i| {
                block.extract(i, &mut lane);
                self.write_cycle(&lane)
            });
            self.lane = lane;
            return written;
        }
        if block.groups != self.groups {
            return Err(TraceError::BadActivity("latch group count mismatch"));
        }
        let mut start = 0;
        for &end in &block.grant_end {
            if (end - start) as usize > MAX_GRANTS {
                return Err(TraceError::BadActivity("too many grants in one cycle"));
            }
            start = end;
        }
        let committed: u64 = block.committed.iter().map(|&c| u64::from(c)).sum();
        self.emit(Some(block), committed)?;
        self.cycles += BLOCK_CYCLES as u64;
        self.committed += committed;
        Ok(())
    }

    /// Cycles written so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total committed instructions across the written cycles.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Bytes emitted so far: header plus flushed blocks. Columnar block
    /// sizes are only known at flush, so cycles staged in the pending
    /// block are counted once it flushes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush the final (possibly short) block, write the verification
    /// trailer, flush, and return the underlying sink. A trace without a
    /// trailer still decodes but reads as unverified (see
    /// [`ActivityTraceReader::verified_totals`]).
    ///
    /// # Errors
    ///
    /// Propagates write and flush failures.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush_block()?;
        self.sink.write_all(&ACTIVITY_TRAILER_MAGIC)?;
        self.sink.write_all(&self.cycles.to_le_bytes())?;
        self.sink.write_all(&self.committed.to_le_bytes())?;
        self.sink.write_all(&self.section_len.to_le_bytes())?;
        self.sink.write_all(&self.checksum.finish().to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streams [`CycleActivity`] records out of an activity trace.
///
/// The reader decodes by direct slice indexing over a [`TraceData`] —
/// an `mmap(2)` view of the trace file on the zero-copy path
/// ([`open`](ActivityTraceReader::open)), or an owned buffer on the
/// portable fallback and the legacy [`new`](ActivityTraceReader::new)
/// constructor. Either way nothing is copied after the bytes are in
/// reach: blocks decode by borrowing straight from the backing buffer,
/// and the lazy per-block subheader checksums mean each payload byte is
/// touched exactly once, on block entry.
#[derive(Debug)]
pub struct ActivityTraceReader {
    data: TraceData,
    /// Offset of the first record byte (just past the header).
    start: usize,
    /// End of the record section (the verified trailer, if any, sits
    /// beyond this and is never re-entered by the decode loop).
    len: usize,
    pos: usize,
    header: ActivityHeader,
    cycles: u64,
    committed: u64,
    verified: Option<(u64, u64)>,
    /// End of the current block's payload (`== pos` at a block boundary).
    block_end: usize,
    /// Records in the block just entered (columnar payloads decode whole
    /// blocks, so this drops back to 0 as soon as the decode lands).
    block_left: u32,
    /// Committed total the current block's subheader claims.
    block_committed: u64,
    /// Decoded block the scalar [`read_cycle`] shim serves records from.
    ///
    /// [`read_cycle`]: ActivityTraceReader::read_cycle
    cur: Box<ActivityBlock>,
    /// Next record to extract from `cur`.
    cur_idx: u32,
    /// Records left to serve from `cur`.
    cur_left: u32,
}

/// Read one raw u64 LE lane mask, rejecting bits at or above `n`.
fn decode_mask(buf: &[u8], pos: &mut usize, n: usize) -> Result<u64, TraceError> {
    let Some(bytes) = buf.get(*pos..*pos + 8) else {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "activity block lane mask truncated",
        )
        .into());
    };
    *pos += 8;
    let mask = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    if n < BLOCK_CYCLES && mask >> n != 0 {
        return Err(TraceError::BadActivity("lane mask exceeds block length"));
    }
    Ok(mask)
}

/// Decode one sparse column into `out` at `stride` (lane `i` lands at
/// `out[i * stride]`); zero lanes are cleared. Returns the lane mask.
fn decode_column(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut [u32],
    stride: usize,
    what: &'static str,
) -> Result<u64, TraceError> {
    let mask = decode_mask(buf, pos, n)?;
    let full = if n == BLOCK_CYCLES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    };
    if mask == full {
        // Dense column (flow counters and latch occupancies usually are):
        // every lane carries a value, so decode in order without the
        // mask walk. When every varint is a single byte (value 1..=127 —
        // the overwhelmingly common case for per-cycle counters) the
        // column is a straight byte spread; any other byte falls back to
        // the per-value loop from the unadvanced position, so error
        // classification is unchanged.
        if let Some(win) = buf.get(*pos..*pos + n) {
            if win.iter().all(|&b| b.wrapping_sub(1) < 0x7f) {
                // The unit-stride widen is a separate loop so it
                // auto-vectorizes: `step_by` with a runtime stride
                // defeats the unroller, and every column except the
                // latch-occupancy rows is unit-stride.
                if stride == 1 {
                    for (o, &b) in out[..n].iter_mut().zip(win) {
                        *o = u32::from(b);
                    }
                } else {
                    for (o, &b) in out.iter_mut().step_by(stride).zip(win) {
                        *o = u32::from(b);
                    }
                }
                *pos += n;
                return Ok(mask);
            }
        }
        for i in 0..n {
            let v = decode_u32(buf, pos, what)?;
            if v == 0 {
                return Err(TraceError::BadActivity("zero value under set mask bit"));
            }
            out[i * stride] = v;
        }
        return Ok(mask);
    }
    if stride == 1 {
        out[..n].fill(0);
    } else {
        for i in 0..n {
            out[i * stride] = 0;
        }
    }
    // Same single-byte fast path for the sparse case: `count_ones` lanes
    // carry one varint each.
    let lanes = mask.count_ones() as usize;
    if let Some(win) = buf.get(*pos..*pos + lanes) {
        if win.iter().all(|&b| b.wrapping_sub(1) < 0x7f) {
            let mut m = mask;
            if stride == 1 {
                for &b in win {
                    let i = m.trailing_zeros() as usize;
                    out[i] = u32::from(b);
                    m &= m - 1;
                }
            } else {
                for &b in win {
                    let i = m.trailing_zeros() as usize;
                    out[i * stride] = u32::from(b);
                    m &= m - 1;
                }
            }
            *pos += lanes;
            return Ok(mask);
        }
    }
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        let v = decode_u32(buf, pos, what)?;
        if v == 0 {
            return Err(TraceError::BadActivity("zero value under set mask bit"));
        }
        out[i * stride] = v;
        m &= m - 1;
    }
    Ok(mask)
}

/// Decode one columnar block payload (`buf[pos..end]`, `n` records)
/// straight into `block`; returns the committed-instruction sum, checked
/// against the subheader's claim.
fn decode_block_into(
    buf: &[u8],
    mut pos: usize,
    end: usize,
    n: usize,
    first_cycle: u64,
    expect_committed: u64,
    block: &mut ActivityBlock,
) -> Result<u64, TraceError> {
    block.clear(first_cycle);
    let p = &mut pos;
    block.icache_access_lanes = decode_mask(buf, p, n)?;
    block.icache_miss_lanes = decode_mask(buf, p, n)?;
    decode_column(buf, p, n, &mut block.fetched, 1, "fetched overflows u32")?;
    decode_column(buf, p, n, &mut block.renamed, 1, "renamed overflows u32")?;
    decode_column(
        buf,
        p,
        n,
        &mut block.dispatched,
        1,
        "dispatched overflows u32",
    )?;
    decode_column(buf, p, n, &mut block.issued, 1, "issued overflows u32")?;
    decode_column(
        buf,
        p,
        n,
        &mut block.issued_fp,
        1,
        "issued_fp overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.issued_loads,
        1,
        "issued_loads overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.issued_stores,
        1,
        "issued_stores overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.committed,
        1,
        "committed overflows u32",
    )?;
    for c in 0..FuClass::COUNT {
        block.fu_any[c] = decode_column(
            buf,
            p,
            n,
            &mut block.fu_active[c],
            1,
            "fu_active overflows u32",
        )?;
    }
    block.port_any = decode_column(
        buf,
        p,
        n,
        &mut block.dcache_port_mask,
        1,
        "dcache_port_mask overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.dcache_load_accesses,
        1,
        "dcache_load_accesses overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.dcache_store_accesses,
        1,
        "dcache_store_accesses overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.dcache_misses,
        1,
        "dcache_misses overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.l2_accesses,
        1,
        "l2_accesses overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.bpred_lookups,
        1,
        "bpred_lookups overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.bpred_mispredicts,
        1,
        "bpred_mispredicts overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.regfile_reads,
        1,
        "regfile_reads overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.regfile_writes,
        1,
        "regfile_writes overflows u32",
    )?;
    block.bus_any = decode_column(
        buf,
        p,
        n,
        &mut block.result_bus_used,
        1,
        "result_bus_used overflows u32",
    )?;
    let groups = block.groups;
    block.latch_occupancy.resize(n * groups, 0);
    for g in 0..groups {
        block.latch_any[g] = decode_column(
            buf,
            p,
            n,
            &mut block.latch_occupancy[g..],
            groups,
            "latch occupancy overflows u32",
        )?;
    }
    decode_column(
        buf,
        p,
        n,
        &mut block.decode_ready_next,
        1,
        "decode_ready_next overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.iq_occupancy,
        1,
        "iq_occupancy overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.rob_occupancy,
        1,
        "rob_occupancy overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.lsq_occupancy,
        1,
        "lsq_occupancy overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.store_ports_next,
        1,
        "store_ports_next overflows u32",
    )?;
    decode_column(
        buf,
        p,
        n,
        &mut block.result_bus_in_2,
        1,
        "result_bus_in_2 overflows u32",
    )?;
    let mut counts = [0u32; BLOCK_CYCLES];
    decode_column(buf, p, n, &mut counts, 1, "grant count overflows u32")?;
    let mut total = 0u32;
    for (i, &c) in counts.iter().take(n).enumerate() {
        if c as usize > MAX_GRANTS {
            return Err(TraceError::BadActivity("too many grants in one cycle"));
        }
        total += c;
        block.grant_end[i] = total;
    }
    let total = total as usize;
    block.grants.reserve(total);
    let Some(classes) = buf.get(*p..*p + total) else {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "record truncated in grant list",
        )
        .into());
    };
    *p += total;
    for &c in classes {
        let class = FuClass::from_index(c as usize)
            .ok_or(TraceError::BadActivity("grant class out of range"))?;
        block.grants.push(FuGrant {
            class,
            instance: 0,
            exec_start: 0,
            active_len: 0,
        });
    }
    // The three per-grant field streams take the same all-single-byte
    // fast path as the columns (values 0..=127 are one varint byte);
    // mixed streams fall back to the per-value decode.
    let small = buf
        .get(*p..*p + total)
        .is_some_and(|win| win.iter().all(|&b| b < 0x80));
    if small {
        for (g, &b) in block.grants.iter_mut().zip(&buf[*p..*p + total]) {
            g.instance = b as usize;
        }
        *p += total;
    } else {
        for g in block.grants.iter_mut() {
            g.instance = decode_u32(buf, p, "grant instance overflows u32")? as usize;
        }
    }
    let small = buf
        .get(*p..*p + total)
        .is_some_and(|win| win.iter().all(|&b| b < 0x80));
    if small {
        for (g, &b) in block.grants.iter_mut().zip(&buf[*p..*p + total]) {
            g.exec_start = u32::from(b);
        }
        *p += total;
    } else {
        for g in block.grants.iter_mut() {
            g.exec_start = decode_u32(buf, p, "grant exec_start overflows u32")?;
        }
    }
    let small = buf
        .get(*p..*p + total)
        .is_some_and(|win| win.iter().all(|&b| b < 0x80));
    if small {
        for (g, &b) in block.grants.iter_mut().zip(&buf[*p..*p + total]) {
            g.active_len = u32::from(b);
        }
        *p += total;
    } else {
        for g in block.grants.iter_mut() {
            g.active_len = decode_u32(buf, p, "grant active_len overflows u32")?;
        }
    }
    if pos != end {
        return Err(TraceError::BadActivity("block payload length mismatch"));
    }
    let committed_sum: u64 = block.committed[..n].iter().map(|&c| u64::from(c)).sum();
    if committed_sum != expect_committed {
        return Err(TraceError::BadActivity("block committed total mismatch"));
    }
    block.len = n;
    Ok(committed_sum)
}

impl ActivityTraceReader {
    /// Read the whole source into an owned buffer and parse it — the
    /// portable constructor, kept for in-memory traces and non-file
    /// sources. File-backed traces should prefer the zero-copy
    /// [`open`](ActivityTraceReader::open).
    ///
    /// # Errors
    ///
    /// As [`from_data`](ActivityTraceReader::from_data), plus I/O errors
    /// from the source.
    pub fn new<R: Read>(mut source: R) -> Result<ActivityTraceReader, TraceError> {
        let mut buf = Vec::new();
        source.read_to_end(&mut buf)?;
        Self::from_data(TraceData::from(buf))
    }

    /// Open a trace file zero-copy: `mmap(2)` on unix (falling back to a
    /// plain read if the kernel refuses), owned read elsewhere.
    ///
    /// # Errors
    ///
    /// As [`from_data`](ActivityTraceReader::from_data), plus I/O errors
    /// opening or reading the file.
    pub fn open(path: &std::path::Path) -> Result<ActivityTraceReader, TraceError> {
        Self::from_data(TraceData::open(path)?)
    }

    /// Parse the header and position at the first record, borrowing all
    /// record bytes from `data` (no copy). If the stream ends in a
    /// trailer, verify its checksum over the block subheaders; the
    /// trailer totals are then available from
    /// [`ActivityTraceReader::verified_totals`] without touching a single
    /// payload byte (payload checksums are verified lazily, on block
    /// entry).
    ///
    /// # Errors
    ///
    /// Fails on malformed headers or a trailer whose checksum does not
    /// match the subheader chain (the file was corrupted in place).
    pub fn from_data(data: TraceData) -> Result<ActivityTraceReader, TraceError> {
        let mut rest: &[u8] = &data;
        let header = ActivityHeader::read_from(&mut rest)?;
        let start = data.len() - rest.len();
        let mut len = data.len();
        let mut verified = None;
        if len - start >= ACTIVITY_TRAILER_LEN {
            let base = len - ACTIVITY_TRAILER_LEN;
            let word = |i: usize| {
                let at = base + 8 + 8 * i;
                u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
            };
            if data[base..base + 8] == ACTIVITY_TRAILER_MAGIC && word(2) == (base - start) as u64 {
                // Walk the subheader chain; the trailer checksum covers
                // exactly those subheader bytes.
                let mut chk = Checksum::new();
                let mut pos = start;
                let mut intact = true;
                while pos < base {
                    if pos + ACTIVITY_BLOCK_HEADER_LEN > base {
                        intact = false;
                        break;
                    }
                    let sub = &data[pos..pos + ACTIVITY_BLOCK_HEADER_LEN];
                    let blen = u32::from_le_bytes(sub[0..4].try_into().expect("4 bytes")) as usize;
                    let next = pos + ACTIVITY_BLOCK_HEADER_LEN + blen;
                    if next > base {
                        intact = false;
                        break;
                    }
                    chk.update(sub);
                    pos = next;
                }
                if !intact || chk.finish() != word(3) {
                    return Err(TraceError::BadActivity("activity trace checksum mismatch"));
                }
                verified = Some((word(0), word(1)));
                len = base;
            }
        }
        let groups = header.groups as usize;
        Ok(ActivityTraceReader {
            data,
            start,
            len,
            pos: start,
            header,
            cycles: 0,
            committed: 0,
            verified,
            block_end: start,
            block_left: 0,
            block_committed: 0,
            cur: Box::new(ActivityBlock::new(groups)),
            cur_idx: 0,
            cur_left: 0,
        })
    }

    /// Step over the next block's subheader and verify its payload
    /// checksum; returns `Ok(false)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Fails on a truncated subheader or payload, an out-of-range cycle
    /// count, or a payload that does not match its checksum.
    fn enter_block(&mut self) -> Result<bool, TraceError> {
        debug_assert_eq!(self.block_left, 0, "entered block mid-block");
        debug_assert_eq!(self.pos, self.block_end, "decode misaligned");
        let records = &self.data[..self.len];
        if self.pos == records.len() {
            return Ok(false);
        }
        let Some(sub) = records.get(self.pos..self.pos + ACTIVITY_BLOCK_HEADER_LEN) else {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "activity block subheader truncated",
            )
            .into());
        };
        let blen = u32::from_le_bytes(sub[0..4].try_into().expect("4 bytes")) as usize;
        let bcycles = u32::from_le_bytes(sub[4..8].try_into().expect("4 bytes"));
        let bcommit = u64::from_le_bytes(sub[8..16].try_into().expect("8 bytes"));
        let bcheck = u64::from_le_bytes(sub[16..24].try_into().expect("8 bytes"));
        if bcycles == 0 || bcycles as usize > BLOCK_CYCLES {
            return Err(TraceError::BadActivity("block cycle count out of range"));
        }
        let start = self.pos + ACTIVITY_BLOCK_HEADER_LEN;
        let Some(payload) = records.get(start..start + blen) else {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "activity block payload truncated",
            )
            .into());
        };
        if record_checksum(payload) != bcheck {
            return Err(TraceError::BadActivity("activity block checksum mismatch"));
        }
        self.pos = start;
        self.block_end = start + blen;
        self.block_left = bcycles;
        self.block_committed = bcommit;
        Ok(true)
    }

    /// Totals `(cycles, committed)` recorded in the trailer, when the
    /// stream ended in one and its checksum verified against the record
    /// bytes. `None` for a bare record stream (no `finish()`), which
    /// includes any truncated file — so a cache can treat `Some` as "the
    /// complete, uncorrupted output of a writer".
    pub fn verified_totals(&self) -> Option<(u64, u64)> {
        self.verified
    }

    /// The parsed header.
    pub fn header(&self) -> &ActivityHeader {
        &self.header
    }

    /// Cycles decoded so far.
    pub fn cycles_read(&self) -> u64 {
        self.cycles
    }

    /// Total committed instructions across the decoded cycles.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Decode the next cycle into `act` (reusing its allocations);
    /// returns `Ok(false)` at a clean end of file, in which case `act` is
    /// left unspecified.
    ///
    /// This is the scalar compatibility shim over the columnar payload:
    /// each block is decoded whole into an internal [`ActivityBlock`] on
    /// entry, then served record by record via
    /// [`extract`](ActivityBlock::extract). Corruption anywhere in a
    /// block therefore surfaces on the first read that touches it.
    ///
    /// # Errors
    ///
    /// Fails — never panics — on truncated payloads, lane masks with
    /// bits past the block length, out-of-range fields or I/O errors.
    pub fn read_cycle(&mut self, act: &mut CycleActivity) -> Result<bool, TraceError> {
        if self.cur_left == 0 {
            if !self.enter_block()? {
                return Ok(false);
            }
            let n = self.block_left as usize;
            decode_block_into(
                &self.data[..self.len],
                self.pos,
                self.block_end,
                n,
                self.cycles + 1,
                self.block_committed,
                &mut self.cur,
            )?;
            self.pos = self.block_end;
            self.block_left = 0;
            self.cur_idx = 0;
            self.cur_left = n as u32;
        }
        self.cur.extract(self.cur_idx as usize, act);
        self.cur_idx += 1;
        self.cur_left -= 1;
        self.cycles += 1;
        self.committed += u64::from(act.committed);
        Ok(true)
    }

    /// Decode the next whole block straight into `block` (struct-of-arrays
    /// form, lane masks included); returns `Ok(false)` at a clean end of
    /// stream. This is the hot replay path: one payload-checksum pass per
    /// block, then a mask-guided columnar decode that never touches the
    /// zero lanes and materializes no per-record `CycleActivity`. Must be
    /// called at a block boundary — mixing it with
    /// [`read_cycle`](ActivityTraceReader::read_cycle) is allowed only
    /// when the scalar reads have consumed full blocks.
    ///
    /// # Errors
    ///
    /// Fails on a misaligned call, a `block` sized for the wrong latch
    /// geometry, or any corruption [`read_cycle`](Self::read_cycle) would report.
    pub fn read_block(&mut self, block: &mut ActivityBlock) -> Result<bool, TraceError> {
        if self.cur_left != 0 {
            return Err(TraceError::BadActivity("block read misaligned"));
        }
        if block.groups != self.header.groups as usize {
            return Err(TraceError::BadActivity("latch group count mismatch"));
        }
        if !self.enter_block()? {
            return Ok(false);
        }
        let n = self.block_left as usize;
        let committed_sum = decode_block_into(
            &self.data[..self.len],
            self.pos,
            self.block_end,
            n,
            self.cycles + 1,
            self.block_committed,
            block,
        )?;
        self.pos = self.block_end;
        self.block_left = 0;
        self.cycles += n as u64;
        self.committed += committed_sum;
        Ok(true)
    }

    /// Decode the remainder of the trace, returning `(cycles, committed)`
    /// totals — the cache's integrity scan.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed record.
    pub fn scan(&mut self) -> Result<(u64, u64), TraceError> {
        let mut act = CycleActivity::default();
        while self.read_cycle(&mut act)? {}
        Ok((self.cycles, self.committed))
    }

    /// Measure the replay window without decoding the interior: the
    /// `(cycles, committed)` totals the drive loop would observe for a
    /// warm-up of `warmup_insts` followed by `measure_insts` committed
    /// instructions.
    ///
    /// Interior blocks contribute their subheader's cycle/commit totals
    /// directly — those 24-byte subheaders are exactly what the verified
    /// trailer checksum covers, so the sums are integrity-checked at
    /// [`from_data`] without touching a payload byte. Only the (at most
    /// two) blocks containing the warm-up and stop boundaries are
    /// decoded, payload checksum included, to locate the exact cycle the
    /// drive loop would start and stop at. An IPC-style query over a
    /// multi-MB trace therefore costs a subheader walk plus two block
    /// decodes.
    ///
    /// Returns `None` when the trace is not trailer-verified or its
    /// committed total does not cover the window — callers fall back to
    /// a full decode, which reports the precise failure. The reader's
    /// cursor is untouched; this never interacts with
    /// [`read_cycle`]/[`read_block`] state.
    ///
    /// [`from_data`]: ActivityTraceReader::from_data
    /// [`read_cycle`]: ActivityTraceReader::read_cycle
    /// [`read_block`]: ActivityTraceReader::read_block
    ///
    /// # Errors
    ///
    /// Fails on a malformed subheader chain or a corrupt boundary block
    /// — the same classifications a full decode of that block reports.
    pub fn measured_window(
        &self,
        warmup_insts: u64,
        measure_insts: u64,
    ) -> Result<Option<(u64, u64)>, TraceError> {
        let warm = warmup_insts;
        let target = warm.saturating_add(measure_insts);
        let Some((_, total)) = self.verified else {
            return Ok(None);
        };
        if total < target {
            return Ok(None);
        }
        let records = &self.data[..self.len];
        let mut pos = self.start;
        let mut pre = 0u64; // committed before the current block
        let mut first_cycle = 1u64;
        let mut cycles = 0u64;
        let mut committed = 0u64;
        let mut scratch: Option<Box<ActivityBlock>> = None;
        while pre < target {
            if pos == records.len() {
                // The verified totals promised coverage; an intact chain
                // cannot end here. Let the full decode classify it.
                return Ok(None);
            }
            let Some(sub) = records.get(pos..pos + ACTIVITY_BLOCK_HEADER_LEN) else {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "activity block subheader truncated",
                )
                .into());
            };
            let blen = u32::from_le_bytes(sub[0..4].try_into().expect("4 bytes")) as usize;
            let bcycles = u32::from_le_bytes(sub[4..8].try_into().expect("4 bytes"));
            let bcommit = u64::from_le_bytes(sub[8..16].try_into().expect("8 bytes"));
            let bcheck = u64::from_le_bytes(sub[16..24].try_into().expect("8 bytes"));
            if bcycles == 0 || bcycles as usize > BLOCK_CYCLES {
                return Err(TraceError::BadActivity("block cycle count out of range"));
            }
            let pstart = pos + ACTIVITY_BLOCK_HEADER_LEN;
            let pend = pstart + blen;
            let Some(payload) = records.get(pstart..pend) else {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "activity block payload truncated",
                )
                .into());
            };
            let post = pre + bcommit;
            let measuring = pre >= warm;
            // A block is a boundary block when the warm-up or stop
            // crossing may land inside it; everything else is summed
            // wholesale from the subheader.
            if (!measuring && post >= warm) || post >= target {
                if record_checksum(payload) != bcheck {
                    return Err(TraceError::BadActivity("activity block checksum mismatch"));
                }
                let groups = self.header.groups as usize;
                let block = scratch.get_or_insert_with(|| Box::new(ActivityBlock::new(groups)));
                decode_block_into(
                    records,
                    pstart,
                    pend,
                    bcycles as usize,
                    first_cycle,
                    bcommit,
                    block,
                )?;
                // Exactly the block-granular drive loop's boundary scan.
                let len = bcycles as usize;
                let mut cum = pre;
                let mut m = measuring;
                let mut begin = if m { 0 } else { len };
                let mut stop = len;
                for i in 0..len {
                    if !m && cum >= warm {
                        m = true;
                        begin = i;
                    }
                    cum += u64::from(block.committed[i]);
                    if cum >= target {
                        stop = i + 1;
                        break;
                    }
                }
                if begin < stop {
                    cycles += (stop - begin) as u64;
                    committed += block.committed[begin..stop]
                        .iter()
                        .map(|&c| u64::from(c))
                        .sum::<u64>();
                }
            } else if measuring {
                cycles += u64::from(bcycles);
                committed += bcommit;
            }
            first_cycle += u64::from(bcycles);
            pre = post;
            pos = pend;
        }
        Ok(Some((cycles, committed)))
    }

    /// Reset to the first record and clear the running totals, so the
    /// same in-memory trace can be decoded again (the cache [`scan`]s for
    /// integrity, then rewinds and replays without re-reading the file).
    ///
    /// [`scan`]: ActivityTraceReader::scan
    pub fn rewind(&mut self) {
        self.pos = self.start;
        self.cycles = 0;
        self.committed = 0;
        self.block_end = self.start;
        self.block_left = 0;
        self.block_committed = 0;
        self.cur_idx = 0;
        self.cur_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(groups: usize) -> ActivityHeader {
        ActivityHeader::new("unit", 0xdead_beef, 7, 100, 400, groups).expect("valid header")
    }

    fn header_len(groups: usize) -> usize {
        let mut h = Vec::new();
        header(groups).write_to(&mut h).expect("write");
        h.len()
    }

    /// Recompute every block's payload checksum and the trailer's
    /// `rbytes`/checksum after a test mutated the byte stream (keeps the
    /// trailer cycle/commit totals as-is).
    fn fix_integrity(buf: &mut [u8], header_len: usize) {
        let base = buf.len() - ACTIVITY_TRAILER_LEN;
        let mut chk = Checksum::new();
        let mut pos = header_len;
        while pos < base {
            let blen = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let pstart = pos + ACTIVITY_BLOCK_HEADER_LEN;
            let pend = pstart + blen;
            let payload_check = record_checksum(&buf[pstart..pend]);
            buf[pos + 16..pos + 24].copy_from_slice(&payload_check.to_le_bytes());
            chk.update(&buf[pos..pos + ACTIVITY_BLOCK_HEADER_LEN]);
            pos = pend;
        }
        let rbytes = (base - header_len) as u64;
        buf[base + 24..base + 32].copy_from_slice(&rbytes.to_le_bytes());
        buf[base + 32..base + 40].copy_from_slice(&chk.finish().to_le_bytes());
    }

    fn sample(cycle: u64, groups: usize) -> CycleActivity {
        let mut a = CycleActivity {
            cycle,
            fetched: 8,
            renamed: 6,
            dispatched: 6,
            issued: 5,
            issued_fp: 1,
            issued_loads: 2,
            issued_stores: 1,
            committed: 4,
            dcache_port_mask: 0b01,
            dcache_load_accesses: 1,
            dcache_misses: 1,
            l2_accesses: 1,
            icache_access: true,
            bpred_lookups: 2,
            bpred_mispredicts: 1,
            regfile_reads: 9,
            regfile_writes: 4,
            result_bus_used: 4,
            decode_ready_next: 3,
            iq_occupancy: 17,
            rob_occupancy: 41,
            lsq_occupancy: 12,
            store_ports_next: 0b10,
            result_bus_in_2: 2,
            ..CycleActivity::default()
        };
        a.fu_active[0] = 0b111;
        a.latch_occupancy = vec![3; groups];
        a.grants.push(FuGrant {
            class: FuClass::MemPort,
            instance: 1,
            exec_start: 3,
            active_len: 1,
        });
        a
    }

    #[test]
    fn header_roundtrip() {
        let h = header(8);
        let mut buf = Vec::new();
        let n = h.write_to(&mut buf).expect("write");
        assert_eq!(n, buf.len());
        assert_eq!(ActivityHeader::read_from(&mut &buf[..]).expect("read"), h);
    }

    #[test]
    fn header_rejects_magic_version_schema() {
        let mut buf = Vec::new();
        header(8).write_to(&mut buf).expect("write");
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            ActivityHeader::read_from(&mut &bad[..]),
            Err(TraceError::BadMagic(_))
        ));
        let mut badv = buf.clone();
        badv[8] = 9;
        assert!(matches!(
            ActivityHeader::read_from(&mut &badv[..]),
            Err(TraceError::UnsupportedVersion(9))
        ));
        let mut bads = buf.clone();
        bads[12] ^= 0xff;
        assert!(matches!(
            ActivityHeader::read_from(&mut &bads[..]),
            Err(TraceError::BadActivity(_))
        ));
    }

    #[test]
    fn record_roundtrip_and_totals() {
        let groups = 8;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        let cycles: Vec<CycleActivity> = (1..=5).map(|c| sample(c, groups)).collect();
        for a in &cycles {
            w.write_cycle(a).expect("write");
        }
        assert_eq!(w.cycles(), 5);
        assert_eq!(w.committed(), 20);
        w.finish().expect("finish");

        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut act = CycleActivity::default();
        for expect in &cycles {
            assert!(r.read_cycle(&mut act).expect("read"));
            assert_eq!(&act, expect);
        }
        assert!(!r.read_cycle(&mut act).expect("clean eof"));
        assert_eq!(r.cycles_read(), 5);
        assert_eq!(r.committed(), 20);
    }

    #[test]
    fn scan_totals_match() {
        let groups = 8;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        for c in 1..=9 {
            w.write_cycle(&sample(c, groups)).expect("write");
        }
        w.finish().expect("finish");
        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        assert_eq!(r.scan().expect("scan"), (9, 36));
        // After a rewind the same in-memory trace decodes again.
        r.rewind();
        assert_eq!(r.scan().expect("rescan"), (9, 36));
    }

    #[test]
    fn wrong_group_count_is_rejected_at_write() {
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(8)).expect("header");
        let short = sample(1, 4);
        assert!(matches!(
            w.write_cycle(&short),
            Err(TraceError::BadActivity(_))
        ));
    }

    #[test]
    fn bad_blocks_are_rejected_before_any_byte() {
        let mut w = ActivityTraceWriter::new(Vec::new(), &header(8)).expect("header");
        let mut block = ActivityBlock::new(4);
        for c in 1..=BLOCK_CYCLES as u64 {
            block.push(&sample(c, 4));
        }
        assert!(matches!(
            w.write_block(&block),
            Err(TraceError::BadActivity("latch group count mismatch"))
        ));
        let mut block = ActivityBlock::new(8);
        let mut crowded = sample(1, 8);
        crowded.grants = vec![crowded.grants[0]; MAX_GRANTS + 1];
        block.push(&crowded);
        for c in 2..=BLOCK_CYCLES as u64 {
            block.push(&sample(c, 8));
        }
        assert!(matches!(
            w.write_block(&block),
            Err(TraceError::BadActivity("too many grants in one cycle"))
        ));
        assert_eq!(
            (w.cycles(), w.bytes()),
            (0, header(8).write_to(&mut Vec::new()).unwrap() as u64)
        );
    }

    #[test]
    fn out_of_range_lane_mask_errors() {
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(0)).expect("header");
        let mut a = sample(1, 0);
        a.grants.clear();
        w.write_cycle(&a).expect("write");
        w.finish().expect("finish");
        // Set lane bit 1 in the icache-access mask (the first payload
        // bytes of the block) — the block holds a single record, so any
        // bit past lane 0 is invalid. Restore integrity so the error
        // surfaces at decode, not as a checksum mismatch.
        let hl = header_len(0);
        buf[hl + ACTIVITY_BLOCK_HEADER_LEN] |= 0b10;
        fix_integrity(&mut buf, hl);
        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut act = CycleActivity::default();
        assert!(matches!(
            r.read_cycle(&mut act),
            Err(TraceError::BadActivity("lane mask exceeds block length"))
        ));
        // The same corruption fails the block read path too.
        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut block = ActivityBlock::new(0);
        assert!(matches!(
            r.read_block(&mut block),
            Err(TraceError::BadActivity("lane mask exceeds block length"))
        ));
    }

    #[test]
    fn explicit_zero_under_mask_bit_errors() {
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(0)).expect("header");
        let mut a = sample(1, 0);
        a.grants.clear();
        w.write_cycle(&a).expect("write");
        w.finish().expect("finish");
        // The `fetched` column follows the two 8-byte icache masks: its
        // own mask (bit 0 set — sample fetches 8), then the lone varint.
        // Zeroing that varint makes the column non-canonical: a set mask
        // bit must never carry a zero value.
        let hl = header_len(0);
        let fetched_value = hl + ACTIVITY_BLOCK_HEADER_LEN + 16 + 8;
        assert_eq!(buf[fetched_value], 8, "fetched varint");
        buf[fetched_value] = 0;
        fix_integrity(&mut buf, hl);
        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut act = CycleActivity::default();
        assert!(matches!(
            r.read_cycle(&mut act),
            Err(TraceError::BadActivity("zero value under set mask bit"))
        ));
    }

    #[test]
    fn bad_grant_class_errors() {
        let mut buf2 = Vec::new();
        let mut w2 = ActivityTraceWriter::new(&mut buf2, &header(0)).expect("header");
        w2.write_cycle(&sample(1, 0)).expect("write");
        w2.finish().expect("finish");
        // The flat grant records close the payload; the sample's single
        // grant encodes as (class, instance=1, exec_start=3, active_len=1)
        // — four single bytes — so the class byte sits four bytes before
        // the trailer. Overwrite it with an out-of-range class and
        // restore integrity.
        let hl = header_len(0);
        let class_at = buf2.len() - ACTIVITY_TRAILER_LEN - 4;
        assert_eq!(buf2[class_at], FuClass::MemPort.index() as u8, "class byte");
        buf2[class_at] = FuClass::COUNT as u8;
        fix_integrity(&mut buf2, hl);
        let mut r = ActivityTraceReader::new(&buf2[..]).expect("header");
        let mut act = CycleActivity::default();
        assert!(matches!(
            r.read_cycle(&mut act),
            Err(TraceError::BadActivity("grant class out of range"))
        ));
        let mut r = ActivityTraceReader::new(&buf2[..]).expect("header");
        let mut block = ActivityBlock::new(0);
        assert!(matches!(
            r.read_block(&mut block),
            Err(TraceError::BadActivity("grant class out of range"))
        ));
    }

    #[test]
    fn truncation_mid_record_errors() {
        let groups = 8;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        w.write_cycle(&sample(1, groups)).expect("write");
        w.finish().expect("finish");
        // Cut inside the record: the trailer is gone (unverified) and the
        // record itself is short.
        let cut = &buf[..buf.len() - ACTIVITY_TRAILER_LEN - 1];
        let mut r = ActivityTraceReader::new(cut).expect("header intact");
        assert_eq!(r.verified_totals(), None);
        let mut act = CycleActivity::default();
        assert!(r.read_cycle(&mut act).is_err());
    }

    #[test]
    fn trailer_totals_match_scan_and_catch_corruption() {
        let groups = 8;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        for c in 1..=9 {
            w.write_cycle(&sample(c, groups)).expect("write");
        }
        w.finish().expect("finish");

        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        assert_eq!(r.verified_totals(), Some((9, 36)));
        assert_eq!(r.scan().expect("scan"), (9, 36));

        let hl = header_len(groups);

        // A flipped subheader byte fails the trailer checksum at open.
        let mut bad = buf.clone();
        bad[hl + 5] ^= 0x40; // bcycles field of the first subheader
        assert!(matches!(
            ActivityTraceReader::new(&bad[..]),
            Err(TraceError::BadActivity("activity trace checksum mismatch"))
        ));

        // A flipped payload byte opens fine (only subheaders are hashed
        // at open) but fails the lazy per-block checksum on first entry.
        let mut bad = buf.clone();
        bad[hl + ACTIVITY_BLOCK_HEADER_LEN + 3] ^= 0x40;
        let mut r = ActivityTraceReader::new(&bad[..]).expect("open skips payloads");
        assert_eq!(r.verified_totals(), Some((9, 36)));
        assert!(matches!(
            r.scan(),
            Err(TraceError::BadActivity("activity block checksum mismatch"))
        ));

        // Chopping the trailer leaves a decodable but unverified stream.
        let bare = &buf[..buf.len() - ACTIVITY_TRAILER_LEN];
        let mut r = ActivityTraceReader::new(bare).expect("header");
        assert_eq!(r.verified_totals(), None);
        assert_eq!(r.scan().expect("scan"), (9, 36));
    }

    #[test]
    fn read_block_matches_read_cycle() {
        let groups = 8;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        // 2 full blocks plus a short tail block.
        let total = 2 * BLOCK_CYCLES as u64 + 17;
        for c in 1..=total {
            let mut a = sample(c, groups);
            a.committed = (c % 5) as u32;
            a.icache_access = c % 2 == 0;
            if c % 3 == 0 {
                a.grants.clear();
            }
            w.write_cycle(&a).expect("write");
        }
        w.finish().expect("finish");

        let mut scalar = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut blocked = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut block = ActivityBlock::new(groups);
        let mut want = CycleActivity::default();
        let mut got = CycleActivity::default();
        let mut seen = 0u64;
        while blocked.read_block(&mut block).expect("read block") {
            for i in 0..block.len() {
                assert!(scalar.read_cycle(&mut want).expect("read"));
                block.extract(i, &mut got);
                assert_eq!(got, want, "cycle {}", want.cycle);
                seen += 1;
            }
        }
        assert_eq!(seen, total);
        assert!(!scalar.read_cycle(&mut want).expect("eof"));
        assert_eq!(blocked.cycles_read(), scalar.cycles_read());
        assert_eq!(blocked.committed(), scalar.committed());
        // Rewind works on the block path too.
        blocked.rewind();
        assert!(blocked.read_block(&mut block).expect("re-read"));
        assert_eq!(block.first_cycle, 1);
        assert_eq!(block.len(), BLOCK_CYCLES);
    }

    #[test]
    fn read_block_rejects_misaligned_and_wrong_geometry() {
        let groups = 4;
        let mut buf = Vec::new();
        let mut w = ActivityTraceWriter::new(&mut buf, &header(groups)).expect("header");
        for c in 1..=3 {
            w.write_cycle(&sample(c, groups)).expect("write");
        }
        w.finish().expect("finish");

        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut act = CycleActivity::default();
        assert!(r.read_cycle(&mut act).expect("read"));
        let mut block = ActivityBlock::new(groups);
        assert!(matches!(
            r.read_block(&mut block),
            Err(TraceError::BadActivity("block read misaligned"))
        ));

        let mut r = ActivityTraceReader::new(&buf[..]).expect("header");
        let mut wrong = ActivityBlock::new(groups + 1);
        assert!(matches!(
            r.read_block(&mut wrong),
            Err(TraceError::BadActivity("latch group count mismatch"))
        ));
    }
}
