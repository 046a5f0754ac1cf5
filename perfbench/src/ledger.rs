//! Per-layer counters, and the adapters that fill them from outside the
//! library: each wraps one public trait object or stream and times the
//! calls crossing it.
//!
//! Calls made once per block or per operation are timed exactly. Calls
//! made once per simulated cycle are *sampled*: a pseudo-random one in
//! [`SAMPLE_EVERY`] is timed and scaled up, while every call is counted.
//! The pseudo-random choice avoids aliasing with periodic work such as the
//! generator's chunk refills.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use dcg_core::{ActivitySink, ActivitySource, DcgError, GatingPolicy};
use dcg_isa::Inst;
use dcg_power::GateState;
use dcg_sim::{ActivityBlock, CycleActivity, ResourceConstraints};
use dcg_trace::{ActivityTraceWriter, TraceError};
use dcg_workloads::InstStream;

/// One call in this many per-cycle calls is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Instructions the generator adapter produces per timed chunk.
const CHUNK: usize = 256;

macro_rules! counters {
    ($($id:ident,)*) => {
        /// A raw per-layer counter.
        #[derive(Debug, Clone, Copy)]
        pub enum C { $($id,)* }
        const COUNT: usize = [$(C::$id,)*].len();
    };
}

counters! {
    GenNs, GenInsts,
    LiveNs, LiveCycles,
    EncodeNs, EncodedBytes,
    DecodeNs, DecodedBytes, ReplayedCycles,
    IndexNs, IndexQueries,
    InsertNs, Inserts, InsertBytes,
    OpenNs, Opens,
    FetchNs, Hits, Misses,
    BaselineNs, DcgNs, MetricsSinkNs,
    PlbNs, PlbRuns, OracleNs, OracleRuns,
    AssembleNs, DiffNs, EmuInsts,
    JsonNs, JsonBytes,
    RttNs, Pings,
    FrameNs, Frames,
    SubmitNs, Submits,
    WalNs, WalAppends,
    ResultWaitNs, Polls,
    JobBodyNs, JobBodies,
    Busy, Retries, Failed, ReplayFailures, ReadonlySkips,
    OpsNs, Ops,
}

static LEDGER: [AtomicU64; COUNT] = [const { AtomicU64::new(0) }; COUNT];

/// Add `v` to a counter.
pub fn add(c: C, v: u64) {
    LEDGER[c as usize].fetch_add(v, Relaxed);
}

/// Current value of a counter.
pub fn get(c: C) -> u64 {
    LEDGER[c as usize].load(Relaxed)
}

/// Zero every counter.
pub fn reset() {
    for c in &LEDGER {
        c.store(0, Relaxed);
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f`, adding its duration to `c`.
pub fn timed<R>(c: C, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    add(c, ns_since(t));
    r
}

/// Decides which per-cycle calls are timed (xorshift64, fixed seed so a
/// traced run samples the same calls every time).
struct Sampler {
    state: u64,
    /// Scaled nanoseconds not yet flushed to the ledger.
    ns: u64,
}

impl Sampler {
    fn new() -> Sampler {
        Sampler {
            state: 0x9e37_79b9_7f4a_7c15,
            ns: 0,
        }
    }

    fn hit(&mut self) -> bool {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.is_multiple_of(SAMPLE_EVERY)
    }

    /// Run `f`, timing it when this call is sampled.
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.hit() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += ns_since(t) * SAMPLE_EVERY;
        r
    }

    fn flush(&mut self, c: C) {
        add(c, std::mem::take(&mut self.ns));
    }
}

/// Generator adapter: pulls instructions from the wrapped stream in
/// timed chunks of [`CHUNK`] and serves them one by one. Streams are
/// deterministic and unbounded, so reading ahead never changes the
/// sequence the pipeline fetches.
pub struct ChunkedStream<S: InstStream> {
    inner: S,
    buf: Vec<Inst>,
    pos: usize,
}

impl<S: InstStream> ChunkedStream<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> ChunkedStream<S> {
        ChunkedStream {
            inner,
            buf: Vec::with_capacity(CHUNK),
            pos: 0,
        }
    }
}

impl<S: InstStream> InstStream for ChunkedStream<S> {
    fn next_inst(&mut self) -> Inst {
        if self.pos == self.buf.len() {
            let t = Instant::now();
            self.buf.clear();
            for _ in 0..CHUNK {
                self.buf.push(self.inner.next_inst());
            }
            add(C::GenNs, ns_since(t));
            add(C::GenInsts, CHUNK as u64);
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Source adapter: times cycle production (a live pipeline step, sampled)
/// or block production (a replay decode, exact) into one counter pair.
pub struct TimedSource<S: ActivitySource> {
    inner: S,
    ns: C,
    cycles: C,
    sampler: Sampler,
}

impl<S: ActivitySource> TimedSource<S> {
    /// A live pipeline: time goes to the pipeline-step counters.
    pub fn live(inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            ns: C::LiveNs,
            cycles: C::LiveCycles,
            sampler: Sampler::new(),
        }
    }

    /// A recorded trace: time goes to the decode counters.
    pub fn replay(inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            ns: C::DecodeNs,
            cycles: C::ReplayedCycles,
            sampler: Sampler::new(),
        }
    }
}

impl<S: ActivitySource> Drop for TimedSource<S> {
    fn drop(&mut self) {
        self.sampler.flush(self.ns);
    }
}

impl<S: ActivitySource> ActivitySource for TimedSource<S> {
    fn next_cycle(&mut self) -> Result<&CycleActivity, DcgError> {
        add(self.cycles, 1);
        let inner = &mut self.inner;
        self.sampler.run(move || inner.next_cycle())
    }

    fn committed(&self) -> u64 {
        self.inner.committed()
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn supports_constraints(&self) -> bool {
        self.inner.supports_constraints()
    }

    fn apply_constraints(&mut self, constraints: ResourceConstraints) {
        self.inner.apply_constraints(constraints);
    }

    fn supports_blocks(&self) -> bool {
        self.inner.supports_blocks()
    }

    fn next_block(&mut self) -> Result<&ActivityBlock, DcgError> {
        let t = Instant::now();
        let block = self.inner.next_block();
        add(self.ns, ns_since(t));
        if let Ok(b) = &block {
            add(self.cycles, b.len() as u64);
        }
        block
    }
}

/// Policy adapter: times the per-cycle gate decision and observation
/// (sampled). The power-model accounting around them happens inside the
/// library's policy sink and is not attributed to the policy.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn GatingPolicy,
    ns: C,
    sampler: Sampler,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`, charging its time to `ns`.
    pub fn new(inner: &'a mut dyn GatingPolicy, ns: C) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            ns,
            sampler: Sampler::new(),
        }
    }
}

impl Drop for TimedPolicy<'_> {
    fn drop(&mut self) {
        self.sampler.flush(self.ns);
    }
}

impl GatingPolicy for TimedPolicy<'_> {
    fn gate_for(&mut self, cycle: u64) -> GateState {
        let inner = &mut *self.inner;
        self.sampler.run(move || inner.gate_for(cycle))
    }

    fn gate_into(&mut self, cycle: u64, out: &mut GateState) {
        let inner = &mut *self.inner;
        self.sampler.run(move || inner.gate_into(cycle, out));
    }

    fn constraints(&self) -> ResourceConstraints {
        self.inner.constraints()
    }

    fn observe(&mut self, activity: &CycleActivity) {
        let inner = &mut *self.inner;
        self.sampler.run(move || inner.observe(activity));
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Sink adapter: per-cycle calls sampled, block spans timed exactly.
pub struct TimedSink<'a> {
    inner: &'a mut dyn ActivitySink,
    ns: C,
    sampler: Sampler,
}

impl<'a> TimedSink<'a> {
    /// Wrap `inner`, charging its time to `ns`.
    pub fn new(inner: &'a mut dyn ActivitySink, ns: C) -> TimedSink<'a> {
        TimedSink {
            inner,
            ns,
            sampler: Sampler::new(),
        }
    }
}

impl Drop for TimedSink<'_> {
    fn drop(&mut self) {
        self.sampler.flush(self.ns);
    }
}

impl ActivitySink for TimedSink<'_> {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        let inner = &mut *self.inner;
        self.sampler.run(move || inner.warmup_cycle(act));
    }

    fn begin_measure(&mut self) {
        self.inner.begin_measure();
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        let inner = &mut *self.inner;
        self.sampler.run(move || inner.measure_cycle(act));
    }

    fn constraints(&self) -> Option<ResourceConstraints> {
        self.inner.constraints()
    }

    fn warmup_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        timed(self.ns, || self.inner.warmup_span(block, from, to));
    }

    fn measure_span(&mut self, block: &ActivityBlock, from: usize, to: usize) {
        timed(self.ns, || self.inner.measure_span(block, from, to));
    }
}

/// Recording sink over the trace crate's writer: every cycle, warm-up
/// included, is encoded; encode time is sampled per cycle and the final
/// flush is timed exactly. Write errors are kept until [`finish`].
///
/// [`finish`]: TimedRecorder::finish
pub struct TimedRecorder {
    writer: ActivityTraceWriter<Vec<u8>>,
    error: Option<TraceError>,
    sampler: Sampler,
}

impl TimedRecorder {
    /// Record through `writer`.
    pub fn new(writer: ActivityTraceWriter<Vec<u8>>) -> TimedRecorder {
        TimedRecorder {
            writer,
            error: None,
            sampler: Sampler::new(),
        }
    }

    fn write(&mut self, act: &CycleActivity) {
        if self.error.is_none() {
            let writer = &mut self.writer;
            if let Err(e) = self.sampler.run(move || writer.write_cycle(act)) {
                self.error = Some(e);
            }
        }
    }

    /// Flush the trace and return its bytes.
    pub fn finish(mut self) -> Result<Vec<u8>, TraceError> {
        self.sampler.flush(C::EncodeNs);
        if let Some(e) = self.error {
            return Err(e);
        }
        let bytes = timed(C::EncodeNs, || self.writer.finish())?;
        add(C::EncodedBytes, bytes.len() as u64);
        Ok(bytes)
    }
}

impl ActivitySink for TimedRecorder {
    fn warmup_cycle(&mut self, act: &CycleActivity) {
        self.write(act);
    }

    fn measure_cycle(&mut self, act: &CycleActivity) {
        self.write(act);
    }
}
