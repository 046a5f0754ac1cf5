//! `server_jobs`: a closed loop of clients against a `dcg-server` process
//! on a real Unix socket. Each client submits a quick-length `Replay` job,
//! polls for its result, checks the document, pauses briefly and only then
//! sends the next.

use std::fs::{self, File};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dcg_core::{Dcg, NoGating, RunLength, TraceCache};
use dcg_server::{
    read_frame, run_job, write_frame, ClientError, DcgClient, JobSpec, JobWal, Reply, Request,
    WalRecord, JOBS_DIR, JOBS_WAL_FILE,
};
use dcg_sim::{LatchGroups, SimConfig};
use dcg_workloads::{Spec2000, SyntheticWorkload};

use crate::ledger::{add, ns_since, timed, TimedPolicy, C};
use crate::repro::{trace_cycles, traced_passive};

/// Seeds per benchmark: 18 profiles x 12 seeds = 216 distinct jobs per
/// round, enough for a p95 with ten samples beyond it.
const SEEDS_PER_BENCH: u64 = 12;

/// Pause between result polls of a job that is not done yet.
const POLL: Duration = Duration::from_millis(1);

/// Longest pause a client makes before each submit, in microseconds.
/// The server accepts connections on a 20 ms poll. A client that submits
/// the moment its previous result arrives stays in step with that poll,
/// so every submit waits the whole poll and each latency is a whole
/// number of polls; the median then jumps a poll at a time between runs.
/// A pause of up to one poll, drawn from the seed, spreads submits over
/// the poll's phase. The client was waiting for the poll anyway, so the
/// pause costs a round no time.
const THINK_MAX_US: u64 = 20_000;

/// Transport attempts per request before the job counts as failed.
const ATTEMPTS: u32 = 5;

/// The job list of a workload seed: every SPEC2000 profile under
/// `SEEDS_PER_BENCH` consecutive seeds starting at `seed`.
pub fn specs(seed: u64) -> Vec<JobSpec> {
    (0..SEEDS_PER_BENCH)
        .flat_map(|s| {
            Spec2000::all().into_iter().map(move |p| JobSpec::Replay {
                bench: p.name.to_string(),
                seed: seed.wrapping_add(s),
                quick: true,
            })
        })
        .collect()
}

fn replay_tuple(spec: &JobSpec) -> (SimConfig, dcg_workloads::BenchmarkProfile, u64) {
    let JobSpec::Replay { bench, seed, .. } = spec else {
        unreachable!("the workload submits replay jobs only");
    };
    let profile = Spec2000::by_name(bench).expect("specs name known benchmarks");
    (SimConfig::baseline_8wide(), profile, *seed)
}

/// A server state directory and the `dcg-server` binary that owns it.
#[derive(Debug)]
pub struct Rig {
    /// `dcg-server` executable.
    pub bin: PathBuf,
    /// State directory (job WAL, results, trace store).
    pub state: PathBuf,
    /// Where the server's stderr (one line per job) goes.
    pub log: PathBuf,
    /// Server workers and client connections.
    pub threads: usize,
}

/// One running server process.
#[derive(Debug)]
pub struct Running {
    child: Child,
    socket: PathBuf,
}

/// What one round of jobs did.
#[derive(Debug, Default)]
pub struct Round {
    /// Submit-to-result latency of every completed job, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// First submit to last result.
    pub wall_ns: u64,
    /// Jobs attempted (including refused submits).
    pub attempted: u64,
    /// Failed jobs, refused submits and mismatching documents.
    pub failed: u64,
    /// Documents that differed from a direct `run_job`.
    pub mismatches: Vec<String>,
}

impl Rig {
    fn traces(&self) -> PathBuf {
        self.state.join("traces")
    }

    /// Wipe the state directory and record every job's trace through one
    /// shared store, so each job later replays.
    pub fn setup(&self, specs: &[JobSpec]) -> std::io::Result<()> {
        let _ = fs::remove_dir_all(&self.state);
        fs::create_dir_all(self.traces())?;
        let cache = TraceCache::new(self.traces());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let (cfg, profile, seed) = replay_tuple(spec);
                    let groups = LatchGroups::new(&cfg.depth);
                    let mut baseline = NoGating::new(&cfg, &groups);
                    let mut dcg = Dcg::new(&cfg, &groups);
                    cache
                        .run_passive_cached(
                            &cfg,
                            profile,
                            seed,
                            RunLength::quick(),
                            &mut [&mut baseline, &mut dcg],
                        )
                        .expect("a fresh store records every job");
                });
            }
        });
        cache.checkpoint().map_err(std::io::Error::other)
    }

    /// The documents a direct `run_job` produces for `specs`, with the
    /// cycles each job decodes.
    pub fn expected(&self, specs: &[JobSpec]) -> Vec<(String, u64)> {
        let cache = TraceCache::new(self.traces());
        specs
            .iter()
            .map(|spec| {
                add(C::JobBodies, 1);
                let doc = timed(C::JobBodyNs, || {
                    run_job(spec, &self.state).expect("direct job body")
                });
                let (cfg, profile, seed) = replay_tuple(spec);
                let cycles = trace_cycles(&cache, &cfg, profile.name, seed, RunLength::quick());
                (doc, cycles.unwrap_or(0))
            })
            .collect()
    }

    /// Start the server and wait until its socket accepts connections.
    pub fn start(&self) -> std::io::Result<Running> {
        let socket = self.state.join("dcg.sock");
        let _ = fs::remove_file(&socket);
        let log = File::options().create(true).append(true).open(&self.log)?;
        let child = Command::new(&self.bin)
            .arg("--state")
            .arg(&self.state)
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(self.threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut running = Running { child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if running.socket.exists() && UnixStream::connect(&running.socket).is_ok() {
                return Ok(running);
            }
            if Instant::now() > deadline || running.child.try_wait()?.is_some() {
                running.stop();
                return Err(std::io::Error::other("dcg-server did not come up"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Forget every job (WAL and result documents) but keep the traces,
    /// so the next round's submits are new jobs, not dedup hits.
    pub fn wipe_jobs(&self) {
        let _ = fs::remove_file(self.state.join(JOBS_WAL_FILE));
        let _ = fs::remove_dir_all(self.state.join(JOBS_DIR));
    }

    /// Time direct calls into the server's layers: in-memory framing,
    /// journal appends, and each job's replay body one level down. The
    /// server must be stopped.
    pub fn probe_layers(&self, specs: &[JobSpec], scratch: &Path) {
        let payload = Request::Submit(specs[0].clone()).encode();
        for _ in 0..1000 {
            let t = Instant::now();
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).expect("in-memory frame write");
            let back = read_frame(&mut buf.as_slice()).expect("in-memory frame read");
            add(C::FrameNs, ns_since(t));
            add(C::Frames, 2);
            assert_eq!(back, payload, "frame round trip");
        }
        let wal_dir = scratch.join("wal-probe");
        let _ = fs::remove_dir_all(&wal_dir);
        fs::create_dir_all(&wal_dir).expect("wal probe dir");
        let (wal, _) = JobWal::open(&wal_dir).expect("wal probe open");
        for spec in specs.iter().take(50) {
            let rec = WalRecord::Submit {
                id: spec.id(),
                spec: spec.clone(),
            };
            add(C::WalAppends, 1);
            timed(C::WalNs, || wal.append(&rec)).expect("wal probe append");
        }
        let _ = fs::remove_dir_all(&wal_dir);
        // A fresh store per job, as the server's job body opens one, then
        // fetch, decode and policies.
        for spec in specs {
            let (cfg, profile, seed) = replay_tuple(spec);
            let cache = TraceCache::new(self.traces());
            add(C::Opens, 1);
            timed(C::OpenNs, || cache.ensure_open());
            let groups = LatchGroups::new(&cfg.depth);
            let mut baseline = NoGating::new(&cfg, &groups);
            let mut dcg = Dcg::new(&cfg, &groups);
            let mut b = TimedPolicy::new(&mut baseline, C::BaselineNs);
            let mut d = TimedPolicy::new(&mut dcg, C::DcgNs);
            let run = traced_passive(
                &cache,
                &cfg,
                profile.name,
                seed,
                RunLength::quick(),
                || SyntheticWorkload::new(profile, seed),
                &mut [&mut b, &mut d],
                &mut [],
            );
            if run.is_err() {
                add(C::Failed, 1);
            }
        }
    }
}

impl Running {
    fn client(&self) -> DcgClient {
        let mut c = DcgClient::new(&self.socket);
        c.retries = 0;
        c
    }

    /// Time `n` pings, each over a fresh connection.
    pub fn probe_rtt(&self, n: u32) {
        let client = self.client();
        for _ in 0..n {
            let t = Instant::now();
            if matches!(client.request(&Request::Ping), Ok(Reply::Pong)) {
                add(C::Pings, 1);
                add(C::RttNs, ns_since(t));
            } else {
                add(C::Failed, 1);
            }
        }
    }

    /// Run every job once with `clients` closed-loop clients, checking
    /// each result against `expected`. Each client pauses before each
    /// submit for [`think`]`(seed, job)`.
    pub fn round(
        &self,
        specs: &[JobSpec],
        expected: &[(String, u64)],
        clients: usize,
        seed: u64,
    ) -> Round {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Round::default());
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    let client = self.client();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        std::thread::sleep(think(seed, i));
                        let job = run_one(&client, spec);
                        let mut r = out.lock().expect("round lock");
                        r.attempted += 1 + job.busy;
                        r.failed += job.busy;
                        match job.doc {
                            Ok(doc) if doc == expected[i].0.as_bytes() => r.latency_ns.push(job.ns),
                            Ok(_) => {
                                r.failed += 1;
                                add(C::Failed, 1);
                                r.mismatches
                                    .push(format!("{}: result differs from run_job", spec.label()));
                            }
                            Err(e) => {
                                r.failed += 1;
                                add(C::Failed, 1);
                                r.mismatches.push(format!("{}: {e}", spec.label()));
                            }
                        }
                    }
                });
            }
        });
        let mut r = out.into_inner().expect("round lock");
        r.wall_ns = ns_since(started);
        r
    }

    /// Peak resident set of the server so far, KiB.
    fn hwm_kb(&self) -> u64 {
        crate::hwm_kb(&format!("/proc/{}/status", self.child.id())).unwrap_or(0)
    }

    /// Ask the server to shut down and wait for it; returns its peak
    /// resident set in KiB. Kills it if it does not exit in time.
    pub fn stop(&mut self) -> u64 {
        let hwm = self.hwm_kb();
        let _ = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return hwm;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        hwm
    }
}

struct Job {
    doc: Result<Vec<u8>, String>,
    ns: u64,
    busy: u64,
}

/// One request with transport retries, counting each retry.
fn request(client: &DcgClient, req: &Request) -> Result<Reply, ClientError> {
    let mut attempt = 0;
    loop {
        match client.request(req) {
            Err(ClientError::Io(_)) if attempt + 1 < ATTEMPTS => {
                attempt += 1;
                add(C::Retries, 1);
                std::thread::sleep(Duration::from_millis(10 << attempt));
            }
            other => return other,
        }
    }
}

/// The pause before submitting job `job` of a round (splitmix64 of the
/// workload seed and the job's index).
fn think(seed: u64, job: usize) -> Duration {
    let mut z = seed.wrapping_add((job as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Duration::from_micros((z ^ (z >> 31)) % THINK_MAX_US)
}

/// Submit one job and poll until its document arrives.
fn run_one(client: &DcgClient, spec: &JobSpec) -> Job {
    let started = Instant::now();
    let mut busy = 0;
    let submitted = loop {
        add(C::Submits, 1);
        let t = Instant::now();
        let reply = request(client, &Request::Submit(spec.clone()));
        add(C::SubmitNs, ns_since(t));
        match reply {
            Ok(Reply::Submitted { id, deduped: false }) => break Ok(id),
            Ok(Reply::Submitted { deduped: true, .. }) => {
                break Err("deduped against a stale job".to_string())
            }
            Ok(Reply::Busy { retry_after_ms }) => {
                busy += 1;
                add(C::Busy, 1);
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
            }
            Ok(other) => break Err(format!("unexpected reply {other:?}")),
            Err(e) => break Err(e.to_string()),
        }
    };
    let waited = Instant::now();
    let doc = submitted.and_then(|id| loop {
        add(C::Polls, 1);
        match request(client, &Request::Result(id)) {
            Ok(Reply::Result { json, .. }) => break Ok(json),
            Ok(Reply::NotReady { .. }) => std::thread::sleep(POLL),
            Ok(other) => break Err(format!("unexpected reply {other:?}")),
            Err(e) => break Err(e.to_string()),
        }
    });
    add(C::ResultWaitNs, ns_since(waited));
    Job {
        doc,
        ns: ns_since(started),
        busy,
    }
}
