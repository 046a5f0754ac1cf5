//! Job specifications and their execution bodies.
//!
//! A [`JobSpec`] is the unit of work a client submits: a fully
//! deterministic description (benchmark, seed, scale) whose canonical
//! encoding doubles as the job identity — two clients submitting the
//! same spec share one execution and one result document. Every body is
//! a pure function of its spec (seeded workloads, fixed configurations),
//! which is what makes crash-resume byte-identical: re-running an
//! interrupted job after `kill -9` produces exactly the bytes the
//! uninterrupted run would have written.

use std::path::Path;

use dcg_core::durable::{put_str, put_u32, put_u64, Cursor};
use dcg_core::{run_passive, Dcg, NoGating, RunLength, TraceCache};
use dcg_experiments::{fault_campaign_json, suite_metrics_json, ExperimentConfig, FaultCampaign};
use dcg_sim::{fnv1a, LatchGroups, SimConfig};
use dcg_testkit::json::Json;
use dcg_workloads::{Spec2000, SyntheticWorkload};

const SPEC_SIMULATE: u8 = 1;
const SPEC_REPLAY: u8 = 2;
const SPEC_METRICS: u8 = 3;
const SPEC_FAULTS: u8 = 4;

/// Deadline class of a job — drives the per-class execution timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Single-benchmark jobs (simulate, replay).
    Single,
    /// Whole-suite or campaign jobs (metrics, faults).
    Heavy,
}

/// A deterministic unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// Simulate one benchmark live (no cache): ungated baseline vs DCG.
    Simulate {
        /// SPEC2000 benchmark name (e.g. `"gzip"`).
        bench: String,
        /// Workload seed.
        seed: u64,
        /// Quick run length instead of standard.
        quick: bool,
    },
    /// Same measurement through the trace store: records on the first
    /// run, replays bit-identically (and much faster) on later runs.
    Replay {
        /// SPEC2000 benchmark name.
        bench: String,
        /// Workload seed.
        seed: u64,
        /// Quick run length instead of standard.
        quick: bool,
    },
    /// Run the experiment suite and produce the cycle-level metrics
    /// document.
    Metrics {
        /// Suite seed.
        seed: u64,
        /// Quick (3-benchmark) suite instead of the full 18.
        quick: bool,
    },
    /// Run the seeded fault-injection campaign.
    Faults {
        /// Campaign seed.
        seed: u64,
        /// Number of faults to inject.
        count: u32,
    },
}

impl JobSpec {
    /// Canonical encoding — the digest of these bytes is the job id.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JobSpec::Simulate { bench, seed, quick } => {
                out.push(SPEC_SIMULATE);
                put_str(&mut out, bench);
                put_u64(&mut out, *seed);
                out.push(u8::from(*quick));
            }
            JobSpec::Replay { bench, seed, quick } => {
                out.push(SPEC_REPLAY);
                put_str(&mut out, bench);
                put_u64(&mut out, *seed);
                out.push(u8::from(*quick));
            }
            JobSpec::Metrics { seed, quick } => {
                out.push(SPEC_METRICS);
                put_u64(&mut out, *seed);
                out.push(u8::from(*quick));
            }
            JobSpec::Faults { seed, count } => {
                out.push(SPEC_FAULTS);
                put_u64(&mut out, *seed);
                put_u32(&mut out, *count);
            }
        }
        out
    }

    /// Decode a canonical encoding; `None` on any malformation.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<JobSpec> {
        let mut c = Cursor::new(bytes);
        let spec = match c.u8()? {
            SPEC_SIMULATE => JobSpec::Simulate {
                bench: c.str()?,
                seed: c.u64()?,
                quick: c.u8()? != 0,
            },
            SPEC_REPLAY => JobSpec::Replay {
                bench: c.str()?,
                seed: c.u64()?,
                quick: c.u8()? != 0,
            },
            SPEC_METRICS => JobSpec::Metrics {
                seed: c.u64()?,
                quick: c.u8()? != 0,
            },
            SPEC_FAULTS => JobSpec::Faults {
                seed: c.u64()?,
                count: c.u32()?,
            },
            _ => return None,
        };
        if !c.done() {
            return None;
        }
        Some(spec)
    }

    /// The job id: FNV-1a digest of the canonical encoding. Identical
    /// specs — from any client, in any session — share one id, which is
    /// what job-level deduplication keys on.
    #[must_use]
    pub fn id(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Deadline class.
    #[must_use]
    pub fn class(&self) -> JobClass {
        match self {
            JobSpec::Simulate { .. } | JobSpec::Replay { .. } => JobClass::Single,
            JobSpec::Metrics { .. } | JobSpec::Faults { .. } => JobClass::Heavy,
        }
    }

    /// Short human-readable label for logs.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            JobSpec::Simulate { bench, seed, .. } => format!("simulate:{bench}:{seed}"),
            JobSpec::Replay { bench, seed, .. } => format!("replay:{bench}:{seed}"),
            JobSpec::Metrics { seed, .. } => format!("metrics:{seed}"),
            JobSpec::Faults { seed, count } => format!("faults:{count}:{seed}"),
        }
    }
}

/// A failed job body: the message plus whether retrying can help.
/// Unknown benchmarks are terminal; infrastructure hiccups (store
/// metadata, replay corruption — both self-healing) are retryable.
#[derive(Debug)]
pub struct JobError {
    /// What went wrong.
    pub message: String,
    /// Whether a retry has any chance of succeeding.
    pub retryable: bool,
}

impl JobError {
    fn terminal(message: String) -> JobError {
        JobError {
            message,
            retryable: false,
        }
    }

    fn retryable(message: String) -> JobError {
        JobError {
            message,
            retryable: true,
        }
    }
}

/// Execute a job body, returning the result JSON document (the exact
/// bytes persisted and served to clients, newline-terminated).
///
/// `state_dir` is the server's state directory; replay jobs open a trace
/// store under `<state_dir>/traces` for this one call. The server itself
/// runs every job against the single store it owns.
///
/// # Errors
///
/// [`JobError`] with the retryable flag classified per failure cause.
pub fn run_job(spec: &JobSpec, state_dir: &Path) -> Result<String, JobError> {
    run_job_in(spec, &TraceCache::new(state_dir.join("traces")))
}

/// [`run_job`] against an open trace store: replay jobs record into and
/// replay from `cache`; the other job kinds never touch it.
pub(crate) fn run_job_in(spec: &JobSpec, cache: &TraceCache) -> Result<String, JobError> {
    match spec {
        JobSpec::Simulate { bench, seed, quick } => {
            let (cfg, groups, profile, length) = single_setup(bench, *quick)?;
            let mut baseline = NoGating::new(&cfg, &groups);
            let mut dcg = Dcg::new(&cfg, &groups);
            let stream = SyntheticWorkload::new(profile, *seed);
            let run = run_passive(&cfg, stream, length, &mut [&mut baseline, &mut dcg]);
            Ok(single_doc("simulate", bench, *seed, &run))
        }
        JobSpec::Replay { bench, seed, quick } => {
            let (cfg, groups, profile, length) = single_setup(bench, *quick)?;
            let mut baseline = NoGating::new(&cfg, &groups);
            let mut dcg = Dcg::new(&cfg, &groups);
            let run = cache
                .run_passive_cached(&cfg, profile, *seed, length, &mut [&mut baseline, &mut dcg])
                .map_err(|e| JobError::retryable(format!("cached run failed: {e}")))?;
            Ok(single_doc("replay", bench, *seed, &run))
        }
        JobSpec::Metrics { seed, quick } => {
            let mut cfg = if *quick {
                ExperimentConfig::quick()
            } else {
                ExperimentConfig::standard()
            };
            cfg.seed = *seed;
            let suite = dcg_experiments::Suite::run(&cfg, false);
            if !suite.failures.is_empty() {
                let names: Vec<&str> = suite.failures.iter().map(|f| f.name.as_str()).collect();
                return Err(JobError::retryable(format!(
                    "suite lost benchmarks to panics: {}",
                    names.join(", ")
                )));
            }
            Ok(format!("{}\n", suite_metrics_json(&suite)))
        }
        JobSpec::Faults { seed, count } => {
            if *count == 0 {
                return Err(JobError::terminal("fault campaign of 0 faults".into()));
            }
            let campaign = FaultCampaign::run(*seed, *count);
            if !campaign.all_classified() {
                return Err(JobError::terminal(
                    "fault campaign left undetected faults — safety net failed".into(),
                ));
            }
            Ok(format!("{}\n", fault_campaign_json(&campaign)))
        }
    }
}

/// Shared setup for the single-benchmark bodies.
fn single_setup(
    bench: &str,
    quick: bool,
) -> Result<
    (
        SimConfig,
        LatchGroups,
        dcg_workloads::BenchmarkProfile,
        RunLength,
    ),
    JobError,
> {
    let profile = Spec2000::by_name(bench)
        .ok_or_else(|| JobError::terminal(format!("unknown benchmark '{bench}'")))?;
    let cfg = SimConfig::baseline_8wide();
    let groups = LatchGroups::new(&cfg.depth);
    let length = if quick {
        RunLength::quick()
    } else {
        RunLength::standard()
    };
    Ok((cfg, groups, profile, length))
}

/// The result document of a single-benchmark job. Every field is a
/// deterministic function of the spec (no wall-clock anywhere), so a
/// resumed run serializes to identical bytes.
fn single_doc(kind: &str, bench: &str, seed: u64, run: &dcg_core::PassiveRun) -> String {
    let base = &run.outcomes[0];
    let dcg = &run.outcomes[1];
    let doc = Json::obj([
        ("job", Json::str(kind)),
        ("bench", Json::str(bench)),
        ("seed", Json::u64(seed)),
        ("cycles", Json::u64(run.stats.cycles)),
        ("committed", Json::u64(run.stats.committed)),
        ("ipc", Json::f64(run.stats.ipc())),
        (
            "dcg_saving",
            Json::f64(dcg.report.power_saving_vs(&base.report)),
        ),
        ("violations", Json::u64(dcg.audit.violations)),
        ("hazards_detected", Json::u64(dcg.safety.total_detected())),
    ]);
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_encoding_round_trips_and_ids_are_stable() {
        let specs = [
            JobSpec::Simulate {
                bench: "gzip".into(),
                seed: 42,
                quick: true,
            },
            JobSpec::Replay {
                bench: "mcf".into(),
                seed: 7,
                quick: false,
            },
            JobSpec::Metrics {
                seed: 42,
                quick: true,
            },
            JobSpec::Faults { seed: 1, count: 9 },
        ];
        for s in &specs {
            assert_eq!(JobSpec::decode(&s.encode()).as_ref(), Some(s));
            assert_eq!(s.id(), s.clone().id(), "id is a pure function");
        }
        // Distinct specs get distinct ids (simulate vs replay of the
        // same benchmark must not dedup into each other).
        let ids: Vec<u64> = specs.iter().map(JobSpec::id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn unknown_benchmark_is_a_terminal_error() {
        let spec = JobSpec::Simulate {
            bench: "no-such-benchmark".into(),
            seed: 1,
            quick: true,
        };
        let err = run_job(&spec, Path::new("/nonexistent")).unwrap_err();
        assert!(!err.retryable);
        assert!(err.message.contains("no-such-benchmark"));
    }

    #[test]
    fn simulate_and_replay_agree_and_are_deterministic() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/server-jobs-replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let sim = JobSpec::Simulate {
            bench: "gzip".into(),
            seed: 42,
            quick: true,
        };
        let rep = JobSpec::Replay {
            bench: "gzip".into(),
            seed: 42,
            quick: true,
        };
        let live = run_job(&sim, &dir).unwrap();
        let cold = run_job(&rep, &dir).unwrap(); // records
        let warm = run_job(&rep, &dir).unwrap(); // replays
        assert_eq!(cold, warm, "warm replay reproduces the cold run");
        // The two kinds only differ in the "job" field.
        assert_eq!(
            live.replace("\"job\":\"simulate\"", "\"job\":\"replay\""),
            cold,
            "replay measures exactly what the live run measures"
        );
        assert_eq!(live, run_job(&sim, &dir).unwrap(), "simulate is pure");
    }
}
