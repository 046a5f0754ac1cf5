//! The job table and [`JobTable::apply`], the only code that changes a
//! job's state from a [`WalRecord`], live and on restart (the state
//! machine is drawn in the `server` module doc).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::jobs::JobSpec;
use crate::wal::WalRecord;

/// Public view of a job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing an attempt.
    Running,
    /// A retryable failure; re-queued once the backoff elapses.
    Backoff,
    /// Result document committed.
    Done,
    /// Terminal (non-retryable) failure.
    Failed(String),
    /// Retryable failures exhausted the attempt budget.
    Quarantined(String),
}

impl JobState {
    /// Every wire label, in the order the health document lists them.
    pub const LABELS: [&'static str; 6] = [
        "queued",
        "running",
        "backoff",
        "done",
        "failed",
        "quarantined",
    ];

    fn index(&self) -> usize {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Backoff => 2,
            JobState::Done => 3,
            JobState::Failed(_) => 4,
            JobState::Quarantined(_) => 5,
        }
    }

    /// The wire label (`queued`, `running`, ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        JobState::LABELS[self.index()]
    }

    /// Whether the job can make no further progress (done, failed or
    /// quarantined).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Quarantined(_)
        )
    }
}

#[derive(Debug)]
pub(crate) struct Job {
    spec: JobSpec,
    pub(crate) state: JobState,
    pub(crate) attempts: u32,
}

#[derive(Debug, Default)]
pub(crate) struct JobTable {
    jobs: HashMap<u64, Job>,
    /// Ids in first-submit order.
    order: Vec<u64>,
    /// Exactly the `Queued` ids, FIFO.
    ready: VecDeque<u64>,
    /// Backoff ids with their due time, sorted by due time.
    backoff: Vec<(Instant, u64)>,
    /// Jobs admitted and not yet terminal (the bounded-queue measure).
    open: usize,
}

impl JobTable {
    /// Apply one journaled transition. A `Submit` of a known id and a
    /// record for an unknown id change nothing. `FAIL terminal=1` always
    /// means failed, also in logs written before `QUARANTINE` existed.
    pub(crate) fn apply(&mut self, rec: &WalRecord) {
        let (id, attempt, state) = match rec.clone() {
            WalRecord::Submit { id, spec } => {
                if let Entry::Vacant(slot) = self.jobs.entry(id) {
                    let (state, attempts) = (JobState::Queued, 0);
                    slot.insert(Job {
                        spec,
                        state,
                        attempts,
                    });
                    self.order.push(id);
                    self.ready.push_back(id);
                    self.open += 1;
                }
                return;
            }
            WalRecord::Start { id, attempt } => (id, attempt, JobState::Running),
            WalRecord::Done { id } => (id, 0, JobState::Done),
            WalRecord::Fail {
                id,
                attempt,
                terminal,
                message,
            } => {
                let state = if terminal {
                    JobState::Failed(message)
                } else {
                    JobState::Backoff
                };
                (id, attempt, state)
            }
            WalRecord::Quarantine {
                id,
                attempt,
                message,
            } => (id, attempt, JobState::Quarantined(message)),
        };
        self.set(id, attempt, state);
    }

    /// Move job `id` to `state`, raising its attempt count to `attempt`,
    /// and keep `ready` and `open` in step.
    fn set(&mut self, id: u64, attempt: u32, state: JobState) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        job.attempts = job.attempts.max(attempt);
        let old = std::mem::replace(&mut job.state, state);
        let (queued, terminal) = (job.state == JobState::Queued, job.state.is_terminal());
        if old == JobState::Queued && !queued {
            if let Some(pos) = self.ready.iter().position(|&r| r == id) {
                self.ready.remove(pos);
            }
        } else if old != JobState::Queued && queued {
            self.ready.push_back(id);
        }
        match (old.is_terminal(), terminal) {
            (false, true) => self.open -= 1,
            (true, false) => self.open += 1,
            _ => {}
        }
    }

    /// Claim the head of the queue: apply its `Start` record and return
    /// the id, the attempt number and the spec.
    pub(crate) fn claim(&mut self) -> Option<(u64, u32, JobSpec)> {
        let id = *self.ready.front()?;
        let job = &self.jobs[&id];
        let (attempt, spec) = (job.attempts + 1, job.spec.clone());
        self.apply(&WalRecord::Start { id, attempt });
        Some((id, attempt, spec))
    }

    /// Queue backoff job `id` again once `due` passes.
    pub(crate) fn defer(&mut self, id: u64, due: Instant) {
        let pos = self.backoff.partition_point(|&(d, _)| d <= due);
        self.backoff.insert(pos, (due, id));
    }

    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.backoff.first().map(|&(due, _)| due)
    }

    /// The timer transition: queue every backoff job due by `now`.
    pub(crate) fn promote_due(&mut self, now: Instant) {
        let due = self.backoff.partition_point(|&(d, _)| d <= now);
        for (_, id) in self.backoff.drain(..due).collect::<Vec<_>>() {
            self.set(id, 0, JobState::Queued);
        }
    }

    /// Line a replayed table up with `jobs/`: queue each uncommitted job
    /// that is not failed or quarantined, in first-submit order, and
    /// return the unfinished committed ones, whose `DONE` was lost.
    pub(crate) fn reconcile(&mut self, committed: impl Fn(u64) -> bool) -> Vec<u64> {
        let mut orphans = Vec::new();
        for i in 0..self.order.len() {
            let id = self.order[i];
            match self.jobs[&id].state {
                JobState::Failed(_) | JobState::Quarantined(_) => {}
                _ if !committed(id) => self.set(id, 0, JobState::Queued),
                JobState::Done => {}
                _ => orphans.push(id),
            }
        }
        orphans
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub(crate) fn open(&self) -> usize {
        self.open
    }

    /// Job counts per state, in [`JobState::LABELS`] order.
    pub(crate) fn counts(&self) -> [u64; 6] {
        let mut counts = [0; 6];
        for job in self.jobs.values() {
            counts[job.state.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcg_testkit::prop;
    use std::time::Duration;

    /// What a restart must reproduce: per job (in first-submit order) its
    /// state and attempt count, the open count and the ready order.
    #[derive(Debug, PartialEq)]
    struct View {
        jobs: Vec<(u64, JobState, u32)>,
        open: usize,
        ready: Vec<u64>,
    }

    /// The timer's promotion is the one transition without a record, so a
    /// job it queued again (queued after an attempt) reads as in backoff.
    fn view(t: &JobTable) -> View {
        let promoted = |id: &u64| t.jobs[id].state == JobState::Queued && t.jobs[id].attempts > 0;
        View {
            jobs: (t.order.iter())
                .map(|id| {
                    let j = &t.jobs[id];
                    let state = if promoted(id) {
                        JobState::Backoff
                    } else {
                        j.state.clone()
                    };
                    (*id, state, j.attempts)
                })
                .collect(),
            open: t.open,
            ready: t.ready.iter().copied().filter(|id| !promoted(id)).collect(),
        }
    }

    #[derive(Debug, Clone)]
    enum Event {
        /// Submit the fault-campaign spec with this seed (few seeds, so
        /// duplicates are common).
        Submit(u64),
        /// A worker claims the head of the queue.
        Claim,
        /// The `n`-th running job (modulo their number) fails its attempt,
        /// retryably (a retry in backoff) or not (failed).
        Fail { n: usize, retryable: bool },
        /// The `n`-th running job is quarantined.
        Quarantine(usize),
        /// The `n`-th running job commits its result.
        Commit(usize),
        /// The timer queues the backoff jobs that are due.
        Tick,
    }

    fn events() -> prop::Gen<Event> {
        let parts = (prop::range(0u64..6), prop::range(0u64..4), prop::any_bool());
        prop::tuple(parts).map(|(kind, k, retryable)| {
            let n = k as usize;
            match kind {
                0 => Event::Submit(k),
                1 => Event::Claim,
                2 => Event::Fail { n, retryable },
                3 => Event::Quarantine(n),
                4 => Event::Commit(n),
                _ => Event::Tick,
            }
        })
    }

    /// Drive a table the way the live server does: journal (log) a record,
    /// apply it, and take the table's view right after it.
    fn run_live(events: &[Event]) -> (Vec<WalRecord>, Vec<View>) {
        let (mut t, mut log, mut views) = (JobTable::default(), Vec::new(), Vec::new());
        let epoch = Instant::now();
        for (step, event) in (0u64..).zip(events) {
            let now = epoch + Duration::from_millis(step);
            let running: Vec<u64> = (t.order.iter().copied())
                .filter(|id| t.jobs[id].state == JobState::Running)
                .collect();
            let pick = |n: usize| (!running.is_empty()).then(|| running[n % running.len()]);
            let message = format!("failed at step {step}");
            let rec = match *event {
                Event::Submit(seed) => {
                    let spec = JobSpec::Faults { seed, count: 1 };
                    let id = spec.id();
                    (t.get(id).is_none()).then_some(WalRecord::Submit { id, spec })
                }
                Event::Claim => {
                    if let Some((id, attempt, _)) = t.claim() {
                        log.push(WalRecord::Start { id, attempt });
                        views.push(view(&t));
                    }
                    None
                }
                Event::Fail { n, retryable } => pick(n).map(|id| WalRecord::Fail {
                    id,
                    attempt: t.jobs[&id].attempts,
                    terminal: !retryable,
                    message,
                }),
                Event::Quarantine(n) => pick(n).map(|id| WalRecord::Quarantine {
                    id,
                    attempt: t.jobs[&id].attempts,
                    message,
                }),
                Event::Commit(n) => pick(n).map(|id| WalRecord::Done { id }),
                Event::Tick => {
                    t.promote_due(now);
                    None
                }
            };
            if let Some(rec) = rec {
                t.apply(&rec);
                if let WalRecord::Fail {
                    id,
                    terminal: false,
                    ..
                } = rec
                {
                    t.defer(id, now + Duration::from_millis(3));
                }
                log.push(rec);
                views.push(view(&t));
            }
        }
        (log, views)
    }

    #[test]
    fn replaying_any_prefix_gives_the_live_table() {
        prop::check(
            "job_table_replay",
            prop::vec(events(), 0usize..=40),
            |events| {
                let (log, views) = run_live(&events);
                let mut replayed = JobTable::default();
                for (k, (rec, live)) in log.iter().zip(&views).enumerate() {
                    replayed.apply(rec);
                    assert_eq!(&view(&replayed), live, "after record {k} of {log:#?}");
                }
            },
        );
    }

    #[test]
    fn reconcile_requeues_unfinished_jobs_in_first_submit_order() {
        let specs: Vec<JobSpec> = (0..5)
            .map(|seed| JobSpec::Faults { seed, count: 1 })
            .collect();
        let ids: Vec<u64> = specs.iter().map(JobSpec::id).collect();
        let mut t = JobTable::default();
        for (id, spec) in ids.iter().zip(&specs) {
            t.apply(&WalRecord::Submit {
                id: *id,
                spec: spec.clone(),
            });
        }
        for (id, attempt) in [(ids[3], 1), (ids[0], 1), (ids[1], 1), (ids[4], 1)] {
            t.apply(&WalRecord::Start { id, attempt });
        }
        let fail = |id| WalRecord::Fail {
            id,
            attempt: 1,
            terminal: false,
            message: "retry".into(),
        };
        t.apply(&fail(ids[0]));
        t.apply(&WalRecord::Done { id: ids[3] });
        // Job 2 never started and keeps its place. Jobs 0 (backoff), 1
        // (running) and 3 (done, but its result went missing) re-queue
        // behind it in first-submit order. Job 4's result exists without
        // its `Done`.
        let orphans = t.reconcile(|id| id == ids[4]);
        assert_eq!(orphans, vec![ids[4]]);
        assert_eq!(t.ready, [ids[2], ids[0], ids[1], ids[3]]);
        assert_eq!(t.open, 5);
        t.apply(&WalRecord::Done { id: ids[4] });
        assert_eq!(t.counts(), [4, 0, 0, 1, 0, 0]);
        assert_eq!(t.open, 4);
    }
}
