//! A persistent pool of shard workers executing batch rounds concurrently.
//!
//! The batched scheduler used to run a round's shard buckets sequentially on
//! the scheduler thread: one bucket after the other, each taking only its own
//! shard's lock but never overlapping with the next.  [`ShardWorkerPool`]
//! keeps N worker threads alive across rounds and fans a round's buckets out
//! to them, so buckets of different shards genuinely overlap on multi-core
//! hosts while the lock/auth amortization of batching is preserved.
//!
//! Scheduling is affinity-first with work-stealing:
//!
//! * every bucket has a *home* queue, `bucket.shard % workers`, so repeated
//!   rounds keep a shard's buckets on the same worker (warm path);
//! * an idle worker first drains its own queue front-to-back, then steals
//!   from the back of the longest foreign queue, so a skewed round — most
//!   buckets hitting one shard — spreads across the pool instead of
//!   serializing behind one worker.
//!
//! The pool is built on std [`Mutex`]/[`Condvar`] only (no channel crate):
//! one mutex guards the queues, one condvar wakes idle workers, and each
//! round carries its own sink condvar the caller blocks on until every
//! bucket of the round has landed.  Workers drain any queued buckets before
//! honoring shutdown, and [`Drop`] joins every worker, so dropping the pool
//! (or the server owning it) never strands a round.
//!
//! A panic inside a bucket (a poisoned store invariant, say) is caught per
//! bucket: the worker stays alive, the bucket's jobs fail with a synthetic
//! [`StoreError::Io`], and the round still completes — mirroring the
//! per-request error isolation of the sequential scheduler.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use zerber_store::{
    ListStore, RangedBatch, ShardBatchOutput, ShardJobBucket, StoreError, StoreJob,
};

/// How many buckets the round planner aims to produce per worker: small
/// enough to amortize queue traffic, large enough that stealing has slack to
/// rebalance a skewed round.
const BUCKETS_PER_WORKER: usize = 4;

/// Locks a mutex, shrugging off poisoning: a worker that panicked inside a
/// bucket already converted the damage into per-job errors, and every
/// structure behind these mutexes stays consistent across unwind points.
///
/// Pool mutexes rank *below* every store and shard lock (see
/// `zerber_store::lockrank`): scheduling state must never be taken while a
/// shard is held, or a stalled worker could wedge the whole round.  The
/// check is transient (not held for the guard's lifetime) because these
/// guards are handed raw to `Condvar::wait`; pool mutexes never nest among
/// themselves, so a held-rank entry would add nothing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    zerber_store::lockrank::check(zerber_store::LockClass::Pool, 0);
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counters describing one pool round, for [`crate::ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Jobs routed into executable buckets this round.
    pub jobs: u64,
    /// Buckets the round was split into.
    pub buckets: u64,
    /// Size of the round's largest bucket.
    pub max_bucket_jobs: u64,
    /// Buckets executed by a worker other than their home worker.
    pub stolen_buckets: u64,
}

/// Where a round's bucket results land.  The caller blocks on `done` until
/// `remaining` hits zero; workers scatter results under the `results` mutex.
struct RoundSink {
    results: Mutex<Vec<Option<Result<RangedBatch, StoreError>>>>,
    stolen_buckets: AtomicU64,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// One queued unit of work: a bucket plus everything needed to execute it.
struct Task {
    store: Arc<dyn ListStore>,
    jobs: Arc<[StoreJob]>,
    bucket: ShardJobBucket,
    sink: Arc<RoundSink>,
}

struct PoolState {
    /// Per-worker affinity queues; `queues[w]` is worker `w`'s home queue.
    queues: Vec<VecDeque<Task>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown is requested.
    work_ready: Condvar,
}

/// A fixed-size pool of persistent shard workers (see the module docs).
pub struct ShardWorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for ShardWorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl ShardWorkerPool {
    /// Spawns `workers` persistent worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("shard-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    // analyze::allow(panic): pool construction runs at server
                    // startup, not on a serving path — failing to spawn OS
                    // threads leaves nothing to degrade to
                    .expect("spawning a shard worker thread")
            })
            .collect();
        ShardWorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes one batch round on the pool: plans the round via
    /// [`ListStore::plan_shard_batch`] with a cap that yields roughly
    /// [`BUCKETS_PER_WORKER`] buckets per worker, fans the buckets out, and
    /// blocks until every bucket has landed.  Results come back aligned with
    /// the input job order, exactly like
    /// [`ListStore::execute_shard_batch`].
    pub fn execute(
        &self,
        store: &Arc<dyn ListStore>,
        jobs: Vec<StoreJob>,
    ) -> (ShardBatchOutput, RoundStats) {
        let cap = jobs
            .len()
            .div_ceil(self.workers * BUCKETS_PER_WORKER)
            .max(1);
        let plan = store.plan_shard_batch(&jobs, cap);
        let mut round = RoundStats {
            jobs: plan.routed_jobs() as u64,
            buckets: plan.buckets.len() as u64,
            max_bucket_jobs: plan.max_bucket_jobs() as u64,
            stolen_buckets: 0,
        };
        let mut slots: Vec<Option<Result<RangedBatch, StoreError>>> =
            (0..jobs.len()).map(|_| None).collect();
        for (index, error) in plan.unroutable {
            slots[index] = Some(Err(error));
        }
        if plan.buckets.is_empty() {
            return (assemble(slots), round);
        }

        let jobs: Arc<[StoreJob]> = Arc::from(jobs);
        let sink = Arc::new(RoundSink {
            results: Mutex::new(slots),
            stolen_buckets: AtomicU64::new(0),
            remaining: Mutex::new(plan.buckets.len()),
            done: Condvar::new(),
        });
        {
            let mut state = lock(&self.shared.state);
            for bucket in plan.buckets {
                let home = bucket.shard % self.workers;
                state.queues[home].push_back(Task {
                    store: Arc::clone(store),
                    jobs: Arc::clone(&jobs),
                    bucket,
                    sink: Arc::clone(&sink),
                });
            }
        }
        self.shared.work_ready.notify_all();

        let mut remaining = lock(&sink.remaining);
        while *remaining > 0 {
            remaining = wait(&sink.done, remaining);
        }
        drop(remaining);

        round.stolen_buckets = sink.stolen_buckets.load(Ordering::Relaxed);
        let slots = std::mem::take(&mut *lock(&sink.results));
        (assemble(slots), round)
    }
}

impl Drop for ShardWorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker only panics outside the per-bucket catch_unwind,
            // i.e. in the queue machinery itself; surfacing that via the
            // join result would abort a drop, so swallow it here.
            let _ = handle.join();
        }
    }
}

fn assemble(slots: Vec<Option<Result<RangedBatch, StoreError>>>) -> ShardBatchOutput {
    ShardBatchOutput {
        results: slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or(Err(StoreError::Invariant(
                    "every job is routed, unroutable, or bucket-filled",
                )))
            })
            .collect(),
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        let (task, stolen) = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(task) = state.queues[me].pop_front() {
                    break (task, false);
                }
                let victim = (0..state.queues.len())
                    .filter(|&w| w != me && !state.queues[w].is_empty())
                    .max_by_key(|&w| state.queues[w].len());
                // The victim was checked non-empty under this same lock, so
                // the pop yields a task; if it somehow did not, fall through
                // and re-scan instead of panicking.
                if let Some(task) = victim.and_then(|v| state.queues[v].pop_back()) {
                    break (task, true);
                }
                // Only exit once every queue is drained, so a shutdown
                // racing a round in flight still completes the round.
                if state.shutdown {
                    return;
                }
                state = wait(&shared.work_ready, state);
            }
        };
        run_task(task, stolen);
    }
}

fn run_task(task: Task, stolen: bool) {
    let Task {
        store,
        jobs,
        bucket,
        sink,
    } = task;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        store.execute_shard_bucket(&jobs, &bucket)
    }));
    let results = match outcome {
        Ok(output) => output.results,
        Err(_) => bucket
            .jobs
            .iter()
            .map(|_| {
                Err(StoreError::Io(
                    "shard worker panicked executing a bucket".into(),
                ))
            })
            .collect(),
    };
    {
        let mut slots = lock(&sink.results);
        for (&index, result) in bucket.jobs.iter().zip(results) {
            slots[index] = Some(result);
        }
    }
    if stolen {
        sink.stolen_buckets.fetch_add(1, Ordering::Relaxed);
    }
    // Decrement under the mutex the caller waits on, so the notify can never
    // slip between its check and its wait.
    let mut remaining = lock(&sink.remaining);
    *remaining -= 1;
    if *remaining == 0 {
        sink.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme, MergedListId};
    use zerber_corpus::{sample_split, CorpusBuilder, CorpusStats, Document, GroupId, SplitConfig};
    use zerber_crypto::MasterKey;
    use zerber_r::{OrderedIndex, RstfConfig, RstfModel};
    use zerber_store::{RangedFetch, ShardedStore};

    fn store(num_shards: usize) -> Arc<dyn ListStore> {
        let mut b = CorpusBuilder::new();
        for i in 0..60 {
            let group = GroupId((i % 2) as u32);
            b.add_document(Document::new(
                format!("d{i}"),
                group,
                format!(
                    "shared term{} report imclone {} filler words here",
                    i % 9,
                    "data ".repeat(i % 5 + 1)
                ),
            ))
            .unwrap();
        }
        let c = b.build();
        let stats = CorpusStats::compute(&c);
        let split = sample_split(&c, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&c, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([5u8; 32]);
        let index = OrderedIndex::build(&c, plan, &model, &master, 7).unwrap();
        Arc::new(ShardedStore::with_shards(index, num_shards))
    }

    fn ranged(list: u64, count: usize) -> StoreJob {
        StoreJob::ranged(
            RangedFetch {
                list: MergedListId(list),
                offset: 0,
                count,
            },
            None,
        )
    }

    #[test]
    fn pool_round_matches_sequential_execution() {
        let store = store(4);
        let lists = store.plan().num_lists() as u64;
        let pool = ShardWorkerPool::new(3);
        let jobs: Vec<StoreJob> = (0..32).map(|i| ranged(i % lists, 3)).collect();
        let sequential = store.execute_shard_batch(&jobs);
        let (pooled, round) = pool.execute(&store, jobs);
        assert_eq!(pooled.results.len(), sequential.results.len());
        for (p, s) in pooled.results.iter().zip(sequential.results.iter()) {
            assert_eq!(p.as_ref().unwrap(), s.as_ref().unwrap());
        }
        assert_eq!(round.jobs, 32);
        assert!(round.buckets >= 1);
        assert!(round.max_bucket_jobs >= 1);
    }

    #[test]
    fn unknown_lists_fail_per_job_without_stalling_the_round() {
        let store = store(2);
        let bogus = store.plan().num_lists() as u64 + 999;
        let pool = ShardWorkerPool::new(2);
        let jobs = vec![ranged(0, 2), ranged(bogus, 2), ranged(1, 2)];
        let (output, round) = pool.execute(&store, jobs);
        assert!(output.results[0].is_ok());
        assert!(matches!(
            output.results[1],
            Err(StoreError::UnknownList(id)) if id == bogus
        ));
        assert!(output.results[2].is_ok());
        assert_eq!(round.jobs, 2);
    }

    #[test]
    fn empty_round_completes_without_touching_workers() {
        let store = store(2);
        let pool = ShardWorkerPool::new(2);
        let (output, round) = pool.execute(&store, Vec::new());
        assert!(output.results.is_empty());
        assert_eq!(store.lock_acquisitions(), 0);
        assert_eq!(round, RoundStats::default());
    }

    #[test]
    fn drop_joins_workers_even_with_rounds_just_finished() {
        let store = store(4);
        let lists = store.plan().num_lists() as u64;
        for _ in 0..50 {
            let pool = ShardWorkerPool::new(4);
            let jobs: Vec<StoreJob> = (0..16).map(|i| ranged(i % lists, 2)).collect();
            let (output, _) = pool.execute(&store, jobs);
            assert_eq!(output.results.len(), 16);
            drop(pool);
        }
    }
}
