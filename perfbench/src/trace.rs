//! In-memory span tracing driven from the benchmark's own code.
//!
//! Spans are recorded around calls into each layer's public functions and
//! kept in memory until the run ends, when [`Tracer::summarize`] turns them
//! into per-kind self times.  A span's self time is its duration minus the
//! part of its interval that its children cover (children may run on other
//! threads and overlap each other, so the union of their intervals is used).
//!
//! The storage layer sits beneath `IndexServer`, so it is traced through
//! [`TracedStore`], a `ListStore` that delegates every call to the real
//! engine and records spans around the serving calls.  The pool never calls
//! into code the benchmark owns except the store, so a round's pool phase is
//! reconstructed afterwards from the store spans: it runs from the end of
//! `plan_shard_batch` to the end of the round's last bucket.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;
use zerber_store::{
    CursorId, ListStore, RangedBatch, RangedFetch, SessionStats, ShardBucketOutput, ShardJobBucket,
    ShardJobPlan, StoreError, StoreJob,
};

/// What a span measures.  Each kind belongs to exactly one [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One benchmark operation (a query, a round or a document insert);
    /// its self time is the unattributed remainder.
    Op,
    /// Client-side query work: building requests, absorbing responses,
    /// merging rankings.
    Client,
    /// Client-side insert work: building payloads and insert requests.
    ClientInsert,
    /// `EncryptedElement::open`.
    Open,
    /// `EncryptedElement::seal`.
    Seal,
    /// `RstfModel::transform`.
    Transform,
    /// A read call into `IndexServer` (query, batch, stream, cursor close).
    ServerRead,
    /// `IndexServer::handle_insert`.
    ServerInsert,
    /// Authentication inside a server call, attributed as count × the
    /// per-call time of `AccessControl::authenticate` / `check_member`.
    Acl,
    /// A round's pool phase: from the end of planning to the end of the
    /// round's last bucket.
    Pool,
    /// `ListStore::plan_shard_batch`.
    StorePlan,
    /// `ListStore::execute_shard_bucket`.
    StoreBucket,
    /// `ListStore::fetch_ranged`, `cursor_fetch`, `open_cursor`,
    /// `close_cursor`.
    StoreRead,
    /// `ListStore::insert`.
    StoreInsert,
}

/// The layer a span kind's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Unattributed,
    Client,
    Element,
    Rstf,
    Server,
    Acl,
    Pool,
    Store,
}

impl Kind {
    pub fn layer(self) -> Layer {
        match self {
            Kind::Op => Layer::Unattributed,
            Kind::Client | Kind::ClientInsert => Layer::Client,
            Kind::Open | Kind::Seal => Layer::Element,
            Kind::Transform => Layer::Rstf,
            Kind::ServerRead | Kind::ServerInsert => Layer::Server,
            Kind::Acl => Layer::Acl,
            Kind::Pool => Layer::Pool,
            Kind::StorePlan | Kind::StoreBucket | Kind::StoreRead | Kind::StoreInsert => {
                Layer::Store
            }
        }
    }
}

/// One recorded span.  Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Jobs in the bucket (`StoreBucket` only).
    pub jobs: u32,
    /// The plan span of the round a bucket belongs to (0 otherwise).
    pub round: u32,
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread that calls into traced code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    /// Parent for spans opened on threads with no open span of their own
    /// (pool workers): the server call currently in progress.
    ambient: AtomicU32,
    /// The most recent `plan_shard_batch` span: the round later buckets
    /// belong to.
    round: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            ambient: AtomicU32::new(0),
            round: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    id: u32,
    parent: u32,
    kind: Kind,
    start: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of this thread's innermost open span (or of
    /// the ambient server call on a thread with none).
    pub fn open(&self, kind: Kind) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .last()
                .copied()
                .unwrap_or_else(|| self.ambient.load(Ordering::Relaxed));
            s.push(id);
            parent
        });
        if matches!(kind, Kind::ServerRead | Kind::ServerInsert) {
            self.ambient.store(id, Ordering::Relaxed);
        }
        Open {
            id,
            parent,
            kind,
            start: self.now(),
        }
    }

    /// Closes a span opened by [`Tracer::open`] on this thread.
    pub fn close(&self, open: Open) -> Span {
        self.close_with(open, 0, 0)
    }

    fn close_with(&self, open: Open, jobs: u32, round: u32) -> Span {
        let end = self.now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans close in LIFO order");
        });
        if matches!(open.kind, Kind::ServerRead | Kind::ServerInsert) {
            self.ambient.store(0, Ordering::Relaxed);
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            kind: open.kind,
            start: open.start,
            end,
            jobs,
            round,
        };
        self.push(span);
        span
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .push(span);
    }

    /// Runs `f` inside a span of `kind`.
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let open = self.open(kind);
        let out = f();
        self.close(open);
        out
    }

    /// Records a span of known duration as the first child of `parent`
    /// (the ACL share of a server call, which the benchmark cannot time
    /// in place).
    pub fn attribute(&self, parent: &Span, kind: Kind, nanos: u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: parent.id,
            kind,
            start: parent.start,
            end: parent.start + nanos,
            jobs: 0,
            round: 0,
        });
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no thread panics while holding the span buffer"),
        )
    }
}

/// Per-kind totals of a trace.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Self time per kind, nanoseconds of wall time.  Concurrent children
    /// share the wall time they overlap, so the self times of an
    /// operation's spans add up to the operation's duration.
    pub self_ns: HashMap<Kind, f64>,
    /// Total (inclusive) time per kind, nanoseconds; for concurrent spans
    /// this is busy time, not wall time.
    pub total_ns: HashMap<Kind, u64>,
    /// Number of spans per kind.
    pub count: HashMap<Kind, u64>,
    /// Rounds (plan spans followed by at least one bucket).
    pub rounds: u64,
    /// Buckets executed and the jobs they carried.
    pub buckets: u64,
    pub bucket_jobs: u64,
    pub max_bucket_jobs: u64,
}

impl Summary {
    pub fn self_ns(&self, kind: Kind) -> f64 {
        self.self_ns.get(&kind).copied().unwrap_or(0.0)
    }

    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.total_ns.get(&kind).copied().unwrap_or(0)
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.count.get(&kind).copied().unwrap_or(0)
    }

    /// Self time per layer, nanoseconds.
    pub fn layer_self_ns(&self) -> HashMap<Layer, f64> {
        let mut out = HashMap::new();
        for (&kind, &ns) in &self.self_ns {
            *out.entry(kind.layer()).or_insert(0.0) += ns;
        }
        out
    }
}

/// Adds each round's pool span (parented to the round's server call, with
/// the round's buckets re-parented beneath it), then computes self times.
pub fn summarize(mut spans: Vec<Span>, next_id: u32) -> Summary {
    let mut next_id = next_id;
    let plans: HashMap<u32, (u32, u64)> = spans
        .iter()
        .filter(|s| s.kind == Kind::StorePlan)
        .map(|s| (s.id, (s.parent, s.end)))
        .collect();
    let mut round_end: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == Kind::StoreBucket) {
        let end = round_end.entry(s.round).or_insert(0);
        *end = (*end).max(s.end);
    }
    let mut pool_of: HashMap<u32, u32> = HashMap::new();
    let mut rounds: Vec<(u32, u64)> = round_end.into_iter().collect();
    rounds.sort_unstable();
    for (round, end) in rounds {
        let Some(&(parent, start)) = plans.get(&round) else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        pool_of.insert(round, id);
        spans.push(Span {
            id,
            parent,
            kind: Kind::Pool,
            start,
            end: end.max(start),
            jobs: 0,
            round: 0,
        });
    }
    let mut summary = Summary {
        rounds: pool_of.len() as u64,
        ..Summary::default()
    };
    for s in spans.iter_mut().filter(|s| s.kind == Kind::StoreBucket) {
        if let Some(&pool) = pool_of.get(&s.round) {
            s.parent = pool;
        }
        summary.buckets += 1;
        summary.bucket_jobs += u64::from(s.jobs);
        summary.max_bucket_jobs = summary.max_bucket_jobs.max(u64::from(s.jobs));
    }

    for s in &spans {
        *summary.total_ns.entry(s.kind).or_insert(0) += s.end.saturating_sub(s.start);
        *summary.count.entry(s.kind).or_insert(0) += 1;
    }
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 && index.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    // Top down: each span owns a share of wall time (its whole duration for
    // a root); its children's shares come out of it and the rest is its
    // self time.
    let mut queue: Vec<(usize, f64)> = roots
        .into_iter()
        .map(|i| (i, spans[i].end.saturating_sub(spans[i].start) as f64))
        .collect();
    while let Some((i, share)) = queue.pop() {
        let s = spans[i];
        let duration = s.end.saturating_sub(s.start) as f64;
        let scale = if duration > 0.0 {
            share / duration
        } else {
            0.0
        };
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let (attributed, timed): (Vec<usize>, Vec<usize>) =
            kids.iter().partition(|&&c| spans[c].kind == Kind::Acl);
        let intervals: Vec<(u64, u64)> = timed
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let shares = wall_shares(&intervals, s.start, s.end);
        let covered: f64 = shares.iter().sum();
        let mut rest = (duration - covered).max(0.0);
        for (&c, &child_share) in timed.iter().zip(&shares) {
            queue.push((c, child_share * scale));
        }
        // Attributed (ACL) time comes out of what the timed children leave.
        for &c in &attributed {
            let take = (spans[c].end.saturating_sub(spans[c].start) as f64).min(rest);
            rest -= take;
            *summary.self_ns.entry(spans[c].kind).or_insert(0.0) += take * scale;
        }
        *summary.self_ns.entry(s.kind).or_insert(0.0) += rest * scale;
    }
    summary
}

/// Wall time of `[start, end]` each interval owns: an instant covered by
/// `n` intervals is split evenly among them.  The shares sum to the length
/// of the intervals' union within `[start, end]`.
fn wall_shares(intervals: &[(u64, u64)], start: u64, end: u64) -> Vec<f64> {
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(intervals.len() * 2);
    for (i, &(a, b)) in intervals.iter().enumerate() {
        let (a, b) = (a.clamp(start, end), b.clamp(start, end));
        if b > a {
            events.push((a, true, i));
            events.push((b, false, i));
        }
    }
    // Ends sort before starts at the same instant.
    events.sort_unstable_by_key(|&(t, open, i)| (t, open, i));
    let mut shares = vec![0.0; intervals.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = start;
    for (t, open, i) in events {
        if !active.is_empty() && t > last {
            let each = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                shares[a] += each;
            }
        }
        last = t;
        if open {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    shares
}

impl Tracer {
    /// Summarizes every recorded span (see [`summarize`]).
    pub fn summarize(&self) -> Summary {
        let spans = self.drain();
        summarize(spans, self.next.load(Ordering::Relaxed))
    }
}

/// A `ListStore` that times the serving calls of the engine it wraps.
///
/// `fetch_ranged_many` and `execute_shard_batch` keep their provided
/// implementations, so they route through the traced `plan_shard_batch` and
/// `execute_shard_bucket`, exactly as they do for the wrapped engines.
#[derive(Debug)]
pub struct TracedStore {
    inner: Box<dyn ListStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn new(inner: Box<dyn ListStore>, tracer: Arc<Tracer>) -> Self {
        TracedStore { inner, tracer }
    }

    fn read<R>(&self, f: impl FnOnce(&dyn ListStore) -> R) -> R {
        self.tracer.span(Kind::StoreRead, || f(self.inner.as_ref()))
    }
}

impl ListStore for TracedStore {
    fn plan(&self) -> &MergePlan {
        self.inner.plan()
    }
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }
    fn shard_of(&self, list: MergedListId) -> usize {
        self.inner.shard_of(list)
    }
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }
    fn num_elements(&self) -> usize {
        self.inner.num_elements()
    }
    fn stored_bytes(&self) -> usize {
        self.inner.stored_bytes()
    }
    fn ciphertext_bytes(&self) -> usize {
        self.inner.ciphertext_bytes()
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn spilled_bytes(&self) -> usize {
        self.inner.spilled_bytes()
    }
    fn page_faults(&self) -> u64 {
        self.inner.page_faults()
    }
    fn page_evictions(&self) -> u64 {
        self.inner.page_evictions()
    }
    fn page_cache_hits(&self) -> u64 {
        self.inner.page_cache_hits()
    }
    fn page_file_bytes(&self) -> usize {
        self.inner.page_file_bytes()
    }
    fn dead_page_bytes(&self) -> usize {
        self.inner.dead_page_bytes()
    }
    fn compactions(&self) -> u64 {
        self.inner.compactions()
    }
    fn promotions(&self) -> u64 {
        self.inner.promotions()
    }
    fn demotions(&self) -> u64 {
        self.inner.demotions()
    }
    fn wal_appends(&self) -> u64 {
        self.inner.wal_appends()
    }
    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
    fn recovered_pages(&self) -> u64 {
        self.inner.recovered_pages()
    }
    fn truncated_wal_records(&self) -> u64 {
        self.inner.truncated_wal_records()
    }
    fn frames_streamed(&self) -> u64 {
        self.inner.frames_streamed()
    }
    fn frames_skipped(&self) -> u64 {
        self.inner.frames_skipped()
    }
    fn resnapshots(&self) -> u64 {
        self.inner.resnapshots()
    }
    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
    fn replica_lag(&self) -> u64 {
        self.inner.replica_lag()
    }
    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError> {
        self.inner.list_len(list)
    }
    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError> {
        self.inner.visible_len(list, accessible)
    }
    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError> {
        self.inner.snapshot_list(list)
    }
    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        self.read(|s| s.fetch_ranged(fetch, accessible))
    }
    fn plan_shard_batch(&self, jobs: &[StoreJob], max_bucket_jobs: usize) -> ShardJobPlan {
        let open = self.tracer.open(Kind::StorePlan);
        let id = open.id;
        let plan = self.inner.plan_shard_batch(jobs, max_bucket_jobs);
        self.tracer.close(open);
        self.tracer.round.store(id, Ordering::Relaxed);
        plan
    }
    fn execute_shard_bucket(
        &self,
        jobs: &[StoreJob],
        bucket: &ShardJobBucket,
    ) -> ShardBucketOutput {
        let round = self.tracer.round.load(Ordering::Relaxed);
        let open = self.tracer.open(Kind::StoreBucket);
        let out = self.inner.execute_shard_bucket(jobs, bucket);
        let jobs = u32::try_from(bucket.jobs.len()).unwrap_or(u32::MAX);
        self.tracer.close_with(open, jobs, round);
        out
    }
    fn lock_acquisitions(&self) -> u64 {
        self.inner.lock_acquisitions()
    }
    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError> {
        self.read(|s| s.open_cursor(list, owner, batch, delivered, accessible))
    }
    fn cursor_fetch(
        &self,
        cursor: CursorId,
        owner: u64,
        count: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        self.read(|s| s.cursor_fetch(cursor, owner, count, accessible))
    }
    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        self.read(|s| s.close_cursor(cursor, owner))
    }
    fn open_cursors(&self) -> usize {
        self.inner.open_cursors()
    }
    fn session_stats(&self) -> SessionStats {
        self.inner.session_stats()
    }
    fn visibility_scan_cost(&self) -> u64 {
        self.inner.visibility_scan_cost()
    }
    fn insert(&self, list: MergedListId, element: OrderedElement) -> Result<usize, StoreError> {
        self.tracer
            .span(Kind::StoreInsert, || self.inner.insert(list, element))
    }
    fn verify_ordering(&self) -> bool {
        self.inner.verify_ordering()
    }
}
