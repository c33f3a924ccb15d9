//! The three workloads: set-up, the timed (untraced) run and the traced
//! replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use zerber_base::MergedListId;
use zerber_corpus::{GroupId, TermId};
use zerber_crypto::DeterministicRng;
use zerber_protocol::{
    AuthToken, Client, IndexServer, ProtocolError, QueryRequest, QueryResponse, ShardWorkerPool,
};
use zerber_r::{OrderedIndex, RetrievalConfig};
use zerber_store::{DurableConfig, ListStore, RangedFetch, ShardedStore, SpillStore, StoreJob};

use crate::check::{self, MultiOutcome, Reference};
use crate::replay::{server_call, AclCost, TracedClient};
use crate::setup::{self, hardware_threads, Engine, Inputs, Size};
use crate::stats::{median, percentile, ratio, Counters};
use crate::trace::{Kind, Layer, Tracer};
use crate::{json_num, json_str, Metric, Options, Report, Workload};

/// Results per term and initial response size (k = b).
const K: usize = 10;
/// `ingest_mixed` runs this many queries per document insert.
const QUERIES_PER_INSERT: usize = 9;
/// `topk_interactive` and `batched_rounds` insert their documents in this
/// many chunks, spread evenly over the timed phase.
const INSERT_CHUNKS: usize = 10;

/// Removes a durable root when dropped (after the server that uses it).
struct Root(PathBuf);

impl Drop for Root {
    fn drop(&mut self) {
        setup::remove_root(&self.0);
    }
}

/// A built deployment.  Field order is drop order: the server closes before
/// its root is removed.
struct Deployment {
    server: IndexServer,
    inputs: Inputs,
    root: Option<Root>,
    /// Per-user clients (`user-0` queries and inserts).
    clients: Vec<Client>,
    /// `batched_rounds`: the request stream and its rounds.
    stream: Vec<(QueryRequest, AuthToken)>,
    stream_groups: Vec<Vec<GroupId>>,
    round_len: usize,
}

impl Deployment {
    fn engine(workload: Workload) -> Engine {
        match workload {
            Workload::IngestMixed => Engine::Durable,
            _ => Engine::Sharded,
        }
    }

    fn users(workload: Workload, size: &Size) -> usize {
        match workload {
            Workload::BatchedRounds => size.round_users,
            _ => 1,
        }
    }

    /// Everything before the first timed operation: corpus synthesis, RSTF
    /// training, index and engine build, operation generation and warm-up.
    fn build(opts: &Options, tracer: Option<&Arc<Tracer>>) -> Self {
        let size = &opts.size;
        let inputs = Inputs::generate(opts.seed, size, Self::users(opts.workload, size));
        let engine = Self::engine(opts.workload);
        let root =
            (engine == Engine::Durable).then(|| Root(setup::fresh_root(opts.workload.name())));
        let server = setup::build_server(
            &inputs,
            engine,
            root.as_ref().map(|r| r.0.as_path()),
            tracer,
        );
        let clients: Vec<Client> = (0..inputs.users.len()).map(|u| inputs.client(u)).collect();
        let mut stream = Vec::new();
        let mut stream_groups = Vec::new();
        if opts.workload == Workload::BatchedRounds {
            let config = RetrievalConfig::for_k(K);
            for (j, terms) in inputs.queries.iter().enumerate() {
                let u = j % clients.len();
                for &term in terms {
                    stream.push(
                        clients[u]
                            .prepare_initial(&inputs.bed.plan, term, &config)
                            .expect("sampled terms are in the merge plan"),
                    );
                    stream_groups.push(inputs.users[u].clone());
                }
            }
        }
        let dep = Deployment {
            server,
            inputs,
            root,
            clients,
            stream,
            stream_groups,
            round_len: size.round_len,
        };
        // Warm-up: untimed reads through the same path the workload uses.
        if opts.workload == Workload::BatchedRounds {
            for r in 0..size.warmup_ops.div_ceil(size.round_len).min(dep.rounds()) {
                let _ = dep.server.handle_query_stream(dep.round(r));
            }
        } else {
            for terms in dep.inputs.queries.iter().take(size.warmup_ops) {
                let _ = dep.query(terms);
            }
        }
        dep
    }

    fn rounds(&self) -> usize {
        self.stream.len().div_ceil(self.round_len)
    }

    fn round(&self, r: usize) -> &[(QueryRequest, AuthToken)] {
        let start = r * self.round_len;
        &self.stream[start..(start + self.round_len).min(self.stream.len())]
    }

    fn query(&self, terms: &[TermId]) -> Result<MultiOutcome, ProtocolError> {
        self.clients[0].query_multi(
            &self.server,
            &self.inputs.bed.plan,
            terms,
            &RetrievalConfig::for_k(K),
        )
    }

    fn insert(&mut self, doc: &setup::NewDoc) -> Result<usize, ProtocolError> {
        let bed = &self.inputs.bed;
        self.clients[0].insert_document(
            &self.server,
            &bed.plan,
            &bed.model,
            doc.doc,
            doc.group,
            &doc.terms,
        )
    }

    /// Bytes of write-ahead log on disk (0 for in-memory engines).
    fn wal_disk_bytes(&self) -> u64 {
        let Some(root) = &self.root else { return 0 };
        std::fs::read_dir(&root.0)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// Builds the deployment `setups` times and keeps the last; returns it with
/// the median set-up time in seconds.
fn set_up(opts: &Options, tracer: Option<&Arc<Tracer>>, setups: usize) -> (Deployment, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        let dep = Deployment::build(opts, tracer);
        times.push(t.elapsed().as_secs_f64());
        last = Some(dep);
    }
    (last.expect("at least one set-up ran"), median(&times))
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Closes a durable deployment cleanly and reopens its root: returns the
/// reopen time, the number of failed checks (lists whose snapshot changed,
/// a broken TRS order) and a server over the reopened store.
fn close_and_reopen(dep: Deployment) -> (f64, u64, IndexServer, Inputs, Root) {
    let Deployment {
        server,
        inputs,
        root,
        ..
    } = dep;
    let root = root.expect("durable deployments have a root");
    let before = check::snapshot(server.store());
    let mut failed = u64::from(!server.store().verify_ordering());
    drop(server);
    let config = setup::spill_config(&inputs.bed.index, hardware_threads());
    let t = Instant::now();
    let store = SpillStore::open(&root.0, config, DurableConfig::default())
        .expect("a cleanly closed durable store reopens");
    let reopen_s = t.elapsed().as_secs_f64();
    failed += check::differing_lists(&before, &check::snapshot(&store)) as u64;
    failed += u64::from(!store.verify_ordering());
    let server = IndexServer::with_store(Box::new(store), inputs.acl.clone());
    (reopen_s, failed, server, inputs, root)
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let mut report = if opts.trace {
        traced(opts)
    } else {
        match opts.workload {
            Workload::TopkInteractive | Workload::BatchedRounds => read_and_insert(opts),
            Workload::IngestMixed => ingest(opts),
        }
    };
    let mut info = vec![
        ("workload".to_string(), json_str(opts.workload.name())),
        ("seed".to_string(), opts.seed.to_string()),
        ("trace".to_string(), opts.trace.to_string()),
        (
            "hardware_threads".to_string(),
            hardware_threads().to_string(),
        ),
        ("git_rev".to_string(), json_str(&git_rev())),
        (
            "engine".to_string(),
            json_str(match Deployment::engine(opts.workload) {
                Engine::Sharded => "sharded in-memory (IndexServer::new)",
                Engine::Durable => {
                    "durable spill store, quarter-index resident budget and page cache"
                }
            }),
        ),
        (
            "flush_policy".to_string(),
            json_str(&match Deployment::engine(opts.workload) {
                Engine::Sharded => "none (in-memory)".to_string(),
                Engine::Durable => format!("{:?}", DurableConfig::default().sync),
            }),
        ),
        // Rounds run on the calling thread; the traced run of
        // `batched_rounds` replays them on a pool of this many workers.
        (
            "pool_workers".to_string(),
            match (opts.workload, opts.trace) {
                (Workload::BatchedRounds, true) => hardware_threads(),
                _ => 0,
            }
            .to_string(),
        ),
        ("scale".to_string(), json_num(opts.size.scale)),
        (
            "failed_frac".to_string(),
            json_num(ratio(report.failed as f64, report.attempted as f64, 0.0)),
        ),
    ];
    info.append(&mut report.info);
    report.info = info;
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        report.failed += 1;
    }
    report
}

/// The commit the benchmark was built from, when run inside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The engine's footprint, averaged over samples taken at fixed points of
/// the operation sequence (page-cache contents and not-yet-compacted page
/// files make a single reading jumpy).
#[derive(Debug, Default)]
struct Footprint {
    samples: u64,
    resident_bytes: f64,
    space_amp: f64,
}

impl Footprint {
    fn sample(&mut self, dep: &Deployment) {
        let stats = dep.server.stats();
        let stored = dep.server.stored_bytes() as f64;
        let total = stats.resident_bytes + stats.page_file_bytes + dep.wal_disk_bytes();
        self.samples += 1;
        self.resident_bytes += stats.resident_bytes as f64;
        self.space_amp += ratio(total as f64, stored, 0.0);
    }

    fn resident_mib(&self) -> f64 {
        ratio(
            self.resident_bytes / f64::from(1 << 20),
            self.samples as f64,
            0.0,
        )
    }

    fn space_amp(&self) -> f64 {
        ratio(self.space_amp, self.samples as f64, 0.0)
    }
}

/// Size of the dataset a deployment serves.
fn dataset_info(dep: &Deployment) -> Vec<(String, String)> {
    vec![
        (
            "corpus_docs".to_string(),
            dep.inputs.bed.corpus.num_docs().to_string(),
        ),
        (
            "index_elements".to_string(),
            dep.inputs.bed.index.num_elements().to_string(),
        ),
        (
            "stored_bytes".to_string(),
            dep.inputs.bed.index.stored_bytes().to_string(),
        ),
        ("queries".to_string(), dep.inputs.queries.len().to_string()),
    ]
}

/// Requests and bytes of the queries in the counted pass.
#[derive(Debug, Default)]
struct PassCounts {
    queries: u64,
    requests: u64,
    bytes: u64,
}

impl PassCounts {
    fn add_query(&mut self, outcome: &MultiOutcome) {
        self.queries += 1;
        for o in &outcome.1 {
            self.requests += o.requests as u64;
            self.bytes += (o.bytes_sent + o.bytes_received) as u64;
        }
    }
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    setup_s: f64,
    ops: u64,
    busy_ns: u64,
    reads: Vec<u64>,
    inserts: Vec<u64>,
    pass: PassCounts,
    footprint: Footprint,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        let us = |v: f64| v / 1e3;
        vec![
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
            },
            Metric {
                name: "ops_per_s",
                value: ratio(self.ops as f64, self.busy_ns as f64 / 1e9, 0.0),
                unit: "1/s",
            },
            Metric {
                name: "read_p50_us",
                value: us(percentile(&self.reads, 50.0)),
                unit: "us",
            },
            Metric {
                name: "read_p95_us",
                value: us(percentile(&self.reads, 95.0)),
                unit: "us",
            },
            Metric {
                name: "insert_p50_us",
                value: us(percentile(&self.inserts, 50.0)),
                unit: "us",
            },
            Metric {
                name: "insert_p95_us",
                value: us(percentile(&self.inserts, 95.0)),
                unit: "us",
            },
            Metric {
                name: "requests_per_query",
                value: ratio(self.pass.requests as f64, self.pass.queries as f64, 0.0),
                unit: "count",
            },
            Metric {
                name: "kib_per_query",
                value: ratio(
                    self.pass.bytes as f64 / 1024.0,
                    self.pass.queries as f64,
                    0.0,
                ),
                unit: "KiB",
            },
            Metric {
                name: "resident_mib",
                value: self.footprint.resident_mib(),
                unit: "MiB",
            },
            Metric {
                name: "space_amp",
                value: self.footprint.space_amp(),
                unit: "ratio",
            },
        ]
    }

    fn info(&self, workload: Workload) -> Vec<(String, String)> {
        let read = match workload {
            Workload::BatchedRounds => "round",
            _ => "query",
        };
        vec![
            ("ops".to_string(), self.ops.to_string()),
            (format!("{read}_samples"), self.reads.len().to_string()),
            ("insert_samples".to_string(), self.inserts.len().to_string()),
            (
                format!("{read}_p50_us"),
                json_num(percentile(&self.reads, 50.0) / 1e3),
            ),
            (
                format!("{read}_p95_us"),
                json_num(percentile(&self.reads, 95.0) / 1e3),
            ),
            (
                format!("{read}_p99_us"),
                json_num(percentile(&self.reads, 99.0) / 1e3),
            ),
        ]
    }
}

/// Expected responses of every request of a `batched_rounds` stream.
fn expected_stream(dep: &Deployment) -> Vec<QueryResponse> {
    let requests: Vec<(QueryRequest, Vec<GroupId>)> = dep
        .stream
        .iter()
        .zip(&dep.stream_groups)
        .map(|((r, _), g)| (r.clone(), g.clone()))
        .collect();
    check::expected_responses(dep.server.store(), &requests)
}

/// `topk_interactive` and `batched_rounds`: reads in a closed loop, with a
/// chunk of document inserts after each tenth of the run, then checks on
/// the grown index.
fn read_and_insert(opts: &Options) -> Report {
    let size = &opts.size;
    let (mut dep, setup_s) = set_up(opts, None, size.setups);
    let batched = opts.workload == Workload::BatchedRounds;
    let groups = dep.inputs.users[0].clone();
    let mut expected = if batched {
        expected_stream(&dep)
    } else {
        Vec::new()
    };
    let mut reference = Reference::new(&dep.inputs.bed, K);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut reads, mut inserts) = (Vec::new(), Vec::with_capacity(size.burst_docs));
    let mut pass = PassCounts::default();
    let mut ops = 0u64;
    let elements_before = dep.server.num_elements();
    let mut inserted = 0;
    // One pass over the query sample (or its rounds); counts cover it.
    let pass_len = if batched {
        dep.rounds()
    } else {
        dep.inputs.queries.len()
    };

    let mut footprint = Footprint::default();
    let start = Instant::now();
    let mut i = 0;
    let mut next_doc = 0;
    for chunk in 1..=INSERT_CHUNKS {
        let until = opts.seconds * chunk as f64 / INSERT_CHUNKS as f64;
        while i < pass_len || start.elapsed().as_secs_f64() < until {
            let first_pass = i < pass_len;
            if batched {
                let r = i % pass_len;
                let round = dep.round(r);
                let t = Instant::now();
                let responses = dep.server.handle_query_stream(round);
                reads.push(ns(t));
                ops += round.len() as u64;
                for (j, ((request, _), response)) in round.iter().zip(&responses).enumerate() {
                    attempted += 1;
                    match response {
                        Ok(got) if *got == expected[r * dep.round_len + j] => {
                            if first_pass {
                                pass.requests += 1;
                                pass.bytes +=
                                    (request.encoded_bytes() + got.encoded_bytes()) as u64;
                            }
                        }
                        _ => failed += 1,
                    }
                }
            } else {
                let terms = &dep.inputs.queries[i % pass_len];
                let t = Instant::now();
                let out = dep.query(terms);
                reads.push(ns(t));
                ops += 1;
                attempted += 1;
                match out {
                    Ok(out) if reference.check_query(&groups, terms, &out) => {
                        if first_pass {
                            pass.add_query(&out);
                        }
                    }
                    _ => failed += 1,
                }
            }
            i += 1;
        }
        let chunk_end = size.burst_docs * chunk / INSERT_CHUNKS;
        while next_doc < chunk_end {
            let doc = dep.inputs.new_doc(next_doc);
            next_doc += 1;
            let t = Instant::now();
            let out = dep.insert(&doc);
            inserts.push(ns(t));
            attempted += 1;
            match out {
                Ok(n) if n == doc.terms.len() => {
                    inserted += n;
                    reference.insert(&doc);
                }
                _ => failed += 1,
            }
        }
        footprint.sample(&dep);
        if batched {
            expected = expected_stream(&dep);
        }
    }
    if batched {
        pass.queries = dep.inputs.queries.len() as u64;
    }
    let busy_ns = reads.iter().sum();

    // Checks on the grown index.
    attempted += 1;
    if !dep.server.store().verify_ordering()
        || dep.server.num_elements() != elements_before + inserted
    {
        failed += 1;
    }
    if !batched {
        for terms in dep.inputs.queries.iter().take(size.verify_queries) {
            attempted += 1;
            match dep.query(terms) {
                Ok(out) if reference.check_query(&groups, terms, &out) => {}
                _ => failed += 1,
            }
        }
    }

    let e2e = EndToEnd {
        setup_s,
        ops,
        busy_ns,
        reads,
        inserts,
        pass,
        footprint,
    };
    let mut info = dataset_info(&dep);
    info.extend(e2e.info(opts.workload));
    Report {
        attempted,
        failed,
        metrics: e2e.metrics(),
        info,
    }
}

/// `ingest_mixed`: cycles of 9 queries and one document insert, then a
/// clean close, a reopen and checks on the reopened store.
fn ingest(opts: &Options) -> Report {
    let size = &opts.size;
    let (mut dep, setup_s) = set_up(opts, None, size.setups);
    let groups = dep.inputs.users[0].clone();
    let mut reference = Reference::new(&dep.inputs.bed, K);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut reads, mut inserts) = (Vec::new(), Vec::new());
    let mut pass = PassCounts::default();
    let n = dep.inputs.queries.len();

    let mut footprint = Footprint::default();
    let start = Instant::now();
    let mut c = 0;
    while c < size.min_cycles || start.elapsed().as_secs_f64() < opts.seconds {
        for j in 0..QUERIES_PER_INSERT {
            let terms = &dep.inputs.queries[(c * QUERIES_PER_INSERT + j) % n];
            let t = Instant::now();
            let out = dep.query(terms);
            reads.push(ns(t));
            attempted += 1;
            match out {
                Ok(out) if reference.check_query(&groups, terms, &out) => {
                    if c < size.prefix_cycles {
                        pass.add_query(&out);
                    }
                }
                _ => failed += 1,
            }
        }
        let doc = dep.inputs.new_doc(c);
        let t = Instant::now();
        let out = dep.insert(&doc);
        inserts.push(ns(t));
        attempted += 1;
        match out {
            Ok(n) if n == doc.terms.len() => reference.insert(&doc),
            _ => failed += 1,
        }
        c += 1;
        // The footprint over a fixed amount of work, however long the run.
        if c <= size.min_cycles {
            footprint.sample(&dep);
        }
    }
    let ops = (reads.len() + inserts.len()) as u64;
    let busy_ns = reads.iter().sum::<u64>() + inserts.iter().sum::<u64>();

    // Clean close, reopen, then the query sample on the reopened store.
    let queries = dep.inputs.queries.clone();
    attempted += 1;
    let mut info = dataset_info(&dep);
    let (reopen_s, reopen_failed, server, inputs, _root) = close_and_reopen(dep);
    failed += reopen_failed;
    let client = inputs.client(0);
    for terms in queries.iter().take(size.verify_queries) {
        attempted += 1;
        match client.query_multi(&server, &inputs.bed.plan, terms, &RetrievalConfig::for_k(K)) {
            Ok(out) if reference.check_query(&groups, terms, &out) => {}
            _ => failed += 1,
        }
    }

    let e2e = EndToEnd {
        setup_s,
        ops,
        busy_ns,
        reads,
        inserts,
        pass,
        footprint,
    };
    info.extend(e2e.info(opts.workload));
    info.push(("cycles".to_string(), c.to_string()));
    info.push(("reopen_s".to_string(), json_num(reopen_s)));
    Report {
        attempted,
        failed,
        metrics: e2e.metrics(),
        info,
    }
}

/// One operation of the replayed prefix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Query(usize),
    Round(usize),
    Insert(usize),
}

/// The fixed operation prefix the traced run replays.
fn prefix(workload: Workload, dep: &Deployment, size: &Size) -> Vec<Op> {
    let inserts = (0..size.burst_docs / INSERT_CHUNKS).map(Op::Insert);
    match workload {
        Workload::TopkInteractive => (0..dep.inputs.queries.len())
            .map(Op::Query)
            .chain(inserts)
            .collect(),
        Workload::BatchedRounds => (0..dep.rounds()).map(Op::Round).chain(inserts).collect(),
        Workload::IngestMixed => {
            let n = dep.inputs.queries.len();
            (0..size.prefix_cycles)
                .flat_map(|c| {
                    (0..QUERIES_PER_INSERT)
                        .map(move |j| Op::Query((c * QUERIES_PER_INSERT + j) % n))
                        .chain(std::iter::once(Op::Insert(c)))
                })
                .collect()
        }
    }
}

/// What one replayed operation returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Query(Result<MultiOutcome, ProtocolError>),
    Round(Vec<Result<QueryResponse, ProtocolError>>),
    Insert(Result<usize, ProtocolError>),
}

/// Median per-call time of `f`, in nanoseconds.
fn per_call_ns(mut f: impl FnMut()) -> u64 {
    const CALLS: u32 = 100;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&batches) as u64
}

/// Pool-layer figures from replaying rounds on a [`ShardWorkerPool`].
#[derive(Debug, Default)]
struct PoolReplay {
    rounds: u64,
    nanos: u64,
    jobs: u64,
    buckets: u64,
    max_bucket_jobs: u64,
    stolen: u64,
    /// Rounds whose pooled results differ from the sequential executor's.
    mismatched: u64,
}

/// Replays every round of a `batched_rounds` stream — the shard jobs the
/// server builds for it — on a pool of one worker per hardware thread, over
/// a copy of the engine in its pre-insert state.
fn pool_replay(dep: &Deployment) -> PoolReplay {
    let store: Arc<dyn ListStore> = Arc::from(setup::build_store(
        Engine::Sharded,
        dep.inputs.bed.index.clone(),
        None,
        None,
    ));
    let pool = ShardWorkerPool::new(hardware_threads());
    let groups: Vec<Arc<[GroupId]>> = dep
        .stream_groups
        .iter()
        .map(|g| Arc::from(g.as_slice()))
        .collect();
    let mut out = PoolReplay::default();
    for r in 0..dep.rounds() {
        let first = r * dep.round_len;
        let jobs: Vec<StoreJob> = dep
            .round(r)
            .iter()
            .zip(&groups[first..])
            .map(|((q, _), g)| {
                StoreJob::ranged_shared(
                    RangedFetch {
                        list: MergedListId(q.list),
                        offset: q.offset as usize,
                        count: q.count as usize,
                    },
                    Some(Arc::clone(g)),
                )
            })
            .collect();
        let sequential = store.execute_shard_batch(&jobs).results;
        let t = Instant::now();
        let (pooled, stats) = pool.execute(&store, jobs);
        out.nanos += ns(t);
        out.rounds += 1;
        out.jobs += stats.jobs;
        out.buckets += stats.buckets;
        out.max_bucket_jobs = out.max_bucket_jobs.max(stats.max_bucket_jobs);
        out.stolen += stats.stolen_buckets;
        out.mismatched += u64::from(pooled.results != sequential);
    }
    out
}

/// The traced run: the prefix through the real client (timed, untraced),
/// then the same prefix through the traced client on a fresh deployment.
fn traced(opts: &Options) -> Report {
    let size = &opts.size;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Untraced replay: the outcomes the traced client must reproduce, and
    // the untraced time per operation.
    let (mut plain, _) = set_up(opts, None, 1);
    let ops = prefix(opts.workload, &plain, size);
    let mut want = Vec::with_capacity(ops.len());
    let mut plain_ns = 0u64;
    for &op in &ops {
        let t = Instant::now();
        let out = match op {
            Op::Query(q) => Outcome::Query(plain.query(&plain.inputs.queries[q])),
            Op::Round(r) => Outcome::Round(plain.server.handle_query_stream(plain.round(r))),
            Op::Insert(d) => {
                let doc = plain.inputs.new_doc(d);
                Outcome::Insert(plain.insert(&doc))
            }
        };
        plain_ns += ns(t);
        want.push(out);
    }
    let plain_lists = check::snapshot(plain.server.store());
    drop(plain);

    // Traced replay.
    let tracer = Arc::new(Tracer::default());
    let (dep, _) = set_up(opts, Some(&tracer), 1);
    tracer.drain();
    let bed = &dep.inputs.bed;
    let acl = dep.server.acl();
    let user0 = setup::user_name(0);
    let token0 = dep.inputs.token(0);
    let member_group = dep.inputs.users[0][0];
    let cost = AclCost {
        authenticate_ns: per_call_ns(|| {
            let _ = std::hint::black_box(acl.authenticate(&user0, &token0));
        }),
        check_member_ns: per_call_ns(|| {
            let _ = std::hint::black_box(acl.check_member(&user0, &token0, member_group));
        }),
    };
    let expected = if opts.workload == Workload::BatchedRounds {
        expected_stream(&dep)
    } else {
        Vec::new()
    };
    let mut reference = Reference::new(bed, K);
    let groups = dep.inputs.users[0].clone();
    let mut client = TracedClient {
        tracer: &tracer,
        server: &dep.server,
        plan: &bed.plan,
        user: user0.clone(),
        token: token0.clone(),
        keys: dep.inputs.keys(0),
        k: K,
        acl: cost,
        rng: DeterministicRng::from_u64(opts.seed ^ 0x5ea1),
        counts: Default::default(),
        responses: Vec::new(),
        keep_responses: 2000,
    };
    let (mut read_counters, mut insert_counters) = (Counters::default(), Counters::default());
    let mut round_responses: Vec<QueryResponse> = Vec::new();
    for (&op, want) in ops.iter().zip(&want) {
        let before = Counters::of(&dep.server.stats());
        attempted += 1;
        let ok = match op {
            Op::Query(q) => {
                let terms = &dep.inputs.queries[q];
                let got = client.query(terms);
                let ok = matches!(&got, Ok(out) if reference.check_query(&groups, terms, out));
                ok && *want == Outcome::Query(got)
            }
            Op::Round(r) => {
                let round = dep.round(r);
                let mut users: Vec<&str> = round.iter().map(|(q, _)| q.user.as_str()).collect();
                users.sort_unstable();
                users.dedup();
                let auths = users.len() as u64;
                let got = tracer.span(Kind::Op, || {
                    server_call(
                        &tracer,
                        Kind::ServerRead,
                        auths,
                        cost.authenticate_ns,
                        &mut client.counts,
                        || dep.server.handle_query_stream(round),
                    )
                });
                let ok = got
                    .iter()
                    .enumerate()
                    .all(|(j, g)| matches!(g, Ok(g) if *g == expected[r * dep.round_len + j]));
                let ok = ok && *want == Outcome::Round(got.clone());
                if round_responses.len() < 2000 {
                    round_responses.extend(got.into_iter().filter_map(Result::ok));
                }
                ok
            }
            Op::Insert(d) => {
                let doc = dep.inputs.new_doc(d);
                let got = client.insert(&bed.model, &doc);
                let ok = matches!(got, Ok(n) if n == doc.terms.len());
                if ok {
                    reference.insert(&doc);
                }
                ok && *want == Outcome::Insert(got)
            }
        };
        failed += u64::from(!ok);
        let after = Counters::of(&dep.server.stats());
        match op {
            Op::Insert(_) => insert_counters.add_delta(&before, &after),
            _ => read_counters.add_delta(&before, &after),
        }
    }
    let counts = client.counts;
    let responses = if round_responses.is_empty() {
        std::mem::take(&mut client.responses)
    } else {
        round_responses
    };
    let queries_per_read = match opts.workload {
        // A batched request is one query's initial request for one term;
        // count queries, not requests.
        Workload::BatchedRounds => dep.inputs.queries.len() as u64,
        _ => counts.queries,
    };
    let summary = tracer.summarize();

    // The traced client must leave the index exactly as the real one did,
    // and account for every authentication the server counted.
    attempted += 2;
    failed += check::differing_content(
        &plain_lists,
        &check::snapshot(dep.server.store()),
        &bed.master,
    )
    .min(1) as u64;
    failed += u64::from(counts.auths != read_counters.auth_checks + insert_counters.auth_checks);

    // Message codec, off the in-process path: encode and decode the
    // recorded responses.
    attempted += 1;
    let t = Instant::now();
    let codec_ok = responses
        .iter()
        .all(|r| QueryResponse::decode(&std::hint::black_box(r.encode())).as_ref() == Ok(r));
    let codec_us = ratio(t.elapsed().as_secs_f64() * 1e6, responses.len() as f64, 0.0);
    failed += u64::from(!codec_ok);

    // The pool layer: on `batched_rounds`, a pool replay of the rounds; on
    // the other workloads, the in-thread shard rounds of the traced path.
    let pool = if opts.workload == Workload::BatchedRounds {
        attempted += 1;
        let replay = pool_replay(&dep);
        failed += u64::from(replay.mismatched > 0);
        replay
    } else {
        PoolReplay {
            rounds: summary.rounds,
            nanos: summary.total_ns(Kind::Pool),
            jobs: summary.bucket_jobs,
            buckets: summary.buckets,
            max_bucket_jobs: summary.max_bucket_jobs,
            stolen: 0,
            mismatched: 0,
        }
    };

    let mut info = dataset_info(&dep);
    let end = dep.server.stats();
    let dead_page_frac = ratio(end.dead_page_bytes as f64, end.page_file_bytes as f64, 0.0);

    // Restart cost: reopen the durable root, or rebuild the in-memory engine
    // from its lists.
    attempted += 1;
    let reopen_s = if dep.root.is_some() {
        let (reopen_s, reopen_failed, ..) = close_and_reopen(dep);
        failed += reopen_failed;
        reopen_s
    } else {
        let lists = check::snapshot(dep.server.store());
        let plan = bed.plan.clone();
        let copy = lists.clone();
        let t = Instant::now();
        let rebuilt = ShardedStore::new(OrderedIndex::from_parts(copy, plan));
        let s = t.elapsed().as_secs_f64();
        failed += check::differing_lists(&lists, &check::snapshot(&rebuilt)).min(1) as u64;
        s
    };

    let traced_ns = summary.total_ns(Kind::Op);
    let layers = summary.layer_self_ns();
    let layer_ns = |l: Layer| layers.get(&l).copied().unwrap_or(0.0);
    let r = &read_counters;
    let w = &insert_counters;
    let us = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64, 0.0);
    let self_us = |kind: Kind, n: u64| ratio(summary.self_ns(kind) / 1e3, n as f64, 0.0);
    let metrics = vec![
        Metric {
            name: "zerber.open_us_per_query",
            value: us(summary.total_ns(Kind::Open), counts.queries),
            unit: "us",
        },
        Metric {
            name: "zerber.opens_per_query",
            value: ratio(counts.opens as f64, counts.queries as f64, 0.0),
            unit: "count",
        },
        Metric {
            name: "zerber.seal_us_per_element",
            value: us(summary.total_ns(Kind::Seal), summary.count(Kind::Seal)),
            unit: "us",
        },
        Metric {
            name: "client.kept_per_open",
            value: ratio(counts.kept as f64, counts.opens as f64, 0.0),
            unit: "ratio",
        },
        Metric {
            name: "client.self_us_per_query",
            value: self_us(Kind::Client, counts.queries),
            unit: "us",
        },
        Metric {
            name: "rstf.transform_us_per_element",
            value: us(
                summary.total_ns(Kind::Transform),
                summary.count(Kind::Transform),
            ),
            unit: "us",
        },
        Metric {
            name: "acl.auth_us_per_call",
            value: cost.authenticate_ns as f64 / 1e3,
            unit: "us",
        },
        Metric {
            name: "acl.auth_checks_per_request",
            value: ratio(r.auth_checks as f64, r.requests as f64, 0.0),
            unit: "count",
        },
        Metric {
            name: "server.self_us_per_request",
            value: self_us(Kind::ServerRead, r.requests),
            unit: "us",
        },
        Metric {
            name: "server.lock_acquisitions_per_request",
            value: ratio(r.locks as f64, r.requests as f64, 0.0),
            unit: "count",
        },
        Metric {
            name: "pool.round_us",
            value: us(pool.nanos, pool.rounds),
            unit: "us",
        },
        Metric {
            name: "pool.stolen_bucket_frac",
            value: ratio(pool.stolen as f64, pool.buckets as f64, 0.0),
            unit: "ratio",
        },
        Metric {
            name: "pool.mean_bucket_jobs",
            value: ratio(pool.jobs as f64, pool.buckets as f64, 0.0),
            unit: "count",
        },
        Metric {
            name: "pool.max_bucket_jobs",
            value: pool.max_bucket_jobs as f64,
            unit: "count",
        },
        Metric {
            name: "store.fetch_us_per_request",
            value: us(
                summary.total_ns(Kind::StoreBucket)
                    + summary.total_ns(Kind::StoreRead)
                    + summary.total_ns(Kind::StorePlan),
                r.requests,
            ),
            unit: "us",
        },
        Metric {
            name: "store.scanned_per_element_sent",
            value: ratio(r.scanned as f64, r.elements_sent as f64, 0.0),
            unit: "ratio",
        },
        Metric {
            name: "spill.page_hit_rate",
            value: ratio(
                r.page_hits as f64,
                (r.page_hits + r.page_faults) as f64,
                1.0,
            ),
            unit: "ratio",
        },
        Metric {
            name: "spill.faults_per_query",
            value: ratio(r.page_faults as f64, queries_per_read as f64, 0.0),
            unit: "count",
        },
        Metric {
            name: "store.insert_us_per_element",
            value: us(
                summary.total_ns(Kind::StoreInsert),
                summary.count(Kind::StoreInsert),
            ),
            unit: "us",
        },
        Metric {
            name: "spill.compactions_per_doc",
            value: ratio(
                (r.compactions + w.compactions) as f64,
                counts.docs as f64,
                0.0,
            ),
            unit: "count",
        },
        Metric {
            name: "spill.retier_moves_per_doc",
            value: ratio(
                (r.retier_moves + w.retier_moves) as f64,
                counts.docs as f64,
                0.0,
            ),
            unit: "count",
        },
        Metric {
            name: "spill.dead_page_frac",
            value: dead_page_frac,
            unit: "ratio",
        },
        Metric {
            name: "durable.wal_bytes_per_user_byte",
            value: ratio(w.wal_bytes as f64, w.bytes_in as f64, 0.0),
            unit: "ratio",
        },
        Metric {
            name: "durable.reopen_s",
            value: reopen_s,
            unit: "s",
        },
        Metric {
            name: "message.codec_us_per_response",
            value: codec_us,
            unit: "us",
        },
        Metric {
            name: "trace.unattributed_frac",
            value: ratio(layer_ns(Layer::Unattributed), traced_ns as f64, 0.0),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(traced_ns as f64, plain_ns as f64, 1.0) - 1.0,
            unit: "ratio",
        },
    ];
    let mut layer_info: Vec<String> = layers
        .iter()
        .map(|(l, ns)| format!("{}: {}", json_str(&format!("{l:?}")), json_num(*ns / 1e9)))
        .collect();
    layer_info.sort();
    info.extend([
        ("traced_ops".to_string(), ops.len().to_string()),
        ("traced_s".to_string(), json_num(traced_ns as f64 / 1e9)),
        ("untraced_s".to_string(), json_num(plain_ns as f64 / 1e9)),
        (
            "layer_self_s".to_string(),
            format!("{{{}}}", layer_info.join(", ")),
        ),
    ]);
    Report {
        attempted,
        failed,
        metrics,
        info,
    }
}
