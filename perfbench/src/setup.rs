//! Workload generation: the test bed, its users, the query sample and the
//! documents owners insert — all derived from the run's seed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use zerber_corpus::{DatasetProfile, DocId, GroupId, TermId};
use zerber_crypto::GroupKeys;
use zerber_protocol::{AccessControl, AuthToken, Client, IndexServer};
use zerber_r::OrderedIndex;
use zerber_store::{
    DurableConfig, ListStore, RealIo, SegmentConfig, ShardedStore, SpillConfig, SpillStore,
};
use zerber_workload::{QueryLogConfig, TestBed, TestBedConfig};

use crate::trace::{TracedStore, Tracer};

/// Input size of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// StudIP corpus scale relative to the paper's collection.
    pub scale: f64,
    /// Multi-term queries in the query log (one pass).
    pub queries: usize,
    /// Users whose initial requests fill the cross-user rounds.
    pub round_users: usize,
    /// Requests per cross-user round.
    pub round_len: usize,
    /// Documents `topk_interactive` and `batched_rounds` insert during their
    /// timed phase.
    pub burst_docs: usize,
    /// `ingest_mixed` cycles (9 queries + 1 insert) whose counts are
    /// reported, and the fewest cycles a run makes.
    pub prefix_cycles: usize,
    pub min_cycles: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed operations after set-up.
    pub warmup_ops: usize,
    /// Queries re-checked after the timed phase (post-insert, post-reopen).
    pub verify_queries: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            scale: 0.1,
            queries: 2000,
            round_users: 64,
            round_len: 64,
            burst_docs: 300,
            prefix_cycles: 100,
            min_cycles: 200,
            setups: 7,
            warmup_ops: 100,
            verify_queries: 200,
        }
    }

    /// A seconds-long size for the benchmark's own tests.
    pub fn tiny() -> Self {
        Size {
            scale: 0.02,
            queries: 40,
            round_users: 8,
            round_len: 8,
            burst_docs: 20,
            prefix_cycles: 6,
            min_cycles: 8,
            setups: 1,
            warmup_ops: 4,
            verify_queries: 10,
        }
    }
}

/// Documents an owner inserts: corpus documents under fresh ids.
#[derive(Debug, Clone)]
pub struct NewDoc {
    pub doc: DocId,
    pub group: GroupId,
    pub terms: Vec<(TermId, u32)>,
}

/// Seed of the synthetic StudIP corpus, its RSTF training split, index
/// placement and keys.
pub const DATASET_SEED: u64 = 0x5d1f;

/// Size strata of the documents an owner inserts.
const STRATA: usize = 50;

/// `0..n` in a seed-determined order (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// First id of inserted documents (above every corpus id).
const NEW_DOC_BASE: u32 = 10_000_000;

/// `splitmix64`: a seed-derived stream for user memberships and orderings.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything generated from the seed before the server is built.
pub struct Inputs {
    pub bed: TestBed,
    pub queries: Vec<Vec<TermId>>,
    /// Group memberships of `user-0`, `user-1`, ...
    pub users: Vec<Vec<GroupId>>,
    pub acl: AccessControl,
    /// Corpus documents whose term counts inserted documents copy, by
    /// ascending number of distinct terms.
    doc_ids: Vec<DocId>,
    seed: u64,
}

impl Inputs {
    /// Synthesizes the corpus, trains the RSTF, builds the ordered index and
    /// generates users, queries and insert documents.
    pub fn generate(seed: u64, size: &Size, users: usize) -> Self {
        // The corpus and the query log are the dataset: fixed across runs.
        // The seed draws the workload over them — the order the logged
        // queries run in, each user's groups and the inserted documents —
        // stratified so that seeds differ in which items they pick, not in
        // how heavy the picks are.
        let bed = TestBed::build(TestBedConfig {
            scale: size.scale,
            seed: DATASET_SEED,
            ..TestBedConfig::small(DatasetProfile::StudIp)
        })
        .expect("the StudIP test bed builds");
        let log = bed
            .query_log(&QueryLogConfig {
                sample_queries: size.queries,
                seed: DATASET_SEED,
                ..QueryLogConfig::default()
            })
            .expect("the query log generates");
        let logged = log.sampled_queries();
        let queries = shuffled(logged.len(), seed ^ 0x0051)
            .into_iter()
            .map(|i| logged[i].clone())
            .collect();

        // Each user belongs to half of the groups, so the server's
        // visibility filter has work to do: of each pair of groups with
        // adjacent sizes, the seed picks one.
        let mut by_size: Vec<GroupId> = (0..bed.corpus.num_groups() as u32).map(GroupId).collect();
        by_size.sort_by_key(|&g| (std::cmp::Reverse(bed.corpus.docs_in_group(g).len()), g));
        let users: Vec<Vec<GroupId>> = (0..users as u64)
            .map(|u| {
                let mut mine: Vec<GroupId> = by_size
                    .chunks(2)
                    .enumerate()
                    .map(|(pair, groups)| {
                        let pick = mix(seed ^ (u << 32) ^ pair as u64) as usize;
                        groups[pick % groups.len()]
                    })
                    .collect();
                mine.sort();
                mine
            })
            .collect();
        let mut acl = AccessControl::new(b"perfbench-server");
        for (u, groups) in users.iter().enumerate() {
            acl.register_user(&user_name(u), groups);
        }

        // Inserted documents copy corpus documents, taken in rounds of one
        // per size stratum.
        let mut doc_ids: Vec<DocId> = bed.corpus.doc_ids().collect();
        doc_ids.sort_by_key(|&d| (bed.corpus.doc(d).map_or(0, |e| e.term_counts.len()), d));
        Inputs {
            bed,
            queries,
            users,
            acl,
            doc_ids,
            seed,
        }
    }

    /// The `i`-th document `user-0` inserts: a corpus document's term
    /// counts under a fresh id, in one of the owner's groups.  Every run of
    /// `STRATA` inserts takes one document from each size stratum, in a
    /// seed-determined order.
    pub fn new_doc(&self, i: usize) -> NewDoc {
        let strata = STRATA.min(self.doc_ids.len());
        let round = (i / strata) as u64;
        let stratum = shuffled(strata, self.seed ^ 0xd0c ^ round)[i % strata];
        let (lo, hi) = (
            stratum * self.doc_ids.len() / strata,
            (stratum + 1) * self.doc_ids.len() / strata,
        );
        let pick = lo + mix(self.seed ^ ((i as u64) << 8)) as usize % (hi - lo);
        let owner = &self.users[0];
        NewDoc {
            doc: DocId(NEW_DOC_BASE + i as u32),
            group: owner[i % owner.len()],
            terms: self
                .bed
                .corpus
                .doc(self.doc_ids[pick])
                .expect("document ids come from the corpus")
                .term_counts
                .clone(),
        }
    }

    /// The key ring of user `u`.
    pub fn keys(&self, u: usize) -> HashMap<GroupId, GroupKeys> {
        self.users[u]
            .iter()
            .map(|&g| (g, self.bed.master.group_keys(g.0)))
            .collect()
    }

    pub fn token(&self, u: usize) -> AuthToken {
        self.acl.issue_token(&user_name(u))
    }

    pub fn client(&self, u: usize) -> Client {
        Client::new(user_name(u), self.token(u), self.keys(u))
    }
}

pub fn user_name(u: usize) -> String {
    format!("user-{u}")
}

/// Hardware threads of this machine.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The storage engine a workload serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The default sharded in-memory engine (`IndexServer::new`).
    Sharded,
    /// A durable spill store whose resident budget and page cache hold
    /// about a quarter of the index.
    Durable,
}

/// A directory for durable store roots inside the working directory.
pub fn data_dir() -> PathBuf {
    PathBuf::from(".perfbench-data")
}

/// A fresh durable root; removed by [`remove_root`].
pub fn fresh_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    data_dir().join(format!("{tag}-{}-{n}", std::process::id()))
}

pub fn remove_root(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    // Leaves the parent in place while another root still lives in it.
    let _ = std::fs::remove_dir(data_dir());
}

/// Spill tuning for `ingest_mixed`: resident segments and the page cache
/// hold about a quarter of the index — a quarter of its stored bytes as the
/// resident budget and a 4-page cache per shard.
pub fn spill_config(index: &OrderedIndex, shards: usize) -> SpillConfig {
    SpillConfig {
        resident_budget_bytes: index.stored_bytes() / 4 / shards,
        page_cache_pages: 4,
        ..SpillConfig::default()
    }
}

/// Builds the storage engine, wrapped in a [`TracedStore`] when traced.
pub fn build_store(
    engine: Engine,
    index: OrderedIndex,
    root: Option<&Path>,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn ListStore> {
    let shards = hardware_threads();
    let store: Box<dyn ListStore> = match engine {
        Engine::Sharded => Box::new(ShardedStore::new(index)),
        Engine::Durable => {
            let config = spill_config(&index, shards);
            Box::new(
                SpillStore::create_durable_with(
                    index,
                    root.expect("a durable engine needs a root"),
                    shards,
                    config,
                    SegmentConfig::default(),
                    DurableConfig::default(),
                    RealIo::shared(),
                    false,
                )
                .expect("the durable spill store builds"),
            )
        }
    };
    match tracer {
        Some(tracer) => Box::new(TracedStore::new(store, Arc::clone(tracer))),
        None => store,
    }
}

pub fn build_server(
    inputs: &Inputs,
    engine: Engine,
    root: Option<&Path>,
    tracer: Option<&Arc<Tracer>>,
) -> IndexServer {
    let store = build_store(engine, inputs.bed.index.clone(), root, tracer);
    IndexServer::with_store(store, inputs.acl.clone())
}
