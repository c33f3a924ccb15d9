//! Tests of the benchmark itself: metric names against `BENCHMARK.json`,
//! the correctness checks against deliberately wrong answers, and the trace
//! accounting.

use std::collections::BTreeSet;
use std::sync::Arc;

use zerber_crypto::DeterministicRng;
use zerber_perfbench::check::{self, Reference};
use zerber_perfbench::replay::{AclCost, TracedClient};
use zerber_perfbench::setup::{self, Engine, Inputs, Size};
use zerber_perfbench::trace::{self, Kind, Span, Tracer};
use zerber_perfbench::{run, Options, Workload};
use zerber_protocol::QueryRequest;
use zerber_r::RetrievalConfig;

/// A minimal JSON reader: enough for `BENCHMARK.json`.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Self::value(bytes, &mut pos);
        Self::ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing characters");
        value
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        Self::ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Self::ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = Self::value(b, pos) else {
                        panic!("object keys are strings")
                    };
                    Self::ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    fields.push((key, Self::value(b, pos)));
                    Self::ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Self::ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(Self::value(b, pos));
                    Self::ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                *pos += 1;
                let start = *pos;
                while b[*pos] != b'"' {
                    assert_ne!(b[*pos], b'\\', "escapes are not needed here");
                    *pos += 1;
                }
                *pos += 1;
                Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                let word: String = b[*pos..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                *pos += word.len();
                match word.as_str() {
                    "true" | "false" => Json::Bool,
                    _ => Json::Null,
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len() && b"+-.eE0123456789".contains(&b[*pos]) {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).unwrap();
                text.parse::<f64>().expect("a JSON number");
                Json::Num
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }

    fn names(&self, key: &str) -> BTreeSet<String> {
        let Json::Arr(items) = self.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|item| match item.get("name") {
                Json::Str(s) => s.clone(),
                _ => panic!("names are strings"),
            })
            .collect()
    }
}

fn definition() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark"))
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::tiny(),
    }
}

#[test]
fn tiny_runs_emit_exactly_the_declared_metrics() {
    let def = definition();
    let end_to_end = def.names("end_to_end");
    let per_layer = def.names("per_layer");
    let workloads = def.names("workloads");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(&tiny(workload, trace));
            assert!(report.correct(), "{workload:?} trace={trace}: {report:?}");
            let got: BTreeSet<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(&got, want, "{workload:?} trace={trace}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            let line = report.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn count_metrics_repeat_exactly_for_one_seed() {
    let counts = [
        "requests_per_query",
        "kib_per_query",
        "resident_mib",
        "space_amp",
    ];
    let a = run(&tiny(Workload::IngestMixed, false));
    let b = run(&tiny(Workload::IngestMixed, false));
    for name in counts {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
    let layer_counts = [
        "zerber.opens_per_query",
        "client.kept_per_open",
        "acl.auth_checks_per_request",
        "server.lock_acquisitions_per_request",
        "spill.faults_per_query",
        "spill.compactions_per_doc",
        "spill.retier_moves_per_doc",
        "durable.wal_bytes_per_user_byte",
    ];
    let a = run(&tiny(Workload::IngestMixed, true));
    let b = run(&tiny(Workload::IngestMixed, true));
    for name in layer_counts {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
}

#[test]
fn query_check_rejects_a_reordered_result() {
    let size = Size::tiny();
    let inputs = Inputs::generate(3, &size, 1);
    let server = setup::build_server(&inputs, Engine::Sharded, None, None);
    let client = inputs.client(0);
    let mut reference = Reference::new(&inputs.bed, 10);
    let groups = &inputs.users[0];
    let terms = inputs
        .queries
        .iter()
        .find(|terms| {
            let out = client
                .query_multi(
                    &server,
                    &inputs.bed.plan,
                    terms,
                    &RetrievalConfig::for_k(10),
                )
                .unwrap();
            out.0.len() >= 2
                && out.1[0].results.len() >= 2
                && out.1[0].results[0].1 != out.1[0].results[1].1
        })
        .expect("some query ranks two distinct scores");
    let outcome = client
        .query_multi(
            &server,
            &inputs.bed.plan,
            terms,
            &RetrievalConfig::for_k(10),
        )
        .unwrap();
    assert!(reference.check_query(groups, terms, &outcome));

    let mut per_term = outcome.clone();
    per_term.1[0].results.swap(0, 1);
    assert!(!reference.check_query(groups, terms, &per_term));

    let mut merged = outcome.clone();
    merged.0.swap(0, 1);
    assert!(!reference.check_query(groups, terms, &merged));

    let mut foreign = outcome;
    foreign.1[0].results[0].0 = zerber_corpus::DocId(9_999_999);
    assert!(!reference.check_query(groups, terms, &foreign));
}

#[test]
fn round_and_snapshot_checks_reject_a_flipped_ciphertext_byte() {
    let size = Size::tiny();
    let inputs = Inputs::generate(4, &size, 2);
    let server = setup::build_server(&inputs, Engine::Sharded, None, None);
    let config = RetrievalConfig::for_k(10);
    let mut requests: Vec<(QueryRequest, Vec<zerber_corpus::GroupId>)> = Vec::new();
    let mut stream = Vec::new();
    for (j, terms) in inputs.queries.iter().take(6).enumerate() {
        let client = inputs.client(j % 2);
        for &term in terms {
            let (request, token) = client
                .prepare_initial(&inputs.bed.plan, term, &config)
                .unwrap();
            requests.push((request.clone(), inputs.users[j % 2].clone()));
            stream.push((request, token));
        }
    }
    let expected = check::expected_responses(server.store(), &requests);
    let mut responses: Vec<_> = server
        .handle_query_stream(&stream)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(responses, expected);
    let victim = responses
        .iter()
        .position(|r| !r.elements.is_empty())
        .unwrap();
    responses[victim].elements[0].ciphertext[3] ^= 0x40;
    assert_ne!(responses, expected);

    let before = check::snapshot(server.store());
    let mut after = before.clone();
    let list = after.iter().position(|l| !l.is_empty()).unwrap();
    after[list][0].sealed.ciphertext[5] ^= 0x01;
    assert_eq!(check::differing_lists(&before, &before), 0);
    assert_eq!(check::differing_lists(&before, &after), 1);
    assert_eq!(
        check::differing_content(&before, &after, &inputs.bed.master),
        1
    );
}

/// Every span's self time, the ACL's attributed share and the unattributed
/// remainder partition the traced operations' wall time.
fn assert_partition(summary: &trace::Summary) {
    let total = summary.total_ns(Kind::Op) as f64;
    let parts: f64 = summary.layer_self_ns().values().sum();
    assert!(total > 0.0);
    assert!(
        (parts - total).abs() <= 1e-6 * total,
        "parts {parts} total {total}"
    );
}

#[test]
fn layer_self_times_and_unattributed_add_up_to_operation_time() {
    // Synthetic: an op with a client span, a server call with attributed
    // auth, and two overlapping buckets under a round.
    let span = |id, parent, kind, start, end, round| Span {
        id,
        parent,
        kind,
        start,
        end,
        jobs: 1,
        round,
    };
    let spans = vec![
        span(1, 0, Kind::Op, 0, 1000, 0),
        span(2, 1, Kind::Client, 0, 100, 0),
        span(3, 1, Kind::ServerRead, 100, 900, 0),
        span(4, 3, Kind::Acl, 100, 150, 0),
        span(5, 3, Kind::StorePlan, 200, 250, 0),
        span(6, 0, Kind::StoreBucket, 300, 700, 5),
        span(7, 0, Kind::StoreBucket, 400, 800, 5),
    ];
    let mut with_parents = spans;
    with_parents[5].parent = 3;
    with_parents[6].parent = 3;
    let summary = trace::summarize(with_parents, 8);
    assert_partition(&summary);
    assert_eq!(summary.rounds, 1);
    assert_eq!(summary.total_ns(Kind::Pool), 550);
    assert_eq!(summary.self_ns(Kind::StoreBucket), 500.0);
    assert_eq!(summary.self_ns(Kind::Pool), 50.0);
    assert_eq!(summary.self_ns(Kind::Acl), 50.0);
    assert_eq!(summary.self_ns(Kind::Op), 100.0);

    // Real: traced queries, inserts and pooled rounds on a tiny deployment.
    let size = Size::tiny();
    let inputs = Inputs::generate(5, &size, 2);
    let tracer = Arc::new(Tracer::default());
    let server = setup::build_server(&inputs, Engine::Sharded, None, Some(&tracer));
    server.set_shard_workers(2);
    let mut client = TracedClient {
        tracer: &tracer,
        server: &server,
        plan: &inputs.bed.plan,
        user: setup::user_name(0),
        token: inputs.token(0),
        keys: inputs.keys(0),
        k: 10,
        acl: AclCost {
            authenticate_ns: 500,
            check_member_ns: 500,
        },
        rng: DeterministicRng::from_u64(1),
        counts: Default::default(),
        responses: Vec::new(),
        keep_responses: 0,
    };
    for terms in inputs.queries.iter().take(10) {
        client.query(terms).unwrap();
    }
    client
        .insert(&inputs.bed.model, &inputs.new_doc(0))
        .unwrap();
    let config = RetrievalConfig::for_k(10);
    let round: Vec<_> = inputs
        .queries
        .iter()
        .take(8)
        .enumerate()
        .flat_map(|(j, terms)| {
            let c = inputs.client(j % 2);
            terms
                .iter()
                .map(|&t| c.prepare_initial(&inputs.bed.plan, t, &config).unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    tracer.span(Kind::Op, || {
        tracer.span(Kind::ServerRead, || server.handle_query_stream(&round))
    });
    let summary = tracer.summarize();
    assert_partition(&summary);
    assert!(summary.count(Kind::Open) > 0 && summary.count(Kind::StoreInsert) > 0);
    assert!(summary.rounds > 0);
}
