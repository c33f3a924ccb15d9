//! Criterion micro-benchmarks for the crypto substrate: hashing, keystream,
//! posting-element seal/open and the server's token check.  Seal bounds the
//! index build and insert rates; open and the token check sit on every
//! query.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use zerber_base::{EncryptedElement, MergedListId, PostingPayload};
use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::{ChaCha20, DeterministicRng, HmacSha256, MasterKey, Sha256};
use zerber_protocol::AccessControl;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| Sha256::digest(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_hmac_and_chacha(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyed_primitives");
    let data = vec![0x5au8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("hmac_sha256_1KiB", |b| {
        b.iter(|| HmacSha256::mac(b"key", std::hint::black_box(&data)))
    });
    let cipher = ChaCha20::new(&[7u8; 32]).unwrap();
    group.bench_function("chacha20_1KiB", |b| {
        b.iter(|| {
            cipher
                .encrypt(&[1u8; 12], 0, std::hint::black_box(&data))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_posting_element_seal_open(c: &mut Criterion) {
    let keys = MasterKey::new([9u8; 32]).group_keys(0);
    let payload = PostingPayload {
        term: TermId(42),
        doc: DocId(7),
        tf: 3,
        doc_len: 120,
    };
    let mut rng = DeterministicRng::from_u64(1);
    let sealed =
        EncryptedElement::seal(&payload, GroupId(0), &keys, MergedListId(3), &mut rng).unwrap();
    let mut group = c.benchmark_group("posting_element");
    group.bench_function("seal", |b| {
        b.iter(|| {
            EncryptedElement::seal(
                std::hint::black_box(&payload),
                GroupId(0),
                &keys,
                MergedListId(3),
                &mut rng,
            )
            .unwrap()
        })
    });
    group.bench_function("open", |b| {
        b.iter(|| sealed.open(&keys, MergedListId(3)).unwrap())
    });
    // The client's path: open the wire bytes in place.
    group.bench_function("open_sealed", |b| {
        b.iter(|| {
            EncryptedElement::open_sealed(
                std::hint::black_box(&sealed.ciphertext),
                &keys,
                MergedListId(3),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_acl_authenticate(c: &mut Criterion) {
    let mut acl = AccessControl::new(b"server-secret");
    acl.register_user("user-0", &[GroupId(0), GroupId(2)]);
    let token = acl.issue_token("user-0");
    let mut group = c.benchmark_group("acl");
    group.bench_function("acl_authenticate", |b| {
        b.iter(|| {
            acl.authenticate(std::hint::black_box("user-0"), &token)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256, bench_hmac_and_chacha, bench_posting_element_seal_open,
        bench_acl_authenticate
);
criterion_main!(benches);
