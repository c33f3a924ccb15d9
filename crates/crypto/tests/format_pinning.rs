//! Format pinning: sealed boxes, posting-element ciphertexts, term tokens
//! and server auth tokens are stored in WALs and page files or handed to
//! users, so their bytes must never change.  The expected values were
//! produced by the implementation that first wrote them.

use proptest::prelude::*;
use zerber_crypto::sha256::{to_hex, Sha256, BLOCK_LEN};
use zerber_crypto::{AeadKey, CryptoError, DeterministicRng, HmacSha256, MasterKey, OVERHEAD};

fn aead_key() -> AeadKey {
    AeadKey::new([0x11; 32], [0x22; 32])
}

#[test]
fn aead_seal_bytes_are_pinned() {
    let k = aead_key();
    let cases = [
        (
            &[1; 12],
            b"term=imclone doc=7 score=0.4".to_vec(),
            b"list-3".to_vec(),
            "01010101010101010101010101e44ce737612187b2eaa96c1ebf7d5b16dd417b\
             65525740a74392003360663a48c7030d8517b23d8af7d675",
        ),
        (
            &[6; 12],
            Vec::new(),
            Vec::new(),
            "06060606060606060606060608921eacb3d91baef24d79feccf44017",
        ),
        (
            // Three keystream blocks and an AAD longer than a SHA-256 block.
            &[9; 12],
            (0u8..150).collect(),
            vec![0xaa; 70],
            "090909090909090909090909de418e5bd1ba96a8312557126af4a982458c2ed7\
             a73b5ca29b5b0f695133110bb699bb27b985b419b7b31f7697ab3a264aca2ef6\
             971ac7af03c69baa8234654517eb547a73a3100c2ca487b18056854eba908678\
             8f8f7b2f852140b0ac072ceb948e6e0e20d2fe9c7d88de13abf8ca15a6404ab0\
             ea0eb764869cc204cf1b1029e75987c28cd85570720cbcfe5d18c17e1b8e01a2\
             a04875493a54430a6599505e5a1de64d7990",
        ),
    ];
    for (nonce, plaintext, aad, want) in cases {
        let sealed = k.seal(nonce, &plaintext, &aad).unwrap();
        assert_eq!(to_hex(&sealed), want);
        assert_eq!(k.open(&sealed, &aad).unwrap(), plaintext);
    }
}

#[test]
fn posting_element_seal_bytes_are_pinned() {
    // The composition `EncryptedElement::seal` uses: group keys derived from
    // the master key, a nonce from the deterministic RNG, the 16-byte
    // little-endian payload (term 7, doc 42, tf 3, |d| 12) and the merged
    // list id (3) as associated data.
    let keys = MasterKey::new([9; 32]).group_keys(2);
    let mut rng = DeterministicRng::from_u64(5);
    let mut payload = Vec::new();
    for word in [7u32, 42, 3, 12] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    let aad = 3u64.to_le_bytes();
    let want = [
        "9eaa5ec1b16abcbfab2bf4d8fa203617bc569ad784554733e57c4fd5e29ad62e2484cb71c6a7fe3e8ae47ec6",
        "d5b5c52f3b88ca043fcec1748134e93cb3ade94168b88ab773528b2a19e1329c9090cfe5f42824b8acdd6e5f",
    ];
    for want in want {
        let sealed = keys.aead().seal(&rng.nonce(), &payload, &aad).unwrap();
        assert_eq!(to_hex(&sealed), want);
    }
}

#[test]
fn term_token_and_auth_token_macs_are_pinned() {
    let keys = MasterKey::new([9; 32]).group_keys(2);
    assert_eq!(
        keys.term_token("imclone").to_hex(),
        "288ee8a7764c7a7364d8cc10f46d1cf7"
    );
    // The server's bearer token for `john`; also Python's
    // `hmac.new(b"server-secret", b"john", hashlib.sha256)`.
    assert_eq!(
        to_hex(&HmacSha256::mac(b"server-secret", b"john")),
        "b51b1b19ca661ce626c92d12f9f694fbd5d406c1464d5e9595d572f423fa3944"
    );
}

#[test]
fn open_into_verifies_before_writing_and_types_length_errors() {
    let k = aead_key();
    let sealed = k.seal(&[4; 12], b"sixteen bytes!!!", b"l").unwrap();
    let mut out = [0u8; 16];
    k.open_into(&sealed, b"l", &mut out).unwrap();
    assert_eq!(&out, b"sixteen bytes!!!");

    let mut tampered = sealed.clone();
    tampered[OVERHEAD / 2] ^= 1;
    let mut out = [0xee; 16];
    assert_eq!(
        k.open_into(&tampered, b"l", &mut out),
        Err(CryptoError::AuthenticationFailed)
    );
    assert_eq!(out, [0xee; 16], "a rejected box writes nothing");

    for len in [15usize, 17, 0] {
        let mut out = vec![0xee; len];
        assert_eq!(
            k.open_into(&sealed, b"l", &mut out),
            Err(CryptoError::OutputLengthMismatch {
                expected: 16,
                got: len
            })
        );
        assert!(out.iter().all(|&b| b == 0xee));
    }
    assert_eq!(
        k.open_into(&sealed[..OVERHEAD - 1], b"l", &mut []),
        Err(CryptoError::CiphertextTooShort)
    );
}

/// HMAC straight from its definition, `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`,
/// as an oracle independent of the midstate shortcut.
fn reference_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        block[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(msg);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&Sha256::digest(&inner));
    Sha256::digest(&outer)
}

/// Message lengths at the SHA-256 padding edges (after the 64-byte ipad
/// block), plus a few ordinary ones.
const MESSAGE_LENGTHS: [usize; 10] = [0, 1, 32, 55, 56, 63, 64, 119, 120, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cloned_prekeyed_hmac_equals_one_shot_mac(
        key in proptest::collection::vec(any::<u8>(), 0..131),
        length in 0usize..MESSAGE_LENGTHS.len(),
        fill in any::<u8>(),
        split in 0usize..201,
    ) {
        let len = MESSAGE_LENGTHS[length];
        let msg: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let template = HmacSha256::new(&key);
        // Use the template once first: clones must not share state.
        let mut warm = template.clone();
        warm.update(b"an earlier message");
        let _ = warm.finalize();
        let mut h = template.clone();
        let (a, b) = msg.split_at(split.min(len));
        h.update(a);
        h.update(b);
        let tag = h.finalize();
        prop_assert_eq!(tag, HmacSha256::mac(&key, &msg));
        prop_assert_eq!(tag, reference_hmac(&key, &msg));
    }
}
