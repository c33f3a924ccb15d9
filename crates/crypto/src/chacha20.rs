//! ChaCha20 stream cipher (RFC 8439 / RFC 7539), implemented from scratch.
//!
//! ChaCha20 produces the keystream that encrypts posting-element payloads
//! (term id, document id, raw relevance score).  The paper only requires an
//! IND-CPA cipher that turns posting elements into opaque fixed-size blobs;
//! ChaCha20 is chosen because it is easy to implement correctly in portable
//! Rust and has published test vectors.

use crate::error::CryptoError;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// A ChaCha20 cipher instance bound to a key.
#[derive(Clone)]
pub struct ChaCha20 {
    key_words: [u32; 8],
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "ChaCha20(..)")
    }
}

impl ChaCha20 {
    /// Creates a cipher from a key slice, which must be 32 bytes long.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let key: &[u8; KEY_LEN] = key.try_into().map_err(|_| CryptoError::InvalidKeyLength {
            expected: KEY_LEN,
            got: key.len(),
        })?;
        Ok(Self::from_key(key))
    }

    /// Creates a cipher from a 32-byte key.
    pub fn from_key(key: &[u8; KEY_LEN]) -> Self {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            key_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key_words }
    }

    /// Generates the 64-byte keystream block for `(counter, nonce)`.
    pub fn block(&self, counter: u32, nonce: &[u8]) -> Result<[u8; BLOCK_LEN], CryptoError> {
        if nonce.len() != NONCE_LEN {
            return Err(CryptoError::InvalidNonceLength {
                expected: NONCE_LEN,
                got: nonce.len(),
            });
        }
        let mut nonce_words = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            nonce_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key_words);
        state[12] = counter;
        state[13..16].copy_from_slice(&nonce_words);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Ok(out)
    }

    /// XORs `data` with the keystream starting at block `initial_counter`.
    ///
    /// Encryption and decryption are the same operation.
    pub fn apply_keystream(
        &self,
        nonce: &[u8],
        initial_counter: u32,
        data: &mut [u8],
    ) -> Result<(), CryptoError> {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = self.block(counter, nonce)?;
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
        Ok(())
    }

    /// Convenience: returns the encryption of `data` without mutating it.
    pub fn encrypt(
        &self,
        nonce: &[u8],
        initial_counter: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = data.to_vec();
        self.apply_keystream(nonce, initial_counter, &mut out)?;
        Ok(out)
    }
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn rfc_key() -> Vec<u8> {
        (0u8..32).collect()
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let cipher = ChaCha20::new(&rfc_key()).unwrap();
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = cipher.block(1, &nonce).unwrap();
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector_prefix() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext with counter 1.
        let cipher = ChaCha20::new(&rfc_key()).unwrap();
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = cipher.encrypt(&nonce, 1, plaintext).unwrap();
        assert_eq!(ct.len(), plaintext.len());
        assert_eq!(
            to_hex(&ct[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
    }

    #[test]
    fn decryption_inverts_encryption() {
        let cipher = ChaCha20::new(&[7u8; 32]).unwrap();
        let nonce = [3u8; 12];
        let msg = b"posting element: term=imclone doc=1.txt score=0.4";
        let ct = cipher.encrypt(&nonce, 0, msg).unwrap();
        assert_ne!(&ct[..], &msg[..]);
        let pt = cipher.encrypt(&nonce, 0, &ct).unwrap();
        assert_eq!(&pt[..], &msg[..]);
    }

    #[test]
    fn keystream_differs_across_nonces_and_counters() {
        let cipher = ChaCha20::new(&[9u8; 32]).unwrap();
        let b1 = cipher.block(0, &[0u8; 12]).unwrap();
        let b2 = cipher.block(1, &[0u8; 12]).unwrap();
        let b3 = cipher.block(0, &[1u8; 12]).unwrap();
        assert_ne!(b1, b2);
        assert_ne!(b1, b3);
    }

    #[test]
    fn wrong_key_or_nonce_length_is_rejected() {
        assert!(matches!(
            ChaCha20::new(&[0u8; 16]),
            Err(CryptoError::InvalidKeyLength {
                expected: 32,
                got: 16
            })
        ));
        let cipher = ChaCha20::new(&[0u8; 32]).unwrap();
        assert!(matches!(
            cipher.block(0, &[0u8; 8]),
            Err(CryptoError::InvalidNonceLength {
                expected: 12,
                got: 8
            })
        ));
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let cipher = ChaCha20::from_key(&[0x11; 32]);
        assert_eq!(format!("{cipher:?}"), "ChaCha20(..)");
    }

    #[test]
    fn multi_block_messages_are_handled() {
        let cipher = ChaCha20::new(&[1u8; 32]).unwrap();
        let nonce = [2u8; 12];
        let msg = vec![0xabu8; 300];
        let ct = cipher.encrypt(&nonce, 5, &msg).unwrap();
        let pt = cipher.encrypt(&nonce, 5, &ct).unwrap();
        assert_eq!(pt, msg);
        // A different starting counter must give a different ciphertext.
        let ct2 = cipher.encrypt(&nonce, 6, &msg).unwrap();
        assert_ne!(ct, ct2);
    }
}
