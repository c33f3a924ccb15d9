//! Error type for the cryptographic substrate.

use std::fmt;

/// Errors produced by the crypto substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Authentication tag verification failed (ciphertext was tampered with
    /// or the wrong key was used).
    AuthenticationFailed,
    /// The ciphertext is too short to contain the nonce and tag.
    CiphertextTooShort,
    /// A key had the wrong length.
    InvalidKeyLength { expected: usize, got: usize },
    /// A nonce had the wrong length.
    InvalidNonceLength { expected: usize, got: usize },
    /// HKDF output length request exceeded the RFC 5869 limit (255 blocks).
    OutputTooLong,
    /// The buffer handed to [`crate::AeadKey::open_into`] does not match the
    /// plaintext length of the sealed box.
    OutputLengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication tag mismatch"),
            CryptoError::CiphertextTooShort => write!(f, "ciphertext too short"),
            CryptoError::InvalidKeyLength { expected, got } => {
                write!(
                    f,
                    "invalid key length: expected {expected} bytes, got {got}"
                )
            }
            CryptoError::InvalidNonceLength { expected, got } => {
                write!(
                    f,
                    "invalid nonce length: expected {expected} bytes, got {got}"
                )
            }
            CryptoError::OutputTooLong => write!(f, "requested HKDF output is too long"),
            CryptoError::OutputLengthMismatch { expected, got } => write!(
                f,
                "sealed box holds {expected} plaintext bytes, output buffer has {got}"
            ),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CryptoError::AuthenticationFailed
            .to_string()
            .contains("tag"));
        let e = CryptoError::InvalidKeyLength {
            expected: 32,
            got: 16,
        };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("16"));
        assert!(CryptoError::OutputTooLong.to_string().contains("HKDF"));
    }
}
