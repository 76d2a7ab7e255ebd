//! Symmetric cryptography for the PPDA protocols, implemented from scratch.
//!
//! The paper encrypts every sharing-phase packet with **AES-128** using keys
//! pre-shared during bootstrapping ("each packet is encrypted using AES-128
//! … assumed to be already shared with the destination node during the
//! bootstrapping phase"). This crate provides:
//!
//! * [`Aes128`] — the FIPS-197 block cipher (encrypt + decrypt), verified
//!   against the official test vectors, with a hardware backend (below).
//! * [`ctr`] — CTR keystream mode (NIST SP 800-38A).
//! * [`CbcMac`] — CBC-MAC over whole blocks, the authentication core of CCM.
//! * [`Ccm`] — CCM authenticated encryption as used by IEEE 802.15.4
//!   security (L = 2, 13-byte nonce, 4/8/16-byte tag), verified against
//!   RFC 3610 vectors.
//! * [`CtrDrbg`] — a deterministic AES-CTR random bit generator implementing
//!   [`rand::RngCore`], used for protocol share randomness.
//! * [`PairwiseKeys`] — the bootstrap-phase pairwise key store: every
//!   unordered node pair {i, j} owns a distinct AES key derived from a
//!   network master secret.
//!
//! # AES backends
//!
//! Every primitive above runs on [`Aes128`], which has three encryption
//! paths over one key schedule: AES-NI ([`Aes128::encrypt_block`] and the
//! four-blocks-in-flight [`Aes128::encrypt_blocks`] on x86 / x86-64 CPUs
//! that report the `aes` feature), the portable T-table
//! ([`Aes128::encrypt_block_portable`], used everywhere else) and the
//! byte-oriented FIPS-197 transcription
//! ([`Aes128::encrypt_block_reference`], the oracle). [`Aes128::new`]
//! probes the CPU once per key schedule and stores the choice, so callers
//! never select a backend and every path emits the same bytes; the KATs run
//! on both backends and the property suite checks the three paths against
//! each other. [`aes_backend_name`] reports the host's choice for benchmark
//! records. Decryption stays portable, since no CTR/CCM path decrypts.
//!
//! The crate denies `unsafe_code`. The one exception is the private AES-NI
//! module, which allows it for the intrinsics and gives a SAFETY argument on
//! every block; the hardware path can only be reached through a token that
//! exists once the CPU has reported AES-NI.
//!
//! # Example
//!
//! ```
//! use ppda_crypto::{Ccm, PairwiseKeys};
//!
//! # fn main() -> Result<(), ppda_crypto::CryptoError> {
//! let keys = PairwiseKeys::derive(&[7u8; 16], 8);
//! let ccm = Ccm::new(keys.key(2, 5)?, 4)?;
//! let nonce = Ccm::nonce(2, 5, 0, 42);
//! let ct = ccm.seal(&nonce, b"round-42", b"secret share")?;
//! assert_eq!(ccm.open(&nonce, b"round-42", &ct)?, b"secret share");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod cbc_mac;
mod ccm;
pub mod ctr;
mod drbg;
mod error;
mod keys;

pub use aes::{aes_backend_name, Aes128, Block, Key, BLOCK_LEN, KEY_LEN};
pub use cbc_mac::CbcMac;
pub use ccm::{Ccm, NONCE_LEN};
pub use drbg::CtrDrbg;
pub use error::CryptoError;
pub use keys::PairwiseKeys;
