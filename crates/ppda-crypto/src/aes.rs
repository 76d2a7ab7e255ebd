//! AES-128 block cipher (FIPS-197).
//!
//! One key schedule, three encryption paths that produce the same bytes:
//!
//! * **AES-NI** — on x86 / x86-64 hosts whose CPU reports the `aes`
//!   feature, [`Aes128::encrypt_block`] and [`Aes128::encrypt_blocks`] run
//!   the hardware round instructions (`AESENC` / `AESENCLAST`) over the
//!   FIPS byte round keys. [`Aes128::encrypt_blocks`] keeps four
//!   independent blocks in flight, which hides the instruction latency on
//!   CTR keystream runs (the CCM payload, DRBG output).
//! * **Portable** — [`Aes128::encrypt_block_portable`], a word-oriented
//!   T-table round function (SubBytes, ShiftRows and MixColumns folded into
//!   one 256-entry table, built at compile time). Non-x86 targets and x86
//!   hosts without AES-NI run it, and it is the oracle the hardware path is
//!   checked against.
//! * **Reference** — [`Aes128::encrypt_block_reference`], the byte-oriented
//!   transcription of the standard (S-box lookups plus `xtime` doubling),
//!   kept as the auditable oracle for the other two.
//!
//! The path is chosen once per key schedule: [`Aes128::new`] probes the CPU
//! (`is_x86_feature_detected!`, a cached load after the first call) and
//! stores the answer in the cipher, so every later block costs one
//! predictable branch. Every caller — CCM, CBC-MAC, CTR, the DRBG, key
//! derivation, the integrity transcript — gets the hardware path without a
//! code change. Known-answer tests run through both backends and the
//! property suite checks all three paths against each other, so the host's
//! backend never shows in a golden, a replay or a seed-determined metric;
//! [`aes_backend_name`] reports which one a host runs, for benchmark
//! records.
//!
//! Decryption ([`Aes128::decrypt_block`]) stays portable: CTR and CCM only
//! ever encrypt, so no round path decrypts, and a hardware inverse cipher
//! would need a second (InvMixColumns-transformed) key schedule.
//!
//! The crate denies `unsafe_code`; the private `ni` module alone allows it,
//! for the intrinsics, and carries a SAFETY argument on every block. A
//! hardware call is only reachable through an `AesNi` token, which only
//! exists once the CPU has reported the feature.

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// One 16-byte AES block.
pub type Block = [u8; BLOCK_LEN];
/// One 16-byte AES-128 key.
pub type Key = [u8; KEY_LEN];

/// The AES S-box (FIPS-197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box (FIPS-197 Fig. 14).
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2⁸) modulo x⁸+x⁴+x³+x+1.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Multiply two GF(2⁸) elements (only small constants are ever used).
#[inline]
fn gmul(a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    let mut a = a;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// T-table for the word-oriented round function, built at compile time.
///
/// Entry `x` is the MixColumns contribution of a *row-0* state byte `x`
/// (SubBytes folded in), packed little-endian: bytes `[2·S, S, S, 3·S]`.
/// The contributions of rows 1..3 are byte rotations of the same word
/// (`T0.rotate_left(8·r)`), so a single 1 KiB table serves all four rows —
/// a deliberately small cache footprint for the simulator's many
/// interleaved AES contexts.
const T0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = (s2 as u32) | ((s as u32) << 8) | ((s as u32) << 16) | ((s3 as u32) << 24);
        i += 1;
    }
    t
};

#[inline(always)]
fn t0(b: u32) -> u32 {
    T0[(b & 0xff) as usize]
}

/// State column `c` of a block or round key as a little-endian word.
#[inline(always)]
fn column(block: &Block, c: usize) -> u32 {
    u32::from_le_bytes([
        block[4 * c],
        block[4 * c + 1],
        block[4 * c + 2],
        block[4 * c + 3],
    ])
}

/// AES-128 with a precomputed key schedule.
///
/// The state layout follows FIPS-197: byte `i` of a block maps to state row
/// `i % 4`, column `i / 4`. The encryption backend (AES-NI or the portable
/// T-table) is chosen once, in [`Aes128::new`]; see the module docs.
///
/// # Example
///
/// ```
/// use ppda_crypto::Aes128;
/// let aes = Aes128::new(&[0u8; 16]);
/// let block = [1u8; 16];
/// assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
/// ```
#[derive(Clone)]
// Round keys first and 16-byte aligned: no round-key load, 4-byte (T-table)
// or 16-byte (AES-NI), straddles a cache line.
#[repr(C, align(16))]
pub struct Aes128 {
    round_keys: [Block; 11],
    /// Set by [`Aes128::new`] when the CPU has AES-NI; selects the path.
    ni: Option<ni::AesNi>,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128(<key schedule redacted>)")
    }
}

impl Aes128 {
    /// Expand `key` into the 11 round keys and select the encryption
    /// backend for this host.
    pub fn new(key: &Key) -> Self {
        // FIPS-197 §5.2 on little-endian column words: RotWord is a right
        // rotation by one byte and Rcon lands in the low byte.
        let mut round_keys = [*key; 11];
        let mut w = [0, 1, 2, 3].map(|c| column(key, c));
        for (rk, rcon) in round_keys[1..].iter_mut().zip(RCON) {
            let rot = w[3].rotate_right(8).to_le_bytes();
            w[0] ^= u32::from_le_bytes(rot.map(|b| SBOX[b as usize])) ^ rcon as u32;
            w[1] ^= w[0];
            w[2] ^= w[1];
            w[3] ^= w[2];
            for (c, word) in w.iter().enumerate() {
                rk[4 * c..4 * c + 4].copy_from_slice(&word.to_le_bytes());
            }
        }
        Aes128 {
            round_keys,
            ni: ni::AesNi::detect(),
        }
    }

    fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut Block) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut Block) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// Row r (bytes r, r+4, r+8, r+12) rotates left by r positions.
    fn shift_rows(state: &mut Block) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(state: &mut Block) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(state: &mut Block) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(state: &mut Block) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }

    /// Encrypt one block on the backend selected by [`Aes128::new`].
    #[inline]
    pub fn encrypt_block(&self, block: &Block) -> Block {
        match self.ni {
            Some(ni) => ni.encrypt_block(&self.round_keys, block),
            None => self.encrypt_block_portable(block),
        }
    }

    /// Encrypt every block of `blocks` in place, with the backend checked
    /// once for the whole slice.
    ///
    /// Byte-identical to calling [`Aes128::encrypt_block`] on each block.
    /// On AES-NI the blocks run four at a time, interleaved round by round,
    /// so independent blocks (CTR counters) overlap in the pipeline.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        match self.ni {
            Some(ni) => ni.encrypt_blocks(&self.round_keys, blocks),
            None => {
                for block in blocks {
                    *block = self.encrypt_block_portable(block);
                }
            }
        }
    }

    /// Encrypt one block with the word-oriented T-table round function.
    ///
    /// This is the fallback [`Aes128::encrypt_block`] runs on hosts without
    /// AES-NI, and the oracle the hardware path is checked against.
    pub fn encrypt_block_portable(&self, block: &Block) -> Block {
        let rk = &self.round_keys;
        // State column c lives in word c: bytes [row0, row1, row2, row3],
        // little-endian. ShiftRows means output column c pulls row r from
        // input column (c + r) mod 4.
        let mut w0 = column(block, 0) ^ column(&rk[0], 0);
        let mut w1 = column(block, 1) ^ column(&rk[0], 1);
        let mut w2 = column(block, 2) ^ column(&rk[0], 2);
        let mut w3 = column(block, 3) ^ column(&rk[0], 3);
        for round in rk[1..10].iter() {
            let n0 = t0(w0)
                ^ t0(w1 >> 8).rotate_left(8)
                ^ t0(w2 >> 16).rotate_left(16)
                ^ t0(w3 >> 24).rotate_left(24)
                ^ column(round, 0);
            let n1 = t0(w1)
                ^ t0(w2 >> 8).rotate_left(8)
                ^ t0(w3 >> 16).rotate_left(16)
                ^ t0(w0 >> 24).rotate_left(24)
                ^ column(round, 1);
            let n2 = t0(w2)
                ^ t0(w3 >> 8).rotate_left(8)
                ^ t0(w0 >> 16).rotate_left(16)
                ^ t0(w1 >> 24).rotate_left(24)
                ^ column(round, 2);
            let n3 = t0(w3)
                ^ t0(w0 >> 8).rotate_left(8)
                ^ t0(w1 >> 16).rotate_left(16)
                ^ t0(w2 >> 24).rotate_left(24)
                ^ column(round, 3);
            (w0, w1, w2, w3) = (n0, n1, n2, n3);
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let rk10 = &self.round_keys[10];
        let mut out = [0u8; 16];
        let words = [w0, w1, w2, w3];
        for c in 0..4 {
            out[4 * c] = SBOX[(words[c] & 0xff) as usize] ^ rk10[4 * c];
            out[4 * c + 1] = SBOX[((words[(c + 1) % 4] >> 8) & 0xff) as usize] ^ rk10[4 * c + 1];
            out[4 * c + 2] = SBOX[((words[(c + 2) % 4] >> 16) & 0xff) as usize] ^ rk10[4 * c + 2];
            out[4 * c + 3] = SBOX[((words[(c + 3) % 4] >> 24) & 0xff) as usize] ^ rk10[4 * c + 3];
        }
        out
    }

    /// Encrypt one block with the byte-oriented FIPS-197 transcription.
    ///
    /// This is the test oracle for [`Aes128::encrypt_block_portable`] and
    /// the hardware path: slower but a line-by-line match with the
    /// standard's pseudocode. Equivalence over the full input space is
    /// enforced by known-answer tests and the property suite.
    pub fn encrypt_block_reference(&self, block: &Block) -> Block {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Decrypt one block (portable on every host: no round path decrypts).
    pub fn decrypt_block(&self, block: &Block) -> Block {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[10]);
        for round in (1..10).rev() {
            Self::inv_shift_rows(&mut state);
            Self::inv_sub_bytes(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        Self::inv_sub_bytes(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

#[cfg(test)]
impl Aes128 {
    /// `key` on every backend this host can run: the portable T-table
    /// first, then AES-NI when the CPU has it.
    pub(crate) fn every_backend(key: &Key) -> Vec<Aes128> {
        let native = Aes128::new(key);
        let portable = Aes128 {
            ni: None,
            ..native.clone()
        };
        match native.ni {
            Some(_) => vec![portable, native],
            None => vec![portable],
        }
    }
}

/// Which AES backend [`Aes128::new`] selects on this host: `"aes-ni"` or
/// `"portable"`. Benchmark records carry it so runs on different backends
/// are never mixed silently.
///
/// ```
/// assert!(["aes-ni", "portable"].contains(&ppda_crypto::aes_backend_name()));
/// ```
pub fn aes_backend_name() -> &'static str {
    match ni::AesNi::detect() {
        Some(_) => "aes-ni",
        None => "portable",
    }
}

/// The AES-NI backend (x86 / x86-64).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod ni {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::Block;

    /// Proof that the CPU supports AES-NI: only [`AesNi::detect`] makes
    /// one, so holding it makes the `aes` target-feature calls sound.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct AesNi(());

    impl AesNi {
        /// `Some` exactly when the CPU reports the `aes` feature.
        pub(super) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("aes").then_some(AesNi(()))
        }

        #[inline]
        pub(super) fn encrypt_block(self, round_keys: &[Block; 11], block: &Block) -> Block {
            // SAFETY: `self` exists only if the CPU reported AES-NI (which
            // implies SSE2), the only target feature the callee enables.
            unsafe { encrypt_one(round_keys, block) }
        }

        #[inline]
        pub(super) fn encrypt_blocks(self, round_keys: &[Block; 11], blocks: &mut [Block]) {
            // SAFETY: as in `encrypt_block`.
            unsafe { encrypt_many(round_keys, blocks) }
        }
    }

    #[inline]
    #[target_feature(enable = "aes")]
    fn load(block: &Block) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "aes")]
    fn store(state: __m128i, block: &mut Block) {
        // SAFETY: `block` is 16 writable bytes and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), state) }
    }

    /// The FIPS byte round keys load as-is: AES-NI reads state byte `i`
    /// from register byte `i`, the same column-major order the schedule is
    /// stored in.
    #[inline]
    #[target_feature(enable = "aes")]
    fn load_keys(round_keys: &[Block; 11]) -> [__m128i; 11] {
        let mut keys = [_mm_setzero_si128(); 11];
        for (key, bytes) in keys.iter_mut().zip(round_keys) {
            *key = load(bytes);
        }
        keys
    }

    /// One block through all ten rounds.
    #[inline]
    #[target_feature(enable = "aes")]
    fn rounds(keys: &[__m128i; 11], block: &Block) -> __m128i {
        let mut s = _mm_xor_si128(load(block), keys[0]);
        for key in &keys[1..10] {
            s = _mm_aesenc_si128(s, *key);
        }
        _mm_aesenclast_si128(s, keys[10])
    }

    #[target_feature(enable = "aes")]
    fn encrypt_one(round_keys: &[Block; 11], block: &Block) -> Block {
        let mut out = [0u8; 16];
        store(rounds(&load_keys(round_keys), block), &mut out);
        out
    }

    /// Encrypt `blocks` in place, four at a time with the rounds
    /// interleaved so the independent blocks overlap in the AES unit.
    #[target_feature(enable = "aes")]
    fn encrypt_many(round_keys: &[Block; 11], blocks: &mut [Block]) {
        let keys = load_keys(round_keys);
        let mut quads = blocks.chunks_exact_mut(4);
        for quad in &mut quads {
            let mut s0 = _mm_xor_si128(load(&quad[0]), keys[0]);
            let mut s1 = _mm_xor_si128(load(&quad[1]), keys[0]);
            let mut s2 = _mm_xor_si128(load(&quad[2]), keys[0]);
            let mut s3 = _mm_xor_si128(load(&quad[3]), keys[0]);
            for key in &keys[1..10] {
                s0 = _mm_aesenc_si128(s0, *key);
                s1 = _mm_aesenc_si128(s1, *key);
                s2 = _mm_aesenc_si128(s2, *key);
                s3 = _mm_aesenc_si128(s3, *key);
            }
            store(_mm_aesenclast_si128(s0, keys[10]), &mut quad[0]);
            store(_mm_aesenclast_si128(s1, keys[10]), &mut quad[1]);
            store(_mm_aesenclast_si128(s2, keys[10]), &mut quad[2]);
            store(_mm_aesenclast_si128(s3, keys[10]), &mut quad[3]);
        }
        for block in quads.into_remainder() {
            let state = rounds(&keys, block);
            store(state, block);
        }
    }
}

/// No AES-NI off x86: the token type is uninhabited, so [`Aes128`] always
/// takes the portable path.
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
mod ni {
    use super::Block;

    #[derive(Clone, Copy, Debug)]
    pub(super) enum AesNi {}

    impl AesNi {
        pub(super) fn detect() -> Option<Self> {
            None
        }

        pub(super) fn encrypt_block(self, _: &[Block; 11], _: &Block) -> Block {
            match self {}
        }

        pub(super) fn encrypt_blocks(self, _: &[Block; 11], _: &mut [Block]) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    /// Check one known answer on every backend and every path: the
    /// dispatched single and multi-block calls, the portable T-table, the
    /// byte-oriented reference and the inverse cipher.
    fn assert_known_answer(key: &str, pt: &str, ct: &str) {
        let (pt, ct) = (block(pt), block(ct));
        for aes in Aes128::every_backend(&block(key)) {
            assert_eq!(aes.encrypt_block(&pt), ct);
            let mut blocks = [pt];
            aes.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, [ct]);
            assert_eq!(aes.encrypt_block_portable(&pt), ct);
            assert_eq!(aes.encrypt_block_reference(&pt), ct);
            assert_eq!(aes.decrypt_block(&ct), pt);
        }
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example.
        assert_known_answer(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS-197 Appendix C.1 example vectors.
        assert_known_answer(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn sp800_38a_ecb_vectors() {
        // NIST SP 800-38A F.1.1 (AES-128 ECB), all four blocks, block by
        // block on every path and as one multi-block call per backend.
        let key = "2b7e151628aed2a6abf7158809cf4f3c";
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, ct) in cases {
            assert_known_answer(key, pt, ct);
        }
        for aes in Aes128::every_backend(&block(key)) {
            let mut blocks = cases.map(|(pt, _)| block(pt));
            aes.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, cases.map(|(_, ct)| block(ct)));
        }
    }

    #[test]
    fn aes_ni_is_selected_exactly_when_the_cpu_reports_it() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let detected = std::arch::is_x86_feature_detected!("aes");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let detected = false;
        assert_eq!(Aes128::new(&[0x17; 16]).ni.is_some(), detected);
        assert_eq!(
            Aes128::every_backend(&[0x17; 16]).len(),
            1 + detected as usize
        );
        let name = if detected { "aes-ni" } else { "portable" };
        assert_eq!(aes_backend_name(), name);
    }

    #[test]
    fn ttable_matches_reference_exhaustive_bytes() {
        // Single-active-byte inputs hit every T0 entry in every position.
        // Every backend is held to the same oracle.
        for aes in Aes128::every_backend(&[0x5A; 16]) {
            for pos in 0..16 {
                for v in 0..=255u8 {
                    let mut pt = [0u8; 16];
                    pt[pos] = v;
                    assert_eq!(
                        aes.encrypt_block(&pt),
                        aes.encrypt_block_reference(&pt),
                        "diverged at byte {pos} = {v:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_random_blocks() {
        let aes = Aes128::new(&[0xAB; 16]);
        let mut state = 1u64;
        for _ in 0..256 {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
            assert_eq!(aes.encrypt_block(&pt), aes.encrypt_block_reference(&pt));
            assert_eq!(
                aes.encrypt_block_portable(&pt),
                aes.encrypt_block_reference(&pt)
            );
        }
    }

    /// The byte-oriented FIPS-197 §5.2 key expansion, word by word: the
    /// oracle for the little-endian word loop in [`Aes128::new`].
    fn expand_reference(key: &Key) -> [Block; 11] {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (round, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * round + c]);
            }
        }
        round_keys
    }

    #[test]
    fn key_schedule_matches_fips197_expansion() {
        // FIPS-197 Appendix A.1: the last round key of the example key.
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            aes.round_keys[10],
            block("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
        let mut state = 7u64;
        for _ in 0..512 {
            let mut key = [0u8; 16];
            for b in key.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            assert_eq!(Aes128::new(&key).round_keys, expand_reference(&key));
        }
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [0x42; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0x55; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("55"));
        assert!(dbg.contains("redacted"));
    }

    #[test]
    fn sbox_inverse_consistency() {
        for i in 0..256 {
            assert_eq!(INV_SBOX[SBOX[i] as usize] as usize, i);
        }
    }

    #[test]
    fn t0_entries_pack_mix_column_constants() {
        for i in 0..256 {
            let s = SBOX[i];
            let [b0, b1, b2, b3] = T0[i].to_le_bytes();
            assert_eq!(b0, xtime(s));
            assert_eq!(b1, s);
            assert_eq!(b2, s);
            assert_eq!(b3, xtime(s) ^ s);
        }
    }

    #[test]
    fn gmul_known_values() {
        // {57} · {83} = {c1} (FIPS-197 §4.2 example)
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        // {57} · {13} = {fe}
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(0x01, 0xab), 0xab);
        assert_eq!(gmul(0x00, 0xff), 0x00);
    }
}
