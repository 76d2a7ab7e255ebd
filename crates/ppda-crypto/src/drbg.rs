//! Deterministic AES-CTR random bit generator.
//!
//! A simplified CTR_DRBG (in the spirit of NIST SP 800-90A, without the
//! personalization/derivation-function machinery): the generator holds an
//! AES-128 key and a 128-bit counter; output blocks are `AES_K(counter++)`,
//! and `reseed` mixes fresh entropy into the key via an update step.
//!
//! Each node in the simulated deployment instantiates its DRBG from the
//! network master secret and its node id, giving reproducible yet
//! node-independent share randomness.

use rand::{Error, RngCore, SeedableRng};

use crate::aes::{Aes128, Block, Key};
use crate::ctr::increment_block;

/// A deterministic AES-CTR random bit generator implementing [`RngCore`].
///
/// # Example
///
/// ```
/// use rand::RngCore;
/// use ppda_crypto::CtrDrbg;
/// let mut a = CtrDrbg::new([3u8; 16], b"node-7");
/// let mut b = CtrDrbg::new([3u8; 16], b"node-7");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = CtrDrbg::new([3u8; 16], b"node-8");
/// assert_ne!(a.next_u64(), c.next_u64());
/// ```
#[derive(Clone)]
pub struct CtrDrbg {
    aes: Aes128,
    counter: Block,
    buffer: Block,
    buffered: usize,
}

impl core::fmt::Debug for CtrDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("CtrDrbg(<state redacted>)")
    }
}

impl CtrDrbg {
    /// Instantiate from a master key and a domain-separation string
    /// (e.g. the node id). Identical inputs give identical streams.
    pub fn new(master: Key, domain: &[u8]) -> Self {
        Self::with_master_cipher(&Aes128::new(&master), domain)
    }

    /// [`CtrDrbg::new`] with a pre-expanded master cipher. A deployment
    /// instantiates many DRBGs from the *same* master secret (one per
    /// source per round); expanding the master key schedule once and
    /// reusing it here produces the identical stream as [`CtrDrbg::new`].
    pub fn with_master_cipher(master_aes: &Aes128, domain: &[u8]) -> Self {
        // Derive the working key: K = AES_master(pad(domain)) xor-folded over
        // domain chunks — a simple PRF application, sufficient for the
        // deterministic-simulation threat model.
        let mut derived: Block = [0u8; 16];
        for (i, chunk) in domain.chunks(16).enumerate() {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            block[15] ^= i as u8;
            let enc = master_aes.encrypt_block(&block);
            for (d, e) in derived.iter_mut().zip(enc.iter()) {
                *d ^= e;
            }
        }
        if domain.is_empty() {
            derived = master_aes.encrypt_block(&[0u8; 16]);
        }
        CtrDrbg {
            aes: Aes128::new(&derived),
            counter: [0u8; 16],
            buffer: [0u8; 16],
            buffered: 0,
        }
    }

    /// Mix additional entropy into the generator.
    pub fn reseed(&mut self, entropy: &[u8]) {
        let mut new_key: Block = self.next_block();
        for (i, b) in entropy.iter().enumerate() {
            new_key[i % 16] ^= *b;
        }
        self.aes = Aes128::new(&new_key);
        self.buffered = 0;
    }

    fn next_block(&mut self) -> Block {
        increment_block(&mut self.counter);
        self.aes.encrypt_block(&self.counter)
    }

    fn refill(&mut self) {
        self.buffer = self.next_block();
        self.buffered = 16;
    }

    /// Fill whole 16-byte blocks of output.
    ///
    /// Emits exactly the same byte stream as [`RngCore::fill_bytes`] over
    /// the same total length: a partially drained buffer is consumed first,
    /// after which every block comes straight off the cipher in one
    /// [`Aes128::encrypt_blocks`] call, with no intermediate buffering.
    pub fn fill_blocks(&mut self, out: &mut [Block]) {
        if self.buffered == 0 {
            for block in out.iter_mut() {
                increment_block(&mut self.counter);
                *block = self.counter;
            }
            self.aes.encrypt_blocks(out);
        } else {
            // Unaligned relative to the buffered tail; the generic path
            // below handles the straddling copies.
            for block in out.iter_mut() {
                self.fill_bytes(block);
            }
        }
    }

    /// The next `N` output bytes. When the buffered block holds them (after
    /// a refill if it is empty) they are copied straight out; a read that
    /// straddles two blocks takes the generic [`RngCore::fill_bytes`] path.
    /// Either way the stream, the counter and the buffer state are exactly
    /// those of `fill_bytes` on `N` bytes.
    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        if self.buffered == 0 {
            self.refill();
        }
        let mut out = [0u8; N];
        if self.buffered >= N {
            let start = 16 - self.buffered;
            out.copy_from_slice(&self.buffer[start..start + N]);
            self.buffered -= N;
        } else {
            self.fill_bytes(&mut out);
        }
        out
    }
}

impl RngCore for CtrDrbg {
    fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Drain any partially consumed buffer first (bytes come off the
        // front, i.e. index 16 - buffered), …
        let take = self.buffered.min(dest.len());
        if take > 0 {
            let start = 16 - self.buffered;
            dest[..take].copy_from_slice(&self.buffer[start..start + take]);
            self.buffered -= take;
        }
        let rest = &mut dest[take..];
        // … then copy whole blocks straight from the cipher, …
        let mut blocks = rest.chunks_exact_mut(16);
        for chunk in &mut blocks {
            chunk.copy_from_slice(&self.next_block());
        }
        // … and buffer only the tail block.
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.refill();
            tail.copy_from_slice(&self.buffer[..tail.len()]);
            self.buffered = 16 - tail.len();
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for CtrDrbg {
    type Seed = [u8; 16];

    fn from_seed(seed: Self::Seed) -> Self {
        CtrDrbg::new(seed, b"seedable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_cipher_constructor_matches_new() {
        let master = [0x3Cu8; 16];
        let cipher = Aes128::new(&master);
        let mut a = CtrDrbg::new(master, b"node-4");
        let mut b = CtrDrbg::with_master_cipher(&cipher, b"node-4");
        let mut buf_a = [0u8; 48];
        let mut buf_b = [0u8; 48];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn deterministic_replay() {
        let mut a = CtrDrbg::new([1u8; 16], b"x");
        let mut b = CtrDrbg::new([1u8; 16], b"x");
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn domain_separation() {
        let mut a = CtrDrbg::new([1u8; 16], b"node-0");
        let mut b = CtrDrbg::new([1u8; 16], b"node-1");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn long_domain_strings_work() {
        let long = vec![0xAAu8; 100];
        let mut a = CtrDrbg::new([1u8; 16], &long);
        let mut b = CtrDrbg::new([1u8; 16], &long[..99]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn empty_domain_works() {
        let mut a = CtrDrbg::new([1u8; 16], b"");
        let x = a.next_u64();
        let y = a.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = CtrDrbg::new([1u8; 16], b"x");
        let mut b = CtrDrbg::new([1u8; 16], b"x");
        b.reseed(b"fresh entropy");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn output_distribution_rough_sanity() {
        // Bit-balance check: ~50% ones over 64k bits.
        let mut rng = CtrDrbg::new([7u8; 16], b"balance");
        let mut ones = 0u32;
        let mut buf = [0u8; 8192];
        rng.fill_bytes(&mut buf);
        for b in buf {
            ones += b.count_ones();
        }
        let total = 8192 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.48..0.52).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn partial_reads_consistent_with_bulk() {
        let mut a = CtrDrbg::new([9u8; 16], b"chunk");
        let mut b = CtrDrbg::new([9u8; 16], b"chunk");
        let mut bulk = [0u8; 48];
        a.fill_bytes(&mut bulk);
        let mut pieces = [0u8; 48];
        for chunk in pieces.chunks_mut(5) {
            b.fill_bytes(chunk);
        }
        assert_eq!(bulk, pieces);
    }

    /// The pre-fast-path semantics, byte by byte: the provable oracle for
    /// the block-aligned `fill_bytes`.
    fn fill_bytes_bytewise(rng: &mut CtrDrbg, dest: &mut [u8]) {
        for b in dest.iter_mut() {
            if rng.buffered == 0 {
                rng.refill();
            }
            *b = rng.buffer[16 - rng.buffered];
            rng.buffered -= 1;
        }
    }

    #[test]
    fn fast_path_emits_identical_stream() {
        // Every request length from 0..64, issued twice back-to-back so the
        // second request starts at every possible buffer offset.
        for len in 0..64usize {
            let mut fast = CtrDrbg::new([4u8; 16], b"stream");
            let mut slow = CtrDrbg::new([4u8; 16], b"stream");
            for _ in 0..2 {
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                fast.fill_bytes(&mut a);
                fill_bytes_bytewise(&mut slow, &mut b);
                assert_eq!(a, b, "diverged at request length {len}");
            }
            assert_eq!(fast.buffered, slow.buffered);
            assert_eq!(fast.counter, slow.counter);
        }

        // `next_u32`, `next_u64` and `fill_bytes` interleaved from every
        // buffer offset: the word draws read the buffered block directly or
        // straddle two blocks, and must match the bytewise oracle either
        // way, down to the counter and the reseed result.
        for skew in 0..16usize {
            let mut fast = CtrDrbg::new([4u8; 16], b"interleave");
            let mut slow = CtrDrbg::new([4u8; 16], b"interleave");
            let mut pre = vec![0u8; skew];
            fast.fill_bytes(&mut pre);
            fill_bytes_bytewise(&mut slow, &mut pre);
            for step in 0..48usize {
                let mut expect = vec![0u8; [4, 8, step % 21][step % 3]];
                fill_bytes_bytewise(&mut slow, &mut expect);
                let got = match step % 3 {
                    0 => fast.next_u32().to_le_bytes().to_vec(),
                    1 => fast.next_u64().to_le_bytes().to_vec(),
                    _ => {
                        let mut bytes = vec![0u8; expect.len()];
                        fast.fill_bytes(&mut bytes);
                        bytes
                    }
                };
                assert_eq!(got, expect, "skew {skew}, step {step}");
                assert_eq!(fast.buffered, slow.buffered, "skew {skew}, step {step}");
                assert_eq!(fast.counter, slow.counter, "skew {skew}, step {step}");
            }
            fast.reseed(b"entropy");
            slow.reseed(b"entropy");
            let mut expect = [0u8; 8];
            fill_bytes_bytewise(&mut slow, &mut expect);
            assert_eq!(
                fast.next_u64().to_le_bytes(),
                expect,
                "reseed at skew {skew}"
            );
        }
    }

    #[test]
    fn fill_blocks_matches_fill_bytes() {
        // Aligned: straight off the cipher.
        let mut a = CtrDrbg::new([6u8; 16], b"blocks");
        let mut b = CtrDrbg::new([6u8; 16], b"blocks");
        let mut blocks = [[0u8; 16]; 5];
        let mut bytes = [0u8; 80];
        a.fill_blocks(&mut blocks);
        b.fill_bytes(&mut bytes);
        assert_eq!(blocks.concat(), bytes);

        // Unaligned: a partially drained buffer must be consumed first.
        let mut skew = [0u8; 3];
        a.fill_bytes(&mut skew);
        b.fill_bytes(&mut skew);
        a.fill_blocks(&mut blocks);
        b.fill_bytes(&mut bytes);
        assert_eq!(blocks.concat(), bytes);
    }

    #[test]
    fn debug_redacts_state() {
        let rng = CtrDrbg::new([1u8; 16], b"x");
        assert_eq!(format!("{rng:?}"), "CtrDrbg(<state redacted>)");
    }
}
