//! Shared slot-reception machinery for the CT protocols: node sets as
//! flat 64-bit word masks, and one reception kernel over them.
//!
//! A node set over `n` nodes is `n.div_ceil(64)` words; node `v` is bit
//! `v % 64` of word `v / 64`. The transmitter set of a sub-slot, a
//! packet's holders and a receiver's neighbourhood are all such masks,
//! so "who transmits" and "which transmitters can this receiver hear"
//! are a few word ANDs rather than per-node scans.

use ppda_radio::channel::CI_RELIABILITY;
use ppda_topology::Topology;

/// Words in a node mask over `n` nodes.
#[inline]
pub(crate) fn mask_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether node `v` is in `mask`.
#[inline]
pub(crate) fn has(mask: &[u64], v: usize) -> bool {
    mask[v / 64] >> (v % 64) & 1 != 0
}

/// Add node `v` to `mask`.
#[inline]
pub(crate) fn insert(mask: &mut [u64], v: usize) {
    mask[v / 64] |= 1 << (v % 64);
}

/// Remove node `v` from `mask`.
#[inline]
pub(crate) fn remove(mask: &mut [u64], v: usize) {
    mask[v / 64] &= !(1 << (v % 64));
}

/// Per-receiver link rows under one round's radio conditions.
///
/// Row `v` holds, for every transmitter `u`, the link miss `1.0 − prr(v ← u)`
/// (dense, 1.0 where there is no link) and the mask `nbr` of the
/// transmitters in range of `v` (non-zero PRR).
#[derive(Debug, Clone)]
pub(crate) struct LinkTable {
    n: usize,
    words: usize,
    nbr: Vec<u64>,
    miss: Vec<f64>,
}

impl LinkTable {
    pub(crate) fn new(topology: &Topology, attenuation_db: f64) -> Self {
        Self::with_loss(topology, attenuation_db, 0.0)
    }

    /// Build the table with every link PRR scaled by `1 - loss` — the
    /// fault layer's per-link erasure model. `loss = 0` multiplies by
    /// exactly 1.0, so the zero-fault table is bit-identical to
    /// [`LinkTable::new`].
    pub(crate) fn with_loss(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
        let keep = 1.0 - loss.clamp(0.0, 1.0);
        let n = topology.len();
        let words = mask_words(n);
        let mut nbr = vec![0u64; n * words];
        let mut miss = vec![1.0f64; n * n];
        for v in 0..n {
            for u in (0..n).filter(|&u| u != v) {
                let prr = topology.prr_at(v, u, attenuation_db) * keep;
                if prr > 0.0 {
                    miss[v * n + u] = 1.0 - prr;
                    insert(&mut nbr[v * words..(v + 1) * words], u);
                }
            }
        }
        LinkTable {
            n,
            words,
            nbr,
            miss,
        }
    }

    /// Words per node mask of this table.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Probability that `receiver` decodes the packet of the current
    /// sub-slot, given the transmitter mask `tx` (all transmitters carry
    /// the *same* packet — the MiniCast/Glossy case).
    ///
    /// Sender diversity: `1 − Π(1 − PRRᵢ)` over the in-range
    /// transmitters, multiplied in ascending transmitter order, with the
    /// constructive-interference reliability factor applied when more
    /// than one copy arrives.
    #[inline]
    pub(crate) fn reception(&self, receiver: usize, tx: &[u64]) -> f64 {
        let row = &self.nbr[receiver * self.words..(receiver + 1) * self.words];
        let miss_row = &self.miss[receiver * self.n..(receiver + 1) * self.n];
        let mut miss = 1.0;
        let mut in_range = 0u32;
        for (w, (&t, &r)) in tx.iter().zip(row).enumerate() {
            let mut m = t & r;
            in_range += m.count_ones();
            while m != 0 {
                miss *= miss_row[w * 64 + m.trailing_zeros() as usize];
                m &= m - 1;
            }
        }
        if in_range == 0 {
            0.0
        } else if in_range >= 2 {
            (1.0 - miss) * CI_RELIABILITY
        } else {
            1.0 - miss
        }
    }

    /// Neighbor count of a node (non-zero-PRR links).
    #[cfg(test)]
    pub(crate) fn degree(&self, node: usize) -> usize {
        self.nbr[node * self.words..(node + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The link rows as raw bits, for bit-identity checks.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.nbr.clone(),
            self.miss.iter().map(|q| q.to_bits()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The receiver-major, sparse neighbour-list formulation the kernel
    /// replaced: per receiver, the `(transmitter, prr)` links with
    /// non-zero PRR in ascending transmitter order, each folded in as
    /// `1.0 − prr` when its transmitter is on the air.
    struct SparseOracle {
        neighbors: Vec<Vec<(usize, f64)>>,
    }

    impl SparseOracle {
        fn new(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
            let keep = 1.0 - loss.clamp(0.0, 1.0);
            let n = topology.len();
            let neighbors = (0..n)
                .map(|v| {
                    (0..n)
                        .filter(|&u| u != v)
                        .filter_map(|u| {
                            let p = topology.prr_at(v, u, attenuation_db) * keep;
                            (p > 0.0).then_some((u, p))
                        })
                        .collect()
                })
                .collect();
            SparseOracle { neighbors }
        }

        fn reception_prob(&self, receiver: usize, is_tx: &[bool]) -> f64 {
            let mut miss = 1.0;
            let mut in_range = 0u32;
            for &(nb, prr) in &self.neighbors[receiver] {
                if is_tx[nb] {
                    miss *= 1.0 - prr;
                    in_range += 1;
                }
            }
            if in_range == 0 {
                0.0
            } else {
                let combined = 1.0 - miss;
                if in_range >= 2 {
                    combined * CI_RELIABILITY
                } else {
                    combined
                }
            }
        }
    }

    fn mask_of(is_tx: &[bool]) -> Vec<u64> {
        let mut m = vec![0u64; mask_words(is_tx.len())];
        for (v, _) in is_tx.iter().enumerate().filter(|&(_, &t)| t) {
            insert(&mut m, v);
        }
        m
    }

    #[test]
    fn mask_helpers_cross_word_boundaries() {
        let mut m = vec![0u64; mask_words(130)];
        assert_eq!(m.len(), 3);
        for v in [0, 63, 64, 127, 128, 129] {
            assert!(!has(&m, v));
            insert(&mut m, v);
            assert!(has(&m, v));
        }
        remove(&mut m, 64);
        assert!(!has(&m, 64) && has(&m, 63) && has(&m, 127));
        assert_eq!(m.iter().map(|w| w.count_ones()).sum::<u32>(), 5);
    }

    #[test]
    fn no_transmitters_no_reception() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0);
        assert_eq!(links.reception(0, &mask_of(&[false; 4])), 0.0);
    }

    #[test]
    fn out_of_range_transmitter_is_silent() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0);
        let mut is_tx = [false; 4];
        is_tx[3] = true; // 90 m away from node 0
        assert_eq!(links.reception(0, &mask_of(&is_tx)), 0.0);
    }

    #[test]
    fn single_neighbor_prob_matches_link_prr() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0);
        let mut is_tx = [false; 4];
        is_tx[1] = true;
        let p = links.reception(0, &mask_of(&is_tx));
        assert!((p - t.prr(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn diversity_increases_probability() {
        let t = Topology::grid(3, 3, 12.0, 2);
        let links = LinkTable::new(&t, 0.0);
        let mut one = vec![false; 9];
        one[1] = true;
        let p1 = links.reception(0, &mask_of(&one));
        let mut two = one.clone();
        two[3] = true;
        let p2 = links.reception(0, &mask_of(&two));
        assert!(p2 >= p1 * 0.999, "diversity must not hurt: {p1} vs {p2}");
    }

    #[test]
    fn mask_kernel_is_bit_identical_to_the_sparse_oracle() {
        // The mask kernel multiplies link misses in ascending transmitter
        // order over `tx & nbr[v]`; the result must equal the sparse
        // neighbour-list product bit for bit, for every receiver and
        // transmitter set — including sets that straddle word boundaries
        // and links degraded by loss.
        let cases = [
            (Topology::grid(4, 4, 14.0, 3), 2.0, 0.0),
            (Topology::grid(8, 8, 15.0, 3), 0.0, 0.3),
            (Topology::random_geometric(65, 110.0, 110.0, 7), 1.5, 0.0),
            (Topology::grid(16, 8, 15.0, 5), 6.0, 0.1),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (t, db, loss) in &cases {
            let n = t.len();
            let links = LinkTable::with_loss(t, *db, *loss);
            let oracle = SparseOracle::new(t, *db, *loss);
            for density in [1u64, 4, 16, 48, 64] {
                for _ in 0..8 {
                    let is_tx: Vec<bool> = (0..n)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state % 64 < density
                        })
                        .collect();
                    let tx = mask_of(&is_tx);
                    for v in 0..n {
                        let direct = oracle.reception_prob(v, &is_tx);
                        let kernel = links.reception(v, &tx);
                        assert_eq!(
                            direct.to_bits(),
                            kernel.to_bits(),
                            "n {n}, receiver {v}, density {density}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degree_counts_nonzero_links() {
        let t = Topology::line(4, 30.0, 1);
        let links = LinkTable::new(&t, 0.0);
        // End node has at least its adjacent neighbor.
        assert!(links.degree(0) >= 1);
    }

    #[test]
    fn zero_loss_table_matches_the_plain_constructor() {
        let t = Topology::grid(3, 3, 18.0, 5);
        assert_eq!(
            LinkTable::new(&t, 2.25).fingerprint(),
            LinkTable::with_loss(&t, 2.25, 0.0).fingerprint()
        );
    }
}
