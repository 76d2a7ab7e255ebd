//! Layer replay: one aggregation round re-executed call by call through
//! each lower crate's public API, timed per layer.
//!
//! The replay runs right after the real `RoundDriver` step, with that
//! round's coordinates, on the same topology, chains, frames, NTX,
//! degree, lanes, source and destination sets and seed stream. Its
//! floods therefore draw the same random numbers as the executor's, and
//! the replayed cycles, coverage and per-node aggregates must equal the
//! round report's. A mismatch is counted as replay drift, and any drift
//! fails the traced run.

use std::fmt::Write as _;
use std::time::Instant;

use ppda_crypto::{Aes128, Ccm, CtrDrbg};
use ppda_ct::{
    ChainSpec, Delivery, FaultPlan, LinkConditionsCache, MiniCastConfig, MiniCastResult,
    MiniCastSchedule,
};
use ppda_field::{share_x, PolyBatch, PrimeField};
use ppda_integrity::{CommitContext, IntegrityVerdict, ShareCommitment, SumAudit};
use ppda_mpc::{Elem, Field, ProtocolKind, RoundPlan, RoundReport};
use ppda_radio::{fragment_frame, Fragmenter, FrameSpec, Reassembler};
use ppda_sim::{derive_stream, Xoshiro256};
use ppda_sss::{
    open_share_lanes, seal_share_lanes, BatchSplitter, CommitPacket, ReconstructionPlan,
    SharePacket, SumBatch, WeightCache,
};
use ppda_topology::Topology;
use rand::RngCore;

use crate::trace::{Open, Tracer};

/// Delivery-fault sub-stream tags of the two flooding phases (the
/// executor's constants; `RoundFaults::delivery` takes them verbatim).
const PHASE_SHARING: u32 = 0;
const PHASE_RECONSTRUCTION: u32 = 1;
/// Cycles of slack beyond NTX in an S4 sharing round.
const PERIMETER_SLACK_CYCLES: u32 = 2;
/// Top-level replay spans: disjoint, so their sum is the replayed round.
pub const LAYER_SPANS: &[&str] = &[
    "mpc.patch",
    "ct.link_setup",
    "crypto.readings",
    "sss.split",
    "sss.seal",
    "integrity.commit",
    "ct.flood_sharing",
    "ct.delivery",
    "radio.fragment",
    "sss.open",
    "sss.sum",
    "integrity.audit",
    "ct.flood_recon",
    "sss.reconstruct",
];

#[derive(Debug, Clone, Copy)]
struct Slot {
    src: u16,
    dst: u16,
    src_index: usize,
    dst_index: usize,
}

/// Everything deployment-scoped the replay needs, rebuilt from a compiled
/// plan's public accessors.
pub struct ReplayPlan {
    topology: Topology,
    config: ppda_mpc::ProtocolConfig,
    strict: bool,
    membership: Option<Vec<bool>>,
    destinations: Vec<u16>,
    dest_xs: Vec<Elem>,
    is_destination: Vec<bool>,
    dest_index: Vec<usize>,
    slots: Vec<Slot>,
    slots_by_dest: Vec<usize>,
    dest_slot_offsets: Vec<usize>,
    slot_ccm: Vec<Ccm>,
    commit_ctx: Vec<CommitContext>,
    master: Aes128,
    sharing: MiniCastSchedule,
    recon: MiniCastSchedule,
    threshold: usize,
    recon_weights: ReconstructionPlan<Field>,
}

fn frame_layout(
    payload: usize,
    mic: usize,
    datagram: usize,
    fragmentation: bool,
) -> Result<(FrameSpec, u32), String> {
    match FrameSpec::new(payload, mic) {
        Ok(frame) => Ok((frame, 1)),
        Err(e) if !fragmentation => Err(e.to_string()),
        Err(_) => fragment_frame(datagram)
            .map(|(frame, count)| (frame, count as u32))
            .map_err(|e| e.to_string()),
    }
}

impl ReplayPlan {
    pub fn new(plan: &RoundPlan<'_>) -> Result<Self, String> {
        let config = plan.config().clone();
        let s3 = plan.protocol() == ProtocolKind::S3;
        let n = config.n_nodes;
        let lanes = config.batch;
        let destinations = plan.destinations().to_vec();
        let dest_xs: Vec<Elem> = destinations
            .iter()
            .map(|&d| share_x::<Field>(d as usize))
            .collect();
        let mut is_destination = vec![false; n];
        let mut dest_index = vec![0usize; n];
        for (di, &d) in destinations.iter().enumerate() {
            is_destination[d as usize] = true;
            dest_index[d as usize] = di;
        }
        let mut slots = Vec::new();
        for (src_index, &src) in config.sources.iter().enumerate() {
            for (dst_index, &dst) in destinations.iter().enumerate() {
                if dst != src {
                    slots.push(Slot {
                        src,
                        dst,
                        src_index,
                        dst_index,
                    });
                }
            }
        }
        let mut slots_by_dest = Vec::with_capacity(slots.len());
        let mut dest_slot_offsets = vec![0];
        for &d in &destinations {
            slots_by_dest.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.dst == d)
                    .map(|(j, _)| j),
            );
            dest_slot_offsets.push(slots_by_dest.len());
        }
        let slot_ccm = slots
            .iter()
            .map(|s| {
                let key = plan
                    .bootstrap()
                    .keys()
                    .key(s.src, s.dst)
                    .map_err(|e| e.to_string())?;
                Ccm::new(key, config.tag_len).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let commit_ctx = if config.integrity.is_on() {
            config
                .sources
                .iter()
                .map(|&s| CommitContext::new(s))
                .collect()
        } else {
            Vec::new()
        };
        let (ntx_sharing, ntx_recon) = if s3 {
            (config.full_coverage_ntx, config.full_coverage_ntx)
        } else {
            (config.ntx_sharing, config.ntx_reconstruction)
        };
        let (share_frame, share_frags) = frame_layout(
            lanes * <Field as PrimeField>::ENCODED_LEN,
            config.tag_len,
            SharePacket::<Field>::sealed_len_batch(lanes, config.tag_len),
            config.fragmentation,
        )?;
        let sum_len = SumBatch::<Field>::encoded_len(lanes);
        let (sum_frame, sum_frags) = frame_layout(sum_len, 0, sum_len, config.fragmentation)?;
        let topology = plan.topology().clone();
        let owners = slots.iter().map(|s| s.src).collect();
        let sharing = MiniCastSchedule::new(
            &topology,
            ChainSpec::with_fragments(share_frame, owners, share_frags)
                .map_err(|e| e.to_string())?,
            MiniCastConfig {
                ntx: ntx_sharing,
                link_threshold: config.link_threshold,
                max_cycles: (!s3).then_some(ntx_sharing + PERIMETER_SLACK_CYCLES),
                early_radio_off: !s3,
                ..MiniCastConfig::default()
            },
        );
        let recon = MiniCastSchedule::new(
            &topology,
            ChainSpec::with_fragments(sum_frame, destinations.clone(), sum_frags)
                .map_err(|e| e.to_string())?,
            MiniCastConfig {
                ntx: ntx_recon,
                link_threshold: config.link_threshold,
                early_radio_off: !s3,
                ..MiniCastConfig::default()
            },
        );
        let threshold = plan.threshold();
        let mut sorted_xs = dest_xs.clone();
        sorted_xs.sort_unstable();
        let recon_weights = ReconstructionPlan::new(&sorted_xs[..threshold.min(sorted_xs.len())])
            .map_err(|e| e.to_string())?;
        Ok(ReplayPlan {
            topology,
            master: Aes128::new(&config.master_key),
            strict: s3,
            membership: plan.membership().map(<[bool]>::to_vec),
            destinations,
            dest_xs,
            is_destination,
            dest_index,
            slots,
            slots_by_dest,
            dest_slot_offsets,
            slot_ccm,
            commit_ctx,
            sharing,
            recon,
            threshold,
            recon_weights,
            config,
        })
    }

    /// A weight cache over this plan's destination x-set, as a fresh
    /// driver holds one.
    pub fn weight_cache(&self) -> Option<WeightCache<Field>> {
        WeightCache::new(&self.dest_xs, self.threshold).ok()
    }
}

/// Deterministic work counts accumulated over replayed rounds.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub rounds: u64,
    pub drbg_blocks: u64,
    pub ccm_blocks: u64,
    pub transcript_blocks: u64,
    pub horner_mults: u64,
    pub recon_mults: u64,
    pub fragments: u64,
    pub link_hits: u64,
    pub link_builds: u64,
    pub drift_rounds: u64,
}

impl Counters {
    pub fn aes_blocks(&self) -> u64 {
        self.drbg_blocks + self.ccm_blocks + self.transcript_blocks
    }
}

/// Replay's per-round view of a flood, for the fidelity table.
#[derive(Debug, Default, Clone, Copy)]
pub struct FloodSums {
    pub cycles: u64,
    pub coverage: f64,
}

/// Replayed versus reported flood figures, summed over rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fidelity {
    pub replay_sharing: FloodSums,
    pub replay_recon: FloodSums,
    pub real_sharing: FloodSums,
    pub real_recon: FloodSums,
}

impl Fidelity {
    pub fn describe(&self, rounds: u64) -> String {
        let r = rounds.max(1) as f64;
        let mut s = String::new();
        for (phase, replay, real) in [
            ("sharing", self.replay_sharing, self.real_sharing),
            ("recon", self.replay_recon, self.real_recon),
        ] {
            let _ = writeln!(
                s,
                "  {phase:<8} cycles/round replay {:>9.4}  real {:>9.4}   coverage replay {:.6}  real {:.6}",
                replay.cycles as f64 / r,
                real.cycles as f64 / r,
                replay.coverage / r,
                real.coverage / r,
            );
        }
        s
    }
}

/// Round-to-round replay state: the caches and scratch buffers a driver
/// keeps, plus the counters.
pub struct ReplayState {
    conditions: LinkConditionsCache,
    weight_cache: Option<WeightCache<Field>>,
    splitter: BatchSplitter<Field>,
    fragmenter: Fragmenter,
    reassembler: Reassembler,
    failed: Vec<bool>,
    readings: Vec<u64>,
    lane_secrets: Vec<Elem>,
    share_slabs: Vec<Vec<Elem>>,
    share_live: Vec<bool>,
    sealed: Vec<Vec<u8>>,
    slot_live: Vec<bool>,
    drawn: Vec<u64>,
    poly: PolyBatch<Field>,
    horner: Vec<Elem>,
    accepted: Vec<(usize, usize)>,
    opened: Vec<Elem>,
    open_payload: Vec<u8>,
    open_lanes: Vec<Elem>,
    sum_ys: Vec<Elem>,
    sum_mask: Vec<u128>,
    sum_live: Vec<bool>,
    usable: Vec<bool>,
    commit_bytes: Vec<u8>,
    commit_wire: Vec<u8>,
    commitments: Vec<Option<ShareCommitment>>,
    sum_wire: Vec<u8>,
    held: Vec<usize>,
    recon_xs: Vec<Elem>,
    recon_slab: Vec<Elem>,
    recon_out: Vec<Elem>,
    pub counters: Counters,
    pub fidelity: Fidelity,
}

/// Replays a DRBG-drawn stream of `u64`s (so a polynomial batch can be
/// refilled from coefficients drawn and timed separately).
struct Drawn<'a>(std::slice::Iter<'a, u64>);

impl RngCore for Drawn<'_> {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        *self.0.next().expect("coefficient draws replayed in order")
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

fn blocks(bytes: usize) -> u64 {
    bytes.div_ceil(16) as u64
}

/// AES blocks of one CCM seal or open: CBC-MAC over B0, the 8-byte AAD
/// with its length prefix and the payload, plus CTR over the payload and
/// the tag block.
fn ccm_blocks(payload: usize) -> u64 {
    1 + blocks(2 + 8) + 2 * blocks(payload) + 1
}

impl ReplayState {
    pub fn new(plan: &ReplayPlan) -> Self {
        let c = &plan.config;
        ReplayState {
            conditions: LinkConditionsCache::new(),
            weight_cache: plan.weight_cache(),
            splitter: BatchSplitter::new(c.degree, c.batch),
            fragmenter: Fragmenter::new(),
            reassembler: Reassembler::new(),
            failed: Vec::new(),
            readings: Vec::new(),
            lane_secrets: Vec::new(),
            share_slabs: vec![Vec::new(); c.sources.len()],
            share_live: vec![false; c.sources.len()],
            sealed: Vec::new(),
            slot_live: Vec::new(),
            drawn: Vec::new(),
            poly: PolyBatch::zeroed(c.degree, c.batch),
            horner: Vec::new(),
            accepted: Vec::new(),
            opened: Vec::new(),
            open_payload: Vec::new(),
            open_lanes: Vec::new(),
            sum_ys: Vec::new(),
            sum_mask: Vec::new(),
            sum_live: Vec::new(),
            usable: Vec::new(),
            commit_bytes: Vec::new(),
            commit_wire: Vec::new(),
            commitments: vec![None; c.sources.len()],
            sum_wire: Vec::new(),
            held: Vec::new(),
            recon_xs: Vec::new(),
            recon_slab: Vec::new(),
            recon_out: Vec::new(),
            counters: Counters::default(),
            fidelity: Fidelity::default(),
        }
    }

    /// Start over with fresh caches, as the fleet engine's per-span driver
    /// does (a one-round tick gives every round a new driver).
    pub fn reset_caches(&mut self, plan: &ReplayPlan) {
        self.counters.link_hits += self.conditions.hits();
        self.counters.link_builds += self.conditions.builds();
        self.conditions = LinkConditionsCache::new();
        self.weight_cache = plan.weight_cache();
    }

    /// Add another state's counters and fidelity sums to this one's.
    pub fn absorb(&mut self, other: &ReplayState) {
        let (hits, builds) = other.link_cache();
        let (a, b) = (&mut self.counters, &other.counters);
        a.rounds += b.rounds;
        a.drbg_blocks += b.drbg_blocks;
        a.ccm_blocks += b.ccm_blocks;
        a.transcript_blocks += b.transcript_blocks;
        a.horner_mults += b.horner_mults;
        a.recon_mults += b.recon_mults;
        a.fragments += b.fragments;
        a.link_hits += hits;
        a.link_builds += builds;
        a.drift_rounds += b.drift_rounds;
        let (f, g) = (&mut self.fidelity, &other.fidelity);
        for (x, y) in [
            (&mut f.replay_sharing, g.replay_sharing),
            (&mut f.replay_recon, g.replay_recon),
            (&mut f.real_sharing, g.real_sharing),
            (&mut f.real_recon, g.real_recon),
        ] {
            x.cycles += y.cycles;
            x.coverage += y.coverage;
        }
    }

    /// `(hits, builds)` of the link-table cache over every replayed round.
    pub fn link_cache(&self) -> (u64, u64) {
        (
            self.counters.link_hits + self.conditions.hits(),
            self.counters.link_builds + self.conditions.builds(),
        )
    }

    /// Replay round `(round_id, seed)` of `plan` under `faults` and
    /// compare it with the real `report`. Layer spans go under `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        plan: &ReplayPlan,
        faults: &FaultPlan,
        round_id: u32,
        seed: u64,
        report: &RoundReport,
        tr: &mut Tracer,
        key: u64,
        parent: Open,
    ) -> Result<(), String> {
        let config = &plan.config;
        let lanes = config.batch;
        let n = config.n_nodes;
        let p = Some(parent);

        // ---- Fault realization, fading draw and link table ------------
        let span = tr.begin("ct.link_setup", key, p);
        let rf = faults.realize(round_id, seed);
        self.failed.clear();
        self.failed.resize(n, false);
        if let Some(live) = &plan.membership {
            for (f, &l) in self.failed.iter_mut().zip(live) {
                *f |= !l;
            }
        }
        for (v, f) in self.failed.iter_mut().enumerate() {
            if !*f && rf.node_down(v) {
                *f = true;
            }
        }
        let attenuation_db = config
            .fading
            .draw(&mut Xoshiro256::seed_from(derive_stream(seed, 0xFAD)));
        let conditions = self.conditions.get(
            &plan.topology,
            attenuation_db + rf.extra_attenuation_db(),
            rf.loss(),
        );
        tr.end(span);
        let failed = &self.failed;

        // ---- Readings (the driver's generated inputs) -----------------
        let span = tr.begin("crypto.readings", key, p);
        let domain = format!("readings|{round_id}|{seed}");
        let mut drbg = CtrDrbg::with_master_cipher(&plan.master, domain.as_bytes());
        self.readings.clear();
        for _ in 0..config.sources.len() * lanes {
            self.readings.push(drbg.next_u64() % config.max_reading);
        }
        tr.end(span);
        self.counters.drbg_blocks += blocks(domain.len()) + blocks(8 * self.readings.len());

        let mut live_source_mask = 0u128;
        for (si, &src) in config.sources.iter().enumerate() {
            self.share_live[si] = !failed[src as usize];
            if self.share_live[si] {
                live_source_mask |= 1u128 << src;
            }
        }

        // ---- Split: the real splitter, then its two halves re-run -----
        let span = tr.begin("sss.split", key, p);
        for (si, &src) in config.sources.iter().enumerate() {
            if !self.share_live[si] {
                continue;
            }
            let domain = format!("share|{round_id}|{seed}|{src}");
            let mut drbg = CtrDrbg::with_master_cipher(&plan.master, domain.as_bytes());
            self.lane_secrets.clear();
            self.lane_secrets.extend(
                self.readings[si * lanes..(si + 1) * lanes]
                    .iter()
                    .map(|&v| Elem::new(v)),
            );
            self.splitter
                .split_into(
                    &self.lane_secrets,
                    &plan.dest_xs,
                    &mut drbg,
                    &mut self.share_slabs[si],
                )
                .map_err(|e| e.to_string())?;
        }
        tr.end(span);
        let draws = config.degree * lanes;
        let mut drbg_ns = 0u64;
        let mut horner_ns = 0u64;
        for (si, &src) in config.sources.iter().enumerate() {
            if !self.share_live[si] {
                continue;
            }
            let t0 = Instant::now();
            let domain = format!("share|{round_id}|{seed}|{src}");
            let mut drbg = CtrDrbg::with_master_cipher(&plan.master, domain.as_bytes());
            self.drawn.clear();
            self.drawn.extend((0..draws).map(|_| drbg.next_u64()));
            let t1 = Instant::now();
            self.lane_secrets.clear();
            self.lane_secrets.extend(
                self.readings[si * lanes..(si + 1) * lanes]
                    .iter()
                    .map(|&v| Elem::new(v)),
            );
            self.poly
                .refill_random(&self.lane_secrets, &mut Drawn(self.drawn.iter()));
            self.poly.eval_many_into(&plan.dest_xs, &mut self.horner);
            let t2 = Instant::now();
            drbg_ns += (t1 - t0).as_nanos() as u64;
            horner_ns += (t2 - t1).as_nanos() as u64;
            if self.horner != self.share_slabs[si] {
                return Err(format!(
                    "round {round_id}: re-run Horner disagrees with the splitter"
                ));
            }
            self.counters.drbg_blocks += blocks(domain.len()) + blocks(8 * draws);
            self.counters.horner_mults += (plan.dest_xs.len() * lanes * config.degree) as u64;
        }
        tr.record("crypto.drbg_shares", key, p, drbg_ns);
        tr.record("field.horner", key, p, horner_ns);

        // ---- Seal -------------------------------------------------------
        self.sealed.resize(plan.slots.len(), Vec::new());
        self.slot_live.resize(plan.slots.len(), false);
        let span = tr.begin("sss.seal", key, p);
        for (j, slot) in plan.slots.iter().enumerate() {
            self.slot_live[j] = self.share_live[slot.src_index];
            if !self.slot_live[j] {
                self.sealed[j].clear();
                continue;
            }
            let ys = &self.share_slabs[slot.src_index]
                [slot.dst_index * lanes..(slot.dst_index + 1) * lanes];
            seal_share_lanes(
                &plan.slot_ccm[j],
                slot.src,
                slot.dst,
                round_id,
                plan.dest_xs[slot.dst_index],
                ys,
                &mut self.sealed[j],
            )
            .map_err(|e| e.to_string())?;
        }
        tr.end(span);
        let payload = lanes * <Field as PrimeField>::ENCODED_LEN;
        let live_slots = self.slot_live.iter().filter(|&&l| l).count() as u64;
        self.counters.ccm_blocks += live_slots * ccm_blocks(payload);

        // ---- Commitments ------------------------------------------------
        if config.integrity.is_on() {
            let span = tr.begin("integrity.commit", key, p);
            for (si, ctx) in plan.commit_ctx.iter().enumerate() {
                self.commitments[si] = None;
                if !self.share_live[si] {
                    continue;
                }
                self.commit_bytes.clear();
                for y in &self.share_slabs[si] {
                    self.commit_bytes.extend_from_slice(&y.to_bytes());
                }
                let c = ctx.commit(round_id, &self.commit_bytes);
                CommitPacket {
                    src: c.src,
                    round: round_id,
                    digest: c.digest,
                }
                .encode_into(&mut self.commit_wire);
                let carried = CommitPacket::decode(&self.commit_wire).map_err(|e| e.to_string())?;
                self.commitments[si] = Some(ShareCommitment {
                    src: carried.src,
                    digest: carried.digest,
                });
                self.counters.transcript_blocks += blocks(self.commit_bytes.len());
            }
            tr.end(span);
        }

        // ---- Sharing flood ------------------------------------------------
        let span = tr.begin("ct.flood_sharing", key, p);
        let sharing = {
            let slot_live = &self.slot_live;
            let strict = plan.strict;
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A1));
            plan.sharing
                .run_with(conditions, &mut rng, failed, |v, have| {
                    if strict {
                        have.iter().all(|&h| h)
                    } else if plan.is_destination[v] {
                        let di = plan.dest_index[v];
                        plan.slots_by_dest
                            [plan.dest_slot_offsets[di]..plan.dest_slot_offsets[di + 1]]
                            .iter()
                            .all(|&j| !slot_live[j] || have[j])
                    } else {
                        true
                    }
                })
        };
        tr.end(span);

        // ---- Which shares each destination accepts ------------------------
        let span = tr.begin("ct.delivery", key, p);
        self.accepted.clear();
        for (di, &d) in plan.destinations.iter().enumerate() {
            if failed[d as usize] {
                continue;
            }
            for &j in
                &plan.slots_by_dest[plan.dest_slot_offsets[di]..plan.dest_slot_offsets[di + 1]]
            {
                if !self.slot_live[j] || !sharing.nodes[d as usize].received[j] {
                    continue;
                }
                if rf.delivery(PHASE_SHARING, j, d as usize) == Delivery::Delayed {
                    continue;
                }
                self.accepted.push((di, j));
            }
        }
        tr.end(span);

        // ---- Fragment codec round trip (multi-frame packets only) --------
        let share_frags = plan.sharing.chain().fragments();
        if share_frags > 1 {
            let span = tr.begin("radio.fragment", key, p);
            let before = self.fragmenter.frames();
            for &(_, j) in &self.accepted {
                let frames = self
                    .fragmenter
                    .fragment(&self.sealed[j])
                    .map_err(|e| e.to_string())?;
                let mut whole = None;
                for frame in &frames {
                    if let Some(w) = self
                        .reassembler
                        .accept(plan.slots[j].src, frame)
                        .map_err(|e| e.to_string())?
                    {
                        whole = Some(w);
                    }
                }
                if whole.as_deref() != Some(&self.sealed[j][..]) {
                    return Err(format!(
                        "round {round_id}: fragment reassembly changed a packet"
                    ));
                }
            }
            tr.end(span);
            self.counters.fragments += self.fragmenter.frames() - before;
        }

        // ---- Open ---------------------------------------------------------
        let span = tr.begin("sss.open", key, p);
        self.opened.clear();
        for &(di, j) in &self.accepted {
            let slot = &plan.slots[j];
            open_share_lanes(
                &plan.slot_ccm[j],
                slot.src,
                slot.dst,
                round_id,
                plan.dest_xs[di],
                lanes,
                &self.sealed[j],
                &mut self.open_payload,
                &mut self.open_lanes,
            )
            .map_err(|e| e.to_string())?;
            self.opened.extend_from_slice(&self.open_lanes);
        }
        tr.end(span);
        self.counters.ccm_blocks += self.accepted.len() as u64 * ccm_blocks(payload);

        // ---- Local sums and their wire form -------------------------------
        let n_dests = plan.destinations.len();
        let span = tr.begin("sss.sum", key, p);
        self.sum_ys.clear();
        self.sum_ys.resize(n_dests * lanes, Elem::ZERO);
        self.sum_mask.clear();
        self.sum_mask.resize(n_dests, 0);
        self.sum_live.clear();
        self.sum_live.resize(n_dests, false);
        let mut next = 0usize;
        for (di, &d) in plan.destinations.iter().enumerate() {
            if failed[d as usize] {
                continue;
            }
            let row = &mut self.sum_ys[di * lanes..(di + 1) * lanes];
            let mut mask = 0u128;
            if let Some(si) = config.sources.iter().position(|&s| s == d) {
                if self.share_live[si] {
                    mask |= 1u128 << d;
                    for (acc, &y) in row.iter_mut().zip(&self.share_slabs[si][di * lanes..]) {
                        *acc += y;
                    }
                }
            }
            while next < self.accepted.len() && self.accepted[next].0 == di {
                let j = self.accepted[next].1;
                mask |= 1u128 << plan.slots[j].src;
                for (acc, &y) in row.iter_mut().zip(&self.opened[next * lanes..]) {
                    *acc += y;
                }
                next += 1;
            }
            self.sum_live[di] = true;
            self.sum_mask[di] = mask;
            let batch = SumBatch::<Field> {
                node: d,
                round: round_id,
                x: plan.dest_xs[di],
                ys: row.to_vec(),
                mask,
            };
            batch.encode_into(&mut self.sum_wire);
            let carried =
                SumBatch::<Field>::decode(&self.sum_wire, lanes).map_err(|e| e.to_string())?;
            if carried.ys != batch.ys || carried.mask != mask {
                return Err(format!(
                    "round {round_id}: sum batch did not survive its wire form"
                ));
            }
        }
        tr.end(span);
        self.usable.clear();
        self.usable.extend(
            (0..n_dests).map(|di| self.sum_live[di] && self.sum_mask[di] == live_source_mask),
        );

        // ---- Sum audit ----------------------------------------------------
        if config.integrity.is_on() {
            let span = tr.begin("integrity.audit", key, p);
            let mut audit = SumAudit::new(config.degree);
            audit.set_survivors(self.usable.iter().filter(|&&u| u).count());
            if audit.quorum() {
                let n_sources = config.sources.len();
                let spot = (0..n_sources)
                    .map(|k| (round_id as usize + k) % n_sources)
                    .find(|&si| self.commitments[si].is_some());
                if let Some(si) = spot {
                    let c = self.commitments[si].expect("spot-checked commitment exists");
                    self.commit_bytes.clear();
                    for y in &self.share_slabs[si] {
                        self.commit_bytes.extend_from_slice(&y.to_bytes());
                    }
                    if !c.verify(round_id, &self.commit_bytes) {
                        audit.flag(0, None);
                    }
                    self.counters.transcript_blocks += blocks(self.commit_bytes.len());
                }
                for (di, &d) in plan.destinations.iter().enumerate() {
                    if !self.sum_live[di] {
                        continue;
                    }
                    'lane: for lane in 0..lanes {
                        let mut committed = Elem::ZERO;
                        for (si, &src) in config.sources.iter().enumerate() {
                            if self.sum_mask[di] & (1u128 << src) == 0 {
                                continue;
                            }
                            if self.commitments[si].is_none() {
                                continue 'lane;
                            }
                            committed += self.share_slabs[si][di * lanes + lane];
                        }
                        audit.check_lane(
                            lane as u16,
                            &committed.to_bytes(),
                            &self.sum_ys[di * lanes + lane].to_bytes(),
                            Some(d),
                        );
                    }
                }
            }
            let verdict = audit.verdict();
            tr.end(span);
            if verdict != report.integrity() {
                self.counters.drift_rounds += 1;
            }
        } else if report.integrity() != IntegrityVerdict::Unchecked {
            self.counters.drift_rounds += 1;
        }

        // ---- Reconstruction flood -----------------------------------------
        let span = tr.begin("ct.flood_recon", key, p);
        let recon = {
            let strict = plan.strict;
            let usable = &self.usable;
            let threshold = plan.threshold;
            let mut rng = Xoshiro256::seed_from(derive_stream(seed, 0x5A2));
            plan.recon
                .run_with(conditions, &mut rng, failed, move |_, have| {
                    if strict {
                        have.iter().all(|&h| h)
                    } else {
                        have.iter().zip(usable).filter(|&(&h, &u)| h && u).count() >= threshold
                    }
                })
        };
        tr.end(span);

        // ---- Per-node reconstruction --------------------------------------
        let span = tr.begin("sss.reconstruct", key, p);
        let mut agree = true;
        for v in 0..n {
            if self.failed[v] {
                continue;
            }
            let aggregate = if plan.strict && recon.nodes[v].predicate_met_at.is_none() {
                None
            } else {
                self.held.clear();
                for di in 0..n_dests {
                    if !self.sum_live[di] || !recon.nodes[v].received[di] {
                        continue;
                    }
                    if plan.destinations[di] as usize != v
                        && rf.delivery(PHASE_RECONSTRUCTION, di, v) == Delivery::Delayed
                    {
                        continue;
                    }
                    self.held.push(di);
                }
                self.aggregate(plan)
            };
            let real = report.outcome.nodes[v].aggregates.as_deref();
            agree &= match (aggregate, real) {
                (None, None) => true,
                (Some(()), Some(real)) => self
                    .recon_out
                    .iter()
                    .map(|e| e.value())
                    .eq(real.iter().copied()),
                _ => false,
            };
        }
        tr.end(span);

        // ---- Fidelity -----------------------------------------------------
        self.counters.rounds += 1;
        if !agree {
            self.counters.drift_rounds += 1;
        }
        let f = &mut self.fidelity;
        add_flood(&mut f.replay_sharing, &sharing);
        add_flood(&mut f.replay_recon, &recon);
        f.real_sharing.cycles += u64::from(report.outcome.sharing.cycles_run);
        f.real_sharing.coverage += report.outcome.sharing.coverage;
        f.real_recon.cycles += u64::from(report.outcome.reconstruction.cycles_run);
        f.real_recon.coverage += report.outcome.reconstruction.coverage;
        if sharing.cycles_run != report.outcome.sharing.cycles_run
            || recon.cycles_run != report.outcome.reconstruction.cycles_run
            || sharing.coverage() != report.outcome.sharing.coverage
            || recon.coverage() != report.outcome.reconstruction.coverage
        {
            self.counters.drift_rounds += 1;
        }
        Ok(())
    }

    /// The executor's reconstruction rule: the most-covering contributor
    /// mask with at least `t` holders, its `t` lowest-x members, then the
    /// plan's canonical weights or the survivor-mask cache. Leaves the
    /// lanes in `recon_out`; `None` when nothing reconstructs.
    fn aggregate(&mut self, plan: &ReplayPlan) -> Option<()> {
        let lanes = plan.config.batch;
        let t = plan.threshold;
        let mut best: Option<(u32, usize, u128)> = None;
        for &di in &self.held {
            let mask = self.sum_mask[di];
            if mask == 0 {
                continue;
            }
            let count = self
                .held
                .iter()
                .filter(|&&o| self.sum_mask[o] == mask)
                .count();
            if count < t {
                continue;
            }
            let k = (mask.count_ones(), count, mask);
            if best.is_none_or(|b| k > b) {
                best = Some(k);
            }
        }
        let (_, _, mask) = best?;
        let mut members: Vec<usize> = self
            .held
            .iter()
            .copied()
            .filter(|&di| self.sum_mask[di] == mask)
            .collect();
        members.sort_by_key(|&di| plan.dest_xs[di]);
        members.truncate(t);
        self.recon_xs.clear();
        self.recon_xs
            .extend(members.iter().map(|&di| plan.dest_xs[di]));
        self.recon_slab.clear();
        for &di in &members {
            self.recon_slab
                .extend_from_slice(&self.sum_ys[di * lanes..(di + 1) * lanes]);
        }
        self.counters.recon_mults += (t * lanes) as u64;
        if plan.recon_weights.xs() == &self.recon_xs[..] {
            plan.recon_weights
                .reconstruct_batch_into(lanes, &self.recon_slab, &mut self.recon_out)
                .ok()
        } else {
            let survivor = members.iter().fold(0u128, |m, &di| m | (1u128 << di));
            let basis = self.weight_cache.as_mut()?.weights(survivor).ok()?;
            self.recon_out.clear();
            self.recon_out.resize(lanes, Elem::ZERO);
            ppda_field::packed::weighted_sum_rows_into(
                basis,
                &self.recon_slab,
                lanes,
                &mut self.recon_out,
            );
            Some(())
        }
    }
}

fn add_flood(sum: &mut FloodSums, result: &MiniCastResult) {
    sum.cycles += u64::from(result.cycles_run);
    sum.coverage += result.coverage();
}
