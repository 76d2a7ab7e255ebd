//! MiniCast: many-to-many data sharing over a TDMA chain of interleaved
//! Glossy-style floods.
//!
//! The implementation is split along the protocol's natural lifecycle:
//!
//! * [`MiniCastSchedule`] — the immutable, topology-derived part: chain
//!   layout, initiator election, failover ranking, and the scheduled round
//!   length. Computing it walks the topology (BFS eccentricities), so a
//!   long-lived deployment builds it **once** and reuses it every round.
//! * [`LinkConditions`] — the cheap per-round state: the link table under
//!   this round's attenuation draw. One instance serves every phase of a
//!   round (all phases happen within seconds, under the same fading).
//! * [`NeedSet`] and [`MiniCastScratch`] — what a round-based caller
//!   hands [`MiniCastSchedule::run_needs`]: a compiled completion rule
//!   (per-packet flags and per-node quotas, O(1) per reception) and the
//!   engine's reusable buffers.
//! * [`MiniCast`] — the original single-shot convenience API, now a thin
//!   wrapper binding a schedule to one set of link conditions.
//!
//! # The slot engine
//!
//! One engine runs every flood. Node sets are flat 64-bit word masks
//! (see `engine.rs`): each packet keeps the mask of the nodes holding it,
//! so a sub-slot's transmitter set is `active & holders[j]` and its
//! listeners are the powered nodes outside it. A listener's reception
//! probability multiplies link misses over the set bits of
//! `tx & nbr[v]` in ascending transmitter order, so every probability and
//! every RNG draw is bit-identical to a per-node, neighbour-list
//! formulation. Radio time is booked per cycle in bulk: packet `j` is on
//! the air only in sub-slot `j`, so an active node transmits exactly the
//! packets it held when the cycle began and listens in every other
//! sub-slot. [`MiniCastSchedule::run_with`] adapts a closure predicate to
//! the same engine.

use ppda_radio::{EnergyLedger, FrameSpec};
use ppda_sim::{derive_stream, SimDuration, SimTime, Xoshiro256};
use ppda_topology::Topology;

use crate::chain::ChainSpec;
use crate::engine::{has, insert, remove, LinkTable};

/// MiniCast round parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniCastConfig {
    /// Number of times each node transmits the full chain (the paper's
    /// NTX). Low values reach only a perimeter of neighbors; high values
    /// give full network coverage at proportionally higher cost.
    pub ntx: u32,
    /// Extra cycles beyond `initiator eccentricity + ntx` kept in the round
    /// schedule to absorb losses.
    pub slack_cycles: u32,
    /// Round initiator. `None` selects the topology's center node.
    pub initiator: Option<u16>,
    /// Override the computed round length (cycles). `None` = automatic.
    pub max_cycles: Option<u32>,
    /// PRR threshold used when computing hop structure for the automatic
    /// round length.
    pub link_threshold: f64,
    /// Round-scale extra attenuation (dB) applied to every link — models
    /// interference/fading conditions of this particular round.
    ///
    /// Only the single-shot [`MiniCast`] wrapper consumes this field (it
    /// builds its [`LinkConditions`] from it). A reusable
    /// [`MiniCastSchedule`] deliberately ignores it: attenuation is
    /// per-round state and lives in the `LinkConditions` passed to each
    /// run.
    pub attenuation_db: f64,
    /// Whether nodes power the radio down once their completion predicate
    /// holds and their NTX relay duty is done. The scalable protocol's
    /// firmware does this; a naive implementation keeps listening for the
    /// whole scheduled round.
    pub early_radio_off: bool,
}

impl Default for MiniCastConfig {
    fn default() -> Self {
        MiniCastConfig {
            ntx: 8,
            slack_cycles: 3,
            initiator: None,
            max_cycles: None,
            link_threshold: 0.5,
            attenuation_db: 0.0,
            early_radio_off: true,
        }
    }
}

/// Per-node outcome of a MiniCast round.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Which chain packets this node holds at round end (own packets
    /// included).
    pub received: Vec<bool>,
    /// First instant at which the completion predicate held, if ever.
    pub predicate_met_at: Option<SimTime>,
    /// Instant the node switched its radio off (budget exhausted and
    /// predicate met), if before round end.
    pub radio_off_at: Option<SimTime>,
    /// Radio activity ledger for the round.
    pub ledger: EnergyLedger,
    /// Full-chain transmissions performed.
    pub chain_tx: u32,
    /// Whether the node was failure-injected (never participated).
    pub failed: bool,
}

/// Aggregate outcome of a MiniCast round.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniCastResult {
    /// Cycles actually simulated (≤ scheduled round length).
    pub cycles_run: u32,
    /// Scheduled cycles for the round.
    pub cycles_scheduled: u32,
    /// Duration of one chain cycle.
    pub cycle_duration: SimDuration,
    /// Per-node outcomes, indexed by node id.
    pub nodes: Vec<NodeOutcome>,
    chain_len: usize,
}

impl MiniCastResult {
    /// Total round duration (cycles run × cycle duration).
    pub fn duration(&self) -> SimDuration {
        self.cycle_duration * self.cycles_run as u64
    }

    /// The a-priori scheduled round duration (the TDMA schedule is fixed
    /// before the round; phase boundaries use this, not the early-exit
    /// duration).
    pub fn scheduled_duration(&self) -> SimDuration {
        self.cycle_duration * self.cycles_scheduled as u64
    }

    /// Mean fraction of chain packets held per non-failed node.
    pub fn coverage(&self) -> f64 {
        let mut num = 0usize;
        let mut den = 0usize;
        for node in self.nodes.iter().filter(|n| !n.failed) {
            num += node.received.iter().filter(|&&r| r).count();
            den += self.chain_len;
        }
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// `true` if every non-failed node holds every packet.
    pub fn all_received(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| !n.failed)
            .all(|n| n.received.iter().all(|&r| r))
    }

    /// `true` if every non-failed node met its completion predicate.
    pub fn all_complete(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| !n.failed)
            .all(|n| n.predicate_met_at.is_some())
    }

    /// Latest predicate-completion instant over non-failed nodes (`None`
    /// if any node never completed).
    pub fn completion_latency(&self) -> Option<SimDuration> {
        let mut worst = SimTime::ZERO;
        for node in self.nodes.iter().filter(|n| !n.failed) {
            worst = worst.max(node.predicate_met_at?);
        }
        Some(worst - SimTime::ZERO)
    }

    /// Mean radio-on time across non-failed nodes, in milliseconds.
    pub fn mean_radio_on_ms(&self) -> f64 {
        let (sum, live) = self
            .nodes
            .iter()
            .filter(|n| !n.failed)
            .fold((0.0, 0usize), |(sum, live), n| {
                (sum + n.ledger.radio_on().as_millis_f64(), live + 1)
            });
        if live == 0 {
            0.0
        } else {
            sum / live as f64
        }
    }

    /// Maximum radio-on time across nodes.
    pub fn max_radio_on(&self) -> SimDuration {
        self.nodes
            .iter()
            .map(|n| n.ledger.radio_on())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// `NeedSet::wanted_by` entry for a packet every node counts.
const EVERY_NODE: u32 = u32::MAX;

/// A compiled completion rule for [`MiniCastSchedule::run_needs`]: node
/// `v` completes once it holds its quota of the packets flagged for it.
///
/// Each packet either counts for every node or for exactly one node, and
/// only while it is flagged. The quota is either *all* flagged packets a
/// node counts, or a fixed `k` of them. That covers the protocol's three
/// rules:
///
/// * [`NeedSet::whole_chain`] — every node needs every packet (strict,
///   all-to-all completion);
/// * [`NeedSet::addressed`] — each packet has one destination that needs
///   it, and a node needs all flagged packets addressed to it (a dark
///   sub-slot is unflagged);
/// * [`NeedSet::at_least`] — every node needs any `k` flagged packets
///   (threshold reconstruction over the usable ones).
///
/// The packet-to-node map is static and built once per chain; only the
/// flags change per round ([`NeedSet::set_flagged`]). During a run each
/// reception costs one counter update.
///
/// # Example
///
/// ```
/// use ppda_ct::{ChainSpec, MiniCastConfig, MiniCastSchedule, LinkConditions,
///     MiniCastScratch, NeedSet};
/// use ppda_radio::FrameSpec;
/// use ppda_sim::Xoshiro256;
/// use ppda_topology::Topology;
///
/// let topology = Topology::flocklab();
/// let n = topology.len();
/// let chain = ChainSpec::new(FrameSpec::new(8, 0).unwrap(), (0..n as u16).collect()).unwrap();
/// let schedule = MiniCastSchedule::new(&topology, chain, MiniCastConfig::default());
/// let conditions = LinkConditions::new(&topology, 0.0);
/// // Every node needs any 5 packets, except those of nodes 0 and 1.
/// let mut need = NeedSet::at_least(n, 5);
/// let flags: Vec<bool> = (0..n).map(|j| j > 1).collect();
/// need.set_flagged(&flags);
/// let mut scratch = MiniCastScratch::default();
/// let failed = vec![false; n];
/// let r = schedule.run_needs(&conditions, &mut Xoshiro256::seed_from(1), &failed, &need, &mut scratch);
/// assert!(r.all_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeedSet {
    /// Per packet: the one node that counts it, or [`EVERY_NODE`].
    wanted_by: Vec<u32>,
    /// Per packet: whether it counts this round.
    flagged: Vec<bool>,
    /// `Some(k)`: any `k` counted packets; `None`: all of them.
    quota: Option<u32>,
}

impl NeedSet {
    /// Every node needs every packet of a `len`-packet chain.
    pub fn whole_chain(len: usize) -> Self {
        NeedSet {
            wanted_by: vec![EVERY_NODE; len],
            flagged: vec![true; len],
            quota: None,
        }
    }

    /// Packet `j` is needed by node `wanted_by[j]` only; a node needs
    /// every flagged packet addressed to it. All packets start flagged.
    ///
    /// # Panics
    ///
    /// Panics if a node id is `u32::MAX` or larger.
    pub fn addressed(wanted_by: impl IntoIterator<Item = usize>) -> Self {
        let wanted_by: Vec<u32> = wanted_by
            .into_iter()
            .map(|v| {
                u32::try_from(v)
                    .ok()
                    .filter(|&v| v != EVERY_NODE)
                    .expect("node id fits a need set")
            })
            .collect();
        let len = wanted_by.len();
        NeedSet {
            wanted_by,
            flagged: vec![true; len],
            quota: None,
        }
    }

    /// Every node needs any `k` flagged packets of a `len`-packet chain.
    /// All packets start flagged.
    pub fn at_least(len: usize, k: usize) -> Self {
        NeedSet {
            wanted_by: vec![EVERY_NODE; len],
            flagged: vec![true; len],
            quota: Some(u32::try_from(k).unwrap_or(u32::MAX)),
        }
    }

    /// Replace the per-packet flags: packet `j` counts iff `flags[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `flags.len()` differs from the chain length.
    pub fn set_flagged(&mut self, flags: &[bool]) {
        self.flagged.copy_from_slice(flags);
    }

    /// Chain length the rule covers.
    pub fn len(&self) -> usize {
        self.wanted_by.len()
    }

    /// `true` for a rule over an empty chain.
    pub fn is_empty(&self) -> bool {
        self.wanted_by.is_empty()
    }

    /// Whether node `v` counts packet `j`.
    #[inline]
    fn counts(&self, v: usize, j: usize) -> bool {
        self.flagged[j] && {
            let w = self.wanted_by[j];
            w == EVERY_NODE || w as usize == v
        }
    }

    /// Per node of an `n`-node topology: how many counted packets it must
    /// hold.
    fn quotas_into(&self, n: usize, out: &mut Vec<u32>) {
        out.clear();
        if let Some(k) = self.quota {
            out.resize(n, k);
            return;
        }
        out.resize(n, 0);
        let mut every = 0u32;
        for (&w, _) in self.wanted_by.iter().zip(&self.flagged).filter(|(_, &f)| f) {
            if w == EVERY_NODE {
                every += 1;
            } else {
                assert!(
                    (w as usize) < n,
                    "need set addresses node {w} outside topology"
                );
                out[w as usize] += 1;
            }
        }
        if every > 0 {
            out.iter_mut().for_each(|q| *q += every);
        }
    }
}

/// Reusable engine state for [`MiniCastSchedule::run_needs`]. Holding one
/// across rounds lets a round reuse the engine's buffers instead of
/// reallocating them; one scratch serves any schedule and any topology
/// size, one run at a time.
#[derive(Debug, Clone, Default)]
pub struct MiniCastScratch {
    state: FloodState,
    /// Per node: counted packets held, and the quota to reach.
    held: Vec<u32>,
    required: Vec<u32>,
}

/// The engine's per-run state. Node sets are word masks (see
/// [`crate::engine`]).
#[derive(Debug, Clone, Default)]
struct FloodState {
    /// Per packet: the nodes holding it (`l × words`).
    holders: Vec<u64>,
    /// Per (node, packet): fragment receipt bitmap (`n × l`); fragmented
    /// chains only.
    frag_have: Vec<u64>,
    /// Node masks: radio on, joined the flood, heard any packet,
    /// transmitting this cycle, transmitting this sub-slot.
    on: Vec<u64>,
    joined: Vec<u64>,
    heard: Vec<u64>,
    active: Vec<u64>,
    tx: Vec<u64>,
    /// Per node: packets held, chain transmissions, sub-slots spent
    /// transmitting and idle-listening.
    held: Vec<u32>,
    tx_count: Vec<u32>,
    tx_slots: Vec<u64>,
    idle_slots: Vec<u64>,
    /// Per node: reception time booked so far, completion and radio-off
    /// instants.
    ledgers: Vec<EnergyLedger>,
    met_at: Vec<Option<SimTime>>,
    off_at: Vec<Option<SimTime>>,
}

impl FloodState {
    /// Clear every buffer for a run over `n` nodes and `l` packets.
    fn reset(&mut self, n: usize, l: usize, words: usize, fragmented: bool) {
        fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
            buf.clear();
            buf.resize(len, value);
        }
        refill(&mut self.holders, l * words, 0);
        refill(&mut self.frag_have, if fragmented { n * l } else { 0 }, 0);
        for mask in [
            &mut self.on,
            &mut self.joined,
            &mut self.heard,
            &mut self.active,
            &mut self.tx,
        ] {
            refill(mask, words, 0);
        }
        refill(&mut self.held, n, 0);
        refill(&mut self.tx_count, n, 0);
        refill(&mut self.tx_slots, n, 0);
        refill(&mut self.idle_slots, n, 0);
        refill(&mut self.ledgers, n, EnergyLedger::new());
        refill(&mut self.met_at, n, None);
        refill(&mut self.off_at, n, None);
    }
}

/// How the engine learns that a node's data needs are met.
trait Completion {
    /// Start a run over `n` nodes and `l` packets; nobody holds anything.
    fn begin(&mut self, n: usize, l: usize);
    /// Node `v` now holds packet `j`.
    fn hold(&mut self, v: usize, j: usize);
    /// Whether node `v`'s needs are met by what it holds.
    fn met(&mut self, v: usize) -> bool;
}

/// [`NeedSet`] completion: one counter per node.
struct Counted<'a> {
    need: &'a NeedSet,
    held: &'a mut Vec<u32>,
    required: &'a mut Vec<u32>,
}

impl Completion for Counted<'_> {
    fn begin(&mut self, n: usize, _l: usize) {
        self.held.clear();
        self.held.resize(n, 0);
        self.need.quotas_into(n, self.required);
    }

    #[inline]
    fn hold(&mut self, v: usize, j: usize) {
        if self.need.counts(v, j) {
            self.held[v] += 1;
        }
    }

    #[inline]
    fn met(&mut self, v: usize) -> bool {
        self.held[v] >= self.required[v]
    }
}

/// Closure completion for [`MiniCastSchedule::run_with`]: a row of
/// `l` flags per node, handed to the predicate.
struct Predicate<F> {
    predicate: F,
    have: Vec<bool>,
    l: usize,
}

impl<F: Fn(usize, &[bool]) -> bool> Completion for Predicate<F> {
    fn begin(&mut self, n: usize, l: usize) {
        self.l = l;
        self.have.clear();
        self.have.resize(n * l, false);
    }

    fn hold(&mut self, v: usize, j: usize) {
        self.have[v * self.l + j] = true;
    }

    fn met(&mut self, v: usize) -> bool {
        (self.predicate)(v, &self.have[v * self.l..(v + 1) * self.l])
    }
}

/// The per-round radio conditions: a link table under one attenuation draw.
///
/// Building one is O(n²) in the deployment size; both MiniCast phases of an
/// aggregation round (and any Glossy floods in between) can share a single
/// instance because the round-scale fading is drawn once per round.
#[derive(Debug, Clone)]
pub struct LinkConditions {
    links: LinkTable,
    n: usize,
}

impl LinkConditions {
    /// Evaluate every link of `topology` under `attenuation_db` of extra
    /// round-scale attenuation.
    pub fn new(topology: &Topology, attenuation_db: f64) -> Self {
        LinkConditions {
            links: LinkTable::new(topology, attenuation_db),
            n: topology.len(),
        }
    }

    /// Evaluate every link under extra attenuation *and* a per-link
    /// erasure probability `loss`: each PRR is scaled by `1 - loss` for
    /// the round. This is the fault-injection layer's entry point
    /// (see [`FaultPlan`](crate::FaultPlan)); `loss = 0` produces a table
    /// bit-identical to [`LinkConditions::new`].
    pub fn degraded(topology: &Topology, attenuation_db: f64, loss: f64) -> Self {
        LinkConditions {
            links: LinkTable::with_loss(topology, attenuation_db, loss),
            n: topology.len(),
        }
    }

    /// Number of nodes the conditions cover.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for an empty topology (unconstructible in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Memoizes [`LinkConditions`] per `(attenuation_db, loss)` operating
/// point, for holders that rebuild a table every round over one fixed
/// topology.
///
/// Profiling the round pipeline shows the O(n²) link-table build is paid
/// every round even though the fading mixtures draw the *calm* state
/// (attenuation 0 dB) for a large fraction of rounds, and the fault
/// layer's loss is a per-deployment constant — the same table over and
/// over. The cache keys on the exact f64 bit patterns, so a hit returns a
/// table **bit-identical** to a fresh build (table construction draws no
/// randomness), and `loss = 0` shares the entry a
/// [`LinkConditions::new`] call would produce (the two constructors are
/// documented bit-identical at zero loss).
///
/// The handful of retained entries use move-to-front eviction: the
/// recurring calm entry survives bursts of one-off continuous attenuation
/// draws, which themselves almost never repeat.
///
/// The cache is topology-oblivious by design — callers hold it alongside
/// **one** fixed topology (an executor's compiled plan) and must not share
/// it across topologies.
///
/// # Example
///
/// ```
/// use ppda_ct::LinkConditionsCache;
/// use ppda_topology::Topology;
///
/// let topology = Topology::grid(3, 3, 18.0, 5);
/// let mut cache = LinkConditionsCache::new();
/// cache.get(&topology, 0.0, 0.0);
/// cache.get(&topology, 4.5, 0.0); // continuous draw: one-off entry
/// cache.get(&topology, 0.0, 0.0); // calm again: no rebuild
/// assert_eq!(cache.builds(), 2);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinkConditionsCache {
    /// Most-recently-used first; bounded by `CAPACITY`.
    entries: Vec<((u64, u64), LinkConditions)>,
    hits: u64,
    builds: u64,
}

impl LinkConditionsCache {
    /// Retained operating points. One slot would thrash between the calm
    /// draw and the continuous draws; a few slots keep the calm entry
    /// resident unless that many distinct non-calm draws occur in a row.
    const CAPACITY: usize = 4;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The conditions for `(topology, attenuation_db, loss)`, built on the
    /// first request for this operating point and replayed bit-identically
    /// afterwards. `topology` must be the same network on every call.
    pub fn get(&mut self, topology: &Topology, attenuation_db: f64, loss: f64) -> &LinkConditions {
        debug_assert!(
            !attenuation_db.is_nan() && !loss.is_nan(),
            "NaN operating point would never hit its own cache entry"
        );
        // Keying on raw bit patterns would file 0.0 and -0.0 as distinct
        // entries (they build identical tables — `0.0 == -0.0`), wasting
        // MRU slots on the most common operating point; canonicalize the
        // negative-zero spelling away. `x + 0.0` maps -0.0 to +0.0 and is
        // the identity on every other non-NaN value.
        let key = ((attenuation_db + 0.0).to_bits(), (loss + 0.0).to_bits());
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            // Move-to-front so recurring points outlive one-off draws.
            self.entries[..=pos].rotate_right(1);
        } else {
            self.builds += 1;
            let conditions = LinkConditions::degraded(topology, attenuation_db, loss);
            self.entries.insert(0, (key, conditions));
            self.entries.truncate(Self::CAPACITY);
        }
        &self.entries[0].1
    }

    /// Requests served from a retained table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that built (and retained) a fresh table.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// The immutable, reusable part of a MiniCast round: chain layout,
/// initiator election (plus the failover ranking used when the initiator is
/// failure-injected), and the scheduled round length.
///
/// Everything here derives from `(topology, chain, config)` only — no
/// per-round randomness — so a periodic-aggregation deployment computes it
/// once at bootstrap and replays it every sensing epoch with fresh
/// [`LinkConditions`].
#[derive(Debug, Clone)]
pub struct MiniCastSchedule {
    chain: ChainSpec,
    config: MiniCastConfig,
    initiator: usize,
    round_cycles: u32,
    /// Deduped chain owners ranked by (eccentricity, id) — the failover
    /// order when the designated initiator is dead. Owners disconnected at
    /// the link threshold are excluded.
    owner_rank: Vec<usize>,
    n: usize,
}

impl MiniCastSchedule {
    /// Bind a chain schedule to a topology.
    ///
    /// `config.attenuation_db` is ignored here: a schedule outlives any
    /// one round, so per-round attenuation belongs to the
    /// [`LinkConditions`] handed to [`MiniCastSchedule::run_with`].
    ///
    /// # Panics
    ///
    /// Panics if a chain owner id is outside the topology, or if the
    /// configured initiator is.
    pub fn new(topology: &Topology, chain: ChainSpec, config: MiniCastConfig) -> Self {
        let n = topology.len();
        for &o in chain.owners() {
            assert!((o as usize) < n, "chain owner {o} outside topology");
        }
        let mut owners: Vec<usize> = chain.owners().iter().map(|&o| o as usize).collect();
        owners.sort_unstable();
        owners.dedup();
        let mut ranked: Vec<(u32, usize)> = owners
            .iter()
            .filter_map(|&v| {
                topology
                    .eccentricity(v, config.link_threshold)
                    .map(|e| (e, v))
            })
            .collect();
        ranked.sort_unstable();
        let owner_rank: Vec<usize> = ranked.iter().map(|&(_, v)| v).collect();
        let initiator = match config.initiator {
            Some(i) => {
                assert!((i as usize) < n, "initiator {i} outside topology");
                i as usize
            }
            // The initiator kick-starts the round, so it must own at least
            // one sub-slot; pick the most central chain owner.
            None => owner_rank
                .first()
                .copied()
                .unwrap_or_else(|| chain.owner(0) as usize),
        };
        let ecc = topology
            .eccentricity(initiator, config.link_threshold)
            .unwrap_or(n as u32);
        let round_cycles = config
            .max_cycles
            .unwrap_or(ecc + config.ntx + config.slack_cycles)
            .max(1);
        MiniCastSchedule {
            chain,
            config,
            initiator,
            round_cycles,
            owner_rank,
            n,
        }
    }

    /// The chain this schedule disseminates.
    pub fn chain(&self) -> &ChainSpec {
        &self.chain
    }

    /// The round parameters the schedule was built with.
    pub fn config(&self) -> &MiniCastConfig {
        &self.config
    }

    /// The flood initiator node.
    pub fn initiator(&self) -> usize {
        self.initiator
    }

    /// Scheduled round length in cycles.
    pub fn round_cycles(&self) -> u32 {
        self.round_cycles
    }

    /// Run one round where completion means "received the whole chain"
    /// (the all-to-all use of MiniCast).
    pub fn run(&self, conditions: &LinkConditions, rng: &mut Xoshiro256) -> MiniCastResult {
        self.run_needs(
            conditions,
            rng,
            &vec![false; self.n],
            &NeedSet::whole_chain(self.chain.len()),
            &mut MiniCastScratch::default(),
        )
    }

    /// Run one round with failure injection and a custom per-node
    /// completion predicate.
    ///
    /// `failed[v]` nodes never power their radio. The predicate receives
    /// `(node, received)` and decides when the node has all it needs; a
    /// node switches off once its predicate holds *and* it has transmitted
    /// the chain NTX times (its relay duty).
    ///
    /// This is an adapter over the engine behind
    /// [`MiniCastSchedule::run_needs`]: it mirrors each node's packets
    /// into a `&[bool]` row and asks the predicate again after each
    /// packet a node receives, until it first holds. A [`NeedSet`]
    /// expresses the protocol's completion rules in O(1) per reception.
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` or the conditions' node count differs from
    /// the topology size the schedule was built for.
    pub fn run_with(
        &self,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        predicate: impl Fn(usize, &[bool]) -> bool,
    ) -> MiniCastResult {
        let mut done = Predicate {
            predicate,
            have: Vec::new(),
            l: 0,
        };
        self.flood(
            conditions,
            rng,
            failed,
            &mut done,
            &mut FloodState::default(),
        )
    }

    /// Run one round with failure injection and a compiled completion
    /// rule: node `v` completes once it holds the quota of packets `need`
    /// flags for it (see [`NeedSet`]). The engine state lives in
    /// `scratch`, so a holder that keeps one across rounds reuses its
    /// buffers instead of reallocating them.
    ///
    /// Equivalent to [`MiniCastSchedule::run_with`] with the predicate
    /// the need set describes: same RNG draws, same result.
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` or the conditions' node count differs from
    /// the topology size, if `need` covers a different chain length, or
    /// if it addresses a packet to a node outside the topology.
    pub fn run_needs(
        &self,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        need: &NeedSet,
        scratch: &mut MiniCastScratch,
    ) -> MiniCastResult {
        assert_eq!(need.len(), self.chain.len(), "need set size mismatch");
        let MiniCastScratch {
            state,
            held,
            required,
        } = scratch;
        let mut done = Counted {
            need,
            held,
            required,
        };
        self.flood(conditions, rng, failed, &mut done, state)
    }

    /// The slot engine behind both entry points.
    fn flood(
        &self,
        conditions: &LinkConditions,
        rng: &mut Xoshiro256,
        failed: &[bool],
        done: &mut impl Completion,
        state: &mut FloodState,
    ) -> MiniCastResult {
        let n = self.n;
        assert_eq!(conditions.len(), n, "link conditions size mismatch");
        assert_eq!(failed.len(), n, "failure mask size mismatch");
        let links = &conditions.links;
        let words = links.words();
        let l = self.chain.len();
        let ntx = self.config.ntx;
        let slot = self.chain.slot_duration();
        let airtime = self.chain.frame().airtime();
        let cycle_dur = self.chain.cycle_duration();
        // Fragmented packets occupy `frags` frames per sub-slot: a
        // transmitter sends (and a receiver draws reception for) each
        // fragment individually, and a packet counts as received only when
        // every fragment arrived. `frags == 1` is the classic single-frame
        // chain: one draw per reception opportunity.
        let frags = self.chain.fragments();
        let frag_full: u64 = if frags as usize >= 64 {
            u64::MAX
        } else {
            (1u64 << frags) - 1
        };
        let tx_air = airtime * u64::from(frags);

        state.reset(n, l, words, frags > 1);
        done.begin(n, l);
        let FloodState {
            holders,
            frag_have,
            on,
            joined,
            heard,
            active,
            tx,
            held,
            tx_count,
            tx_slots,
            idle_slots,
            ledgers,
            met_at,
            off_at,
        } = state;

        for v in (0..n).filter(|&v| !failed[v]) {
            insert(on, v);
        }
        for (j, &owner) in self.chain.owners().iter().enumerate() {
            let o = owner as usize;
            if failed[o] {
                continue;
            }
            insert(&mut holders[j * words..(j + 1) * words], o);
            held[o] += 1;
            if frags > 1 {
                frag_have[o * l + j] = frag_full;
            }
            done.hold(o, j);
        }
        // If the designated initiator is dead, the deployment's failover
        // kicks in: the next most central live chain owner starts the
        // round (real CT stacks rotate initiators on sync silence).
        let initiator = if failed[self.initiator] {
            self.owner_rank.iter().copied().find(|&v| !failed[v])
        } else {
            Some(self.initiator)
        };
        if let Some(init) = initiator {
            insert(joined, init);
        }
        // Initial check (e.g. a node that owns everything it needs).
        for v in 0..n {
            if !failed[v] && done.met(v) {
                met_at[v] = Some(SimTime::ZERO);
            }
        }

        let mut on_count = failed.iter().filter(|&&f| !f).count();
        let mut cycles_run = 0u32;
        'round: for cycle in 0..self.round_cycles {
            cycles_run = cycle + 1;
            let cycle_start = SimTime::ZERO + cycle_dur * cycle as u64;

            // Who transmits the chain during this cycle. Packet `j` is on
            // the air only in sub-slot `j`, so an active node sends exactly
            // the packets it held when the cycle began. Every powered node
            // spends each sub-slot either transmitting or listening, so its
            // radio time for the cycle is booked here in bulk; a reception
            // below moves one sub-slot from idle listening to receiving.
            active.fill(0);
            for v in 0..n {
                if !has(on, v) {
                    continue;
                }
                let sent = if has(joined, v) && tx_count[v] < ntx {
                    insert(active, v);
                    held[v]
                } else {
                    0
                };
                tx_slots[v] += u64::from(sent);
                idle_slots[v] += (l - sent as usize) as u64;
            }

            for j in 0..l {
                let slot_end = cycle_start + slot * j as u64 + slot;
                let hold = &mut holders[j * words..(j + 1) * words];
                // Transmitter set: active nodes holding packet j.
                let mut any_tx = false;
                for ((t, &a), &h) in tx.iter_mut().zip(active.iter()).zip(hold.iter()) {
                    *t = a & h;
                    any_tx |= *t != 0;
                }
                if !any_tx {
                    continue;
                }
                // Listeners: powered nodes not transmitting.
                for w in 0..words {
                    let mut listeners = on[w] & !tx[w];
                    while listeners != 0 {
                        let v = w * 64 + listeners.trailing_zeros() as usize;
                        listeners &= listeners - 1;
                        let p = links.reception(v, tx);
                        if p <= 0.0 {
                            continue;
                        }
                        if has(hold, v) {
                            // Overhearing a known packet still synchronizes.
                            if rng.chance(p) {
                                insert(heard, v);
                            }
                            continue;
                        }
                        let new_rx = if frags == 1 {
                            u64::from(rng.chance(p))
                        } else {
                            // Fragmented packet: each still-missing
                            // fragment is an independent reception
                            // opportunity this sub-slot (transmitters hold
                            // complete packets, so every fragment is on the
                            // air). The packet completes only once the
                            // receipt bitmap fills — losing one fragment
                            // forfeits the whole packet for this sub-slot,
                            // never splices.
                            let got = &mut frag_have[v * l + j];
                            let mut new_rx = 0u64;
                            for f in 0..frags {
                                let bit = 1u64 << f;
                                if *got & bit == 0 && rng.chance(p) {
                                    *got |= bit;
                                    new_rx += 1;
                                }
                            }
                            new_rx
                        };
                        if new_rx == 0 {
                            continue;
                        }
                        insert(heard, v);
                        ledgers[v].add_rx(airtime * new_rx);
                        ledgers[v].add_listen(slot.saturating_sub(airtime * new_rx));
                        idle_slots[v] -= 1;
                        if frags == 1 || frag_have[v * l + j] == frag_full {
                            insert(hold, v);
                            held[v] += 1;
                            done.hold(v, j);
                            if met_at[v].is_none() && done.met(v) {
                                met_at[v] = Some(slot_end);
                            }
                        }
                    }
                }
            }

            // Cycle boundary: count chain transmissions, admit new joiners,
            // switch off finished nodes.
            let cycle_end = cycle_start + cycle_dur;
            for v in 0..n {
                if has(active, v) {
                    tx_count[v] += 1;
                }
                if !has(on, v) {
                    continue;
                }
                if has(heard, v) {
                    insert(joined, v);
                }
                if self.config.early_radio_off && tx_count[v] >= ntx && met_at[v].is_some() {
                    remove(on, v);
                    on_count -= 1;
                    off_at[v] = Some(cycle_end);
                }
            }
            if on_count == 0 {
                break 'round;
            }
        }

        let nodes = (0..n)
            .map(|v| {
                let mut ledger = ledgers[v];
                ledger.add_tx(tx_air * tx_slots[v]);
                ledger.add_listen(slot.saturating_sub(tx_air) * tx_slots[v]);
                ledger.add_listen(slot * idle_slots[v]);
                NodeOutcome {
                    received: holders.chunks_exact(words).map(|h| has(h, v)).collect(),
                    predicate_met_at: met_at[v],
                    radio_off_at: off_at[v],
                    ledger,
                    chain_tx: tx_count[v],
                    failed: failed[v],
                }
            })
            .collect();

        MiniCastResult {
            cycles_run,
            cycles_scheduled: self.round_cycles,
            cycle_duration: cycle_dur,
            nodes,
            chain_len: l,
        }
    }
}

/// A configured MiniCast instance over a fixed topology and chain: one
/// [`MiniCastSchedule`] bound to one set of [`LinkConditions`] (built from
/// `config.attenuation_db`). The single-shot convenience API; round-based
/// protocols hold the schedule and swap conditions per round instead.
#[derive(Debug, Clone)]
pub struct MiniCast {
    schedule: MiniCastSchedule,
    conditions: LinkConditions,
}

impl MiniCast {
    /// Bind a chain schedule to a topology.
    ///
    /// # Panics
    ///
    /// Panics if a chain owner id is outside the topology, or if the
    /// configured initiator is.
    pub fn new(topology: &Topology, chain: ChainSpec, config: MiniCastConfig) -> Self {
        MiniCast {
            schedule: MiniCastSchedule::new(topology, chain, config),
            conditions: LinkConditions::new(topology, config.attenuation_db),
        }
    }

    /// The chain this instance disseminates.
    pub fn chain(&self) -> &ChainSpec {
        self.schedule.chain()
    }

    /// The reusable schedule backing this instance.
    pub fn schedule(&self) -> &MiniCastSchedule {
        &self.schedule
    }

    /// The flood initiator node.
    pub fn initiator(&self) -> usize {
        self.schedule.initiator()
    }

    /// Scheduled round length in cycles.
    pub fn round_cycles(&self) -> u32 {
        self.schedule.round_cycles()
    }

    /// Run one round where completion means "received the whole chain"
    /// (the all-to-all use of MiniCast).
    pub fn run(&self, rng: &mut Xoshiro256) -> MiniCastResult {
        self.schedule.run(&self.conditions, rng)
    }

    /// Run one round with failure injection and a custom per-node
    /// completion predicate; see [`MiniCastSchedule::run_with`].
    ///
    /// # Panics
    ///
    /// Panics if `failed.len()` differs from the topology size.
    pub fn run_with(
        &self,
        rng: &mut Xoshiro256,
        failed: &[bool],
        predicate: impl Fn(usize, &[bool]) -> bool,
    ) -> MiniCastResult {
        self.schedule
            .run_with(&self.conditions, rng, failed, predicate)
    }

    /// Measure mean all-to-all coverage as a function of NTX — the
    /// non-linear curve (steep rise, slow tail) that motivates S4's low-NTX
    /// sharing phase.
    ///
    /// Returns `(ntx, mean coverage over iterations)` pairs.
    pub fn coverage_vs_ntx(
        topology: &Topology,
        frame: FrameSpec,
        ntx_values: &[u32],
        iterations: u32,
        seed: u64,
    ) -> Vec<(u32, f64)> {
        // The chain and link conditions are NTX-independent: build them once
        // and share them across the sweep.
        let owners: Vec<u16> = (0..topology.len() as u16).collect();
        let chain = ChainSpec::new(frame, owners).expect("non-empty");
        let conditions = LinkConditions::new(topology, MiniCastConfig::default().attenuation_db);
        ntx_values
            .iter()
            .map(|&ntx| {
                let config = MiniCastConfig {
                    ntx,
                    ..MiniCastConfig::default()
                };
                let schedule = MiniCastSchedule::new(topology, chain.clone(), config);
                let mut total = 0.0;
                for it in 0..iterations {
                    let mut rng =
                        Xoshiro256::seed_from(derive_stream(seed, (ntx as u64) << 32 | it as u64));
                    total += schedule.run(&conditions, &mut rng).coverage();
                }
                (ntx, total / iterations as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_radio::FrameSpec;

    fn frame() -> FrameSpec {
        FrameSpec::new(8, 0).unwrap()
    }

    fn all_to_all(topology: &Topology) -> ChainSpec {
        ChainSpec::new(frame(), (0..topology.len() as u16).collect()).unwrap()
    }

    #[test]
    fn full_coverage_at_high_ntx() {
        let t = Topology::flocklab();
        let mc = MiniCast::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256::seed_from(42);
        let r = mc.run(&mut rng);
        assert!(r.coverage() > 0.99, "coverage {}", r.coverage());
        assert!(r.all_received());
        assert!(r.all_complete());
    }

    #[test]
    fn low_ntx_partial_coverage_on_line() {
        // A 10-node line with 30 m spacing: data cannot cross the network
        // at ntx=2.
        let t = Topology::line(10, 30.0, 3);
        let mc = MiniCast::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 2,
                initiator: Some(0),
                ..Default::default()
            },
        );
        let mut rng = Xoshiro256::seed_from(7);
        let r = mc.run(&mut rng);
        assert!(r.coverage() < 0.95, "line coverage {}", r.coverage());
        assert!(!r.all_received());
    }

    #[test]
    fn coverage_monotone_in_ntx() {
        let t = Topology::flocklab();
        let curve = MiniCast::coverage_vs_ntx(&t, frame(), &[1, 3, 6, 12], 5, 99);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.05,
                "coverage should grow with ntx: {curve:?}"
            );
        }
        assert!(curve.last().unwrap().1 > 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Topology::flocklab();
        let mc = MiniCast::new(&t, all_to_all(&t), MiniCastConfig::default());
        let r1 = mc.run(&mut Xoshiro256::seed_from(5));
        let r2 = mc.run(&mut Xoshiro256::seed_from(5));
        assert_eq!(r1.coverage(), r2.coverage());
        assert_eq!(r1.cycles_run, r2.cycles_run);
        for (a, b) in r1.nodes.iter().zip(&r2.nodes) {
            assert_eq!(a.received, b.received);
            assert_eq!(a.predicate_met_at, b.predicate_met_at);
        }
    }

    #[test]
    fn schedule_reuse_matches_single_shot() {
        // The whole point of the split: a schedule reused with fresh
        // per-round conditions must behave exactly like a freshly built
        // MiniCast instance.
        let t = Topology::flocklab();
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), MiniCastConfig::default());
        let conditions = LinkConditions::new(&t, 0.0);
        for seed in [3u64, 5, 8, 13] {
            let fresh = MiniCast::new(&t, all_to_all(&t), MiniCastConfig::default());
            let a = fresh.run(&mut Xoshiro256::seed_from(seed));
            let b = schedule.run(&conditions, &mut Xoshiro256::seed_from(seed));
            assert_eq!(a.cycles_run, b.cycles_run);
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn conditions_shared_across_phases_match_per_phase_tables() {
        // One LinkConditions at a given attenuation equals the table a
        // fresh MiniCast builds from config.attenuation_db.
        let t = Topology::dcube();
        let config = MiniCastConfig {
            attenuation_db: 3.5,
            ..Default::default()
        };
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), config);
        let conditions = LinkConditions::new(&t, 3.5);
        let fresh = MiniCast::new(&t, all_to_all(&t), config);
        let a = fresh.run(&mut Xoshiro256::seed_from(21));
        let b = schedule.run(&conditions, &mut Xoshiro256::seed_from(21));
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn degraded_conditions_at_zero_loss_match_plain() {
        // The fault layer's contract: loss = 0 (and no extra attenuation)
        // is byte-identical to the undegraded table.
        let t = Topology::flocklab();
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), MiniCastConfig::default());
        let plain = LinkConditions::new(&t, 1.5);
        let degraded = LinkConditions::degraded(&t, 1.5, 0.0);
        let a = schedule.run(&plain, &mut Xoshiro256::seed_from(31));
        let b = schedule.run(&degraded, &mut Xoshiro256::seed_from(31));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.cycles_run, b.cycles_run);
    }

    #[test]
    fn degraded_conditions_reduce_coverage() {
        let t = Topology::flocklab();
        let config = MiniCastConfig {
            ntx: 2,
            max_cycles: Some(4),
            ..Default::default()
        };
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), config);
        let clean = LinkConditions::new(&t, 0.0);
        let lossy = LinkConditions::degraded(&t, 0.0, 0.6);
        let mut clean_cov = 0.0;
        let mut lossy_cov = 0.0;
        for seed in 0..8u64 {
            clean_cov += schedule
                .run(&clean, &mut Xoshiro256::seed_from(seed))
                .coverage();
            lossy_cov += schedule
                .run(&lossy, &mut Xoshiro256::seed_from(seed))
                .coverage();
        }
        assert!(
            lossy_cov < clean_cov,
            "60% link loss must hurt coverage: {lossy_cov} vs {clean_cov}"
        );
    }

    #[test]
    #[should_panic(expected = "link conditions size mismatch")]
    fn mismatched_conditions_panic() {
        let t = Topology::flocklab();
        let schedule = MiniCastSchedule::new(&t, all_to_all(&t), MiniCastConfig::default());
        let small = LinkConditions::new(&Topology::line(3, 20.0, 1), 0.0);
        let _ = schedule.run(&small, &mut Xoshiro256::seed_from(1));
    }

    #[test]
    fn failed_nodes_never_participate() {
        let t = Topology::flocklab();
        let mut failed = vec![false; t.len()];
        failed[3] = true;
        failed[17] = true;
        let mc = MiniCast::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let l = t.len();
        let r = mc.run_with(&mut Xoshiro256::seed_from(11), &failed, |_, have| {
            // Live nodes need every packet except the failed nodes' own.
            have.iter()
                .enumerate()
                .filter(|&(j, _)| j != 3 && j != 17)
                .all(|(_, &h)| h)
        });
        assert_eq!(r.nodes[3].chain_tx, 0);
        assert_eq!(r.nodes[3].ledger.radio_on(), SimDuration::ZERO);
        assert!(r.nodes[3].failed);
        // The failed nodes' packets spread to nobody.
        for v in 0..l {
            if v != 3 {
                assert!(!r.nodes[v].received[3]);
            }
        }
        // Everyone else still completes.
        assert!(r.all_complete());
    }

    #[test]
    fn early_radio_off_with_cheap_predicate() {
        let t = Topology::flocklab();
        // Predicate: own packet only — met immediately; nodes switch off
        // as soon as their NTX duty is done.
        let mc = MiniCast::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 2,
                ..Default::default()
            },
        );
        let failed = vec![false; t.len()];
        let r = mc.run_with(&mut Xoshiro256::seed_from(13), &failed, |v, have| have[v]);
        // Radio-off must happen well before the scheduled end for most nodes.
        let off_count = r.nodes.iter().filter(|n| n.radio_off_at.is_some()).count();
        assert!(off_count > t.len() / 2, "only {off_count} turned off early");
        // And the round must terminate early once everyone is off.
        assert!(r.cycles_run <= r.cycles_scheduled);
    }

    #[test]
    fn radio_on_scales_with_chain_length() {
        let t = Topology::flocklab();
        let short = ChainSpec::new(frame(), (0..t.len() as u16).collect()).unwrap();
        let long_owners: Vec<u16> = (0..t.len() as u16).cycle().take(t.len() * 4).collect();
        let long = ChainSpec::new(frame(), long_owners).unwrap();
        let cfg = MiniCastConfig {
            ntx: 6,
            ..Default::default()
        };
        let r_short = MiniCast::new(&t, short, cfg).run(&mut Xoshiro256::seed_from(17));
        let r_long = MiniCast::new(&t, long, cfg).run(&mut Xoshiro256::seed_from(17));
        assert!(
            r_long.mean_radio_on_ms() > 2.0 * r_short.mean_radio_on_ms(),
            "long chain {} vs short {}",
            r_long.mean_radio_on_ms(),
            r_short.mean_radio_on_ms()
        );
    }

    #[test]
    fn completion_latency_below_round_duration() {
        let t = Topology::flocklab();
        let mc = MiniCast::new(
            &t,
            all_to_all(&t),
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let r = mc.run(&mut Xoshiro256::seed_from(19));
        let latency = r.completion_latency().expect("complete at ntx=12");
        assert!(latency <= r.duration());
        assert!(latency > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn owner_out_of_range_panics() {
        let t = Topology::line(3, 20.0, 1);
        let chain = ChainSpec::new(frame(), vec![5]).unwrap();
        let _ = MiniCast::new(&t, chain, MiniCastConfig::default());
    }

    #[test]
    #[should_panic(expected = "failure mask")]
    fn bad_failure_mask_panics() {
        let t = Topology::line(3, 20.0, 1);
        let chain = ChainSpec::new(frame(), vec![0, 1, 2]).unwrap();
        let mc = MiniCast::new(&t, chain, MiniCastConfig::default());
        let _ = mc.run_with(&mut Xoshiro256::seed_from(1), &[false; 2], |_, _| true);
    }

    #[test]
    fn failed_initiator_fails_over_to_live_owner() {
        let t = Topology::flocklab();
        let chain = all_to_all(&t);
        let mc = MiniCast::new(
            &t,
            chain,
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let mut failed = vec![false; t.len()];
        failed[mc.initiator()] = true;
        let dead = mc.initiator();
        let r = mc.run_with(&mut Xoshiro256::seed_from(23), &failed, |_, have| {
            have.iter()
                .enumerate()
                .filter(|&(j, _)| j != dead)
                .all(|(_, &h)| h)
        });
        // The round still runs: another owner kick-started it.
        assert!(
            r.coverage() > 0.9,
            "failover initiator must keep the round alive: {}",
            r.coverage()
        );
        assert!(r.all_complete());
    }

    #[test]
    fn initiator_defaults_to_center() {
        let t = Topology::line(5, 30.0, 1);
        let chain = ChainSpec::new(frame(), vec![0, 1, 2, 3, 4]).unwrap();
        let mc = MiniCast::new(&t, chain, MiniCastConfig::default());
        assert_eq!(mc.initiator(), 2);
    }

    #[test]
    fn conditions_cache_replays_tables_bit_identically() {
        let t = Topology::grid(3, 3, 18.0, 5);
        let mut cache = LinkConditionsCache::new();
        for &(db, loss) in &[(0.0, 0.0), (3.5, 0.0), (0.0, 0.0), (0.0, 0.2), (0.0, 0.0)] {
            let fresh = LinkConditions::degraded(&t, db, loss);
            let cached = cache.get(&t, db, loss);
            assert_eq!(
                cached.links.fingerprint(),
                fresh.links.fingerprint(),
                "cached table must be bit-identical at ({db}, {loss})"
            );
        }
        assert_eq!(cache.builds(), 3, "three distinct operating points");
        assert_eq!(cache.hits(), 2, "both calm repeats hit");
    }

    #[test]
    fn conditions_cache_zero_loss_matches_the_plain_constructor() {
        // `degraded(_, db, 0.0)` is documented bit-identical to
        // `new(_, db)`; the cache leans on that to serve both callers from
        // one entry.
        let t = Topology::grid(3, 3, 18.0, 5);
        let plain = LinkConditions::new(&t, 2.25);
        let mut cache = LinkConditionsCache::new();
        let cached = cache.get(&t, 2.25, 0.0);
        assert_eq!(cached.links.fingerprint(), plain.links.fingerprint());
    }

    #[test]
    fn conditions_cache_keeps_recurring_points_under_eviction_pressure() {
        let t = Topology::line(4, 30.0, 1);
        let mut cache = LinkConditionsCache::new();
        cache.get(&t, 0.0, 0.0);
        // More one-off draws than the capacity retains, interleaved with
        // the recurring calm point: move-to-front must keep it resident.
        for i in 0..8 {
            cache.get(&t, 1.0 + i as f64, 0.0);
            cache.get(&t, 0.0, 0.0);
        }
        assert_eq!(cache.builds(), 9, "calm built once, one-offs once each");
        assert_eq!(cache.hits(), 8, "every calm revisit is a hit");
    }

    #[test]
    fn conditions_cache_canonicalizes_negative_zero() {
        // Regression: raw `f64::to_bits` keys filed 0.0 and -0.0 as two
        // distinct entries even though they build identical tables,
        // wasting MRU slots on the most common (calm) operating point.
        let t = Topology::line(4, 30.0, 1);
        let mut cache = LinkConditionsCache::new();
        cache.get(&t, 0.0, 0.0);
        cache.get(&t, -0.0, 0.0);
        cache.get(&t, 0.0, -0.0);
        cache.get(&t, -0.0, -0.0);
        assert_eq!(cache.builds(), 1, "every zero spelling is one entry");
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn fragmented_chain_covers_at_high_ntx() {
        // A 3-fragment all-to-all chain still reaches everyone — each
        // fragment rides the same flood, just over more draws.
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let chain = ChainSpec::with_fragments(frame(), owners, 3).unwrap();
        let mc = MiniCast::new(
            &t,
            chain,
            MiniCastConfig {
                ntx: 12,
                ..Default::default()
            },
        );
        let r = mc.run(&mut Xoshiro256::seed_from(42));
        assert!(r.coverage() > 0.99, "coverage {}", r.coverage());
        assert!(r.all_complete());
    }

    #[test]
    fn fragmented_chain_costs_proportionally_more_time_and_energy() {
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let cfg = MiniCastConfig {
            ntx: 6,
            ..Default::default()
        };
        let plain = MiniCast::new(&t, ChainSpec::new(frame(), owners.clone()).unwrap(), cfg)
            .run(&mut Xoshiro256::seed_from(17));
        let frag = MiniCast::new(
            &t,
            ChainSpec::with_fragments(frame(), owners, 4).unwrap(),
            cfg,
        )
        .run(&mut Xoshiro256::seed_from(17));
        // The TDMA schedule is honest: 4 fragments per packet quadruple
        // the scheduled round duration...
        assert_eq!(
            frag.scheduled_duration().as_micros(),
            4 * plain.scheduled_duration().as_micros()
        );
        // ...and the radio pays for it.
        assert!(
            frag.mean_radio_on_ms() > 2.0 * plain.mean_radio_on_ms(),
            "fragmented {} vs plain {}",
            frag.mean_radio_on_ms(),
            plain.mean_radio_on_ms()
        );
    }

    #[test]
    fn fragmented_packet_needs_every_fragment() {
        // Under a heavily degraded channel a multi-fragment packet is
        // strictly harder to land than a single-frame one: per sub-slot,
        // completion needs *all* fragments.
        let t = Topology::line(6, 30.0, 3);
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let cfg = MiniCastConfig {
            ntx: 2,
            initiator: Some(0),
            max_cycles: Some(3),
            ..Default::default()
        };
        let lossy = LinkConditions::degraded(&t, 0.0, 0.5);
        let failed = vec![false; t.len()];
        let mut plain_cov = 0.0;
        let mut frag_cov = 0.0;
        for seed in 0..16u64 {
            let plain =
                MiniCastSchedule::new(&t, ChainSpec::new(frame(), owners.clone()).unwrap(), cfg);
            plain_cov += plain
                .run_with(&lossy, &mut Xoshiro256::seed_from(seed), &failed, |_, _| {
                    false
                })
                .coverage();
            let frag = MiniCastSchedule::new(
                &t,
                ChainSpec::with_fragments(frame(), owners.clone(), 8).unwrap(),
                cfg,
            );
            frag_cov += frag
                .run_with(&lossy, &mut Xoshiro256::seed_from(seed), &failed, |_, _| {
                    false
                })
                .coverage();
        }
        assert!(
            frag_cov < plain_cov,
            "8-fragment packets must be harder to complete: {frag_cov} vs {plain_cov}"
        );
    }

    #[test]
    fn fragmented_rounds_are_deterministic() {
        let t = Topology::flocklab();
        let owners: Vec<u16> = (0..t.len() as u16).collect();
        let chain = ChainSpec::with_fragments(frame(), owners, 5).unwrap();
        let mc = MiniCast::new(&t, chain, MiniCastConfig::default());
        let a = mc.run(&mut Xoshiro256::seed_from(5));
        let b = mc.run(&mut Xoshiro256::seed_from(5));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.cycles_run, b.cycles_run);
    }
}
