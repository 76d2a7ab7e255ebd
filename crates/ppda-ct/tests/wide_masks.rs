//! Floods on deployments wider than one 64-bit node word.
//!
//! The MiniCast engine keeps its node sets in 64-bit words, so n = 64
//! fills exactly one word, n = 65 spills one node into a second, and
//! n = 128 fills two. Each case below runs one flood through the public
//! closure API and reduces the whole `MiniCastResult` — every node's
//! received packets, completion and radio-off instants, ledger, chain
//! transmissions and failure flag — to a 64-bit FNV-1a fingerprint.
//!
//! The expected fingerprints were rendered by the per-node `Vec<bool>`
//! engine that preceded the word-mask one, so this file is a
//! differential test against it: a changed RNG draw, a misplaced word
//! boundary or a moved ledger tick changes a fingerprint.

use ppda_ct::{ChainSpec, LinkConditions, MiniCastConfig, MiniCastResult, MiniCastSchedule};
use ppda_radio::FrameSpec;
use ppda_sim::{SimTime, Xoshiro256};
use ppda_topology::Topology;

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn time(&mut self, t: Option<SimTime>) {
        self.eat(t.map_or(u64::MAX, SimTime::as_micros));
    }
}

fn fingerprint(r: &MiniCastResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.eat(u64::from(r.cycles_run));
    h.eat(u64::from(r.cycles_scheduled));
    h.eat(r.cycle_duration.as_micros());
    for node in &r.nodes {
        for &got in &node.received {
            h.eat(u64::from(got));
        }
        h.time(node.predicate_met_at);
        h.time(node.radio_off_at);
        h.eat(node.ledger.tx_time().as_micros());
        h.eat(node.ledger.rx_time().as_micros());
        h.eat(node.ledger.listen_time().as_micros());
        h.eat(u64::from(node.chain_tx));
        h.eat(u64::from(node.failed));
    }
    h.0
}

/// The three completion shapes the protocol layer uses.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Every packet of the chain (strict completion).
    Whole,
    /// Packet `j` is needed by node `(7 j) mod n` only, and only if it is
    /// flagged (per-destination live slots).
    Addressed,
    /// At least `k` of the flagged packets (threshold reconstruction).
    AtLeast(usize),
}

struct Case {
    topology: Topology,
    owners: Vec<u16>,
    fragments: u32,
    config: MiniCastConfig,
    failed: Vec<usize>,
    shape: Shape,
    seed: u64,
}

/// Packets flagged for the `Addressed` and `AtLeast` shapes: every fifth
/// packet is dark, like a dead source's sub-slots.
fn flagged(l: usize) -> Vec<bool> {
    (0..l).map(|j| j % 5 != 2).collect()
}

fn run(case: &Case) -> MiniCastResult {
    let n = case.topology.len();
    let frame = FrameSpec::new(8, 0).unwrap();
    let chain = ChainSpec::with_fragments(frame, case.owners.clone(), case.fragments).unwrap();
    let l = chain.len();
    let schedule = MiniCastSchedule::new(&case.topology, chain, case.config);
    let conditions = LinkConditions::new(&case.topology, 1.5);
    let mut failed = vec![false; n];
    for &v in &case.failed {
        failed[v] = true;
    }
    let flags = flagged(l);
    let mut rng = Xoshiro256::seed_from(case.seed);
    match case.shape {
        Shape::Whole => schedule.run_with(&conditions, &mut rng, &failed, |_, have| {
            have.iter().all(|&h| h)
        }),
        Shape::Addressed => schedule.run_with(&conditions, &mut rng, &failed, |v, have| {
            (0..l)
                .filter(|&j| flags[j] && (7 * j) % n == v)
                .all(|j| have[j])
        }),
        Shape::AtLeast(k) => schedule.run_with(&conditions, &mut rng, &failed, |_, have| {
            have.iter().zip(&flags).filter(|&(&h, &f)| h && f).count() >= k
        }),
    }
}

fn all_to_all(n: usize) -> Vec<u16> {
    (0..n as u16).collect()
}

/// Sources on every third node, each owning two sub-slots — the shape
/// of an S4 sharing chain.
fn sparse_owners(n: usize) -> Vec<u16> {
    (0..n as u16).step_by(3).flat_map(|v| [v, v]).collect()
}

fn cases() -> Vec<(&'static str, Case)> {
    let cfg = |ntx: u32, early: bool| MiniCastConfig {
        ntx,
        early_radio_off: early,
        ..MiniCastConfig::default()
    };
    vec![
        (
            "grid64 all-to-all whole",
            Case {
                topology: Topology::grid(8, 8, 15.0, 3),
                owners: all_to_all(64),
                fragments: 1,
                config: cfg(4, true),
                failed: vec![],
                shape: Shape::Whole,
                seed: 11,
            },
        ),
        (
            "grid64 sparse addressed, failures",
            Case {
                topology: Topology::grid(8, 8, 15.0, 3),
                owners: sparse_owners(64),
                fragments: 1,
                config: cfg(3, true),
                failed: vec![5, 63, 40],
                shape: Shape::Addressed,
                seed: 12,
            },
        ),
        (
            "geo65 all-to-all at-least, node 64 failed",
            Case {
                topology: Topology::random_geometric(65, 110.0, 110.0, 7),
                owners: all_to_all(65),
                fragments: 1,
                config: cfg(3, true),
                failed: vec![64, 1],
                shape: Shape::AtLeast(40),
                seed: 13,
            },
        ),
        (
            "geo65 sparse whole, fragmented",
            Case {
                topology: Topology::random_geometric(65, 110.0, 110.0, 7),
                owners: sparse_owners(65),
                fragments: 3,
                config: cfg(4, true),
                failed: vec![],
                shape: Shape::Whole,
                seed: 14,
            },
        ),
        (
            "geo65 sparse addressed, no early off",
            Case {
                topology: Topology::random_geometric(65, 110.0, 110.0, 9),
                owners: sparse_owners(65),
                fragments: 1,
                config: cfg(2, false),
                failed: vec![63, 64],
                shape: Shape::Addressed,
                seed: 15,
            },
        ),
        (
            "grid128 all-to-all whole",
            Case {
                topology: Topology::grid(16, 8, 15.0, 5),
                owners: all_to_all(128),
                fragments: 1,
                config: cfg(3, true),
                failed: vec![],
                shape: Shape::Whole,
                seed: 16,
            },
        ),
        (
            "grid128 sparse at-least, fragmented, failures",
            Case {
                topology: Topology::grid(16, 8, 15.0, 5),
                owners: sparse_owners(128),
                fragments: 2,
                config: cfg(3, true),
                failed: vec![0, 64, 127],
                shape: Shape::AtLeast(50),
                seed: 17,
            },
        ),
        (
            "geo128 sparse addressed",
            Case {
                topology: Topology::random_geometric(128, 150.0, 150.0, 21),
                owners: sparse_owners(128),
                fragments: 1,
                config: cfg(4, true),
                failed: vec![65],
                shape: Shape::Addressed,
                seed: 18,
            },
        ),
    ]
}

const EXPECTED: &[(&str, u64)] = &[
    ("grid64 all-to-all whole", 0x9c4e_0b28_92d2_be74),
    ("grid64 sparse addressed, failures", 0xce8c_8ec8_98c0_1922),
    (
        "geo65 all-to-all at-least, node 64 failed",
        0xd633_0c95_e9b1_735c,
    ),
    ("geo65 sparse whole, fragmented", 0x81b4_49be_3bf2_ff08),
    (
        "geo65 sparse addressed, no early off",
        0x13bb_205a_6f5c_02b8,
    ),
    ("grid128 all-to-all whole", 0x4682_875e_6b20_0a54),
    (
        "grid128 sparse at-least, fragmented, failures",
        0x7753_8904_98f6_eb27,
    ),
    ("geo128 sparse addressed", 0x3d78_4b03_3420_6d5a),
];

#[test]
fn wide_floods_match_the_reference_fingerprints() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    for ((name, case), &(want_name, want)) in cases.iter().zip(EXPECTED) {
        assert_eq!(*name, want_name);
        let got = fingerprint(&run(case));
        assert_eq!(
            got, want,
            "{name}: fingerprint {got:#018x}, want {want:#018x}"
        );
    }
}

#[test]
fn wide_cases_exercise_the_word_boundaries() {
    // The cases must actually spread packets across both words, or the
    // fingerprints would not test the boundary.
    for (name, case) in cases() {
        let n = case.topology.len();
        let r = run(&case);
        assert!(r.coverage() > 0.3, "{name}: coverage {}", r.coverage());
        if n > 64 {
            let high = (64..n).filter(|&v| !r.nodes[v].failed).count();
            let reached = (64..n)
                .filter(|&v| !r.nodes[v].failed && r.nodes[v].received.iter().any(|&h| h))
                .count();
            assert_eq!(reached, high, "{name}: a node past bit 63 heard nothing");
        }
    }
}
