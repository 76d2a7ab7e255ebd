//! Property suite: a compiled [`NeedSet`] run is the same flood as the
//! closure run it stands for.
//!
//! `MiniCastSchedule::run_with` takes a completion predicate and
//! `run_needs` a compiled need set; both drive one engine. For each of
//! the three completion shapes the protocol layer uses (whole chain,
//! per-destination live packets, any `k` usable packets) the two runs
//! must return equal `MiniCastResult`s — same receptions, completion
//! instants, radio-off instants, ledgers and cycle counts — under
//! failure masks, fragments 1..=4 and deployments on both sides of the
//! 64-node word boundary. A scratch reused across runs of different
//! sizes must not leak state between them.

use proptest::prelude::*;

use ppda_ct::{
    ChainSpec, LinkConditions, MiniCastConfig, MiniCastResult, MiniCastSchedule, MiniCastScratch,
    NeedSet,
};
use ppda_radio::FrameSpec;
use ppda_sim::Xoshiro256;
use ppda_topology::Topology;

fn topology(pick: usize) -> Topology {
    match pick {
        0 => Topology::flocklab(),
        1 => Topology::dcube(),
        2 => Topology::grid(8, 8, 15.0, 3),
        3 => Topology::random_geometric(65, 110.0, 110.0, 7),
        _ => Topology::grid(16, 8, 15.0, 5),
    }
}

/// A deterministic per-index coin from a drawn word.
fn coin(bits: u64, i: usize, one_in: u64) -> bool {
    let mut z = bits ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).is_multiple_of(one_in)
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Whole,
    Addressed,
    AtLeast(usize),
}

/// The need set and the closure run of one shape, over one flood.
fn both_runs(
    schedule: &MiniCastSchedule,
    conditions: &LinkConditions,
    failed: &[bool],
    shape: Shape,
    flags: &[bool],
    seed: u64,
    scratch: &mut MiniCastScratch,
) -> (MiniCastResult, MiniCastResult) {
    let n = failed.len();
    let l = schedule.chain().len();
    // Packet j is addressed to a node derived from its owner, so some
    // nodes get several packets and some none.
    let wanted_by: Vec<usize> = (0..l)
        .map(|j| (schedule.chain().owner(j) as usize * 5 + j) % n)
        .collect();
    let mut need = match shape {
        Shape::Whole => NeedSet::whole_chain(l),
        Shape::Addressed => NeedSet::addressed(wanted_by.iter().copied()),
        Shape::AtLeast(k) => NeedSet::at_least(l, k),
    };
    if !matches!(shape, Shape::Whole) {
        need.set_flagged(flags);
    }
    let compiled = schedule.run_needs(
        conditions,
        &mut Xoshiro256::seed_from(seed),
        failed,
        &need,
        scratch,
    );
    let mut rng = Xoshiro256::seed_from(seed);
    let closure = match shape {
        Shape::Whole => schedule.run_with(conditions, &mut rng, failed, |_, have| {
            have.iter().all(|&h| h)
        }),
        Shape::Addressed => schedule.run_with(conditions, &mut rng, failed, |v, have| {
            (0..l)
                .filter(|&j| flags[j] && wanted_by[j] == v)
                .all(|j| have[j])
        }),
        Shape::AtLeast(k) => schedule.run_with(conditions, &mut rng, failed, |_, have| {
            have.iter().zip(flags).filter(|&(&h, &f)| h && f).count() >= k
        }),
    };
    (compiled, closure)
}

proptest! {
    #[test]
    fn need_set_runs_equal_closure_runs(
        pick in 0usize..5,
        sparse in any::<bool>(),
        fragments in 1u32..5,
        ntx in 1u32..6,
        early_off in any::<bool>(),
        shape_pick in 0usize..3,
        k in 0usize..48,
        fail_bits in any::<u64>(),
        flag_bits in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let t = topology(pick);
        let n = t.len();
        let owners: Vec<u16> = if sparse {
            (0..n as u16).step_by(3).flat_map(|v| [v, v]).collect()
        } else {
            (0..n as u16).collect()
        };
        let chain = ChainSpec::with_fragments(FrameSpec::new(8, 0).unwrap(), owners, fragments)
            .unwrap();
        let l = chain.len();
        let config = MiniCastConfig {
            ntx,
            early_radio_off: early_off,
            ..MiniCastConfig::default()
        };
        let schedule = MiniCastSchedule::new(&t, chain, config);
        let conditions = LinkConditions::degraded(&t, 1.0, 0.05);
        // About one node in eight fails (possibly the initiator), about
        // one packet in five is dark.
        let failed: Vec<bool> = (0..n).map(|v| coin(fail_bits, v, 8)).collect();
        let flags: Vec<bool> = (0..l).map(|j| !coin(flag_bits, j, 5)).collect();
        let shape = match shape_pick {
            0 => Shape::Whole,
            1 => Shape::Addressed,
            _ => Shape::AtLeast(k),
        };

        // Dirty the scratch with a flood of another size first.
        let mut scratch = MiniCastScratch::default();
        let small = Topology::line(5, 20.0, 1);
        let small_chain = ChainSpec::new(FrameSpec::new(8, 0).unwrap(), vec![0, 2, 4]).unwrap();
        MiniCastSchedule::new(&small, small_chain, MiniCastConfig::default()).run_needs(
            &LinkConditions::new(&small, 0.0),
            &mut Xoshiro256::seed_from(seed),
            &[false; 5],
            &NeedSet::whole_chain(3),
            &mut scratch,
        );

        let (compiled, closure) =
            both_runs(&schedule, &conditions, &failed, shape, &flags, seed, &mut scratch);
        prop_assert!(
            compiled == closure,
            "{shape:?} on n = {n}, l = {l}: need-set run differs from the closure run"
        );
        // And again on the now-warm scratch.
        let (again, _) =
            both_runs(&schedule, &conditions, &failed, shape, &flags, seed, &mut scratch);
        prop_assert!(again == closure, "{shape:?}: reused scratch changed the run");
    }
}

#[test]
fn need_set_shapes_complete_as_documented() {
    let t = Topology::flocklab();
    let n = t.len();
    let chain = ChainSpec::new(FrameSpec::new(8, 0).unwrap(), (0..n as u16).collect()).unwrap();
    let schedule = MiniCastSchedule::new(
        &t,
        chain,
        MiniCastConfig {
            ntx: 12,
            ..MiniCastConfig::default()
        },
    );
    let conditions = LinkConditions::new(&t, 0.0);
    let failed = vec![false; n];
    let mut scratch = MiniCastScratch::default();
    let mut run = |need: &NeedSet| {
        schedule.run_needs(
            &conditions,
            &mut Xoshiro256::seed_from(3),
            &failed,
            need,
            &mut scratch,
        )
    };

    // Nothing flagged for anyone: every live node is complete at once.
    let mut nobody = NeedSet::addressed(0..n);
    nobody.set_flagged(&vec![false; n]);
    let r = run(&nobody);
    assert!(r
        .nodes
        .iter()
        .all(|o| o.predicate_met_at == Some(ppda_sim::SimTime::ZERO)));

    // Each node addressed its own packet: complete at once too.
    let r = run(&NeedSet::addressed(0..n));
    assert!(r
        .nodes
        .iter()
        .all(|o| o.predicate_met_at == Some(ppda_sim::SimTime::ZERO)));

    // A quota above the flagged count never completes.
    let mut unreachable = NeedSet::at_least(n, 3);
    let mut two = vec![false; n];
    two[0] = true;
    two[1] = true;
    unreachable.set_flagged(&two);
    let r = run(&unreachable);
    assert!(r.nodes.iter().all(|o| o.predicate_met_at.is_none()));

    // The whole chain at high NTX completes everywhere.
    assert!(run(&NeedSet::whole_chain(n)).all_complete());
}

#[test]
#[should_panic(expected = "need set size mismatch")]
fn need_set_of_another_chain_length_panics() {
    let t = Topology::line(3, 20.0, 1);
    let chain = ChainSpec::new(FrameSpec::new(8, 0).unwrap(), vec![0, 1, 2]).unwrap();
    let schedule = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
    schedule.run_needs(
        &LinkConditions::new(&t, 0.0),
        &mut Xoshiro256::seed_from(1),
        &[false; 3],
        &NeedSet::whole_chain(2),
        &mut MiniCastScratch::default(),
    );
}

#[test]
#[should_panic(expected = "outside topology")]
fn need_set_addressing_a_missing_node_panics() {
    let t = Topology::line(3, 20.0, 1);
    let chain = ChainSpec::new(FrameSpec::new(8, 0).unwrap(), vec![0, 1, 2]).unwrap();
    let schedule = MiniCastSchedule::new(&t, chain, MiniCastConfig::default());
    schedule.run_needs(
        &LinkConditions::new(&t, 0.0),
        &mut Xoshiro256::seed_from(1),
        &[false; 3],
        &NeedSet::addressed([0, 1, 7]),
        &mut MiniCastScratch::default(),
    );
}
