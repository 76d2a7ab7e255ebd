//! The plan layer's correctness contract: rounds executed over a reused
//! [`RoundPlan`] — one driver streaming many rounds over one compiled
//! plan — must be **byte-identical** to single-shot rounds that compile a
//! fresh deployment per call, and both must reproduce the reference
//! rounds frozen in `tests/golden/reference_rounds.txt` — for both
//! protocols, on both testbeds, with and without explicit inputs and
//! failure injection. That fixture was rendered from the original scalar
//! pipeline, so B = 1 driver rounds stay byte-identical to it.
//!
//! To regenerate after an *intentional* change to the round pipeline:
//! `GOLDEN_REGEN=1 cargo test --test plan_reuse` — then review the diff.

use ppda::mpc::{Deployment, ProtocolConfig, ProtocolKind, RoundPlan, RoundReport};
use ppda::topology::Topology;
use ppda_testkit::{
    assert_golden, assert_reference_round, failure_inputs, one_round, one_round_with,
    reference_block, testbeds, CLOCK_EPOCHS, CLOCK_SEED, FAILURE_SEEDS, REFERENCE_SEEDS,
};

const REFERENCE: &str = include_str!("golden/reference_rounds.txt");

const KINDS: [ProtocolKind; 2] = [ProtocolKind::S3, ProtocolKind::S4];

fn deployment<'t>(
    topology: &'t Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
) -> Deployment<'t> {
    Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(kind)
        .build()
        .unwrap()
}

fn assert_reference(topology: &Topology, kind: ProtocolKind, report: &RoundReport, explicit: bool) {
    assert_reference_round(REFERENCE, topology, kind, report, explicit);
}

/// Every reference point through B = 1 drivers, rendered in fixture order:
/// per testbed and protocol the generated-readings seeds, then the
/// explicit-inputs failure seeds; per testbed the advancing S4 clock.
#[test]
fn reference_rounds_match_the_frozen_scalar_path() {
    let mut text = String::new();
    for (topology, config) in testbeds() {
        for kind in KINDS {
            let deployment = deployment(&topology, &config, kind);
            let mut driver = deployment.driver();
            for seed in REFERENCE_SEEDS {
                let report = driver.round_at(config.round_id, seed).unwrap();
                text += &reference_block(&topology, kind, &report, false);
            }
            let (readings, failed) = failure_inputs(&config);
            for seed in FAILURE_SEEDS {
                let report = driver
                    .round_at_with(config.round_id, seed, &readings, &failed)
                    .unwrap();
                text += &reference_block(&topology, kind, &report, true);
            }
        }
        let deployment = Deployment::builder()
            .topology_ref(&topology)
            .config(config.clone())
            .protocol(ProtocolKind::S4)
            .seed(CLOCK_SEED)
            .build()
            .unwrap();
        for report in deployment.driver().take(CLOCK_EPOCHS as usize) {
            text += &reference_block(&topology, ProtocolKind::S4, &report.unwrap(), false);
        }
    }
    assert_golden!("reference_rounds.txt", &text);
}

#[test]
fn reused_plan_matches_single_shot_s3_and_s4() {
    for (topology, config) in testbeds() {
        for kind in KINDS {
            let deployment = deployment(&topology, &config, kind);
            let mut driver = deployment.driver();
            for seed in [1u64, 7, 42, 0xBEEF] {
                let planned = driver.round_at(config.round_id, seed).unwrap();
                let single_shot = one_round(&topology, &config, kind, seed).unwrap();
                assert_eq!(
                    planned,
                    single_shot,
                    "{} on {} diverged at seed {seed}",
                    kind.name(),
                    topology.name()
                );
                assert_reference(&topology, kind, &planned, false);
            }
        }
    }
}

#[test]
fn reused_plan_matches_single_shot_with_failures() {
    for (topology, config) in testbeds() {
        let (secrets, failed) = failure_inputs(&config);
        for kind in KINDS {
            let deployment = deployment(&topology, &config, kind);
            let mut driver = deployment.driver();
            for seed in FAILURE_SEEDS {
                let planned = driver
                    .round_at_with(config.round_id, seed, &secrets, &failed)
                    .unwrap();
                let single_shot =
                    one_round_with(&topology, &config, kind, seed, &secrets, &failed).unwrap();
                assert_eq!(
                    planned,
                    single_shot,
                    "{} on {} diverged under failures at seed {seed}",
                    kind.name(),
                    topology.name()
                );
                assert_reference(&topology, kind, &planned, true);
            }
        }
    }
}

#[test]
fn plan_rounds_are_independent_of_execution_order() {
    // Replaying a seed after other rounds ran in between must give the
    // same outcome: the plan carries no mutable round state.
    let (topology, config) = testbeds().remove(0);
    let deployment = deployment(&topology, &config, ProtocolKind::S4);
    let mut driver = deployment.driver();
    let first = driver.round_at(config.round_id, 11).unwrap();
    for seed in [5u64, 23, 99] {
        driver.round_at(config.round_id, seed).unwrap();
    }
    let again = driver.round_at(config.round_id, 11).unwrap();
    assert_eq!(first, again);
}

#[test]
fn session_epochs_match_single_shot_at_advanced_round_ids() {
    // A driver reuses one plan across epochs while advancing the round
    // id; each epoch must equal a fresh single-shot run of a config with
    // that round id (regression guard for plan staleness).
    for (topology, config) in testbeds() {
        let deployment = Deployment::builder()
            .topology_ref(&topology)
            .config(config.clone())
            .protocol(ProtocolKind::S4)
            .seed(CLOCK_SEED)
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        for epoch in 0..CLOCK_EPOCHS {
            let via_session = driver.step().unwrap();
            let mut epoch_config = config.clone();
            epoch_config.round_id = config.round_id + epoch as u32;
            let seed = ppda::sim::derive_stream(CLOCK_SEED, epoch);
            let single_shot = one_round(&topology, &epoch_config, ProtocolKind::S4, seed).unwrap();
            assert_eq!(
                via_session,
                single_shot,
                "epoch {epoch} on {} diverged",
                topology.name()
            );
            assert_reference(&topology, ProtocolKind::S4, &via_session, false);
        }
    }
}

#[test]
fn single_lane_executor_is_byte_identical_to_scalar_path() {
    // The batching contract: with B = 1 the executor draws the same DRBG
    // streams, seals the same ciphertexts, simulates the same transport
    // and reconstructs the same aggregates as the scalar pipeline whose
    // rounds the reference fixture froze — field for field.
    for (topology, config) in testbeds() {
        for kind in KINDS {
            let deployment = deployment(&topology, &config, kind);
            let mut driver = deployment.driver();
            for seed in REFERENCE_SEEDS {
                let report = driver.round_at(config.round_id, seed).unwrap();
                assert_eq!(report.lanes(), 1);
                assert_reference(&topology, kind, &report, false);
            }
        }
    }
}

#[test]
fn single_lane_executor_matches_scalar_under_failures() {
    for (topology, config) in testbeds() {
        let (secrets, failed) = failure_inputs(&config);
        for kind in KINDS {
            let deployment = deployment(&topology, &config, kind);
            let mut driver = deployment.driver();
            for seed in FAILURE_SEEDS {
                let report = driver
                    .round_at_with(config.round_id, seed, &secrets, &failed)
                    .unwrap();
                assert!(report.outcome.nodes[1].failed);
                assert_reference(&topology, kind, &report, true);
            }
        }
    }
}

#[test]
fn batched_lanes_aggregate_independent_readings() {
    // A 4-lane round on both testbeds: each lane's aggregate must equal
    // the sum of that lane's readings over live sources, at one round's
    // transport cost (the transport stats match the 1-lane chain shape).
    for (topology, base_config) in testbeds() {
        let config = {
            let mut c = base_config.clone();
            c.batch = 4;
            c
        };
        let sources = config.sources.len();
        // secrets[si * 4 + lane] = 1000·(lane+1) + si
        let secrets: Vec<u64> = (0..sources as u64)
            .flat_map(|si| (0..4u64).map(move |lane| 1000 * (lane + 1) + si))
            .collect();
        let outcome = one_round_with(
            &topology,
            &config,
            ProtocolKind::S4,
            4,
            &secrets,
            &vec![false; topology.len()],
        )
        .unwrap()
        .outcome;
        assert_eq!(outcome.lanes, 4);
        for lane in 0..4u64 {
            let expected: u64 = (0..sources as u64).map(|si| 1000 * (lane + 1) + si).sum();
            assert_eq!(
                outcome.expected_sums[lane as usize],
                expected,
                "lane {lane} on {}",
                topology.name()
            );
        }
        // Radio loss can leave individual nodes without an aggregate (as
        // in the scalar protocol); every node that reconstructed must hold
        // every lane's correct sum.
        let reconstructed = outcome
            .live_nodes()
            .filter(|n| n.aggregates.is_some())
            .count();
        assert!(
            reconstructed > 0,
            "no node reconstructed on {}",
            topology.name()
        );
        for node in outcome.live_nodes() {
            if let Some(aggs) = &node.aggregates {
                assert_eq!(aggs, &outcome.expected_sums, "on {}", topology.name());
            }
        }
    }
}

#[test]
fn batched_rounds_replay_deterministically() {
    let (topology, mut config) = testbeds().remove(0);
    config.batch = 8;
    let deployment = deployment(&topology, &config, ProtocolKind::S4);
    let (mut a, mut b) = (deployment.driver(), deployment.driver());
    let round_id = config.round_id;
    for seed in [2u64, 9, 77] {
        assert_eq!(
            a.round_at(round_id, seed).unwrap(),
            b.round_at(round_id, seed).unwrap()
        );
    }
    // Scratch reuse must not leak state between rounds: replay after
    // other work gives the same outcome.
    let first = a.round_at(round_id, 11).unwrap();
    a.round_at(round_id, 12).unwrap();
    assert_eq!(a.round_at(round_id, 11).unwrap(), first);
}

#[test]
fn owned_plan_matches_borrowed_plan() {
    let (topology, config) = testbeds().remove(0);
    let borrowed = deployment(&topology, &config, ProtocolKind::S4);
    let owned = Deployment::builder()
        .topology(topology.clone())
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .build()
        .unwrap();
    let detached = RoundPlan::new(&topology, &config, ProtocolKind::S4)
        .unwrap()
        .into_owned();
    assert_eq!(detached.destinations(), borrowed.plan().destinations());
    for seed in [2u64, 13] {
        assert_eq!(
            borrowed.driver().round_at(config.round_id, seed).unwrap(),
            owned.driver().round_at(config.round_id, seed).unwrap()
        );
    }
}
