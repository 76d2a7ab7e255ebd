//! The `Deployment` façade's conformance suite.
//!
//! Contracts enforced here:
//!
//! 1. **The driver reproduces the scalar reference rounds byte for byte**
//!    — a B = 1 driver round under the default zero fault plan renders
//!    exactly as the round frozen in `tests/golden/reference_rounds.txt`
//!    (taken from the original single-shot S3/S4 pipeline), on both
//!    testbed topologies, with and without explicit inputs.
//! 2. **One pipeline, every scenario** — batching, fault plans and churn
//!    all flow through the same `step()`; observers see every round; the
//!    driver clock advances round ids and seeds deterministically.
//! 3. **The report format is frozen** — a golden fixture pins
//!    `RoundReport`'s `Display` text alongside the degraded-outcome
//!    fixtures.
//! 4. **Error-type hygiene** — every public error type in the workspace
//!    implements `Display + std::error::Error + Send + Sync`.

use ppda::mpc::{
    Deployment, MpcError, ProtocolConfig, ProtocolKind, RecoveryStatus, RoundObserver, RoundReport,
};
use ppda_metrics::CampaignAccumulator;
use ppda_testkit::{
    assert_golden, assert_reference_round, failure_inputs, grid9_deployment,
    lossy_flocklab_deployment, one_round, testbeds, CLOCK_EPOCHS, CLOCK_SEED, FAILURE_SEEDS,
};

const REFERENCE: &str = include_str!("golden/reference_rounds.txt");

/// The acceptance differential: a zero-fault B = 1 driver round renders
/// exactly as the frozen reference round, for both protocols on both
/// testbeds.
#[test]
fn driver_rounds_are_byte_identical_to_legacy_single_shot() {
    for (topology, config) in testbeds() {
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            let deployment = Deployment::builder()
                .topology_ref(&topology)
                .config(config.clone())
                .protocol(kind)
                .build()
                .unwrap();
            let mut driver = deployment.driver();
            for seed in [1u64, 7, 42, 0xBEEF] {
                let report = driver.round_at(config.round_id, seed).unwrap();
                assert!(report.recovered(), "zero-fault rounds always recover");
                assert_reference_round(REFERENCE, &topology, kind, &report, false);
            }
        }
    }
}

#[test]
fn driver_rounds_match_legacy_under_explicit_inputs_and_failures() {
    for (topology, config) in testbeds() {
        let (secrets, failed) = failure_inputs(&config);
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            let deployment = Deployment::builder()
                .topology_ref(&topology)
                .config(config.clone())
                .protocol(kind)
                .build()
                .unwrap();
            let mut driver = deployment.driver();
            for seed in FAILURE_SEEDS {
                let report = driver
                    .round_at_with(config.round_id, seed, &secrets, &failed)
                    .unwrap();
                assert_reference_round(REFERENCE, &topology, kind, &report, true);
            }
        }
    }
}

/// The driver's automatic clock: round r at `round_id + r` with seed
/// `derive_stream(base, r)` — so stepped rounds equal the frozen
/// reference rounds at those coordinates.
#[test]
fn driver_clock_matches_legacy_at_advanced_round_ids() {
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
            let report = driver.step().unwrap();
            assert_eq!(report.round_id, config.round_id + epoch as u32);
            assert_eq!(report.seed, ppda::sim::derive_stream(CLOCK_SEED, epoch));
            assert_reference_round(REFERENCE, &topology, ProtocolKind::S4, &report, false);
        }
    }
}

/// Batched rounds flow through the same single path: a 4-lane driver
/// round equals a single-shot 4-lane round, and its chain layout is the
/// 1-lane one (the lanes share each sealed packet).
#[test]
fn batched_driver_rounds_take_the_same_path() {
    let (topology, mut config) = testbeds().remove(0);
    let scalar = one_round(&topology, &config, ProtocolKind::S4, 2).unwrap();
    config.batch = 4;
    let deployment = Deployment::builder()
        .topology_ref(&topology)
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .build()
        .unwrap();
    let mut driver = deployment.driver();
    for seed in [2u64, 9, 33] {
        let via_driver = driver.round_at(config.round_id, seed).unwrap();
        let single_shot = one_round(&topology, &config, ProtocolKind::S4, seed).unwrap();
        assert_eq!(via_driver, single_shot, "seed {seed}");
        assert_eq!(via_driver.lanes(), 4);
        assert_eq!(
            via_driver.outcome.sharing.chain_len,
            scalar.outcome.sharing.chain_len
        );
        assert_eq!(
            via_driver.outcome.aggregator_count,
            scalar.outcome.aggregator_count
        );
    }
}

/// An attached accumulator observes exactly what a hand-threaded harness
/// would have recorded.
#[test]
fn campaign_accumulator_subscribes_to_the_driver() {
    let deployment = lossy_flocklab_deployment(6, 0.25);
    let mut acc = CampaignAccumulator::new();
    let reports: Vec<RoundReport> = {
        let mut driver = deployment.driver();
        driver.attach(&mut acc);
        (0..6).map(|_| driver.step().unwrap()).collect()
    };
    assert_eq!(acc.rounds(), 6);
    let recovered = reports.iter().filter(|r| r.recovered()).count() as u64;
    assert_eq!(acc.rounds_recovered(), recovered);
    let live_nodes: usize = reports.iter().map(|r| r.outcome.live_nodes().count()).sum();
    assert_eq!(acc.radio_on().len(), live_nodes);
    let perfect = reports.iter().filter(|r| r.correct()).count();
    assert_eq!(acc.round_success(), perfect as f64 / 6.0);
}

/// Fused fault plans and the driver's availability stats: a lossy
/// deployment reports recovery like the campaign layer does.
#[test]
fn fused_fault_plans_shape_driver_stats() {
    let deployment = lossy_flocklab_deployment(24, 0.3);
    let mut driver = deployment.driver();
    let epoch = driver.run_epoch(6).unwrap();
    assert_eq!(epoch.rounds, 6);
    assert_eq!(epoch.recovered_rounds + epoch.failed_rounds, 6);
    // Determinism across drivers of the same deployment.
    let again = deployment.driver().run_epoch(6).unwrap();
    assert_eq!(epoch, again);
}

/// `RoundReport::Display` is frozen by a golden fixture, alongside the
/// degraded-outcome fixtures (same regeneration contract:
/// `GOLDEN_REGEN=1`).
#[test]
fn golden_round_report_display() {
    let deployment = lossy_flocklab_deployment(6, 0.3);
    let report = deployment.driver().step().unwrap();
    assert_golden!("round_report.txt", &report.to_string());
}

/// Observer fan-out and iterator streaming compose.
#[test]
fn observers_and_iterator_compose() {
    struct Margins(Vec<Option<usize>>);
    impl RoundObserver for Margins {
        fn on_round(&mut self, report: &RoundReport) {
            self.0.push(match report.recovery() {
                RecoveryStatus::Recovered { margin } => Some(margin),
                RecoveryStatus::Failed { .. } => None,
                _ => None, // non_exhaustive: future verdicts
            });
        }
    }
    let deployment = grid9_deployment(ProtocolKind::S4);
    let mut margins = Margins(Vec::new());
    let mut driver = deployment.driver();
    driver.attach(&mut margins);
    // `take` consumes the driver; the observer borrow ends with it.
    let reports: Vec<RoundReport> = driver.take(3).collect::<Result<_, _>>().unwrap();
    assert_eq!(margins.0.len(), 3);
    for (report, margin) in reports.iter().zip(&margins.0) {
        assert_eq!(report.degraded.margin(), *margin);
    }
}

/// Every public error type in the workspace is a well-behaved
/// `std::error::Error`: Display, source chaining, Send + Sync — the audit
/// the API redesign demands before anything lands in `#[non_exhaustive]`
/// signatures.
#[test]
fn public_error_types_are_well_behaved() {
    fn well_behaved<E: std::error::Error + std::fmt::Display + Send + Sync + 'static>(e: E) {
        assert!(!e.to_string().is_empty());
    }
    well_behaved(MpcError::TopologyDisconnected);
    well_behaved(MpcError::BatchTooWide {
        lanes: 64,
        max_lanes: 23,
    });
    well_behaved(ppda::sss::SssError::InconsistentShares);
    well_behaved(ppda::field::FieldError::ZeroAbscissa);
    well_behaved(ppda::crypto::CryptoError::AuthenticationFailed);
    well_behaved(ppda::ct::ChainError::Empty);
    well_behaved(
        ppda::radio::FrameSpec::new(200, 4).expect_err("200-byte payload overflows the PSDU"),
    );
    // And the MpcError source chain survives the façade boundary.
    let err = Deployment::builder().build().unwrap_err();
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("topology"));
}

/// The builder rejects incomplete or impossible deployments with typed
/// errors at build time — nothing defers to the first round.
#[test]
fn deployment_build_time_validation() {
    assert!(matches!(
        Deployment::builder().build(),
        Err(MpcError::InvalidConfig { .. })
    ));
    // Lane widths that overflow the 802.15.4 frame budget die in the
    // config builder, before a deployment is even attempted.
    assert!(matches!(
        ProtocolConfig::builder(26).batch(64).build(),
        Err(MpcError::BatchTooWide { .. })
    ));
}
