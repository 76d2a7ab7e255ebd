//! A [`RoundDriver`](crate::RoundDriver) as a long-running aggregation
//! session: one compiled deployment streaming epochs, each under a fresh
//! round id and seed. Test-only — the behaviour lives in the driver.

mod tests {
    use ppda_ct::FaultPlan;
    use ppda_sim::ChurnSchedule;
    use ppda_topology::Topology;

    use crate::{
        Deployment, DeploymentBuilder, MpcError, ProtocolConfig, ProtocolKind, RoundReport,
    };

    fn config() -> ProtocolConfig {
        ProtocolConfig::builder(9).degree(2).build().unwrap()
    }

    fn builder(kind: ProtocolKind) -> DeploymentBuilder<'static> {
        Deployment::builder()
            .topology(Topology::grid(3, 3, 18.0, 5))
            .config(config())
            .protocol(kind)
            .seed(7)
    }

    fn session(kind: ProtocolKind) -> Deployment<'static> {
        builder(kind).build().unwrap()
    }

    fn session_with(kind: ProtocolKind, faults: FaultPlan) -> Deployment<'static> {
        builder(kind).faults(faults).build().unwrap()
    }

    #[test]
    fn rounds_accumulate_stats() {
        let deployment = session(ProtocolKind::S4);
        let mut driver = deployment.driver();
        for _ in 0..4 {
            driver.step().unwrap();
        }
        let stats = driver.stats();
        assert_eq!(stats.rounds, 4);
        assert!(stats.perfect_rounds >= 3);
        assert!(stats.total_schedule_ms > 0.0);
        assert!(stats.total_energy_mj > 0.0);
    }

    #[test]
    fn rounds_use_fresh_randomness() {
        let deployment = session(ProtocolKind::S4);
        let mut driver = deployment.driver();
        let a = driver.step().unwrap();
        let b = driver.step().unwrap();
        assert_ne!(
            a.expected_sums(),
            b.expected_sums(),
            "fresh readings per epoch"
        );
    }

    #[test]
    fn sessions_replay_deterministically() {
        let deployment = session(ProtocolKind::S4);
        let run = || {
            let mut driver = deployment.driver();
            (0..3)
                .map(|_| driver.step().unwrap().expected_sums().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn s3_sessions_work_too() {
        let report = session(ProtocolKind::S3).driver().step().unwrap();
        assert_eq!(report.outcome.protocol, "S3");
        assert!(report.correct());
    }

    #[test]
    fn explicit_round_inputs() {
        let deployment = session(ProtocolKind::S4);
        let report = deployment
            .driver()
            .step_with(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[false; 9])
            .unwrap();
        assert_eq!(report.expected_sums(), &[45]);
    }

    #[test]
    fn disconnected_deployment_rejected_at_start() {
        assert!(matches!(
            Deployment::builder()
                .topology(Topology::line(9, 400.0, 1))
                .config(config())
                .build(),
            Err(MpcError::TopologyDisconnected)
        ));
    }

    #[test]
    fn round_ids_advance() {
        let deployment = session(ProtocolKind::S4);
        let base = deployment.config().round_id;
        let mut driver = deployment.driver();
        driver.step().unwrap();
        driver.step().unwrap();
        assert_eq!(driver.round_id(), base + 2);
    }

    #[test]
    fn degraded_epochs_with_zero_faults_match_plain_epochs() {
        // The default deployment and one fused with an explicit zero
        // fault plan run the same epochs, and every epoch recovers.
        let plain = session(ProtocolKind::S4);
        let degraded = session_with(ProtocolKind::S4, FaultPlan::none());
        let (mut a, mut b) = (plain.driver(), degraded.driver());
        for _ in 0..3 {
            let (x, y) = (a.step().unwrap(), b.step().unwrap());
            assert_eq!(x, y);
            assert!(y.recovered());
            assert_eq!(y.degraded.faults.nodes_dropped, 0);
        }
        assert_eq!(b.stats().recovered_rounds, 3);
        assert_eq!(b.stats().failed_rounds, 0);
    }

    #[test]
    fn session_walks_churn_windows_by_round_id() {
        // Aggregator churn: take one destination down for epochs 2..4 of
        // the session (round ids advance from the config's base).
        let base = config().round_id;
        let victim = session(ProtocolKind::S4).plan().destinations()[0];
        let churn = ChurnSchedule::new().window(victim, base + 1, base + 3);
        let deployment = session_with(ProtocolKind::S4, FaultPlan::none().with_churn(churn));
        let mut driver = deployment.driver();
        for epoch in 0..4u32 {
            let report = driver.step().unwrap();
            let down = epoch == 1 || epoch == 2;
            assert_eq!(
                report.outcome.nodes[victim as usize].failed, down,
                "epoch {epoch}"
            );
            assert_eq!(report.survivors().contains(&victim), !down, "epoch {epoch}");
        }
        assert_eq!(driver.stats().rounds, 4);
    }

    #[test]
    fn reused_plan_equals_fresh_single_shot() {
        // Regression guard for plan staleness: every epoch of a driver
        // (reused plan) must equal a fresh deployment configured with that
        // epoch's round id and run once at that epoch's seed.
        let deployment = session(ProtocolKind::S4);
        let mut driver = deployment.driver();
        for _ in 0..4 {
            let via_session: RoundReport = driver.step().unwrap();
            let mut config = config();
            config.round_id = via_session.round_id;
            let single_shot = Deployment::builder()
                .topology(Topology::grid(3, 3, 18.0, 5))
                .config(config)
                .build()
                .unwrap()
                .driver()
                .round_at(via_session.round_id, via_session.seed)
                .unwrap();
            assert_eq!(via_session, single_shot);
        }
    }
}
