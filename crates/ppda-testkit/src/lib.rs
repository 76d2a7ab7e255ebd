//! Deterministic scenario builders shared by the workspace test suites.
//!
//! The integration suites (`end_to_end`, `properties`, `privacy`) all need
//! the same few ingredients — a testbed or synthetic topology, a protocol
//! config at its default operating point, a seeded RNG — and repeating
//! that setup in every test both obscures what each test actually varies
//! and invites drift. This crate is the single source of those fixtures.
//!
//! Everything here is deterministic: the same builder call always returns
//! the same scenario, so test failures reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;

use ppda_ct::FaultPlan;
use ppda_mpc::{
    Bootstrap, Deployment, MpcError, PhaseStats, ProtocolConfig, ProtocolConfigBuilder,
    ProtocolKind, RoundReport,
};
use ppda_sim::{ChurnSchedule, Xoshiro256};
use ppda_topology::Topology;

/// Compare `actual` against the committed fixture `dir/name`, or rewrite
/// the fixture when `GOLDEN_REGEN=1` is set. Call it through
/// [`assert_golden!`], which resolves `dir` in the calling crate.
///
/// # Panics
///
/// When the fixture is missing or differs from `actual`.
pub fn assert_golden_in(dir: &Path, name: &str, actual: &str) {
    let path = dir.join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "output drifted from {}; if intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}

/// `assert_golden!(name, actual)`: compare `actual` against the calling
/// crate's `tests/golden/<name>`, or rewrite it under `GOLDEN_REGEN=1`.
#[macro_export]
macro_rules! assert_golden {
    ($name:expr, $actual:expr) => {
        $crate::assert_golden_in(
            &::std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"),
            $name,
            $actual,
        )
    };
}

/// One round of a freshly compiled deployment at the config's round id,
/// with generated readings — compile, then run once.
///
/// # Errors
///
/// Whatever compiling the deployment or running the round reports.
pub fn one_round(
    topology: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
    seed: u64,
) -> Result<RoundReport, MpcError> {
    deployment_of(topology, config, kind)?
        .driver()
        .round_at(config.round_id, seed)
}

/// [`one_round`] with explicit readings (lane-major per source) and
/// failure mask.
///
/// # Errors
///
/// Whatever compiling the deployment or running the round reports.
pub fn one_round_with(
    topology: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
    seed: u64,
    readings: &[u64],
    failed: &[bool],
) -> Result<RoundReport, MpcError> {
    deployment_of(topology, config, kind)?
        .driver()
        .round_at_with(config.round_id, seed, readings, failed)
}

fn deployment_of<'t>(
    topology: &'t Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
) -> Result<Deployment<'t>, MpcError> {
    Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(kind)
        .build()
}

/// The two testbeds of the differential suites: FlockLab with 6 sources
/// at the default NTX, and D-Cube with 7 sources at its calibrated NTX 7.
pub fn testbeds() -> Vec<(Topology, ProtocolConfig)> {
    let flocklab = Topology::flocklab();
    let dcube = Topology::dcube();
    let flocklab_config = ProtocolConfig::builder(flocklab.len())
        .sources(6)
        .build()
        .expect("flocklab differential config is valid");
    let dcube_config = ProtocolConfig::builder(dcube.len())
        .sources(7)
        .ntx_sharing(7)
        .ntx_reconstruction(7)
        .build()
        .expect("dcube differential config is valid");
    vec![(flocklab, flocklab_config), (dcube, dcube_config)]
}

/// Seeds of the generated-readings points of the reference fixture.
pub const REFERENCE_SEEDS: [u64; 6] = [1, 7, 42, 0xBEEF, 3, 19];
/// Seeds of the explicit-inputs points of the reference fixture.
pub const FAILURE_SEEDS: [u64; 2] = [3, 19];
/// Base seed of the reference fixture's advancing-clock points.
pub const CLOCK_SEED: u64 = 0xFEED;
/// Rounds of the reference fixture's advancing-clock points.
pub const CLOCK_EPOCHS: u64 = 3;

/// The explicit inputs of the reference fixture's failure points:
/// reading `100 + i` at source `i`, and nodes 1 and `n - 1` failed.
pub fn failure_inputs(config: &ProtocolConfig) -> (Vec<u64>, Vec<bool>) {
    let readings = (0..config.sources.len() as u64).map(|i| 100 + i).collect();
    let mut failed = vec![false; config.n_nodes];
    failed[1] = true;
    failed[config.n_nodes - 1] = true;
    (readings, failed)
}

fn render_phase(out: &mut String, name: &str, p: &PhaseStats) {
    writeln!(
        out,
        "{name} chain_len={} cycles_scheduled={} cycles_run={} scheduled_us={} coverage_bits={:016x} ntx={} fragments={}",
        p.chain_len,
        p.cycles_scheduled,
        p.cycles_run,
        p.scheduled_duration.as_micros(),
        p.coverage.to_bits(),
        p.ntx,
        p.fragments
    )
    .unwrap();
}

/// Render one B = 1 round the way `tests/golden/reference_rounds.txt`
/// freezes it, every field explicit: a header naming the testbed,
/// protocol, round coordinates and input kind (`explicit` marks
/// caller-supplied readings and failure mask), the round totals, both
/// phases' transport stats, then one line per node (aggregate, included
/// sources, latency and radio-on in µs, energy as `f64` bits).
///
/// # Panics
///
/// On a round with more than one lane.
pub fn reference_block(
    topology: &Topology,
    kind: ProtocolKind,
    report: &RoundReport,
    explicit: bool,
) -> String {
    let o = &report.outcome;
    assert_eq!(o.lanes, 1, "the reference fixture freezes 1-lane rounds");
    let inputs = if explicit { "explicit" } else { "generated" };
    let mut out = format!(
        "== {} {} round {} seed {} inputs {inputs}\n",
        topology.name(),
        kind.name(),
        report.round_id,
        report.seed
    );
    writeln!(
        out,
        "protocol {} expected {} degree {} aggregators {} sources {}",
        o.protocol, o.expected_sums[0], o.degree, o.aggregator_count, o.source_count
    )
    .unwrap();
    render_phase(&mut out, "sharing", &o.sharing);
    render_phase(&mut out, "reconstruction", &o.reconstruction);
    for (v, n) in o.nodes.iter().enumerate() {
        let aggregate = match &n.aggregates {
            Some(a) => a[0].to_string(),
            None => "-".into(),
        };
        let latency = match n.latency {
            Some(l) => l.as_micros().to_string(),
            None => "-".into(),
        };
        writeln!(
            out,
            "node {v} failed={} aggregate={aggregate} included={} latency_us={latency} radio_on_us={} energy_bits={:016x}",
            u8::from(n.failed),
            n.included_sources,
            n.radio_on.as_micros(),
            n.energy_mj.to_bits()
        )
        .unwrap();
    }
    out
}

/// Assert that `report` renders to one of the rounds frozen in
/// `reference` (the text of `tests/golden/reference_rounds.txt`).
///
/// # Panics
///
/// When the rendered round is not in the fixture.
pub fn assert_reference_round(
    reference: &str,
    topology: &Topology,
    kind: ProtocolKind,
    report: &RoundReport,
    explicit: bool,
) {
    let rendered = reference_block(topology, kind, report, explicit);
    assert!(
        reference.contains(&rendered),
        "{} on {} drifted from the reference round:\n{rendered}",
        kind.name(),
        topology.name()
    );
}

/// The canonical small synthetic scenario: a 3×3 jittered grid, 18 m
/// spacing, construction seed 5 — large enough for multi-hop behaviour,
/// small enough that debug-build protocol rounds stay fast.
pub fn grid9() -> Topology {
    Topology::grid(3, 3, 18.0, 5)
}

/// A config builder for [`grid9`] at its standard operating point:
/// degree 2, NTX 6 for both phases. Callers chain further overrides
/// before `.build()`.
pub fn grid9_config() -> ProtocolConfigBuilder {
    ProtocolConfig::builder(9)
        .degree(2)
        .ntx_sharing(6)
        .ntx_reconstruction(6)
}

/// The FlockLab testbed with its default full-network config.
pub fn flocklab_scenario() -> (Topology, ProtocolConfig) {
    let topology = Topology::flocklab();
    let config = ProtocolConfig::builder(topology.len())
        .build()
        .expect("flocklab default config is valid");
    (topology, config)
}

/// Run the bootstrap phase on `topology` at the default config and return
/// the config together with the discovered aggregator set — the setup the
/// privacy suite needs before constructing collusions.
pub fn aggregator_setup(topology: &Topology) -> (ProtocolConfig, Vec<u16>) {
    let config = ProtocolConfig::builder(topology.len())
        .build()
        .expect("default config is valid");
    let bootstrap = Bootstrap::run(topology, &config).expect("bootstrap succeeds");
    let aggregators = bootstrap.aggregators().to_vec();
    (config, aggregators)
}

/// The workspace's deterministic RNG at a named seed.
pub fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from(seed)
}

/// The canonical seed of the fault-injection suites.
pub const FAULT_SEED: u64 = 0xFA17;

/// A lossy testbed's fault plan: every link PRR scaled by `1 - loss`,
/// drawn from the canonical fault seed. The standard ingredient of the
/// degraded-network suites — pair it with [`flocklab_scenario`] (or any
/// other topology/config) and the degraded execution paths.
pub fn lossy(loss: f64) -> FaultPlan {
    FaultPlan::lossy(FAULT_SEED, loss)
}

/// A lossy testbed that also drops whole nodes: link loss `loss` plus
/// per-round per-node dropout `dropout`.
pub fn lossy_dropout(loss: f64, dropout: f64) -> FaultPlan {
    lossy(loss).with_dropout(dropout)
}

/// A churning testbed's fault plan: deterministic multi-round outages
/// from `(node, from_round, until_round)` windows, no probabilistic
/// faults — stepped drivers walk the windows round by round.
pub fn churn(windows: &[(u16, u32, u32)]) -> FaultPlan {
    FaultPlan::none().with_churn(ChurnSchedule::from_windows(windows.iter().copied()))
}

/// The lossy FlockLab scenario at one call: the testbed topology, a
/// config with `sources` evenly spread sources, and the [`lossy`] fault
/// plan at `loss` — the setup the degraded campaign suites sweep.
pub fn lossy_flocklab(sources: usize, loss: f64) -> (Topology, ProtocolConfig, FaultPlan) {
    let topology = Topology::flocklab();
    let config = ProtocolConfig::builder(topology.len())
        .sources(sources)
        .build()
        .expect("flocklab source sweep configs are valid");
    (topology, config, lossy(loss))
}

/// A compiled [`grid9`] deployment at the standard operating point
/// (degree 2, NTX 6, seed 0xD00D) — the façade-level twin of
/// [`grid9_config`] for suites that drive rounds through
/// [`RoundDriver`](ppda_mpc::RoundDriver).
pub fn grid9_deployment(kind: ProtocolKind) -> Deployment<'static> {
    Deployment::builder()
        .topology(grid9())
        .config(grid9_config().build().expect("grid9 config is valid"))
        .protocol(kind)
        .seed(0xD00D)
        .build()
        .expect("grid9 deployment compiles")
}

/// The [`lossy_flocklab`] scenario compiled into a deployment: the fault
/// plan is fused at build time, so every driven round runs degraded.
pub fn lossy_flocklab_deployment(sources: usize, loss: f64) -> Deployment<'static> {
    let (topology, config, faults) = lossy_flocklab(sources, loss);
    Deployment::builder()
        .topology(topology)
        .config(config)
        .protocol(ProtocolKind::S4)
        .faults(faults)
        .seed(FAULT_SEED)
        .build()
        .expect("lossy flocklab deployment compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid9_is_nine_nodes_and_stable() {
        let a = grid9();
        let b = grid9();
        assert_eq!(a.len(), 9);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn scenarios_match_testbed_sizes() {
        assert_eq!(flocklab_scenario().0.len(), 26);
    }

    #[test]
    fn aggregator_setup_is_deterministic() {
        let t = grid9();
        let (_, a) = aggregator_setup(&t);
        let (_, b) = aggregator_setup(&t);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fault_builders_are_deterministic() {
        assert_eq!(lossy(0.2), lossy(0.2));
        assert_eq!(lossy(0.2).loss, 0.2);
        assert_eq!(lossy(0.2).seed, FAULT_SEED);
        let ld = lossy_dropout(0.1, 0.05);
        assert_eq!(ld.loss, 0.1);
        assert_eq!(ld.dropout, 0.05);
        assert!(lossy(0.0).is_zero());
    }

    #[test]
    fn churn_builder_schedules_windows() {
        let plan = churn(&[(3, 5, 8), (7, 6, 7)]);
        assert!(plan.churn.is_down(3, 6));
        assert!(!plan.churn.is_down(3, 8));
        assert!(plan.churn.is_down(7, 6));
        assert_eq!(plan.loss, 0.0);
    }

    #[test]
    fn lossy_flocklab_matches_paper_sweep_point() {
        let (topology, config, faults) = lossy_flocklab(24, 0.2);
        assert_eq!(topology.len(), 26);
        assert_eq!(config.sources.len(), 24);
        assert_eq!(faults.loss, 0.2);
    }

    #[test]
    fn deployment_builders_compile_once_and_drive() {
        let deployment = grid9_deployment(ProtocolKind::S4);
        assert_eq!(deployment.topology().len(), 9);
        assert!(deployment.faults().is_zero());
        assert!(deployment.driver().step().unwrap().correct());

        let lossy = lossy_flocklab_deployment(6, 0.2);
        assert_eq!(lossy.faults().loss, 0.2);
        assert_eq!(lossy.config().sources.len(), 6);
    }
}
