//! Measures what the compile-once plan layer buys: per-round cost with a
//! reused [`RoundPlan`] (one deployment, one driver) versus the
//! bootstrap-per-round baseline (a fresh deployment built for every round,
//! as the campaign runner did before the plan split). The gap is the
//! amortized work — pairwise key derivation, hop tables, aggregator
//! election, chain/schedule compilation, Lagrange weights. Recorded ratios
//! live in `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};

use ppda_bench::TestbedSetup;
use ppda_mpc::{Deployment, MpcError, ProtocolConfig, ProtocolKind, RoundPlan};
use ppda_topology::Topology;

fn deployment<'t>(
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

/// Register the reused-plan and bootstrap-per-round benches of one
/// operating point under `<what>/<point>` names.
fn bench_pair(
    group: &mut criterion::BenchmarkGroup<'_>,
    prefix: &str,
    point: &str,
    topology: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
) {
    let reused = deployment(topology, config, kind).unwrap();
    let mut driver = reused.driver();
    group.bench_function(format!("{prefix}_reused_plan/{point}"), |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            driver.round_at(config.round_id, seed).unwrap()
        })
    });
    group.bench_function(format!("{prefix}_bootstrap_per_round/{point}"), |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            // The pre-plan campaign body: fresh config clone, fresh
            // deployment, fresh bootstrap, every round.
            deployment(topology, config, kind)
                .unwrap()
                .driver()
                .round_at(config.round_id, seed)
                .unwrap()
        })
    });
}

fn bench_plan_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_amortization");
    group.sample_size(20);

    for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
        let topology = setup.topology();
        // The smallest sweep point of each testbed (3 sources on FlockLab,
        // 5 on D-Cube): short chains make rounds cheap, which is exactly
        // where the per-round bootstrap overhead is proportionally worst —
        // and the operating point a periodic sensing deployment runs at.
        let sources = setup.source_sweep[0];
        let config = setup.config(sources).unwrap();

        // S4, the periodic-aggregation production path.
        let point = format!("{}-{sources}src", setup.name);
        bench_pair(
            &mut group,
            "s4",
            &point,
            &topology,
            &config,
            ProtocolKind::S4,
        );

        // Plan compilation alone (what gets amortized away).
        group.bench_function(format!("plan_compile/{point}"), |bench| {
            bench.iter(|| RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap())
        });

        // The full network for context (simulation-dominated).
        let full = setup.config(topology.len()).unwrap();
        let point = format!("{}-full", setup.name);
        bench_pair(&mut group, "s4", &point, &topology, &full, ProtocolKind::S4);
    }

    // S3 for completeness, on the smaller testbed only (its rounds are an
    // order of magnitude slower).
    let setup = TestbedSetup::flocklab();
    let topology = setup.topology();
    let config = setup.config(6).unwrap();
    bench_pair(
        &mut group,
        "s3",
        "flocklab-6src",
        &topology,
        &config,
        ProtocolKind::S3,
    );
    group.finish();
}

criterion_group!(benches, bench_plan_amortization);
criterion_main!(benches);
