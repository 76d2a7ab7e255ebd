//! The two single-deployment workloads: one `RoundDriver` on one thread,
//! closed loop (the next `step()` starts when the previous returns).

use std::collections::BTreeMap;
use std::time::Instant;

use ppda_bench::TestbedSetup;
use ppda_mpc::{Deployment, IntegrityMode, ProtocolConfig, ProtocolKind, RoundDriver, RoundPlan};
use ppda_sim::derive_stream;
use ppda_topology::Topology;

use crate::replay::{ReplayPlan, ReplayState};
use crate::trace::{alloc_counts, set_alloc_counting, Tracer};
use crate::{check_report, peak_rss_mb, Args, Outcome, RoundStats, Samples, SetupTimer, Workload};

/// `setup_s` is the median over this many batches of deployment builds
/// (see [`SetupTimer`]), each lasting at least `SETUP_BATCH_S`.
const SETUP_BATCHES: usize = 15;
const SETUP_BATCH_S: f64 = 0.03;
/// Rounds a throwaway driver runs before timing starts.
const WARMUP_ROUNDS: u64 = 20;
/// Rounds of the traced run whose work counts (cycles, fragments,
/// allocations) must repeat exactly between runs with one seed.
const TRACE_PREFIX_ROUNDS: u64 = 100;

struct Point {
    setup: TestbedSetup,
    sources: usize,
    batch: usize,
    integrity: IntegrityMode,
    /// Seed-determined metrics cover exactly this many rounds, so they
    /// are a function of the seed alone; the run goes on until both this
    /// prefix and `--seconds` are done.
    seed_prefix: u64,
}

fn point(w: Workload) -> Point {
    match w {
        // D-Cube, 45 sources, B=1: the sharing flood dominates the round.
        Workload::FloodDcube45 => Point {
            setup: TestbedSetup::dcube(),
            sources: 45,
            batch: 1,
            integrity: IntegrityMode::Off,
            seed_prefix: 3500,
        },
        // FlockLab, 6 sources, B=64 over 3 frames, integrity on: split,
        // seal and open dominate, the flood is a minority.
        Workload::WideB64Integrity => Point {
            setup: TestbedSetup::flocklab(),
            sources: 6,
            batch: 64,
            integrity: IntegrityMode::On,
            seed_prefix: 9000,
        },
        Workload::FleetChurn => unreachable!("the fleet has its own runner"),
    }
}

fn topology(p: &Point) -> Topology {
    match p.setup.name {
        "dcube" => Topology::dcube(),
        _ => Topology::flocklab(),
    }
}

fn config(p: &Point, n: usize) -> Result<ProtocolConfig, String> {
    ProtocolConfig::builder(n)
        .sources(p.sources)
        .ntx_sharing(p.setup.s4_ntx)
        .ntx_reconstruction(p.setup.s4_ntx)
        .full_coverage_ntx(p.setup.s3_ntx)
        .aggregator_redundancy(p.setup.redundancy)
        .fading(p.setup.fading)
        .batch(p.batch)
        .fragmentation(p.batch > 1)
        .integrity(p.integrity)
        .build()
        .map_err(|e| e.to_string())
}

/// Topology, configuration and plan compile: what `setup_s` times.
fn build(p: &Point, seed: u64) -> Result<Deployment<'static>, String> {
    let topology = topology(p);
    let config = config(p, topology.len())?;
    Deployment::builder()
        .topology(topology)
        .config(config)
        .protocol(ProtocolKind::S4)
        .seed(derive_stream(seed, 0xBE7C))
        .build()
        .map_err(|e| e.to_string())
}

pub fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    let p = point(w);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let deployment = build(&p, args.seed)?;
    let config = deployment.config();
    out.fact("testbed", p.setup.name);
    out.fact("sources", config.sources.len());
    out.fact("lanes", config.batch);
    out.fact("share_fragments", config.share_fragments());
    out.fact("integrity", format!("{:?}", config.integrity));
    out.fact("destinations", deployment.plan().destinations().len());
    out.fact("sharing_chain_len", deployment.plan().sharing_chain_len());
    {
        let mut warm = deployment.driver();
        for _ in 0..WARMUP_ROUNDS {
            warm.step().map_err(|e| e.to_string())?;
        }
    }
    if args.trace {
        traced(&p, &deployment, args, &mut out)?;
    } else {
        untraced(&p, &deployment, args, &mut out)?;
    }
    Ok(out)
}

fn untraced(
    p: &Point,
    deployment: &Deployment<'_>,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup = SetupTimer::new(SETUP_BATCHES, SETUP_BATCH_S, args.seconds);
    let honest = deployment.config().integrity.is_on();
    let lanes = deployment.config().batch as f64;
    let mut driver = deployment.driver();
    let mut steps = Vec::with_capacity(1 << 14);
    let mut prefix = RoundStats::default();
    let mut recovered = 0u64;
    let started = Instant::now();
    // The step after a set-up batch finds the caches cold; it is checked
    // but not timed.
    let mut cold = false;
    while started.elapsed().as_secs_f64() < args.seconds || prefix.rounds < p.seed_prefix {
        if setup.due(started.elapsed().as_secs_f64()) {
            setup.batch(|| build(p, args.seed))?;
            cold = true;
        }
        out.attempted += 1;
        let t = Instant::now();
        let step = driver.step();
        let dt = t.elapsed().as_secs_f64();
        let report = match step {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.fail(format!("step failed: {e}"));
                continue;
            }
        };
        if !std::mem::take(&mut cold) {
            steps.push(dt * 1e3);
            recovered += u64::from(report.recovered());
        }
        check_report(&report, deployment.config(), honest, out);
        if prefix.rounds < p.seed_prefix {
            prefix.add(&report);
        }
    }
    let busy_s: f64 = steps.iter().sum::<f64>() / 1e3;
    let steps = Samples(steps);
    let (tail, q, windows) = steps.tail();
    out.metric("rounds_per_s", steps.0.len() as f64 / busy_s, "rounds/s");
    out.metric(
        "values_per_s",
        lanes * recovered as f64 / busy_s,
        "values/s",
    );
    out.metric("step_ms_p50", steps.median(), "ms");
    out.metric("step_ms_p99", tail, "ms");
    out.metric("setup_s", setup.finish(|| build(p, args.seed))?, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    prefix.report(out);
    out.fact("step_samples", steps.0.len());
    out.fact("step_ms_p99_is_percentile", q);
    out.fact("step_ms_p99_windows", windows);
    let stats = driver.stats();
    out.fact("driver_stats", format!("{stats:?}"));
    Ok(())
}

fn traced(
    p: &Point,
    deployment: &Deployment<'_>,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut compile = Vec::new();
    for _ in 0..5 {
        let topology = topology(p);
        let config = config(p, topology.len())?;
        let t = Instant::now();
        let plan =
            RoundPlan::new(&topology, &config, ProtocolKind::S4).map_err(|e| e.to_string())?;
        compile.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(plan);
    }
    let rp = ReplayPlan::new(deployment.plan())?;
    let mut state = ReplayState::new(&rp);
    let honest = deployment.config().integrity.is_on();
    let mut driver = deployment.driver();
    let mut twin = deployment.driver();
    let (mut step_ns, mut twin_ns) = (0u64, 0u64);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut cycles = 0u64;
    let mut fragments_prefix = 0u64;
    let mut coverage = 0.0;
    let started = Instant::now();
    let mut index = 0u64;
    while started.elapsed().as_secs_f64() < args.seconds || index < TRACE_PREFIX_ROUNDS {
        // An untraced twin runs the same round, for the overhead; it goes
        // first on even rounds and last on odd ones, so neither side
        // always finds the caches warm.
        let twin_first = index.is_multiple_of(2);
        if twin_first {
            twin_ns += timed_step(&mut twin)?;
        }
        out.attempted += 1;
        let round = tr.begin("round", index, None);
        let span = tr.begin("mpc.step", index, Some(round));
        set_alloc_counting(true);
        let before = alloc_counts();
        let step = driver.step();
        let after = alloc_counts();
        set_alloc_counting(false);
        step_ns += tr.end(span);
        let report = step.map_err(|e| {
            out.failed += 1;
            e.to_string()
        })?;
        check_report(&report, deployment.config(), honest, out);
        let replay = tr.begin("replay", index, Some(round));
        state.replay(
            &rp,
            deployment.faults(),
            report.round_id,
            report.seed,
            &report,
            &mut tr,
            index,
            replay,
        )?;
        tr.end(replay);
        tr.end(round);
        if !twin_first {
            twin_ns += timed_step(&mut twin)?;
        }
        if index < TRACE_PREFIX_ROUNDS {
            cycles_and_coverage(&report, &mut cycles, &mut coverage);
            allocs += after.0 - before.0;
            alloc_bytes += after.1 - before.1;
            if index + 1 == TRACE_PREFIX_ROUNDS {
                fragments_prefix = state.counters.fragments;
            }
        }
        index += 1;
    }
    let rounds = index;
    let stats = driver.stats();
    let mut v = BTreeMap::new();
    crate::replay_figures(&tr, &state, rounds, step_ns, twin_ns, &mut v);
    let prefix = TRACE_PREFIX_ROUNDS as f64;
    v.insert("ct.cycles_per_round".into(), cycles as f64 / prefix);
    v.insert("ct.coverage_mean".into(), coverage / prefix);
    v.insert(
        "radio.fragments_per_round".into(),
        fragments_prefix as f64 / prefix,
    );
    v.insert("mpc.allocs_per_round".into(), allocs as f64 / prefix);
    v.insert(
        "mpc.alloc_bytes_per_round".into(),
        alloc_bytes as f64 / prefix,
    );
    v.insert("mpc.compile_ms".into(), Samples(compile).median());
    v.insert(
        "sss.weight_cache_masks".into(),
        stats.weight_cache_masks as f64,
    );
    v.insert(
        "sss.weight_cache_evictions".into(),
        stats.weight_cache_evictions as f64,
    );
    v.insert(
        "integrity.audited_share".into(),
        stats.audited_rounds as f64 / stats.rounds.max(1) as f64,
    );
    crate::emit_layers(&v, out);
    out.extra(
        "mpc.step_rounds_per_s",
        rounds as f64 / (step_ns as f64 / 1e9),
        "rounds/s",
    );
    out.extra(
        "twin_rounds_per_s",
        rounds as f64 / (twin_ns as f64 / 1e9),
        "rounds/s",
    );
    out.fact("traced_rounds", rounds);
    out.fact("trace_prefix_rounds", TRACE_PREFIX_ROUNDS);
    out.fact("spans", tr.len());
    out.fact("driver_stats", format!("{stats:?}"));
    if let Err(e) = tr.check_nesting() {
        out.fail(e);
    }
    crate::fidelity_text(&state, out);
    Ok(())
}

/// Host nanoseconds of one untraced `step()`.
fn timed_step(driver: &mut RoundDriver<'_>) -> Result<u64, String> {
    let t = Instant::now();
    driver.step().map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_nanos() as u64)
}

/// Exact simulated cycles of both floods and mean coverage of both
/// phases, from the report's phase statistics.
pub fn cycles_and_coverage(report: &ppda_mpc::RoundReport, cycles: &mut u64, coverage: &mut f64) {
    let o = &report.outcome;
    *cycles += u64::from(o.sharing.cycles_run) + u64::from(o.reconstruction.cycles_run);
    *coverage += (o.sharing.coverage + o.reconstruction.coverage) / 2.0;
}
