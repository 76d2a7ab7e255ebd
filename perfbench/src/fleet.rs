//! The `fleet-churn` workload: one `CampaignEngine` over a mixed fleet,
//! ticked one round at a time with a `snapshot()` after every tick, the
//! way a monitoring loop polls a live service.

use std::collections::BTreeMap;
use std::time::Instant;

use ppda_bench::TestbedSetup;
use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{
    Deployment, FaultPlan, MembershipDelta, MembershipEvent, ProtocolConfig, ProtocolKind,
    RoundObserver, RoundPlan, RoundReport,
};
use ppda_service::{CampaignEngine, Checkpoint, DeploymentSpec};
use ppda_sim::{derive_stream, Xoshiro256};
use ppda_topology::Topology;
use rand::RngCore;

use crate::replay::{ReplayPlan, ReplayState};
use crate::single::cycles_and_coverage;
use crate::trace::{alloc_counts, set_alloc_counting, Tracer};
use crate::{check_report, peak_rss_mb, Args, Outcome, RoundStats, Samples, SetupTimer};

const DEPLOYMENTS: usize = 32;
/// `setup_s` is the median over this many batches of engine set-ups
/// (see [`SetupTimer`]), each lasting at least `SETUP_BATCH_S`.
const SETUP_BATCHES: usize = 9;
const SETUP_BATCH_S: f64 = 0.1;
/// Ticks before timing starts (not part of any metric).
const WARMUP_TICKS: u64 = 2;
/// Seed-determined metrics cover exactly the first this-many measured
/// ticks (every deployment's round in each).
const SEED_PREFIX_TICKS: u64 = 600;
/// Ticks of the traced run whose work counts are compared across runs.
const TRACE_PREFIX_TICKS: u64 = 10;

/// The fleet: FlockLab and D-Cube, S3 and S4, B ∈ {1, 4} in a fixed
/// rotation, every deployment lossy (~10% link loss, ~2% node dropout),
/// and every fourth one with leave/rejoin events. The seed picks each
/// deployment's round seeds, fault draws and event rounds and nodes.
pub fn specs(seed: u64) -> Result<Vec<DeploymentSpec>, String> {
    let mut specs = Vec::with_capacity(DEPLOYMENTS);
    for i in 0..DEPLOYMENTS as u64 {
        let (setup, topology, sources) = if i % 2 == 0 {
            (TestbedSetup::flocklab(), Topology::flocklab(), 6)
        } else {
            (TestbedSetup::dcube(), Topology::dcube(), 5)
        };
        let protocol = if (i / 2) % 2 == 0 {
            ProtocolKind::S4
        } else {
            ProtocolKind::S3
        };
        let batch = if (i / 4) % 2 == 0 { 1 } else { 4 };
        let n = topology.len();
        let config = ProtocolConfig::builder(n)
            .sources(sources)
            .ntx_sharing(setup.s4_ntx)
            .ntx_reconstruction(setup.s4_ntx)
            .full_coverage_ntx(setup.s3_ntx)
            .aggregator_redundancy(setup.redundancy)
            .fading(setup.fading)
            .batch(batch)
            .build()
            .map_err(|e| e.to_string())?;
        let dseed = derive_stream(seed, 0xF1EE_0000 + i);
        let mut spec = DeploymentSpec::new(
            format!("{}-{}-b{batch}-{i}", setup.name, protocol.name()),
            topology,
            config,
        );
        spec.protocol = protocol;
        spec.seed = dseed;
        spec.faults = FaultPlan::lossy(derive_stream(dseed, 1), 0.10).with_dropout(0.02);
        if i % 4 == 3 {
            let mut rng = Xoshiro256::seed_from(derive_stream(dseed, 2));
            let mut round = 1 + WARMUP_TICKS as u32;
            for _ in 0..3 {
                let node = (rng.next_u64() % n as u64) as u16;
                round += 5 + (rng.next_u64() % 20) as u32;
                spec.membership.push(MembershipEvent::leave(round, node));
                round += 5 + (rng.next_u64() % 20) as u32;
                spec.membership.push(MembershipEvent::rejoin(round, node));
            }
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// A single-threaded deployment built exactly as the engine builds each
/// spec.
fn twin(spec: &DeploymentSpec) -> Result<Deployment<'static>, String> {
    let mut builder = Deployment::builder()
        .topology(spec.topology.clone())
        .config(spec.config.clone())
        .protocol(spec.protocol)
        .faults(spec.faults.clone())
        .seed(spec.seed);
    if !spec.membership.is_empty() {
        builder = builder
            .membership(spec.membership.clone())
            .trickle(spec.trickle);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Round `index` of a deployment as the engine runs it when ticking one
/// round at a time: a fresh driver per span, at the spec's coordinates.
fn twin_round(
    spec: &DeploymentSpec,
    d: &Deployment<'_>,
    index: u64,
) -> Result<RoundReport, String> {
    let (round_id, seed) = spec.coordinates(index);
    d.driver()
        .round_at(round_id, seed)
        .map_err(|e| e.to_string())
}

/// Host nanoseconds of [`twin_round`], result discarded.
fn timed_twin_round(spec: &DeploymentSpec, d: &Deployment<'_>, index: u64) -> Result<u64, String> {
    let t = Instant::now();
    std::hint::black_box(twin_round(spec, d, index)?);
    Ok(t.elapsed().as_nanos() as u64)
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine build + checkpoint capture + restore: what `setup_s` times.
/// Returns the restored engine and the blob size.
fn setup(seed: u64) -> Result<(CampaignEngine, usize), String> {
    let built = CampaignEngine::builder()
        .workers(workers())
        .deployments(specs(seed)?)
        .build()
        .map_err(|e| e.to_string())?;
    let blob = Checkpoint::capture(&built).map_err(|e| e.to_string())?;
    let restored = blob.restore().map_err(|e| e.to_string())?;
    Ok((restored, blob.as_bytes().len()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (engine, checkpoint_bytes) = setup(args.seed)?;
    out.fact("deployments", engine.len());
    out.fact("workers", engine.workers());
    out.fact("setup_checkpoint_bytes", checkpoint_bytes);
    if args.trace {
        traced(&engine, args, &mut out)?;
    } else {
        untraced(&engine, args, &mut out)?;
    }
    Ok(out)
}

fn untraced(engine: &CampaignEngine, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut setup_timer = SetupTimer::new(SETUP_BATCHES, SETUP_BATCH_S, args.seconds);
    // Host times of the timed ticks; `measured` counts every tick.
    let mut ticks = Vec::with_capacity(4096);
    let mut measured = 0u64;
    let mut rounds = 0u64;
    let mut recovered_values = 0u64;
    let mut prefix = RoundStats::default();
    // What the engine's snapshot must say at the end of the prefix.
    let mut expected: Vec<CampaignAccumulator> = (0..engine.len())
        .map(|_| CampaignAccumulator::new())
        .collect();
    for _ in 0..WARMUP_TICKS {
        let per_dep = engine.advance_recorded(1).map_err(|e| e.to_string())?;
        for (dep, reports) in per_dep.iter().enumerate() {
            reports.iter().for_each(|r| expected[dep].on_round(r));
        }
        engine.snapshot();
    }
    let started = Instant::now();
    // The tick after a set-up batch finds the caches cold; it is checked
    // but not timed.
    let mut cold = false;
    while started.elapsed().as_secs_f64() < args.seconds || measured < SEED_PREFIX_TICKS {
        if setup_timer.due(started.elapsed().as_secs_f64()) {
            setup_timer.batch(|| setup(args.seed))?;
            cold = true;
        }
        out.attempted += engine.len() as u64;
        // `advance_recorded` is `advance` handing back the round reports,
        // which is what lets every aggregate of the fleet be checked.
        let t = Instant::now();
        let advanced = engine.advance_recorded(1);
        let snapshot = engine.snapshot();
        let dt = t.elapsed().as_secs_f64();
        let per_dep = match advanced {
            Ok(r) => r,
            Err(e) => {
                out.failed += engine.len() as u64;
                out.fail(format!("advance failed: {e}"));
                break;
            }
        };
        measured += 1;
        let timed = !std::mem::take(&mut cold);
        if timed {
            ticks.push(dt * 1e3);
        }
        let in_prefix = measured <= SEED_PREFIX_TICKS;
        for (dep, reports) in per_dep.iter().enumerate() {
            for report in reports {
                rounds += u64::from(timed);
                let before = out.errors.len();
                check_report(report, &engine.spec(dep).config, false, out);
                for e in &mut out.errors[before..] {
                    *e = format!("{}: {e}", engine.spec(dep).name);
                }
                if timed && report.recovered() {
                    recovered_values += report.lanes() as u64;
                }
                if in_prefix {
                    prefix.add(report);
                }
                expected[dep].on_round(report);
            }
        }
        let done = (WARMUP_TICKS + measured) * engine.len() as u64;
        if snapshot.total_rounds() != done {
            out.fail(format!(
                "snapshot counts {} rounds after {done}",
                snapshot.total_rounds()
            ));
        }
        if measured == SEED_PREFIX_TICKS {
            for (dep, d) in snapshot.deployments().iter().enumerate() {
                if let Some(diff) = accumulators_differ(&d.metrics, &expected[dep]) {
                    out.fail(format!(
                        "deployment {dep}: snapshot disagrees with the reports: {diff}"
                    ));
                }
            }
        }
    }
    let busy_s: f64 = ticks.iter().sum::<f64>() / 1e3;
    let ticks = Samples(ticks);
    let (tail, q, windows) = ticks.tail();
    out.metric("rounds_per_s", rounds as f64 / busy_s, "rounds/s");
    out.metric("values_per_s", recovered_values as f64 / busy_s, "values/s");
    out.metric("step_ms_p50", ticks.median(), "ms");
    out.metric("step_ms_p99", tail, "ms");
    out.metric("setup_s", setup_timer.finish(|| setup(args.seed))?, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    prefix.report(out);
    out.fact("step_samples", ticks.0.len());
    out.fact("step_ms_p99_is_percentile", q);
    out.fact("step_ms_p99_windows", windows);
    out.fact("seed_prefix_ticks", SEED_PREFIX_TICKS);
    Ok(())
}

/// Where two accumulators over the same rounds differ (sample order
/// differs after a shard merge, so means get a relative tolerance).
fn accumulators_differ(a: &CampaignAccumulator, b: &CampaignAccumulator) -> Option<String> {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    let checks = [
        ("rounds", a.rounds() as f64, b.rounds() as f64),
        ("round_success", a.round_success(), b.round_success()),
        ("node_success", a.node_success(), b.node_success()),
        (
            "rounds_recovered",
            a.rounds_recovered() as f64,
            b.rounds_recovered() as f64,
        ),
        (
            "latency samples",
            a.latency().len() as f64,
            b.latency().len() as f64,
        ),
        ("latency mean", a.latency().mean(), b.latency().mean()),
        ("radio-on mean", a.radio_on().mean(), b.radio_on().mean()),
    ];
    checks
        .iter()
        .find(|(_, x, y)| !(close(*x, *y) || (x.is_nan() && y.is_nan())))
        .map(|(what, x, y)| format!("{what} {x} vs {y}"))
}

/// Per-deployment replay context. Static deployments keep one replay
/// plan; membership-driven ones rebuild it every round, after patching a
/// copy of the plan forward exactly as the engine's fresh per-span
/// driver does.
struct Twin {
    deployment: Deployment<'static>,
    replay: Option<ReplayPlan>,
}

fn traced(engine: &CampaignEngine, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    // Plan compiles of the whole fleet, and checkpoint costs, timed apart.
    let specs = specs(args.seed)?;
    let mut compile = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for spec in &specs {
            std::hint::black_box(twin(spec)?);
        }
        compile.push(t.elapsed().as_secs_f64() * 1e3);
    }
    v.insert("mpc.compile_ms".into(), Samples(compile).median());
    {
        let fresh = CampaignEngine::builder()
            .workers(workers())
            .deployments(specs)
            .build()
            .map_err(|e| e.to_string())?;
        let (mut cap, mut res) = (Vec::new(), Vec::new());
        let mut bytes = 0;
        for _ in 0..3 {
            let t = Instant::now();
            let blob = Checkpoint::capture(&fresh).map_err(|e| e.to_string())?;
            cap.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(blob.restore().map_err(|e| e.to_string())?);
            res.push(t.elapsed().as_secs_f64() * 1e3);
            bytes = blob.as_bytes().len();
        }
        v.insert(
            "service.checkpoint_capture_ms".into(),
            Samples(cap).median(),
        );
        v.insert(
            "service.checkpoint_restore_ms".into(),
            Samples(res).median(),
        );
        v.insert("service.checkpoint_bytes".into(), bytes as f64);
    }

    let mut twins = Vec::with_capacity(engine.len());
    for dep in 0..engine.len() {
        let deployment = twin(engine.spec(dep))?;
        let replay = match deployment.membership() {
            None => Some(ReplayPlan::new(deployment.plan())?),
            Some(_) => None,
        };
        twins.push(Twin { deployment, replay });
    }
    let mut states = Vec::with_capacity(twins.len());
    for t in &twins {
        // Scratch sizes depend only on the configuration, which patches
        // never change, so the full-membership plan sizes them.
        states.push(ReplayState::new(&ReplayPlan::new(t.deployment.plan())?));
    }

    for _ in 0..WARMUP_TICKS {
        engine.advance(1).map_err(|e| e.to_string())?;
        engine.snapshot();
    }
    let mut tr = Tracer::new();
    let (mut step_ns, mut twin_ns, mut tick_ns, mut snapshot_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut allocs, mut alloc_bytes, mut prefix_rounds) = (0u64, 0u64, 0u64);
    let (mut steals, mut patches, mut rounds) = (0u64, 0u64, 0u64);
    let mut per_worker = vec![0u64; engine.workers()];
    let (mut cycles, mut coverage) = (0u64, 0.0);
    let (mut masks, mut evictions, mut audited) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut tick = 0u64;
    while started.elapsed().as_secs_f64() < args.seconds || tick < TRACE_PREFIX_TICKS {
        let index = WARMUP_TICKS + tick;
        let open = tr.begin("tick", tick, None);
        let adv = tr.begin("service.advance", tick, Some(open));
        set_alloc_counting(true);
        let before = alloc_counts();
        let stats = engine.advance(1);
        let after = alloc_counts();
        set_alloc_counting(false);
        tr.end(adv);
        let snap = tr.begin("metrics.snapshot", tick, Some(open));
        std::hint::black_box(engine.snapshot());
        snapshot_ns += tr.end(snap);
        tick_ns += tr.end(open);
        out.attempted += engine.len() as u64;
        let stats = stats.map_err(|e| {
            out.failed += engine.len() as u64;
            e.to_string()
        })?;
        steals += stats.steals;
        for (w, r) in per_worker.iter_mut().zip(&stats.per_worker) {
            *w += r;
        }
        if tick < TRACE_PREFIX_TICKS {
            allocs += after.0 - before.0;
            alloc_bytes += after.1 - before.1;
            prefix_rounds += stats.rounds;
        }

        for (dep, t) in twins.iter_mut().enumerate() {
            let spec = engine.spec(dep);
            let key = (tick << 8) | dep as u64;
            let (round_id, seed) = spec.coordinates(index);
            // The untraced twin alternates sides, as in the single runs.
            let twin_first = (tick + dep as u64).is_multiple_of(2);
            if twin_first {
                twin_ns += timed_twin_round(spec, &t.deployment, index)?;
            }

            let round = tr.begin("round", key, None);
            let span = tr.begin("mpc.step", key, Some(round));
            let mut driver = t.deployment.driver();
            let report = driver.round_at(round_id, seed).map_err(|e| e.to_string())?;
            let driver_stats = driver.stats();
            drop(driver);
            step_ns += tr.end(span);
            rounds += 1;
            check_report(&report, &spec.config, false, out);
            if tick < TRACE_PREFIX_TICKS {
                cycles_and_coverage(&report, &mut cycles, &mut coverage);
            }
            masks += driver_stats.weight_cache_masks as u64;
            evictions += driver_stats.weight_cache_evictions;
            audited += driver_stats.audited_rounds;

            let replay = tr.begin("replay", key, Some(round));
            let patched;
            let rp = match &t.replay {
                Some(rp) => rp,
                None => {
                    let (plan, applied) =
                        patch_forward(&t.deployment, round_id, &mut tr, key, replay)?;
                    patches += applied;
                    patched = ReplayPlan::new(&plan)?;
                    &patched
                }
            };
            states[dep].reset_caches(rp);
            states[dep].replay(
                rp,
                t.deployment.faults(),
                round_id,
                seed,
                &report,
                &mut tr,
                key,
                replay,
            )?;
            tr.end(replay);
            tr.end(round);
            if !twin_first {
                twin_ns += timed_twin_round(spec, &t.deployment, index)?;
            }
        }
        tick += 1;
    }

    // Fold the per-deployment replay states into one for the figures.
    let mut merged = ReplayState::new(&ReplayPlan::new(twins[0].deployment.plan())?);
    for s in &states {
        merged.absorb(s);
    }
    crate::replay_figures(&tr, &merged, rounds, step_ns, twin_ns, &mut v);
    let r = rounds.max(1) as f64;
    let prefix = (TRACE_PREFIX_TICKS * engine.len() as u64) as f64;
    v.insert("ct.cycles_per_round".into(), cycles as f64 / prefix);
    v.insert("ct.coverage_mean".into(), coverage / prefix);
    v.insert(
        "radio.fragments_per_round".into(),
        merged.counters.fragments as f64 / r,
    );
    v.insert("mpc.plan_patches".into(), patches as f64 / r);
    v.insert(
        "mpc.allocs_per_round".into(),
        allocs as f64 / prefix_rounds.max(1) as f64,
    );
    v.insert(
        "mpc.alloc_bytes_per_round".into(),
        alloc_bytes as f64 / prefix_rounds.max(1) as f64,
    );
    v.insert("sss.weight_cache_masks".into(), masks as f64 / r);
    v.insert("sss.weight_cache_evictions".into(), evictions as f64);
    v.insert("integrity.audited_share".into(), audited as f64 / r);
    v.insert(
        "service.steals_per_tick".into(),
        steals as f64 / tick.max(1) as f64,
    );
    let (max, min) = (
        per_worker.iter().copied().max().unwrap_or(0),
        per_worker.iter().copied().min().unwrap_or(0),
    );
    v.insert(
        "service.worker_imbalance".into(),
        max as f64 / min.max(1) as f64,
    );
    v.insert(
        "metrics.snapshot_us".into(),
        snapshot_ns as f64 / tick.max(1) as f64 / 1e3,
    );
    v.insert(
        "metrics.snapshot.share".into(),
        snapshot_ns as f64 / tick_ns.max(1) as f64,
    );
    crate::emit_layers(&v, out);
    out.extra("tick_ms", tick_ns as f64 / tick.max(1) as f64 / 1e6, "ms");
    out.extra(
        "mpc.step_rounds_per_s",
        r / (step_ns as f64 / 1e9),
        "rounds/s",
    );
    out.extra("twin_rounds_per_s", r / (twin_ns as f64 / 1e9), "rounds/s");
    out.fact("traced_ticks", tick);
    out.fact("traced_rounds", rounds);
    out.fact("spans", tr.len());
    if let Err(e) = tr.check_nesting() {
        out.fail(e);
    }
    crate::fidelity_text(&merged, out);
    Ok(())
}

/// A copy of the deployment's plan brought to round `round_id`: the
/// initial membership view, then every delta due by that round, applied
/// with `RoundPlan::apply` (timed as `mpc.patch`). Returns the plan and
/// the number of `apply` calls.
fn patch_forward(
    d: &Deployment<'_>,
    round_id: u32,
    tr: &mut Tracer,
    key: u64,
    parent: crate::trace::Open,
) -> Result<(RoundPlan<'static>, u64), String> {
    let timeline = d.membership().ok_or("patching a static deployment")?;
    let mut plan = d.plan().clone().into_owned();
    let span = tr.begin("mpc.patch", key, Some(parent));
    let mut applied = 0;
    let absent: Vec<u16> = timeline
        .initial()
        .iter()
        .enumerate()
        .filter(|&(_, &live)| !live)
        .map(|(v, _)| v as u16)
        .collect();
    if !absent.is_empty() {
        plan.apply(&MembershipDelta {
            round: plan.config().round_id,
            joins: Vec::new(),
            leaves: absent,
        })
        .map_err(|e| e.to_string())?;
        applied += 1;
    }
    for delta in timeline
        .deltas()
        .iter()
        .take_while(|delta| delta.round <= round_id)
    {
        plan.apply(delta).map_err(|e| e.to_string())?;
        applied += 1;
    }
    tr.end(span);
    Ok((plan, applied))
}
