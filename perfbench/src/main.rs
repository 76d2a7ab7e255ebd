//! The ppda benchmark: three named workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! ```text
//! ppda-perfbench --workload flood-dcube45|wide-b64-integrity|fleet-churn \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the full result record (provenance, workload parameters, every
//! metric). The process exits with code 2 when any check fails: a node
//! reporting a wrong aggregate, an honest round rendering `Tampered`, or
//! the fleet engine's snapshot disagreeing with its own round reports.
//! See README.md for the workloads, metrics and how they relate.

mod fleet;
mod replay;
mod single;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use ppda_crypto::{Aes128, CtrDrbg};
use ppda_mpc::{ProtocolConfig, RoundReport};
use rand::RngCore;

use crate::replay::ReplayState;
use crate::trace::Tracer;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// The three workloads, by their benchmark names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FloodDcube45,
    WideB64Integrity,
    FleetChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "flood-dcube45" => Some(Workload::FloodDcube45),
            "wide-b64-integrity" => Some(Workload::WideB64Integrity),
            "fleet-churn" => Some(Workload::FleetChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodDcube45 => "flood-dcube45",
            Workload::WideB64Integrity => "wide-b64-integrity",
            Workload::FleetChurn => "fleet-churn",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = match value("--seed")? {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed {s} is not a number"))?,
        None => 1,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seconds {s} is not a number"))?,
        None => 10.0,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match value("--trace")?.map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: rounds for the single-driver workloads,
    /// deployment rounds for the fleet.
    pub attempted: u64,
    /// Operations that returned an error (a round that ran but did not
    /// recover its aggregate is a measured outcome, not a failed call).
    pub failed: u64,
    /// The metrics of the result line: end-to-end when untraced,
    /// per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Further named figures for the record only.
    pub extra: Vec<Metric>,
    /// Workload parameters and check results for the record.
    pub facts: Vec<(String, String)>,
    /// Human-readable lines printed before the result.
    pub text: String,
    /// Why `correct` is false.
    pub errors: Vec<String>,
    /// Node reports of a verified partial aggregate (see [`check_report`]).
    pub partial_aggregates: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
        self.correct = false;
    }
}

/// Seed-determined round figures over a fixed prefix of rounds.
#[derive(Debug, Default, Clone)]
pub struct RoundStats {
    pub rounds: u64,
    pub recovered: u64,
    pub node_ok: u64,
    pub node_total: u64,
    /// Per round: simulated time until the last live node held the
    /// aggregate; `INFINITY` when some live node never did (such a round
    /// misses any latency limit).
    pub latencies_ms: Vec<f64>,
    pub radio_on_sum_ms: f64,
}

impl RoundStats {
    pub fn add(&mut self, report: &RoundReport) {
        self.rounds += 1;
        self.recovered += u64::from(report.recovered());
        for node in report.outcome.live_nodes() {
            self.node_total += 1;
            self.node_ok += u64::from(node.aggregates.as_deref() == Some(report.expected_sums()));
        }
        self.latencies_ms
            .push(report.outcome.max_latency_ms().unwrap_or(f64::INFINITY));
        self.radio_on_sum_ms += report.outcome.mean_radio_on_ms();
    }

    /// The four seed-determined end-to-end metrics.
    pub fn report(&self, out: &mut Outcome) {
        let r = self.rounds.max(1) as f64;
        out.metric(
            "round_fail_share",
            (self.rounds - self.recovered) as f64 / r,
            "ratio",
        );
        out.metric(
            "node_success",
            self.node_ok as f64 / self.node_total.max(1) as f64,
            "ratio",
        );
        let mut lat = self.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let p50 = lat
            .get(lat.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0.0);
        out.metric("sim_latency_ms_p50", p50, "sim_ms");
        out.metric("radio_on_ms_mean", self.radio_on_sum_ms / r, "sim_ms");
        out.fact("seed_metrics_rounds", self.rounds);
    }
}

/// Check one report. Every live node that reports an aggregate over all
/// live sources must report `expected_sums`. A node may instead report a
/// partial aggregate over fewer sources (its `included_sources`), when
/// some source's shares did not reach enough aggregators; that value must
/// be the exact sum of the readings of some set of that many live
/// sources, regenerated here from the round's coordinates. With `honest`
/// set, no audit may render `Tampered`.
pub fn check_report(
    report: &RoundReport,
    config: &ProtocolConfig,
    honest: bool,
    out: &mut Outcome,
) {
    let live: Vec<usize> = config
        .sources
        .iter()
        .enumerate()
        .filter(|&(_, &s)| !report.outcome.nodes[s as usize].failed)
        .map(|(si, _)| si)
        .collect();
    let mut readings: Option<Vec<u64>> = None;
    for (v, node) in report.outcome.nodes.iter().enumerate() {
        let Some(aggs) = node.aggregates.as_deref().filter(|_| !node.failed) else {
            continue;
        };
        if aggs == report.expected_sums() {
            continue;
        }
        let included = node.included_sources as usize;
        if included < live.len() {
            let r = readings.get_or_insert_with(|| round_readings(config, report));
            if subset_sum_matches(r, config.batch, &live, included, aggs) {
                out.partial_aggregates += 1;
                continue;
            }
        }
        out.fail(format!(
            "round {}: node {v} ({included} of {} live sources) reported {:?}, expected {:?}",
            report.round_id,
            live.len(),
            &aggs[..aggs.len().min(4)],
            &report.expected_sums()[..report.expected_sums().len().min(4)]
        ));
    }
    if honest && report.integrity().is_tampered() {
        out.fail(format!(
            "round {}: honest round rendered {:?}",
            report.round_id,
            report.integrity()
        ));
    }
}

/// The readings a driver generates for a round (B per source,
/// lane-major), derived from the master key and the round's coordinates
/// as `RoundDriver::step` documents.
fn round_readings(config: &ProtocolConfig, report: &RoundReport) -> Vec<u64> {
    let master = Aes128::new(&config.master_key);
    let domain = format!("readings|{}|{}", report.round_id, report.seed);
    let mut drbg = CtrDrbg::with_master_cipher(&master, domain.as_bytes());
    (0..config.sources.len() * config.batch)
        .map(|_| drbg.next_u64() % config.max_reading)
        .collect()
}

/// Whether leaving out some `live.len() - included` live sources makes
/// the per-lane reading sums equal `aggs`.
fn subset_sum_matches(
    readings: &[u64],
    lanes: usize,
    live: &[usize],
    included: usize,
    aggs: &[u64],
) -> bool {
    let total: Vec<u64> = (0..lanes)
        .map(|l| live.iter().map(|&si| readings[si * lanes + l]).sum())
        .collect();
    let mut left_out = Vec::new();
    fn search(
        start: usize,
        need: usize,
        live: &[usize],
        left_out: &mut Vec<usize>,
        f: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if need == 0 {
            return f(left_out);
        }
        (start..live.len()).any(|i| {
            left_out.push(live[i]);
            let hit = search(i + 1, need - 1, live, left_out, f);
            left_out.pop();
            hit
        })
    }
    let mut matches = |out: &[usize]| {
        (0..lanes).all(|l| {
            let dropped: u64 = out.iter().map(|&si| readings[si * lanes + l]).sum();
            total[l] - dropped == aggs[l]
        })
    };
    search(0, live.len() - included, live, &mut left_out, &mut matches)
}

/// `setup_s`: seconds per set-up, as the median over `batches` batch
/// means. A batch repeats the set-up until `batch_s` seconds have passed,
/// so one sample spans many timer ticks and scheduler slices. The batches
/// are spread evenly over the measured run: the host's speed drifts over
/// seconds, and batches taken back to back would all see one moment of it.
pub struct SetupTimer {
    batches: usize,
    batch_s: f64,
    run_s: f64,
    means: Vec<f64>,
}

impl SetupTimer {
    pub fn new(batches: usize, batch_s: f64, run_s: f64) -> Self {
        SetupTimer {
            batches,
            batch_s,
            run_s,
            means: Vec::with_capacity(batches),
        }
    }

    /// Whether the next batch is due, `elapsed_s` into the run.
    pub fn due(&self, elapsed_s: f64) -> bool {
        let next = self.means.len();
        next < self.batches && elapsed_s >= (next as f64 + 0.5) * self.run_s / self.batches as f64
    }

    /// Time one batch of set-ups.
    pub fn batch<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<(), String> {
        let mut calls = 0u32;
        let t = Instant::now();
        while calls == 0 || t.elapsed().as_secs_f64() < self.batch_s {
            std::hint::black_box(f()?);
            calls += 1;
        }
        self.means
            .push(t.elapsed().as_secs_f64() / f64::from(calls));
        Ok(())
    }

    /// The median, after timing the batches not yet taken.
    pub fn finish<T>(mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
        while self.means.len() < self.batches {
            self.batch(&mut f)?;
        }
        Ok(Samples(self.means).median())
    }
}

/// Host-time samples in milliseconds.
pub struct Samples(pub Vec<f64>);

impl Samples {
    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    pub fn median(&self) -> f64 {
        let s = self.sorted();
        match s.len() {
            0 => 0.0,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    /// The tail of the samples, kept in run order: the highest percentile
    /// (at most the 99th) that leaves at least ten samples above it. When
    /// the run holds three or more windows of [`TAIL_WINDOW`] consecutive
    /// samples (each window's 99th percentile then has ten above it), the
    /// tail is the median of the per-window 99th percentiles, so a burst
    /// of host interference in one part of the run does not set it.
    /// Returns the tail, the percentile and the number of windows.
    pub fn tail(&self) -> (f64, f64, usize) {
        let windows = self.0.len() / TAIL_WINDOW;
        if windows < 3 {
            let (v, q) = percentile_with_ten_above(&self.0);
            return (v, q, 1);
        }
        let per_window: Vec<f64> = self
            .0
            .chunks(self.0.len().div_ceil(windows))
            .map(|w| percentile_with_ten_above(w).0)
            .collect();
        (Samples(per_window).median(), 99.0, windows)
    }
}

/// Consecutive steps per tail window: enough for the 99th percentile to
/// leave ten samples above it.
pub const TAIL_WINDOW: usize = 1000;

fn percentile_with_ten_above(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (s[idx], q * 100.0)
}

/// Every per-layer metric, in print order, with its unit. Metrics that
/// do not apply to a workload read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ct.flood_sharing_us", "us"),
    ("ct.flood_sharing.share", "ratio"),
    ("ct.flood_recon_us", "us"),
    ("ct.flood_recon.share", "ratio"),
    ("ct.flood_ns_per_cycle", "ns"),
    ("ct.cycles_per_round", "count"),
    ("ct.link_setup_us", "us"),
    ("ct.link_setup.share", "ratio"),
    ("ct.link_cache_hit_ratio", "ratio"),
    ("ct.coverage_mean", "ratio"),
    ("crypto.drbg_us", "us"),
    ("crypto.drbg.share", "ratio"),
    ("crypto.aes_blocks_per_round", "count"),
    ("crypto.ns_per_aes_block", "ns"),
    ("field.horner_us", "us"),
    ("field.horner.share", "ratio"),
    ("field.mults_per_round", "count"),
    ("sss.split_us", "us"),
    ("sss.split.share", "ratio"),
    ("sss.seal_us", "us"),
    ("sss.seal.share", "ratio"),
    ("sss.open_us", "us"),
    ("sss.open.share", "ratio"),
    ("sss.sum_us", "us"),
    ("sss.sum.share", "ratio"),
    ("sss.reconstruct_us", "us"),
    ("sss.reconstruct.share", "ratio"),
    ("sss.weight_cache_masks", "count"),
    ("sss.weight_cache_evictions", "count"),
    ("radio.fragments_per_round", "count"),
    ("radio.fragment_us", "us"),
    ("radio.fragment.share", "ratio"),
    ("integrity.commit_us", "us"),
    ("integrity.commit.share", "ratio"),
    ("integrity.audit_us", "us"),
    ("integrity.audit.share", "ratio"),
    ("integrity.audited_share", "ratio"),
    ("mpc.compile_ms", "ms"),
    ("mpc.plan_patches", "count"),
    ("mpc.patch_us", "us"),
    ("mpc.patch.share", "ratio"),
    ("mpc.allocs_per_round", "count"),
    ("mpc.alloc_bytes_per_round", "bytes"),
    ("mpc.step_us", "us"),
    ("mpc.unattributed_share", "ratio"),
    ("mpc.trace_overhead", "ratio"),
    ("service.steals_per_tick", "count"),
    ("service.worker_imbalance", "ratio"),
    ("service.checkpoint_capture_ms", "ms"),
    ("service.checkpoint_restore_ms", "ms"),
    ("service.checkpoint_bytes", "bytes"),
    ("metrics.snapshot_us", "us"),
    ("metrics.snapshot.share", "ratio"),
];

/// Push every [`PER_LAYER`] metric from `values` (0 where absent).
pub fn emit_layers(values: &BTreeMap<String, f64>, out: &mut Outcome) {
    for &(name, unit) in PER_LAYER {
        out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Per-round layer times, their shares of the replayed round, and the
/// work counts the replay accumulated. `step_ns` is the traced
/// `mpc.step` total and `twin_ns` the same rounds run untraced.
pub fn replay_figures(
    tr: &Tracer,
    state: &ReplayState,
    rounds: u64,
    step_ns: u64,
    twin_ns: u64,
    v: &mut BTreeMap<String, f64>,
) {
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
    let r = rounds.max(1) as f64;
    let sigma: f64 = replay::LAYER_SPANS.iter().map(|n| total(n)).sum();
    let timed: &[(&str, &[&str])] = &[
        ("ct.flood_sharing", &["ct.flood_sharing"]),
        ("ct.flood_recon", &["ct.flood_recon"]),
        ("ct.link_setup", &["ct.link_setup"]),
        // Readings plus the share-coefficient draws re-run outside the
        // splitter; the latter overlap `sss.split`.
        ("crypto.drbg", &["crypto.readings", "crypto.drbg_shares"]),
        ("field.horner", &["field.horner"]),
        ("sss.split", &["sss.split"]),
        ("sss.seal", &["sss.seal"]),
        ("sss.open", &["sss.open"]),
        ("sss.sum", &["sss.sum"]),
        ("sss.reconstruct", &["sss.reconstruct"]),
        ("radio.fragment", &["radio.fragment"]),
        ("integrity.commit", &["integrity.commit"]),
        ("integrity.audit", &["integrity.audit"]),
        ("mpc.patch", &["mpc.patch"]),
    ];
    for &(metric, spans) in timed {
        let ns: f64 = spans.iter().map(|s| total(s)).sum();
        v.insert(format!("{metric}_us"), ns / r / 1e3);
        v.insert(format!("{metric}.share"), ns / sigma.max(1.0));
    }
    let c = &state.counters;
    let f = &state.fidelity;
    let replay_cycles = (f.replay_sharing.cycles + f.replay_recon.cycles).max(1) as f64;
    v.insert(
        "ct.flood_ns_per_cycle".into(),
        (total("ct.flood_sharing") + total("ct.flood_recon")) / replay_cycles,
    );
    let (hits, builds) = state.link_cache();
    v.insert(
        "ct.link_cache_hit_ratio".into(),
        hits as f64 / (hits + builds).max(1) as f64,
    );
    v.insert(
        "crypto.aes_blocks_per_round".into(),
        c.aes_blocks() as f64 / r,
    );
    v.insert(
        "crypto.ns_per_aes_block".into(),
        (total("crypto.readings") + total("crypto.drbg_shares")) / c.drbg_blocks.max(1) as f64,
    );
    v.insert(
        "field.mults_per_round".into(),
        (c.horner_mults + c.recon_mults) as f64 / r,
    );
    v.insert("mpc.step_us".into(), step_ns as f64 / r / 1e3);
    v.insert(
        "mpc.unattributed_share".into(),
        1.0 - sigma / step_ns.max(1) as f64,
    );
    v.insert(
        "mpc.trace_overhead".into(),
        step_ns as f64 / twin_ns.max(1) as f64 - 1.0,
    );
}

/// The replay-fidelity table: replayed floods next to the reports'. A
/// replay that drifted from the executor on any round fails the run: the
/// per-layer figures would no longer describe the program.
pub fn fidelity_text(state: &ReplayState, out: &mut Outcome) {
    let c = &state.counters;
    let _ = writeln!(
        out.text,
        "replay fidelity over {} rounds ({} drifted from the executor):",
        c.rounds, c.drift_rounds
    );
    out.text.push_str(&state.fidelity.describe(c.rounds));
    out.fact("replay_rounds", c.rounds);
    out.fact("replay_drift_rounds", c.drift_rounds);
    out.fact("fidelity", state.fidelity.describe(c.rounds).trim_end());
    if c.drift_rounds > 0 {
        out.fail(format!(
            "the replay drifted from the executor on {} of {} rounds; \
             bring src/replay.rs back in line with the round executor",
            c.drift_rounds, c.rounds
        ));
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance() -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let (aes, avx2) = (
        std::arch::is_x86_feature_detected!("aes"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (aes, avx2) = (false, false);
    vec![
        ("git_revision".into(), env("PERFBENCH_GIT_REV")),
        ("git_dirty".into(), env("PERFBENCH_GIT_DIRTY")),
        (
            "field_backend".into(),
            ppda_field::packed::backend_name::<ppda_mpc::Field>().into(),
        ),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("host_aes_ni".into(), aes.to_string()),
        ("host_avx2".into(), avx2.to_string()),
        ("rustflags".into(), env("PERFBENCH_RUSTFLAGS")),
    ]
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppda-perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let result = match args.workload {
        Workload::FleetChurn => fleet::run(&args),
        w => single::run(w, &args),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ppda-perfbench: {} aborted: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };

    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "== {} seed {} ({mode}, {} s) ==",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    print!("{}", out.text);
    for m in out.metrics.iter().chain(&out.extra) {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        println!("  CHECK FAILED: {e}");
    }

    let mut facts = provenance();
    facts.push(("workload".into(), args.workload.name().into()));
    facts.push(("seed".into(), args.seed.to_string()));
    facts.push(("seconds".into(), args.seconds.to_string()));
    facts.push(("trace".into(), args.trace.to_string()));
    facts.push((
        "partial_aggregates".into(),
        out.partial_aggregates.to_string(),
    ));
    facts.extend(out.facts.iter().cloned());
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"record\": {{{}, \"metrics\": {}, \"extra\": {}}}}}",
        facts.join(", "),
        json_metrics(&out.metrics),
        json_metrics(&out.extra)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        json_metrics(&out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
