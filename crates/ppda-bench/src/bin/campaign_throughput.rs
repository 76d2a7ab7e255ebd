//! Wall-clock campaign throughput: how many aggregation rounds (and how
//! many aggregated values) the simulator executes per second of host time.
//!
//! ```text
//! cargo run -p ppda-bench --release --bin campaign_throughput -- \
//!     [--testbed flocklab|dcube|both] [--protocol s3|s4|both] \
//!     [--iterations N] [--batch B] [--seed S] [--sources K] \
//!     [--loss p] [--dropout q] [--fault-seed F] [--json PATH]
//! ```
//!
//! Unlike `fig1` (which reports *simulated* latency), this harness times
//! the campaign itself — the metric the batching work optimizes. `--batch`
//! selects the lane width B: every source contributes B readings per round
//! and the campaign aggregates B values per round at one round's transport
//! cost. B = 1 is the paper's scalar protocol.
//!
//! `--loss p` and `--dropout q` sweep degraded operating points: every
//! link PRR is scaled by `1 - p` and every node independently misses a
//! round with probability `q` (seeded by `--fault-seed`, default 0xFA17).
//! The table then also reports the campaign's recovery rate — the
//! fraction of rounds whose surviving sum shares still reached the
//! reconstruction threshold.
//!
//! `--json PATH` additionally writes the run as one machine-readable JSON
//! document (the `BENCH_*.json` perf-trajectory format documented in
//! EXPERIMENTS.md): run parameters, the packed-field backend the binary
//! was built with, and one record per sweep point with `rounds_per_sec`,
//! `values_per_sec`, `node_success` and `recovery_rate`.

use std::fmt::Write as _;
use std::time::Instant;

use ppda_bench::{arg_value, run_campaign_faulty, Protocol, TestbedSetup};
use ppda_metrics::Table;
use ppda_mpc::FaultPlan;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let testbed = arg_value(&args, "--testbed").unwrap_or_else(|| "both".into());
    let protocol = arg_value(&args, "--protocol").unwrap_or_else(|| "s4".into());
    let iterations: u64 = arg_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations must be a number"))
        .unwrap_or(200);
    let batch: usize = arg_value(&args, "--batch")
        .map(|v| v.parse().expect("--batch must be a number"))
        .unwrap_or(1);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed must be a number"))
        .unwrap_or(0xBA7C);
    let sources_override: Option<usize> =
        arg_value(&args, "--sources").map(|v| v.parse().expect("--sources must be a number"));
    let loss: f64 = arg_value(&args, "--loss")
        .map(|v| v.parse().expect("--loss must be a probability"))
        .unwrap_or(0.0);
    let dropout: f64 = arg_value(&args, "--dropout")
        .map(|v| v.parse().expect("--dropout must be a probability"))
        .unwrap_or(0.0);
    let fault_seed: u64 = arg_value(&args, "--fault-seed")
        .map(|v| v.parse().expect("--fault-seed must be a number"))
        .unwrap_or(0xFA17);
    let json_path = arg_value(&args, "--json");
    let faults = FaultPlan::lossy(fault_seed, loss).with_dropout(dropout);
    let backend = ppda_field::packed::backend_name::<ppda_mpc::Field>();
    let aes_backend = ppda_crypto::aes_backend_name();
    let mut json_rows: Vec<String> = Vec::new();

    let setups: Vec<TestbedSetup> = match testbed.as_str() {
        "both" => vec![TestbedSetup::flocklab(), TestbedSetup::dcube()],
        name => vec![TestbedSetup::by_name(name)
            .unwrap_or_else(|| panic!("unknown testbed {name} (flocklab|dcube)"))],
    };
    let protocols: Vec<Protocol> = match protocol.as_str() {
        "s3" => vec![Protocol::S3],
        "s4" => vec![Protocol::S4],
        "both" => vec![Protocol::S4, Protocol::S3],
        other => panic!("unknown protocol {other} (s3|s4|both)"),
    };

    for setup in setups {
        let topology = setup.topology();
        let sweep: Vec<usize> = match sources_override {
            Some(s) => vec![s],
            None => setup.source_sweep.clone(),
        };
        println!(
            "\n=== {} — campaign throughput ({} iterations, batch {}, loss {:.2}, dropout {:.2}, backend {}, aes {}) ===",
            setup.name, iterations, batch, loss, dropout, backend, aes_backend
        );
        let mut table = Table::new(vec![
            "protocol",
            "sources",
            "batch",
            "rounds/s",
            "µs/round",
            "values/s",
            "node ok",
            "recovery",
        ]);
        for &sources in &sweep {
            for &proto in &protocols {
                let config = setup
                    .config_batched(sources, batch)
                    .expect("sweep point is valid");
                let start = Instant::now();
                let result =
                    run_campaign_faulty(proto, &topology, &config, iterations, seed, &faults)
                        .expect("campaign runs");
                let elapsed = start.elapsed().as_secs_f64();
                let rounds_per_sec = result.rounds as f64 / elapsed;
                table.row(vec![
                    proto.name().to_string(),
                    sources.to_string(),
                    batch.to_string(),
                    format!("{rounds_per_sec:.0}"),
                    format!("{:.1}", 1e6 * elapsed / result.rounds as f64),
                    format!("{:.0}", rounds_per_sec * result.lanes as f64),
                    format!("{:.2}", result.node_success),
                    format!("{:.2}", result.recovery_rate),
                ]);
                if json_path.is_some() {
                    let mut row = String::new();
                    write!(
                        row,
                        concat!(
                            "    {{\"testbed\": \"{}\", \"protocol\": \"{}\", ",
                            "\"sources\": {}, \"batch\": {}, ",
                            "\"rounds_per_sec\": {:.1}, \"us_per_round\": {:.1}, ",
                            "\"values_per_sec\": {:.1}, \"node_success\": {:.4}, ",
                            "\"recovery_rate\": {:.4}}}"
                        ),
                        setup.name,
                        proto.name(),
                        sources,
                        batch,
                        rounds_per_sec,
                        1e6 * elapsed / result.rounds as f64,
                        rounds_per_sec * result.lanes as f64,
                        result.node_success,
                        result.recovery_rate,
                    )
                    .expect("writing to a String cannot fail");
                    json_rows.push(row);
                }
            }
        }
        print!("{table}");
    }

    if let Some(path) = json_path {
        let doc = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"campaign_throughput\",\n",
                "  \"backend\": \"{}\",\n",
                "  \"aes_backend\": \"{}\",\n",
                "  \"batch\": {},\n",
                "  \"iterations\": {},\n",
                "  \"seed\": {},\n",
                "  \"fault_seed\": {},\n",
                "  \"loss\": {:.4},\n",
                "  \"dropout\": {:.4},\n",
                "  \"rows\": [\n{}\n  ]\n",
                "}}\n"
            ),
            backend,
            aes_backend,
            batch,
            iterations,
            seed,
            fault_seed,
            loss,
            dropout,
            json_rows.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}
