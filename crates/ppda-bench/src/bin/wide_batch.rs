//! Wide-batch sweep: aggregated values per second versus lane width B,
//! across the single-frame cap (B ≤ 23 at the default tag length) and
//! into fragmented territory (B > 23: share and sum packets span
//! multiple 802.15.4 frames).
//!
//! ```text
//! cargo run -p ppda-bench --release --bin wide_batch -- \
//!     [--testbed flocklab|dcube|both] [--sources K] [--iterations N] \
//!     [--seed S] [--batches 1,8,23,64,256] [--json PATH]
//! ```
//!
//! Each sweep point runs a fault-free S4 campaign at lane width B and
//! reports both sides of the trade the fragmenting transport makes
//! explicit: host-side throughput (rounds/s × B = values/s, measured
//! wall-clock) against the simulated on-air cost (per-round latency and
//! radio-on time, which grow with the fragment count because every chain
//! slot now carries `fragments` frames). The crossover this sweep
//! records — wide batches amortize per-round overhead faster than
//! fragmentation inflates the round — is the whole argument for lifting
//! the 23-lane ceiling.
//!
//! `--json PATH` writes the run in the `BENCH_*.json` perf-trajectory
//! format (see EXPERIMENTS.md): one record per (testbed, B) sweep point.

use std::fmt::Write as _;
use std::time::Instant;

use ppda_bench::{arg_value, run_campaign, Protocol, TestbedSetup};
use ppda_metrics::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let testbed = arg_value(&args, "--testbed").unwrap_or_else(|| "both".into());
    let sources_override: Option<usize> =
        arg_value(&args, "--sources").map(|v| v.parse().expect("--sources must be a number"));
    let iterations: u64 = arg_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations must be a number"))
        .unwrap_or(40);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed must be a number"))
        .unwrap_or(7);
    let batches: Vec<usize> = arg_value(&args, "--batches")
        .map(|v| {
            v.split(',')
                .map(|b| b.trim().parse().expect("--batches must be numbers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 8, 16, 23, 32, 64, 128, 256]);
    let json_path = arg_value(&args, "--json");
    let mut json_rows: Vec<String> = Vec::new();

    let setups: Vec<TestbedSetup> = match testbed.as_str() {
        "both" => vec![TestbedSetup::flocklab(), TestbedSetup::dcube()],
        name => vec![TestbedSetup::by_name(name)
            .unwrap_or_else(|| panic!("unknown testbed {name} (flocklab|dcube)"))],
    };
    let backend = ppda_field::packed::backend_name::<ppda_mpc::Field>();
    let aes_backend = ppda_crypto::aes_backend_name();

    let mut table = Table::new(vec![
        "testbed",
        "B",
        "frags (share/sum)",
        "rounds/s",
        "values/s",
        "latency ms",
        "radio-on ms",
        "success",
    ]);
    for setup in &setups {
        let topology = setup.topology();
        let sources = sources_override.unwrap_or(6);
        for &batch in &batches {
            let config = setup
                .config_wide(sources, batch)
                .unwrap_or_else(|e| panic!("B={batch} on {}: {e}", setup.name));
            let share_frags = config.share_fragments();
            let sum_frags = config.sum_fragments();
            let start = Instant::now();
            let result = run_campaign(Protocol::S4, &topology, &config, iterations, seed)
                .unwrap_or_else(|e| panic!("campaign B={batch} on {}: {e}", setup.name));
            let elapsed = start.elapsed().as_secs_f64();
            let rounds_per_sec = result.rounds as f64 / elapsed;
            let values_per_sec = rounds_per_sec * batch as f64;
            let latency_ms = result.latency_ms.mean();
            let radio_on_ms = result.radio_on_ms.mean();
            table.row(vec![
                setup.name.to_string(),
                batch.to_string(),
                format!("{share_frags}/{sum_frags}"),
                format!("{rounds_per_sec:.1}"),
                format!("{values_per_sec:.0}"),
                format!("{latency_ms:.1}"),
                format!("{radio_on_ms:.2}"),
                format!("{:.3}", result.node_success),
            ]);
            if json_path.is_some() {
                let mut row = String::new();
                write!(
                    row,
                    concat!(
                        "    {{\"testbed\": \"{}\", \"sources\": {}, \"batch\": {}, ",
                        "\"share_fragments\": {}, \"sum_fragments\": {}, ",
                        "\"rounds_per_sec\": {:.2}, \"values_per_sec\": {:.2}, ",
                        "\"latency_ms\": {:.3}, \"radio_on_ms\": {:.4}, ",
                        "\"node_success\": {:.4}}}"
                    ),
                    setup.name,
                    sources,
                    batch,
                    share_frags,
                    sum_frags,
                    rounds_per_sec,
                    values_per_sec,
                    latency_ms,
                    radio_on_ms,
                    result.node_success,
                )
                .expect("writing to a String cannot fail");
                json_rows.push(row);
            }
        }
    }
    println!(
        "\n=== wide batch — values/sec and on-air cost vs lane width (field {backend}, aes {aes_backend}) ==="
    );
    print!("{table}");

    if let Some(path) = json_path {
        let doc = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"wide_batch\",\n",
                "  \"backend\": \"{}\",\n",
                "  \"aes_backend\": \"{}\",\n",
                "  \"iterations\": {},\n",
                "  \"rows\": [\n{}\n  ]\n",
                "}}\n"
            ),
            backend,
            aes_backend,
            iterations,
            json_rows.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}
