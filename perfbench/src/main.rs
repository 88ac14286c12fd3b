//! The fullview benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve|cluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Three seeded workloads drive the system from outside, through the
//! default entry points the CLI and the daemon use:
//!
//! * `sweep` — the library in-process on a dense 20 000-camera fleet;
//! * `serve` — one daemon over TCP with a read/write mix;
//! * `cluster` — a coordinator over two shard daemons, all misses.
//!
//! `BENCHMARK.json` lists `sweep` and `cluster`. `serve` runs by hand and
//! feeds the service-layer metrics of their traced runs, but its
//! capacity is not steady enough on a shared host to gate on (see
//! `serve`).
//!
//! Every answer is checked (see `oracle`). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run. Human-readable detail
//! (failed fraction with its attempted count, tier probe table, thread
//! scaling rows, `stats` scrapes) goes to the lines before it. The run
//! writes scratch files only under `.bench_tmp/` in the working
//! directory and removes them before exiting.

mod calib;
mod cluster;
mod gen;
mod layers;
mod load;
mod oracle;
mod serve;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; see each workload module for its definitions.
/// Wall times are in reference seconds (see `calib`). Request latencies and
/// CPU time per operation are not among them: on a shared two-CPU
/// machine their run-to-run spread exceeded every admissible bound, so
/// they are reported by the traced run instead (first entries of
/// `PER_LAYER`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
    ("max_ok_rps", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu_us_per_op", "us"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("deploy.ms", "ms"),
    ("index.build_ms", "ms"),
    ("engine.tiling_ms", "ms"),
    ("engine.check_ms", "ms"),
    ("engine.map_ms", "ms"),
    ("engine.holes_ms", "ms"),
    ("engine.kfull_ms", "ms"),
    ("engine.barrier_ms", "ms"),
    ("render.ms", "ms"),
    ("mask.screen_rate", "frac"),
    ("mask.ns_per_pt", "ns"),
    ("exact.ns_per_pt", "ns"),
    ("hier.ns_per_pt", "ns"),
    ("hier.proved_frac", "frac"),
    ("hier.nodes", "count"),
    ("sim.scaling_eff", "frac"),
    ("incremental.resweep_ms", "ms"),
    ("incremental.tiles", "count"),
    ("protocol.parse_ns", "ns"),
    ("admission.ns", "ns"),
    ("cache.hit_frac", "frac"),
    ("cache.stale_frac", "frac"),
    ("cache.lookup_ns", "ns"),
    ("queue.wait_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("rtt.hit_ms", "ms"),
    ("rtt.miss_ms", "ms"),
    ("rtt.write_ms", "ms"),
    ("conn.connect_ms", "ms"),
    ("conn.vm_kb_per_conn", "kB"),
    ("conn.threads", "count"),
    ("shard.rtt_ms", "ms"),
    ("merge.ms", "ms"),
    ("cluster.scatter_overhead_ms", "ms"),
    ("cluster.balance", "frac"),
    ("metrics.server_p99_ms", "ms"),
    ("metrics.count_gap.check", "count"),
    ("metrics.count_gap.map", "count"),
    ("metrics.count_gap.holes", "count"),
    ("metrics.count_gap.kfull", "count"),
    ("metrics.count_gap.prob", "count"),
    ("metrics.count_gap.barrier", "count"),
    ("metrics.count_gap.move", "count"),
    ("gen.late_p99_ms", "ms"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("probe.t11_25.exact_ns_per_pt", "ns"),
    ("probe.t11_25.mask_ns_per_pt", "ns"),
    ("probe.t11_25.hier_ns_per_pt", "ns"),
    ("probe.t11_25.screen_rate", "frac"),
    ("probe.t11_25.proved_frac", "frac"),
    ("probe.t22_5.exact_ns_per_pt", "ns"),
    ("probe.t22_5.mask_ns_per_pt", "ns"),
    ("probe.t22_5.hier_ns_per_pt", "ns"),
    ("probe.t22_5.screen_rate", "frac"),
    ("probe.t22_5.proved_frac", "frac"),
    ("probe.t45.exact_ns_per_pt", "ns"),
    ("probe.t45.mask_ns_per_pt", "ns"),
    ("probe.t45.hier_ns_per_pt", "ns"),
    ("probe.t45.screen_rate", "frac"),
    ("probe.t45.proved_frac", "frac"),
    ("probe.t90.exact_ns_per_pt", "ns"),
    ("probe.t90.mask_ns_per_pt", "ns"),
    ("probe.t90.hier_ns_per_pt", "ns"),
    ("probe.t90.screen_rate", "frac"),
    ("probe.t90.proved_frac", "frac"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run (journals, snapshots).
    pub scratch: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, library calls made).
    pub attempted: u64,
    /// Operations that failed: wrong answers, `err` frames (including
    /// busy and deadline), transport errors.
    pub failed: u64,
    /// The subset of `failed` that were wrong answers.
    pub wrong: u64,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Folds another run's counts in (values are kept from `self`).
    pub fn absorb_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if !["sweep", "serve", "cluster"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (sweep, serve, cluster)"
        ));
    }
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    })
}

fn json_line(outcome: &Outcome, registry: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values[*name];
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.scratch).expect("create scratch directory");
    let mut outcome = match args.workload.as_str() {
        "sweep" => sweep::run(&args),
        "serve" => serve::run(&args),
        _ => cluster::run(&args),
    };
    if args.trace {
        layers::complete(&args, &mut outcome);
    }
    let _ = std::fs::remove_dir_all(&args.scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in registry {
        let value = outcome.values.get(*name).copied().unwrap_or(f64::NAN);
        assert!(
            value.is_finite(),
            "metric {name} was not measured ({value})"
        );
    }
    println!(
        "failed_frac={} ({} failed of {} attempted, {} wrong answers)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
        outcome.wrong
    );
    println!("{}", json_line(&outcome, registry));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let names = |reg: &[(&str, &str)]| -> Vec<String> {
            reg.iter().map(|(n, _)| (*n).to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        assert_eq!(section("workloads"), ["sweep", "cluster"]);
    }

    #[test]
    fn json_line_carries_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = json_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
