//! The `cluster` workload: a coordinator (`Coordinator::start`) over two
//! shard daemons.
//!
//! A 5 000-camera paper-profile fleet is loaded into both shards. Reads
//! are `map`, `holes` and `kfull` at θ ∈ {11.25°, 22.5°} over a seeded
//! permutation of distinct sizes, so nearly every request misses every
//! cache. The sizes (14 to 21) make computing an answer outweigh its
//! round trips, whose wall and CPU time a busy host inflates by a factor
//! that changes from run to run. At these narrow angles the mask screen
//! and the prover decide few points: the coordinator's scatter, the
//! shard round trips, the merge and the exact fallback do most of the
//! work. After the reads, a run of `move`s goes through the
//! coordinator's ordered broadcast.
//!
//! The load is [`load::drive`]: a closed-loop probe, a nominal phase at
//! half the probe's rate, and closed-loop capacity batches.
//!
//! End-to-end metrics on this workload:
//! * `max_ok_rps` — the rate at which `ok` answers would keep every CPU
//!   busy, from the process CPU time of closed-loop batches over one
//!   connection per CPU whose replies are all `ok` with p99 within
//!   `P99_LIMIT_MS` (see [`load::Drive::report`]);
//! * `points_per_s` — the same for the grid points of those answers;
//! * `setup_s` — deploy, start both shards and the coordinator, answer a
//!   first read; median of nine, in reference seconds (see
//!   [`crate::calib`]);
//! * `peak_rss_mb` — the process's peak resident set up to the end of the
//!   nominal phase.
//!
//! Traced-run metrics: `cpu_us_per_op`, process CPU time (coordinator,
//! shards and load generator) per read over the nominal phase and the
//! batches; `p50_ms` / `p99_ms` of every read at the nominal rate, timed
//! from its scheduled send; and `write_p99_ms` of the broadcast `move`s,
//! sent one after another.
//!
//! Every reply is compared byte for byte with an in-process [`Mirror`].

use crate::calib::RefClock;
use crate::gen::{self, Class, Req};
use crate::load::{self, record, Plan, Sample, Scrape};
use crate::oracle::{self, check_traffic, Mirror};
use crate::stats::{median, ms, quantile, windowed};
use crate::{Args, Outcome};
use fullview_cluster::{chunk_ranges, ClusterConfig, Coordinator};
use fullview_core::{coverage_map_from_glyphs, dense_grid, holes_from_mask};
use fullview_model::CameraNetwork;
use fullview_service::{Request, Server, ServiceConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const N: usize = 5_000;
pub const SHARDS: usize = 2;
/// The p99 latency a capacity batch must meet to count: about ten times
/// the p99 at the nominal rate (about 50 ms at these angles and sizes on
/// two CPUs).
pub const P99_LIMIT_MS: f64 = 500.0;
/// Nominal-phase reads per second of the run: about a fifth of the run
/// at the nominal rate this cluster sees on two CPUs (about 15/s).
const NOMINAL_PER_RUN_S: f64 = 3.0;
const WRITES: usize = 200;
const SETUPS: usize = 9;
const THETA_DEG: f64 = 45.0;

struct Cluster {
    coordinator: Coordinator,
    shards: Vec<Server>,
    addr: SocketAddr,
    shard_addrs: Vec<SocketAddr>,
}

fn start(net: &CameraNetwork) -> Cluster {
    let shards: Vec<Server> = (0..SHARDS)
        .map(|_| {
            let mut config = ServiceConfig::new(gen::paper_profile(N));
            config.n = net.len();
            config.theta = gen::theta(THETA_DEG);
            config.preloaded = Some(net.clone());
            Server::start(config).expect("shard starts")
        })
        .collect();
    let shard_addrs: Vec<SocketAddr> = shards.iter().map(Server::local_addr).collect();
    let coordinator = Coordinator::start(ClusterConfig::new(
        shard_addrs.iter().map(ToString::to_string).collect(),
    ))
    .expect("coordinator starts");
    let addr = coordinator.local_addr();
    while load::ask(addr, "ping").is_err() {
        std::thread::sleep(Duration::from_millis(1));
    }
    Cluster {
        coordinator,
        shards,
        addr,
        shard_addrs,
    }
}

impl Cluster {
    fn stop(self) {
        drop(self.coordinator);
        drop(self.shards);
    }
}

/// The ranged shard requests the coordinator scatters for a read line,
/// with θ nudged by `nudge` degrees so the shards' caches miss.
fn chunk_lines(line: &str, nudge: f64) -> Option<(String, Vec<String>)> {
    let req = Request::parse(line).ok()?;
    let theta: f64 = req.get("theta-deg", THETA_DEG).ok()?;
    let theta = theta + nudge;
    let (verb, key, size) = match req.verb() {
        "map" => ("cells", "side", req.get("side", 48usize).ok()?),
        "holes" => ("mask", "grid", req.get("grid", 24usize).ok()?),
        _ => ("kcount", "grid", req.get("grid", 24usize).ok()?),
    };
    let k = if verb == "kcount" {
        format!(" k={}", req.get("k", 2usize).ok()?)
    } else {
        String::new()
    };
    let whole = format!("{}{k} {key}={size} theta-deg={theta}", req.verb());
    let chunks = chunk_ranges(size * size, 2 * SHARDS)
        .into_iter()
        .map(|(lo, hi)| format!("{verb}{k} {key}={size} lo={lo} hi={hi} theta-deg={theta}"))
        .collect();
    Some((whole, chunks))
}

pub fn run(args: &Args) -> Outcome {
    execute(args.seed, args.seconds, args.trace)
}

pub fn execute(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut traffic: Vec<(Sample, String)> = Vec::new();
    // Set-up ends with the first answered read, scattered over both
    // shards (a size outside the stream's range, so it never repeats).
    let first = [Req {
        line: "holes grid=12 theta-deg=11.25".to_string(),
        class: Class::Miss,
    }];
    let mut setups = Vec::new();
    let mut clock = RefClock::new();
    let mut running: Option<(Cluster, CameraNetwork)> = None;
    for _ in 0..SETUPS {
        if let Some((c, _)) = running.take() {
            c.stop();
        }
        let ((cluster, net, answer), k) = clock.time(|| {
            let net = gen::fleet(N, seed);
            let cluster = start(&net);
            let answer = load::closed_loop(cluster.addr, &first, epoch);
            (cluster, net, answer)
        });
        setups.push(k);
        record(&mut traffic, &first, answer);
        running = Some((cluster, net));
    }
    let (cluster, net) = running.expect("at least one setup");
    let dense_points = dense_grid(*net.torus(), net.len()).len();
    let mirror = Mirror::new(net, gen::paper_profile(N), gen::theta(THETA_DEG));
    let addr = cluster.addr;
    let before = Scrape::take(addr);
    let mut stream = gen::cluster_stream(seed);
    let points_of = |line: &str| oracle::points_of(line, dense_points);
    let plan = Plan {
        nominal_per_run_s: NOMINAL_PER_RUN_S,
        limit_ms: P99_LIMIT_MS,
        points_of: &points_of,
    };
    let drive = load::drive(addr, &mut stream, &plan, seconds, epoch);
    drive.report("cluster", &plan, &mut out);
    let setups: Vec<f64> = setups.iter().map(|&k| clock.ref_s(k)).collect();
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", drive.nominal_rss_kb / 1024.0);
    traffic.extend(drive.traffic());

    // Writes through the ordered broadcast, then one read per kind on the
    // moved fleet.
    let writes: Vec<Req> = gen::serve_stream(seed, N)
        .filter(|r| r.class == Class::Write)
        .take(WRITES)
        .collect();
    let write_samples = load::closed_loop(addr, &writes, epoch);
    let write_ms: Vec<f64> = write_samples.iter().map(Sample::latency_ms).collect();
    record(&mut traffic, &writes, write_samples);
    let after_moves: Vec<Req> = ["map side=20", "holes grid=20", "kfull k=2 grid=20"]
        .iter()
        .map(|l| Req {
            line: format!("{l} theta-deg=22.5"),
            class: Class::Miss,
        })
        .collect();
    let reads = load::closed_loop(addr, &after_moves, epoch);
    record(&mut traffic, &after_moves, reads);

    let nominal = &drive.nominal;
    let all = nominal.lat(None);
    out.set("p50_ms", windowed(&all, 0.5));
    out.set("p99_ms", windowed(&all, 0.99));
    out.set("write_p99_ms", quantile(&write_ms, 0.99));
    println!(
        "cluster: probe {:.1} rps; nominal {:.1} rps, {} reads, p50 {:.3} ms, p99 {:.3} ms",
        drive.probe_rps,
        nominal.rate,
        all.len(),
        median(&all),
        quantile(&all, 0.99)
    );

    if traced {
        layer_probes(
            &cluster,
            &mirror,
            &mut out,
            &mut traffic,
            epoch,
            &mut stream,
        );
        let after = Scrape::take(addr);
        out.set("metrics.server_p99_ms", after.p99_ms);
        let sent = traffic[SETUPS..].iter().map(|(_, l)| l.as_str());
        load::count_gaps(sent, &before, &after, &mut out);
        let late: Vec<f64> = nominal.samples.iter().map(Sample::late_ms).collect();
        out.set("gen.late_p99_ms", quantile(&late, 0.99));
        println!(
            "cluster: server-side p99 {:.3} ms vs client p99 {:.3} ms",
            after.p99_ms,
            quantile(&all, 0.99)
        );
    }
    let balance_text = load::ask(addr, "stats").unwrap_or_default();
    cluster.stop();
    if traced {
        // Reads each shard served, from the coordinator's `reads:` line.
        let served: Vec<f64> = balance_text
            .lines()
            .find_map(|l| l.strip_prefix("reads: "))
            .map(|rest| {
                rest.split_whitespace()
                    .filter(|t| t.starts_with("shard"))
                    .filter_map(|t| t.split_once('=')?.1.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let max = served.iter().copied().fold(0.0, f64::max);
        let min = served.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("cluster.balance", if max > 0.0 { min / max } else { 0.0 });
    }

    check_traffic("cluster", &mirror, &traffic, &mut out);
    out
}

/// Closed-loop probes of the cluster layer on fresh keys: the
/// coordinator round trip of a read, the direct round trips of the chunks
/// it scatters (to a twin key, so both miss), and the in-process merge.
fn layer_probes(
    cluster: &Cluster,
    mirror: &Mirror,
    out: &mut Outcome,
    traffic: &mut Vec<(Sample, String)>,
    epoch: Instant,
    stream: &mut impl Iterator<Item = Req>,
) {
    let mut twin = mirror.clone();
    let ping: Vec<Req> = vec![
        Req {
            line: "ping".to_string(),
            class: Class::Hot,
        };
        100
    ];
    let ping = load::closed_loop(cluster.addr, &ping, epoch);
    let rtt_of = |s: &Sample| (s.recv_ns - s.sent_ns) as f64 / 1e6;
    let floor = median(&ping.iter().map(rtt_of).collect::<Vec<_>>());
    let (mut shard_rtt, mut slowest_rtt, mut merge, mut overhead, mut wait, mut coord) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for (i, req) in stream.take(24).enumerate() {
        let nudge = 1e-6 * (i + 1) as f64;
        let Some((whole, _)) = chunk_lines(&req.line, nudge) else {
            continue;
        };
        let (_, chunks) = chunk_lines(&req.line, nudge + 5e-7).expect("same shape");
        let probe = Req {
            line: whole.clone(),
            class: Class::Miss,
        };
        let s = load::closed_loop(cluster.addr, std::slice::from_ref(&probe), epoch);
        let rtt = rtt_of(&s[0]);
        traffic.push((s[0].clone(), whole.clone()));
        let mut slowest = 0.0f64;
        let mut parts = Vec::new();
        let mut compute = [0.0; SHARDS];
        for (j, line) in chunks.iter().enumerate() {
            let r = Req {
                line: line.clone(),
                class: Class::Miss,
            };
            let addr = cluster.shard_addrs[j % SHARDS];
            let s = load::closed_loop(addr, std::slice::from_ref(&r), epoch);
            let t = rtt_of(&s[0]);
            shard_rtt.push(t);
            slowest = slowest.max(t);
            parts.push(s[0].ok().unwrap_or_default().to_string());
            traffic.push((s[0].clone(), line.clone()));
            let c = Instant::now();
            let _ = std::hint::black_box(twin.answer(line));
            compute[j % SHARDS] += ms(c.elapsed());
        }
        let t = Instant::now();
        let text = parts.concat();
        match whole.split_whitespace().next().unwrap_or_default() {
            "map" => {
                let side = (text.chars().count() as f64).sqrt().round() as usize;
                std::hint::black_box(coverage_map_from_glyphs(side, &text));
            }
            "holes" => {
                let mask: Vec<bool> = text.chars().map(|c| c == '1').collect();
                let side = (mask.len() as f64).sqrt().round() as usize;
                std::hint::black_box(holes_from_mask(*mirror.net.torus(), side, &mask));
            }
            _ => {
                let total: usize = parts
                    .iter()
                    .filter_map(|p| p.trim().parse::<usize>().ok())
                    .sum();
                std::hint::black_box(total);
            }
        }
        merge.push(ms(t.elapsed()));
        overhead.push(rtt - slowest);
        slowest_rtt.push(slowest);
        wait.push(rtt - compute.iter().copied().fold(0.0, f64::max) - floor);
        coord.push(rtt);
    }
    out.set("shard.rtt_ms", median(&shard_rtt));
    out.set("merge.ms", median(&merge));
    out.set("cluster.scatter_overhead_ms", median(&overhead));
    out.set("queue.wait_ms", median(&wait));
    // The blocking path of a cluster read: the slowest chunk's round trip
    // plus the merge; the rest of the coordinator's round trip is
    // unattributed.
    let attributed = median(&slowest_rtt) + median(&merge);
    out.set("unattributed_frac", 1.0 - attributed / median(&coord));
}
