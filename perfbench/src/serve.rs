//! The `serve` workload: one daemon (`Server::start`) over TCP.
//!
//! A 2 000-camera paper-profile fleet behind a daemon with the journal
//! (WAL) on and admission control on at a per-client rate above any rate
//! the load offers. Load comes from one persistent connection per CPU
//! plus short-lived one-shot connections: mostly repeated reads of a
//! small hot set (cache hits), a few reads with fresh parameters
//! (misses), `move` writes that mark cached answers stale and force
//! incremental repair, and one-shot reads like `fvc query`. The
//! front-end, protocol, admission, queue, cache and journal do most of
//! the work here while the engine does little. The load is
//! [`load::drive`]: a closed-loop probe, a nominal phase at half the
//! probe's rate, and closed-loop capacity batches.
//!
//! `BENCHMARK.json` does not list this workload: on a shared two-CPU
//! host its capacity moved too much between runs of the same code to
//! gate on. Over five seeds the middle half of `max_ok_rps` spread over
//! 15-35% of the median, whether timed in wall seconds, in reference
//! seconds or in CPU time, over one connection or one per CPU: a hit
//! costs 0.04 ms, so a run's time is wake-ups, the repairs reads pay after
//! each `move`, and how the connections interleave, all of which the host
//! shifts. The traced runs of the listed workloads run it for four
//! seconds to measure the service layers.
//!
//! End-to-end metrics on this workload:
//! * `max_ok_rps` — the rate at which `ok` answers would keep every CPU
//!   busy, from the process CPU time of closed-loop batches over one
//!   connection per CPU whose replies are all `ok` with p99 within
//!   `P99_LIMIT_MS` (see [`load::Drive::report`]);
//! * `points_per_s` — the same for the grid points of those answers;
//! * `setup_s` — deploy, start the daemon (journal snapshot written) and
//!   answer the hot set once, filling the cache; median of nine, in
//!   reference seconds (see [`crate::calib`]);
//! * `peak_rss_mb` — the process's peak resident set up to the end of the
//!   nominal phase (daemon and load).
//!
//! Traced-run metrics: `cpu_us_per_op`, process CPU time (daemon and load
//! generator) per request over the nominal phase and the batches; and
//! latencies timed from the scheduled send at the nominal rate: `p50_ms`
//! / `p99_ms` of every request (median over windows of at least a
//! thousand requests) and `write_p99_ms` of the `move`s.
//!
//! Every reply is compared byte for byte with a [`Mirror`] fleet that
//! applies the same `move`s; a read may match any fleet version current
//! between its send and its reply.

use crate::calib::RefClock;
use crate::gen::{self, Class, Req};
use crate::load::{self, record, Plan, Sample, Scrape};
use crate::oracle::{self, check_traffic, Mirror};
use crate::stats::{median, ms, proc_status, quantile, windowed};
use crate::{Args, Outcome};
use fullview_core::dense_grid;
use fullview_model::CameraNetwork;
use fullview_service::{Server, ServiceConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

pub const N: usize = 2_000;
/// The p99 latency a capacity batch must meet to count: about ten times
/// the p99 at the nominal rate (10-20 ms on two CPUs; hot reads take
/// about 0.3 ms, a miss or a repair after a `move` 1-10 ms).
pub const P99_LIMIT_MS: f64 = 100.0;
/// Nominal-phase requests per second of the run: about a fifth of the
/// run at the nominal rate this fleet sees on two CPUs (about 1 000/s).
const NOMINAL_PER_RUN_S: f64 = 200.0;
/// Admission rate and burst per client: on, and above any rate one
/// client can reach on this fleet.
const ADMIT_RPS: f64 = 100_000.0;
/// Job queue slots: enough for every one-shot connection open during a
/// burst of the nominal phase, so overload shows as latency, not as
/// `busy`.
const QUEUE: usize = 4096;
const SETUPS: usize = 9;
const THETA_DEG: f64 = 45.0;

fn start_daemon(net: &CameraNetwork, wal: &Path) -> std::io::Result<Server> {
    let mut config = ServiceConfig::new(gen::paper_profile(N));
    config.n = net.len();
    config.theta = gen::theta(THETA_DEG);
    config.preloaded = Some(net.clone());
    config.wal = Some(wal.to_path_buf());
    config.admit_rate = ADMIT_RPS;
    config.admit_burst = ADMIT_RPS;
    config.queue_capacity = QUEUE;
    Server::start(config)
}

/// Starts a daemon and waits until it answers `ping`.
fn ready_daemon(net: &CameraNetwork, wal: &Path) -> (Server, SocketAddr) {
    let server = start_daemon(net, wal).expect("daemon starts");
    let addr = server.local_addr();
    while load::ask(addr, "ping").is_err() {
        std::thread::sleep(Duration::from_millis(1));
    }
    (server, addr)
}

pub fn run(args: &Args) -> Outcome {
    execute(args.seed, args.seconds, args.trace, &args.scratch)
}

/// Runs the workload for `seconds`. With `traced`, closed-loop probes
/// follow the load and the service-layer metrics are filled in.
pub fn execute(seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut traffic: Vec<(Sample, String)> = Vec::new();
    let hot: Vec<Req> = gen::SERVE_HOT
        .iter()
        .map(|l| Req {
            line: (*l).to_string(),
            class: Class::Hot,
        })
        .collect();
    // Set-up ends when the daemon serves its hot set from the cache: the
    // first pass over it computes every answer.
    let mut clock = RefClock::new();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        drop(daemon.take());
        let ((server, addr, net, warm), k) = clock.time(|| {
            let net = gen::fleet(N, seed);
            let (server, addr) = ready_daemon(&net, &scratch.join(format!("serve-{i}.snap")));
            let warm = load::closed_loop(addr, &hot, epoch);
            (server, addr, net, warm)
        });
        setups.push(k);
        record(&mut traffic, &hot, warm);
        daemon = Some((server, addr, net));
    }
    let (server, addr, net) = daemon.expect("at least one setup");
    let dense_points = dense_grid(*net.torus(), net.len()).len();
    let mirror = Mirror::new(net, gen::paper_profile(N), gen::theta(THETA_DEG));
    let warm_count = hot.len() * SETUPS;
    let before = Scrape::take(addr);
    let (vm_before, _, threads_before) = proc_status();

    let mut stream = gen::serve_stream(seed, N);
    let points_of = |line: &str| oracle::points_of(line, dense_points);
    let plan = Plan {
        nominal_per_run_s: NOMINAL_PER_RUN_S,
        limit_ms: P99_LIMIT_MS,
        points_of: &points_of,
    };
    let drive = load::drive(addr, &mut stream, &plan, seconds, epoch);
    drive.report("serve", &plan, &mut out);
    let setups: Vec<f64> = setups.iter().map(|&k| clock.ref_s(k)).collect();
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", drive.nominal_rss_kb / 1024.0);
    traffic.extend(drive.traffic());
    let connects: Vec<f64> = std::iter::once(&drive.nominal)
        .chain(&drive.batches)
        .flat_map(|p| &p.samples)
        .filter_map(|s| s.connect_ns.map(|c| c as f64 / 1e6))
        .collect();
    let oneshots = std::iter::once(&drive.nominal)
        .chain(&drive.batches)
        .flat_map(|p| &p.samples)
        .filter(|s| s.class == Class::OneShot)
        .count();
    let (vm_after, _, threads_after) = proc_status();

    // Closed-loop probes on a quiet daemon: the RTT floor (`ping`), hits,
    // fresh misses and writes, one kind at a time.
    let mut probes: HashMap<&str, Vec<Sample>> = HashMap::new();
    let mut probe_lines: Vec<Req> = Vec::new();
    // The whole hot set once more, `check` included, on the moved fleet.
    let after_load = load::closed_loop(addr, &hot, epoch);
    record(&mut traffic, &hot, after_load);
    if traced {
        let ping: Vec<Req> = (0..200)
            .map(|_| Req {
                line: "ping".to_string(),
                class: Class::Hot,
            })
            .collect();
        let hits: Vec<Req> = hot.iter().cycle().take(hot.len() * 41).cloned().collect();
        let misses: Vec<Req> = stream
            .by_ref()
            .filter(|r| r.class == Class::Miss)
            .take(60)
            .collect();
        let writes: Vec<Req> = gen::serve_stream(seed ^ 1, N)
            .filter(|r| r.class == Class::Write)
            .take(60)
            .collect();
        for (name, reqs) in [
            ("ping", ping),
            ("hit", hits),
            ("miss", misses),
            ("write", writes),
        ] {
            let samples = load::closed_loop(addr, &reqs, epoch);
            probes.insert(name, samples.clone());
            if name == "miss" {
                probe_lines.clone_from(&reqs);
            }
            record(&mut traffic, &reqs, samples);
        }
    }
    let after = Scrape::take(addr);
    drop(server);

    check_traffic("serve", &mirror, &traffic, &mut out);

    let nominal = &drive.nominal;
    let all = nominal.lat(None);
    let writes = nominal.lat(Some(Class::Write));
    let late: Vec<f64> = nominal.samples.iter().map(Sample::late_ms).collect();
    out.set("p50_ms", windowed(&all, 0.5));
    out.set("p99_ms", windowed(&all, 0.99));
    out.set("write_p99_ms", quantile(&writes, 0.99));
    println!(
        "serve: probe {:.1} rps; nominal {:.1} rps, {} requests, {} writes; server-side p99 {:.3} ms vs client p99 {:.3} ms; generator late p50 {:.3} ms p99 {:.3} ms",
        drive.probe_rps,
        nominal.rate,
        all.len(),
        writes.len(),
        after.p99_ms,
        quantile(&all, 0.99),
        median(&late),
        quantile(&late, 0.99)
    );
    for class in [Class::Hot, Class::Miss, Class::Write, Class::OneShot] {
        let v = nominal.lat(Some(class));
        println!(
            "serve:   {class:?}: {} requests, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            v.len(),
            median(&v),
            quantile(&v, 0.9),
            quantile(&v, 0.99),
            quantile(&v, 1.0)
        );
    }

    if traced {
        let rtt = |name: &str| -> f64 {
            let v: Vec<f64> = probes[name]
                .iter()
                .map(|s| (s.recv_ns - s.sent_ns) as f64 / 1e6)
                .collect();
            median(&v)
        };
        let (ping, hit, miss, write) = (rtt("ping"), rtt("hit"), rtt("miss"), rtt("write"));
        // In-process compute time of the very lines the miss probe sent.
        let mut twin = mirror.clone();
        let compute: Vec<f64> = probe_lines
            .iter()
            .map(|r| {
                let t = Instant::now();
                let _ = std::hint::black_box(twin.answer(&r.line));
                ms(t.elapsed())
            })
            .collect();
        out.set("_serve.ping_ms", ping);
        out.set("rtt.hit_ms", hit);
        out.set("rtt.miss_ms", miss);
        out.set("rtt.write_ms", write);
        out.set("queue.wait_ms", miss - median(&compute) - hit);
        out.set("conn.connect_ms", median(&connects));
        out.set(
            "conn.vm_kb_per_conn",
            (vm_after - vm_before) / oneshots.max(1) as f64,
        );
        out.set("conn.threads", threads_after - threads_before);
        out.set("gen.late_p99_ms", quantile(&late, 0.99));
        out.set("metrics.server_p99_ms", after.p99_ms);
        let cache = |key: &str| load::delta(&after.cache, &before.cache, key);
        let lookups = cache("hits") + cache("misses");
        out.set("cache.hit_frac", cache("hits") / lookups.max(1.0));
        out.set("cache.stale_frac", cache("stale") / lookups.max(1.0));
        // Lines sent after the first scrape (its own `stats` request is
        // counted in the second, so it is left out of the list).
        let sent = traffic[warm_count..].iter().map(|(_, l)| l.as_str());
        load::count_gaps(sent, &before, &after, &mut out);
        println!(
            "serve: rtt ping {ping:.4} ms, hit {hit:.4} ms, miss {miss:.4} ms, write {write:.4} ms"
        );
    }
    out
}
