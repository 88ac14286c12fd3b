//! The `sweep` workload: batch evaluation in-process, no sockets.
//!
//! A dense paper-profile fleet (n = 20 000, sensing area at the
//! sufficient CSA) is swept at θ ∈ {45°, 90°} through the default entry
//! points: `evaluate_dense_grid_parallel` on one thread per CPU,
//! `coverage_map_text`, `find_holes`, `count_k_view_range` and
//! `barrier_full_view`. At these angles the mask screen decides nearly
//! every point, so a tier-selection or kernel change shows here first.
//!
//! Every call and every set-up is timed in reference seconds (see
//! [`crate::calib`]). End-to-end metrics on this workload:
//! * `points_per_s` — grid points decided per second over a job set (the
//!   five calls at both angles), each call's time the median over the
//!   run's job sets;
//! * `max_ok_rps` — calls completed per second over the same job set;
//! * `setup_s` — deploying and indexing the fleet, per set-up, median of
//!   `SETUPS` stretches of `SETUP_REPS` set-ups;
//! * `peak_rss_mb` — the process's peak resident set.
//!
//! Traced-run metrics: `p50_ms` / `p99_ms` of single calls (wall time),
//! `cpu_us_per_op` (process CPU time per call, less the calibration
//! kernel's), and `write_p99_ms` of applying one `move` to a copy of the
//! fleet (the camera moves, the spatial index is rebuilt and the moved
//! disks are marked dirty in a warm `IncrementalSweep`; the repair itself
//! is paid by the next read, as in the daemon).
//!
//! Answers are checked against references built from per-point flags:
//! those flags are compared with the exact engine on a seeded sample of
//! points, and the k-view and barrier references come from the exact
//! analyzer on every point.

use crate::calib::RefClock;
use crate::gen::{self, Rng64};
use crate::oracle;
use crate::stats::{cpu_seconds, median, ms, nproc, proc_status, quantile};
use crate::{Args, Outcome};
use fullview_core::{
    barrier_full_view, count_k_view_range, coverage_map_text, dense_grid, find_holes,
    hole_report_text, GridCoverageReport, GridEvaluator, IncrementalSweep,
};
use fullview_geom::{Angle, Point, UnitGrid};
use fullview_model::CameraNetwork;
use fullview_sim::evaluate_dense_grid_parallel;
use std::time::Instant;

pub const N: usize = 20_000;
pub const THETAS: [f64; 2] = [45.0, 90.0];
pub const MAP_SIDE: usize = 160;
pub const HOLES_GRID: usize = 160;
pub const KFULL_GRID: usize = 96;
pub const KFULL_K: usize = 2;
pub const BARRIER_GRID: usize = 48;
/// Points per grid and angle checked against the exact engine.
const EXACT_SAMPLES: usize = 1500;
/// `move`s applied in the write phase of every run.
const WRITES: usize = 1000;
/// Grid side of the warm state the write phase marks dirty.
const WRITE_GRID: usize = 128;
/// Timed stretches of set-ups per run, and set-ups per stretch: one
/// takes about a millisecond, so each stretch repeats it and `setup_s`
/// is the median stretch's time per set-up.
const SETUPS: usize = 21;
const SETUP_REPS: usize = 8;

/// The five calls of a job set, in order.
pub const CALLS: [&str; 5] = ["check", "map", "holes", "kfull", "barrier"];

/// Reference answers for one angle.
struct Expected {
    check: GridCoverageReport,
    map: String,
    holes: String,
    kfull: usize,
    barrier: String,
}

fn expected(net: &CameraNetwork, deg: f64, seed: u64) -> (Expected, usize) {
    let theta = gen::theta(deg);
    let torus = *net.torus();
    let dense = dense_grid(torus, net.len());
    let flags = oracle::default_flags(net, &dense, theta);
    let mut check = GridCoverageReport::default();
    for f in &flags {
        check.record(f);
    }
    let mut mismatches = oracle::exact_mismatches(net, &dense, theta, &flags, EXACT_SAMPLES, seed);
    let map_grid = UnitGrid::new(torus, MAP_SIDE);
    let map_flags = oracle::default_flags(net, &map_grid, theta);
    mismatches +=
        oracle::exact_mismatches(net, &map_grid, theta, &map_flags, EXACT_SAMPLES, seed + 1);
    let holes_grid = UnitGrid::new(torus, HOLES_GRID);
    let holes_flags = oracle::default_flags(net, &holes_grid, theta);
    mismatches += oracle::exact_mismatches(
        net,
        &holes_grid,
        theta,
        &holes_flags,
        EXACT_SAMPLES,
        seed + 2,
    );
    let kgrid = UnitGrid::new(torus, KFULL_GRID);
    let barrier_grid = UnitGrid::new(torus, BARRIER_GRID);
    let barrier_flags = oracle::exact_flags(net, &barrier_grid, theta);
    let barrier = oracle::barrier_of(BARRIER_GRID, &oracle::full_view_mask(&barrier_flags));
    let exp = Expected {
        check,
        map: oracle::map_text(MAP_SIDE, &map_flags),
        holes: oracle::holes_text(net, HOLES_GRID, &holes_flags),
        kfull: oracle::kcount_exact(net, &kgrid, theta, KFULL_K),
        barrier: barrier.to_string(),
    };
    (exp, mismatches)
}

/// Grid points one job set decides.
pub fn points_per_job_set(net: &CameraNetwork) -> usize {
    let dense = dense_grid(*net.torus(), net.len()).len();
    THETAS.len()
        * (dense + MAP_SIDE.pow(2) + HOLES_GRID.pow(2) + KFULL_GRID.pow(2) + BARRIER_GRID.pow(2))
}

/// Runs one job set, each call a stretch of `clock`. Returns (each
/// call's name from `CALLS` and stretch index, wrong answers).
fn job_set(
    net: &CameraNetwork,
    exp: &[Expected],
    clock: &mut RefClock,
) -> (Vec<(&'static str, usize)>, u64) {
    let kgrid = UnitGrid::new(*net.torus(), KFULL_GRID);
    let mut calls = Vec::with_capacity(10);
    let mut wrong = 0u64;
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> bool| {
        let (ok, i) = clock.time(f);
        calls.push((name, i));
        wrong += u64::from(!ok);
    };
    for (deg, e) in THETAS.iter().zip(exp) {
        let theta = gen::theta(*deg);
        timed("check", &mut || {
            evaluate_dense_grid_parallel(net, theta, Angle::ZERO, nproc()) == e.check
        });
        timed("map", &mut || {
            coverage_map_text(net, theta, MAP_SIDE) == e.map
        });
        timed("holes", &mut || {
            hole_report_text(&find_holes(net, theta, HOLES_GRID)) == e.holes
        });
        timed("kfull", &mut || {
            count_k_view_range(net, &kgrid, theta, KFULL_K, 0, kgrid.len()) == e.kfull
        });
        timed("barrier", &mut || {
            barrier_full_view(net, theta, BARRIER_GRID).to_string() == e.barrier
        });
    }
    (calls, wrong)
}

/// Applies `WRITES` seeded moves to a copy of the fleet, marking each
/// moved disk dirty in a warm θ = 45° state. Returns (latencies in ms,
/// wrong answers: the state repaired after the last move against a cold
/// sweep of the moved fleet).
fn write_phase(net: &CameraNetwork, seed: u64) -> (Vec<f64>, u64) {
    let theta = gen::theta(THETAS[0]);
    let mut copy = net.clone();
    let mut state = IncrementalSweep::new(&copy, theta, Angle::ZERO, WRITE_GRID);
    let mut rng = Rng64::new(gen::sub_seed(seed, 4));
    let mut times = Vec::with_capacity(WRITES);
    for _ in 0..WRITES {
        let id = rng.below(copy.len());
        let to = Point::new(rng.unit(), rng.unit());
        let t = Instant::now();
        let before = copy.cameras()[id];
        copy.move_camera(id, to);
        let radius = before.spec().radius();
        state.mark_disk(before.position(), radius);
        state.mark_disk(copy.cameras()[id].position(), radius);
        times.push(ms(t.elapsed()));
    }
    state.resweep_dirty(&copy);
    let grid = UnitGrid::new(*copy.torus(), WRITE_GRID);
    let cold = GridEvaluator::new(theta, Angle::ZERO).evaluate_grid(&copy, &grid);
    (times, u64::from(&cold != state.report()))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RefClock::new();
    let mut setups = Vec::new();
    let mut net = None;
    for _ in 0..SETUPS {
        let (fleet, i) = clock.time(|| {
            (1..SETUP_REPS).for_each(|_| drop(std::hint::black_box(gen::fleet(N, args.seed))));
            gen::fleet(N, args.seed)
        });
        setups.push(i);
        net = Some(fleet);
    }
    let net = net.expect("at least one setup");

    // References for both angles, one thread each (not timed).
    let refs: Vec<(Expected, usize)> = std::thread::scope(|s| {
        let hs: Vec<_> = THETAS
            .iter()
            .enumerate()
            .map(|(i, deg)| {
                let net = &net;
                s.spawn(move || expected(net, *deg, gen::sub_seed(args.seed, 10 + i as u64)))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mismatches: usize = refs.iter().map(|(_, m)| m).sum();
    if mismatches > 0 {
        println!("sweep: {mismatches} sampled points disagree with the exact engine");
    }
    out.wrong += mismatches as u64;
    out.failed += mismatches as u64;
    let exp: Vec<Expected> = refs.into_iter().map(|(e, _)| e).collect();

    let points = points_per_job_set(&net) as f64;
    let (writes, bad) = write_phase(&net, args.seed);
    out.attempted += WRITES as u64 + 1;
    out.wrong += bad;
    out.failed += bad;

    let start = Instant::now();
    let cpu = cpu_seconds();
    let (mut job_sets, mut jobset_s) = (Vec::new(), Vec::new());
    // Whole job sets only: stop before one that would overrun.
    while job_sets.is_empty()
        || start.elapsed().as_secs_f64() * (job_sets.len() + 1) as f64 / job_sets.len() as f64
            <= args.seconds
    {
        let t = Instant::now();
        let (calls, wrong) = job_set(&net, &exp, &mut clock);
        jobset_s.push(t.elapsed().as_secs_f64());
        out.attempted += calls.len() as u64;
        out.wrong += wrong;
        out.failed += wrong;
        job_sets.push(calls);
    }
    let cpu = cpu_seconds() - cpu;
    let calls: Vec<(&str, usize)> = job_sets.iter().flatten().copied().collect();
    // Each call's median time at the reference speed over the job sets,
    // summed over the calls of one job set.
    let jobset_ref_s: f64 = (0..job_sets[0].len())
        .map(|slot| {
            median(
                &job_sets
                    .iter()
                    .map(|js| clock.ref_s(js[slot].1))
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let jobset_wall_s: f64 = (0..job_sets[0].len())
        .map(|slot| {
            median(
                &job_sets
                    .iter()
                    .map(|js| clock.wall_s(js[slot].1))
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    println!(
        "sweep: n={N} {} job sets, {points} points each, {} threads; per job set {jobset_ref_s:.3} reference s, {jobset_wall_s:.3} wall s; median kernel {:.2} ms",
        job_sets.len(),
        nproc(),
        clock.median_kernel_s() * 1e3
    );
    let setups: Vec<f64> = setups
        .iter()
        .map(|&i| clock.ref_s(i) / SETUP_REPS as f64)
        .collect();
    out.set("setup_s", median(&setups));
    out.set("points_per_s", points / jobset_ref_s);
    out.set("max_ok_rps", job_sets[0].len() as f64 / jobset_ref_s);
    out.set("peak_rss_mb", proc_status().1 / 1024.0);

    let call_ms: Vec<f64> = calls.iter().map(|&(_, i)| clock.wall_s(i) * 1e3).collect();
    let kernel_s: f64 = calls.iter().map(|&(_, i)| clock.kernel_after_s(i)).sum();
    out.set("p50_ms", median(&call_ms));
    out.set("p99_ms", quantile(&call_ms, 0.99));
    out.set("cpu_us_per_op", (cpu - kernel_s) * 1e6 / calls.len() as f64);
    out.set("write_p99_ms", quantile(&writes, 0.99));
    if args.trace {
        // The engine calls' share of the job sets' wall time, less the
        // calibration kernel's.
        out.set(
            "unattributed_frac",
            1.0 - call_ms.iter().sum::<f64>() / (jobset_s.iter().sum::<f64>() - kernel_s) / 1e3,
        );
        for c in CALLS {
            let v: Vec<f64> = calls
                .iter()
                .filter(|(name, _)| *name == c)
                .map(|&(_, i)| clock.wall_s(i) * 1e3)
                .collect();
            out.set(&format!("engine.{c}_ms"), median(&v));
        }
    }
    out
}
