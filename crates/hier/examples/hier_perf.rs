//! Sweep-plan calibration table: forced mask, forced certificates and the
//! sweep plan on the same grids, medians of `--reps` interleaved runs
//! (the order rotates each rep), timed in thread CPU time so preemption
//! on a shared host does not count.
//!
//! ```sh
//! cargo run --release -p fullview-hier --example hier_perf            # full table, 5 reps
//! cargo run --release -p fullview-hier --example hier_perf -- --reps 1 --rows omni
//! cargo run --release -p fullview-hier --example hier_perf -- --rows parallel
//! cargo run --release -p fullview-hier --example hier_perf -- --rows paper --n 5000 --side 512 --deg 22.5
//! ```
//!
//! Rows: the benchmark's paper-mix fleet (50 % wide, 30 % medium, 20 %
//! narrow cameras scaled to the sufficient critical sensing area at
//! θ = 45°, seeded as the benchmark seeds it) at n ∈ {5 000, 20 000},
//! sides {160, dense, 512, 1024} and θ ∈ {22.5°, 45°, 90°}, then a
//! dense omnidirectional scatter (n = 420, r = 0.12, θ = 60°) at sides
//! 128–2048, and the same scatter with half-disk cameras at side 1024.
//! `plan certs` is the number of certificate attempts the plan made (0:
//! it never tried one). A second table (`--rows parallel`) runs the plan
//! on two workers next to the serial plan and mask tier, in wall time,
//! on the benchmark's `check` grids. Every run's report is checked
//! against the others.

use fullview_core::{
    collect_prover_stats, csa_sufficient, dense_grid, evaluate_grid, evaluate_grid_certified,
    EffectiveAngle, GridCoverageReport, GridEvaluator, GridTiling,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use fullview_sim::evaluate_grid_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{PI, TAU};
use std::time::Instant;

fn theta(deg: f64) -> EffectiveAngle {
    EffectiveAngle::new(deg.to_radians()).expect("valid angle")
}

/// The benchmark's sub-seed derivation (SplitMix64 of a salted seed).
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z =
        (seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper-mix fleet of `n` cameras, as the benchmark deploys it.
fn paper_fleet(n: usize, seed: u64) -> CameraNetwork {
    let spec = |area: f64, aov: f64| SensorSpec::with_sensing_area(area, aov).expect("valid spec");
    let profile = NetworkProfile::builder()
        .group(spec(1.2, PI), 0.5)
        .group(spec(1.0, PI / 2.0), 0.3)
        .group(spec(0.5, PI / 4.0), 0.2)
        .build()
        .expect("fractions sum to one")
        .scale_to_weighted_area(csa_sufficient(n, theta(45.0)))
        .expect("positive target area");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    deploy_uniform(Torus::unit(), &profile, n, &mut rng).expect("profile fits the unit torus")
}

fn scatter_fleet(aov: f64) -> CameraNetwork {
    let spec = SensorSpec::new(0.12, aov).expect("valid spec");
    let cams: Vec<Camera> = (0..420)
        .map(|i| {
            let t = i as f64;
            let pos = Point::new(
                (t * 0.754_877_666_246_693).fract(),
                (t * 0.569_840_290_998_053 + 0.137).fract(),
            );
            Camera::new(pos, Angle::new(t * 2.399_963), spec, GroupId(i % 3))
        })
        .collect();
    CameraNetwork::new(Torus::unit(), cams)
}

/// This thread's CPU time in milliseconds (the first field of
/// `/proc/thread-self/schedstat`, nanoseconds on a CPU), so time spent
/// preempted by other work on a shared host does not count; `None`
/// where the kernel does not expose it.
fn thread_cpu_ms() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e6)
}

/// Milliseconds `f` takes: thread CPU time where available, else wall.
fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (cpu, wall) = (thread_cpu_ms(), Instant::now());
    let r = f();
    let ms = match (cpu, thread_cpu_ms()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64() * 1e3,
    };
    (r, ms)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn row(label: &str, net: &CameraNetwork, side: usize, deg: f64, reps: usize) {
    let wanted = |flag: &str, v: String| {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .is_none_or(|w| *w == v)
    };
    if !wanted("--side", side.to_string()) || !wanted("--deg", deg.to_string()) {
        return;
    }
    let grid = UnitGrid::new(*net.torus(), side);
    let tiling = GridTiling::new(net.index(), &grid);
    let max_tile = (0..tiling.tile_count())
        .map(|t| tiling.tile_point_count(t))
        .max()
        .unwrap_or(0);
    let th = theta(deg);
    // Per tier: run times, and the report and certificate attempts of
    // the last run.
    let mut ms: [Vec<f64>; 3] = Default::default();
    let mut out: [(GridCoverageReport, usize); 3] = Default::default();
    for rep in 0..reps {
        // Rotate the order so no tier always runs first.
        for k in 0..3 {
            let tier = (rep + k) % 3;
            let (result, took) = time_ms(|| match tier {
                0 => (
                    GridEvaluator::new(th, Angle::ZERO).evaluate_grid(net, &grid),
                    0,
                ),
                1 => {
                    let (r, s) = evaluate_grid_certified(net, th, &grid, Angle::ZERO);
                    (r, s.nodes)
                }
                _ => {
                    let (r, s) =
                        collect_prover_stats(|| evaluate_grid(net, th, &grid, Angle::ZERO));
                    (r, s.nodes)
                }
            });
            out[tier] = result;
            ms[tier].push(took);
        }
        assert!(
            out[0].0 == out[1].0 && out[0].0 == out[2].0,
            "tiers disagree on {label} side {side} θ {deg}"
        );
    }
    let nodes = out[2].1;
    let [m, h, p] = ms.map(median);
    println!(
        "| {label} | {side} | {deg} | {max_tile} | {m:.0} | {h:.0} | {p:.0} | {nodes} | {:.2} | {:.2} |",
        p / m,
        m / h
    );
}

/// The plan on `threads` workers against the serial mask tier, in wall
/// time (a parallel sweep's work is not on the timing thread), with the
/// certificate attempts summed over the workers.
fn parallel_row(label: &str, net: &CameraNetwork, side: usize, deg: f64, reps: usize) {
    let grid = UnitGrid::new(*net.torus(), side);
    let th = theta(deg);
    let wall = |f: &dyn Fn() -> (GridCoverageReport, usize)| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e3)
    };
    let runs: [&dyn Fn() -> (GridCoverageReport, usize); 3] = [
        &|| {
            (
                GridEvaluator::new(th, Angle::ZERO).evaluate_grid(net, &grid),
                0,
            )
        },
        &|| {
            let (r, s) = collect_prover_stats(|| evaluate_grid(net, th, &grid, Angle::ZERO));
            (r, s.nodes)
        },
        &|| {
            let (r, s) =
                collect_prover_stats(|| evaluate_grid_parallel(net, th, &grid, Angle::ZERO, 2));
            (r, s.nodes)
        },
    ];
    let mut ms: [Vec<f64>; 3] = Default::default();
    let mut out: [(GridCoverageReport, usize); 3] = Default::default();
    for rep in 0..reps {
        for k in 0..3 {
            let run = (rep + k) % 3;
            let (result, took) = wall(runs[run]);
            out[run] = result;
            ms[run].push(took);
        }
        assert!(
            out[0].0 == out[1].0 && out[0].0 == out[2].0,
            "runs disagree on {label} side {side} θ {deg}"
        );
    }
    let [m, p1, p2] = ms.map(median);
    println!(
        "| {label} | {side} | {deg} | {m:.0} | {p1:.0} | {p2:.0} | {} | {} | {:.2} | {:.2} |",
        out[1].1,
        out[2].1,
        p1 / p2,
        p2 / (m / 2.0)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let reps: usize = value("--reps").map_or(5, |v| v.parse().expect("--reps N"));
    let rows = value("--rows").unwrap_or_else(|| "all".to_string());
    println!(
        "| fleet | side | θ° | max tile pts | mask ms | hier ms | plan ms | plan certs | plan/mask | mask/hier |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    if rows == "all" || rows == "paper" {
        let ns = value("--n").map_or(vec![5_000usize, 20_000], |v| {
            vec![v.parse().expect("--n N")]
        });
        for n in ns {
            let net = paper_fleet(n, 1);
            let dense = dense_grid(*net.torus(), n).side_count();
            for side in [160, dense, 512, 1024] {
                for deg in [22.5, 45.0, 90.0] {
                    row(&format!("paper n={n}"), &net, side, deg, reps);
                }
            }
        }
    }
    if rows == "all" || rows == "omni" {
        let net = scatter_fleet(TAU);
        for side in [128, 256, 512, 1024, 2048] {
            row("omni n=420", &net, side, 60.0, reps);
        }
        row("half-disk n=420", &scatter_fleet(PI), 1024, 60.0, reps);
    }
    if rows == "all" || rows == "parallel" {
        println!();
        println!(
            "| fleet | side | θ° | mask ms | plan ms | plan ms, 2 threads | plan certs | plan certs, 2 threads | speedup | 2-thread plan / (mask / 2) |"
        );
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for (n, side, deg) in [
            (20_000, 446, 22.5),
            (20_000, 446, 45.0),
            (20_000, 446, 90.0),
            (5_000, 207, 22.5),
            (5_000, 207, 45.0),
        ] {
            parallel_row(&format!("paper n={n}"), &paper_fleet(n, 1), side, deg, reps);
        }
    }
}
