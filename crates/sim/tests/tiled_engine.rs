//! Differential test for the tiled evaluation engine: the serial sweep
//! plan and the tile-claiming parallel sweep must produce
//! [`fullview_core::GridCoverageReport`]s bit-identical to the exact
//! oracle (every point through the exact analyzer).
//!
//! Every report field is an integer tally over a disjoint partition of the
//! grid, so equality must be exact (`==` on every field) for any execution
//! shape: serial vs parallel and any thread count — including 7, which
//! divides no tile count here.

use fullview_core::{
    collect_prover_stats, evaluate_grid, EffectiveAngle, GridCoverageReport, GridEvaluator,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use fullview_sim::evaluate_grid_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Asserts every execution shape agrees on `net × grid` and returns the
/// reference report.
fn assert_all_backends_agree(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    label: &str,
) -> GridCoverageReport {
    let start = Angle::new(0.37);
    let reference = GridEvaluator::new_exact(theta, start).evaluate_grid(net, grid);
    assert_eq!(
        evaluate_grid(net, theta, grid, start),
        reference,
        "{label}: serial plan"
    );
    for threads in THREADS {
        let parallel = evaluate_grid_parallel(net, theta, grid, start, threads);
        assert_eq!(parallel, reference, "{label}: parallel threads={threads}");
    }
    reference
}

#[test]
fn plan_and_parallel_match_exact_across_seeds() {
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, PI).unwrap());
    for seed in [3u64, 77, 0xC0FFEE] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = deploy_uniform(Torus::unit(), &profile, 140, &mut rng).unwrap();
        let grid = UnitGrid::new(Torus::unit(), 60);
        let r = assert_all_backends_agree(&net, &grid, theta, &format!("seed {seed}"));
        assert_eq!(r.total_points, 3600);
    }
}

#[test]
fn heterogeneous_profile_mixed_radii_and_aov() {
    // Mixed r_y stresses the per-camera radius² prefilter in the tile
    // cursor (candidates pinned at the global max radius, filtered
    // per-camera); mixed φ_y stresses the sector check.
    let profile = NetworkProfile::builder()
        .group(SensorSpec::new(0.06, PI / 3.0).unwrap(), 0.5)
        .group(SensorSpec::new(0.18, 2.0 * PI).unwrap(), 0.3)
        .group(SensorSpec::new(0.27, PI / 7.0).unwrap(), 0.2)
        .build()
        .unwrap();
    let theta = EffectiveAngle::new(0.45 * PI).unwrap();
    for seed in [11u64, 5150] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = deploy_uniform(Torus::unit(), &profile, 180, &mut rng).unwrap();
        for side in [31usize, 64] {
            let grid = UnitGrid::new(Torus::unit(), side);
            assert_all_backends_agree(&net, &grid, theta, &format!("seed {seed} side {side}"));
        }
    }
}

#[test]
fn empty_network_degenerate() {
    // Empty network: max radius 0 collapses the index to its minimum cell
    // fraction, so almost every tile is empty — the sweep must still
    // visit every point exactly once.
    let net = CameraNetwork::new(Torus::unit(), Vec::new());
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    for side in [1usize, 13, 40] {
        let grid = UnitGrid::new(Torus::unit(), side);
        let r = assert_all_backends_agree(&net, &grid, theta, &format!("empty side {side}"));
        assert_eq!(r.covered, 0);
        assert_eq!(r.total_points, side * side);
    }
}

#[test]
fn single_camera_degenerate() {
    let spec = SensorSpec::new(0.25, PI).unwrap();
    let net = CameraNetwork::new(
        Torus::unit(),
        vec![Camera::new(
            Point::new(0.31, 0.62),
            Angle::new(1.1),
            spec,
            GroupId(0),
        )],
    );
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    for side in [1usize, 9, 48] {
        let grid = UnitGrid::new(Torus::unit(), side);
        let r = assert_all_backends_agree(&net, &grid, theta, &format!("n=1 side {side}"));
        // One sector-bounded camera never full-view covers a non-colocated
        // point, but 1-coverage must register somewhere on a fine grid.
        if side == 48 {
            assert!(r.covered > 0);
        }
    }
}

#[test]
fn sensing_radius_exceeding_torus_side_degenerate() {
    // r = 1.5 on the unit torus: every tile's candidate window is a full
    // scan, so tiling degenerates to the whole-network query and must
    // still agree bit-for-bit.
    let spec = SensorSpec::new(1.5, 2.0 * PI).unwrap();
    let cams: Vec<Camera> = (0..9)
        .map(|i| {
            let p = Point::new(0.1 + 0.09 * i as f64, (0.13 * i as f64) % 1.0);
            Camera::new(p, Angle::new(i as f64), spec, GroupId(i % 2))
        })
        .collect();
    let net = CameraNetwork::new(Torus::unit(), cams);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 25);
    let r = assert_all_backends_agree(&net, &grid, theta, "radius > side");
    // Omni cameras with unbounded reach cover everything.
    assert_eq!(r.covered, r.total_points);
}

#[test]
fn plan_tries_certificates_only_on_large_tiles() {
    // Sanity: the differential tests above run the mask/exact step (tiles
    // of at most 256 points), and a fine grid over the same fleet sends
    // its tiles through the certificate step too — answers equal either
    // way.
    let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, PI).unwrap());
    let mut rng = StdRng::seed_from_u64(9);
    let net = deploy_uniform(Torus::unit(), &profile, 140, &mut rng).unwrap();
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    let coarse = UnitGrid::new(Torus::unit(), 60);
    let (_, stats) = collect_prover_stats(|| evaluate_grid(&net, theta, &coarse, Angle::ZERO));
    assert_eq!(stats.nodes, 0, "tiles of at most 256 points never try one");
    let fine = UnitGrid::new(Torus::unit(), 240);
    let (_, stats) = collect_prover_stats(|| {
        assert_all_backends_agree(&net, &fine, theta, "fine grid");
    });
    assert!(stats.nodes > 0, "large tiles try certificates: {stats}");
    let empty = CameraNetwork::new(Torus::unit(), Vec::new());
    let (_, stats) = collect_prover_stats(|| {
        evaluate_grid(
            &empty,
            theta,
            &UnitGrid::new(Torus::unit(), 13),
            Angle::ZERO,
        )
    });
    assert_eq!(stats.nodes, 0);
}

/// Random fleets dense and wide enough that certificates fire on
/// tiles of several hundred points.
fn certificate_fleet_strategy() -> impl proptest::strategy::Strategy<Value = CameraNetwork> {
    use proptest::prelude::*;
    let camera = (
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..std::f64::consts::TAU,
        0.16..0.24f64,
        (0usize..3, 0.5..2.0 * PI).prop_map(|(sel, u)| match sel {
            0 => 2.0 * PI,
            1 => PI,
            _ => u,
        }),
    )
        .prop_map(|(x, y, facing, r, phi)| {
            Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(0),
            )
        });
    prop::collection::vec(camera, 60..140).prop_map(|cams| CameraNetwork::new(Torus::unit(), cams))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// θ parked a few ulps either side of 2π/k, where a sector boundary
    /// sits exactly on a direction the sector partitions share: the plan
    /// (certificates included — these tiles hold hundreds of points) at
    /// 1, 2 and 4 threads must match the exact oracle.
    #[test]
    fn plan_matches_exact_at_sector_count_boundaries(
        net in certificate_fleet_strategy(),
        k in 2usize..12,
        ulps in -4i64..=4,
        side in 72usize..110,
    ) {
        let t = (std::f64::consts::TAU / k as f64).min(PI);
        let theta = EffectiveAngle::new(f64::from_bits((t.to_bits() as i64 + ulps) as u64).min(PI))
            .unwrap();
        let grid = UnitGrid::new(Torus::unit(), side);
        let exact = GridEvaluator::new_exact(theta, Angle::ZERO).evaluate_grid(&net, &grid);
        for threads in [1usize, 2, 4] {
            let plan = evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads);
            proptest::prop_assert_eq!(&plan, &exact, "threads={}", threads);
        }
    }
}
