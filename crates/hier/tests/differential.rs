//! The sweep plan ⇄ exact differential: every sweep the plan serves —
//! and the forced certificate tier on its own — must be
//! **bit-identical** to the exact engine, which stays the oracle
//! (`GridEvaluator::new_exact` / `PointAnalyzer`).
//!
//! Four families:
//!
//! * property differentials — random heterogeneous networks, effective
//!   angles parked on sector-count boundaries, arbitrary ranged
//!   sub-sweeps and tile geometries, pinning flags, k-counts, masks,
//!   glyph rows and forced-certificate reports against the oracle;
//! * accounting invariants — under forced certificates every in-range
//!   point is either proven or visited exactly once, never both, and
//!   the plan tries no certificate on grids of small tiles;
//! * deterministic dense deployments large enough that the point-space
//!   recursion actually proves interior rectangles (`points_proved > 0`),
//!   so the fast path itself — not just its fallbacks — is tested;
//! * tier selection — which grids try certificates at all, and how much
//!   certificate work the plan spends where they do not pay.

use fullview_core::{
    collect_prover_stats, count_k_view_range, count_k_view_range_certified, coverage_glyphs_range,
    coverage_glyphs_range_with, csa_sufficient, evaluate_grid, find_holes, full_view_mask_range,
    holes_from_mask, min_arc_depth, sweep_flags_range, sweep_flags_range_certified, EffectiveAngle,
    GridEvaluator, GridTiling, PointAnalyzer, PointFlags, ProverStats,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_hier::evaluate_grid_hier;
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use fullview_sim::evaluate_grid_parallel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{PI, TAU};

// ---------- strategies (mirroring core's mask differential) ----------

/// Heterogeneous cameras hitting the prover's case splits: generic
/// sectors, omnidirectional φ ≈ 2π (the `aov_ok` fast branch), narrow
/// slivers, and radii from sliver to index-degenerate.
fn hetero_camera_strategy() -> impl Strategy<Value = Camera> {
    (
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..TAU,
        (0usize..4, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
            0..=2 => 0.03 + u * 0.22,
            _ => 0.25 + u * 0.20,
        }),
        (0usize..7, 0.0..1.0f64).prop_map(|(sel, u)| match sel {
            0..=3 => 0.1 + u * (TAU - 0.1),
            4 => PI - 1e-7 + u * 2e-7,
            5 => TAU - 2e-9 * (1.0 - u),
            _ => 0.05 + u * 0.25,
        }),
        0usize..4,
    )
        .prop_map(|(x, y, facing, r, phi, g)| {
            Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(g),
            )
        })
}

fn hetero_network_strategy(max: usize) -> impl Strategy<Value = CameraNetwork> {
    prop::collection::vec(hetero_camera_strategy(), 0..max)
        .prop_map(|cams| CameraNetwork::new(Torus::unit(), cams))
}

/// Effective angles parked where the sector partitions are touchiest:
/// θ = π (one necessary sector), exact divisors of 2π a few ulps either
/// side of an integer sector count, and generic values.
fn boundary_theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
    (0usize..10, 0.05..=1.0f64, 2usize..40, -4i32..=4).prop_map(|(sel, f, k, ulps)| {
        let t = match sel {
            0..=3 => f * PI,
            4 => PI,
            5 => TAU / 64.0,
            6..=8 => ((TAU / k as f64) * (1.0 + f64::from(ulps) * 1e-15)).clamp(1e-3, PI),
            _ => 0.021 + (f - 0.05) * 0.003,
        };
        EffectiveAngle::new(t).unwrap()
    })
}

// ---------- deterministic dense deployments ----------

/// Low-discrepancy golden-ratio scatter: dense enough that interior
/// rectangles are provably covered, deterministic so failures replay.
fn dense_network(n: usize, radius: f64, aov: f64) -> CameraNetwork {
    let torus = Torus::unit();
    let spec = SensorSpec::new(radius, aov).unwrap();
    let cams: Vec<Camera> = (0..n)
        .map(|i| {
            let t = i as f64;
            let pos = Point::new(
                (t * 0.754_877_666_246_693).fract(),
                (t * 0.569_840_290_998_053 + 0.137).fract(),
            );
            Camera::new(pos, Angle::new(t * 2.399_963), spec, GroupId(i % 3))
        })
        .collect();
    CameraNetwork::new(torus, cams)
}

/// Collects one plan flags sweep into an index-keyed vector, asserting
/// each in-range index is emitted exactly once, with the certificate
/// counters of the sweep.
fn plan_flags(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    lo: usize,
    hi: usize,
) -> (Vec<PointFlags>, ProverStats) {
    let mut got = vec![None; hi - lo];
    let ((), stats) = collect_prover_stats(|| {
        sweep_flags_range(net, grid, theta, Angle::ZERO, lo, hi, |idx, flags| {
            assert!(idx >= lo && idx < hi, "idx {idx} outside {lo}..{hi}");
            assert!(got[idx - lo].is_none(), "idx {idx} emitted twice");
            got[idx - lo] = Some(flags);
        });
    });
    let flags = got
        .into_iter()
        .map(|f| f.expect("every in-range index emitted"))
        .collect();
    (flags, stats)
}

/// [`plan_flags`] through the forced certificate tier, with its
/// counters.
fn forced_flags(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    lo: usize,
    hi: usize,
) -> (Vec<PointFlags>, ProverStats) {
    let mut got = vec![None; hi - lo];
    let stats = sweep_flags_range_certified(net, grid, theta, Angle::ZERO, lo, hi, |idx, flags| {
        assert!(got[idx - lo].is_none(), "idx {idx} emitted twice");
        got[idx - lo] = Some(flags);
    });
    let flags = got
        .into_iter()
        .map(|f| f.expect("every in-range index emitted"))
        .collect();
    (flags, stats)
}

/// The oracle's flags for grid indices `lo..hi`.
fn exact_flags(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    lo: usize,
    hi: usize,
) -> Vec<PointFlags> {
    let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
    (lo..hi)
        .map(|idx| ev.point_flags_with(net, grid.point(idx)))
        .collect()
}

/// The oracle's count of points of `lo..hi` with view multiplicity ≥ k.
fn exact_kcount(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
    lo: usize,
    hi: usize,
) -> usize {
    let mut analyzer = PointAnalyzer::new();
    (lo..hi)
        .filter(|&idx| {
            let view = analyzer.analyze_point_with(net, grid.point(idx));
            min_arc_depth(view.viewed_directions, theta.radians())
                + usize::from(view.has_colocated_camera)
                >= k
        })
        .count()
}

/// The oracle's report over the whole grid (tiles through the exact
/// analyzer only).
fn exact_report(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
) -> fullview_core::GridCoverageReport {
    GridEvaluator::new_exact(theta, Angle::ZERO).evaluate_grid(net, grid)
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole differential: plan flags and forced-certificate
    /// flags, both bit-identical to the oracle over an arbitrary
    /// sub-range. The forced tier tries a certificate on every tile, so
    /// every in-range point is proven or visited, exactly once; the plan
    /// tries none on these grids, whose tiles hold at most 256 points.
    #[test]
    fn plan_flags_sweep_matches_exact(
        net in hetero_network_strategy(40),
        theta in boundary_theta_strategy(),
        side in 2usize..24,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let want = exact_flags(&net, &grid, theta, lo, hi);
        let (got, stats) = plan_flags(&net, &grid, theta, lo, hi);
        prop_assert_eq!(&got, &want);
        if max_tile_points(&net, side) <= 256 {
            prop_assert_eq!(stats, ProverStats::default(), "small tiles try no certificate");
        }
        let (forced, stats) = forced_flags(&net, &grid, theta, lo, hi);
        prop_assert_eq!(
            stats.points_proved + stats.points_visited,
            hi - lo,
            "accounting must partition the range"
        );
        prop_assert_eq!(forced, want);
    }

    /// Plan and forced-certificate k-counts against the oracle, all k
    /// including the trivial 0 and values above any multiplicity
    /// present; the forced tier exercises the count rule for `Full`
    /// certificates (`groups ≥ k` disjoint witness families).
    #[test]
    fn plan_kcount_matches_exact(
        net in hetero_network_strategy(40),
        theta in boundary_theta_strategy(),
        k in 0usize..5,
        side in 2usize..16,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let want = exact_kcount(&net, &grid, theta, k, lo, hi);
        let (got, stats) =
            collect_prover_stats(|| count_k_view_range(&net, &grid, theta, k, lo, hi));
        prop_assert_eq!(got, want, "k={} side={} range={}..{}", k, side, lo, hi);
        if max_tile_points(&net, side) <= 256 {
            prop_assert_eq!(stats, ProverStats::default(), "small tiles try no certificate");
        }
        let (forced, stats) = count_k_view_range_certified(&net, &grid, theta, k, lo, hi);
        prop_assert_eq!(forced, want, "forced k={} side={} range={}..{}", k, side, lo, hi);
        if k > 0 {
            prop_assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
        }
    }

    /// Dense fleets where `Full` certificates fire on whole tiles: the
    /// forced tier's flags and k-counts (the `groups ≥ k` rule of
    /// disjoint witness families) against the oracle, at boundary angles
    /// and over arbitrary sub-ranges, next to the plan's answers.
    #[test]
    fn forced_certificates_on_dense_fleets_match_exact(
        n in 150usize..450,
        radius in 0.1..0.2f64,
        aov in (0usize..4).prop_map(|i| [TAU, TAU - 2e-9, PI, PI - 1e-7][i]),
        theta in boundary_theta_strategy(),
        k in 1usize..5,
        side in 8usize..24,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let net = dense_network(n, radius, aov);
        let grid = UnitGrid::new(Torus::unit(), side);
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * grid.len() as f64) as usize;
        let hi = ((fb * grid.len() as f64) as usize).min(grid.len());
        let want = exact_flags(&net, &grid, theta, lo, hi);
        let (forced, stats) = forced_flags(&net, &grid, theta, lo, hi);
        prop_assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
        prop_assert_eq!(forced, want);
        let want = exact_kcount(&net, &grid, theta, k, lo, hi);
        let (forced, stats) = count_k_view_range_certified(&net, &grid, theta, k, lo, hi);
        prop_assert_eq!(forced, want, "forced k={} side={} range={}..{}", k, side, lo, hi);
        prop_assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
        prop_assert_eq!(count_k_view_range(&net, &grid, theta, k, lo, hi), want);
    }

    /// The wire-visible renderers: glyph rows and full-view masks must be
    /// byte-identical to the oracle's flags rendered the same way, and
    /// the forced certificate tier (a certificate attempt on every tile)
    /// must tally the oracle's report with every point accounted for.
    #[test]
    fn renderers_and_forced_certificates_match_exact(
        net in hetero_network_strategy(32),
        theta in boundary_theta_strategy(),
        side in 2usize..16,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let grid = UnitGrid::new(Torus::unit(), side);
        let len = grid.len();
        let (fa, fb) = if a <= b { (a, b) } else { (b, a) };
        let lo = (fa * len as f64) as usize;
        let hi = ((fb * len as f64) as usize).min(len);
        let exact = exact_flags(&net, &grid, theta, lo, hi);
        let want_glyphs = coverage_glyphs_range_with(lo, hi, |emit| {
            for (off, flags) in exact.iter().enumerate() {
                emit(lo + off, *flags);
            }
        });
        prop_assert_eq!(coverage_glyphs_range(&net, theta, side, lo, hi), want_glyphs);
        let want_mask: Vec<bool> = exact.iter().map(|f| f.full_view).collect();
        prop_assert_eq!(full_view_mask_range(&net, theta, side, lo, hi), want_mask);
        let (report, stats) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
        prop_assert_eq!(report, exact_report(&net, &grid, theta));
        prop_assert_eq!(stats.points_proved + stats.points_visited, len);
    }
}

// ---------- deterministic dense cases ----------

/// Side large enough that index tiles exceed the whole-tile kernel
/// threshold, forcing point-space recursion — and dense enough that
/// `FullyCovered` certificates actually fire in the plan.
#[test]
fn dense_omni_large_grid_proves_interior_rectangles() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 160;
    let grid = UnitGrid::new(Torus::unit(), side);
    let (got, stats) = plan_flags(&net, &grid, theta, 0, grid.len());
    assert!(
        stats.points_proved > 0,
        "dense omni deployment must prove some rectangles, stats: {stats}"
    );
    assert!(stats.points_proved + stats.points_visited <= grid.len());
    let want = exact_flags(&net, &grid, theta, 0, grid.len());
    assert_eq!(got, want);
    let (forced, stats) = forced_flags(&net, &grid, theta, 0, grid.len());
    assert!(stats.points_proved > 0, "{stats}");
    assert_eq!(stats.points_proved + stats.points_visited, grid.len());
    assert_eq!(forced, want);
}

/// Directional cameras: the `aov_ok` containment branch, plus empty
/// regions (smaller n) where `Empty` certificates may fire in the forced
/// tier.
#[test]
fn sparse_directional_grid_matches_exact_and_proves_empties() {
    let net = dense_network(70, 0.09, PI);
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    let side = 144;
    let grid = UnitGrid::new(Torus::unit(), side);
    let (got, _) = plan_flags(&net, &grid, theta, 0, grid.len());
    assert_eq!(got, exact_flags(&net, &grid, theta, 0, grid.len()));
    let (report, stats) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
    assert_eq!(report, exact_report(&net, &grid, theta));
    assert_eq!(stats.points_proved + stats.points_visited, grid.len());
}

/// Reports and holes at a side where certificates fire: identical
/// tallies, identical rendered hole report.
#[test]
fn dense_reports_and_holes_match_exact() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 160;
    let grid = UnitGrid::new(Torus::unit(), side);
    let want = exact_report(&net, &grid, theta);
    let (report, _) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
    assert_eq!(report, want);
    assert_eq!(evaluate_grid(&net, theta, &grid, Angle::ZERO), want);
    let mask: Vec<bool> = exact_flags(&net, &grid, theta, 0, grid.len())
        .iter()
        .map(|f| f.full_view)
        .collect();
    assert_eq!(
        find_holes(&net, theta, side).to_string(),
        holes_from_mask(Torus::unit(), side, &mask).to_string()
    );
}

/// Plan k-count at a certificate-firing side, for the multiplicities
/// the cluster `kfull` verb serves.
#[test]
fn dense_kcount_matches_exact_at_scale() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let side = 128;
    let grid = UnitGrid::new(Torus::unit(), side);
    for k in [1usize, 2, 3] {
        let want = exact_kcount(&net, &grid, theta, k, 0, grid.len());
        assert_eq!(
            count_k_view_range(&net, &grid, theta, k, 0, grid.len()),
            want,
            "k={k}"
        );
        let (forced, stats) = count_k_view_range_certified(&net, &grid, theta, k, 0, grid.len());
        assert_eq!(forced, want, "forced k={k}");
        assert_eq!(stats.points_proved + stats.points_visited, grid.len());
    }
    // Tiles of more than 256 points recurse, so on a denser fleet `Full`
    // certificates with k disjoint witness families decide rectangles.
    let net = dense_network(1200, 0.12, TAU);
    let big = UnitGrid::new(Torus::unit(), 160);
    for k in [1usize, 2, 3] {
        let (forced, stats) = count_k_view_range_certified(&net, &big, theta, k, 0, big.len());
        assert_eq!(
            forced,
            exact_kcount(&net, &big, theta, k, 0, big.len()),
            "k={k}"
        );
        assert!(stats.proved_full > 0, "k={k}: {stats}");
    }
    // Ranged sub-sweeps partition-sum to the full count.
    let third = grid.len() / 3;
    let c1 = count_k_view_range(&net, &grid, theta, 1, 0, third);
    let c2 = count_k_view_range(&net, &grid, theta, 1, third, 2 * third);
    let c3 = count_k_view_range(&net, &grid, theta, 1, 2 * third, grid.len());
    let all = count_k_view_range(&net, &grid, theta, 1, 0, grid.len());
    assert_eq!(c1 + c2 + c3, all);
}

/// The bench's `hier_cold` configuration (dense omni fleet, side 640):
/// the plan's ledger keeps certificates on, and they decide nearly every
/// point without a visit — the same tallies as the forced tier.
#[test]
fn plan_proves_points_on_the_hier_cold_configuration() {
    let net = dense_network(420, 0.12, TAU);
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 640);
    let (report, stats) = collect_prover_stats(|| evaluate_grid(&net, theta, &grid, Angle::ZERO));
    assert!(stats.proved_fraction() > 0.9, "{stats}");
    assert_eq!(stats.points_proved + stats.points_visited, grid.len());
    let (forced, _) = evaluate_grid_hier(&net, theta, &grid, Angle::ZERO);
    assert_eq!(report, forced);
}

/// Stats merging is plain summation; the Display line is stable.
#[test]
fn stats_merge_and_display() {
    let mut a = fullview_hier::ProverStats {
        nodes: 3,
        proved_full: 1,
        proved_empty: 1,
        points_proved: 90,
        points_visited: 10,
        tiles_exact: 1,
    };
    let b = a;
    a.merge(&b);
    assert_eq!(a.nodes, 6);
    assert_eq!(a.points_proved, 180);
    assert!((a.proved_fraction() - 0.9).abs() < 1e-12);
    assert_eq!(
        b.to_string(),
        "nodes 3 (full 1, empty 1), points proved 90 / visited 10, exact tiles 1"
    );
}

// ---------- tier selection ----------

/// The benchmark's paper-mix fleet (50 % wide, 30 % medium, 20 % narrow
/// cameras at the sufficient critical sensing area for θ = 45°).
fn paper_fleet(n: usize, seed: u64) -> CameraNetwork {
    let spec = |area: f64, aov: f64| SensorSpec::with_sensing_area(area, aov).unwrap();
    let profile = NetworkProfile::builder()
        .group(spec(1.2, PI), 0.5)
        .group(spec(1.0, PI / 2.0), 0.3)
        .group(spec(0.5, PI / 4.0), 0.2)
        .build()
        .unwrap()
        .scale_to_weighted_area(csa_sufficient(n, EffectiveAngle::new(PI / 4.0).unwrap()))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    deploy_uniform(Torus::unit(), &profile, n, &mut rng).unwrap()
}

fn max_tile_points(net: &CameraNetwork, side: usize) -> usize {
    let grid = UnitGrid::new(*net.torus(), side);
    let tiling = GridTiling::new(net.index(), &grid);
    (0..tiling.tile_count())
        .map(|t| tiling.tile_point_count(t))
        .max()
        .unwrap_or(0)
}

/// Grids whose tiles hold at most 256 points never try a certificate:
/// the benchmark's 160² map/holes, 96² kfull and 48² barrier grids over
/// its 20 000-camera fleet, and cluster-sized (≤ 21²) ranged requests
/// over its 5 000-camera shard fleet.
#[test]
fn small_tile_grids_try_no_certificate() {
    let theta = EffectiveAngle::new(PI / 2.0).unwrap();
    let sweep_fleet = paper_fleet(20_000, 1);
    for side in [160usize, 96, 48] {
        assert!(max_tile_points(&sweep_fleet, side) <= 256, "side {side}");
    }
    let (_, stats) = collect_prover_stats(|| {
        let grid = UnitGrid::new(Torus::unit(), 96);
        let _ = count_k_view_range(&sweep_fleet, &grid, theta, 2, 0, grid.len());
        let _ = fullview_core::barrier_full_view(&sweep_fleet, theta, 48);
        let _ = full_view_mask_range(&sweep_fleet, theta, 160, 0, 160 * 40);
    });
    assert_eq!(stats, ProverStats::default(), "sweep grids: {stats}");
    let shard_fleet = paper_fleet(5_000, 2);
    let (_, stats) = collect_prover_stats(|| {
        for side in 14usize..=21 {
            assert!(max_tile_points(&shard_fleet, side) <= 256);
            let half = side * side / 2;
            let _ = coverage_glyphs_range(&shard_fleet, theta, side, 0, half);
            let _ = full_view_mask_range(&shard_fleet, theta, side, half, side * side);
            let grid = UnitGrid::new(Torus::unit(), side);
            let _ = count_k_view_range(&shard_fleet, &grid, theta, 3, 1, half);
        }
    });
    assert_eq!(stats, ProverStats::default(), "cluster ranges: {stats}");
}

/// Certificate work the plan may spend where certificates lose to the
/// mask screen (n = 5 000, side 207, θ = 22.5°: tiles of about 1 200
/// points, proofs only on rectangles of a few dozen points). The forced
/// tier makes well over a thousand attempts here; the plan's ledger
/// must stop well before — also in a parallel sweep, whose workers each
/// get their share of the allowance.
const NARROW_NODE_CAP: usize = 400;

#[test]
fn ledger_caps_certificate_work_where_it_does_not_pay() {
    let net = paper_fleet(5_000, 3);
    let theta = EffectiveAngle::new(PI / 8.0).unwrap();
    let grid = UnitGrid::new(Torus::unit(), 207);
    assert!(max_tile_points(&net, 207) > 256, "tiles must be large");
    let want = exact_report(&net, &grid, theta);
    let mut serial_nodes = 0;
    for threads in [1usize, 2, 4] {
        let (report, stats) = collect_prover_stats(|| {
            evaluate_grid_parallel(&net, theta, &grid, Angle::ZERO, threads)
        });
        assert!(stats.nodes > 0, "large tiles try certificates");
        assert!(
            stats.nodes <= NARROW_NODE_CAP,
            "threads={threads}: plan kept trying certificates: {stats}"
        );
        if threads == 1 {
            serial_nodes = stats.nodes;
        }
        // Workers split the serial sweep's allowance: more threads must
        // not buy more certificate work.
        assert!(
            2 * stats.nodes <= 3 * serial_nodes,
            "threads={threads}: {stats} against {serial_nodes} serial attempts"
        );
        assert_eq!(report, want, "threads={threads}");
    }
}
