//! End-to-end tests for the daemon's sweep plan, the `barrier` verb,
//! and the `max-cells` admission budget — all over real TCP on
//! ephemeral ports.
//!
//! The plan contract is the strongest one the daemon makes: whichever
//! tier (certificate, mask screen, exact fallback) decides a point,
//! the wire bytes equal the library's exact answers. Every query is
//! compared against answers rendered from the exact oracle
//! (`GridEvaluator::new_exact`, `PointAnalyzer`) over the
//! identically-built fleet — including grids where certificates fire.

use fullview_core::{
    barrier_full_view, coverage_glyphs_range_with, coverage_map_from_glyphs, dense_grid,
    hole_report_text, holes_from_mask, kfull_text, min_arc_depth, EffectiveAngle, GridEvaluator,
    PointAnalyzer, PointFlags,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, Torus, UnitGrid};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use fullview_service::{Client, Request, Response, Server, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{PI, TAU};
use std::time::Duration;

const N: usize = 60;
const SEED: u64 = 7;

fn test_profile() -> NetworkProfile {
    NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("valid spec"))
}

fn config_with(max_cells: usize) -> ServiceConfig {
    let mut config = ServiceConfig::new(test_profile());
    config.n = N;
    config.seed = SEED;
    config.workers = 2;
    config.max_cells = max_cells;
    config
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    client
}

/// The exact oracle's answer to one query line, rendered as the daemon
/// renders it (`theta` is the daemon default unless the line names one).
fn exact_answer(net: &CameraNetwork, default_theta: EffectiveAngle, line: &str) -> String {
    let req = Request::parse(line).expect("query parses");
    let deg: f64 = req.get("theta-deg", f64::NAN).expect("theta");
    let theta = if deg.is_nan() {
        default_theta
    } else {
        EffectiveAngle::new(deg.to_radians()).expect("theta")
    };
    let torus = *net.torus();
    let flags = |side: usize, lo: usize, hi: usize| -> Vec<PointFlags> {
        let grid = UnitGrid::new(torus, side);
        let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
        (lo..hi)
            .map(|idx| ev.point_flags_with(net, grid.point(idx)))
            .collect()
    };
    let glyphs = |side: usize, lo: usize, hi: usize| {
        let f = flags(side, lo, hi);
        coverage_glyphs_range_with(lo, hi, |emit| {
            for (off, flags) in f.iter().enumerate() {
                emit(lo + off, *flags);
            }
        })
    };
    let kcount = |k: usize, side: usize, lo: usize, hi: usize| {
        let grid = UnitGrid::new(torus, side);
        let mut analyzer = PointAnalyzer::new();
        (lo..hi)
            .filter(|&idx| {
                let view = analyzer.analyze_point_with(net, grid.point(idx));
                min_arc_depth(view.viewed_directions, theta.radians())
                    + usize::from(view.has_colocated_camera)
                    >= k
            })
            .count()
    };
    let side: usize = req.get("side", 48).expect("side");
    let grid: usize = req.get("grid", 24).expect("grid");
    let k: usize = req.get("k", 2).expect("k");
    let total = |s: usize| s * s;
    match req.verb() {
        "check" => {
            let dense = dense_grid(torus, net.len());
            let report = GridEvaluator::new_exact(theta, Angle::ZERO).evaluate_grid(net, &dense);
            format!(
                "{} cameras\n{report}\nfull-view fraction {:.4}\n",
                net.len(),
                report.full_view_fraction()
            )
        }
        "map" => coverage_map_from_glyphs(side, &glyphs(side, 0, total(side))),
        "cells" => {
            let lo: usize = req.get("lo", 0).expect("lo");
            let hi: usize = req.get("hi", total(side)).expect("hi");
            glyphs(side, lo, hi)
        }
        "holes" => {
            let mask: Vec<bool> = flags(grid, 0, total(grid))
                .iter()
                .map(|f| f.full_view)
                .collect();
            hole_report_text(&holes_from_mask(torus, grid, &mask))
        }
        "mask" => {
            let lo: usize = req.get("lo", 0).expect("lo");
            let hi: usize = req.get("hi", total(grid)).expect("hi");
            flags(grid, lo, hi)
                .iter()
                .map(|f| if f.full_view { '1' } else { '0' })
                .collect()
        }
        "kfull" => kfull_text(k, grid, kcount(k, grid, 0, total(grid)), total(grid)),
        "kcount" => {
            let lo: usize = req.get("lo", 0).expect("lo");
            let hi: usize = req.get("hi", total(grid)).expect("hi");
            format!("{}\n", kcount(k, grid, lo, hi))
        }
        "barrier" => format!("{}\n", barrier_full_view(net, theta, grid)),
        other => panic!("no oracle for '{other}'"),
    }
}

/// The `nodes` counter of the daemon's `stats` hier line.
fn prover_nodes(client: &mut Client) -> usize {
    let stats = client.request_ok("stats").expect("stats");
    let line = stats
        .lines()
        .find(|l| l.starts_with("hier: "))
        .unwrap_or_else(|| panic!("no 'hier:' line in:\n{stats}"));
    assert!(!line.contains("enabled="), "{line}");
    line.split_whitespace()
        .nth(2)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no node count in {line}"))
}

#[test]
fn daemon_answers_are_byte_identical_to_the_exact_library() {
    let server = Server::start(config_with(0)).expect("daemon");
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(SEED);
    let net = deploy_uniform(Torus::unit(), &test_profile(), N, &mut rng).unwrap();
    let theta = EffectiveAngle::new(PI / 4.0).unwrap();

    // Every grid-sweep verb, including the ranged scatter verbs the
    // cluster coordinator rides, at a theta that lands on a sector
    // boundary (45° → π/4 = 2θ boundary pressure).
    for query in [
        "check",
        "map side=24",
        "holes grid=16",
        "kfull k=2 grid=16",
        "cells side=20 lo=37 hi=311",
        "mask grid=20 lo=0 hi=400",
        "kcount k=1 grid=18 lo=5 hi=200",
        "map side=24 theta-deg=60",
        "barrier grid=12",
    ] {
        let got = client.request_ok(query).expect(query);
        assert_eq!(
            got,
            exact_answer(&net, theta, query),
            "'{query}' bytes differ"
        );
    }
}

/// A dense omnidirectional scatter on which certificates prove most of a
/// fine grid.
fn dense_omni() -> CameraNetwork {
    let spec = SensorSpec::new(0.12, TAU).unwrap();
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

#[test]
fn certificate_answers_are_byte_identical_to_the_exact_library() {
    let net = dense_omni();
    let mut config = ServiceConfig::new(test_profile());
    config.n = net.len();
    config.preloaded = Some(net.clone());
    let theta = EffectiveAngle::new(PI / 3.0).unwrap();
    config.theta = theta;
    let server = Server::start(config).expect("daemon");
    let mut client = connect(&server);
    assert_eq!(prover_nodes(&mut client), 0, "no sweep ran yet");

    // 384² points on an 8×8 tile lattice: tiles of 2 304 points, where
    // the plan tries certificates and they pay.
    for query in [
        "map side=384",
        "holes grid=384",
        "cells side=384 lo=1000 hi=90000",
        "mask grid=384 lo=70000 hi=147456",
        "kcount k=2 grid=320 lo=0 hi=102400",
        "kfull k=3 grid=320",
    ] {
        let got = client.request_ok(query).expect(query);
        assert_eq!(
            got,
            exact_answer(&net, theta, query),
            "'{query}' bytes differ"
        );
    }
    assert!(prover_nodes(&mut client) > 0, "certificates never ran");
}

#[test]
fn barrier_verb_matches_the_direct_library_call() {
    let server = Server::start(config_with(0)).expect("daemon");
    let mut client = connect(&server);

    let mut rng = StdRng::seed_from_u64(SEED);
    let net = deploy_uniform(Torus::unit(), &test_profile(), N, &mut rng).unwrap();

    for (query, theta_deg, grid) in [
        ("barrier grid=12", 45.0, 12),
        ("barrier grid=9 theta-deg=60", 60.0, 9),
    ] {
        let got = client.request_ok(query).expect(query);
        let theta = EffectiveAngle::new(f64::to_radians(theta_deg)).unwrap();
        let want = format!("{}\n", barrier_full_view(&net, theta, grid));
        assert_eq!(got, want, "'{query}' differs from the direct call");
    }

    // The allowlist still rejects stray parameters with the shared hint.
    let reply = client.request("barrier grid=12 side=9").expect("send");
    match reply {
        Response::Err(message) => {
            assert!(message.contains("unknown parameter 'side'"), "{message}")
        }
        Response::Ok(payload) => panic!("stray parameter accepted: {payload}"),
    }
}

#[test]
fn max_cells_budget_rejects_oversized_grids_and_daemon_keeps_serving() {
    let server = Server::start(config_with(1_024)).expect("daemon");
    let mut client = connect(&server);

    // Within budget: 20×20 = 400 ≤ 1024.
    let within = client.request_ok("map side=20").expect("small map");
    assert!(!within.is_empty());

    // Over budget: every sweep verb is rejected with the named frame,
    // without the daemon attempting the allocation.
    for query in [
        "map side=64",
        "cells side=64 lo=0 hi=1",
        "mask grid=40 lo=0 hi=1",
        "kcount k=1 grid=40 lo=0 hi=1",
        "holes grid=40",
        "kfull k=1 grid=40",
        "barrier grid=40",
    ] {
        match client.request(query).expect("send") {
            Response::Err(message) => assert!(
                message.contains("max-cells exceeded") && message.contains("1024-cell budget"),
                "'{query}': {message}"
            ),
            Response::Ok(payload) => panic!("'{query}' over budget was served: {payload}"),
        }
    }

    // The rejection is per-request: the same connection keeps serving.
    assert_eq!(client.request_ok("ping").expect("ping"), "pong\n");
    let again = client.request_ok("map side=20").expect("map after rejects");
    assert_eq!(again, within, "served bytes changed after budget rejects");
}
