//! Expected answers, computed in-process from the library.
//!
//! [`Mirror`] answers request lines the way the daemon's default path
//! does, on its own copy of the fleet that applies the same `move`s, so
//! daemon and cluster replies can be compared byte for byte. The sweep
//! helpers build reference answers from per-point flags, and
//! [`exact_mismatches`] checks those flags against the exact engine
//! (`GridEvaluator::new_exact`) on a sample of points. [`check_traffic`]
//! checks every reply a daemon or the cluster gave against a mirror.

use crate::gen::{Class, Rng64};
use crate::load::Sample;
use crate::Outcome;
use fullview_core::{
    barrier_full_view, count_k_view_range, coverage_glyphs_range, coverage_glyphs_range_with,
    coverage_map_from_glyphs, coverage_map_text, dense_grid, find_holes,
    for_each_view_multiplicity, hole_report_text, holes_from_mask, kfull_text,
    prob_point_full_view_poisson, prob_point_meets_necessary_poisson,
    prob_point_meets_sufficient_poisson, sweep_flags_range, BarrierReport, EffectiveAngle,
    GridEvaluator, GridTiling, IncrementalSweep, PointFlags,
};
use fullview_geom::{Angle, Point, UnitGrid};
use fullview_model::{CameraNetwork, NetworkProfile};
use fullview_service::Request;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

const NO_FLAGS: PointFlags = PointFlags {
    covered: false,
    k_covered: false,
    necessary: false,
    full_view: false,
    sufficient: false,
};

/// Every point's flags from the default engine (mask screen with exact
/// fallback), indexed by grid index.
pub fn default_flags(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
) -> Vec<PointFlags> {
    let mut flags = vec![NO_FLAGS; grid.len()];
    sweep_flags_range(net, grid, theta, Angle::ZERO, 0, grid.len(), |i, f| {
        flags[i] = f
    });
    flags
}

/// Every point's flags from the tiled exact engine.
pub fn exact_flags(net: &CameraNetwork, grid: &UnitGrid, theta: EffectiveAngle) -> Vec<PointFlags> {
    let mut flags = vec![NO_FLAGS; grid.len()];
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
    for t in 0..tiling.tile_count() {
        ev.for_each_point_flags_in_tile(&mut cursor, &tiling, grid, t, &mut |i, f| flags[i] = f);
    }
    flags
}

/// How many of `samples` seeded grid points have `flags` that differ
/// from the exact engine's per-point verdicts.
pub fn exact_mismatches(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    flags: &[PointFlags],
    samples: usize,
    seed: u64,
) -> usize {
    let mut rng = Rng64::new(seed);
    let mut ev = GridEvaluator::new_exact(theta, Angle::ZERO);
    (0..samples)
        .filter(|_| {
            let i = rng.below(grid.len());
            ev.point_flags_with(net, grid.point(i)) != flags[i]
        })
        .count()
}

/// The coverage-map text of a `side × side` grid with the given flags.
pub fn map_text(side: usize, flags: &[PointFlags]) -> String {
    let glyphs = coverage_glyphs_range_with(0, flags.len(), |emit| {
        for (i, f) in flags.iter().enumerate() {
            emit(i, *f);
        }
    });
    coverage_map_from_glyphs(side, &glyphs)
}

pub fn full_view_mask(flags: &[PointFlags]) -> Vec<bool> {
    flags.iter().map(|f| f.full_view).collect()
}

/// The barrier report of a `side × side` full-view mask: a 4-connected
/// chain of covered cells from the left column to the right one, with
/// vertical wrap-around.
pub fn barrier_of(side: usize, covered: &[bool]) -> BarrierReport {
    let mut seen = vec![false; covered.len()];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for j in 0..side {
        if covered[j * side] {
            seen[j * side] = true;
            queue.push_back((0, j));
        }
    }
    let covered_cells = covered.iter().filter(|c| **c).count();
    let mut has_barrier = side == 1 && covered_cells > 0;
    while let Some((i, j)) = queue.pop_front() {
        if i == side - 1 {
            has_barrier = true;
            break;
        }
        let mut next = vec![(i, (j + 1) % side), (i, (j + side - 1) % side), (i + 1, j)];
        if i > 0 {
            next.push((i - 1, j));
        }
        for (ni, nj) in next {
            let idx = nj * side + ni;
            if covered[idx] && !seen[idx] {
                seen[idx] = true;
                queue.push_back((ni, nj));
            }
        }
    }
    BarrierReport {
        grid_side: side,
        covered_cells,
        has_barrier,
    }
}

/// Points of `grid` whose view multiplicity is at least `k`, from the
/// exact analyzer.
pub fn kcount_exact(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    k: usize,
) -> usize {
    let mut meeting = 0;
    for_each_view_multiplicity(net, grid, theta, |_, m| meeting += usize::from(m >= k));
    meeting
}

/// Grid points a read decides, for throughput accounting (`prob` is a
/// closed form and decides none).
pub fn points_of(line: &str, dense_points: usize) -> usize {
    let Ok(req) = Request::parse(line) else {
        return 0;
    };
    let side = |key: &str, default: usize| -> usize { req.get(key, default).unwrap_or(default) };
    match req.verb() {
        "check" => dense_points,
        "map" | "cells" => side("side", 48).pow(2),
        "holes" | "kfull" | "barrier" | "mask" | "kcount" => side("grid", 24).pow(2),
        _ => 0,
    }
}

/// The in-process twin of a daemon: the same fleet, the same `move`s,
/// and the daemon's answer bytes for every read verb.
#[derive(Clone)]
pub struct Mirror {
    pub net: CameraNetwork,
    profile: NetworkProfile,
    theta_default: EffectiveAngle,
    check_states: HashMap<u64, IncrementalSweep>,
}

impl Mirror {
    pub fn new(net: CameraNetwork, profile: NetworkProfile, theta_default: EffectiveAngle) -> Self {
        Mirror {
            net,
            profile,
            theta_default,
            check_states: HashMap::new(),
        }
    }

    /// Applies a `move` line and returns the stable prefix of the
    /// daemon's acknowledgement (the invalidation count that follows it
    /// depends on cache state, not on the fleet).
    pub fn apply_move(&mut self, line: &str) -> Result<String, String> {
        let req = Request::parse(line)?;
        let id: usize = req.require("id")?;
        let x: f64 = req.require("x")?;
        let y: f64 = req.require("y")?;
        let before = *self.net.cameras().get(id).ok_or("no such camera")?;
        self.net.move_camera(id, Point::new(x, y));
        let after = self.net.cameras()[id].position();
        let radius = before.spec().radius();
        for state in self.check_states.values_mut() {
            state.mark_disk(before.position(), radius);
            state.mark_disk(after, radius);
        }
        Ok(format!("moved camera {id} to {after};"))
    }

    /// The daemon's reply payload for a read line.
    pub fn answer(&mut self, line: &str) -> Result<String, String> {
        let req = Request::parse(line)?;
        let deg: f64 = req.get("theta-deg", f64::NAN)?;
        let theta = if deg.is_nan() {
            self.theta_default
        } else {
            EffectiveAngle::new(deg.to_radians()).map_err(|e| e.to_string())?
        };
        let side: usize = req.get("side", 48)?;
        let grid_side: usize = req.get("grid", 24)?;
        let k: usize = req.get("k", 2)?;
        let lo: usize = req.get("lo", 0)?;
        let net = &self.net;
        let torus = *net.torus();
        Ok(match req.verb() {
            "check" => {
                let side = dense_grid(torus, net.len()).side_count();
                let state = self
                    .check_states
                    .entry(theta.radians().to_bits())
                    .or_insert_with(|| IncrementalSweep::new(net, theta, Angle::ZERO, side));
                state.resweep_dirty(net);
                let report = state.report();
                format!(
                    "{} cameras\n{report}\nfull-view fraction {:.4}\n",
                    net.len(),
                    report.full_view_fraction()
                )
            }
            "map" => coverage_map_text(net, theta, side),
            "holes" => hole_report_text(&find_holes(net, theta, grid_side)),
            "kfull" => {
                let grid = UnitGrid::new(torus, grid_side);
                let meeting = count_k_view_range(net, &grid, theta, k, 0, grid.len());
                kfull_text(k, grid_side, meeting, grid.len())
            }
            "barrier" => format!("{}\n", barrier_full_view(net, theta, grid_side)),
            "prob" => {
                let density: f64 = req.get("density", 800.0)?;
                let p = &self.profile;
                let mut out = String::new();
                let _ = writeln!(out, "density {density}, {theta}");
                let _ = writeln!(
                    out,
                    "P_N (Theorem 3) = {:.4}",
                    prob_point_meets_necessary_poisson(p, density, theta)
                );
                let _ = writeln!(
                    out,
                    "P_S (Theorem 4) = {:.4}",
                    prob_point_meets_sufficient_poisson(p, density, theta)
                );
                let _ = writeln!(
                    out,
                    "exact P(full-view) = {:.4}",
                    prob_point_full_view_poisson(p, density, theta)
                );
                out
            }
            "cells" => {
                let hi: usize = req.get("hi", side * side)?;
                coverage_glyphs_range(net, theta, side, lo, hi)
            }
            "mask" => {
                let grid = UnitGrid::new(torus, grid_side);
                let hi: usize = req.get("hi", grid.len())?;
                let flags = default_flags(net, &grid, theta);
                flags[lo..hi]
                    .iter()
                    .map(|f| if f.full_view { '1' } else { '0' })
                    .collect()
            }
            "kcount" => {
                let grid = UnitGrid::new(torus, grid_side);
                let hi: usize = req.get("hi", grid.len())?;
                format!("{}\n", count_k_view_range(net, &grid, theta, k, lo, hi))
            }
            other => return Err(format!("mirror does not answer '{other}'")),
        })
    }
}

/// The hole report text of a full-view mask on a `side × side` grid.
pub fn holes_text(net: &CameraNetwork, side: usize, flags: &[PointFlags]) -> String {
    hole_report_text(&holes_from_mask(*net.torus(), side, &full_view_mask(flags)))
}

/// Counts every request of `traffic` as attempted, and every `err` frame,
/// transport error and wrong answer as failed.
pub fn check_traffic(
    label: &str,
    mirror: &Mirror,
    traffic: &[(Sample, String)],
    out: &mut Outcome,
) {
    let wrong = verify(mirror, traffic);
    let errors: Vec<&(Sample, String)> = traffic.iter().filter(|(s, _)| s.ok().is_none()).collect();
    for (s, line) in errors.iter().take(5) {
        println!(
            "{label}: failed {line:?}: {}",
            s.error().unwrap_or_default()
        );
    }
    out.attempted += traffic.len() as u64;
    out.failed += errors.len() as u64 + wrong;
    out.wrong += wrong;
}

/// Checks every reply against the mirror. `traffic` holds each sample
/// with its request line, from every phase. Returns the wrong answers.
pub fn verify(mirror: &Mirror, traffic: &[(Sample, String)]) -> u64 {
    let mut moves: Vec<&(Sample, String)> = traffic
        .iter()
        .filter(|(s, _)| s.class == Class::Write && s.ok().is_some())
        .collect();
    moves.sort_by_key(|(s, _)| s.sent_ns);
    let reads: Vec<&(Sample, String)> = traffic
        .iter()
        .filter(|(s, line)| s.class != Class::Write && s.ok().is_some() && line != "ping")
        .collect();
    // Two threads, each with its own mirror, split the distinct lines.
    let lane = |line: &str| {
        line.bytes()
            .fold(0usize, |h, b| h.wrapping_mul(31) + b as usize)
            % 2
    };
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|t| {
                let mut mirror = mirror.clone();
                let moves = &moves;
                let mine: Vec<&(Sample, String)> = reads
                    .iter()
                    .copied()
                    .filter(|(_, l)| lane(l) == t)
                    .collect();
                s.spawn(move || verify_lane(&mut mirror, moves, &mine, t == 0))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("verify thread"))
            .sum()
    })
}

fn verify_lane(
    mirror: &mut Mirror,
    moves: &[&(Sample, String)],
    reads: &[&(Sample, String)],
    check_moves: bool,
) -> u64 {
    // A read may have seen any version from the moves acknowledged before
    // it was sent up to the moves sent before its reply arrived.
    let mut by_lo: Vec<(usize, usize, &str, &str)> = reads
        .iter()
        .map(|(s, line)| {
            let lo = moves.iter().filter(|(m, _)| m.recv_ns < s.sent_ns).count();
            let hi = moves.iter().filter(|(m, _)| m.sent_ns < s.recv_ns).count();
            (
                lo,
                hi.max(lo),
                line.as_str(),
                s.ok().expect("ok reads only"),
            )
        })
        .collect();
    by_lo.sort_by_key(|r| r.0);
    let mut wrong = 0u64;
    let mut next = 0usize;
    let mut pending: Vec<(usize, &str, &str)> = Vec::new();
    for v in 0..=moves.len() {
        while next < by_lo.len() && by_lo[next].0 == v {
            let (_, hi, line, payload) = by_lo[next];
            pending.push((hi, line, payload));
            next += 1;
        }
        let mut memo: HashMap<&str, Result<String, String>> = HashMap::new();
        pending.retain(|(hi, line, payload)| {
            let expected = memo.entry(line).or_insert_with(|| mirror.answer(line));
            if expected.as_deref() == Ok(*payload) {
                return false;
            }
            if *hi == v {
                wrong += 1;
                println!("wrong answer to {line:?}");
                return false;
            }
            true
        });
        if let Some((sample, line)) = moves.get(v) {
            let ack = mirror.apply_move(line);
            if check_moves
                && !matches!(&ack, Ok(prefix) if sample.ok().is_some_and(|p| p.starts_with(prefix.as_str())))
            {
                wrong += 1;
                println!("wrong acknowledgement to {line:?}");
            }
        }
    }
    wrong + pending.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::load::Reply;
    use rand::SeedableRng;

    fn sample(idx: usize, class: Class, at: u64, payload: String) -> Sample {
        Sample {
            idx,
            class,
            due_ns: at,
            sent_ns: at,
            recv_ns: at + 1,
            connect_ns: None,
            reply: Reply::Ok(payload),
        }
    }

    /// Swaps the first cell of the map's top row for another glyph.
    fn flip_one_glyph(map: &str) -> String {
        let at = map.find('|').expect("framed row") + 1;
        let old = map[at..].chars().next().expect("a cell");
        let new = if old == '#' { 'F' } else { '#' };
        format!("{}{new}{}", &map[..at], &map[at + old.len_utf8()..])
    }

    #[test]
    fn one_wrong_glyph_is_counted() {
        let mirror = Mirror::new(
            gen::fleet(1000, 5),
            gen::paper_profile(1000),
            gen::theta(45.0),
        );
        let line = "map side=12".to_string();
        let good = mirror.clone().answer(&line).expect("mirror answers");
        let bad = flip_one_glyph(&good);
        assert_ne!(good, bad);
        let mut traffic = vec![(sample(0, Class::Hot, 10, good.clone()), line.clone())];
        assert_eq!(verify(&mirror, &traffic), 0);
        traffic.push((sample(1, Class::Hot, 20, bad), line.clone()));
        assert_eq!(verify(&mirror, &traffic), 1);
    }

    #[test]
    fn reads_may_match_any_version_in_flight() {
        // A sparse fleet, so that moving one camera changes the map.
        let profile = gen::paper_profile(1000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net =
            fullview_deploy::deploy_uniform(fullview_geom::Torus::unit(), &profile, 60, &mut rng)
                .expect("profile fits");
        let mirror = Mirror::new(net, profile, gen::theta(45.0));
        let line = "map side=24".to_string();
        let mv = "move id=3 x=0.5 y=0.5".to_string();
        let mut moved = mirror.clone();
        let ack = moved.apply_move(&mv).expect("valid move");
        let after = moved.answer(&line).expect("mirror answers");
        let before = mirror.clone().answer(&line).expect("mirror answers");
        assert_ne!(before, after, "the move changes the map");
        // The read overlaps the move (sent before its ack, answered after
        // it was sent), so either version is right; a read sent after the
        // ack must see the move.
        let write = Sample {
            recv_ns: 50,
            ..sample(
                0,
                Class::Write,
                40,
                format!("{ack} invalidated 0 cached results\n"),
            )
        };
        let overlapping = Sample {
            recv_ns: 60,
            ..sample(1, Class::Hot, 30, before.clone())
        };
        let late = sample(2, Class::Hot, 70, before);
        let traffic = vec![(write.clone(), mv.clone()), (overlapping, line.clone())];
        assert_eq!(verify(&mirror, &traffic), 0);
        let traffic = vec![(write, mv), (late, line)];
        assert_eq!(verify(&mirror, &traffic), 1);
    }
}
