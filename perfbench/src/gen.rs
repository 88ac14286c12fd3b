//! Seeded inputs: fleets and request streams.
//!
//! Everything a workload feeds the system is derived here from the
//! `--seed` argument alone, so the same seed always yields the same
//! fleet and the same request stream (pinned by the tests below). The
//! system under test only ever sees the generated fleet and request
//! lines.

use fullview_core::{csa_sufficient, EffectiveAngle};
use fullview_deploy::deploy_uniform;
use fullview_geom::Torus;
use fullview_model::{CameraNetwork, NetworkProfile, SensorSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

/// SplitMix64: a tiny, fully specified generator for request streams.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for one purpose, so fleet and stream draws never share
/// random numbers.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng64::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// θ in degrees as an effective angle.
pub fn theta(deg: f64) -> EffectiveAngle {
    EffectiveAngle::new(deg.to_radians()).expect("benchmark angles are valid")
}

/// The paper's heterogeneous camera mix (50% wide, 30% medium, 20%
/// narrow long-range) scaled to the sufficient critical sensing area of
/// Theorem 2 for `n` cameras at θ = 45°: the regime of Figs. 7–8.
pub fn paper_profile(n: usize) -> NetworkProfile {
    let spec = |area: f64, aov: f64| SensorSpec::with_sensing_area(area, aov).expect("valid spec");
    NetworkProfile::builder()
        .group(spec(1.2, PI), 0.5)
        .group(spec(1.0, PI / 2.0), 0.3)
        .group(spec(0.5, PI / 4.0), 0.2)
        .build()
        .expect("fractions sum to one")
        .scale_to_weighted_area(csa_sufficient(n, theta(45.0)))
        .expect("positive target area")
}

/// The seeded uniform deployment of `n` paper-profile cameras on the
/// unit torus.
pub fn fleet(n: usize, seed: u64) -> CameraNetwork {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    deploy_uniform(Torus::unit(), &paper_profile(n), n, &mut rng)
        .expect("paper profile fits the unit torus")
}

/// What a request exercises, as the load generator classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A read of the small hot set on a persistent connection.
    Hot,
    /// A read with fresh parameters (a cache miss by construction).
    Miss,
    /// A `move` mutation.
    Write,
    /// A hot read on its own short-lived connection, like `fvc query`.
    OneShot,
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub line: String,
    pub class: Class,
}

/// The `serve` hot set: one repeated read per query verb. Small grids
/// keep recomputation after each `move` cheap, so reads stay mostly
/// cache hits while writes still force repair. `check` (the first entry)
/// is read only before and after the timed load: on this fleet its
/// dense-grid repair after a move holds the fleet's read lock for about
/// 100 ms, and a `move` that arrives meanwhile stalls every reader, so
/// in the timed mix it made p99 a count of such coincidences.
pub const SERVE_HOT: [&str; 6] = [
    "check",
    "map side=8",
    "holes grid=8",
    "kfull k=2 grid=8",
    "prob density=800",
    "barrier grid=8",
];

/// Every `WRITE_EVERY`-th `serve` request is a `move`: a trickle at a
/// fixed share of the traffic (2.5%), so the number of repairs per request
/// is the same at every rate the load offers. After a move each hot read
/// recomputes once (1-10 ms against about 0.2 ms for a hit), so at this
/// share repairs stay a visible but minor part of the daemon's work.
pub const WRITE_EVERY: usize = 40;

/// Share of the other `serve` requests per class, in per mille: the mix
/// that defines the workload. Cache hits are the bulk of it; misses with
/// fresh parameters and one-shot connections are each a small, steady
/// minority (about 40 of every 1 000 requests), enough that every run
/// sends a few hundred of each.
const SERVE_MIX: [(Class, u64); 3] = [(Class::Hot, 920), (Class::Miss, 40), (Class::OneShot, 40)];

/// The `serve` request stream over a fleet of `cameras` cameras: an
/// endless, seeded sequence (take as many as a run needs). Moves pick
/// cameras from the first half of the fleet, the wide-angle group of the
/// paper mix, whose sensing disks are alike, so each repair costs about
/// the same.
pub fn serve_stream(seed: u64, cameras: usize) -> impl Iterator<Item = Req> {
    let mut rng = Rng64::new(sub_seed(seed, 2));
    let mut misses = 0u64;
    (0usize..).map(move |i| {
        let mut pick = rng.below(1000) as u64;
        let class = if i % WRITE_EVERY == WRITE_EVERY / 2 {
            Class::Write
        } else {
            SERVE_MIX
                .iter()
                .find(|(_, share)| {
                    let hit = pick < *share;
                    pick = pick.saturating_sub(*share);
                    hit
                })
                .map_or(Class::Hot, |(c, _)| *c)
        };
        let line = match class {
            Class::Hot | Class::OneShot => {
                SERVE_HOT[1 + rng.below(SERVE_HOT.len() - 1)].to_string()
            }
            Class::Miss => {
                // A running counter makes every miss parameter unique.
                misses += 1;
                if misses.is_multiple_of(2) {
                    format!("prob density={:.3}", 400.0 + misses as f64 * 0.125)
                } else {
                    format!(
                        "map side={} theta-deg={:.4}",
                        8 + rng.below(5),
                        20.0 + (misses % 60_000) as f64 * 0.001
                    )
                }
            }
            Class::Write => format!(
                "move id={} x={:.6} y={:.6}",
                rng.below(cameras.div_ceil(2)),
                rng.unit(),
                rng.unit()
            ),
        };
        Req { line, class }
    })
}

/// The `cluster` angles: narrow, so the mask screen and the prover
/// decide few points and the exact fallback does most of the work.
pub const CLUSTER_THETAS: [f64; 2] = [11.25, 22.5];

/// The `cluster` request stream: `map`/`holes`/`kfull` over a seeded
/// permutation of (θ, size, k) keys. Each pass over the permutation
/// shifts θ by another 10⁻⁴ degrees, so no key ever repeats and every
/// request misses the cache.
pub fn cluster_stream(seed: u64) -> impl Iterator<Item = Req> {
    let mut keys = Vec::new();
    for theta in CLUSTER_THETAS {
        for size in 14..22 {
            keys.push(("map", format!("side={size}"), theta));
            keys.push(("holes", format!("grid={size}"), theta));
            for k in 1..=3 {
                keys.push(("kfull", format!("k={k} grid={size}"), theta));
            }
        }
    }
    let mut rng = Rng64::new(sub_seed(seed, 3));
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    (0u32..).flat_map(move |pass| {
        keys.clone()
            .into_iter()
            .map(move |(verb, params, theta)| Req {
                line: format!(
                    "{verb} {params} theta-deg={:.4}",
                    theta + f64::from(pass) * 1e-4
                ),
                class: Class::Miss,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_core::canon::network_fingerprint;

    #[test]
    fn same_seed_same_fleet_and_streams() {
        assert_eq!(
            network_fingerprint(&fleet(500, 7)),
            network_fingerprint(&fleet(500, 7))
        );
        assert_ne!(
            network_fingerprint(&fleet(500, 7)),
            network_fingerprint(&fleet(500, 8))
        );
        let a: Vec<Req> = serve_stream(7, 500).take(2000).collect();
        let b: Vec<Req> = serve_stream(7, 500).take(2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, serve_stream(8, 500).take(2000).collect::<Vec<_>>());
        let cluster = |seed| cluster_stream(seed).take(500).collect::<Vec<_>>();
        assert_eq!(cluster(7), cluster(7));
        assert_ne!(cluster(7), cluster(8));
    }

    #[test]
    fn serve_mix_has_every_class_and_unique_misses() {
        let reqs: Vec<Req> = serve_stream(1, 500).take(5000).collect();
        for class in [Class::Hot, Class::Miss, Class::Write, Class::OneShot] {
            assert!(reqs.iter().any(|r| r.class == class), "{class:?} missing");
        }
        let misses: Vec<&str> = reqs
            .iter()
            .filter(|r| r.class == Class::Miss)
            .map(|r| r.line.as_str())
            .collect();
        let unique: std::collections::HashSet<&&str> = misses.iter().collect();
        assert_eq!(
            unique.len(),
            misses.len(),
            "every miss has fresh parameters"
        );
    }

    #[test]
    fn cluster_keys_are_distinct() {
        let reqs: Vec<Req> = cluster_stream(3).take(1000).collect();
        let unique: std::collections::HashSet<&String> = reqs.iter().map(|r| &r.line).collect();
        assert_eq!(unique.len(), reqs.len());
    }
}
