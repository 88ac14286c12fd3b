//! Conservative interval bounds of one camera against an axis-aligned
//! rectangle of grid points on the torus.
//!
//! The prover never looks at individual grid points of a rectangle it
//! wants to certify; instead it bounds, over the whole closed rectangle
//! `[x0, x1] × [y0, y1]` of point centres, the wrapped displacement
//! `Δ = wrap(camera − point)` the exact engine would compute per point:
//!
//! * a per-axis interval of `wrap`-ped deltas, tracking whether the
//!   rectangle straddles the `±side/2` wrap seam on that axis;
//! * from the per-axis absolute-value intervals, lower/upper bounds on
//!   the camera distance (`dmin`, `dmax`);
//! * when neither axis straddles the seam, the **viewed-direction cone**:
//!   a closed arc `[center − half, center + half]` guaranteed to contain
//!   the viewed direction `atan2(Δy, Δx)` of *every* rectangle point.
//!
//! Every bound is widened by explicit margins (`DIST_BAND`, `ANG_BAND`,
//! `RECT_WIDEN`) several orders of magnitude above f64 rounding noise, so
//! a certificate built from these bounds implies the exact per-point
//! predicate *strictly* — any point the bounds cannot decide with margin
//! to spare is left to the exact engine.

use fullview_geom::Point;
use fullview_geom::Torus;

/// Absolute distance slack (scaled by the torus side at the call sites
/// via [`dist_band`]): a camera only counts as surely-in-range when
/// `dmax + band < r`, surely-out-of-range when `dmin > r + band`.
pub(crate) const DIST_BAND: f64 = 1e-9;

/// Angular slack for cone-in-sector and cone-in-field-of-view tests —
/// far above both `ANGLE_EPS` (1e-9) and f64 `atan2` noise (~1e-15), so
/// a containment proven here survives the exact engine's closed
/// comparisons with room to spare.
pub(crate) const ANG_BAND: f64 = 1e-7;

/// Outward widening of the delta rectangle before taking corner
/// directions, absorbing the rounding difference between the exact
/// engine's per-point `wrap(camera − point)` and our interval endpoints.
const RECT_WIDEN: f64 = 1e-12;

/// The distance slack for a torus of side `side` (the bands are absolute
/// quantities on the unit torus; scale them with the geometry).
pub(crate) fn dist_band(side: f64) -> f64 {
    DIST_BAND * side.max(1.0)
}

/// Closed rectangle of grid-point centres, in fundamental-domain
/// coordinates (`x0 <= x1`, `y0 <= y1`; a single point is a degenerate
/// rectangle with `x0 == x1`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rect {
    pub x0: f64,
    pub x1: f64,
    pub y0: f64,
    pub y1: f64,
}

/// One axis of the wrapped-delta interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AxisBound {
    /// `Some((w0, w1))` when the delta is continuous over the rectangle
    /// (no `±side/2` seam crossing): every point's wrapped delta lies in
    /// `[w0, w1]`. `None` when the rectangle straddles the seam — only
    /// the absolute bounds below remain usable.
    pub cont: Option<(f64, f64)>,
    /// Lower bound of `|Δ|` over the rectangle.
    pub abs_lo: f64,
    /// Upper bound of `|Δ|` over the rectangle.
    pub abs_hi: f64,
}

/// `|x|` range over the closed interval `[a, b]`.
fn abs_range(a: f64, b: f64) -> (f64, f64) {
    debug_assert!(a <= b);
    if a <= 0.0 && b >= 0.0 {
        (0.0, (-a).max(b))
    } else if a > 0.0 {
        (a, b)
    } else {
        (-b, -a)
    }
}

/// Bounds `wrap(cam − p)` for `p ∈ [p0, p1]` on a torus axis of length
/// `side`, using the torus' own wrap so the interval endpoints are the
/// very values the exact engine computes at the rectangle edges.
pub(crate) fn axis_bound(torus: &Torus, cam: f64, p0: f64, p1: f64) -> AxisBound {
    debug_assert!(p0 <= p1);
    let side = torus.side();
    let half = 0.5 * side;
    // cam − p is decreasing in p: p1 gives the smallest raw delta.
    let u0 = cam - p1;
    let u1 = cam - p0;
    if u1 - u0 >= side {
        // The rectangle spans the whole axis; the delta takes every value.
        return AxisBound {
            cont: None,
            abs_lo: 0.0,
            abs_hi: half,
        };
    }
    let w0 = torus.wrap_coord_delta(u0);
    let w1 = torus.wrap_coord_delta(u1);
    if w0 <= w1 && ((w1 - w0) - (u1 - u0)).abs() <= 1e-9 * side.max(1.0) {
        // Both endpoints wrapped by the same multiple of `side` and the
        // interval keeps its width: wrap is continuous over it, so every
        // interior delta lies in [w0, w1].
        let (abs_lo, abs_hi) = abs_range(w0, w1);
        AxisBound {
            cont: Some((w0, w1)),
            abs_lo,
            abs_hi,
        }
    } else {
        // Seam straddle: wrapped values split into [w0, half) ∪ [−half, w1].
        let (la, ha) = abs_range(w0, half);
        let (lb, hb) = abs_range(-half, w1);
        AxisBound {
            cont: None,
            abs_lo: la.min(lb),
            abs_hi: ha.max(hb),
        }
    }
}

/// Conservative camera-versus-rectangle bound: distance interval plus,
/// on request, the viewed-direction cone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CamBound {
    /// Lower bound of the wrapped camera distance over the rectangle.
    pub dmin: f64,
    /// Upper bound of the wrapped camera distance over the rectangle.
    pub dmax: f64,
    /// The per-axis delta intervals when neither straddles the seam.
    deltas: Option<((f64, f64), (f64, f64))>,
}

impl CamBound {
    /// Closed arc `[center − half, center + half]` containing every
    /// rectangle point's viewed direction towards the camera, or `None`
    /// when no such cone can be certified (seam straddle, camera inside
    /// or too close to the rectangle, or a cone too wide to be useful).
    /// Computed on demand: it costs four `atan2`s, and only cameras that
    /// reach the whole rectangle need it.
    pub(crate) fn cone(&self) -> Option<(fullview_geom::Angle, f64)> {
        self.deltas.and_then(|(dx, dy)| direction_cone(dx, dy))
    }
}

pub(crate) fn bound_camera(torus: &Torus, cam: Point, rect: &Rect) -> CamBound {
    let bx = axis_bound(torus, cam.x, rect.x0, rect.x1);
    let by = axis_bound(torus, cam.y, rect.y0, rect.y1);
    CamBound {
        dmin: bx.abs_lo.hypot(by.abs_lo),
        dmax: bx.abs_hi.hypot(by.abs_hi),
        deltas: bx.cont.zip(by.cont),
    }
}

/// The minimal closed arc containing `atan2(y, x)` over the delta
/// rectangle `[x0, x1] × [y0, y1]`, or `None` when the origin lies in
/// (or touches) the rectangle, the directions span (close to) a
/// half-circle, or the cone is too wide to prove anything.
///
/// For a convex region avoiding the origin, the direction extremes are
/// attained at vertices, so the arc spanned by the four corner
/// directions contains every interior point's direction.
fn direction_cone(
    (x0, x1): (f64, f64),
    (y0, y1): (f64, f64),
) -> Option<(fullview_geom::Angle, f64)> {
    use std::f64::consts::{FRAC_PI_2, PI, TAU};
    let (x0, x1) = (x0 - RECT_WIDEN, x1 + RECT_WIDEN);
    let (y0, y1) = (y0 - RECT_WIDEN, y1 + RECT_WIDEN);
    if x0 <= 0.0 && x1 >= 0.0 && y0 <= 0.0 && y1 >= 0.0 {
        // Origin inside: the directions wrap the whole circle.
        return None;
    }
    let corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)];
    let a0 = corners[0].1.atan2(corners[0].0);
    let mut omin = 0.0f64;
    let mut omax = 0.0f64;
    for &(x, y) in &corners[1..] {
        let mut o = y.atan2(x) - a0;
        if o > PI {
            o -= TAU;
        } else if o < -PI {
            o += TAU;
        }
        if o.abs() > PI - 1e-6 {
            // Too close to a half-circle: the ± ambiguity of the
            // normalization could flip a corner to the wrong side.
            return None;
        }
        omin = omin.min(o);
        omax = omax.max(o);
    }
    let half = 0.5 * (omax - omin);
    if half >= FRAC_PI_2 {
        return None;
    }
    Some((fullview_geom::Angle::new(a0 + 0.5 * (omin + omax)), half))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::Angle;

    /// Sample the rectangle: 4 corners, edge midpoints, and an interior
    /// lattice — every sample must respect the claimed bounds.
    fn rect_samples(rect: &Rect) -> Vec<Point> {
        let mut pts = Vec::new();
        let n = 7;
        for i in 0..=n {
            for j in 0..=n {
                let fx = i as f64 / n as f64;
                let fy = j as f64 / n as f64;
                pts.push(Point::new(
                    rect.x0 + fx * (rect.x1 - rect.x0),
                    rect.y0 + fy * (rect.y1 - rect.y0),
                ));
            }
        }
        pts
    }

    fn check_bound(torus: &Torus, cam: Point, rect: &Rect) {
        let b = bound_camera(torus, cam, rect);
        assert!(
            b.dmin <= b.dmax + 1e-12,
            "dmin {} > dmax {}",
            b.dmin,
            b.dmax
        );
        for p in rect_samples(rect) {
            let d = torus.distance(cam, p);
            assert!(
                b.dmin - 1e-9 <= d && d <= b.dmax + 1e-9,
                "distance {d} outside [{}, {}] for cam {cam} rect {rect:?} point {p}",
                b.dmin,
                b.dmax
            );
            if let Some((center, half)) = b.cone() {
                if let Some(dir) = torus.direction(p, cam) {
                    assert!(
                        center.distance(dir) <= half + 1e-9,
                        "direction {dir} outside cone ({center}, {half}) for cam {cam} \
                         rect {rect:?} point {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_and_cone_bounds_hold_over_sampled_rects() {
        let torus = Torus::unit();
        let rects = [
            Rect {
                x0: 0.10,
                x1: 0.30,
                y0: 0.40,
                y1: 0.55,
            },
            Rect {
                x0: 0.90,
                x1: 0.99,
                y0: 0.01,
                y1: 0.12,
            }, // near the seam
            Rect {
                x0: 0.47,
                x1: 0.47,
                y0: 0.47,
                y1: 0.47,
            }, // degenerate point
            Rect {
                x0: 0.02,
                x1: 0.97,
                y0: 0.45,
                y1: 0.52,
            }, // wide slab
        ];
        let cams = [
            Point::new(0.5, 0.5),
            Point::new(0.0, 0.0),
            Point::new(0.95, 0.05),
            Point::new(0.2, 0.8),
            Point::new(0.15, 0.45), // inside the first rect
        ];
        for rect in &rects {
            for &cam in &cams {
                check_bound(&torus, cam, rect);
            }
        }
    }

    #[test]
    fn seam_straddling_rect_disables_the_cone() {
        let torus = Torus::unit();
        // Camera at x=0.02 against a rect spanning x∈[0.05, 0.95]: the
        // wrapped Δx runs from +0.07 down through the −0.5/+0.5 seam to
        // −0.03, so no continuous interval exists on that axis.
        let rect = Rect {
            x0: 0.05,
            x1: 0.95,
            y0: 0.2,
            y1: 0.3,
        };
        let b = bound_camera(&torus, Point::new(0.02, 0.9), &rect);
        assert!(b.cone().is_none(), "straddling Δx must forfeit the cone");
        check_bound(&torus, Point::new(0.02, 0.9), &rect);
    }

    #[test]
    fn camera_inside_rect_has_zero_dmin_and_no_cone() {
        let torus = Torus::unit();
        let rect = Rect {
            x0: 0.2,
            x1: 0.4,
            y0: 0.2,
            y1: 0.4,
        };
        let b = bound_camera(&torus, Point::new(0.3, 0.3), &rect);
        assert_eq!(b.dmin, 0.0);
        assert!(b.cone().is_none(), "origin inside the delta rect");
    }

    #[test]
    fn cone_matches_brute_force_corner_directions() {
        let torus = Torus::unit();
        let rect = Rect {
            x0: 0.6,
            x1: 0.7,
            y0: 0.6,
            y1: 0.65,
        };
        let cam = Point::new(0.3, 0.3);
        let b = bound_camera(&torus, cam, &rect);
        let (center, half) = b.cone().expect("clean separation must yield a cone");
        // Every corner direction is inside, and the cone is not absurdly
        // wider than the corner spread.
        let mut max_dev = 0.0f64;
        for &(x, y) in &[
            (rect.x0, rect.y0),
            (rect.x1, rect.y0),
            (rect.x1, rect.y1),
            (rect.x0, rect.y1),
        ] {
            let dir = torus.direction(Point::new(x, y), cam).unwrap();
            let dev = center.distance(dir);
            assert!(dev <= half + 1e-9);
            max_dev = max_dev.max(dev);
        }
        assert!(
            half <= max_dev + 1e-6,
            "cone half {half} vs spread {max_dev}"
        );
    }

    #[test]
    fn abs_range_cases() {
        assert_eq!(abs_range(-2.0, 3.0), (0.0, 3.0));
        assert_eq!(abs_range(1.0, 3.0), (1.0, 3.0));
        assert_eq!(abs_range(-3.0, -1.0), (1.0, 3.0));
    }

    #[test]
    fn axis_bound_wraps_the_short_way() {
        let torus = Torus::unit();
        // Camera at 0.95, points in [0.02, 0.08]: the short way crosses
        // the seam with deltas near −0.1, continuous.
        let b = axis_bound(&torus, 0.95, 0.02, 0.08);
        let (w0, w1) = b.cont.expect("no straddle: deltas stay near −0.1");
        assert!(w0 <= w1);
        assert!((w0 - (-0.13)).abs() < 1e-9 && (w1 - (-0.07)).abs() < 1e-9);
        assert!((b.abs_lo - 0.07).abs() < 1e-9 && (b.abs_hi - 0.13).abs() < 1e-9);
    }

    #[test]
    fn full_span_axis_takes_every_delta() {
        let torus = Torus::unit();
        let b = axis_bound(&torus, 0.4, 0.0, 1.0);
        assert!(b.cont.is_none());
        assert_eq!(b.abs_lo, 0.0);
        assert_eq!(b.abs_hi, 0.5);
        let _ = Angle::ZERO; // keep the import exercised under cfg(test)
    }
}
