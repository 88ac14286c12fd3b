//! The certificate tier of the sweep plan: a quadtree prover inside one
//! tile of the [`GridTiling`](crate::GridTiling).
//!
//! # Certificates
//!
//! The prover recurses over axis-aligned rectangles of grid points
//! inside a tile — the whole tile first, then midpoint quadrants — and
//! attempts, per node, one of two certificates from the conservative
//! bounds of [`crate::bounds`]:
//!
//! * **`Empty`** — every candidate camera's `dmin` over the rectangle
//!   exceeds its sensing radius (plus margin): no rectangle point has
//!   any covering camera, so all five predicate flags are `false` and
//!   the k-view multiplicity is `0`.
//! * **`Full`** — at least `⌈π/θ⌉` *full-cover witnesses* (cameras
//!   whose `dmax` is inside their radius with margin and whose
//!   viewed-direction cone fits inside their field of view with margin)
//!   exist, and every sector of **both** the necessary (`2θ`) and
//!   sufficient (`θ`) partitions contains some witness cone entirely.
//!   By the paper's §IV sufficiency theorem the largest angular gap at
//!   every rectangle point is then at most `2θ`, so all five flags are
//!   `true`. Disjoint witness families (first-fit, one family member
//!   per sufficient sector) additionally lower-bound the k-view
//!   multiplicity: `groups` families imply multiplicity ≥ `groups`
//!   everywhere in the rectangle.
//! * **`Boundary`** — neither proof succeeds: split, and at the floor
//!   hand the rectangle to the mask screen and exact fallback.
//!
//! # Conservativeness and bit-identity
//!
//! Every certificate implies the exact per-point predicate *strictly*
//! (margins of `1e-9`/`1e-7` dwarf both f64 noise and the engine's
//! `ANGLE_EPS` tolerances), and extra covering cameras can only keep
//! the proven flags `true` (all five predicates are monotone in the
//! covering set). Anything unproven goes through the same mask screen
//! and exact analyzer the cold sweep runs, so the combined answer is
//! bit-identical to the exact engine by construction.
//!
//! # When certificates are tried
//!
//! Certificate attempts cost a bound per candidate camera per node,
//! whether or not they prove anything, so the plan decides from what it
//! observes:
//!
//! * tiles of at most [`KERNEL_TILE_MAX`] points never try one — at that
//!   size the mask screen beats any certificate attempt;
//! * a [`Ledger`] weighs the bounds spent against the mask work the
//!   proofs saved, both deterministic counts; once the loss exceeds a
//!   small share of the sweep's estimated mask work, certificates are
//!   off for the rest of the sweep.

use crate::bounds::{bound_camera, dist_band, Rect, ANG_BAND};
use crate::conditions::SectorPartition;
use crate::densegrid::PointFlags;
use crate::engine::GridTiling;
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Arc, Point, Torus, UnitGrid, ANGLE_EPS};
use fullview_model::TileCursor;
use std::cell::Cell;
use std::f64::consts::TAU;
use std::fmt;
use std::ops::Range;

/// Tiles with at most this many grid points never try a certificate in
/// the sweep plan (and, when certificates are forced, skip point-space
/// recursion): at small tile sizes the mask screen beats certificate
/// attempts.
pub(crate) const KERNEL_TILE_MAX: usize = 256;

/// Point-space recursion floor: rectangles of at most this many points
/// go to the mask screen without a certificate attempt.
const FLOOR_POINTS: usize = 16;

/// What one certificate attempt costs per candidate camera, in the
/// ledger's unit of saved work: one (point, reaching camera) pair the
/// mask screen no longer examines. A bound (two wrapped axis intervals,
/// two `hypot`s, and four `atan2`s for the cone of a camera that reaches
/// the whole rectangle) against the mask's distance test, angular
/// verdict and sector note for a camera that reaches the point; see
/// EXPERIMENTS.md ("Sweep plan calibration").
const BOUND_COST: u64 = 11;

/// The fixed part of one certificate attempt (recursion, the witnesses'
/// sector tests), in the same unit.
const NODE_COST: u64 = 800;

/// The set-up of one mask screen of a floor rectangle — paid per
/// rectangle, where a tile the certificates leave alone pays it once.
const FLOOR_COST: u64 = 400;

/// The loss certificates may run up before the plan turns them off, as
/// one part in this many of the sweep's points times its first tile's
/// candidates. A point's reaching cameras are about a third of its
/// tile's candidates (a disk of radius about one cell side against the
/// 3×3 cell neighbourhood), so this is about 3 % of the sweep's mask
/// work in ledger units.
const EXPLORE_SHARE: u64 = 100;

/// Counters of what the certificate tier decided without visiting
/// points, accumulated over one sweep (or merged across many via
/// [`merge`](Self::merge)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Certificate attempts (tree nodes classified).
    pub nodes: usize,
    /// Nodes proven `FullyCovered`.
    pub proved_full: usize,
    /// Nodes proven `Empty`.
    pub proved_empty: usize,
    /// In-range points decided by a certificate, never visited.
    pub points_proved: usize,
    /// In-range points of tiles that tried a certificate but reached
    /// the mask/exact tiers.
    pub points_visited: usize,
    /// Tiles that tried a certificate and were not proven whole.
    pub tiles_exact: usize,
}

impl ProverStats {
    /// Accumulates `other` into `self` (plain field-wise sums, so merge
    /// order never matters).
    pub fn merge(&mut self, other: &ProverStats) {
        self.nodes += other.nodes;
        self.proved_full += other.proved_full;
        self.proved_empty += other.proved_empty;
        self.points_proved += other.points_proved;
        self.points_visited += other.points_visited;
        self.tiles_exact += other.tiles_exact;
    }

    /// Fraction of decided points proven without a visit (`1.0` when no
    /// points were processed at all).
    #[must_use]
    pub fn proved_fraction(&self) -> f64 {
        let total = self.points_proved + self.points_visited;
        if total == 0 {
            return 1.0;
        }
        self.points_proved as f64 / total as f64
    }

    /// Folds these counters into this thread's
    /// [`collect_prover_stats`] collector, if one is running — how a
    /// sweep run on other threads hands its counters to the caller.
    pub fn report(&self) {
        COLLECTED.with(|c| {
            if let Some(mut s) = c.get() {
                s.merge(self);
                c.set(Some(s));
            }
        });
    }
}

impl fmt::Display for ProverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes {} (full {}, empty {}), points proved {} / visited {}, exact tiles {}",
            self.nodes,
            self.proved_full,
            self.proved_empty,
            self.points_proved,
            self.points_visited,
            self.tiles_exact
        )
    }
}

thread_local! {
    static COLLECTED: Cell<Option<ProverStats>> = const { Cell::new(None) };
}

/// Runs `f` and returns, next to its result, the certificate counters of
/// every sweep it ran on this thread, and of work on other threads that
/// was handed back with [`ProverStats::report`] (as the parallel sweep's
/// workers are). Collectors nest: an outer one also sees what an inner
/// one collected.
pub fn collect_prover_stats<R>(f: impl FnOnce() -> R) -> (R, ProverStats) {
    let outer = COLLECTED.with(|c| c.replace(Some(ProverStats::default())));
    let result = f();
    let inner = COLLECTED.with(|c| c.take()).unwrap_or_default();
    COLLECTED.with(|c| {
        c.set(outer.map(|mut o| {
            o.merge(&inner);
            o
        }));
    });
    (result, inner)
}

/// A node-level proof; `Boundary` is `None` from
/// [`Certifier::classify`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cert {
    /// No candidate camera reaches any point of the rectangle.
    Empty,
    /// The rectangle is uniformly covered in every sense the flags
    /// measure; `groups` disjoint witness families bound the k-view
    /// multiplicity from below, `flags_ok` says all five predicate
    /// flags are proven `true`.
    Full { groups: usize, flags_ok: bool },
}

impl Cert {
    /// The flags every point of a certified rectangle has.
    pub(crate) fn flags(self) -> PointFlags {
        let all = matches!(self, Cert::Full { .. });
        PointFlags {
            covered: all,
            k_covered: all,
            necessary: all,
            full_view: all,
            sufficient: all,
        }
    }
}

/// What the plan does with proven rectangles and with rectangles the
/// certificates leave undecided. The certifier owns recursion, bounds
/// and the ledger; sinks own the answer (flags or multiplicity counts).
pub(crate) trait CertSink {
    /// Whether a `Full` certificate decides this sink's answer.
    fn accepts_full(&self, groups: usize, flags_ok: bool) -> bool;

    /// Consumes grid index `idx` of a certified rectangle.
    fn proved(&mut self, cert: Cert, idx: usize);

    /// Decides every in-range point of grid columns `cols` × rows `rows`
    /// through the mask screen and exact fallback. `cursor` is pinned to
    /// the enclosing tile; `only`, when given, lists the positions in
    /// its pinned candidates that can reach the rectangle (the rest
    /// provably cannot).
    fn screen(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        only: Option<&[u32]>,
    );
}

/// Per-camera geometry snapshot of one pinned candidate.
#[derive(Debug, Clone)]
struct CamInfo {
    pos: Point,
    radius: f64,
    orientation: Angle,
    aov: f64,
}

/// The running account that decides whether certificates still pay, in
/// (point, reaching camera) pairs.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    /// Certificate work: [`NODE_COST`] plus [`BOUND_COST`] per candidate
    /// for every attempt, [`FLOOR_COST`] per floor rectangle screened.
    spent: u64,
    /// For every point a certificate decided, the cameras that reach its
    /// rectangle: the pairs the mask screen no longer examines.
    saved: u64,
    /// The loss allowed before certificates turn off; set from the
    /// first tile that tries one.
    allowance: Option<u64>,
}

/// The certificate tier of one sweep: partitions, the ledger, counters
/// and per-tile scratch.
#[derive(Debug, Clone)]
pub(crate) struct Certifier {
    necessary: Vec<Arc>,
    sufficient: Vec<Arc>,
    k_nec: usize,
    /// Certificates on every tile, ledger ignored (the forced tier).
    forced: bool,
    /// Whether certificates are still tried in this sweep.
    active: bool,
    ledger: Ledger,
    /// In-range points of the sweep, for the ledger's allowance.
    sweep_points: usize,
    stats: ProverStats,
    torus: Torus,
    band: f64,
    cams: Vec<CamInfo>,
    /// Candidate lists per recursion depth (positions in `cams`).
    cands: Vec<Vec<u32>>,
    witnesses: Vec<(Angle, f64)>,
    per_sector: Vec<usize>,
    /// Candidates pinned for the current tile.
    tile_cands: u64,
    lo: usize,
    hi: usize,
}

impl Certifier {
    /// The certificate tier for sweeps of `sweep_points` in-range points
    /// at `(θ, start_line)` on `torus`; `forced` tries a certificate on
    /// every tile and never turns off.
    pub(crate) fn new(
        theta: EffectiveAngle,
        start_line: Angle,
        torus: Torus,
        sweep_points: usize,
        forced: bool,
    ) -> Self {
        Certifier {
            necessary: SectorPartition::necessary(theta, start_line)
                .sectors()
                .to_vec(),
            sufficient: SectorPartition::sufficient(theta, start_line)
                .sectors()
                .to_vec(),
            k_nec: theta.necessary_sector_count(),
            forced,
            active: true,
            ledger: Ledger {
                spent: 0,
                saved: 0,
                allowance: None,
            },
            sweep_points,
            stats: ProverStats::default(),
            torus,
            band: dist_band(torus.side()),
            cams: Vec::new(),
            cands: Vec::new(),
            witnesses: Vec::new(),
            per_sector: Vec::new(),
            tile_cands: 0,
            lo: 0,
            hi: usize::MAX,
        }
    }

    /// Whether a tile of `points` grid points tries a certificate.
    fn wants(&self, points: usize) -> bool {
        self.forced || (self.active && points > KERNEL_TILE_MAX)
    }

    /// Counters since construction or the last [`take_stats`](Self::take_stats).
    pub(crate) fn take_stats(&mut self) -> ProverStats {
        std::mem::take(&mut self.stats)
    }

    /// The plan's step for tile `t`: pins `cursor` to its cell and
    /// decides its points inside `lo..hi` — certificates where the tile
    /// tries them and they hold, `sink.screen` (mask screen, exact
    /// fallback) for the rest. Empty tiles are skipped unpinned.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tile<S: CertSink>(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        (lo, hi): (usize, usize),
        sink: &mut S,
    ) {
        let points = tiling.tile_point_count(t);
        if points == 0 {
            return;
        }
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        let (cols, rows) = (tiling.tile_col_range(t), tiling.tile_row_range(t));
        if !self.wants(points) {
            sink.screen(cursor, grid, cols, rows, None);
            return;
        }
        self.lo = lo;
        self.hi = hi;
        let cameras = cursor.network().cameras();
        self.cams.clear();
        self.cams
            .extend(cursor.pinned_candidates().iter().map(|pc| {
                let cam = &cameras[pc.index()];
                CamInfo {
                    pos: cam.position(),
                    radius: cam.spec().radius(),
                    orientation: cam.orientation(),
                    aov: cam.spec().angle_of_view(),
                }
            }));
        self.tile_cands = self.cams.len() as u64;
        if self.ledger.allowance.is_none() {
            self.ledger.allowance =
                Some(self.sweep_points as u64 * self.tile_cands.max(1) / EXPLORE_SHARE);
        }
        if self.cands.is_empty() {
            self.cands.push(Vec::new());
        }
        let all = u32::try_from(self.cams.len()).expect("candidate count fits u32");
        self.cands[0].clear();
        self.cands[0].extend(0..all);
        let visited_before = self.stats.points_visited;
        self.visit(cursor, grid, cols, rows, 0, sink);
        if self.stats.points_visited > visited_before {
            self.stats.tiles_exact += 1;
        }
    }

    /// The closed rectangle of point centres of grid columns `c0..c1`,
    /// rows `r0..r1` — the same `(i + 0.5) · spacing` expression
    /// [`UnitGrid::point`] evaluates, so the bounds bracket the exact
    /// engine's own coordinates.
    fn rect_of(grid: &UnitGrid, cols: &Range<usize>, rows: &Range<usize>) -> Rect {
        let s = grid.spacing();
        Rect {
            x0: (cols.start as f64 + 0.5) * s,
            x1: ((cols.end - 1) as f64 + 0.5) * s,
            y0: (rows.start as f64 + 0.5) * s,
            y1: ((rows.end - 1) as f64 + 0.5) * s,
        }
    }

    /// Calls `f` with every in-range grid index of the rectangle (each
    /// row is a contiguous index run, clipped to `lo..hi`).
    fn for_each_in_range(
        &self,
        gs: usize,
        cols: &Range<usize>,
        rows: &Range<usize>,
        mut f: impl FnMut(usize),
    ) {
        for r in rows.clone() {
            let base = r * gs;
            for idx in (base + cols.start).max(self.lo)..(base + cols.end).min(self.hi) {
                f(idx);
            }
        }
    }

    fn in_range_count(&self, gs: usize, cols: &Range<usize>, rows: &Range<usize>) -> usize {
        rows.clone()
            .map(|r| {
                let base = r * gs;
                (base + cols.end)
                    .min(self.hi)
                    .saturating_sub((base + cols.start).max(self.lo))
            })
            .sum()
    }

    fn visit<S: CertSink>(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        depth: usize,
        sink: &mut S,
    ) {
        let gs = grid.side_count();
        let in_range = self.in_range_count(gs, &cols, &rows);
        if in_range == 0 {
            return;
        }
        let points = cols.len() * rows.len();
        let leaf = points <= FLOOR_POINTS || (depth == 0 && points <= KERNEL_TILE_MAX);
        if !self.active || (depth > 0 && leaf) {
            self.screen(cursor, grid, cols, rows, depth, in_range, sink);
            return;
        }
        if self.cands.len() <= depth + 1 {
            self.cands.push(Vec::new());
        }
        let cert = self.classify(&Self::rect_of(grid, &cols, &rows), depth);
        let accepted = cert.filter(|c| match *c {
            Cert::Empty => true,
            Cert::Full { groups, flags_ok } => sink.accepts_full(groups, flags_ok),
        });
        if let Some(cert) = accepted {
            match cert {
                Cert::Empty => self.stats.proved_empty += 1,
                Cert::Full { .. } => self.stats.proved_full += 1,
            }
            self.stats.points_proved += in_range;
            self.ledger.saved += in_range as u64 * self.cands[depth + 1].len() as u64;
            self.for_each_in_range(gs, &cols, &rows, |idx| sink.proved(cert, idx));
            return;
        }
        self.settle_ledger();
        if leaf {
            self.screen(cursor, grid, cols, rows, depth + 1, in_range, sink);
            return;
        }
        let mx = cols.start + cols.len() / 2;
        let my = rows.start + rows.len() / 2;
        for cs in [cols.start..mx, mx..cols.end] {
            for rs in [rows.start..my, my..rows.end] {
                if !cs.is_empty() && !rs.is_empty() {
                    self.visit(cursor, grid, cs.clone(), rs, depth + 1, sink);
                }
            }
        }
    }

    /// Hands a rectangle to the mask/exact tiers with the candidates that
    /// survived the certificate attempts above it (`cands[depth]`).
    #[allow(clippy::too_many_arguments)]
    fn screen<S: CertSink>(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        depth: usize,
        in_range: usize,
        sink: &mut S,
    ) {
        if depth > 0 {
            self.ledger.spent += FLOOR_COST;
        }
        self.stats.points_visited += in_range;
        let only = (depth > 0).then(|| self.cands[depth].as_slice());
        sink.screen(cursor, grid, cols, rows, only);
    }

    /// Turns certificates off once their net loss passes the allowance.
    fn settle_ledger(&mut self) {
        if self.forced {
            return;
        }
        let allowance = self.ledger.allowance.unwrap_or(0);
        if self.ledger.spent > self.ledger.saved.saturating_add(allowance) {
            self.active = false;
        }
    }

    /// Attempts a certificate for `rect` from the candidates of
    /// `cands[depth]`; fills `cands[depth + 1]` with those that survive
    /// the distance filter (the child nodes' candidate set). `None` means
    /// `Boundary`.
    fn classify(&mut self, rect: &Rect, depth: usize) -> Option<Cert> {
        self.stats.nodes += 1;
        let (head, tail) = self.cands.split_at_mut(depth + 1);
        let (cands, kept) = (&head[depth], &mut tail[0]);
        self.ledger.spent += NODE_COST + cands.len() as u64 * BOUND_COST;
        kept.clear();
        self.witnesses.clear();
        for &ci in cands {
            let cam = &self.cams[ci as usize];
            let b = bound_camera(&self.torus, cam.pos, rect);
            if b.dmin > cam.radius + self.band {
                // Surely out of range for every rectangle point.
                continue;
            }
            kept.push(ci);
            if b.dmax + self.band < cam.radius {
                if let Some((center, half)) = b.cone() {
                    let aov_ok = cam.aov >= TAU - ANGLE_EPS
                        || cam.orientation.distance(center.opposite()) + half + ANG_BAND
                            <= 0.5 * cam.aov;
                    if aov_ok {
                        self.witnesses.push((center, half));
                    }
                }
            }
        }
        if kept.is_empty() {
            return Some(Cert::Empty);
        }
        if self.witnesses.len() < self.k_nec.max(1) {
            return None;
        }
        let contains = |arc: &Arc, c: Angle, h: f64| {
            arc.is_full_circle() || arc.bisector().distance(c) + h + ANG_BAND <= 0.5 * arc.width()
        };
        // Disjoint witness families for the multiplicity bound: first-fit
        // each witness into one sufficient sector; taking one member per
        // sector forms `min occupancy` families, each of which alone
        // satisfies the sufficient condition everywhere in the rectangle.
        self.per_sector.clear();
        self.per_sector.resize(self.sufficient.len(), 0);
        'witness: for &(c, h) in &self.witnesses {
            for (si, arc) in self.sufficient.iter().enumerate() {
                if contains(arc, c, h) {
                    self.per_sector[si] += 1;
                    continue 'witness;
                }
            }
        }
        let groups = self.per_sector.iter().copied().min().unwrap_or(0);
        // For the flags proof sharing is fine: one witness direction may
        // satisfy two overlapping sectors, exactly as in
        // `SectorPartition::is_satisfied_by`.
        let covers_all = |arcs: &[Arc]| {
            arcs.iter()
                .all(|arc| self.witnesses.iter().any(|&(c, h)| contains(arc, c, h)))
        };
        let flags_ok = self.witnesses.len() >= self.k_nec
            && covers_all(&self.sufficient)
            && covers_all(&self.necessary);
        (groups >= 1 || flags_ok).then_some(Cert::Full { groups, flags_ok })
    }
}
