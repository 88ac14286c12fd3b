//! The cell-coherent tile evaluation engine: one batch query path from the
//! spatial index to every dense-grid sweep consumer.
//!
//! Every coverage experiment in this repository reduces to "evaluate some
//! predicate at each point of a [`UnitGrid`]". The naive loop asks the
//! [`SpatialGrid`] for candidates once *per point*, re-walking the same
//! 3×3 bucket neighbourhood for every grid point in a cell. The engine
//! instead traverses the grid *tile by tile* (one spatial-index cell's
//! worth of grid points), pins the cell's candidate cameras once through a
//! [`TileCursor`](fullview_model::TileCursor), and answers each point's
//! query with only the exact distance/sector filter over a contiguous
//! candidate snapshot.
//!
//! Invariants the engine maintains (and the differential tests assert):
//!
//! * **Exact partition** — [`GridTiling`] assigns every grid index to
//!   exactly one tile, so tile-order tallies merge to precisely the
//!   row-major result (all report fields are order-independent integer
//!   sums).
//! * **Backend equivalence** — a pinned tile cursor enumerates the same
//!   covering-camera set as a whole-network query for every point in its
//!   cell; differing candidate order is erased by the analyzer's
//!   direction sort, so analyses are bit-identical.
//! * **One plan** — every flags- or count-level sweep sends each tile
//!   through one [`SweepPlan`] step: certificate, mask screen, exact
//!   fallback. Each tier is exact or conservative, so the answer never
//!   depends on which tier decided a point.

use crate::densegrid::{GridCoverageReport, GridEvaluator, PointFlags};
use crate::fullview::{CoverageView, PointAnalyzer};
use crate::prover::{Cert, CertSink, Certifier, ProverStats};
use crate::theta::EffectiveAngle;
use fullview_geom::{Angle, Point, SpatialGrid, Torus, UnitGrid};
use fullview_model::{CameraNetwork, TileCursor};
use std::ops::Range;

/// Maps a [`UnitGrid`] onto the cells of a [`SpatialGrid`]: every grid
/// point belongs to exactly one tile (the index cell containing it), and
/// each tile's points form a contiguous block of grid columns × rows.
///
/// Grid coordinates are monotone in the point index along each axis, and
/// the cell-of-coordinate map is monotone too, so the columns (rows)
/// owned by an index cell form a contiguous run; the tiling stores just
/// the `cells + 1` run boundaries (shared by both axes — cells and grid
/// are square over the same torus).
#[derive(Debug, Clone)]
pub struct GridTiling {
    /// Index cells per axis.
    cells: usize,
    /// Grid points per axis.
    grid_side: usize,
    /// `starts[c]..starts[c + 1]` is the run of grid columns (and rows)
    /// whose coordinate falls in cell column (row) `c`.
    starts: Vec<usize>,
}

impl GridTiling {
    /// Builds the tiling of `grid` by the cells of `index`.
    ///
    /// # Panics
    ///
    /// Panics if the grid and index cover tori of different side lengths.
    #[must_use]
    pub fn new(index: &SpatialGrid, grid: &UnitGrid) -> Self {
        let cells = index.cells_per_axis();
        let k = grid.side_count();
        let grid_span = grid.spacing() * k as f64;
        assert!(
            (grid_span - index.torus().side()).abs() <= 1e-9 * index.torus().side().max(1.0),
            "grid (side {grid_span}) and spatial index (side {}) cover different tori",
            index.torus().side()
        );
        let mut starts = vec![0usize; cells + 1];
        let mut prev = 0usize;
        for i in 0..k {
            // Column i's x-coordinate (row 0 works: x only depends on i).
            let x = grid.point(i).x;
            let (c, _) = index.cell_of(Point::new(x, x));
            debug_assert!(c >= prev, "cell-of-coordinate must be monotone");
            for boundary in &mut starts[prev + 1..=c] {
                *boundary = i;
            }
            prev = c;
        }
        for boundary in &mut starts[prev + 1..=cells] {
            *boundary = k;
        }
        GridTiling {
            cells,
            grid_side: k,
            starts,
        }
    }

    /// Total number of tiles (index cells), including empty ones.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.cells * self.cells
    }

    /// The index cell `(cx, cy)` of tile `t` (row-major tile ids).
    #[must_use]
    pub fn tile_cell(&self, t: usize) -> (usize, usize) {
        (t % self.cells, t / self.cells)
    }

    /// Number of grid points inside tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_point_count(&self, t: usize) -> usize {
        let (cx, cy) = self.tile_cell(t);
        let cols = self.starts[cx + 1] - self.starts[cx];
        let rows = self.starts[cy + 1] - self.starts[cy];
        cols * rows
    }

    /// Calls `f` with the row-major grid index of every point inside tile
    /// `t`, in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    pub fn for_each_point_in_tile<F: FnMut(usize)>(&self, t: usize, mut f: F) {
        let (cx, cy) = self.tile_cell(t);
        for j in self.starts[cy]..self.starts[cy + 1] {
            let base = j * self.grid_side;
            for i in self.starts[cx]..self.starts[cx + 1] {
                f(base + i);
            }
        }
    }

    /// Total number of grid points across all tiles (`grid.len()`).
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.grid_side * self.grid_side
    }

    /// The contiguous run of grid columns owned by tile `t` — batch
    /// kernels iterate this to lay out per-column scratch, visiting the
    /// same points [`for_each_point_in_tile`](Self::for_each_point_in_tile)
    /// does (columns inner, rows outer).
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_col_range(&self, t: usize) -> std::ops::Range<usize> {
        let (cx, _) = self.tile_cell(t);
        self.starts[cx]..self.starts[cx + 1]
    }

    /// The contiguous run of grid rows owned by tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_row_range(&self, t: usize) -> std::ops::Range<usize> {
        let (_, cy) = self.tile_cell(t);
        self.starts[cy]..self.starts[cy + 1]
    }

    /// The row-major grid-index interval `[min, max]` spanned by tile
    /// `t`'s points (inclusive). Useful for rejecting tiles wholly
    /// outside a contiguous index range without pinning their cell.
    ///
    /// Returns `None` for an empty tile.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    #[must_use]
    pub fn tile_index_span(&self, t: usize) -> Option<(usize, usize)> {
        let (cx, cy) = self.tile_cell(t);
        let (c0, c1) = (self.starts[cx], self.starts[cx + 1]);
        let (r0, r1) = (self.starts[cy], self.starts[cy + 1]);
        if c0 == c1 || r0 == r1 {
            return None;
        }
        Some((r0 * self.grid_side + c0, (r1 - 1) * self.grid_side + c1 - 1))
    }
}

/// Calls `f` with every tile of `tiling` holding a point of the
/// row-major index range `lo..hi` (tiles wholly outside the range are
/// skipped before anything is pinned).
fn for_each_tile_in_range(tiling: &GridTiling, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    for t in 0..tiling.tile_count() {
        if let Some((min_idx, max_idx)) = tiling.tile_index_span(t) {
            if max_idx >= lo && min_idx < hi {
                f(t);
            }
        }
    }
}

fn assert_range(grid: &UnitGrid, lo: usize, hi: usize) {
    assert!(
        lo <= hi && hi <= grid.len(),
        "range {lo}..{hi} out of bounds for a grid of {} points",
        grid.len()
    );
}

/// Visits every grid point with a tile cursor pinned to the point's
/// cell, tile by tile.
///
/// The callback receives `(cursor, index, point)`; tiles are visited in
/// order (deterministic, but not row-major), so callbacks must key
/// results by `index` rather than call order.
pub fn for_each_grid_point<F>(net: &CameraNetwork, grid: &UnitGrid, mut f: F)
where
    F: FnMut(&TileCursor<'_>, usize, Point),
{
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    for_each_tile_in_range(&tiling, 0, grid.len(), |t| {
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        tiling.for_each_point_in_tile(t, |idx| f(&cursor, idx, grid.point(idx)));
    });
}

/// Sweeps the grid with a shared [`PointAnalyzer`], handing each point's
/// [`CoverageView`] to the callback — the one-stop entry point for
/// consumers that need the full per-point analysis (full-view predicates,
/// gap statistics, multiplicities).
///
/// Allocation-free once the analyzer and cursor buffers are warm; visits
/// points in tile order (key results by the `usize` grid index).
pub fn sweep_grid<F>(net: &CameraNetwork, grid: &UnitGrid, mut f: F)
where
    F: FnMut(usize, Point, &CoverageView<'_>),
{
    sweep_grid_range(net, grid, 0, grid.len(), |idx, point, view| {
        f(idx, point, view);
    });
}

/// [`sweep_grid`] restricted to the contiguous row-major index range
/// `lo..hi` — the scatter unit of the sharded cluster layer, where each
/// daemon evaluates only its assigned slice of the grid.
///
/// Per-point analyses are bit-identical to the full sweep, so
/// concatenating range results over a partition of `0..grid.len()`
/// reproduces the full sweep exactly. Tiles wholly outside the range are
/// skipped before their cell is pinned, so a `1/S` slice costs roughly
/// `1/S` of the full sweep.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_grid_range<F>(net: &CameraNetwork, grid: &UnitGrid, lo: usize, hi: usize, mut f: F)
where
    F: FnMut(usize, Point, &CoverageView<'_>),
{
    assert_range(grid, lo, hi);
    let mut analyzer = PointAnalyzer::new();
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    for_each_tile_in_range(&tiling, lo, hi, |t| {
        let (cx, cy) = tiling.tile_cell(t);
        cursor.pin(cx, cy);
        tiling.for_each_point_in_tile(t, |idx| {
            if idx >= lo && idx < hi {
                let point = grid.point(idx);
                let view = analyzer.analyze_point_with(&cursor, point);
                f(idx, point, &view);
            }
        });
    });
}

/// Sweeps the row-major index range `lo..hi`, handing each point's
/// [`PointFlags`] to the callback — the flags-level counterpart of
/// [`sweep_grid_range`] for consumers that only need the five predicate
/// verdicts (hole masks, glyph maps) rather than the raw
/// [`CoverageView`].
///
/// Because only verdicts are exposed, every tile goes through the
/// [`SweepPlan`]: certificates where they pay, the
/// [`SectorMaskKernel`](crate::SectorMaskKernel) screen, and the exact
/// analysis for whatever neither decides. Verdicts are bit-identical to
/// evaluating [`sweep_grid_range`]'s views, so concatenating range
/// results over a partition of `0..grid.len()` reproduces a full exact
/// sweep.
///
/// The sector conditions use `start_line` for their constructions
/// ([`Angle::ZERO`] is the conventional choice). Visits points in tile
/// order — key results by the `usize` grid index.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_flags_range<F>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    start_line: Angle,
    lo: usize,
    hi: usize,
    mut f: F,
) where
    F: FnMut(usize, PointFlags),
{
    assert_range(grid, lo, hi);
    let plan = SweepPlan::new(theta, start_line, *net.torus(), hi - lo);
    flags_through(plan, net, grid, lo, hi, &mut f);
}

/// [`sweep_flags_range`] with certificates forced on every tile (never
/// turned off by the plan's ledger), returning what they decided: every
/// in-range point is counted once, as proved or as visited. The
/// certificate tier measured on its own, as
/// [`evaluate_grid_certified`](crate::evaluate_grid_certified) is for
/// whole grids.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > grid.len()`.
pub fn sweep_flags_range_certified<F>(
    net: &CameraNetwork,
    grid: &UnitGrid,
    theta: EffectiveAngle,
    start_line: Angle,
    lo: usize,
    hi: usize,
    mut f: F,
) -> ProverStats
where
    F: FnMut(usize, PointFlags),
{
    assert_range(grid, lo, hi);
    let plan = SweepPlan::forced(theta, start_line, *net.torus(), hi - lo);
    flags_through(plan, net, grid, lo, hi, &mut f)
}

fn flags_through(
    mut plan: SweepPlan,
    net: &CameraNetwork,
    grid: &UnitGrid,
    lo: usize,
    hi: usize,
    f: &mut dyn FnMut(usize, PointFlags),
) -> ProverStats {
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    for_each_tile_in_range(&tiling, lo, hi, |t| {
        plan.tile_flags(&mut cursor, &tiling, grid, t, (lo, hi), f);
    });
    plan.finish()
}

/// Counts the points of `lo..hi` whose view multiplicity for `theta` is
/// at least `k ≥ 1`, tile by tile through `plan` (`Full` certificates
/// with `k` disjoint witness families, the depth screen, the exact
/// arc-depth sweep), with what the certificates decided. The caller has
/// checked `lo..hi` against the grid.
pub(crate) fn count_k_planned(
    mut plan: SweepPlan,
    net: &CameraNetwork,
    grid: &UnitGrid,
    k: usize,
    lo: usize,
    hi: usize,
) -> (usize, ProverStats) {
    let tiling = GridTiling::new(net.index(), grid);
    let mut cursor = net.tile_cursor();
    let mut meeting = 0usize;
    for_each_tile_in_range(&tiling, lo, hi, |t| {
        meeting += plan.tile_count_k(&mut cursor, &tiling, grid, t, (lo, hi), k);
    });
    (meeting, plan.finish())
}

/// The one evaluation step of every flags- and count-level sweep: each
/// tile tries a certificate, then the mask screen, then the exact
/// fallback, and the plan decides from what it observes whether the
/// certificate attempt is worth making (see [`crate::prover`]: tiles of
/// at most 256 points never try one, and a work ledger of deterministic
/// counts turns certificates off for the rest of the sweep once they
/// stop paying — for a serial sweep, at the same tile on every run). No flag selects a tier: every tier agrees bit for bit, so
/// the choice only moves the time.
///
/// One plan serves one sweep (or one worker of a parallel sweep, or one
/// [`IncrementalSweep`] over its lifetime).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    evaluator: GridEvaluator,
    certifier: Certifier,
}

impl SweepPlan {
    /// The plan for a sweep of `points` in-range grid points on `torus`
    /// at `(θ, start_line)` (the point count sizes the certificate
    /// tier's exploration allowance).
    #[must_use]
    pub fn new(theta: EffectiveAngle, start_line: Angle, torus: Torus, points: usize) -> Self {
        SweepPlan {
            evaluator: GridEvaluator::new(theta, start_line),
            certifier: Certifier::new(theta, start_line, torus, points, false),
        }
    }

    /// A plan that tries a certificate on every tile and never turns
    /// certificates off — the certificate tier measured on its own.
    pub(crate) fn forced(
        theta: EffectiveAngle,
        start_line: Angle,
        torus: Torus,
        points: usize,
    ) -> Self {
        SweepPlan {
            evaluator: GridEvaluator::new(theta, start_line),
            certifier: Certifier::new(theta, start_line, torus, points, true),
        }
    }

    /// Evaluates every predicate over the points of tile `t` — the unit
    /// the parallel sweep's workers claim.
    pub fn evaluate_tile(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
    ) -> GridCoverageReport {
        let mut report = GridCoverageReport::default();
        self.tile_flags(cursor, tiling, grid, t, (0, grid.len()), &mut |_, flags| {
            report.record(&flags);
        });
        report
    }

    /// Calls `f` with the flags of every point of tile `t` inside
    /// `lo..hi` (any order).
    pub(crate) fn tile_flags(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        (lo, hi): (usize, usize),
        f: &mut dyn FnMut(usize, PointFlags),
    ) {
        let mut sink = FlagsSink {
            evaluator: &mut self.evaluator,
            f,
            lo,
            hi,
        };
        self.certifier
            .tile(cursor, tiling, grid, t, (lo, hi), &mut sink);
    }

    /// The points of tile `t` inside `range` with view multiplicity at
    /// least `k ≥ 1`.
    fn tile_count_k(
        &mut self,
        cursor: &mut TileCursor<'_>,
        tiling: &GridTiling,
        grid: &UnitGrid,
        t: usize,
        range: (usize, usize),
        k: usize,
    ) -> usize {
        let mut sink = CountSink {
            evaluator: &mut self.evaluator,
            k,
            range,
            count: 0,
        };
        self.certifier
            .tile(cursor, tiling, grid, t, range, &mut sink);
        sink.count
    }

    /// Ends a sweep (or one repair of a long-lived plan): returns what
    /// the certificate tier decided since the last call and folds it into
    /// this thread's [`collect_prover_stats`](crate::collect_prover_stats)
    /// collector.
    pub fn finish(&mut self) -> ProverStats {
        let stats = self.certifier.take_stats();
        stats.report();
        stats
    }
}

/// Flags consumer: proven rectangles emit constant flags, the rest run
/// through the mask/exact funnel.
struct FlagsSink<'e, 'f> {
    evaluator: &'e mut GridEvaluator,
    f: &'f mut dyn FnMut(usize, PointFlags),
    lo: usize,
    hi: usize,
}

impl CertSink for FlagsSink<'_, '_> {
    fn accepts_full(&self, _groups: usize, flags_ok: bool) -> bool {
        flags_ok
    }

    fn proved(&mut self, cert: Cert, idx: usize) {
        (self.f)(idx, cert.flags());
    }

    fn screen(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        only: Option<&[u32]>,
    ) {
        let (lo, hi, f) = (self.lo, self.hi, &mut self.f);
        self.evaluator
            .flags_in_rect(cursor, grid, cols, rows, only, &mut |idx, flags| {
                if idx >= lo && idx < hi {
                    f(idx, flags);
                }
            });
    }
}

/// Multiplicity-count consumer: a `Full` certificate with at least `k`
/// disjoint witness families decides a whole rectangle.
struct CountSink<'e> {
    evaluator: &'e mut GridEvaluator,
    k: usize,
    range: (usize, usize),
    count: usize,
}

impl CertSink for CountSink<'_> {
    fn accepts_full(&self, groups: usize, _flags_ok: bool) -> bool {
        groups >= self.k
    }

    fn proved(&mut self, cert: Cert, _idx: usize) {
        // `Empty` means multiplicity 0 < k.
        self.count += usize::from(matches!(cert, Cert::Full { .. }));
    }

    fn screen(
        &mut self,
        cursor: &TileCursor<'_>,
        grid: &UnitGrid,
        cols: Range<usize>,
        rows: Range<usize>,
        only: Option<&[u32]>,
    ) {
        self.count += self
            .evaluator
            .count_k_in_rect(cursor, grid, cols, rows, only, self.range, self.k);
    }
}

/// A bitset over the tile ids of a [`GridTiling`] recording which tiles a
/// mutation may have changed — the work list of the incremental resweep.
///
/// Marking is an *over-approximation*: re-evaluating a clean tile always
/// reproduces its stored tallies (per-point analysis is history-free), so
/// extra marks cost time, never correctness. Missing a mark is the only
/// bug class, which is why disks are mapped to tiles with the same
/// per-axis window arithmetic the [`SpatialGrid`] radius queries use.
#[derive(Debug, Clone)]
pub struct DirtySet {
    words: Vec<u64>,
    tiles: usize,
    marked: usize,
}

impl DirtySet {
    /// An all-clean set over `tiles` tile ids.
    #[must_use]
    pub fn new(tiles: usize) -> Self {
        DirtySet {
            words: vec![0u64; tiles.div_ceil(64)],
            tiles,
            marked: 0,
        }
    }

    /// Number of tile ids the set ranges over.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles
    }

    /// Marks tile `t` dirty; returns whether it was newly marked.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tile_count()`.
    pub fn mark(&mut self, t: usize) -> bool {
        assert!(t < self.tiles, "tile {t} out of range ({})", self.tiles);
        let (word, bit) = (t / 64, 1u64 << (t % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.marked += 1;
            true
        } else {
            false
        }
    }

    /// Marks every tile dirty.
    pub fn mark_all(&mut self) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let bits_here = (self.tiles - w * 64).min(64);
            *word = if bits_here == 64 {
                u64::MAX
            } else {
                (1u64 << bits_here) - 1
            };
        }
        self.marked = self.tiles;
    }

    /// Whether tile `t` is marked.
    #[must_use]
    pub fn is_marked(&self, t: usize) -> bool {
        t < self.tiles && self.words[t / 64] & (1u64 << (t % 64)) != 0
    }

    /// Number of marked tiles.
    #[must_use]
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Whether no tile is marked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.marked == 0
    }

    /// Unmarks everything.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.marked = 0;
    }

    /// Calls `f` with every marked tile id in ascending order.
    pub fn for_each_marked<F: FnMut(usize)>(&self, mut f: F) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                f(t);
                bits &= bits - 1;
            }
        }
    }
}

/// What one [`IncrementalSweep::resweep_dirty`] repair changed — the raw
/// material of the service layer's `watch` delta frames.
#[derive(Debug, Clone, Default)]
pub struct SweepDelta {
    /// Tiles re-evaluated by this repair.
    pub tiles_resweeped: usize,
    /// Grid points re-evaluated by this repair.
    pub points_resweeped: usize,
    /// Grid indices that flipped to full-view covered.
    pub flipped_on: Vec<usize>,
    /// Grid indices that lost full-view coverage.
    pub flipped_off: Vec<usize>,
    /// The grid report before the repair.
    pub before: GridCoverageReport,
    /// The grid report after the repair (equal to the state's
    /// [`report`](IncrementalSweep::report)).
    pub after: GridCoverageReport,
    /// Whether the repair fell back to a full rebuild (tiling geometry
    /// changed, e.g. after `reseed`).
    pub rebuilt: bool,
}

/// Incrementally-maintained dense-grid coverage state: per-tile
/// [`GridCoverageReport`]s, the per-point full-view mask, and their
/// running total, repaired tile-by-tile through a [`DirtySet`].
///
/// # The dirty-tracking invariant
///
/// After any sequence of [`mark_disk`](Self::mark_disk) /
/// [`mark_all`](Self::mark_all) / [`invalidate`](Self::invalidate) calls
/// that covers every mutation applied to the network since the last
/// repair, [`resweep_dirty`](Self::resweep_dirty) leaves `report()` and
/// `mask()` **bit-identical** to a freshly-built state
/// ([`IncrementalSweep::new`]) over the same network. Two facts make this
/// exact rather than approximate:
///
/// * a camera mutation can only change the analysis of points inside its
///   old and new sensing disks, and a disk's grid points all live in the
///   tiles [`mark_disk`](Self::mark_disk) marks (the same per-axis cell
///   window arithmetic the spatial index's radius queries are
///   brute-force-tested against);
/// * per-point analysis is history-free and report totals are plain
///   integer sums, so `total − old_tile + new_tile` equals the cold sum
///   bit-for-bit.
///
/// `fail`/`move` mutations rebucket the spatial index in place without
/// changing its cell geometry, so the tiling stays valid and repairs are
/// proportional to the dirty area. A `reseed`-style replacement can change
/// the index geometry; [`resweep_dirty`](Self::resweep_dirty) detects the
/// mismatch and falls back to a full rebuild (still reporting the mask
/// diff in its [`SweepDelta`]).
#[derive(Debug, Clone)]
pub struct IncrementalSweep {
    theta: EffectiveAngle,
    start_line: Angle,
    grid: UnitGrid,
    tiling: GridTiling,
    cells: usize,
    cell_len: f64,
    torus: Torus,
    plan: SweepPlan,
    tile_reports: Vec<GridCoverageReport>,
    mask: Vec<bool>,
    total: GridCoverageReport,
    dirty: DirtySet,
    needs_rebuild: bool,
}

impl IncrementalSweep {
    /// Cold-builds the state for `net` over a `grid_side × grid_side`
    /// grid: every tile evaluated once, mask and per-tile reports stored.
    ///
    /// # Panics
    ///
    /// Panics if `grid_side == 0`.
    #[must_use]
    pub fn new(
        net: &CameraNetwork,
        theta: EffectiveAngle,
        start_line: Angle,
        grid_side: usize,
    ) -> Self {
        assert!(grid_side > 0, "grid side must be positive");
        let torus = *net.torus();
        let grid = UnitGrid::new(torus, grid_side);
        let index = net.index();
        let tiling = GridTiling::new(index, &grid);
        let mut state = IncrementalSweep {
            theta,
            start_line,
            grid,
            cells: index.cells_per_axis(),
            cell_len: index.cell_len(),
            torus,
            plan: SweepPlan::new(theta, start_line, torus, grid_side * grid_side),
            tile_reports: vec![GridCoverageReport::default(); tiling.tile_count()],
            mask: vec![false; grid_side * grid_side],
            total: GridCoverageReport::default(),
            dirty: DirtySet::new(tiling.tile_count()),
            tiling,
            needs_rebuild: false,
        };
        state.cold_sweep(net);
        state
    }

    /// Evaluates every tile from scratch into the stored reports/mask.
    fn cold_sweep(&mut self, net: &CameraNetwork) {
        let mut cursor = net.tile_cursor();
        self.total = GridCoverageReport::default();
        self.mask.fill(false);
        for t in 0..self.tiling.tile_count() {
            let report = self.sweep_tile(&mut cursor, t);
            self.total.merge(&report);
            self.tile_reports[t] = report;
        }
        self.plan.finish();
        self.dirty.clear();
        self.needs_rebuild = false;
    }

    /// Re-evaluates tile `t` through the plan into the mask, returning
    /// its report.
    fn sweep_tile(&mut self, cursor: &mut TileCursor<'_>, t: usize) -> GridCoverageReport {
        let mut report = GridCoverageReport::default();
        let mask = &mut self.mask;
        let range = (0, self.grid.len());
        self.plan.tile_flags(
            cursor,
            &self.tiling,
            &self.grid,
            t,
            range,
            &mut |idx, flags| {
                mask[idx] = flags.full_view;
                report.record(&flags);
            },
        );
        report
    }

    /// The effective angle this state evaluates with.
    #[must_use]
    pub fn theta(&self) -> EffectiveAngle {
        self.theta
    }

    /// The sector-condition start line this state evaluates with.
    #[must_use]
    pub fn start_line(&self) -> Angle {
        self.start_line
    }

    /// Grid points per axis.
    #[must_use]
    pub fn grid_side(&self) -> usize {
        self.grid.side_count()
    }

    /// The maintained whole-grid report. Only valid when
    /// [`is_clean`](Self::is_clean); repair first after mutations.
    #[must_use]
    pub fn report(&self) -> &GridCoverageReport {
        &self.total
    }

    /// The maintained per-point full-view mask (row-major grid order).
    /// Only valid when [`is_clean`](Self::is_clean).
    #[must_use]
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Whether the state has no pending dirty tiles or rebuild.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty() && !self.needs_rebuild
    }

    /// Whether `index` still has the cell geometry this state's tiling
    /// was built from (in-place rebuckets preserve it; a fresh network
    /// may not).
    #[must_use]
    pub fn geometry_matches(&self, index: &SpatialGrid) -> bool {
        index.cells_per_axis() == self.cells
            && index.cell_len().to_bits() == self.cell_len.to_bits()
            && index.torus().side().to_bits() == self.torus.side().to_bits()
    }

    /// Marks dirty every tile whose cell could contain a grid point
    /// within `radius` of `center` — call once with the old disk and once
    /// with the new disk of each mutated camera.
    ///
    /// Uses the same per-axis window bounds as the spatial index's radius
    /// queries (`⌊(frac − r)/len⌋ ..= ⌊(frac + r)/len + ε⌋`), so the
    /// marked window is a proven superset of the cells holding affected
    /// points. A window spanning the whole axis degrades to
    /// [`mark_all`](Self::mark_all).
    pub fn mark_disk(&mut self, center: Point, radius: f64) {
        if self.needs_rebuild {
            return;
        }
        let p = self.torus.wrap(center);
        let cells = self.cells;
        let clamp = |coord: f64| ((coord / self.cell_len) as usize).min(cells - 1);
        let (cx, cy) = (clamp(p.x), clamp(p.y));
        let span = |frac: f64| -> (isize, isize) {
            let lo = ((frac - radius) / self.cell_len).floor() as isize;
            let hi = ((frac + radius) / self.cell_len + 1e-12).floor() as isize;
            (lo, hi)
        };
        let (dx_lo, dx_hi) = span(p.x - cx as f64 * self.cell_len);
        let (dy_lo, dy_hi) = span(p.y - cy as f64 * self.cell_len);
        if (dx_hi - dx_lo + 1).max(dy_hi - dy_lo + 1) >= cells as isize {
            self.mark_all();
            return;
        }
        let n = cells as isize;
        for dy in dy_lo..=dy_hi {
            let by = (cy as isize + dy).rem_euclid(n) as usize;
            for dx in dx_lo..=dx_hi {
                let bx = (cx as isize + dx).rem_euclid(n) as usize;
                self.dirty.mark(by * cells + bx);
            }
        }
    }

    /// Marks every tile dirty (a mutation with unknown extent).
    pub fn mark_all(&mut self) {
        if !self.needs_rebuild {
            self.dirty.mark_all();
        }
    }

    /// Flags the state for a full rebuild on the next repair — for
    /// wholesale network replacement (`reseed`/`restore`), where even the
    /// index geometry may have changed.
    pub fn invalidate(&mut self) {
        self.needs_rebuild = true;
    }

    /// Repairs the state against the (already mutated) network: re-evaluates
    /// exactly the dirty tiles and patches the total report and mask in
    /// place, returning what changed. Falls back to a full rebuild when
    /// the index geometry no longer matches the stored tiling (or
    /// [`invalidate`](Self::invalidate) was called).
    ///
    /// Afterwards the state is clean and `report()`/`mask()` are
    /// bit-identical to a cold [`IncrementalSweep::new`] over `net` — the
    /// invariant the differential tests pin down.
    pub fn resweep_dirty(&mut self, net: &CameraNetwork) -> SweepDelta {
        if self.needs_rebuild || !self.geometry_matches(net.index()) {
            return self.rebuild(net);
        }
        let mut delta = SweepDelta {
            before: self.total.clone(),
            ..SweepDelta::default()
        };
        if self.dirty.is_empty() {
            delta.after = self.total.clone();
            return delta;
        }
        let mut dirty_tiles = Vec::with_capacity(self.dirty.marked_count());
        self.dirty.for_each_marked(|t| dirty_tiles.push(t));
        self.dirty.clear();
        let mut cursor = net.tile_cursor();
        let mut old_bits: Vec<bool> = Vec::new();
        for &t in &dirty_tiles {
            old_bits.clear();
            self.tiling
                .for_each_point_in_tile(t, |idx| old_bits.push(self.mask[idx]));
            let new_report = self.sweep_tile(&mut cursor, t);
            let old_report = std::mem::replace(&mut self.tile_reports[t], new_report.clone());
            self.total.subtract(&old_report);
            self.total.merge(&new_report);
            delta.points_resweeped += new_report.total_points;
            let mut i = 0;
            self.tiling.for_each_point_in_tile(t, |idx| {
                match (old_bits[i], self.mask[idx]) {
                    (false, true) => delta.flipped_on.push(idx),
                    (true, false) => delta.flipped_off.push(idx),
                    _ => {}
                }
                i += 1;
            });
        }
        self.plan.finish();
        delta.tiles_resweeped = dirty_tiles.len();
        delta.after = self.total.clone();
        delta
    }

    /// Full rebuild: re-derives the tiling from the network's current
    /// index and cold-sweeps, diffing the old mask for the delta.
    fn rebuild(&mut self, net: &CameraNetwork) -> SweepDelta {
        let mut delta = SweepDelta {
            before: self.total.clone(),
            rebuilt: true,
            ..SweepDelta::default()
        };
        let old_mask = std::mem::take(&mut self.mask);
        let index = net.index();
        self.cells = index.cells_per_axis();
        self.cell_len = index.cell_len();
        self.torus = *net.torus();
        self.grid = UnitGrid::new(self.torus, self.grid.side_count());
        self.tiling = GridTiling::new(index, &self.grid);
        self.plan = SweepPlan::new(self.theta, self.start_line, self.torus, self.grid.len());
        self.tile_reports = vec![GridCoverageReport::default(); self.tiling.tile_count()];
        self.mask = vec![false; self.grid.len()];
        self.dirty = DirtySet::new(self.tiling.tile_count());
        self.cold_sweep(net);
        for (idx, (&old, &new)) in old_mask.iter().zip(self.mask.iter()).enumerate() {
            match (old, new) {
                (false, true) => delta.flipped_on.push(idx),
                (true, false) => delta.flipped_off.push(idx),
                _ => {}
            }
        }
        delta.tiles_resweeped = self.tiling.tile_count();
        delta.points_resweeped = self.grid.len();
        delta.after = self.total.clone();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullview::analyze_point;
    use fullview_model::{Camera, CoverageProvider, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn pseudo_random_net(n: usize, r_base: f64) -> CameraNetwork {
        let mut cams = Vec::new();
        for i in 0..n {
            let x = (i as f64 * 0.618_033_98) % 1.0;
            let y = (i as f64 * 0.414_213_56) % 1.0;
            let facing = (i as f64 * 2.399_963) % (2.0 * PI);
            let r = r_base * (1.0 + (i % 5) as f64 / 5.0);
            let phi = PI / 4.0 + PI / 2.0 * ((i % 3) as f64 / 3.0);
            cams.push(Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(i % 3),
            ));
        }
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn tiling_partitions_the_grid_exactly() {
        let net = pseudo_random_net(80, 0.08);
        for side in [1usize, 7, 13, 40] {
            let grid = UnitGrid::new(Torus::unit(), side);
            let tiling = GridTiling::new(net.index(), &grid);
            assert_eq!(tiling.grid_len(), grid.len());
            let mut seen = vec![0u32; grid.len()];
            let mut total = 0usize;
            for t in 0..tiling.tile_count() {
                let mut in_tile = 0;
                let (cx, cy) = tiling.tile_cell(t);
                tiling.for_each_point_in_tile(t, |idx| {
                    seen[idx] += 1;
                    in_tile += 1;
                    // Every point must actually live in the tile's cell.
                    assert_eq!(
                        net.index().cell_of(grid.point(idx)),
                        (cx, cy),
                        "grid point {idx} assigned to wrong tile"
                    );
                });
                assert_eq!(in_tile, tiling.tile_point_count(t));
                total += in_tile;
            }
            assert_eq!(total, grid.len(), "side={side}");
            assert!(seen.iter().all(|&c| c == 1), "side={side}: not a partition");
        }
    }

    #[test]
    fn sweep_grid_matches_per_point_analysis() {
        let net = pseudo_random_net(120, 0.07);
        let grid = UnitGrid::new(Torus::unit(), 25);
        let mut visited = vec![false; grid.len()];
        sweep_grid(&net, &grid, |idx, point, view| {
            assert!(!visited[idx]);
            visited[idx] = true;
            let owned = analyze_point(&net, point);
            assert_eq!(view.to_owned(), owned, "idx {idx}");
        });
        assert!(visited.iter().all(|&v| v));
    }

    #[test]
    fn sweep_visits_everything_when_cells_outnumber_grid() {
        // Empty network: index floors at 256×256 cells, far more than the
        // grid's 64 points — most tiles are empty, and the sweep must
        // still visit every point.
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let grid = UnitGrid::new(Torus::unit(), 8);
        let mut count = 0;
        sweep_grid(&net, &grid, |_, _, view| {
            assert_eq!(view.covering_cameras, 0);
            count += 1;
        });
        assert_eq!(count, grid.len());
    }

    #[test]
    fn range_sweep_partitions_concatenate_to_the_full_sweep() {
        let net = pseudo_random_net(100, 0.07);
        let grid = UnitGrid::new(Torus::unit(), 21);
        let mut full = vec![None; grid.len()];
        sweep_grid(&net, &grid, |idx, _, view| {
            full[idx] = Some(view.to_owned())
        });

        // Any partition of 0..len must reproduce the full sweep exactly.
        for cuts in [vec![0, 441], vec![0, 100, 441], vec![0, 1, 220, 219, 441]] {
            let mut sorted = cuts.clone();
            sorted.sort_unstable();
            let mut seen = vec![false; grid.len()];
            for pair in sorted.windows(2) {
                sweep_grid_range(&net, &grid, pair[0], pair[1], |idx, point, view| {
                    assert!(!seen[idx], "index {idx} visited twice");
                    seen[idx] = true;
                    assert_eq!(view.to_owned(), analyze_point(&net, point));
                    assert_eq!(Some(view.to_owned()), full[idx], "idx {idx}");
                });
            }
            assert!(seen.iter().all(|&v| v), "partition {cuts:?} missed points");
        }

        // Empty and degenerate ranges are fine.
        sweep_grid_range(&net, &grid, 7, 7, |_, _, _| panic!("empty range"));
    }

    #[test]
    fn range_sweep_over_mostly_empty_tiles() {
        let net = CameraNetwork::new(Torus::unit(), Vec::new());
        let grid = UnitGrid::new(Torus::unit(), 8);
        let mut count = 0;
        sweep_grid_range(&net, &grid, 10, 30, |idx, _, view| {
            assert!((10..30).contains(&idx));
            assert_eq!(view.covering_cameras, 0);
            count += 1;
        });
        assert_eq!(count, 20);
    }

    #[test]
    fn tile_index_spans_cover_their_points() {
        let net = pseudo_random_net(80, 0.08);
        let grid = UnitGrid::new(Torus::unit(), 17);
        let tiling = GridTiling::new(net.index(), &grid);
        for t in 0..tiling.tile_count() {
            match tiling.tile_index_span(t) {
                None => assert_eq!(tiling.tile_point_count(t), 0),
                Some((min_idx, max_idx)) => {
                    tiling.for_each_point_in_tile(t, |idx| {
                        assert!(idx >= min_idx && idx <= max_idx);
                    });
                }
            }
        }
    }

    #[test]
    fn pinned_cursor_agrees_with_whole_network_queries() {
        let net = pseudo_random_net(60, 0.09);
        let grid = UnitGrid::new(Torus::unit(), 20);
        for_each_grid_point(&net, &grid, |query, _, point| {
            assert_eq!(query.coverage_count(point), net.coverage_count(point));
        });
    }

    /// A golden-ratio scatter of `n` cameras with one radius and field
    /// of view.
    fn scatter_net(n: usize, r: f64, phi: f64) -> CameraNetwork {
        let cams = (0..n)
            .map(|i| {
                let t = i as f64;
                let pos = Point::new(
                    (t * 0.754_877_67).fract(),
                    (t * 0.569_840_29 + 0.137).fract(),
                );
                let spec = SensorSpec::new(r, phi).unwrap();
                Camera::new(pos, Angle::new(t * 2.399_963), spec, GroupId(i % 3))
            })
            .collect();
        CameraNetwork::new(Torus::unit(), cams)
    }

    #[test]
    fn forced_certificates_match_exact_per_point() {
        // Per-point flags of the forced certificate tier — whole-tile
        // proofs, point-space recursion, floor rectangles screened with
        // only the cameras that reach them — against the exact oracle,
        // on ranged sweeps too.
        let mut proved = 0;
        for (net, side, theta, lo) in [
            (pseudo_random_net(120, 0.07), 60, PI / 4.0, 0),
            (scatter_net(300, 0.14, 2.0 * PI), 110, PI / 3.0, 17),
            (scatter_net(260, 0.16, PI), 100, PI / 2.0, 0),
            (scatter_net(200, 0.12, 2.0 * PI), 90, PI / 8.0, 2000),
        ] {
            let grid = UnitGrid::new(Torus::unit(), side);
            let hi = grid.len() - lo / 2;
            let tiling = GridTiling::new(net.index(), &grid);
            let theta = EffectiveAngle::new(theta).unwrap();
            let mut plan = SweepPlan::forced(theta, Angle::ZERO, Torus::unit(), hi - lo);
            let mut cursor = net.tile_cursor();
            let mut got = vec![None; grid.len()];
            for t in 0..tiling.tile_count() {
                plan.tile_flags(
                    &mut cursor,
                    &tiling,
                    &grid,
                    t,
                    (lo, hi),
                    &mut |idx, flags| {
                        assert!(got[idx].replace(flags).is_none(), "idx {idx} twice");
                    },
                );
            }
            let stats = plan.finish();
            assert_eq!(stats.points_proved + stats.points_visited, hi - lo);
            proved += stats.points_proved;
            let mut exact = GridEvaluator::new_exact(theta, Angle::ZERO);
            for (idx, flags) in got.iter().enumerate() {
                let want = (lo..hi)
                    .contains(&idx)
                    .then(|| exact.point_flags_with(&net, grid.point(idx)));
                assert_eq!(*flags, want, "side {side} idx {idx}");
            }
        }
        assert!(proved > 0, "certificates never fired");
    }

    fn incremental_matches_cold(state: &IncrementalSweep, net: &CameraNetwork, ctx: &str) {
        let cold = IncrementalSweep::new(net, state.theta(), Angle::ZERO, state.grid_side());
        assert_eq!(state.report(), cold.report(), "{ctx}: report drifted");
        assert_eq!(state.mask(), cold.mask(), "{ctx}: mask drifted");
    }

    #[test]
    fn dirty_set_marks_counts_and_iterates() {
        let mut d = DirtySet::new(130);
        assert!(d.is_empty());
        assert!(d.mark(0));
        assert!(d.mark(129));
        assert!(d.mark(64));
        assert!(!d.mark(64), "re-mark is not newly marked");
        assert_eq!(d.marked_count(), 3);
        assert!(d.is_marked(129) && !d.is_marked(1));
        let mut seen = Vec::new();
        d.for_each_marked(|t| seen.push(t));
        assert_eq!(seen, vec![0, 64, 129], "ascending order");
        d.mark_all();
        assert_eq!(d.marked_count(), 130);
        let mut n = 0;
        d.for_each_marked(|t| {
            assert!(t < 130);
            n += 1;
        });
        assert_eq!(n, 130, "mark_all must not leak tail bits");
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn incremental_cold_build_matches_sweep_grid() {
        let net = pseudo_random_net(120, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let state = IncrementalSweep::new(&net, theta, Angle::ZERO, 25);
        let grid = UnitGrid::new(Torus::unit(), 25);
        let mut evaluator = GridEvaluator::new(theta, Angle::ZERO);
        let cold = evaluator.evaluate_grid(&net, &grid);
        assert_eq!(state.report(), &cold);
        let mut mask = vec![false; grid.len()];
        sweep_grid(&net, &grid, |idx, _, view| {
            mask[idx] = view.is_full_view(theta);
        });
        assert_eq!(state.mask(), &mask[..]);
        assert!(state.is_clean());
    }

    #[test]
    fn resweep_after_move_is_bit_identical_and_local() {
        let mut net = pseudo_random_net(150, 0.06);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 30);
        let total_tiles = net.index().cells_per_axis().pow(2);

        let cam = net.cameras()[17];
        let (old_pos, radius) = (cam.position(), cam.spec().radius());
        let to = Point::new(0.81, 0.13);
        assert!(net.move_camera(17, to));
        state.mark_disk(old_pos, radius);
        state.mark_disk(to, radius);
        let delta = state.resweep_dirty(&net);
        assert!(!delta.rebuilt);
        assert!(delta.tiles_resweeped > 0 && delta.tiles_resweeped < total_tiles);
        assert_eq!(delta.after, *state.report());
        incremental_matches_cold(&state, &net, "after move");

        // Flip lists must be consistent with the report delta.
        let net_gain = delta.flipped_on.len() as isize - delta.flipped_off.len() as isize;
        assert_eq!(
            delta.after.full_view as isize - delta.before.full_view as isize,
            net_gain
        );
    }

    #[test]
    fn resweep_after_fail_is_bit_identical() {
        let mut net = pseudo_random_net(100, 0.08);
        let theta = EffectiveAngle::new(PI / 3.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 24);
        let victim = net.cameras()[42];
        assert!(net.remove_camera(42));
        state.mark_disk(victim.position(), victim.spec().radius());
        let delta = state.resweep_dirty(&net);
        assert!(!delta.rebuilt, "fail keeps index geometry");
        assert!(
            delta.flipped_on.is_empty(),
            "losing a camera never adds coverage"
        );
        incremental_matches_cold(&state, &net, "after fail");
    }

    #[test]
    fn geometry_change_falls_back_to_rebuild() {
        let net = pseudo_random_net(80, 0.08);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 20);
        // A freshly-deployed replacement with a different max radius has
        // different index geometry.
        let reseeded = pseudo_random_net(50, 0.15);
        assert!(!state.geometry_matches(reseeded.index()));
        state.invalidate();
        let delta = state.resweep_dirty(&reseeded);
        assert!(delta.rebuilt);
        assert_eq!(delta.points_resweeped, 400);
        incremental_matches_cold(&state, &reseeded, "after rebuild");
    }

    #[test]
    fn random_mutation_sequence_stays_bit_identical() {
        // The tentpole invariant end-to-end: an arbitrary interleaving of
        // fail/move mutations with incremental repairs never drifts from a
        // cold sweep.
        let mut net = pseudo_random_net(130, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 26);
        for step in 0..12 {
            let id = (step * 37) % net.len();
            if step % 3 == 0 {
                let victim = net.cameras()[id];
                assert!(net.remove_camera(id));
                state.mark_disk(victim.position(), victim.spec().radius());
            } else {
                let cam = net.cameras()[id];
                let to = Point::new(
                    (step as f64 * 0.271_828) % 1.0,
                    (step as f64 * 0.141_421) % 1.0,
                );
                assert!(net.move_camera(id, to));
                state.mark_disk(cam.position(), cam.spec().radius());
                state.mark_disk(to, cam.spec().radius());
            }
            // Repair on every other step so some repairs batch two
            // mutations' dirt.
            if step % 2 == 1 {
                state.resweep_dirty(&net);
                incremental_matches_cold(&state, &net, &format!("step {step}"));
            }
        }
        state.resweep_dirty(&net);
        incremental_matches_cold(&state, &net, "final");
    }

    #[test]
    fn seam_straddling_disk_marks_wrapped_tiles() {
        // A camera at the torus corner: its disk wraps all four seams and
        // the marked window must wrap with it.
        let mut net = pseudo_random_net(90, 0.07);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 22);
        let cam = net.cameras()[5];
        let to = Point::new(0.001, 0.999);
        assert!(net.move_camera(5, to));
        state.mark_disk(cam.position(), cam.spec().radius());
        state.mark_disk(to, cam.spec().radius());
        state.resweep_dirty(&net);
        incremental_matches_cold(&state, &net, "seam move");
    }

    #[test]
    fn clean_resweep_is_a_no_op_delta() {
        let net = pseudo_random_net(60, 0.09);
        let theta = EffectiveAngle::new(PI / 4.0).unwrap();
        let mut state = IncrementalSweep::new(&net, theta, Angle::ZERO, 16);
        let delta = state.resweep_dirty(&net);
        assert_eq!(delta.tiles_resweeped, 0);
        assert_eq!(delta.points_resweeped, 0);
        assert!(delta.flipped_on.is_empty() && delta.flipped_off.is_empty());
        assert_eq!(delta.before, delta.after);
    }

    #[test]
    fn single_camera_and_giant_radius_degenerate_cases() {
        // n = 1.
        let one = CameraNetwork::new(
            Torus::unit(),
            vec![Camera::new(
                Point::new(0.5, 0.5),
                Angle::ZERO,
                SensorSpec::new(0.2, PI).unwrap(),
                GroupId(0),
            )],
        );
        let grid = UnitGrid::new(Torus::unit(), 12);
        sweep_grid(&one, &grid, |_, point, view| {
            assert_eq!(view.to_owned(), analyze_point(&one, point));
        });
        // Radius beyond the torus side: full-scan candidates everywhere.
        let giant = CameraNetwork::new(
            Torus::unit(),
            vec![Camera::new(
                Point::new(0.3, 0.3),
                Angle::ZERO,
                SensorSpec::new(1.5, PI).unwrap(),
                GroupId(0),
            )],
        );
        sweep_grid(&giant, &grid, |_, point, view| {
            assert_eq!(view.to_owned(), analyze_point(&giant, point));
        });
    }
}
