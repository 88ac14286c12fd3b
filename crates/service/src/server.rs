//! The daemon: TCP acceptor, connection handlers, query dispatch.
//!
//! One process owns one fleet. The [`CameraNetwork`] (and with it the
//! warm `SpatialGrid`/tile structures) is loaded or generated once at
//! startup and lives behind an `RwLock`: queries take cheap read locks,
//! mutations (`fail`, `move`, `reseed`, `restore`) take the write lock,
//! refresh the canonical fingerprint, mark the mutated sensing disks
//! dirty in every warm [`IncrementalSweep`] state, and downgrade (not
//! evict) the affected cache entries.
//!
//! Dense-sweep queries (`check`, `holes`, `mask`) are served from a
//! small registry of warm [`IncrementalSweep`] states: a mutation marks
//! only the tiles its old/new sensing disks touch, and the next query
//! re-evaluates exactly those tiles — bit-identical to a cold sweep (the
//! invariant is differential-tested in `fullview-core`). `watch`
//! subscribers receive a delta frame per mutation built from the same
//! repair.
//!
//! Locking discipline (lock order: `watches` → `fleet` → `sweeps`; the
//! cache lock is only ever held alone): a mutation applies the change,
//! marks dirt, and repairs watched states all under one continuous fleet
//! write section, so a concurrent query can never observe the
//! post-mutation network without the mutation's dirt. The cache is
//! looked up by digest *plus* current fingerprint; a job racing a
//! mutation may insert a payload under the pre-mutation fingerprint,
//! which later lookups simply report as stale and recompute.

use crate::admission::{AdmissionControl, ANON_CLIENT};
use crate::cache::{Lookup, ResultCache};
use crate::metrics::Metrics;
use crate::protocol::{self, Request};
use crate::queue::JobQueue;
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::wal::{self, WalOp, WalRecord, WalWriter};
use fullview_core::canon::{network_fingerprint, profile_fingerprint, CanonicalHasher};
use fullview_core::{
    barrier_full_view, collect_prover_stats, count_k_view_range, coverage_glyphs_range,
    coverage_map_text, dense_grid, hole_report_text, holes_from_mask, kfull_text,
    prob_point_full_view_poisson, prob_point_meets_necessary_poisson,
    prob_point_meets_sufficient_poisson, EffectiveAngle, IncrementalSweep, ProverStats,
};
use fullview_deploy::deploy_uniform;
use fullview_geom::{Angle, Point, UnitGrid};
use fullview_model::{CameraNetwork, NetworkProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is assembled: fleet provenance, default effective
/// angle, and the sizing of the worker pool, queue, and cache.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port `0` for an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Heterogeneous camera mix for generation and theory queries.
    pub profile: NetworkProfile,
    /// Fleet size for generation and `reseed`.
    pub n: usize,
    /// Deployment seed for generation.
    pub seed: u64,
    /// Default effective angle θ; per-request `theta-deg` overrides it.
    pub theta: EffectiveAngle,
    /// Threads per dense-grid sweep. Retained for configuration
    /// compatibility: dense sweeps are now served from the warm
    /// incremental engine, whose repairs are cheap enough that a thread
    /// pool per sweep no longer pays for itself.
    pub eval_threads: usize,
    /// Worker pool size (`0` = one per CPU, never zero).
    pub workers: usize,
    /// Job queue bound (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Result cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Admission-control refill rate in requests per second per client
    /// identity (`0` disables the gate — the default).
    pub admit_rate: f64,
    /// Admission-control bucket capacity (burst allowance, clamped ≥ 1).
    pub admit_burst: f64,
    /// Largest discretization (in total grid cells, `side²`) a request
    /// may ask for; `0` means unlimited. Over-budget requests are
    /// rejected up front with a named `max-cells exceeded` err frame
    /// instead of attempting an allocation that could take the daemon
    /// down.
    pub max_cells: usize,
    /// A pre-built network (e.g. loaded from the text format). When set,
    /// it replaces generation; `reseed` still regenerates from
    /// `profile`/`n`.
    pub preloaded: Option<CameraNetwork>,
    /// Durability base path. When set, the daemon restores
    /// `<wal>` (writing it first if absent), replays `<wal>.wal`, and
    /// journals every accepted mutation there — fsync'd before the
    /// fleet mutates — so a crash loses at most un-acknowledged
    /// mutations. The `snapshot` verb (with the default path)
    /// checkpoints: it rewrites `<wal>` and truncates the journal.
    pub wal: Option<PathBuf>,
}

impl ServiceConfig {
    /// A config with the documented defaults: ephemeral loopback port,
    /// 400 cameras from seed 0, θ = 45°, auto eval threads, 2 workers,
    /// queue bound 64, cache capacity 128.
    #[must_use]
    pub fn new(profile: NetworkProfile) -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            profile,
            n: 400,
            seed: 0,
            theta: EffectiveAngle::new(std::f64::consts::FRAC_PI_4).expect("45° is valid"),
            eval_threads: 0,
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            admit_rate: 0.0,
            admit_burst: 8.0,
            max_cells: 0,
            preloaded: None,
            wal: None,
        }
    }
}

/// The durability state: the snapshot base path plus the open journal.
/// Lock order: the journal mutex is only ever taken while the fleet
/// lock is already held (write for mutations, read for snapshots).
struct WalState {
    base: PathBuf,
    writer: Mutex<WalWriter>,
}

/// The mutable fleet state guarded by the `RwLock`.
struct Fleet {
    profile: NetworkProfile,
    net: CameraNetwork,
    net_fp: u64,
    profile_fp: u64,
}

/// Sweep-state identity: the two inputs that change the evaluation
/// lattice — θ (as exact bits) and the grid side.
type SweepKey = (u64, usize);

fn sweep_key(theta: EffectiveAngle, grid_side: usize) -> SweepKey {
    (theta.radians().to_bits(), grid_side)
}

const SWEEP_REGISTRY_CAP: usize = 8;

struct SweepSlot {
    key: SweepKey,
    state: IncrementalSweep,
    /// Pinned slots (those a `watch` subscriber depends on) are exempt
    /// from LRU eviction, recomputed statelessly from the live
    /// subscription list on every change to it.
    pinned: bool,
    last_used: u64,
}

/// A small LRU pool of warm [`IncrementalSweep`] states. Mutations mark
/// dirt into *every* slot (marking is cheap — a few tile bits); queries
/// repair only the slot they hit.
struct SweepRegistry {
    slots: Vec<SweepSlot>,
    tick: u64,
}

impl SweepRegistry {
    fn new() -> Self {
        SweepRegistry {
            slots: Vec::new(),
            tick: 0,
        }
    }

    /// Marks one sensing disk dirty in every warm state.
    fn mark_disk_all(&mut self, center: Point, radius: f64) {
        for slot in &mut self.slots {
            slot.state.mark_disk(center, radius);
        }
    }

    /// Invalidates every warm state (fleet replaced wholesale: `reseed`
    /// or `restore` — the spatial-index geometry may have changed).
    fn invalidate_all(&mut self) {
        for slot in &mut self.slots {
            slot.state.invalidate();
        }
    }

    /// Pins the slot for `key` against LRU eviction (no-op when absent).
    fn pin(&mut self, key: SweepKey) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.pinned = true;
        }
    }

    /// Recomputes pinning from the set of keys still watched.
    fn set_pins(&mut self, watched: &[SweepKey]) {
        for slot in &mut self.slots {
            slot.pinned = watched.contains(&slot.key);
        }
    }

    /// The warm state for `(theta, side)`, building it cold on first
    /// use. Evicts the least-recently-used unpinned slot when full; when
    /// every slot is pinned the pool grows past the cap rather than
    /// breaking a watcher.
    fn get_or_build(
        &mut self,
        net: &CameraNetwork,
        theta: EffectiveAngle,
        side: usize,
    ) -> &mut IncrementalSweep {
        self.tick += 1;
        let key = sweep_key(theta, side);
        if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            self.slots[i].last_used = self.tick;
            return &mut self.slots[i].state;
        }
        if self.slots.len() >= SWEEP_REGISTRY_CAP {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.pinned)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            if let Some(i) = victim {
                self.slots.swap_remove(i);
            }
        }
        let state = IncrementalSweep::new(net, theta, Angle::ZERO, side);
        self.slots.push(SweepSlot {
            key,
            state,
            pinned: false,
            last_used: self.tick,
        });
        &mut self.slots.last_mut().expect("just pushed").state
    }
}

/// One `watch` subscriber: a cloned connection the hub writes delta
/// frames to. The original connection handler has returned; the hub
/// owns the stream's lifetime.
struct WatchSub {
    key: SweepKey,
    theta: EffectiveAngle,
    grid: usize,
    stream: TcpStream,
    /// Per-subscriber frame counter (baseline is seq 0).
    seq: u64,
}

/// Subscribers plus the last-emitted (fraction, hole count) per watched
/// config, so each delta frame's *before* values continue exactly from
/// the previous frame even when unrelated queries repaired the state in
/// between.
struct WatchHub {
    subs: Vec<WatchSub>,
    last: std::collections::HashMap<SweepKey, (f64, usize)>,
}

impl WatchHub {
    fn new() -> Self {
        WatchHub {
            subs: Vec::new(),
            last: std::collections::HashMap::new(),
        }
    }

    /// The distinct (key, θ, side) configurations currently watched.
    fn watched_configs(&self) -> Vec<(SweepKey, EffectiveAngle, usize)> {
        let mut configs: Vec<(SweepKey, EffectiveAngle, usize)> = Vec::new();
        for sub in &self.subs {
            if !configs.iter().any(|(k, _, _)| *k == sub.key) {
                configs.push((sub.key, sub.theta, sub.grid));
            }
        }
        configs
    }
}

struct ServerCtx {
    fleet: RwLock<Fleet>,
    cache: Mutex<ResultCache>,
    /// Warm incremental sweep states, keyed by (θ, grid side). Locked
    /// only while `fleet` is already held (read for queries, write for
    /// mutations), never the other way round.
    sweeps: Mutex<SweepRegistry>,
    /// Watch subscribers. Locked first by mutations (before `fleet`), so
    /// delta emission is serialized in mutation order.
    watches: Mutex<WatchHub>,
    metrics: Metrics,
    queue: JobQueue,
    admission: AdmissionControl,
    /// Write-ahead journal (`--wal`); `None` runs without durability.
    wal: Option<WalState>,
    /// Discretization budget in total cells (`--max-cells`; 0 = off).
    max_cells: usize,
    /// Certificate-tier counters accumulated across every compute,
    /// reported by the `stats` verb.
    prover_stats: Mutex<ProverStats>,
    theta_default: EffectiveAngle,
    reseed_n: usize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running daemon. Dropping it (or calling [`Server::wait`] after a
/// client sent `shutdown`) drains in-flight jobs before returning.
pub struct Server {
    ctx: Arc<ServerCtx>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.ctx.addr)
            .finish()
    }
}

impl Server {
    /// Binds the listener, builds (or adopts) the fleet, spawns the
    /// worker pool and the acceptor thread, and returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or a deployment error from fleet
    /// generation (surfaced as [`io::ErrorKind::InvalidInput`]).
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let mut profile = config.profile;
        let mut net = match config.preloaded {
            Some(net) => net,
            None => {
                let mut rng = StdRng::seed_from_u64(config.seed);
                deploy_uniform(fullview_geom::Torus::unit(), &profile, config.n, &mut rng)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            }
        };
        // Crash recovery: restore the base snapshot (writing it first if
        // absent, pinning the generated state), then replay the journal
        // suffix not yet folded into it.
        let wal = match &config.wal {
            None => None,
            Some(base) => {
                if base.exists() {
                    let snap = read_snapshot(base).map_err(invalid)?;
                    profile = snap.profile;
                    net = snap.net;
                } else {
                    write_snapshot(base, &profile, &net)?;
                }
                let wal_path = wal::wal_path_for(base);
                let scan = wal::read_wal(&wal_path).map_err(invalid)?;
                wal::replay_onto(&profile, &mut net, &scan.records).map_err(invalid)?;
                let writer = WalWriter::open(&wal_path, &scan)?;
                Some(WalState {
                    base: base.clone(),
                    writer: Mutex::new(writer),
                })
            }
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let net_fp = network_fingerprint(&net);
        let profile_fp = profile_fingerprint(&profile);
        let ctx = Arc::new(ServerCtx {
            fleet: RwLock::new(Fleet {
                profile,
                net,
                net_fp,
                profile_fp,
            }),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            sweeps: Mutex::new(SweepRegistry::new()),
            watches: Mutex::new(WatchHub::new()),
            metrics: Metrics::new(),
            queue: JobQueue::new(config.workers, config.queue_capacity),
            admission: AdmissionControl::new(config.admit_rate, config.admit_burst),
            wal,
            max_cells: config.max_cells,
            prover_stats: Mutex::new(ProverStats::default()),
            theta_default: config.theta,
            reseed_n: config.n.max(1),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let acceptor_ctx = Arc::clone(&ctx);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &acceptor_ctx));
        Ok(Server {
            ctx,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Initiates shutdown programmatically (equivalent to a client
    /// `shutdown` request). Returns without waiting; see
    /// [`wait`](Self::wait).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.ctx);
    }

    /// Blocks until the daemon has fully stopped: acceptor exited, every
    /// connection handler finished, and the job queue drained.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        initiate_shutdown(&self.ctx);
        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor thread panicked");
        }
    }
}

fn initiate_shutdown(ctx: &ServerCtx) {
    if ctx.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    // Wake the acceptor out of its blocking accept.
    let _ = TcpStream::connect(ctx.addr);
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let ctx = Arc::clone(ctx);
                handlers.push(std::thread::spawn(move || handle_connection(&ctx, &stream)));
            }
            Err(_) => continue,
        }
    }
    // Graceful drain: handlers notice the flag within one read timeout;
    // any job they already submitted completes before the pool stops.
    for handle in handlers {
        handle.join().expect("connection handler panicked");
    }
    ctx.queue.shutdown();
}

fn handle_connection(ctx: &Arc<ServerCtx>, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut carry: Vec<u8> = Vec::new();
    // The connection's declared identity; `hello client=NAME` replaces
    // it, everything before (or without) a hello shares the anon bucket.
    let mut client = ANON_CLIENT.to_string();
    loop {
        let outcome = protocol::read_request_line_checked(stream, &mut carry, &ctx.shutdown);
        let line = match outcome {
            protocol::LineRead::Line(line) => line,
            protocol::LineRead::Closed => return,
            ref bad => {
                // Oversized / non-UTF-8: answer with an err frame so the
                // peer learns why, then drop the connection.
                ctx.metrics.record_rejected();
                let mut writer = stream;
                let message = protocol::line_read_error(bad).expect("oversized or invalid");
                let _ = protocol::write_err(&mut writer, &message);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let mut writer = stream;
        match Request::parse(&line) {
            Err(message) => {
                ctx.metrics.record_rejected();
                if protocol::write_err(&mut writer, &message).is_err() {
                    return;
                }
            }
            Ok(req) if req.verb() == "hello" => {
                match req.allow_only(&["client"]).and_then(|()| {
                    let name: String = req.get("client", ANON_CLIENT.to_string())?;
                    Ok(name)
                }) {
                    Ok(name) => {
                        client = name;
                        ctx.metrics
                            .record("hello", started.elapsed().as_secs_f64() * 1e3);
                        if protocol::write_ok(&mut writer, &format!("hello {client}\n")).is_err() {
                            return;
                        }
                    }
                    Err(message) => {
                        ctx.metrics.record_rejected();
                        if protocol::write_err(&mut writer, &message).is_err() {
                            return;
                        }
                    }
                }
            }
            Ok(req) if req.verb() == "watch" => {
                // `watch` takes over the connection: on success the hub
                // owns a clone of the stream and this handler retires.
                match run_watch(ctx, &req, stream) {
                    Ok(()) => {
                        ctx.metrics
                            .record("watch", started.elapsed().as_secs_f64() * 1e3);
                        return;
                    }
                    Err(message) => {
                        ctx.metrics.record_rejected();
                        if protocol::write_err(&mut writer, &message).is_err() {
                            return;
                        }
                    }
                }
            }
            Ok(req) => {
                let verb = req.verb().to_string();
                if protocol::known_verb(&verb, false).is_ok_and(|v| v.gated) {
                    if let Err(retry_ms) = ctx.admission.admit(&client) {
                        ctx.metrics.record_busy();
                        if protocol::write_err(&mut writer, &format!("busy retry_after={retry_ms}"))
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                }
                match dispatch(ctx, &req, &client) {
                    Ok(payload) => {
                        ctx.metrics
                            .record(&verb, started.elapsed().as_secs_f64() * 1e3);
                        if protocol::write_ok(&mut writer, &payload).is_err() {
                            return;
                        }
                        if verb == "shutdown" {
                            initiate_shutdown(ctx);
                            return;
                        }
                    }
                    Err(message) => {
                        ctx.metrics.record_rejected();
                        if protocol::write_err(&mut writer, &message).is_err() {
                            return;
                        }
                    }
                }
            }
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Which cached query a request resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Check,
    Map,
    Holes,
    Kfull,
    Prob,
    /// Raw coverage-map glyphs of a grid-index range — the cluster
    /// coordinator's scatter unit for `map`.
    Cells,
    /// Full-view coverage mask (`'1'`/`'0'` per cell) of a grid-index
    /// range — the scatter unit for `holes`.
    Mask,
    /// Count of k-full-view-covered points in a grid-index range — the
    /// scatter unit for `kfull`.
    Kcount,
    /// §VIII barrier full-view coverage: whether a chain of full-view
    /// covered cells spans the region.
    Barrier,
}

impl QueryKind {
    fn name(self) -> &'static str {
        match self {
            QueryKind::Check => "check",
            QueryKind::Map => "map",
            QueryKind::Holes => "holes",
            QueryKind::Kfull => "kfull",
            QueryKind::Prob => "prob",
            QueryKind::Cells => "cells",
            QueryKind::Mask => "mask",
            QueryKind::Kcount => "kcount",
            QueryKind::Barrier => "barrier",
        }
    }

    /// Whether answers depend on the deployed network (vs profile only).
    fn network_dependent(self) -> bool {
        !matches!(self, QueryKind::Prob)
    }

    /// Whether the query takes `lo`/`hi` grid-index range parameters.
    fn ranged(self) -> bool {
        matches!(self, QueryKind::Cells | QueryKind::Mask | QueryKind::Kcount)
    }

    /// Total grid points of the discretization a range indexes into.
    /// `None` when the squared side overflows `usize` — the request is
    /// bogus and must be answered with an `err` frame, not a panic (in
    /// release the raw multiply would wrap and admit nonsense ranges).
    fn range_total(self, params: &QueryParams) -> Option<usize> {
        let side = match self {
            QueryKind::Cells => params.side,
            _ => params.grid,
        };
        side.checked_mul(side)
    }
}

/// Resolved, validated query parameters — everything the digest and the
/// compute step need.
#[derive(Debug, Clone, Copy)]
struct QueryParams {
    theta: EffectiveAngle,
    side: usize,
    grid: usize,
    k: usize,
    density: f64,
    /// Range start for ranged kinds (inclusive).
    lo: usize,
    /// Range end for ranged kinds (exclusive).
    hi: usize,
    /// Optional latency budget (`deadline_ms=`). Deliberately *not*
    /// part of the digest — the answer doesn't depend on it; it only
    /// governs whether the work is shed with an `err deadline` frame.
    deadline: Option<Duration>,
}

fn theta_of(ctx: &ServerCtx, req: &Request<'_>) -> Result<EffectiveAngle, String> {
    let deg: f64 = req.get("theta-deg", f64::NAN)?;
    if deg.is_nan() {
        return Ok(ctx.theta_default);
    }
    EffectiveAngle::new(deg.to_radians()).map_err(|e| e.to_string())
}

fn parse_query(ctx: &ServerCtx, req: &Request<'_>, kind: QueryKind) -> Result<QueryParams, String> {
    match kind {
        QueryKind::Check => req.allow_only(&["theta-deg", "deadline_ms"])?,
        QueryKind::Map => req.allow_only(&["theta-deg", "side", "deadline_ms"])?,
        QueryKind::Holes => req.allow_only(&["theta-deg", "grid", "deadline_ms"])?,
        QueryKind::Kfull => req.allow_only(&["theta-deg", "k", "grid", "deadline_ms"])?,
        QueryKind::Prob => req.allow_only(&["theta-deg", "density", "deadline_ms"])?,
        QueryKind::Cells => req.allow_only(&["theta-deg", "side", "lo", "hi", "deadline_ms"])?,
        QueryKind::Mask => req.allow_only(&["theta-deg", "grid", "lo", "hi", "deadline_ms"])?,
        QueryKind::Kcount => {
            req.allow_only(&["theta-deg", "k", "grid", "lo", "hi", "deadline_ms"])?;
        }
        QueryKind::Barrier => req.allow_only(&["theta-deg", "grid", "deadline_ms"])?,
    }
    let deadline_ms: u64 = req.get("deadline_ms", u64::MAX)?;
    let mut params = QueryParams {
        theta: theta_of(ctx, req)?,
        side: req.get("side", 48usize)?,
        grid: req.get("grid", 24usize)?,
        k: req.get("k", 2usize)?,
        density: req.get("density", 800.0f64)?,
        lo: req.get("lo", 0usize)?,
        hi: req.get("hi", usize::MAX)?,
        deadline: (deadline_ms != u64::MAX).then(|| Duration::from_millis(deadline_ms)),
    };
    if params.side == 0 || params.grid == 0 {
        return Err("side/grid must be positive".to_string());
    }
    if !params.density.is_finite() || params.density <= 0.0 {
        return Err(format!(
            "density must be finite and positive, got {}",
            params.density
        ));
    }
    // The discretization budget: reject up front, before any grid
    // allocation, with a *named* err frame the client can match on.
    // Overflowing `side²` is over any finite budget by definition.
    let dim = match kind {
        QueryKind::Check | QueryKind::Prob => None,
        QueryKind::Map | QueryKind::Cells => Some(params.side),
        _ => Some(params.grid),
    };
    if ctx.max_cells > 0 {
        if let Some(side) = dim {
            if side.checked_mul(side).is_none_or(|c| c > ctx.max_cells) {
                return Err(format!(
                    "max-cells exceeded: {side}×{side} grid is over the {}-cell budget",
                    ctx.max_cells
                ));
            }
        }
    }
    if kind.ranged() {
        let total = kind.range_total(&params).ok_or_else(|| {
            format!(
                "side/grid {} is too large: the squared point count overflows",
                match kind {
                    QueryKind::Cells => params.side,
                    _ => params.grid,
                }
            )
        })?;
        if params.hi == usize::MAX {
            params.hi = total;
        }
        if params.lo >= params.hi || params.hi > total {
            return Err(format!(
                "range [{}, {}) must be non-empty within the {total}-point grid",
                params.lo, params.hi
            ));
        }
    }
    Ok(params)
}

/// The canonical cache key of a query: kind plus answer-affecting
/// parameters. The fleet fingerprint is deliberately *not* part of the
/// key — it rides on the cache entry instead (see [`crate::cache`]), so
/// a mutation downgrades entries to stale rather than stranding them
/// under unreachable keys, and a `restore` back to a previous
/// fingerprint revives them.
fn digest(kind: QueryKind, params: &QueryParams) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str(kind.name());
    h.write_f64(params.theta.radians());
    match kind {
        QueryKind::Check => {}
        QueryKind::Map => h.write_usize(params.side),
        QueryKind::Holes => h.write_usize(params.grid),
        QueryKind::Kfull => {
            h.write_usize(params.k);
            h.write_usize(params.grid);
        }
        QueryKind::Prob => h.write_f64(params.density),
        QueryKind::Cells => h.write_usize(params.side),
        QueryKind::Mask => h.write_usize(params.grid),
        QueryKind::Kcount => {
            h.write_usize(params.k);
            h.write_usize(params.grid);
        }
        QueryKind::Barrier => h.write_usize(params.grid),
    }
    if kind.ranged() {
        h.write_usize(params.lo);
        h.write_usize(params.hi);
    }
    h.finish()
}

/// The fingerprint a query kind's answers depend on.
fn fp_for(fleet: &Fleet, kind: QueryKind) -> u64 {
    if kind.network_dependent() {
        fleet.net_fp
    } else {
        fleet.profile_fp
    }
}

/// Computes a query answer, folding what the sweep plan's certificate
/// tier decided into the daemon totals the `stats` verb reports.
fn compute(ctx: &ServerCtx, fleet: &Fleet, kind: QueryKind, params: &QueryParams) -> String {
    let (answer, stats) = collect_prover_stats(|| answer(ctx, fleet, kind, params));
    ctx.prover_stats
        .lock()
        .expect("prover stats lock")
        .merge(&stats);
    answer
}

/// The answer bytes of one query. `check`, `holes`, and `mask` are
/// served from the warm incremental engine (repairing only tiles dirtied
/// since the last sweep); every other kind computes cold. Every sweep
/// runs the one sweep plan. Callers hold the fleet read lock; the sweeps
/// lock is taken briefly inside (lock order `fleet` → `sweeps`).
fn answer(ctx: &ServerCtx, fleet: &Fleet, kind: QueryKind, params: &QueryParams) -> String {
    let theta = params.theta;
    let warm = |side: usize, read: &mut dyn FnMut(&IncrementalSweep) -> String| {
        let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
        let state = sweeps.get_or_build(&fleet.net, theta, side);
        state.resweep_dirty(&fleet.net);
        read(state)
    };
    let bits = |mask: &[bool]| -> String {
        mask.iter()
            .map(|&covered| if covered { '1' } else { '0' })
            .collect()
    };
    match kind {
        QueryKind::Check => {
            let side = dense_grid(*fleet.net.torus(), fleet.net.len()).side_count();
            warm(side, &mut |state| {
                let report = state.report();
                format!(
                    "{} cameras\n{report}\nfull-view fraction {:.4}\n",
                    fleet.net.len(),
                    report.full_view_fraction()
                )
            })
        }
        QueryKind::Map => coverage_map_text(&fleet.net, theta, params.side),
        QueryKind::Holes => warm(params.grid, &mut |state| {
            hole_report_text(&holes_from_mask(
                *fleet.net.torus(),
                params.grid,
                state.mask(),
            ))
        }),
        QueryKind::Kfull => {
            let grid = UnitGrid::new(*fleet.net.torus(), params.grid);
            let meeting = count_k_view_range(&fleet.net, &grid, theta, params.k, 0, grid.len());
            kfull_text(params.k, params.grid, meeting, grid.len())
        }
        QueryKind::Cells => {
            coverage_glyphs_range(&fleet.net, theta, params.side, params.lo, params.hi)
        }
        QueryKind::Mask => warm(params.grid, &mut |state| {
            bits(&state.mask()[params.lo..params.hi])
        }),
        QueryKind::Kcount => {
            let grid = UnitGrid::new(*fleet.net.torus(), params.grid);
            let meeting =
                count_k_view_range(&fleet.net, &grid, theta, params.k, params.lo, params.hi);
            format!("{meeting}\n")
        }
        QueryKind::Barrier => {
            let report = barrier_full_view(&fleet.net, theta, params.grid);
            format!("{report}\n")
        }
        QueryKind::Prob => {
            let mut out = String::new();
            let _ = writeln!(out, "density {}, {theta}", params.density);
            let _ = writeln!(
                out,
                "P_N (Theorem 3) = {:.4}",
                prob_point_meets_necessary_poisson(&fleet.profile, params.density, theta)
            );
            let _ = writeln!(
                out,
                "P_S (Theorem 4) = {:.4}",
                prob_point_meets_sufficient_poisson(&fleet.profile, params.density, theta)
            );
            let _ = writeln!(
                out,
                "exact P(full-view) = {:.4}",
                prob_point_full_view_poisson(&fleet.profile, params.density, theta)
            );
            out
        }
    }
}

/// Cache-or-queue execution of one query request. A fresh entry (same
/// digest, same fingerprint) is served directly; a stale or absent one
/// recomputes through the job queue and repairs the cache entry in
/// place.
fn run_query(
    ctx: &Arc<ServerCtx>,
    req: &Request<'_>,
    kind: QueryKind,
    client: &str,
) -> Result<String, String> {
    let received = Instant::now();
    let params = parse_query(ctx, req, kind)?;
    // The deadline is absolute from receipt; a fresh cache hit is free
    // and is served even with an exhausted budget — only queued compute
    // is shed.
    let deadline_at = params.deadline.map(|budget| received + budget);
    let budget_ms = params.deadline.map_or(0, |d| d.as_millis() as u64);
    let key = digest(kind, &params);
    let current_fp = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        fp_for(&fleet, kind)
    };
    if let Lookup::Fresh(hit) = ctx.cache.lock().expect("cache lock").get(key, current_fp) {
        return Ok(hit);
    }
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_ctx = Arc::clone(ctx);
    ctx.queue
        .submit(
            client,
            Box::new(move || {
                // Shed the job if its budget expired while it sat in the
                // queue: computing an answer nobody is waiting for would
                // only deepen an overload.
                if let Some(at) = deadline_at {
                    let now = Instant::now();
                    if now >= at {
                        let spent = now.duration_since(received).as_millis();
                        let _ = tx.send(Err(format!(
                            "deadline exceeded: {budget_ms}ms budget spent ({spent}ms) before compute started"
                        )));
                        return;
                    }
                }
                // The fingerprint is read under the same fleet lock the
                // answer is computed under, so the cache entry always tags
                // the payload with the state it was computed from — even if
                // the fleet mutated between the lookup and this job.
                let (fp, payload) = {
                    let fleet = job_ctx.fleet.read().expect("fleet lock");
                    (
                        fp_for(&fleet, kind),
                        compute(&job_ctx, &fleet, kind, &params),
                    )
                };
                job_ctx.cache.lock().expect("cache lock").insert(
                    key,
                    payload.clone(),
                    kind.network_dependent(),
                    fp,
                );
                let _ = tx.send(Ok(payload));
            }),
        )
        .map_err(|e| e.to_string())?;
    rx.recv()
        .map_err(|_| "worker dropped the job (shutting down?)".to_string())?
}

/// Repairs every watched sweep state against the just-mutated fleet and
/// builds one delta frame per watched configuration.
///
/// Must run with the watches lock held *and* inside the mutation's
/// fleet-write section: marking dirt and repairing under the same write
/// lock guarantees no concurrent query can observe the post-mutation
/// network without the mutation's dirt (the silent-divergence bug this
/// PR's sweep closes), and holding watches across the whole mutation
/// serializes frames in mutation order.
///
/// Frame field order is fixed (see DESIGN.md): `delta cause=… grid=…
/// theta-deg=… tiles=… points=… flipped_on=… flipped_off=…
/// fraction_before=… fraction_after=… holes_before=… holes_after=…
/// holes_opened=… holes_closed=… rebuilt=…`, with the per-subscriber
/// `seq=…` appended at delivery.
fn watch_frames(
    ctx: &ServerCtx,
    watches: &mut WatchHub,
    fleet: &Fleet,
    cause: &str,
) -> Vec<(SweepKey, String)> {
    if watches.subs.is_empty() {
        return Vec::new();
    }
    let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
    let mut frames = Vec::new();
    for (key, theta, grid) in watches.watched_configs() {
        let state = sweeps.get_or_build(&fleet.net, theta, grid);
        let delta = state.resweep_dirty(&fleet.net);
        let fraction = state.report().full_view_fraction();
        let holes = holes_from_mask(*fleet.net.torus(), grid, state.mask())
            .holes
            .len();
        let (fraction_before, holes_before) =
            watches.last.get(&key).copied().unwrap_or((fraction, holes));
        let frame = format!(
            "delta cause={cause} grid={grid} theta-deg={:.4} tiles={} points={} flipped_on={} flipped_off={} fraction_before={fraction_before:.6} fraction_after={fraction:.6} holes_before={holes_before} holes_after={holes} holes_opened={} holes_closed={} rebuilt={}",
            theta.radians().to_degrees(),
            delta.tiles_resweeped,
            delta.points_resweeped,
            delta.flipped_on.len(),
            delta.flipped_off.len(),
            holes.saturating_sub(holes_before),
            holes_before.saturating_sub(holes),
            delta.rebuilt,
        );
        watches.last.insert(key, (fraction, holes));
        frames.push((key, frame));
    }
    frames
}

/// Writes each frame to its subscribers as a complete ok-framed
/// response, pruning subscribers whose connection died and unpinning
/// the sweep slots nobody watches any more. Runs under the watches
/// lock, after the fleet write lock is released.
fn deliver_frames(ctx: &ServerCtx, watches: &mut WatchHub, frames: &[(SweepKey, String)]) {
    if frames.is_empty() {
        return;
    }
    watches.subs.retain_mut(|sub| {
        let Some((_, frame)) = frames.iter().find(|(key, _)| *key == sub.key) else {
            return true;
        };
        sub.seq += 1;
        let payload = format!("{frame} seq={}\n", sub.seq);
        let mut writer = &sub.stream;
        protocol::write_ok(&mut writer, &payload).is_ok()
    });
    let watched: Vec<SweepKey> = watches.subs.iter().map(|sub| sub.key).collect();
    ctx.sweeps.lock().expect("sweep lock").set_pins(&watched);
}

/// Journals one validated mutation — fsync'd — before the caller
/// applies it. A journal write failure *rejects* the mutation
/// (durability before availability). No-op without `--wal`. Callers
/// hold the fleet write lock, so records land in application order.
fn journal(ctx: &ServerCtx, pre_fp: u64, op: WalOp) -> Result<(), String> {
    let Some(state) = &ctx.wal else {
        return Ok(());
    };
    state
        .writer
        .lock()
        .expect("wal lock")
        .append(&WalRecord { pre_fp, op })
        .map_err(|e| format!("journal append failed, mutation rejected: {e}"))
}

fn run_fail(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&["id"])?;
    let id: usize = req.require("id")?;
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (remaining, net_fp, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let Some(&victim) = fleet.net.cameras().get(id) else {
            return Err(format!(
                "no camera with id {id} (fleet has {})",
                fleet.net.len()
            ));
        };
        journal(ctx, fleet.net_fp, WalOp::Fail { id })?;
        assert!(fleet.net.remove_camera(id), "id was just bounds-checked");
        fleet.net_fp = network_fingerprint(&fleet.net);
        ctx.sweeps
            .lock()
            .expect("sweep lock")
            .mark_disk_all(victim.position(), victim.spec().radius());
        let frames = watch_frames(ctx, &mut watches, &fleet, "fail");
        (fleet.net.len(), fleet.net_fp, frames)
    };
    let invalidated = ctx.cache.lock().expect("cache lock").note_mutation(net_fp);
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "failed camera {id}; {remaining} cameras remain; invalidated {invalidated} cached results\n"
    ))
}

fn run_move(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&["id", "x", "y"])?;
    let id: usize = req.require("id")?;
    let x: f64 = req.require("x")?;
    let y: f64 = req.require("y")?;
    if !x.is_finite() || !y.is_finite() {
        return Err("x and y must be finite".to_string());
    }
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (position, net_fp, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let Some(&before) = fleet.net.cameras().get(id) else {
            return Err(format!(
                "no camera with id {id} (fleet has {})",
                fleet.net.len()
            ));
        };
        journal(ctx, fleet.net_fp, WalOp::Move { id, x, y })?;
        assert!(
            fleet.net.move_camera(id, Point::new(x, y)),
            "id was just bounds-checked"
        );
        fleet.net_fp = network_fingerprint(&fleet.net);
        let after = fleet.net.cameras()[id].position();
        {
            let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
            sweeps.mark_disk_all(before.position(), before.spec().radius());
            sweeps.mark_disk_all(after, before.spec().radius());
        }
        let frames = watch_frames(ctx, &mut watches, &fleet, "move");
        (after, fleet.net_fp, frames)
    };
    let invalidated = ctx.cache.lock().expect("cache lock").note_mutation(net_fp);
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "moved camera {id} to {position}; invalidated {invalidated} cached results\n"
    ))
}

fn run_reseed(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&["seed", "n"])?;
    let seed: u64 = req.require("seed")?;
    let n: usize = req.get("n", ctx.reseed_n)?;
    if n == 0 {
        return Err("n must be positive".to_string());
    }
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (deployed, net_fp, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let torus = *fleet.net.torus();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = deploy_uniform(torus, &fleet.profile, n, &mut rng).map_err(|e| e.to_string())?;
        journal(ctx, fleet.net_fp, WalOp::Reseed { seed, n })?;
        fleet.net_fp = network_fingerprint(&net);
        fleet.net = net;
        // Wholesale replacement: the fleet size (and with it the dense
        // grid and spatial-index geometry) may have changed, so every
        // warm state rebuilds rather than repairs.
        ctx.sweeps.lock().expect("sweep lock").invalidate_all();
        let frames = watch_frames(ctx, &mut watches, &fleet, "reseed");
        (fleet.net.len(), fleet.net_fp, frames)
    };
    let invalidated = ctx.cache.lock().expect("cache lock").note_mutation(net_fp);
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "reseeded fleet: {deployed} cameras from seed {seed}; invalidated {invalidated} cached results\n"
    ))
}

/// The `fingerprint` verb: the canonical identity of the current fleet,
/// used by the cluster coordinator to detect shard divergence. The torus
/// side rides along as exact bits so the coordinator can reconstruct
/// grid geometry (hole centroids) without guessing the region.
fn run_fingerprint(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&[])?;
    let fleet = ctx.fleet.read().expect("fleet lock");
    Ok(format!(
        "net_fp={} profile_fp={} cameras={} torus=0x{:016x}\n",
        fleet.net_fp,
        fleet.profile_fp,
        fleet.net.len(),
        fleet.net.torus().side().to_bits()
    ))
}

/// The `snapshot` verb: persist the warm fleet to disk. With `--wal`,
/// `path` defaults to the journal's base snapshot, and snapshotting to
/// the base is a **checkpoint**: the journal truncates once the
/// snapshot rename lands. Both steps run under the fleet lock, so no
/// mutation can slip between them; a crash in the window between them
/// is healed on recovery by the replay chain skipping records the
/// snapshot already contains.
fn run_snapshot(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&["path"])?;
    let path: String = match &ctx.wal {
        Some(state) => req.get("path", state.base.display().to_string())?,
        None => req.require("path")?,
    };
    let is_checkpoint = ctx.wal.as_ref().is_some_and(|w| Path::new(&path) == w.base);
    let (net_fp, profile_fp, truncated) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        let (net_fp, profile_fp) = write_snapshot(Path::new(&path), &fleet.profile, &fleet.net)
            .map_err(|e| format!("snapshot to {path} failed: {e}"))?;
        let truncated = if is_checkpoint {
            let state = ctx.wal.as_ref().expect("checkpoint implies wal");
            let mut writer = state.writer.lock().expect("wal lock");
            let n = writer.records();
            writer
                .truncate()
                .map_err(|e| format!("journal truncate failed: {e}"))?;
            Some(n)
        } else {
            None
        };
        (net_fp, profile_fp, truncated)
    };
    match truncated {
        Some(n) => Ok(format!(
            "snapshot written to {path} (net_fp={net_fp} profile_fp={profile_fp}); journal truncated ({n} records checkpointed)\n"
        )),
        None => Ok(format!(
            "snapshot written to {path} (net_fp={net_fp} profile_fp={profile_fp})\n"
        )),
    }
}

/// The `restore` verb: adopt a snapshotted fleet. When the network
/// fingerprint actually changes, warm sweep states are invalidated and
/// watchers get a delta frame; restoring the state the daemon already
/// holds touches nothing. Cache entries are never removed — entries
/// computed against the restored fingerprint become fresh again, and
/// the mutation accounting counts only entries this restore staled.
fn run_restore(ctx: &ServerCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&["path"])?;
    let path: String = req.require("path")?;
    let snap = read_snapshot(Path::new(&path)).map_err(|e| format!("restore from {path}: {e}"))?;
    let mut watches = ctx.watches.lock().expect("watch lock");
    let (cameras, changed, frames) = {
        let mut fleet = ctx.fleet.write().expect("fleet lock");
        let changed = fleet.net_fp != snap.net_fp;
        fleet.profile = snap.profile;
        fleet.net = snap.net;
        fleet.net_fp = snap.net_fp;
        fleet.profile_fp = snap.profile_fp;
        let frames = if changed {
            ctx.sweeps.lock().expect("sweep lock").invalidate_all();
            watch_frames(ctx, &mut watches, &fleet, "restore")
        } else {
            Vec::new()
        };
        // A wholesale restore resets the journal's chain: checkpoint
        // immediately so recovery restarts from the restored state.
        if let Some(state) = &ctx.wal {
            write_snapshot(&state.base, &fleet.profile, &fleet.net)
                .map_err(|e| format!("restore applied but checkpoint failed: {e}"))?;
            state
                .writer
                .lock()
                .expect("wal lock")
                .truncate()
                .map_err(|e| format!("restore applied but checkpoint failed: {e}"))?;
        }
        (fleet.net.len(), changed, frames)
    };
    let invalidated = if changed {
        ctx.cache
            .lock()
            .expect("cache lock")
            .note_mutation(snap.net_fp)
    } else {
        0
    };
    deliver_frames(ctx, &mut watches, &frames);
    Ok(format!(
        "restored {cameras} cameras from {path} (net_fp={} profile_fp={}); invalidated {invalidated} cached results\n",
        snap.net_fp, snap.profile_fp
    ))
}

/// The `watch` verb: registers the connection as a delta subscriber.
///
/// The baseline frame (seq 0) is written while the watches lock is
/// held, so no mutation can slip between the baseline and the first
/// delta. On success the connection belongs to the hub — the handler
/// must stop reading from it and return.
fn run_watch(ctx: &ServerCtx, req: &Request<'_>, stream: &TcpStream) -> Result<(), String> {
    req.allow_only(&["theta-deg", "grid"])?;
    let theta = theta_of(ctx, req)?;
    let grid: usize = req.get("grid", 24usize)?;
    if grid == 0 {
        return Err("side/grid must be positive".to_string());
    }
    let sub_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let mut watches = ctx.watches.lock().expect("watch lock");
    let key = sweep_key(theta, grid);
    let (fraction, holes) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        let mut sweeps = ctx.sweeps.lock().expect("sweep lock");
        let state = sweeps.get_or_build(&fleet.net, theta, grid);
        state.resweep_dirty(&fleet.net);
        let fraction = state.report().full_view_fraction();
        let holes = holes_from_mask(*fleet.net.torus(), grid, state.mask())
            .holes
            .len();
        sweeps.pin(key);
        (fraction, holes)
    };
    let baseline = format!(
        "watching grid={grid} theta-deg={:.4} fraction={fraction:.6} holes={holes} seq=0\n",
        theta.radians().to_degrees()
    );
    let mut writer = stream;
    protocol::write_ok(&mut writer, &baseline).map_err(|e| e.to_string())?;
    watches.last.insert(key, (fraction, holes));
    watches.subs.push(WatchSub {
        key,
        theta,
        grid,
        stream: sub_stream,
        seq: 0,
    });
    Ok(())
}

fn render_stats(ctx: &ServerCtx) -> String {
    let (cameras, groups) = {
        let fleet = ctx.fleet.read().expect("fleet lock");
        (fleet.net.len(), fleet.profile.group_count())
    };
    let cache = ctx.cache.lock().expect("cache lock").stats();
    let watchers = ctx.watches.lock().expect("watch lock").subs.len();
    let snap = ctx.metrics.snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service: uptime_s={:.1} cameras={cameras} profile_groups={groups} watchers={watchers}",
        snap.uptime_s
    );
    let _ = write!(out, "requests:");
    for (endpoint, count) in &snap.counts {
        let _ = write!(out, " {endpoint}={count}");
    }
    let _ = writeln!(
        out,
        " total={} rejected={} busy={}",
        snap.total, snap.rejected, snap.busy
    );
    let _ = writeln!(
        out,
        "queue: depth={} capacity={} workers={}",
        ctx.queue.depth(),
        ctx.queue.capacity(),
        ctx.queue.workers()
    );
    let adm = ctx.admission.snapshot();
    let _ = write!(
        out,
        "admission: rate={} burst={} clients={} admitted={} busy={}",
        adm.rate,
        adm.burst,
        adm.clients.len(),
        adm.admitted,
        adm.busy
    );
    for (name, admitted, busy) in &adm.clients {
        let _ = write!(out, " {name}={admitted}/{busy}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "cache: entries={} capacity={} hits={} misses={} stale={} hit_rate={:.4} evictions={} invalidated={}",
        cache.entries,
        cache.capacity,
        cache.hits,
        cache.misses,
        cache.stale,
        cache.hit_rate(),
        cache.evictions,
        cache.invalidated
    );
    if let Some(state) = &ctx.wal {
        let writer = state.writer.lock().expect("wal lock");
        let _ = writeln!(
            out,
            "wal: base={} records={} appended={} truncations={}",
            state.base.display(),
            writer.records(),
            writer.appended(),
            writer.truncations()
        );
    }
    let prover_stats = *ctx.prover_stats.lock().expect("prover stats lock");
    let _ = writeln!(out, "hier: {prover_stats}");
    let fmt_q = |q: Option<f64>| q.map_or_else(|| "na".to_string(), |v| format!("{v:.3}"));
    let _ = writeln!(
        out,
        "latency_ms: p50={} p99={} samples={}",
        fmt_q(snap.p50_ms),
        fmt_q(snap.p99_ms),
        snap.samples
    );
    out
}

fn dispatch(ctx: &Arc<ServerCtx>, req: &Request<'_>, client: &str) -> Result<String, String> {
    protocol::known_verb(req.verb(), false)?;
    match req.verb() {
        "ping" => {
            req.allow_only(&[])?;
            Ok("pong\n".to_string())
        }
        "stats" => {
            req.allow_only(&[])?;
            Ok(render_stats(ctx))
        }
        "shutdown" => {
            req.allow_only(&[])?;
            Ok("shutting down: draining in-flight jobs\n".to_string())
        }
        "check" => run_query(ctx, req, QueryKind::Check, client),
        "map" => run_query(ctx, req, QueryKind::Map, client),
        "holes" => run_query(ctx, req, QueryKind::Holes, client),
        "kfull" => run_query(ctx, req, QueryKind::Kfull, client),
        "prob" => run_query(ctx, req, QueryKind::Prob, client),
        "cells" => run_query(ctx, req, QueryKind::Cells, client),
        "mask" => run_query(ctx, req, QueryKind::Mask, client),
        "kcount" => run_query(ctx, req, QueryKind::Kcount, client),
        "barrier" => run_query(ctx, req, QueryKind::Barrier, client),
        "fail" => run_fail(ctx, req),
        "move" => run_move(ctx, req),
        "reseed" => run_reseed(ctx, req),
        "fingerprint" => run_fingerprint(ctx, req),
        "snapshot" => run_snapshot(ctx, req),
        "restore" => run_restore(ctx, req),
        // `hello` and `watch` are intercepted in `handle_connection`
        // (they need the connection); reaching here means a
        // non-connection context.
        "hello" => Err("hello applies to a client connection".to_string()),
        "watch" => Err("watch requires a dedicated client connection".to_string()),
        other => Err(format!("no handler for request '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use fullview_model::SensorSpec;

    /// A request line each daemon verb answers with an `ok` frame on a
    /// fresh 30-camera fleet (`{snap}` stands for a snapshot path).
    fn ok_request(verb: &str) -> &'static str {
        match verb {
            "check" => "check",
            "map" => "map side=8",
            "holes" => "holes grid=8",
            "kfull" => "kfull k=1 grid=8",
            "prob" => "prob density=50",
            "cells" => "cells side=8 lo=0 hi=20",
            "mask" => "mask grid=8 lo=0 hi=20",
            "kcount" => "kcount k=1 grid=8 lo=0 hi=20",
            "barrier" => "barrier grid=8",
            "stats" => "stats",
            "fingerprint" => "fingerprint",
            "snapshot" => "snapshot path={snap}",
            "restore" => "restore path={snap}",
            "fail" => "fail id=0",
            "move" => "move id=1 x=0.5 y=0.5",
            "reseed" => "reseed seed=3",
            "watch" => "watch grid=8",
            "hello" => "hello client=counter",
            "ping" => "ping",
            "shutdown" => "shutdown",
            other => panic!("no test request for daemon verb {other}"),
        }
    }

    /// Every verb the daemon serves, sent over a real connection (`hello`
    /// and `watch` take the connection handler's own branches), shows up
    /// once in the `stats` requests line; `shutdown`, which ends the
    /// daemon, is checked on the metrics after the drain.
    #[test]
    fn every_dispatchable_verb_is_counted_in_stats() {
        let profile =
            NetworkProfile::homogeneous(SensorSpec::new(0.15, std::f64::consts::PI).expect("spec"));
        let mut config = ServiceConfig::new(profile);
        config.n = 30;
        let server = Server::start(config).expect("start");
        let ctx = Arc::clone(&server.ctx);
        let dir = std::env::temp_dir().join(format!("fvc-verb-counts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let snap = dir.join("fleet.snap").display().to_string();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut watcher = Client::connect(server.local_addr()).expect("connect watcher");
        let daemon_verbs: Vec<&str> = protocol::VERBS
            .iter()
            .filter(|v| v.daemon)
            .map(|v| v.name)
            .collect();
        for &verb in daemon_verbs.iter().filter(|&&v| v != "shutdown") {
            let line = ok_request(verb).replace("{snap}", &snap);
            let conn = if verb == "watch" {
                &mut watcher
            } else {
                &mut client
            };
            if let Err(message) = conn.request_ok(&line) {
                panic!("{line}: {message}");
            }
        }
        let stats = client.request_ok("stats").expect("stats");
        let requests = stats
            .lines()
            .find(|l| l.starts_with("requests:"))
            .expect("requests line");
        for &verb in &daemon_verbs {
            // `shutdown` is sent last; the earlier `stats` is counted.
            let want = usize::from(verb != "shutdown");
            assert!(
                requests.contains(&format!(" {verb}={want} ")),
                "{verb} is not counted {want} time(s): {requests}"
            );
        }
        client.request_ok("shutdown").expect("shutdown");
        server.wait();
        let counts = ctx.metrics.snapshot().counts;
        assert!(counts.contains(&("shutdown", 1)), "{counts:?}");
        let _ = std::fs::remove_dir_all(&dir);

        let req = Request::parse("bogus").expect("parses");
        let err = dispatch(&ctx, &req, ANON_CLIENT).expect_err("unknown verb");
        assert!(err.starts_with("unknown request 'bogus' (known: check, map,"));
    }
}
