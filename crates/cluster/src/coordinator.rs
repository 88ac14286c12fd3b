//! The cluster coordinator: a daemon-shaped front-end that scatters
//! work across N `fullview-service` replicas and gathers byte-identical
//! answers.
//!
//! ## Sharding model
//!
//! Every shard holds the **full fleet** (replicas of the same
//! network/profile); the coordinator shards *query work*, not state:
//!
//! * `map` / `holes` / `kfull` — the grid index space `0..total` is cut
//!   into contiguous row-major chunks ([`crate::merge::chunk_ranges`]),
//!   each served by a shard through the daemon's ranged verbs (`cells`,
//!   `mask`, `kcount`) and reassembled in chunk order. The engine's
//!   backend-equivalence invariant makes each range bit-identical to the
//!   same slice of a full sweep, so the merged answer is byte-identical
//!   to a single daemon's.
//! * `check` / `prob` — replica fan-out: any shard answers the whole
//!   query; the coordinator routes to the least-loaded live replica.
//! * `fail` / `move` / `reseed` — broadcast to every live shard, first
//!   shard first (its rejection aborts the broadcast before divergence),
//!   then the authority fingerprint and the snapshot are refreshed and
//!   every other replica that applied the mutation is fingerprint-
//!   verified against the new authority (divergence marks it down for
//!   resync).
//!
//! ## Replication
//!
//! With `replication = R`, the shard list is partitioned into
//! consecutive *replica groups* of R shards. Chunk `c` of a ranged
//! query has affinity to group `c % groups` (stable affinity keeps each
//! daemon's result cache hot for its ranges); within the owning group
//! the chunk goes to the **least-loaded live replica** (fewest in-flight
//! requests, then fewest reads served, ties rotating), and when a whole
//! group is down any live shard can stand in — every shard holds the
//! full fleet, so any replica's answer is byte-identical.
//!
//! ## Failover
//!
//! A transport failure marks a shard down; its chunks are reassigned to
//! surviving shards in retry rounds. A round that made *any* progress
//! retries the remainder immediately — a read failing over to a sibling
//! replica never waits out the reconnect backoff; the capped-backoff
//! pause applies only when an entire round produced nothing.
//! Reconnecting shards are fingerprint-checked against the *authority*
//! state (established at startup, refreshed after every mutation) and
//! resynced with the daemon's `restore` verb from the cluster snapshot
//! before they serve again — a shard that cannot be proven identical
//! never answers. The snapshot lives in `snapshot_dir`, which must be a
//! path every daemon can read and write (shared filesystem; with all
//! daemons on one host, any local directory).

use crate::merge::{aggregate, chunk_ranges, parse_shard_stats, ShardStats};
use crate::shard::{is_overload, ShardError, ShardState, DEFAULT_BREAKER_THRESHOLD};
use fullview_core::{coverage_map_from_glyphs, hole_report_text, holes_from_mask, kfull_text};
use fullview_geom::Torus;
use fullview_service::protocol::{self, Request};
use fullview_service::Metrics;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the coordinator is assembled.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address for the client-facing listener (port `0` works).
    pub addr: String,
    /// Addresses of the `fullview-service` daemons to front.
    pub shard_addrs: Vec<String>,
    /// Chunks a ranged query is cut into (`0` = twice the shard count).
    /// More chunks than shards keeps every shard busy when one runs
    /// slow; results never depend on this number.
    pub chunks: usize,
    /// Pipelining window per shard connection: how many chunk requests
    /// may be in flight before the first response is read.
    pub max_inflight: usize,
    /// Retry rounds for reassigning failed chunks / overload rejections.
    pub retries: usize,
    /// Base breaker cooldown before a tripped shard is re-probed, in
    /// milliseconds (doubles on each re-trip).
    pub backoff_ms: u64,
    /// Cooldown cap in milliseconds (doubling stops here).
    pub backoff_cap_ms: u64,
    /// Consecutive transport failures before a shard's circuit breaker
    /// trips open (clamped to ≥ 1). Below the threshold every request
    /// may still attempt a reconnect; once open, the shard is skipped
    /// outright until the cooldown admits a half-open probe.
    pub breaker_threshold: u32,
    /// Directory for the cluster snapshot (shared with the daemons).
    /// `None` disables snapshot/restore failover: a divergent shard
    /// stays down instead of being resynced.
    pub snapshot_dir: Option<PathBuf>,
    /// Replicas per grid range: the shard list is partitioned into
    /// consecutive groups of this size and ranged-read chunks are routed
    /// within their owning group (clamped to `1..=shards`; `1` = every
    /// shard its own group, the pre-replication behavior).
    pub replication: usize,
    /// Largest grid (`side × side` cells) a ranged query may request;
    /// `0` disables the budget. Oversized requests are rejected with a
    /// named `err` frame *before* any work is scattered, so one client
    /// cannot stall the whole cluster with a runaway grid.
    pub max_cells: usize,
}

impl ClusterConfig {
    /// A config with the documented defaults: ephemeral loopback port,
    /// chunks = 2× shards, window 4, 2 retries, 50 ms backoff capped at
    /// 2 s, no snapshot dir.
    #[must_use]
    pub fn new(shard_addrs: Vec<String>) -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".to_string(),
            shard_addrs,
            chunks: 0,
            max_inflight: 4,
            retries: 2,
            backoff_ms: 50,
            backoff_cap_ms: 2_000,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
            snapshot_dir: None,
            replication: 1,
            max_cells: 0,
        }
    }
}

/// The number of replica groups `shard_count` shards form at a
/// (clamped) replication factor. Groups are consecutive runs of
/// `replication` shards; a ragged tail forms a smaller final group.
fn group_count_of(shard_count: usize, replication: usize) -> usize {
    let r = replication.clamp(1, shard_count.max(1));
    shard_count.div_ceil(r)
}

/// Which replica group a shard index belongs to.
fn group_of_shard(shard: usize, shard_count: usize, replication: usize) -> usize {
    shard / replication.clamp(1, shard_count.max(1))
}

/// Per-shard read-load accounting. Lives *outside* the shard mutexes so
/// routing can observe a replica's load while a request is in flight on
/// it (the shard lock is held for the duration of a pipeline).
#[derive(Debug, Default)]
struct ShardLoad {
    /// Requests currently in flight on this shard.
    inflight: AtomicUsize,
    /// Read requests this shard has answered (the `reads:` stats line —
    /// the replica read-balance evidence the load generator reports).
    served: std::sync::atomic::AtomicU64,
}

/// The canonical identity every serving shard must match, parsed from a
/// daemon's `fingerprint` answer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Authority {
    net_fp: u64,
    profile_fp: u64,
    cameras: u64,
    torus_side: f64,
}

fn parse_fingerprint(payload: &str) -> Result<Authority, String> {
    let mut auth = Authority {
        net_fp: 0,
        profile_fp: 0,
        cameras: 0,
        torus_side: f64::NAN,
    };
    for tok in payload.split_whitespace() {
        let Some((key, value)) = tok.split_once('=') else {
            continue;
        };
        match key {
            "net_fp" => auth.net_fp = value.parse().map_err(|e| format!("bad net_fp: {e}"))?,
            "profile_fp" => {
                auth.profile_fp = value.parse().map_err(|e| format!("bad profile_fp: {e}"))?;
            }
            "cameras" => auth.cameras = value.parse().map_err(|e| format!("bad cameras: {e}"))?,
            "torus" => {
                let hex = value
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("bad torus field '{value}'"))?;
                auth.torus_side = u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|e| format!("bad torus bits: {e}"))?;
            }
            _ => {}
        }
    }
    if !auth.torus_side.is_finite() || auth.torus_side <= 0.0 {
        return Err(format!(
            "fingerprint payload lacks a usable torus side: {payload:?}"
        ));
    }
    Ok(auth)
}

struct ClusterCtx {
    cfg: ClusterConfig,
    shards: Vec<Mutex<ShardState>>,
    /// Parallel to `shards`: lock-free load counters for routing.
    loads: Vec<ShardLoad>,
    authority: Mutex<Option<Authority>>,
    /// Rotation cursor breaking least-loaded ties between equal replicas.
    rr: AtomicUsize,
    metrics: Metrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ClusterCtx {
    fn base(&self) -> Duration {
        Duration::from_millis(self.cfg.backoff_ms.max(1))
    }

    fn replication(&self) -> usize {
        self.cfg.replication.clamp(1, self.shards.len().max(1))
    }

    fn group_count(&self) -> usize {
        group_count_of(self.shards.len(), self.cfg.replication)
    }

    fn group_of(&self, shard: usize) -> usize {
        group_of_shard(shard, self.shards.len(), self.cfg.replication)
    }

    fn cap(&self) -> Duration {
        Duration::from_millis(self.cfg.backoff_cap_ms.max(self.cfg.backoff_ms).max(1))
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cfg
            .snapshot_dir
            .as_ref()
            .map(|d| d.join("cluster.snap"))
    }

    fn chunk_count(&self) -> usize {
        if self.cfg.chunks == 0 {
            (2 * self.shards.len()).max(1)
        } else {
            self.cfg.chunks
        }
    }
}

/// A running coordinator. Shuts down its listener on drop; the shard
/// daemons are independent processes and are left running.
pub struct Coordinator {
    ctx: Arc<ClusterCtx>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.ctx.addr)
            .field("shards", &self.ctx.shards.len())
            .finish()
    }
}

impl Coordinator {
    /// Binds the client-facing listener, connects to the shards,
    /// establishes the authority fingerprint (resyncing divergent shards
    /// from a fresh snapshot when a snapshot dir is configured), and
    /// spawns the acceptor.
    ///
    /// # Errors
    ///
    /// Binding errors; [`io::ErrorKind::InvalidInput`] when no shard
    /// address was given or no shard is reachable at startup.
    pub fn start(cfg: ClusterConfig) -> io::Result<Coordinator> {
        if cfg.shard_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard address",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shards: Vec<Mutex<ShardState>> = cfg
            .shard_addrs
            .iter()
            .map(|a| Mutex::new(ShardState::with_threshold(a.clone(), cfg.breaker_threshold)))
            .collect();
        let loads = (0..shards.len()).map(|_| ShardLoad::default()).collect();
        let ctx = Arc::new(ClusterCtx {
            cfg,
            shards,
            loads,
            authority: Mutex::new(None),
            rr: AtomicUsize::new(0),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            addr,
        });
        initial_sync(&ctx).map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, m))?;
        let acceptor_ctx = Arc::clone(&ctx);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &acceptor_ctx));
        Ok(Coordinator {
            ctx,
            acceptor: Some(acceptor),
        })
    }

    /// The bound client-facing address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Initiates shutdown (equivalent to a client `shutdown` request).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.ctx);
    }

    /// Blocks until the coordinator has fully stopped.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor thread panicked");
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        initiate_shutdown(&self.ctx);
        if let Some(handle) = self.acceptor.take() {
            handle.join().expect("acceptor thread panicked");
        }
    }
}

fn initiate_shutdown(ctx: &ClusterCtx) {
    if ctx.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(ctx.addr);
}

/// Startup: connect everywhere, adopt the first reachable shard's
/// fingerprint as the authority, snapshot it, and resync the rest.
fn initial_sync(ctx: &ClusterCtx) -> Result<(), String> {
    let mut authority_shard = None;
    for i in 0..ctx.shards.len() {
        let mut state = ctx.shards[i].lock().expect("shard lock");
        let (up, _) = state.ensure(ctx.base(), ctx.cap());
        if !up {
            continue;
        }
        let payload = state
            .request("fingerprint", ctx.base(), ctx.cap())
            .map_err(|e| format!("shard {}: {e}", state.addr()))?;
        let auth = parse_fingerprint(&payload)?;
        *ctx.authority.lock().expect("authority lock") = Some(auth);
        authority_shard = Some(i);
        if let Some(path) = ctx.snapshot_path() {
            state
                .request(
                    &format!("snapshot path={}", path.display()),
                    ctx.base(),
                    ctx.cap(),
                )
                .map_err(|e| format!("startup snapshot on {}: {e}", state.addr()))?;
        }
        break;
    }
    let Some(first) = authority_shard else {
        return Err("no shard reachable at startup".to_string());
    };
    // Everyone else must match the authority (or be restored onto it).
    for i in 0..ctx.shards.len() {
        if i != first {
            let _ = ensure_shard(ctx, i);
        }
    }
    Ok(())
}

/// Brings shard `i` to a serving state: connected *and* fingerprint-
/// matched against the authority, restoring from the cluster snapshot
/// when it diverges. Returns whether the shard may serve.
fn ensure_shard(ctx: &ClusterCtx, i: usize) -> bool {
    let mut state = ctx.shards[i].lock().expect("shard lock");
    let (up, fresh) = state.ensure(ctx.base(), ctx.cap());
    if !up {
        return false;
    }
    if !fresh {
        return true; // validated when it connected
    }
    let authority = *ctx.authority.lock().expect("authority lock");
    let Some(auth) = authority else {
        return true; // startup establishes it; nothing to compare yet
    };
    let verify = |state: &mut ShardState| -> Result<bool, ShardError> {
        let payload = state.request("fingerprint", ctx.base(), ctx.cap())?;
        let fp = parse_fingerprint(&payload).map_err(ShardError::Server)?;
        Ok(fp.net_fp == auth.net_fp && fp.profile_fp == auth.profile_fp)
    };
    match verify(&mut state) {
        Ok(true) => true,
        Ok(false) => {
            // Diverged (missed a mutation while down, or restarted with
            // different state): restore the authority's snapshot.
            let Some(path) = ctx.snapshot_path() else {
                state.mark_down(ctx.base(), ctx.cap());
                return false;
            };
            let restored = state
                .request(
                    &format!("restore path={}", path.display()),
                    ctx.base(),
                    ctx.cap(),
                )
                .and_then(|_| verify(&mut state));
            match restored {
                Ok(true) => true,
                _ => {
                    state.mark_down(ctx.base(), ctx.cap());
                    false
                }
            }
        }
        Err(_) => false, // transport error already marked it down
    }
}

fn live_shards(ctx: &ClusterCtx) -> Vec<usize> {
    (0..ctx.shards.len())
        .filter(|&i| ensure_shard(ctx, i))
        .collect()
}

/// Picks the least-loaded shard among `candidates`: fewest in-flight
/// requests first, fewest reads served as the tie-break, remaining ties
/// broken by a rotating cursor so equal replicas alternate. `extra[s]`
/// adds work assigned-but-not-yet-launched this round (the scatter
/// assignment loop) to shard `s`'s score.
fn pick_least_loaded(ctx: &ClusterCtx, candidates: &[usize], extra: &[usize]) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let rot = ctx.rr.fetch_add(1, Ordering::Relaxed) % candidates.len();
    let mut best: Option<(usize, (usize, u64))> = None;
    for k in 0..candidates.len() {
        let s = candidates[(rot + k) % candidates.len()];
        let pending = extra.get(s).copied().unwrap_or(0);
        let score = (
            ctx.loads[s].inflight.load(Ordering::Relaxed) + pending,
            ctx.loads[s].served.load(Ordering::Relaxed) + pending as u64,
        );
        // Strictly-less keeps the first candidate in rotation order on a
        // tie, so back-to-back requests alternate across equal replicas.
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((s, score));
        }
    }
    best.map(|(s, _)| s)
}

/// What happened to one scattered chunk.
enum ChunkOutcome {
    Done(String),
    /// Transient (shard died or rejected for overload): reassign.
    Retry,
    /// The daemon rejected the request itself — the client's fault;
    /// retrying elsewhere would fail identically.
    Fatal(String),
}

/// Runs one shard's share of a scatter: pipeline the chunk requests over
/// its persistent connection with the bounded in-flight window. Load
/// counters bracket the pipeline so concurrent routing decisions see the
/// work in flight.
fn serve_chunks(
    ctx: &ClusterCtx,
    shard_idx: usize,
    chunk_idxs: &[usize],
    lines: &[String],
) -> Vec<(usize, ChunkOutcome)> {
    ctx.loads[shard_idx]
        .inflight
        .fetch_add(chunk_idxs.len(), Ordering::Relaxed);
    let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
    let refs: Vec<&str> = chunk_idxs.iter().map(|&c| lines[c].as_str()).collect();
    let outcomes = match state.pipeline(&refs, ctx.cfg.max_inflight.max(1), ctx.base(), ctx.cap()) {
        Err(_) => chunk_idxs
            .iter()
            .map(|&c| (c, ChunkOutcome::Retry))
            .collect(),
        Ok(responses) => chunk_idxs
            .iter()
            .zip(responses)
            .map(|(&c, resp)| {
                let outcome = match resp {
                    fullview_service::Response::Ok(payload) => ChunkOutcome::Done(payload),
                    fullview_service::Response::Err(m) if is_overload(&m) => ChunkOutcome::Retry,
                    fullview_service::Response::Err(m) => ChunkOutcome::Fatal(m),
                };
                (c, outcome)
            })
            .collect::<Vec<_>>(),
    };
    drop(state);
    ctx.loads[shard_idx]
        .inflight
        .fetch_sub(chunk_idxs.len(), Ordering::Relaxed);
    let done = outcomes
        .iter()
        .filter(|(_, o)| matches!(o, ChunkOutcome::Done(_)))
        .count() as u64;
    ctx.loads[shard_idx]
        .served
        .fetch_add(done, Ordering::Relaxed);
    outcomes
}

/// The remaining-budget token forwarded to shards, or the shed error
/// once the deadline has passed. Re-evaluated every retry round so the
/// shards always see the budget that is actually left, not the one the
/// client started with.
fn deadline_suffix(deadline: Option<Instant>, now: Instant) -> Result<String, String> {
    let Some(deadline) = deadline else {
        return Ok(String::new());
    };
    let remaining = deadline.saturating_duration_since(now);
    let remaining_ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
    if remaining_ms == 0 {
        return Err(
            "deadline exceeded: budget exhausted at the coordinator before the shards answered"
                .to_string(),
        );
    }
    Ok(format!(" deadline_ms={remaining_ms}"))
}

/// Scatter-gathers one ranged query: `make_line(lo, hi)` builds the
/// per-chunk daemon request; the returned payloads are in chunk order
/// (concatenation order == grid order).
///
/// Chunk `c` is routed to the least-loaded live replica of its owning
/// group `c % groups`; when the whole group is down, any live shard
/// stands in (full replication makes any answer byte-identical). Chunks
/// on failed shards are reassigned across up to `retries` extra rounds —
/// a round that completed *any* chunk retries the rest immediately, so
/// failing over to a live sibling never waits out a reconnect backoff.
///
/// With a `deadline`, every round rebuilds the chunk lines with the
/// *remaining* budget as `deadline_ms=` so the shards shed queued work
/// the coordinator could no longer use; once the budget is gone the
/// query fails with a `deadline exceeded:` error instead of burning
/// shard time on a dead answer. A shard's own `deadline exceeded:`
/// rejection is final (not retried): a sibling would only waste more of
/// an already-blown budget.
fn scatter(
    ctx: &ClusterCtx,
    total: usize,
    deadline: Option<Instant>,
    make_line: impl Fn(usize, usize) -> String,
) -> Result<Vec<String>, String> {
    let ranges = chunk_ranges(total, ctx.chunk_count());
    let base_lines: Vec<String> = ranges.iter().map(|&(lo, hi)| make_line(lo, hi)).collect();
    let mut results: Vec<Option<String>> = vec![None; ranges.len()];
    let groups = ctx.group_count();
    let mut progressed = true;
    for round in 0..=ctx.cfg.retries {
        let pending: Vec<usize> = (0..ranges.len())
            .filter(|&c| results[c].is_none())
            .collect();
        if pending.is_empty() {
            break;
        }
        // Only a fruitless round (nothing completed anywhere) earns a
        // backoff pause; partial progress means a sibling replica is
        // alive and the remainder should fail over to it immediately.
        if round > 0 && !progressed {
            std::thread::sleep(ctx.base());
        }
        progressed = false;
        let suffix = deadline_suffix(deadline, Instant::now())?;
        let rebuilt: Vec<String>;
        let lines: &[String] = if suffix.is_empty() {
            &base_lines
        } else {
            rebuilt = base_lines.iter().map(|l| format!("{l}{suffix}")).collect();
            &rebuilt
        };
        let live = live_shards(ctx);
        if live.is_empty() {
            continue; // maybe a backoff window expires before the last round
        }
        // Route each pending chunk to the least-loaded live replica of
        // its owning group; `assigned` counts this round's not-yet-
        // launched work so the assignment itself stays balanced.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); ctx.shards.len()];
        let mut assigned: Vec<usize> = vec![0; ctx.shards.len()];
        for &chunk in &pending {
            let owner = chunk % groups;
            let siblings: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&s| ctx.group_of(s) == owner)
                .collect();
            let candidates = if siblings.is_empty() {
                &live
            } else {
                &siblings
            };
            let Some(s) = pick_least_loaded(ctx, candidates, &assigned) else {
                continue;
            };
            assigned[s] += 1;
            per_shard[s].push(chunk);
        }
        let outcomes: Vec<Vec<(usize, ChunkOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, chunks)| !chunks.is_empty())
                .map(|(shard_idx, chunks)| {
                    scope.spawn(move || serve_chunks(ctx, shard_idx, chunks, lines))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread panicked"))
                .collect()
        });
        for (chunk, outcome) in outcomes.into_iter().flatten() {
            match outcome {
                ChunkOutcome::Done(payload) => {
                    results[chunk] = Some(payload);
                    progressed = true;
                }
                ChunkOutcome::Retry => {}
                ChunkOutcome::Fatal(m) => return Err(m),
            }
        }
    }
    results
        .into_iter()
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| "no live shards (all replicas down or overloaded)".to_string())
}

/// Forwards a whole query to the least-loaded live shard, failing over
/// across the remaining replicas within the round on transport errors.
/// With a `deadline`, each attempt carries the remaining budget as
/// `deadline_ms=` (the base `line` must not already contain one) and an
/// exhausted budget sheds with a `deadline exceeded:` error.
fn forward_one(ctx: &ClusterCtx, line: &str, deadline: Option<Instant>) -> Result<String, String> {
    for round in 0..=ctx.cfg.retries {
        if round > 0 {
            std::thread::sleep(ctx.base());
        }
        let mut remaining = live_shards(ctx);
        while let Some(shard_idx) = pick_least_loaded(ctx, &remaining, &[]) {
            remaining.retain(|&s| s != shard_idx);
            let suffix = deadline_suffix(deadline, Instant::now())?;
            let rebuilt: String;
            let line_now: &str = if suffix.is_empty() {
                line
            } else {
                rebuilt = format!("{line}{suffix}");
                &rebuilt
            };
            ctx.loads[shard_idx]
                .inflight
                .fetch_add(1, Ordering::Relaxed);
            let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
            let outcome = state.request(line_now, ctx.base(), ctx.cap());
            drop(state);
            ctx.loads[shard_idx]
                .inflight
                .fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(payload) => {
                    ctx.loads[shard_idx].served.fetch_add(1, Ordering::Relaxed);
                    return Ok(payload);
                }
                Err(ShardError::Server(m)) if is_overload(&m) => continue,
                Err(ShardError::Server(m)) => return Err(m),
                Err(ShardError::Transport(_)) => continue,
            }
        }
    }
    Err("no live shards (all replicas down or overloaded)".to_string())
}

/// Re-reads the authority fingerprint from shard `i` (after a mutation)
/// and refreshes the cluster snapshot so down shards resync to the *new*
/// state when they return.
fn refresh_authority_from(ctx: &ClusterCtx, i: usize) -> Result<(), String> {
    let mut state = ctx.shards[i].lock().expect("shard lock");
    let payload = state
        .request("fingerprint", ctx.base(), ctx.cap())
        .map_err(|e| e.to_string())?;
    let auth = parse_fingerprint(&payload)?;
    *ctx.authority.lock().expect("authority lock") = Some(auth);
    if let Some(path) = ctx.snapshot_path() {
        state
            .request(
                &format!("snapshot path={}", path.display()),
                ctx.base(),
                ctx.cap(),
            )
            .map_err(|e| format!("snapshot refresh: {e}"))?;
    }
    Ok(())
}

/// Broadcasts a mutation. The first live shard goes alone: if it rejects
/// (bad camera id, …) the broadcast aborts with zero divergence. A later
/// shard failing is marked down and will resync from the refreshed
/// snapshot when it reconnects.
fn broadcast_mutation(ctx: &ClusterCtx, line: &str) -> Result<String, String> {
    let live = live_shards(ctx);
    if live.is_empty() {
        return Err("no live shards".to_string());
    }
    let mut applied_on: Option<(usize, String)> = None;
    let mut followers: Vec<usize> = Vec::new();
    for &shard_idx in &live {
        let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
        match state.request(line, ctx.base(), ctx.cap()) {
            Ok(payload) => {
                if applied_on.is_none() {
                    applied_on = Some((shard_idx, payload));
                } else {
                    followers.push(shard_idx);
                }
            }
            Err(ShardError::Server(m)) => {
                if applied_on.is_none() {
                    // Nothing mutated anywhere yet: clean client error.
                    return Err(m);
                }
                // Replicas were identical, so a divergent verdict means
                // this shard is not the replica we thought: force a
                // reconnect + fingerprint resync before it serves again.
                state.mark_down(ctx.base(), ctx.cap());
            }
            Err(ShardError::Transport(_)) => {} // already marked down
        }
    }
    let (first, payload) = applied_on.ok_or_else(|| "no live shards".to_string())?;
    refresh_authority_from(ctx, first)?;
    // Convergence check: every follower that applied the mutation must
    // now fingerprint-match the refreshed authority. A mismatch (e.g. a
    // daemon restarted between the broadcast and here) is marked down so
    // the next `ensure_shard` restores it before it answers reads.
    let auth = *ctx.authority.lock().expect("authority lock");
    if let Some(auth) = auth {
        for shard_idx in followers {
            let mut state = ctx.shards[shard_idx].lock().expect("shard lock");
            let converged = state
                .request("fingerprint", ctx.base(), ctx.cap())
                .map_err(|e| e.to_string())
                .and_then(|p| parse_fingerprint(&p))
                .map(|fp| fp.net_fp == auth.net_fp && fp.profile_fp == auth.profile_fp);
            if !matches!(converged, Ok(true)) {
                state.mark_down(ctx.base(), ctx.cap());
            }
        }
    }
    Ok(payload)
}

fn render_cluster_stats(ctx: &ClusterCtx) -> String {
    let live = live_shards(ctx);
    let mut shard_stats: Vec<ShardStats> = Vec::new();
    for &i in &live {
        let mut state = ctx.shards[i].lock().expect("shard lock");
        if let Ok(payload) = state.request("stats", ctx.base(), ctx.cap()) {
            if let Ok(s) = parse_shard_stats(&payload) {
                shard_stats.push(s);
            }
        }
    }
    let agg = aggregate(&shard_stats);
    let authority = *ctx.authority.lock().expect("authority lock");
    let snap = ctx.metrics.snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster: shards={} up={} down={} uptime_s={:.1}",
        ctx.shards.len(),
        agg.shards_reporting,
        ctx.shards.len() - agg.shards_reporting,
        snap.uptime_s
    );
    if let Some(auth) = authority {
        let _ = writeln!(
            out,
            "fleet: cameras={} net_fp={} profile_fp={}",
            auth.cameras, auth.net_fp, auth.profile_fp
        );
    }
    let _ = write!(out, "requests:");
    for (endpoint, count) in &snap.counts {
        let _ = write!(out, " {endpoint}={count}");
    }
    let _ = writeln!(out, " total={} rejected={}", snap.total, snap.rejected);
    let _ = write!(
        out,
        "reads: replication={} groups={}",
        ctx.replication(),
        ctx.group_count()
    );
    for (i, load) in ctx.loads.iter().enumerate() {
        let _ = write!(out, " shard{i}={}", load.served.load(Ordering::Relaxed));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "shards: total_requests={} rejected={} queue_depth={} queue_capacity={} \
         cache_entries={} cache_hits={} cache_misses={} cache_hit_rate={:.4}",
        agg.total_requests,
        agg.rejected,
        agg.queue_depth,
        agg.queue_capacity,
        agg.cache_entries,
        agg.cache_hits,
        agg.cache_misses,
        agg.cache_hit_rate()
    );
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

fn render_shards(ctx: &ClusterCtx) -> String {
    let mut out = String::new();
    for (i, shard) in ctx.shards.iter().enumerate() {
        // Probe liveness (reconnect + resync if due) before reporting.
        let serving = ensure_shard(ctx, i);
        let state = shard.lock().expect("shard lock");
        let breaker = state.breaker();
        let _ = writeln!(
            out,
            "shard {i}: addr={} group={} state={} breaker={} failures={} cooldown_ms={}",
            state.addr(),
            ctx.group_of(i),
            if serving { "up" } else { "down" },
            breaker.state_name(Instant::now()),
            breaker.consecutive_failures(),
            breaker.cooldown().as_millis()
        );
    }
    out
}

/// Raw parameter pass-through: the coordinator forwards the client's
/// token verbatim so the shards parse the identical value.
fn raw_suffix(req: &Request<'_>, key: &str) -> Result<String, String> {
    let raw: String = req.get(key, String::new())?;
    if raw.is_empty() {
        Ok(String::new())
    } else {
        Ok(format!(" {key}={raw}"))
    }
}

fn theta_suffix(req: &Request<'_>) -> Result<String, String> {
    raw_suffix(req, "theta-deg")
}

/// The optional `deadline_ms=` budget as an absolute deadline anchored
/// at `received` (when the coordinator read the request line), so queue
/// and retry time spent inside the coordinator counts against it.
fn parse_deadline(req: &Request<'_>, received: Instant) -> Result<Option<Instant>, String> {
    // u64::MAX ms ≈ 584 My: the sentinel for "no deadline given".
    let ms: u64 = req.get("deadline_ms", u64::MAX)?;
    if ms == u64::MAX {
        return Ok(None);
    }
    Ok(Some(received + Duration::from_millis(ms)))
}

/// Enforces the coordinator's [`ClusterConfig::max_cells`] budget on a
/// `side × side` request, mirroring the daemon's own named `err` frame
/// so a budget rejection reads identically from either tier.
fn check_cell_budget(ctx: &ClusterCtx, side: usize) -> Result<(), String> {
    if ctx.cfg.max_cells == 0 {
        return Ok(());
    }
    if side.checked_mul(side).is_none_or(|c| c > ctx.cfg.max_cells) {
        return Err(format!(
            "max-cells exceeded: {side}×{side} grid is over the {}-cell budget",
            ctx.cfg.max_cells
        ));
    }
    Ok(())
}

fn run_map(ctx: &ClusterCtx, req: &Request<'_>, received: Instant) -> Result<String, String> {
    req.allow_only(&["theta-deg", "side", "deadline_ms"])?;
    let side: usize = req.get("side", 48)?;
    if side == 0 {
        return Err("side/grid must be positive".to_string());
    }
    check_cell_budget(ctx, side)?;
    let deadline = parse_deadline(req, received)?;
    let theta = theta_suffix(req)?;
    let glyphs = scatter(ctx, side * side, deadline, |lo, hi| {
        format!("cells side={side} lo={lo} hi={hi}{theta}")
    })?
    .concat();
    Ok(coverage_map_from_glyphs(side, &glyphs))
}

fn run_holes(ctx: &ClusterCtx, req: &Request<'_>, received: Instant) -> Result<String, String> {
    req.allow_only(&["theta-deg", "grid", "deadline_ms"])?;
    let grid: usize = req.get("grid", 24)?;
    if grid == 0 {
        return Err("side/grid must be positive".to_string());
    }
    check_cell_budget(ctx, grid)?;
    let deadline = parse_deadline(req, received)?;
    let theta = theta_suffix(req)?;
    let torus_side = ctx
        .authority
        .lock()
        .expect("authority lock")
        .ok_or("cluster has no authority state")?
        .torus_side;
    let mask_text = scatter(ctx, grid * grid, deadline, |lo, hi| {
        format!("mask grid={grid} lo={lo} hi={hi}{theta}")
    })?
    .concat();
    let covered: Vec<bool> = mask_text.chars().map(|c| c == '1').collect();
    if covered.len() != grid * grid {
        return Err(format!(
            "gathered mask holds {} cells, want {}",
            covered.len(),
            grid * grid
        ));
    }
    let report = holes_from_mask(Torus::with_side(torus_side), grid, &covered);
    Ok(hole_report_text(&report))
}

fn run_kfull(ctx: &ClusterCtx, req: &Request<'_>, received: Instant) -> Result<String, String> {
    req.allow_only(&["theta-deg", "k", "grid", "deadline_ms"])?;
    let grid: usize = req.get("grid", 24)?;
    let k: usize = req.get("k", 2)?;
    if grid == 0 {
        return Err("side/grid must be positive".to_string());
    }
    check_cell_budget(ctx, grid)?;
    let deadline = parse_deadline(req, received)?;
    let theta = theta_suffix(req)?;
    let counts = scatter(ctx, grid * grid, deadline, |lo, hi| {
        format!("kcount k={k} grid={grid} lo={lo} hi={hi}{theta}")
    })?;
    let mut meeting = 0usize;
    for payload in counts {
        meeting += payload
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("bad kcount payload {payload:?}: {e}"))?;
    }
    Ok(kfull_text(k, grid, meeting, grid * grid))
}

fn run_fingerprint(ctx: &ClusterCtx, req: &Request<'_>) -> Result<String, String> {
    req.allow_only(&[])?;
    let auth = ctx
        .authority
        .lock()
        .expect("authority lock")
        .ok_or("cluster has no authority state")?;
    Ok(format!(
        "net_fp={} profile_fp={} cameras={} torus=0x{:016x}\n",
        auth.net_fp,
        auth.profile_fp,
        auth.cameras,
        auth.torus_side.to_bits()
    ))
}

/// Relays a `watch` subscription 1:1 to one live shard over a dedicated
/// upstream connection, pumping every ok-frame (baseline + deltas)
/// downstream until either side disconnects or the coordinator shuts
/// down. Every shard sees every mutation (broadcast), so any single
/// replica's delta stream is the cluster's delta stream.
///
/// Runs in the connection handler thread itself; the short upstream
/// read timeout inside [`protocol::read_framed_response`] keeps the
/// relay responsive to shutdown, so the acceptor's join cannot hang.
///
/// Returns `true` when the downstream connection is consumed (the
/// subscription ran, or the socket broke) and the handler must retire;
/// `false` when the subscription was rejected cleanly and the
/// connection can keep serving ordinary requests.
fn relay_watch(ctx: &ClusterCtx, line: &str, downstream: &TcpStream) -> bool {
    let mut writer = downstream;
    let live = live_shards(ctx);
    let Some(&first) = live.first() else {
        ctx.metrics.record_rejected();
        return protocol::write_err(&mut writer, "no live shards").is_err();
    };
    // A fresh upstream connection: the pooled shard connection keeps
    // serving queries while this one carries the subscription.
    let addr = &ctx.cfg.shard_addrs[first];
    let upstream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            ctx.metrics.record_rejected();
            let msg = format!("shard {addr}: {e}");
            return protocol::write_err(&mut writer, &msg).is_err();
        }
    };
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(200)));
    let send = |stream: &TcpStream| -> io::Result<()> {
        let mut w = stream;
        use io::Write as _;
        writeln!(w, "{line}")?;
        w.flush()
    };
    if send(&upstream).is_err() {
        ctx.metrics.record_rejected();
        let msg = format!("shard {addr}: connection failed");
        return protocol::write_err(&mut writer, &msg).is_err();
    }
    let mut carry: Vec<u8> = Vec::new();
    // Baseline frame: forwarded verbatim; a shard rejection (bad grid,
    // bad theta) is relayed as an err and the connection goes back to
    // normal request/response service, matching the daemon's behavior.
    match protocol::read_framed_response(&upstream, &mut carry, &ctx.shutdown) {
        Some(fullview_service::Response::Ok(payload)) => {
            if protocol::write_ok(&mut writer, &payload).is_err() {
                return true;
            }
        }
        Some(fullview_service::Response::Err(message)) => {
            ctx.metrics.record_rejected();
            return protocol::write_err(&mut writer, &message).is_err();
        }
        None => {
            ctx.metrics.record_rejected();
            let msg = format!("shard {addr}: closed during watch setup");
            return protocol::write_err(&mut writer, &msg).is_err();
        }
    }
    ctx.metrics.record("watch", 0.0);
    while let Some(resp) = protocol::read_framed_response(&upstream, &mut carry, &ctx.shutdown) {
        match resp {
            fullview_service::Response::Ok(payload) => {
                if protocol::write_ok(&mut writer, &payload).is_err() {
                    return true;
                }
            }
            fullview_service::Response::Err(_) => return true,
        }
    }
    true
}

fn dispatch(
    ctx: &ClusterCtx,
    line: &str,
    req: &Request<'_>,
    received: Instant,
) -> Result<String, String> {
    protocol::known_verb(req.verb(), true)?;
    match req.verb() {
        "ping" => {
            req.allow_only(&[])?;
            Ok("pong\n".to_string())
        }
        "stats" => {
            req.allow_only(&[])?;
            Ok(render_cluster_stats(ctx))
        }
        "shards" => {
            req.allow_only(&[])?;
            Ok(render_shards(ctx))
        }
        "shutdown" => {
            req.allow_only(&[])?;
            Ok("shutting down coordinator (shards keep running)\n".to_string())
        }
        // Load-generator clients introduce themselves to daemons with
        // `hello client=`; the coordinator accepts it too (stateless —
        // admission control lives on the daemons) so the same client
        // code targets either.
        "hello" => {
            req.allow_only(&["client"])?;
            let client: String = req.get("client", "anon".to_string())?;
            Ok(format!("hello {client}\n"))
        }
        "fingerprint" => run_fingerprint(ctx, req),
        "map" => run_map(ctx, req, received),
        "holes" => run_holes(ctx, req, received),
        "kfull" => run_kfull(ctx, req, received),
        // check/prob rebuild the forwarded line from the parsed tokens
        // (instead of forwarding `line` verbatim) so the client's
        // `deadline_ms=` is replaced by the remaining budget per attempt.
        "check" => {
            req.allow_only(&["theta-deg", "deadline_ms"])?;
            let deadline = parse_deadline(req, received)?;
            let theta = theta_suffix(req)?;
            forward_one(ctx, &format!("check{theta}"), deadline)
        }
        "prob" => {
            req.allow_only(&["theta-deg", "density", "deadline_ms"])?;
            let deadline = parse_deadline(req, received)?;
            let theta = theta_suffix(req)?;
            let density = raw_suffix(req, "density")?;
            forward_one(ctx, &format!("prob{theta}{density}"), deadline)
        }
        // Barrier coverage is a whole-grid sweep with a connectivity
        // pass on top — it does not decompose into index ranges, so it
        // is forwarded whole to a single replica like check/prob.
        "barrier" => {
            req.allow_only(&["theta-deg", "grid", "deadline_ms"])?;
            let grid: usize = req.get("grid", 24)?;
            if grid == 0 {
                return Err("side/grid must be positive".to_string());
            }
            check_cell_budget(ctx, grid)?;
            let deadline = parse_deadline(req, received)?;
            let theta = theta_suffix(req)?;
            let grid_arg = raw_suffix(req, "grid")?;
            forward_one(ctx, &format!("barrier{theta}{grid_arg}"), deadline)
        }
        "fail" => {
            req.allow_only(&["id"])?;
            broadcast_mutation(ctx, line)
        }
        "move" => {
            req.allow_only(&["id", "x", "y"])?;
            broadcast_mutation(ctx, line)
        }
        "reseed" => {
            req.allow_only(&["seed", "n"])?;
            broadcast_mutation(ctx, line)
        }
        // `watch` is intercepted in `handle_connection` (it needs the
        // stream); reaching here means a non-connection context.
        "watch" => Err("watch requires a dedicated client connection".to_string()),
        other => Err(format!("no handler for request '{other}'")),
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ClusterCtx>) {
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
    for handle in handlers {
        handle.join().expect("connection handler panicked");
    }
}

fn handle_connection(ctx: &Arc<ClusterCtx>, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let read = protocol::read_request_line_checked(stream, &mut carry, &ctx.shutdown);
        let line = match read {
            protocol::LineRead::Line(line) => line,
            protocol::LineRead::Closed => return,
            rejected => {
                // Oversized or non-UTF-8: the framing is lost, so answer
                // with a distinct err and drop the connection — exactly
                // like the daemons do.
                ctx.metrics.record_rejected();
                if let Some(message) = protocol::line_read_error(&rejected) {
                    let mut writer = stream;
                    let _ = protocol::write_err(&mut writer, &message);
                }
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
            Ok(req) if req.verb() == "watch" => {
                // The relay owns the connection until it ends; validate
                // the parameter set here so typos fail fast instead of
                // tying up an upstream connection.
                if let Err(message) = req.allow_only(&["theta-deg", "grid"]) {
                    ctx.metrics.record_rejected();
                    if protocol::write_err(&mut writer, &message).is_err() {
                        return;
                    }
                } else if relay_watch(ctx, &line, stream) {
                    return;
                }
            }
            Ok(req) => {
                let verb = req.verb().to_string();
                match dispatch(ctx, &line, &req, started) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_parsing_roundtrips() {
        let auth =
            parse_fingerprint("net_fp=123 profile_fp=456 cameras=400 torus=0x3ff0000000000000\n")
                .unwrap();
        assert_eq!(
            (auth.net_fp, auth.profile_fp, auth.cameras),
            (123, 456, 400)
        );
        assert_eq!(auth.torus_side, 1.0);
        assert!(parse_fingerprint("net_fp=1 profile_fp=2 cameras=3").is_err());
        assert!(parse_fingerprint("net_fp=x torus=0x3ff0000000000000").is_err());
    }

    #[test]
    fn replica_group_math_partitions_the_shard_list() {
        // replication=1: every shard its own group (legacy behavior).
        assert_eq!(group_count_of(4, 1), 4);
        assert_eq!(group_of_shard(3, 4, 1), 3);
        // replication=2 over 4 shards: [0,1] and [2,3].
        assert_eq!(group_count_of(4, 2), 2);
        assert_eq!(group_of_shard(0, 4, 2), 0);
        assert_eq!(group_of_shard(1, 4, 2), 0);
        assert_eq!(group_of_shard(2, 4, 2), 1);
        assert_eq!(group_of_shard(3, 4, 2), 1);
        // Ragged tail: 5 shards at replication=2 form a final group of 1.
        assert_eq!(group_count_of(5, 2), 3);
        assert_eq!(group_of_shard(4, 5, 2), 2);
        // Over-replication clamps to one all-shard group; zero clamps to 1.
        assert_eq!(group_count_of(3, 99), 1);
        assert_eq!(group_of_shard(2, 3, 99), 0);
        assert_eq!(group_count_of(3, 0), 3);
        assert_eq!(group_count_of(0, 2), 0);
    }

    #[test]
    fn starting_with_no_shards_or_unreachable_shards_fails_cleanly() {
        let err = Coordinator::start(ClusterConfig::new(Vec::new())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Port 1: nothing listens; startup must fail, not hang.
        let err =
            Coordinator::start(ClusterConfig::new(vec!["127.0.0.1:1".to_string()])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("no shard reachable"), "{err}");
    }
}
