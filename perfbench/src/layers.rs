//! Per-layer metrics of the traced run (`--trace 1`).
//!
//! A workload's traced run measures the layers it exercises itself (see
//! each workload module). [`complete`] then measures the rest, always
//! from outside the layer: timed calls into the layer's public functions
//! on the workload's own fleet, and, for the service and cluster layers a
//! workload does not reach, a short traced run of the workload that
//! does (`serve` or `cluster`, four seconds). It also prints the tier
//! probe table and the thread-scaling rows.
//!
//! The traced run instruments the timed load no more than the untraced
//! one: both take a pair of timestamps around every measured call or
//! request, and every per-layer probe runs after the timed load.
//! `trace.overhead_frac` is the cost of that pair as a share of the
//! workload's median call or request (`p50_ms`). (Comparing a traced
//! with an untraced half of one run measured only the machine's drift
//! between the halves, up to 20% on a shared two-CPU VM.)

use crate::gen::{self, Class};
use crate::stats::{median, ms, nproc, ns};
use crate::{cluster, serve, sweep, Args, Outcome, PER_LAYER};
use fullview_core::{
    barrier_full_view, count_k_view_range, coverage_glyphs_range, coverage_map_from_glyphs,
    coverage_map_text, dense_grid, find_holes, EffectiveAngle, GridEvaluator, GridTiling,
    IncrementalSweep,
};
use fullview_geom::{Angle, Point, UnitGrid};
use fullview_model::CameraNetwork;
use fullview_service::wal::{read_wal, WalOp, WalRecord, WalWriter};
use fullview_service::{AdmissionControl, Lookup, Request, ResultCache};
use fullview_sim::evaluate_dense_grid_parallel;
use std::time::Instant;

/// The angles of the tier probe table.
const PROBE_THETAS: [(f64, &str); 4] = [
    (11.25, "t11_25"),
    (22.5, "t22_5"),
    (45.0, "t45"),
    (90.0, "t90"),
];
/// Largest probe grid side: bounds the exact engine's share of the run.
const PROBE_SIDE: usize = 96;

/// Query sizes a workload uses: (θ°, map side, holes grid, kfull grid,
/// barrier grid) — for `serve` those of its hot set, for `cluster` the
/// middle of its size range.
fn params(workload: &str) -> (f64, usize, usize, usize, usize) {
    match workload {
        "sweep" => (
            sweep::THETAS[0],
            sweep::MAP_SIDE,
            sweep::HOLES_GRID,
            sweep::KFULL_GRID,
            sweep::BARRIER_GRID,
        ),
        "serve" => (45.0, 8, 8, 8, 8),
        _ => (gen::CLUSTER_THETAS[0], 18, 18, 18, 18),
    }
}

fn fleet_size(workload: &str) -> usize {
    match workload {
        "sweep" => sweep::N,
        "serve" => serve::N,
        _ => cluster::N,
    }
}

fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&v)
}

/// Fills every per-layer metric the workload's own traced run left unset.
pub fn complete(args: &Args, out: &mut Outcome) {
    let workload = args.workload.as_str();
    let n = fleet_size(workload);
    let net = gen::fleet(n, args.seed);
    let (deg, map_side, holes_grid, kfull_grid, barrier_grid) = params(workload);
    let theta = gen::theta(deg);
    let torus = *net.torus();
    let dense = dense_grid(torus, n);

    out.set("deploy.ms", time_ms(3, || gen::fleet(n, args.seed)));
    out.set(
        "index.build_ms",
        time_ms(3, || CameraNetwork::new(torus, net.cameras().to_vec())),
    );
    out.set(
        "engine.tiling_ms",
        time_ms(5, || GridTiling::new(net.index(), &dense)),
    );
    let engine: [(&str, &dyn Fn() -> usize); 5] = [
        ("check", &|| {
            evaluate_dense_grid_parallel(&net, theta, Angle::ZERO, 0).full_view
        }),
        ("map", &|| coverage_map_text(&net, theta, map_side).len()),
        ("holes", &|| {
            find_holes(&net, theta, holes_grid).hole_count()
        }),
        ("kfull", &|| {
            let g = UnitGrid::new(torus, kfull_grid);
            count_k_view_range(&net, &g, theta, 2, 0, g.len())
        }),
        ("barrier", &|| {
            barrier_full_view(&net, theta, barrier_grid).covered_cells
        }),
    ];
    for (name, f) in engine {
        let key = format!("engine.{name}_ms");
        if !out.values.contains_key(&key) {
            out.set(&key, time_ms(3, f));
        }
    }
    let glyphs = coverage_glyphs_range(&net, theta, map_side, 0, map_side * map_side);
    out.set(
        "render.ms",
        time_ms(21, || coverage_map_from_glyphs(map_side, &glyphs)),
    );

    tier_table(&net, deg, out);
    scaling(&net, theta, out);
    incremental(&net, theta, args.seed, out);
    micro(args, workload, out);

    // Layers this workload does not exercise: a short traced run of the
    // workload that does.
    let mut borrowed: Vec<(&str, Outcome)> = Vec::new();
    if workload != "serve" {
        borrowed.push(("serve", serve::execute(args.seed, 4.0, true, &args.scratch)));
    }
    if workload != "cluster" {
        borrowed.push(("cluster", cluster::execute(args.seed, 4.0, true)));
    }
    if workload == "serve" {
        // The blocking path of a median (hit) request: the transport and
        // parse floor (`ping`), the admission gate and the cache lookup.
        let attributed = out.values["_serve.ping_ms"]
            + (out.values["admission.ns"] + out.values["cache.lookup_ns"]) / 1e6;
        out.set("unattributed_frac", 1.0 - attributed / out.values["p50_ms"]);
    }
    let stamps = 1_000_000;
    let t = Instant::now();
    for _ in 0..stamps {
        std::hint::black_box(Instant::now());
    }
    let pair_ns = 2.0 * ns(t.elapsed()) / f64::from(stamps);
    out.set(
        "trace.overhead_frac",
        pair_ns / (out.values["p50_ms"] * 1e6),
    );
    for (source, probe) in &borrowed {
        out.absorb_counts(probe);
        for (name, _) in PER_LAYER {
            if !out.values.contains_key(*name) {
                if let Some(v) = probe.values.get(*name) {
                    println!("layers: {name} from a short {source} run");
                    out.set(name, *v);
                }
            }
        }
    }
}

/// The tier probe table: exact, mask and hier engines on the same points
/// (a grid of at most `PROBE_SIDE²` points over this fleet) at each probe
/// angle. The workload's own angle also fills the headline tier metrics.
fn tier_table(net: &CameraNetwork, primary_deg: f64, out: &mut Outcome) {
    let side = dense_grid(*net.torus(), net.len())
        .side_count()
        .min(PROBE_SIDE);
    let grid = UnitGrid::new(*net.torus(), side);
    let pts = grid.len() as f64;
    println!(
        "tier probe table: n={} grid={side}x{side} nproc={} source={} date={}",
        net.len(),
        nproc(),
        source_stamp(),
        utc_date()
    );
    println!("  theta   exact_ns/pt  mask_ns/pt  hier_ns/pt  screen_rate  proved_frac  hier_nodes");
    for (deg, tag) in PROBE_THETAS {
        let theta = gen::theta(deg);
        let t = Instant::now();
        let exact = GridEvaluator::new_exact(theta, Angle::ZERO).evaluate_grid(net, &grid);
        let exact_ns = ns(t.elapsed()) / pts;
        let mut ev = GridEvaluator::new(theta, Angle::ZERO);
        let t = Instant::now();
        let mask = ev.evaluate_grid(net, &grid);
        let mask_ns = ns(t.elapsed()) / pts;
        let t = Instant::now();
        let (hier, stats) = fullview_hier::evaluate_grid_hier(net, theta, &grid, Angle::ZERO);
        let hier_ns = ns(t.elapsed()) / pts;
        if exact != mask || exact != hier {
            println!("  theta {deg}: tiers disagree (exact {exact:?} mask {mask:?} hier {hier:?})");
            out.wrong += 1;
            out.failed += 1;
        }
        out.attempted += 3;
        let screen = ev.screen_stats().screen_rate();
        let proved = stats.proved_fraction();
        println!(
            "  {deg:>6}  {exact_ns:>11.1}  {mask_ns:>10.1}  {hier_ns:>10.1}  {screen:>11.4}  {proved:>11.4}  {:>10}",
            stats.nodes
        );
        out.set(&format!("probe.{tag}.exact_ns_per_pt"), exact_ns);
        out.set(&format!("probe.{tag}.mask_ns_per_pt"), mask_ns);
        out.set(&format!("probe.{tag}.hier_ns_per_pt"), hier_ns);
        out.set(&format!("probe.{tag}.screen_rate"), screen);
        out.set(&format!("probe.{tag}.proved_frac"), proved);
        if deg == primary_deg {
            out.set("exact.ns_per_pt", exact_ns);
            out.set("mask.ns_per_pt", mask_ns);
            out.set("mask.screen_rate", screen);
            out.set("hier.ns_per_pt", hier_ns);
            out.set("hier.proved_frac", proved);
            out.set("hier.nodes", stats.nodes as f64);
        }
    }
}

/// Thread-scaling rows: the dense-grid sweep at 1..=nproc threads, every
/// report byte-identical to the single-thread one.
fn scaling(net: &CameraNetwork, theta: EffectiveAngle, out: &mut Outcome) {
    let mut base = None;
    let mut t1 = 0.0;
    let mut eff = 1.0;
    for threads in 1..=nproc() {
        let t = Instant::now();
        let report = evaluate_dense_grid_parallel(net, theta, Angle::ZERO, threads);
        let secs = t.elapsed().as_secs_f64();
        let text = report.to_string();
        let same = base.get_or_insert_with(|| text.clone()) == &text;
        out.attempted += 1;
        if !same {
            out.wrong += 1;
            out.failed += 1;
        }
        if threads == 1 {
            t1 = secs;
        }
        eff = t1 / (threads as f64 * secs);
        println!(
            "scaling: threads={threads} {:.1} ms efficiency {eff:.3} identical={same}",
            secs * 1e3
        );
    }
    out.set("sim.scaling_eff", eff);
}

/// Replays seeded `move`s through `mark_disk` and `resweep_dirty` on a
/// warm dense-grid state of this fleet.
fn incremental(net: &CameraNetwork, theta: EffectiveAngle, seed: u64, out: &mut Outcome) {
    let mut copy = net.clone();
    let side = dense_grid(*copy.torus(), copy.len()).side_count();
    let mut state = IncrementalSweep::new(&copy, theta, Angle::ZERO, side);
    let (mut times, mut tiles) = (Vec::new(), Vec::new());
    for req in gen::serve_stream(seed, copy.len())
        .filter(|r| r.class == Class::Write)
        .take(20)
    {
        let r = Request::parse(&req.line).expect("generated line parses");
        let id: usize = r.require("id").expect("id");
        let to = Point::new(r.require("x").expect("x"), r.require("y").expect("y"));
        let before = copy.cameras()[id];
        copy.move_camera(id, to);
        let after = copy.cameras()[id].position();
        let radius = before.spec().radius();
        let t = Instant::now();
        state.mark_disk(before.position(), radius);
        state.mark_disk(after, radius);
        let delta = state.resweep_dirty(&copy);
        times.push(ms(t.elapsed()));
        tiles.push(delta.tiles_resweeped as f64);
    }
    out.set("incremental.resweep_ms", median(&times));
    out.set("incremental.tiles", median(&tiles));
}

/// Standalone timings of the request parser, the admission gate, the
/// result cache and the journal.
fn micro(args: &Args, workload: &str, out: &mut Outcome) {
    let lines: Vec<String> = if workload == "cluster" {
        gen::cluster_stream(args.seed)
            .take(2000)
            .map(|r| r.line)
            .collect()
    } else {
        gen::serve_stream(args.seed, serve::N)
            .take(2000)
            .map(|r| r.line)
            .collect()
    };
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for line in &lines {
            std::hint::black_box(Request::parse(line).map(|r| r.verb().len()).ok());
        }
    }
    out.set(
        "protocol.parse_ns",
        ns(t.elapsed()) / (reps * lines.len()) as f64,
    );

    let gate = AdmissionControl::new(1e12, 1e12);
    let admits = 100_000;
    let t = Instant::now();
    for i in 0..admits {
        std::hint::black_box(
            gate.admit(if i % 2 == 0 { "load-0" } else { "load-1" })
                .is_ok(),
        );
    }
    out.set("admission.ns", ns(t.elapsed()) / admits as f64);

    let mut cache = ResultCache::new(128);
    let payload = "x".repeat(2048);
    for key in 0..128u64 {
        cache.insert(key, payload.clone(), true, 7);
    }
    let lookups = 100_000u64;
    let t = Instant::now();
    for i in 0..lookups {
        std::hint::black_box(matches!(cache.get(i % 128, 7), Lookup::Fresh(_)));
    }
    out.set("cache.lookup_ns", ns(t.elapsed()) / lookups as f64);

    let path = args.scratch.join("probe.wal");
    let scan = read_wal(&path).expect("fresh journal scans");
    let mut writer = WalWriter::open(&path, &scan).expect("journal opens");
    let appends: Vec<f64> = (0..50)
        .map(|i| {
            let rec = WalRecord {
                pre_fp: i,
                op: WalOp::Move {
                    id: i as usize,
                    x: 0.25,
                    y: 0.75,
                },
            };
            let t = Instant::now();
            writer.append(&rec).expect("journal append");
            ms(t.elapsed())
        })
        .collect();
    out.set("wal.append_ms", median(&appends));
}

/// Identifies the source measured: the commit when the working directory
/// is a git checkout, and always an FNV-1a fingerprint of `crates/`.
fn source_stamp() -> String {
    let commit = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head.to_string()),
        }
    });
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "commit:{} crates-fnv:{h:016x}",
        commit.map_or_else(
            || "unknown".to_string(),
            |c| c.trim().chars().take(12).collect()
        )
    )
}

/// Today's UTC date, `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (H. Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}
