//! Connection soak and storm for both tiers: what a daemon or a
//! coordinator holds for its connections must track the connections
//! that are open, not every connection it has ever served.
//!
//! Its own test binary with a single test, so no other test's threads
//! share the process whose `VmSize` and `Threads` it reads. Linux only:
//! the numbers come from `/proc/self/status`. No step holds more than
//! 64 connections at once.

#![cfg(target_os = "linux")]

use fullview_chaos::ChaosProxy;
use fullview_cluster::{ClusterConfig, Coordinator};
use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Response, Server, ServiceConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Sequential one-shot connections per tier.
const SOAK: usize = 5_000;
/// Average `VmSize` growth allowed per soak connection. A handler
/// thread's stack alone is 2 MiB of address space, so a front-end that
/// keeps finished handlers until shutdown is far over this.
const MAX_KB_PER_CONN: f64 = 64.0;
/// Connections held open at once.
const HELD: usize = 64;
/// Connections through the fault-injecting proxy per tier.
const STORM: usize = 500;
/// Client threads driving the storm.
const STORM_CLIENTS: usize = 4;
const CHAOS_SEED: u64 = 0x50A4;

/// This process's `VmSize` (kB) and thread count.
fn vm_and_threads() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in /proc/self/status"))
    };
    (field("VmSize:"), field("Threads:"))
}

/// Polls until the thread count is back to `baseline`, for up to 2 s.
fn threads_return_to(baseline: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let (_, threads) = vm_and_threads();
        if threads <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {threads} threads 2 s later, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The thread count once it has held still for 50 ms, so handlers of
/// connections closed just before have exited.
fn settled_threads() -> u64 {
    let mut last = vm_and_threads().1;
    let mut still = 0;
    while still < 5 {
        std::thread::sleep(Duration::from_millis(10));
        let now = vm_and_threads().1;
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    last
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

fn ping_once(addr: SocketAddr) {
    assert_eq!(connect(addr).request_ok("ping").as_deref(), Ok("pong\n"));
}

/// The `ping=` count on the `requests:` line of a tier's `stats`.
fn pings_counted(addr: SocketAddr) -> u64 {
    let stats = connect(addr).request_ok("stats").expect("stats");
    let requests = stats
        .lines()
        .find(|l| l.starts_with("requests:"))
        .expect("requests line");
    requests
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("ping="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no ping= count in {requests:?}"))
}

/// Held and sequential connections against one tier; returns the pings
/// it sent.
fn soak(name: &str, addr: SocketAddr) -> u64 {
    let threads_before = settled_threads();
    // Holding 64 connections first also warms the allocator: it creates
    // every per-thread malloc arena it ever will (64 MiB of address
    // space each, a one-off cost the sequential pass must not count).
    let mut held: Vec<Client> = (0..HELD).map(|_| connect(addr)).collect();
    for client in &mut held {
        assert_eq!(client.request_ok("ping").as_deref(), Ok("pong\n"));
    }
    let (_, threads_open) = vm_and_threads();
    assert!(
        threads_open >= threads_before + HELD as u64,
        "{name}: {HELD} open connections but only {threads_open} threads (baseline {threads_before})"
    );
    drop(held);
    threads_return_to(
        threads_before,
        &format!("{name} after closing {HELD} connections"),
    );

    // One more connection, so the acceptor has joined the held handlers.
    ping_once(addr);
    let (vm_before, _) = vm_and_threads();
    for _ in 0..SOAK {
        ping_once(addr);
    }
    threads_return_to(
        threads_before,
        &format!("{name} after {SOAK} sequential pings"),
    );
    let (vm_after, _) = vm_and_threads();
    let kb_per_conn = vm_after.saturating_sub(vm_before) as f64 / SOAK as f64;
    println!("{name}: VmSize {vm_before} -> {vm_after} kB over {SOAK} connections ({kb_per_conn:.1} kB each)");
    assert!(
        kb_per_conn <= MAX_KB_PER_CONN,
        "{name}: VmSize grew {kb_per_conn:.1} kB per connection ({vm_before} -> {vm_after} kB)"
    );
    (HELD + 1 + SOAK) as u64
}

/// 500 connections through a seeded fault-injecting proxy; afterwards
/// the tier must answer `map` exactly as before and still `ping`.
fn storm(name: &str, addr: SocketAddr) {
    let mut direct = connect(addr);
    let map = direct
        .request_ok("map side=16")
        .expect("map before the storm");
    let proxy = ChaosProxy::start(addr, CHAOS_SEED).expect("proxy");
    let via = proxy.local_addr();
    std::thread::scope(|scope| {
        for c in 0..STORM_CLIENTS {
            let map = &map;
            scope.spawn(move || {
                for i in (c..STORM).step_by(STORM_CLIENTS) {
                    let line = if i % 2 == 0 { "map side=16" } else { "ping" };
                    let outcome = Client::connect(via).and_then(|mut client| {
                        client.set_timeout(Some(Duration::from_secs(5)))?;
                        client.request(line)
                    });
                    // A faulted connection may fail; an answer it does
                    // deliver is the fault-free one.
                    if let Ok(Response::Ok(payload)) = outcome {
                        let want = if line == "ping" {
                            "pong\n"
                        } else {
                            map.as_str()
                        };
                        assert_eq!(payload, want, "{name}: storm connection {i} ({line})");
                    }
                }
            });
        }
    });
    assert!(
        proxy.accepted() >= STORM,
        "{name}: proxy saw {}",
        proxy.accepted()
    );
    drop(proxy);
    let mut after = connect(addr);
    assert_eq!(
        after.request_ok("map side=16").as_deref(),
        Ok(map.as_str()),
        "{name}: map changed after the storm"
    );
    assert_eq!(after.request_ok("ping").as_deref(), Ok("pong\n"));
}

#[test]
fn both_tiers_hold_only_what_open_connections_need() {
    let profile =
        NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("spec"));
    let mut config = ServiceConfig::new(profile);
    config.n = 40;
    config.seed = 7;
    config.workers = 2;
    let daemon = Server::start(config).expect("daemon start");
    let coordinator = Coordinator::start(ClusterConfig::new(vec![daemon.local_addr().to_string()]))
        .expect("coordinator start");
    for (name, addr) in [
        ("daemon", daemon.local_addr()),
        ("coordinator", coordinator.local_addr()),
    ] {
        let sent = soak(name, addr);
        assert_eq!(pings_counted(addr), sent, "{name}: stats ping= count");
    }
    for (name, addr) in [
        ("daemon", daemon.local_addr()),
        ("coordinator", coordinator.local_addr()),
    ] {
        storm(name, addr);
    }
}
