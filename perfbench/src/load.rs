//! Open-loop load over the wire protocol.
//!
//! Requests are due on a fixed schedule (request `i` at `start + i/rate`)
//! whether or not earlier ones have been answered, as independent users
//! would send them. Each persistent connection has a sender thread that
//! writes each line when it is due and a receiver thread that reads the
//! in-order replies, so a slow reply never holds back a later send. A
//! request's latency runs from when it was due, not when it was written,
//! which counts the wait a stall imposes on every later request; how late
//! the sender itself ran is recorded separately. `move` writes all go
//! through connection 0, so their order, and with it the fleet version
//! each read may have seen, is known.
//!
//! [`drive`] is the load both TCP workloads run: a closed-loop probe, a
//! nominal phase at a fixed share of the probe's rate, and a capacity
//! measurement in closed-loop batches, each costed in process CPU time.

use crate::gen::{Class, Req};
use crate::stats::{cpu_seconds, median, nproc, proc_status, quantile};
use crate::Outcome;
use fullview_service::protocol::{read_response, Response};
use fullview_service::Request;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok(String),
    /// An `err` frame: rejected, busy, deadline, or a server-side error.
    Err(String),
    /// No frame at all: connect, write or read failed.
    Transport(String),
}

/// One request's outcome. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the request slice the phase was given.
    pub idx: usize,
    pub class: Class,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    /// Connect time of a one-shot connection.
    pub connect_ns: Option<u64>,
    pub reply: Reply,
}

impl Sample {
    /// Latency from the scheduled send, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator wrote the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn ok(&self) -> Option<&str> {
        match &self.reply {
            Reply::Ok(payload) => Some(payload),
            _ => None,
        }
    }

    /// Why the request failed, if it did.
    pub fn error(&self) -> Option<&str> {
        match &self.reply {
            Reply::Ok(_) => None,
            Reply::Err(message) => Some(message),
            Reply::Transport(e) => Some(e),
        }
    }
}

/// One phase of load: open loop at a fixed offered rate, or closed loop
/// (`rate` 0).
pub struct Phase {
    pub rate: f64,
    pub reqs: Vec<Req>,
    /// One per request, in request order.
    pub samples: Vec<Sample>,
}

impl Phase {
    /// Latencies in milliseconds, of one class or of all, in send order.
    pub fn lat(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(Sample::latency_ms)
            .collect()
    }

    /// Every request answered `ok`, with p99 latency within the limit.
    pub fn ok(&self, limit_ms: f64) -> bool {
        self.samples.iter().all(|s| s.ok().is_some()) && quantile(&self.lat(None), 0.99) <= limit_ms
    }

    /// Requests answered `ok`.
    pub fn answered(&self) -> usize {
        self.samples.iter().filter(|s| s.ok().is_some()).count()
    }

    /// Grid points of the requests answered `ok`.
    pub fn points(&self, points_of: &dyn Fn(&str) -> usize) -> usize {
        self.samples
            .iter()
            .filter(|s| s.ok().is_some())
            .map(|s| points_of(&self.reqs[s.idx].line))
            .sum()
    }

    /// Seconds from the first scheduled send to the last reply.
    fn span_s(&self) -> f64 {
        let first = self.samples.iter().map(|s| s.due_ns).min().unwrap_or(0);
        let last = self.samples.iter().map(|s| s.recv_ns).max().unwrap_or(0);
        (last.saturating_sub(first) as f64 / 1e9).max(1e-9)
    }

    /// Answered requests per second, from the first scheduled send to
    /// the last reply.
    pub fn achieved(&self) -> f64 {
        self.answered() as f64 / self.span_s()
    }

    /// Each sample with its request line.
    pub fn traffic(&self) -> impl Iterator<Item = (Sample, String)> + '_ {
        self.samples
            .iter()
            .map(|s| (s.clone(), self.reqs[s.idx].line.clone()))
    }
}

/// The nominal rate as a share of the probe's closed-loop rate: well
/// below capacity, so the nominal phase shows latency without a queue.
const NOMINAL_OF_PROBE: f64 = 0.5;
/// Shares of the run's seconds for the probe, for the capacity
/// measurement and for each of its batches.
const PROBE_SHARE: f64 = 0.025;
const CAPACITY_SHARE: f64 = 0.65;
const BATCH_SHARE: f64 = 0.025;

/// What a workload asks of [`drive`].
pub struct Plan<'a> {
    /// Requests of the nominal phase per second of the run. A fixed
    /// count rather than a fixed time, so that the memory the nominal
    /// phase leaves behind (one-shot connections are not reclaimed) does
    /// not grow with the rate the probe found.
    pub nominal_per_run_s: f64,
    /// The p99 latency a capacity batch must meet to count, in
    /// milliseconds.
    pub limit_ms: f64,
    /// Grid points a request line asks for.
    pub points_of: &'a dyn Fn(&str) -> usize,
}

/// What [`drive`] measured.
pub struct Drive {
    /// Requests per second of the closed-loop probe.
    pub probe_rps: f64,
    /// The probe's requests and samples.
    pub probe: Phase,
    /// The phase at the nominal rate.
    pub nominal: Phase,
    /// The capacity measurement's batches, in the order run.
    pub batches: Vec<Phase>,
    /// Each batch's process CPU time, s.
    pub batch_cpu_s: Vec<f64>,
    /// Each batch's wall time, s.
    pub batch_wall_s: Vec<f64>,
    /// Process CPU time per request over the nominal phase and the
    /// batches, microseconds.
    pub cpu_us_per_op: f64,
    /// Peak resident set up to the end of the nominal phase, kB.
    pub nominal_rss_kb: f64,
}

impl Drive {
    /// Every request sent, with its line, in the order of the phases.
    pub fn traffic(&self) -> impl Iterator<Item = (Sample, String)> + '_ {
        [&self.probe, &self.nominal]
            .into_iter()
            .chain(&self.batches)
            .flat_map(Phase::traffic)
    }

    /// Sets `max_ok_rps`, `points_per_s` and `cpu_us_per_op`.
    ///
    /// `max_ok_rps` is the rate at which `ok` answers would keep every
    /// CPU busy: requests answered `ok` per second of process CPU time,
    /// times the CPUs, median over the batches that meet the p99 limit
    /// with every reply `ok`. `points_per_s` is the same for the grid
    /// points of those answers. CPU time rather than wall time, because
    /// on a shared host the wall time of a round trip is mostly wake-ups,
    /// which the host delays by a different factor from one minute to the
    /// next (over four runs of the same code, closed-loop rates ranged
    /// over 17-19% of their median, their CPU cost over 6-8%). The
    /// process holds the load
    /// generator too, whose share is the same for every version of the
    /// program. When no batch counts, every batch's figures are reported
    /// and the run records one failed operation.
    pub fn report(&self, label: &str, plan: &Plan, out: &mut Outcome) {
        let mut counted: Vec<usize> = (0..self.batches.len())
            .filter(|&i| self.batches[i].ok(plan.limit_ms))
            .collect();
        if counted.is_empty() {
            println!("{label}: no batch met the {} ms p99 limit", plan.limit_ms);
            out.attempted += 1;
            out.failed += 1;
            counted = (0..self.batches.len()).collect();
        }
        let per_cpu_s = |f: &dyn Fn(&Phase) -> usize| -> f64 {
            let v: Vec<f64> = counted
                .iter()
                .map(|&i| f(&self.batches[i]) as f64 / self.batch_cpu_s[i].max(0.01))
                .collect();
            median(&v) * nproc() as f64
        };
        let rate = per_cpu_s(&Phase::answered);
        let points = per_cpu_s(&|p: &Phase| p.points(plan.points_of));
        let wall: Vec<f64> = counted
            .iter()
            .map(|&i| self.batches[i].answered() as f64 / self.batch_wall_s[i])
            .collect();
        let lat: Vec<f64> = self.batches.iter().flat_map(|p| p.lat(None)).collect();
        println!(
            "{label}: max_ok {rate:.1} requests per CPU-busy s ({:.1} per wall s over {} connections), median of {} of {} batches; batch latency p50 {:.3} ms p99 {:.3} ms",
            median(&wall),
            nproc(),
            counted.len(),
            self.batches.len(),
            median(&lat),
            quantile(&lat, 0.99)
        );
        out.set("max_ok_rps", rate);
        out.set("points_per_s", points);
        out.set("cpu_us_per_op", self.cpu_us_per_op);
    }
}

/// Probes, runs the nominal phase and measures capacity, drawing
/// requests from `stream`. Capacity is measured in closed-loop batches
/// over one persistent connection per CPU: each connection sends its
/// next request as soon as the last is answered, so the load rises to
/// what the system sustains and no backlog can build. Each batch's
/// process CPU time is taken (see [`Drive::report`]).
pub fn drive(
    addr: SocketAddr,
    stream: &mut impl Iterator<Item = Req>,
    plan: &Plan,
    seconds: f64,
    epoch: Instant,
) -> Drive {
    let (probe_reqs, probe_samples) = closed_loop_for(addr, stream, seconds * PROBE_SHARE, epoch);
    let probe = Phase {
        rate: 0.0,
        reqs: probe_reqs,
        samples: probe_samples,
    };
    let probe_rps = probe.achieved();
    let cpu_before = cpu_seconds();
    let reqs: Vec<Req> = stream
        .take((plan.nominal_per_run_s * seconds).ceil() as usize)
        .collect();
    let rate = probe_rps * NOMINAL_OF_PROBE;
    let start = Instant::now() + Duration::from_millis(5);
    let samples = open_loop(addr, &reqs, rate, nproc(), epoch, start);
    let nominal = Phase {
        rate,
        reqs,
        samples,
    };
    let nominal_rss_kb = proc_status().1;

    let conns = nproc();
    let mut lanes: Vec<Conn> = (0..conns)
        .map(|lane| open(addr, &format!("load-{lane}")))
        .collect();
    let (batch_s, until) = (seconds * BATCH_SHARE, seconds * CAPACITY_SHARE);
    let began = Instant::now();
    let (mut batches, mut batch_cpu_s, mut batch_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_batch = probe_rps * batch_s;
    while batches.is_empty() || began.elapsed().as_secs_f64() < until {
        // Enough requests that no lane runs dry before the deadline.
        let reqs: Vec<Req> = stream
            .take((2.0 * per_batch).ceil() as usize + 16 * conns)
            .collect();
        let (t, cpu) = (Instant::now(), cpu_seconds());
        let samples = closed_batch(addr, &mut lanes, &reqs, batch_s, epoch);
        batch_cpu_s.push(cpu_seconds() - cpu);
        batch_wall_s.push(t.elapsed().as_secs_f64());
        let batch = Phase {
            rate: 0.0,
            reqs,
            samples,
        };
        per_batch = per_batch.max(batch.samples.len() as f64);
        batches.push(batch);
    }
    let requests = nominal.samples.len() + batches.iter().map(|p| p.samples.len()).sum::<usize>();
    Drive {
        probe_rps,
        probe,
        nominal,
        batches,
        batch_cpu_s,
        batch_wall_s,
        cpu_us_per_op: (cpu_seconds() - cpu_before) * 1e6 / requests.max(1) as f64,
        nominal_rss_kb,
    }
}

/// One closed-loop batch: connection `lane` of `lanes` sends requests
/// `lane`, `lane + lanes.len()`, ... of `reqs` one after another until
/// `secs` have passed (writes all go through connection 0 and one-shot
/// requests open a connection of their own). Returns the samples of the
/// requests sent, in request order.
fn closed_batch(
    addr: SocketAddr,
    lanes: &mut [Conn],
    reqs: &[Req],
    secs: f64,
    epoch: Instant,
) -> Vec<Sample> {
    let conns = lanes.len();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut mine: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for (i, r) in reqs.iter().enumerate() {
        let lane = if r.class == Class::Write {
            0
        } else {
            i % conns
        };
        mine[lane].push(i);
    }
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(mine)
            .map(|(conn, idxs)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in idxs {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let r = &reqs[i];
                        let sent = Instant::now();
                        out.push(if r.class == Class::OneShot {
                            one_shot(addr, r, i, sent, epoch)
                        } else {
                            let reply = round_trip(conn, &r.line);
                            closed_sample(i, r.class, sent, epoch, reply)
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Appends `samples` of `reqs` to `traffic`, each with its line.
pub fn record(traffic: &mut Vec<(Sample, String)>, reqs: &[Req], samples: Vec<Sample>) {
    traffic.extend(samples.into_iter().map(|s| {
        let line = reqs[s.idx].line.clone();
        (s, line)
    }));
}

/// Per-endpoint request counts, the cache counters and the server-side
/// p99 from a `stats` payload.
#[derive(Debug)]
pub struct Scrape {
    pub counts: HashMap<String, f64>,
    pub cache: HashMap<String, f64>,
    pub p99_ms: f64,
}

impl Scrape {
    pub fn take(addr: SocketAddr) -> Scrape {
        let text = ask(addr, "stats").unwrap_or_default();
        let kv = |prefix: &str| -> HashMap<String, f64> {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(|rest| {
                    rest.split_whitespace()
                        .filter_map(|t| {
                            let (k, v) = t.split_once('=')?;
                            Some((k.to_string(), v.parse().ok()?))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        Scrape {
            counts: kv("requests: "),
            cache: kv("cache: "),
            p99_ms: kv("latency_ms: ").get("p99").copied().unwrap_or(0.0),
        }
    }
}

/// The change of counter `key` between two scrapes' maps.
pub fn delta(after: &HashMap<String, f64>, before: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Sets `metrics.count_gap.<verb>`: requests of each query verb the
/// client sent (`sent`, the lines sent after the `before` scrape) minus
/// the ones the server counted between the two scrapes.
pub fn count_gaps<'a>(
    sent: impl Iterator<Item = &'a str>,
    before: &Scrape,
    after: &Scrape,
    out: &mut Outcome,
) {
    let mut by_verb: HashMap<String, f64> = HashMap::new();
    for line in sent {
        let verb = Request::parse(line).map_or_else(|_| "?".to_string(), |r| r.verb().to_string());
        *by_verb.entry(verb).or_default() += 1.0;
    }
    for verb in ["check", "map", "holes", "kfull", "prob", "barrier", "move"] {
        let gap =
            by_verb.get(verb).copied().unwrap_or(0.0) - delta(&after.counts, &before.counts, verb);
        out.set(&format!("metrics.count_gap.{verb}"), gap);
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// A persistent connection: writer and buffered reader.
type Conn = std::io::Result<(TcpStream, BufReader<TcpStream>)>;

/// Opens a persistent connection and introduces it as `client`.
fn open(addr: SocketAddr, client: &str) -> Conn {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "hello client={client}")?;
    match read_response(&mut reader)? {
        Some(Response::Ok(_)) => Ok((writer, reader)),
        other => Err(std::io::Error::other(format!("hello refused: {other:?}"))),
    }
}

/// Sends `reqs` open loop at `rate` requests per second from `start`,
/// over `conns` persistent connections plus a fresh connection per
/// one-shot request, and waits for every reply. Reads are dealt over
/// every persistent connection in turn, and every write goes through
/// connection 0. Returns one sample per request, in request order.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    conns: usize,
    epoch: Instant,
    start: Instant,
) -> Vec<Sample> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); conns + 1];
    for (i, r) in reqs.iter().enumerate() {
        let lane = match r.class {
            Class::OneShot => conns,
            Class::Write => 0,
            Class::Hot | Class::Miss => i % conns,
        };
        lanes[lane].push(i);
    }
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (lane, idxs) in lanes.into_iter().enumerate() {
            if lane == conns {
                handles.push(scope.spawn(move || one_shots(addr, reqs, &idxs, due, epoch)));
            } else {
                handles.push(scope.spawn(move || persistent(addr, lane, reqs, &idxs, due, epoch)));
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Sends `line` over `conn` and reads the reply.
fn round_trip(conn: &mut Conn, line: &str) -> Reply {
    match conn {
        Err(e) => Reply::Transport(e.to_string()),
        Ok((writer, reader)) => {
            match writeln!(writer, "{line}")
                .and_then(|()| writer.flush())
                .and_then(|()| read_response(reader))
            {
                Ok(Some(Response::Ok(p))) => Reply::Ok(p),
                Ok(Some(Response::Err(m))) => Reply::Err(m),
                Ok(None) => Reply::Transport("connection closed".to_string()),
                Err(e) => Reply::Transport(e.to_string()),
            }
        }
    }
}

/// A closed-loop sample: due when sent.
fn closed_sample(idx: usize, class: Class, sent: Instant, epoch: Instant, reply: Reply) -> Sample {
    Sample {
        idx,
        class,
        due_ns: since(epoch, sent),
        sent_ns: since(epoch, sent),
        recv_ns: since(epoch, Instant::now()),
        connect_ns: None,
        reply,
    }
}

/// Sends `reqs` one after another over a single persistent connection
/// (closed loop: each is due when the previous reply arrived).
pub fn closed_loop(addr: SocketAddr, reqs: &[Req], epoch: Instant) -> Vec<Sample> {
    let mut conn = open(addr, "probe");
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            let sent = Instant::now();
            let reply = round_trip(&mut conn, &r.line);
            closed_sample(i, r.class, sent, epoch, reply)
        })
        .collect()
}

/// Sends requests from `stream` back to back over one connection until
/// `secs` have passed. Returns the requests sent and their samples.
pub fn closed_loop_for(
    addr: SocketAddr,
    stream: &mut impl Iterator<Item = Req>,
    secs: f64,
    epoch: Instant,
) -> (Vec<Req>, Vec<Sample>) {
    let mut conn = open(addr, "probe");
    let start = Instant::now();
    let (mut reqs, mut samples) = (Vec::new(), Vec::new());
    while reqs.is_empty() || start.elapsed().as_secs_f64() < secs {
        let Some(r) = stream.next() else { break };
        let sent = Instant::now();
        let reply = round_trip(&mut conn, &r.line);
        samples.push(closed_sample(reqs.len(), r.class, sent, epoch, reply));
        reqs.push(r);
    }
    (reqs, samples)
}

/// One request on its own connection; the payload of an `ok` frame.
pub fn ask(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut client = fullview_service::Client::connect(addr).map_err(|e| e.to_string())?;
    client.request_ok(line)
}

fn transport(idx: usize, class: Class, due_ns: u64, epoch: Instant, e: &str) -> Sample {
    let now = since(epoch, Instant::now());
    Sample {
        idx,
        class,
        due_ns,
        sent_ns: now,
        recv_ns: now,
        connect_ns: None,
        reply: Reply::Transport(e.to_string()),
    }
}

fn persistent(
    addr: SocketAddr,
    lane: usize,
    reqs: &[Req],
    idxs: &[usize],
    due: impl Fn(usize) -> Instant + Sync,
    epoch: Instant,
) -> Vec<Sample> {
    let (mut writer, mut reader) = match open(addr, &format!("load-{lane}")) {
        Ok(pair) => pair,
        Err(e) => {
            return idxs
                .iter()
                .map(|&i| {
                    transport(
                        i,
                        reqs[i].class,
                        since(epoch, due(i)),
                        epoch,
                        &e.to_string(),
                    )
                })
                .collect()
        }
    };
    let (tx, rx) = mpsc::channel::<(usize, u64, u64, Option<String>)>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut out = Vec::new();
            let mut broken: Option<String> = None;
            for (i, due_ns, sent_ns, write_err) in rx {
                let reply = match (broken.clone(), write_err) {
                    (Some(e), _) | (None, Some(e)) => Reply::Transport(e),
                    (None, None) => match read_response(&mut reader) {
                        Ok(Some(Response::Ok(p))) => Reply::Ok(p),
                        Ok(Some(Response::Err(m))) => Reply::Err(m),
                        Ok(None) => {
                            broken = Some("connection closed".to_string());
                            Reply::Transport("connection closed".to_string())
                        }
                        Err(e) => {
                            broken = Some(e.to_string());
                            Reply::Transport(e.to_string())
                        }
                    },
                };
                out.push(Sample {
                    idx: i,
                    class: reqs[i].class,
                    due_ns,
                    sent_ns,
                    recv_ns: since(epoch, Instant::now()),
                    connect_ns: None,
                    reply,
                });
            }
            out
        });
        for &i in idxs {
            let at = due(i);
            sleep_until(at);
            let sent = Instant::now();
            let res = writeln!(writer, "{}", reqs[i].line).and_then(|()| writer.flush());
            let err = res.err().map(|e| e.to_string());
            tx.send((i, since(epoch, at), since(epoch, sent), err))
                .expect("receiver alive");
        }
        drop(tx);
        receiver.join().expect("receiver panicked")
    })
}

/// Each one-shot request is its own user: a thread started when the
/// request is due connects, asks once and disconnects, so one slow
/// answer delays no other one-shot request.
fn one_shots(
    addr: SocketAddr,
    reqs: &[Req],
    idxs: &[usize],
    due: impl Fn(usize) -> Instant,
    epoch: Instant,
) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = idxs
            .iter()
            .map(|&i| {
                let at = due(i);
                sleep_until(at);
                scope.spawn(move || one_shot(addr, &reqs[i], i, at, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("one-shot thread panicked"))
            .collect()
    })
}

fn one_shot(addr: SocketAddr, req: &Req, i: usize, at: Instant, epoch: Instant) -> Sample {
    let sent = Instant::now();
    let result = (|| -> std::io::Result<(u64, Response)> {
        let stream = TcpStream::connect(addr)?;
        let connect_ns = sent.elapsed().as_nanos() as u64;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        writeln!(writer, "{}", req.line)?;
        writer.flush()?;
        let reply = read_response(&mut reader)?
            .ok_or_else(|| std::io::Error::other("connection closed"))?;
        Ok((connect_ns, reply))
    })();
    let now = Instant::now();
    let (connect_ns, reply) = match result {
        Ok((c, Response::Ok(p))) => (Some(c), Reply::Ok(p)),
        Ok((c, Response::Err(m))) => (Some(c), Reply::Err(m)),
        Err(e) => (None, Reply::Transport(e.to_string())),
    };
    Sample {
        idx: i,
        class: req.class,
        due_ns: since(epoch, at),
        sent_ns: since(epoch, sent),
        recv_ns: since(epoch, now),
        connect_ns,
        reply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` `ok` replies offered at `rate`, each answered `lag(i)` ns after
    /// it was due.
    fn phase(rate: f64, n: usize, lag: impl Fn(u64) -> u64) -> Phase {
        let gap = (1e9 / rate) as u64;
        let req = Req {
            line: "map side=4".to_string(),
            class: Class::Hot,
        };
        Phase {
            rate,
            reqs: vec![req; n],
            samples: (0..n as u64)
                .map(|i| Sample {
                    idx: i as usize,
                    class: Class::Hot,
                    due_ns: i * gap,
                    sent_ns: i * gap,
                    recv_ns: i * gap + lag(i),
                    connect_ns: None,
                    reply: Reply::Ok(String::new()),
                })
                .collect(),
        }
    }

    fn drive_of(batches: Vec<Phase>, batch_cpu_s: Vec<f64>) -> Drive {
        Drive {
            probe_rps: 1.0,
            probe: phase(1.0, 10, |_| 1),
            nominal: phase(1.0, 10, |_| 1),
            batch_wall_s: batch_cpu_s.clone(),
            batches,
            batch_cpu_s,
            cpu_us_per_op: 1.0,
            nominal_rss_kb: 1.0,
        }
    }

    #[test]
    fn a_slow_tail_or_a_failed_reply_fails_the_batch() {
        assert!(phase(100.0, 200, |_| 1_000_000).ok(10.0));
        // Two replies in a hundred at 50 ms: p99 over a 10 ms limit.
        let tail = phase(
            100.0,
            200,
            |i| if i % 50 == 0 { 50_000_000 } else { 1_000_000 },
        );
        assert!(!tail.ok(10.0));
        let mut failed = phase(100.0, 200, |_| 1_000_000);
        failed.samples[7].reply = Reply::Err("busy".to_string());
        assert!(!failed.ok(10.0));
    }

    #[test]
    fn max_ok_is_the_median_rate_of_the_batches_that_count() {
        let plan = Plan {
            nominal_per_run_s: 1.0,
            limit_ms: 10.0,
            points_of: &|_| 16,
        };
        let quick = |n: usize| phase(100.0, n, |_| 1_000_000);
        // 100, 120 and 90 answers per CPU second, and a batch of 1 000
        // over the latency limit that does not count.
        let d = drive_of(
            vec![
                quick(100),
                quick(240),
                quick(90),
                phase(100.0, 1000, |_| 50_000_000),
            ],
            vec![1.0, 2.0, 1.0, 1.0],
        );
        let mut out = Outcome::default();
        d.report("test", &plan, &mut out);
        let cpus = nproc() as f64;
        assert_eq!(out.values["max_ok_rps"], 100.0 * cpus);
        assert_eq!(out.values["points_per_s"], 1600.0 * cpus);
        assert_eq!(out.failed, 0);
        // No batch counts: every batch's median, and one failed operation.
        let slow = |n: usize| phase(100.0, n, |_| 50_000_000);
        let d = drive_of(vec![slow(80), slow(60)], vec![1.0, 1.0]);
        let mut out = Outcome::default();
        d.report("test", &plan, &mut out);
        assert_eq!(out.values["max_ok_rps"], 60.0 * cpus);
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
