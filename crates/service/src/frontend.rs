//! The connection front-end shared by the daemon and the cluster
//! coordinator: the bound listener, one acceptor thread, and one request
//! loop per connection.
//!
//! The acceptor joins every handler that has finished each time it
//! accepts a connection, so what the process holds for its connections
//! grows with the connections that are open, not with every connection
//! it has served. On shutdown it stops accepting and joins the handlers
//! still running; they notice the flag within one read poll.
//!
//! Each tier plugs in only its [`Service::dispatch`] hook. The request
//! loop owns everything else: framing errors, blank lines, parse errors,
//! the `hello client=` identity, `ok`/`err` frames, [`Metrics`], and
//! shutdown after an acknowledged `shutdown`.

use crate::admission::ANON_CLIENT;
use crate::metrics::Metrics;
use crate::protocol::{self, LineRead, Request};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read blocks before the handler checks the
/// shutdown flag again.
const READ_POLL: Duration = Duration::from_millis(200);

/// What a tier's dispatch hook made of one request.
#[derive(Debug)]
pub enum Dispatch {
    /// Answer with an `ok` frame (the payload) or an `err` frame (the
    /// message).
    Reply(Result<String, String>),
    /// Refused by admission control: answered `err busy retry_after=<ms>`.
    Busy(u64),
    /// The hook answered on the connection itself, recorded the request,
    /// and keeps the connection (a `watch` subscription); the request
    /// loop writes nothing more and retires.
    TakenOver,
}

/// One request as the dispatch hook sees it.
#[derive(Debug)]
pub struct Incoming<'a> {
    /// The raw request line.
    pub line: &'a str,
    /// The parsed request.
    pub req: &'a Request<'a>,
    /// The connection's `hello client=` identity ([`ANON_CLIENT`] until
    /// one is declared).
    pub client: &'a str,
    /// When the request line was read.
    pub received: Instant,
    /// The client connection, for hooks that take it over.
    pub stream: &'a TcpStream,
    /// Set once the front-end is shutting down.
    pub shutdown: &'a AtomicBool,
}

/// A tier served by the front-end: the daemon or the coordinator.
pub trait Service: Send + Sync + 'static {
    /// The sink the request loop records every request into.
    fn metrics(&self) -> &Metrics;

    /// Answers one parsed request other than `hello`.
    fn dispatch(self: &Arc<Self>, request: &Incoming<'_>) -> Dispatch;
}

/// The state the acceptor and every handler share.
#[derive(Debug)]
struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
}

impl Shared {
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running listener. Dropping it (or calling [`Frontend::wait`] after
/// a client sent `shutdown`) stops accepting and waits for every
/// connection handler to finish.
#[derive(Debug)]
pub struct Frontend {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Frontend {
    /// Serves `listener` with `service` on a new acceptor thread.
    ///
    /// # Errors
    ///
    /// The listener's address cannot be read, or the acceptor thread
    /// cannot be spawned.
    pub fn start<S: Service>(listener: TcpListener, service: Arc<S>) -> io::Result<Frontend> {
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            shutdown: AtomicBool::new(false),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .spawn(move || accept_loop(&listener, &service, &acceptor_shared))?;
        Ok(Frontend {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts shutting down (what an acknowledged `shutdown` request
    /// does) without waiting; see [`wait`](Self::wait).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the acceptor has stopped and every connection
    /// handler has finished. Returns at once when already stopped.
    ///
    /// # Panics
    ///
    /// When a connection handler panicked (unless this thread is already
    /// unwinding).
    pub fn wait(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("acceptor thread panicked");
            }
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Joins every handler that has finished, keeping the live ones.
/// Returns how many of them panicked.
fn reap(handlers: &mut Vec<JoinHandle<()>>) -> usize {
    let mut panicked = 0;
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            panicked += usize::from(handlers.swap_remove(i).join().is_err());
        } else {
            i += 1;
        }
    }
    panicked
}

fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    // A handler's panic must not stop the acceptor; it is reported when
    // the front-end is waited on.
    let mut panicked = 0;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        panicked += reap(&mut handlers);
        let Ok(stream) = conn else { continue };
        let stream = Arc::new(stream);
        let (conn_stream, conn_service, conn_shared) =
            (Arc::clone(&stream), Arc::clone(service), Arc::clone(shared));
        match std::thread::Builder::new()
            .spawn(move || handle_connection(&conn_service, &conn_shared, &conn_stream))
        {
            Ok(handle) => handlers.push(handle),
            Err(e) => {
                // Out of threads: refuse this connection by name, keep
                // accepting.
                service.metrics().record_rejected();
                let message = format!("connection refused: no handler thread ({e})");
                let _ = protocol::write_err(&mut &*stream, &message);
            }
        }
    }
    // Graceful drain: handlers notice the flag within one read poll.
    for handle in handlers {
        panicked += usize::from(handle.join().is_err());
    }
    assert!(panicked == 0, "{panicked} connection handler(s) panicked");
}

/// The `hello client=NAME` verb: sets the connection's identity.
fn hello(req: &Request<'_>, client: &mut String) -> Dispatch {
    let named = req
        .allow_only(&["client"])
        .and_then(|()| req.get("client", ANON_CLIENT.to_string()));
    Dispatch::Reply(named.map(|name| {
        *client = name;
        format!("hello {client}\n")
    }))
}

fn handle_connection<S: Service>(service: &Arc<S>, shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let metrics = service.metrics();
    let mut writer = stream;
    let mut carry: Vec<u8> = Vec::new();
    // Everything before (or without) a `hello` shares the anon identity.
    let mut client = ANON_CLIENT.to_string();
    loop {
        let line = match protocol::read_request_line_checked(stream, &mut carry, &shared.shutdown) {
            LineRead::Line(line) => line,
            LineRead::Closed => return,
            bad => {
                // Oversized / non-UTF-8: the framing is lost, so answer
                // with an err frame the peer can read, then close.
                metrics.record_rejected();
                if let Some(message) = protocol::line_read_error(&bad) {
                    let _ = protocol::write_err(&mut writer, &message);
                }
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let (verb, outcome) = match Request::parse(&line) {
            Err(message) => ("", Dispatch::Reply(Err(message))),
            Ok(req) if req.verb() == "hello" => ("hello", hello(&req, &mut client)),
            Ok(req) => {
                let request = Incoming {
                    line: &line,
                    req: &req,
                    client: &client,
                    received,
                    stream,
                    shutdown: &shared.shutdown,
                };
                (req.verb(), S::dispatch(service, &request))
            }
        };
        let written = match outcome {
            Dispatch::Reply(Ok(payload)) => {
                metrics.record(verb, received.elapsed().as_secs_f64() * 1e3);
                let written = protocol::write_ok(&mut writer, &payload);
                if written.is_ok() && verb == "shutdown" {
                    shared.initiate_shutdown();
                    return;
                }
                written
            }
            Dispatch::Reply(Err(message)) => {
                metrics.record_rejected();
                protocol::write_err(&mut writer, &message)
            }
            Dispatch::Busy(retry_ms) => {
                metrics.record_busy();
                protocol::write_err(&mut writer, &format!("busy retry_after={retry_ms}"))
            }
            Dispatch::TakenOver => return,
        };
        if written.is_err() || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}
