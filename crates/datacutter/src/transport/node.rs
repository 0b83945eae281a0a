//! Multi-process execution: one OS process per node, bridged over TCP.
//!
//! [`run_node`] executes the partition of a placed [`GraphSpec`] that maps
//! to one node id, connecting to every peer process over loopback (or any
//! reachable address) with the length-prefixed frame protocol of
//! [`super::wire`]. Same-node streams keep the engine's zero-copy `Arc`
//! path; cross-node streams are split into a **sender half** — an ordinary
//! bounded channel installed at the remote copy's position in the
//! producer's output port, drained by a per-peer TCP writer thread, so
//! backpressure and `blocked_send` accounting work unchanged — and a
//! **receiver half** — a per-peer TCP reader thread that decodes frames and
//! injects buffers into the local consumer queues under the stream's
//! declared [`crate::schedule::SchedulePolicy`].
//!
//! **Handshake.** Node *i* dials every peer *j < i* and accepts from every
//! peer *j > i*: one TCP connection per unordered pair, full mesh. Both
//! sides exchange a `Hello` frame carrying the protocol version, the
//! sender's node id, a digest of the graph spec plus node count, and the
//! feature bits (payload checksums) this build was configured to use;
//! a version or digest mismatch aborts the run with a typed error before
//! any filter spawns, and the connection settles on the feature
//! intersection. The accept side polls with a deadline, so a peer that
//! never launches produces a typed timeout naming the missing nodes
//! instead of a hang.
//!
//! **Frame path.** Each connection runs three threads. The *writer* drains
//! every uplink channel routed to its peer per wakeup, gated by per-route
//! credit windows, and puts each frame on the socket as soon as it is
//! encoded: one vectored write of header and borrowed payload per frame
//! ([`super::wire::write_frame_cfg`]). The *reader* decodes frames
//! off the socket and forwards them; the *injector* owns the local route
//! map, decodes payloads, feeds consumer queues (staging overflow so one
//! slow consumer never stalls the socket for the other routes), and grants
//! a credit back to the peer for each buffer it hands to a consumer queue.
//!
//! **End-of-stream.** When a cross-node route's local producers finish, the
//! uplink channel disconnects and the writer emits an explicit `Eos` frame
//! for that route; the peer's injector drops its clone of the
//! consumer-queue sender (after any staged buffers drain), and the consumer
//! observes end-of-input exactly as it would locally. Connection close is
//! *not* EOS — a socket that dies with live routes is a peer loss.
//!
//! **Failure propagation.** A failing node raises its run-level failure
//! flag before any channel drops (the engine's existing discipline), so its
//! writers observe `failed` at disconnect time and send an `Error` frame —
//! carrying the *origin* node id — instead of `Eos`. Receivers raise their
//! own flag, drop their injectors, and record a typed
//! [`FilterErrorKind::Io`] error naming the failed peer; frames whose
//! origin is the receiving node itself are demoted to secondary so an echo
//! can never shadow the genuine local root cause. A connection that dies
//! without an `Error` frame is reported as `lost connection to node N`.

use crate::buffer::DataBuffer;
use crate::chan::{bounded, unbounded, Receiver, Select, Sender, TryRecvError, TrySendError};
use crate::engine::{
    run_graph_partition, FilterFactory, Partition, RunFailure, StreamInjector, THREAD_PREFIX,
};
use crate::filter::{FilterError, FilterErrorKind, Msg};
use crate::graph::GraphSpec;
use crate::metrics::{ConnectionReport, RunReport};
use crate::transport::codec::PayloadCodec;
use crate::transport::wire::{
    read_frame, spec_digest, write_frame, write_frame_cfg, Frame, WireConfig, WireError,
    MAX_CREDIT_GRANT, SHARED_QUEUE, WIRE_VERSION,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Where an injected transport fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultKind {
    /// Hard-close the connection (both directions) — simulates a peer
    /// crash or network partition mid-run.
    Drop,
    /// Sleep this long before every subsequent frame write — simulates a
    /// congested link; benign, exercises backpressure through the uplink.
    Stall(Duration),
}

/// A deterministic transport fault, for chaos tests: applied by the writer
/// thread toward `peer` (or every peer) after `after_frames` data frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportFault {
    /// Restrict the fault to the connection toward this peer; `None` arms
    /// every writer.
    pub peer: Option<usize>,
    /// Number of data frames to deliver before the fault fires.
    pub after_frames: u64,
    /// What happens when it fires.
    pub kind: TransportFaultKind,
}

/// Configuration of one node process in a distributed run.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This process's node id (an index into `addrs`).
    pub node: usize,
    /// Every node's listen address, indexed by node id; `addrs[node]` is
    /// this process's own listener.
    pub addrs: Vec<SocketAddr>,
    /// How long to keep re-dialing a peer that has not started listening
    /// yet, how long to wait for higher-numbered peers to dial in, and the
    /// per-read deadline during the handshake.
    pub connect_timeout: Duration,
    /// Stamp outgoing `Data` frames with a payload checksum (effective only
    /// when the peer also advertises it; see [`WireConfig::negotiate`]).
    pub checksum: bool,
    /// Optional injected fault, for chaos tests.
    pub fault: Option<TransportFault>,
    /// A pre-bound listener for this node's own address. When set,
    /// [`run_node`] accepts higher-numbered peers on it instead of binding
    /// `addrs[node]` itself — closing the TOCTOU window between reserving
    /// a port (see [`reserve_loopback_listeners`]) and listening on it.
    pub listener: Option<Arc<TcpListener>>,
}

impl NodeConfig {
    /// A loopback configuration for `node` among `addrs`, with a 10 s
    /// connect timeout, checksums off, and no injected
    /// fault.
    pub fn new(node: usize, addrs: Vec<SocketAddr>) -> Self {
        Self {
            node,
            addrs,
            connect_timeout: Duration::from_secs(10),
            checksum: false,
            fault: None,
            listener: None,
        }
    }
}

/// Reserves `n` distinct loopback addresses by binding ephemeral listeners
/// and **keeping them bound**: each returned listener is handed to its
/// node's [`NodeConfig::listener`], so the port can never be stolen between
/// reservation and use. This is the race-free replacement for
/// [`free_loopback_addrs`].
///
/// # Errors
/// Propagates the bind failure.
pub fn reserve_loopback_listeners(
    n: usize,
) -> std::io::Result<(Vec<SocketAddr>, Vec<Arc<TcpListener>>)> {
    let listeners: Vec<Arc<TcpListener>> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map(Arc::new))
        .collect::<Result<_, _>>()?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<Result<_, _>>()?;
    Ok((addrs, listeners))
}

/// Reserves `n` distinct loopback addresses by binding ephemeral listeners
/// and collecting their ports.
///
/// The listeners are dropped before returning, so a raced process *can*
/// steal a port before the node binds it. In-process callers should use
/// [`reserve_loopback_listeners`] instead; this helper remains only for
/// multi-process launches, where the listener cannot cross the `exec`
/// boundary — such callers must treat a child's bind failure as retryable
/// with fresh ports (as `h4d launch` does).
///
/// # Errors
/// Propagates the bind failure.
pub fn free_loopback_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let (addrs, _listeners) = reserve_loopback_listeners(n)?;
    Ok(addrs)
}

/// Route key on the wire: `(stream index, destination)` where destination
/// is a global consumer copy index or [`SHARED_QUEUE`].
type RouteKey = (u32, u32);

/// The initial per-route credit window the sender assumes and the receiver
/// honors: both sides derive it independently from the stream's declared
/// channel capacity, so no window negotiation is needed.
fn route_window(capacity: usize) -> u32 {
    u32::try_from(capacity.saturating_mul(2))
        .unwrap_or(MAX_CREDIT_GRANT)
        .clamp(4, MAX_CREDIT_GRANT)
}

/// What an injector needs to feed one route's buffers locally.
struct RouteIn {
    port: usize,
    tx: Sender<Msg>,
    meter: Arc<crate::metrics::StreamMeter>,
}

/// How a locally recorded transport error was detected — the precedence
/// class of the root-cause merge.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ErrClass {
    /// Detected on this node: socket loss, decode failure, injected drop.
    Local,
    /// Reported by a peer via an `Error` frame; carries the frame's origin.
    Remote,
}

/// State shared between the engine partition and the transport threads.
struct Shared {
    node: usize,
    failed: Arc<AtomicBool>,
    /// First-writer-wins origin hint for outgoing `Error` frames: the node
    /// this process believes the failure started on. `u64::MAX` = unset.
    origin_hint: AtomicU64,
    errors: Mutex<Vec<(ErrClass, usize, FilterError)>>,
}

impl Shared {
    fn new(node: usize) -> Self {
        Self {
            node,
            failed: Arc::new(AtomicBool::new(false)),
            origin_hint: AtomicU64::new(u64::MAX),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Records a transport error and raises the run-level failure flag
    /// **before** any caller-side channel teardown, preserving the
    /// engine's flag-before-disconnect discipline across processes.
    fn record(&self, class: ErrClass, origin: usize, err: FilterError) {
        let _ = self.origin_hint.compare_exchange(
            u64::MAX,
            origin as u64,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        // Poison recovery: error recording must survive a panicking
        // sibling thread — one wrecked thread must never take the recorder
        // down with a lock panic.
        self.errors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((class, origin, err));
        self.failed.store(true, Ordering::SeqCst);
    }

    /// The origin id and message an outgoing `Error` frame should carry.
    fn outgoing_error(&self) -> (u32, String) {
        let hint = self.origin_hint.load(Ordering::SeqCst);
        let origin = if hint == u64::MAX {
            self.node
        } else {
            hint as usize
        };
        let message = self
            .errors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .first()
            .map(|(_, _, e)| e.to_string())
            .unwrap_or_else(|| format!("run failed on node {}", self.node));
        (origin as u32, message)
    }
}

/// Per-connection transport counters, shared between the writer and reader
/// threads and harvested into the [`RunReport`] after the join.
struct ConnStats {
    peer: usize,
    wire: WireConfig,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_recv: AtomicU64,
    credits_sent: AtomicU64,
    credit_stalls: AtomicU64,
}

impl ConnStats {
    fn new(peer: usize, wire: WireConfig) -> Self {
        Self {
            peer,
            wire,
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            frames_recv: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            credits_sent: AtomicU64::new(0),
            credit_stalls: AtomicU64::new(0),
        }
    }

    fn report(&self) -> ConnectionReport {
        ConnectionReport {
            peer: self.peer,
            checksum: self.wire.checksum,
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            credits_sent: self.credits_sent.load(Ordering::Relaxed),
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
        }
    }
}

fn io_filter_error(msg: String) -> FilterError {
    FilterError::new(FilterErrorKind::Io, msg)
}

/// Validates everything [`run_graph_partition`] would reject, plus the
/// distributed-only constraints, *before* any transport thread spawns.
///
/// This is load-bearing for liveness, not just early diagnostics: the
/// engine's early-return paths fire before its failure flag is armed, so a
/// post-handshake engine rejection would let the writers translate the
/// resulting channel teardown into clean `Eos` frames and peers would
/// happily complete on truncated data. Rejecting here, before the
/// handshake, means the peer instead times out dialing — a loud, typed
/// failure.
fn prevalidate(
    spec: &GraphSpec,
    factories: &HashMap<String, FilterFactory>,
    cfg: &NodeConfig,
) -> Result<(), FilterError> {
    spec.validate()
        .map_err(|e| FilterError::engine(format!("invalid graph: {e}")))?;
    let nodes = cfg.addrs.len();
    if nodes == 0 {
        return Err(FilterError::engine("no node addresses configured"));
    }
    if cfg.node >= nodes {
        return Err(FilterError::engine(format!(
            "node id {} out of range for {nodes} configured addresses",
            cfg.node
        )));
    }
    for f in &spec.filters {
        if !factories.contains_key(&f.name) {
            return Err(FilterError::engine(format!(
                "no factory for filter {:?}",
                f.name
            )));
        }
        if f.placement.len() != f.copies {
            return Err(FilterError::engine(format!(
                "distributed run requires full placement: filter {:?} places {} of {} copies",
                f.name,
                f.placement.len(),
                f.copies
            )));
        }
        if let Some(&bad) = f.placement.iter().find(|&&n| n >= nodes) {
            return Err(FilterError::engine(format!(
                "filter {:?} placed on node {bad}, but only {nodes} nodes are configured",
                f.name
            )));
        }
    }
    for s in &spec.streams {
        if !s.policy.uses_private_queues() {
            let cdecl = spec.filter_decl(&s.to).expect("validated");
            if cdecl.placement.windows(2).any(|w| w[0] != w[1]) {
                return Err(FilterError::engine(format!(
                    "demand-driven stream {:?} requires all copies of {:?} on one node",
                    s.name, s.to
                )));
            }
        }
    }
    Ok(())
}

/// Dials peers below this node's id and accepts from peers above it,
/// exchanging and checking `Hello` frames. Returns one connected, verified
/// stream per peer, keyed by peer id, paired with the negotiated frame
/// options (the intersection of both sides' advertised features).
///
/// The accept side polls a non-blocking listener against
/// `cfg.connect_timeout`, so a higher-numbered peer that never launches
/// yields a typed `Io` error naming every still-missing node instead of
/// blocking in `accept()` forever.
fn connect_mesh(
    cfg: &NodeConfig,
    digest: u64,
) -> Result<HashMap<usize, (TcpStream, WireConfig)>, FilterError> {
    let nodes = cfg.addrs.len();
    let me = cfg.node;
    let want = WireConfig {
        checksum: cfg.checksum,
    };
    let hello = Frame::Hello {
        version: WIRE_VERSION,
        node: me as u32,
        digest,
        features: want.features(),
    };
    let check_hello = |frame: Option<Frame>, who: &str| -> Result<(u32, u32), FilterError> {
        match frame {
            Some(Frame::Hello {
                version,
                node,
                digest: d,
                features,
            }) => {
                if version != WIRE_VERSION {
                    return Err(io_filter_error(format!(
                        "handshake with {who}: protocol version {version} != {WIRE_VERSION} \
                         (all nodes must run the same h4d build)"
                    )));
                }
                if d != digest {
                    return Err(io_filter_error(format!(
                        "handshake with {who}: graph digest mismatch \
                         (peers must run the same spec and node count)"
                    )));
                }
                Ok((node, features))
            }
            Some(_) => Err(io_filter_error(format!(
                "handshake with {who}: first frame was not Hello"
            ))),
            None => Err(io_filter_error(format!(
                "handshake with {who}: connection closed before Hello"
            ))),
        }
    };

    let mut peers: HashMap<usize, (TcpStream, WireConfig)> = HashMap::new();
    // Dial every lower-numbered peer, retrying until its listener is up.
    for peer in 0..me {
        let deadline = Instant::now() + cfg.connect_timeout;
        let mut stream = loop {
            match TcpStream::connect(cfg.addrs[peer]) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    return Err(io_filter_error(format!(
                        "could not connect to node {peer} at {}: {e}",
                        cfg.addrs[peer]
                    )));
                }
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(cfg.connect_timeout)).ok();
        write_frame(&mut stream, &hello)
            .map_err(|e| io_filter_error(format!("handshake send to node {peer} failed: {e}")))?;
        let got = read_frame(&mut stream)
            .map_err(|e| io_filter_error(format!("handshake with node {peer} failed: {e}")))?;
        let (said, feats) = check_hello(got, &format!("node {peer}"))?;
        if said as usize != peer {
            return Err(io_filter_error(format!(
                "dialed node {peer} but it identified as node {said}"
            )));
        }
        stream.set_read_timeout(None).ok();
        peers.insert(peer, (stream, want.negotiate(feats)));
    }
    // Accept every higher-numbered peer; the Hello tells us which one. The
    // listener is non-blocking and polled against the same deadline the
    // dial side uses, so an absent peer is a typed timeout, not a hang.
    if me + 1 < nodes {
        // A pre-bound listener (reserve_loopback_listeners) wins: the port
        // was never released, so there is no window for another process to
        // steal it between reservation and this point.
        let listener = match &cfg.listener {
            Some(l) => Arc::clone(l),
            None => Arc::new(TcpListener::bind(cfg.addrs[me]).map_err(|e| {
                io_filter_error(format!("could not listen on {}: {e}", cfg.addrs[me]))
            })?),
        };
        listener
            .set_nonblocking(true)
            .map_err(|e| io_filter_error(format!("could not poll listener: {e}")))?;
        let deadline = Instant::now() + cfg.connect_timeout;
        while peers.len() < nodes - 1 {
            let (mut stream, from) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let missing: Vec<String> = (me + 1..nodes)
                            .filter(|p| !peers.contains_key(p))
                            .map(|p| format!("node {p}"))
                            .collect();
                        return Err(io_filter_error(format!(
                            "timed out after {:?} waiting for {} to connect",
                            cfg.connect_timeout,
                            missing.join(", ")
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_filter_error(format!("accept failed: {e}"))),
            };
            // Accepted sockets can inherit the listener's non-blocking mode;
            // the handshake below wants plain blocking reads with a timeout.
            stream
                .set_nonblocking(false)
                .map_err(|e| io_filter_error(format!("accept failed: {e}")))?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(cfg.connect_timeout)).ok();
            let got = read_frame(&mut stream)
                .map_err(|e| io_filter_error(format!("handshake from {from} failed: {e}")))?;
            let (said, feats) = check_hello(got, &format!("{from}"))?;
            let said = said as usize;
            if said <= me || said >= nodes || peers.contains_key(&said) {
                return Err(io_filter_error(format!(
                    "unexpected or duplicate peer id {said} from {from}"
                )));
            }
            write_frame(&mut stream, &hello).map_err(|e| {
                io_filter_error(format!("handshake send to node {said} failed: {e}"))
            })?;
            stream.set_read_timeout(None).ok();
            peers.insert(said, (stream, want.negotiate(feats)));
        }
    }
    Ok(peers)
}

/// Control messages flowing into a writer thread from its connection's
/// reader and injector.
enum WriterCtl {
    /// The injector delivered buffers locally; ask the writer to send the
    /// peer a `Credit` frame replenishing its window for `key`.
    Grant { key: RouteKey, credits: u32 },
    /// The reader saw a `Credit` frame from the peer; widen the writer's
    /// own send window for `key`. A grant of [`MAX_CREDIT_GRANT`] marks the
    /// route permanently unthrottled (the peer closed it early and will
    /// drop further frames, so blocking on credits could deadlock).
    Window { key: RouteKey, credits: u32 },
}

/// Events flowing from a reader thread into its connection's injector.
enum Inject {
    /// One routed data frame (payload still codec-encoded).
    Data {
        key: RouteKey,
        tag: u64,
        size: u64,
        ptype: u16,
        payload: Vec<u8>,
    },
    /// The peer finished a route cleanly.
    Eos { key: RouteKey },
    /// The peer reported a failed run (already recorded by the reader);
    /// tear down all routes but keep draining.
    Fail,
    /// The socket closed: `clean` at a frame boundary, otherwise after an
    /// error the reader already recorded.
    Closed { clean: bool },
}

/// Everything one writer thread owns, bundled so the spawn site stays
/// readable.
struct WriterSide {
    stream: TcpStream,
    peer: usize,
    /// Route keys, parallel to `rxs` and `init_credit`.
    keys: Vec<RouteKey>,
    rxs: Vec<Receiver<Msg>>,
    init_credit: Vec<u32>,
    /// Run-end watch: nothing is ever sent; disconnection (after the engine
    /// returns) releases a writer whose routes are all quiet.
    watch_rx: Receiver<Msg>,
    ctl_rx: Receiver<WriterCtl>,
    codec: Arc<PayloadCodec>,
    shared: Arc<Shared>,
    fault: Option<TransportFault>,
    wire: WireConfig,
    stats: Arc<ConnStats>,
}

/// Writes one frame to the peer and counts its bytes.
fn send(
    stream: &mut TcpStream,
    frame: &Frame,
    wire: &WireConfig,
    stats: &ConnStats,
) -> Result<(), WireError> {
    let n = write_frame_cfg(stream, frame, wire)?;
    stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
    Ok(())
}

fn fail_exit(stream: &mut TcpStream, shared: &Shared, wire: &WireConfig, stats: &ConnStats) {
    // One Error frame, then close the write half. Dropping the route
    // receivers (by returning) wakes any producer blocked on a full
    // uplink with a DownstreamClosed disconnect. An over-long message
    // fails to encode before any byte is written, so nothing torn ships.
    let (origin, message) = shared.outgoing_error();
    let _ = send(stream, &Frame::Error { origin, message }, wire, stats);
    let _ = stream.shutdown(Shutdown::Write);
}

/// Ends a writer whose frame on stream `si` could not be sent. A failed
/// write loses the peer and closes the socket; a frame that cannot be
/// encoded (nothing of it was written) fails the run, and the peer hears of
/// it through an `Error` frame.
fn send_failed(
    stream: &mut TcpStream,
    shared: &Shared,
    wire: &WireConfig,
    stats: &ConnStats,
    peer: usize,
    si: u32,
    e: WireError,
) {
    if let WireError::Io(e) = e {
        shared.record(
            ErrClass::Local,
            peer,
            io_filter_error(format!("lost connection to node {peer}: {e}")),
        );
        let _ = stream.shutdown(Shutdown::Both);
    } else {
        shared.record(
            ErrClass::Local,
            shared.node,
            io_filter_error(format!("cannot send stream {si} to node {peer}: {e}")),
        );
        fail_exit(stream, shared, wire, stats);
    }
}

/// Per-peer TCP writer: drains every uplink channel routed to `peer` each
/// wakeup, writing each frame as soon as it is encoded (one vectored write
/// per frame), gated per route by the credit window the peer's injector
/// replenishes. Pending credit grants for the peer go out once per sweep.
/// Channel disconnection becomes `Eos` (clean) or one `Error` frame (failed
/// run); the injected fault applies here.
#[allow(clippy::too_many_lines)]
fn writer_thread(side: WriterSide) {
    let WriterSide {
        mut stream,
        peer,
        keys,
        rxs,
        init_credit,
        watch_rx,
        ctl_rx,
        codec,
        shared,
        fault,
        wire,
        stats,
    } = side;
    let fault = fault.filter(|f| f.peer.is_none() || f.peer == Some(peer));
    let n = keys.len();
    let mut credit = init_credit;
    let mut open = vec![true; n];
    let mut unthrottled = vec![false; n];
    let mut watch_open = true;
    let mut ctl_open = true;
    // Once the run is over (watch dropped) or the credit path is gone (ctl
    // dropped), stop enforcing windows and fall back to TCP backpressure:
    // at that point no refill can ever arrive, so blocking would deadlock.
    let mut drain_all = false;
    let mut pending_grants: HashMap<RouteKey, u32> = HashMap::new();
    let mut frames_sent = 0u64;
    loop {
        // Sweep every input until a full pass makes no progress.
        loop {
            let mut progress = false;
            // Control: credit grants to emit, window refills from the peer.
            loop {
                match ctl_rx.try_recv() {
                    Ok(WriterCtl::Grant { key, credits }) => {
                        progress = true;
                        let e = pending_grants.entry(key).or_insert(0);
                        *e = e.saturating_add(credits).min(MAX_CREDIT_GRANT);
                    }
                    Ok(WriterCtl::Window { key, credits }) => {
                        progress = true;
                        if let Some(i) = keys.iter().position(|k| *k == key) {
                            if credits >= MAX_CREDIT_GRANT {
                                unthrottled[i] = true;
                            } else {
                                credit[i] = credit[i].saturating_add(credits).min(MAX_CREDIT_GRANT);
                            }
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        if ctl_open {
                            ctl_open = false;
                            drain_all = true;
                            progress = true;
                        }
                        break;
                    }
                }
            }
            // Data routes, as far as each one's window allows.
            for i in 0..n {
                if !open[i] {
                    continue;
                }
                while drain_all || unthrottled[i] || credit[i] > 0 {
                    match rxs[i].try_recv() {
                        Ok(msg) => {
                            progress = true;
                            if let Some(f) = fault {
                                match f.kind {
                                    TransportFaultKind::Drop if frames_sent >= f.after_frames => {
                                        // The first `after_frames` frames
                                        // are on the wire; die like a cut
                                        // cable.
                                        shared.record(
                                            ErrClass::Local,
                                            peer,
                                            io_filter_error(format!(
                                                "injected transport fault: dropped connection to \
                                                 node {peer} after {frames_sent} frames"
                                            )),
                                        );
                                        let _ = stream.shutdown(Shutdown::Both);
                                        return;
                                    }
                                    TransportFaultKind::Stall(d)
                                        if frames_sent >= f.after_frames =>
                                    {
                                        std::thread::sleep(d);
                                    }
                                    _ => {}
                                }
                            }
                            let sent = codec.encode(&msg.buf).and_then(|(ptype, payload)| {
                                let frame = Frame::Data {
                                    stream: keys[i].0,
                                    dest: keys[i].1,
                                    tag: msg.buf.tag(),
                                    size: msg.buf.size_bytes() as u64,
                                    ptype,
                                    payload,
                                };
                                send(&mut stream, &frame, &wire, &stats)
                            });
                            if let Err(e) = sent {
                                send_failed(
                                    &mut stream,
                                    &shared,
                                    &wire,
                                    &stats,
                                    peer,
                                    keys[i].0,
                                    e,
                                );
                                return;
                            }
                            frames_sent += 1;
                            stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                            if !(drain_all || unthrottled[i]) {
                                credit[i] -= 1;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            // Clean end-of-route, unless the run already
                            // failed — the flag is always raised before
                            // channels drop, so this cannot race to a
                            // false Eos.
                            if shared.failed.load(Ordering::SeqCst) {
                                fail_exit(&mut stream, &shared, &wire, &stats);
                                return;
                            }
                            progress = true;
                            open[i] = false;
                            let eos = Frame::Eos {
                                stream: keys[i].0,
                                dest: keys[i].1,
                            };
                            if let Err(e) = send(&mut stream, &eos, &wire, &stats) {
                                send_failed(
                                    &mut stream,
                                    &shared,
                                    &wire,
                                    &stats,
                                    peer,
                                    keys[i].0,
                                    e,
                                );
                                return;
                            }
                            break;
                        }
                    }
                }
            }
            // Run-end watch.
            match watch_rx.try_recv() {
                Ok(_) | Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    if watch_open {
                        if shared.failed.load(Ordering::SeqCst) {
                            fail_exit(&mut stream, &shared, &wire, &stats);
                            return;
                        }
                        watch_open = false;
                        drain_all = true;
                        progress = true;
                    }
                }
            }
            // Grants merged over this pass, one `Credit` frame per route
            // (progress was already marked when they arrived).
            for (key, credits) in pending_grants.drain() {
                let grant = Frame::Credit {
                    stream: key.0,
                    dest: key.1,
                    credits: credits.clamp(1, MAX_CREDIT_GRANT),
                };
                if let Err(e) = send(&mut stream, &grant, &wire, &stats) {
                    send_failed(&mut stream, &shared, &wire, &stats, peer, key.0, e);
                    return;
                }
                stats.credits_sent.fetch_add(1, Ordering::Relaxed);
            }
            if !progress {
                break;
            }
        }
        if !watch_open && open.iter().all(|o| !o) {
            break;
        }
        // Block until any input is ready. Routes out of credit are left out
        // of the select (their wakeup is a Window refill on the control
        // channel); count them as stalls when they had data ready.
        let mut sel = Select::new();
        for i in 0..n {
            if !open[i] {
                continue;
            }
            if drain_all || unthrottled[i] || credit[i] > 0 {
                sel.recv(&rxs[i]);
            } else if !rxs[i].is_empty() {
                stats.credit_stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
        if watch_open {
            sel.recv(&watch_rx);
        }
        if ctl_open {
            sel.recv(&ctl_rx);
        }
        // The sweep re-polls everything, so which input woke us does not
        // matter and a spurious wakeup is harmless.
        sel.ready();
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Per-peer TCP reader: a thin decode loop that forwards data/EOS/error
/// events to the connection's injector and peer credit grants to its
/// writer, so a slow consumer queue can never stop the socket from being
/// drained (which is what keeps credit frames flowing).
fn reader_thread(
    mut stream: TcpStream,
    peer: usize,
    inj_tx: Sender<Inject>,
    ctl_tx: Sender<WriterCtl>,
    shared: Arc<Shared>,
    stats: Arc<ConnStats>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(Frame::Data {
                stream: si,
                dest,
                tag,
                size,
                ptype,
                payload,
            })) => {
                stats.frames_recv.fetch_add(1, Ordering::Relaxed);
                // Payload bytes — the app-level view; `bytes_sent` on the
                // peer counts wire bytes, headers and control frames too.
                stats
                    .bytes_recv
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                let _ = inj_tx.send(Inject::Data {
                    key: (si, dest),
                    tag,
                    size,
                    ptype,
                    payload,
                });
            }
            Ok(Some(Frame::Credit {
                stream: si,
                dest,
                credits,
            })) => {
                let _ = ctl_tx.send(WriterCtl::Window {
                    key: (si, dest),
                    credits,
                });
            }
            Ok(Some(Frame::Eos { stream: si, dest })) => {
                let _ = inj_tx.send(Inject::Eos { key: (si, dest) });
            }
            Ok(Some(Frame::Error { origin, message })) => {
                // Record BEFORE the injector drops its senders so local
                // consumers that observe the disconnect are guaranteed to
                // see the run-level flag (mirrors the engine's ordering).
                shared.record(
                    ErrClass::Remote,
                    origin as usize,
                    io_filter_error(format!("peer node {origin} failed: {message}")),
                );
                let _ = inj_tx.send(Inject::Fail);
            }
            Ok(Some(Frame::Hello { .. })) => {
                shared.record(
                    ErrClass::Local,
                    peer,
                    io_filter_error(format!("unexpected mid-run Hello from node {peer}")),
                );
                let _ = inj_tx.send(Inject::Fail);
                let _ = inj_tx.send(Inject::Closed { clean: false });
                return;
            }
            Ok(None) => {
                let _ = inj_tx.send(Inject::Closed { clean: true });
                return;
            }
            Err(e) => {
                shared.record(
                    ErrClass::Local,
                    peer,
                    io_filter_error(format!("transport read from node {peer}: {e}")),
                );
                let _ = inj_tx.send(Inject::Closed { clean: false });
                return;
            }
        }
    }
}

/// Injector state for one connection: the local route map plus per-route
/// staging for buffers whose consumer queue was full at arrival time.
struct Injector {
    peer: usize,
    routes: HashMap<RouteKey, RouteIn>,
    staged: HashMap<RouteKey, VecDeque<Msg>>,
    /// Routes whose `Eos` arrived while buffers were still staged; finalize
    /// once the stage drains.
    eos_pending: HashSet<RouteKey>,
    ctl_tx: Sender<WriterCtl>,
    codec: Arc<PayloadCodec>,
    shared: Arc<Shared>,
}

/// What [`Injector::handle`] tells the event loop.
enum Flow {
    Continue,
    Closed { clean: bool },
}

impl Injector {
    fn grant(&self, key: RouteKey, credits: u32) {
        // The writer may already be gone on failure paths; grants are then
        // moot anyway.
        let _ = self.ctl_tx.send(WriterCtl::Grant { key, credits });
    }

    fn teardown(&mut self) {
        self.routes.clear();
        self.staged.clear();
        self.eos_pending.clear();
    }

    /// The local consumer vanished before the route's `Eos`: drop the route
    /// and lift the peer's window permanently so its producers never block
    /// on credits for frames that will now simply be discarded on arrival.
    fn close_early(&mut self, key: RouteKey) {
        self.routes.remove(&key);
        self.staged.remove(&key);
        if !self.eos_pending.remove(&key) {
            self.grant(key, MAX_CREDIT_GRANT);
        }
    }

    /// Clean end of route: dropping the sender clone is the consumer's EOS.
    fn finalize(&mut self, key: RouteKey) {
        self.routes.remove(&key);
        self.staged.remove(&key);
        self.eos_pending.remove(&key);
    }

    fn handle(&mut self, ev: Inject) -> Flow {
        match ev {
            Inject::Data {
                key,
                tag,
                size,
                ptype,
                payload,
            } => {
                // One route lookup up front: everything below is driven by
                // remote input, so a missing route is handled by dropping
                // the frame (route already closed locally), never by
                // panicking on a violated "checked above" assumption.
                let Some((port, tx, meter)) = self
                    .routes
                    .get(&key)
                    .map(|r| (r.port, r.tx.clone(), r.meter.clone()))
                else {
                    return Flow::Continue;
                };
                let buf: DataBuffer = match self.codec.decode(ptype, &payload, size as usize, tag) {
                    Ok(b) => b,
                    Err(e) => {
                        let peer = self.peer;
                        self.shared.record(
                            ErrClass::Local,
                            peer,
                            io_filter_error(format!(
                                "undecodable frame from node {peer} on stream {}: {e}",
                                key.0
                            )),
                        );
                        self.teardown();
                        return Flow::Continue;
                    }
                };
                if let Some(q) = self.staged.get_mut(&key) {
                    if !q.is_empty() {
                        // Keep arrival order: behind staged buffers, stage.
                        q.push_back(Msg { port, buf });
                        return Flow::Continue;
                    }
                }
                let bytes = buf.size_bytes() as u64;
                match tx.try_send(Msg { port, buf }) {
                    Ok(depth) => {
                        meter.record(bytes, depth);
                        self.grant(key, 1);
                    }
                    Err(TrySendError::Full(m)) => {
                        self.staged.entry(key).or_default().push_back(m);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.close_early(key);
                    }
                }
                Flow::Continue
            }
            Inject::Eos { key } => {
                if self.routes.contains_key(&key) {
                    if self.staged.get(&key).is_some_and(|q| !q.is_empty()) {
                        self.eos_pending.insert(key);
                    } else {
                        self.finalize(key);
                    }
                }
                Flow::Continue
            }
            Inject::Fail => {
                // The reader recorded the failure (raising the flag) before
                // sending this, so dropping the senders here keeps the
                // flag-before-disconnect ordering.
                self.teardown();
                Flow::Continue
            }
            Inject::Closed { clean } => Flow::Closed { clean },
        }
    }

    /// Moves staged heads into their consumer queues without blocking.
    /// Returns whether anything moved.
    fn pump_staged(&mut self) -> bool {
        let keys: Vec<RouteKey> = self.staged.keys().copied().collect();
        let mut moved = false;
        for key in keys {
            loop {
                let Some(msg) = self.staged.get_mut(&key).and_then(VecDeque::pop_front) else {
                    break;
                };
                let Some((tx, meter)) = self
                    .routes
                    .get(&key)
                    .map(|r| (r.tx.clone(), r.meter.clone()))
                else {
                    self.staged.remove(&key);
                    break;
                };
                let bytes = msg.buf.size_bytes() as u64;
                match tx.try_send(msg) {
                    Ok(depth) => {
                        meter.record(bytes, depth);
                        moved = true;
                        if !self.eos_pending.contains(&key) {
                            self.grant(key, 1);
                        }
                    }
                    Err(TrySendError::Full(m)) => {
                        self.staged.entry(key).or_default().push_front(m);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.close_early(key);
                        break;
                    }
                }
            }
            if self.eos_pending.contains(&key) && self.staged.get(&key).is_none_or(|q| q.is_empty())
            {
                self.finalize(key);
            }
        }
        moved
    }

    /// Post-close blocking drain: the socket is gone, every surviving route
    /// has its `Eos`, so push what is staged with ordinary blocking sends
    /// (no credits — there is no one left to grant to) and finish.
    fn drain_staged_blocking(&mut self) {
        let keys: Vec<RouteKey> = self.staged.keys().copied().collect();
        for key in keys {
            let Some(q) = self.staged.remove(&key) else {
                continue;
            };
            if let Some(r) = self.routes.get(&key) {
                for msg in q {
                    let bytes = msg.buf.size_bytes() as u64;
                    let Ok(depth) = r.tx.send(msg) else {
                        break;
                    };
                    r.meter.record(bytes, depth);
                }
            }
        }
        self.routes.clear();
        self.eos_pending.clear();
    }

    /// The reader reported the socket closed (or vanished): a clean close
    /// with routes still missing their `Eos` is a peer loss; otherwise
    /// drain whatever is staged and finish.
    fn on_closed(&mut self, clean: bool) {
        let lost = self.routes.keys().any(|k| !self.eos_pending.contains(k));
        if lost {
            if clean {
                let peer = self.peer;
                self.shared.record(
                    ErrClass::Local,
                    peer,
                    io_filter_error(format!("lost connection to node {peer}")),
                );
            }
            // Unclean closes were already recorded by the reader.
            self.teardown();
        } else {
            self.drain_staged_blocking();
        }
    }
}

/// Per-connection injector: owns the route map, decodes payloads, feeds
/// consumer queues, and grants credits. Stages buffers for a full consumer
/// queue instead of blocking, so the other routes on the connection keep
/// flowing — the credit window bounds how much can pile up per route.
fn injector_thread(
    peer: usize,
    routes_rx: Receiver<HashMap<RouteKey, RouteIn>>,
    arrivals: Receiver<Inject>,
    ctl_tx: Sender<WriterCtl>,
    codec: Arc<PayloadCodec>,
    shared: Arc<Shared>,
) {
    // Routes arrive via the engine's injector handoff; a dropped sender
    // means the run aborted before spawning, in which case we still drain
    // events so the reader (and through it the peer) is never wedged.
    let routes = routes_rx.recv().unwrap_or_default();
    let mut inj = Injector {
        peer,
        routes,
        staged: HashMap::new(),
        eos_pending: HashSet::new(),
        ctl_tx,
        codec,
        shared,
    };
    loop {
        // Non-blocking sweep: arrivals, then staged heads, until quiet.
        loop {
            let mut progress = false;
            loop {
                match arrivals.try_recv() {
                    Ok(ev) => {
                        progress = true;
                        if let Flow::Closed { clean } = inj.handle(ev) {
                            inj.on_closed(clean);
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Reader died without a Closed event; treat as a
                        // clean-at-boundary close so live routes still
                        // count as lost.
                        inj.on_closed(true);
                        return;
                    }
                }
            }
            if inj.pump_staged() {
                progress = true;
            }
            if !progress {
                break;
            }
        }
        // Quiet: wait until an event arrives or a route with a staged head
        // has room (or lost its consumer); the next sweep does the rest.
        let mut sel = Select::new();
        sel.recv(&arrivals);
        for (key, q) in &inj.staged {
            if let Some(r) = inj.routes.get(key).filter(|_| !q.is_empty()) {
                sel.send(&r.tx);
            }
        }
        sel.ready();
    }
}

/// Destination keys of stream `si`: one `(wire key, node)` pair per
/// consumer queue — per consumer copy for private-queue policies, a single
/// [`SHARED_QUEUE`] entry for the demand-driven shared queue.
fn dest_keys(spec: &GraphSpec, si: usize) -> Vec<(u32, usize)> {
    let s = &spec.streams[si];
    let cdecl = spec.filter_decl(&s.to).expect("validated");
    if s.policy.uses_private_queues() {
        (0..cdecl.copies)
            .map(|c| (c as u32, cdecl.placement[c]))
            .collect()
    } else {
        vec![(SHARED_QUEUE, cdecl.placement[0])]
    }
}

/// Executes this node's partition of a placed graph, bridging cross-node
/// streams to the peer processes in `cfg.addrs` over TCP.
///
/// Blocks until the local partition has finished **and** every transport
/// thread has been joined; like [`crate::run_graph`], no thread outlives
/// the call. The returned [`RunReport`] / [`RunFailure`] covers this
/// node's copies only — `filters` counts the copies placed here, so
/// [`RunReport::check`] holds per process, and `transport` carries one
/// [`ConnectionReport`] per peer connection (frames, bytes, credits)
/// — and root-cause selection extends the engine's kind
/// ordering with transport classes: a locally detected peer loss beats a
/// peer-reported failure (with the reporting echo of this node's own
/// failure demoted), and both beat the local engine error they caused.
///
/// # Errors
/// Pre-validation failures (graph, placement, factories), handshake
/// failures, or the merged root cause of a failed distributed run.
pub fn run_node(
    spec: &GraphSpec,
    factories: &mut HashMap<String, FilterFactory>,
    codec: Arc<PayloadCodec>,
    cfg: &NodeConfig,
) -> Result<RunReport, RunFailure> {
    prevalidate(spec, factories, cfg)?;
    let me = cfg.node;
    let digest = spec_digest(json::to_string(spec).as_bytes(), cfg.addrs.len());
    let peers = connect_mesh(cfg, digest)?;
    let shared = Arc::new(Shared::new(me));

    // Build the cross-node routes. Uplinks (keyed for the engine) carry
    // locally produced buffers toward remote queues; reader route specs
    // name the remote-produced routes each peer will feed into us.
    let mut uplinks: HashMap<(usize, Option<usize>), Sender<Msg>> = HashMap::new();
    let mut writer_routes: HashMap<usize, Vec<(RouteKey, Receiver<Msg>)>> = HashMap::new();
    let mut reader_specs: HashMap<usize, Vec<RouteKey>> = HashMap::new();
    for si in 0..spec.streams.len() {
        let s = &spec.streams[si];
        let pdecl = spec.filter_decl(&s.from).expect("validated");
        let local_producer = pdecl.placement.contains(&me);
        for (wire_dest, dnode) in dest_keys(spec, si) {
            if dnode != me && local_producer {
                let (tx, rx) = bounded::<Msg>(s.capacity);
                let dest = (wire_dest != SHARED_QUEUE).then_some(wire_dest as usize);
                uplinks.insert((si, dest), tx);
                writer_routes
                    .entry(dnode)
                    .or_default()
                    .push(((si as u32, wire_dest), rx));
            }
            if dnode == me {
                for &pnode in &pdecl.placement {
                    if pnode != me {
                        let spec_list = reader_specs.entry(pnode).or_default();
                        let key = (si as u32, wire_dest);
                        if !spec_list.contains(&key) {
                            spec_list.push(key);
                        }
                    }
                }
            }
        }
    }

    // Spawn a writer, a reader, and an injector per peer — even route-less
    // ones: a route-less writer lingers on the watch channel so a late
    // local failure still reaches every peer as an Error frame, and a
    // route-less reader/injector pair still drains Error frames and EOF.
    let mut handles = Vec::new();
    let mut watch_txs = Vec::new();
    let mut route_map_txs: Vec<(usize, Sender<HashMap<RouteKey, RouteIn>>)> = Vec::new();
    let mut conn_stats: Vec<Arc<ConnStats>> = Vec::new();
    let mut spawn_failure: Option<FilterError> = None;
    'conn: for (&peer, (stream, wire)) in &peers {
        let clone_err = |e: std::io::Error| {
            io_filter_error(format!("could not clone connection to node {peer}: {e}"))
        };
        let read_half = match stream.try_clone().map_err(clone_err) {
            Ok(h) => h,
            Err(e) => {
                spawn_failure = Some(e);
                break 'conn;
            }
        };
        let write_half = match stream.try_clone().map_err(clone_err) {
            Ok(h) => h,
            Err(e) => {
                spawn_failure = Some(e);
                break 'conn;
            }
        };
        let routes = writer_routes.remove(&peer).unwrap_or_default();
        let (keys, rxs): (Vec<RouteKey>, Vec<Receiver<Msg>>) = routes.into_iter().unzip();
        let init_credit: Vec<u32> = keys
            .iter()
            .map(|k| route_window(spec.streams[k.0 as usize].capacity))
            .collect();
        let (watch_tx, watch_rx) = bounded::<Msg>(1);
        watch_txs.push(watch_tx);
        let (map_tx, map_rx) = bounded::<HashMap<RouteKey, RouteIn>>(1);
        route_map_txs.push((peer, map_tx));
        let (ctl_tx, ctl_rx) = unbounded::<WriterCtl>();
        let (inj_tx, inj_rx) = unbounded::<Inject>();
        let stats = Arc::new(ConnStats::new(peer, *wire));
        conn_stats.push(stats.clone());
        let side = WriterSide {
            stream: write_half,
            peer,
            keys,
            rxs,
            init_credit,
            watch_rx,
            ctl_rx,
            codec: codec.clone(),
            shared: shared.clone(),
            fault: cfg.fault,
            wire: *wire,
            stats: stats.clone(),
        };
        match std::thread::Builder::new()
            .name(format!("{THREAD_PREFIX}-tx-{peer}"))
            .spawn(move || writer_thread(side))
        {
            Ok(h) => handles.push(h),
            Err(e) => {
                spawn_failure = Some(FilterError::engine(format!("thread spawn failed: {e}")));
                break 'conn;
            }
        }
        let (r_shared, r_ctl) = (shared.clone(), ctl_tx.clone());
        match std::thread::Builder::new()
            .name(format!("{THREAD_PREFIX}-rx-{peer}"))
            .spawn(move || reader_thread(read_half, peer, inj_tx, r_ctl, r_shared, stats))
        {
            Ok(h) => handles.push(h),
            Err(e) => {
                spawn_failure = Some(FilterError::engine(format!("thread spawn failed: {e}")));
                break 'conn;
            }
        }
        let (i_codec, i_shared) = (codec.clone(), shared.clone());
        match std::thread::Builder::new()
            .name(format!("{THREAD_PREFIX}-inj-{peer}"))
            .spawn(move || injector_thread(peer, map_rx, inj_rx, ctl_tx, i_codec, i_shared))
        {
            Ok(h) => handles.push(h),
            Err(e) => {
                spawn_failure = Some(FilterError::engine(format!("thread spawn failed: {e}")));
                break 'conn;
            }
        }
    }
    if let Some(error) = spawn_failure {
        // An early return here would leave already-spawned reader threads
        // blocked forever on their (dup'd) sockets. Shut every socket so
        // readers see EOF, release the watch and route-map channels so
        // writers and injectors exit, then join whatever spawned before
        // reporting.
        for (stream, _) in peers.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(route_map_txs);
        drop(watch_txs);
        drop(peers);
        for h in handles {
            let _ = h.join();
        }
        return Err(RunFailure::from(error));
    }
    drop(peers);

    // The handoff runs inside the engine after queue creation and before
    // any copy spawns: it slices the injector set into one route map per
    // peer and releases the injector threads.
    let handoff_specs = reader_specs;
    let handoff = Box::new(move |injectors: Vec<Option<StreamInjector>>| {
        for (peer, map_tx) in route_map_txs {
            let mut map = HashMap::new();
            for &(si, wire_dest) in handoff_specs.get(&peer).into_iter().flatten() {
                let Some(inj) = &injectors[si as usize] else {
                    continue;
                };
                let want = (wire_dest != SHARED_QUEUE).then_some(wire_dest as usize);
                if let Some((_, tx)) = inj.senders.iter().find(|(k, _)| *k == want) {
                    map.insert(
                        (si, wire_dest),
                        RouteIn {
                            port: inj.port,
                            tx: tx.clone(),
                            meter: inj.meter.clone(),
                        },
                    );
                }
            }
            let _ = map_tx.send(map);
        }
    });

    let partition = Partition {
        node: Some(me),
        uplinks,
        handoff: Some(handoff),
        failed: shared.failed.clone(),
    };
    let result = run_graph_partition(spec, factories, partition);

    // The engine has returned, so the local run's failure state is final:
    // release the watch channels (turning lingering writers loose) and
    // join every transport thread before reporting.
    drop(watch_txs);
    for h in handles {
        let _ = h.join();
    }
    let mut transport: Vec<ConnectionReport> = conn_stats.iter().map(|s| s.report()).collect();
    transport.sort_by_key(|r| r.peer);

    // Merge the transport view into the engine result. Precedence per
    // node: locally detected loss, then peer-reported failures that did
    // not originate here (echoes of our own failure must not shadow its
    // real local root), then the engine's own kind-selected root cause.
    let mut errors = shared
        .errors
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect::<Vec<_>>();
    let local_at = errors
        .iter()
        .position(|(class, _, _)| *class == ErrClass::Local);
    let remote_at = errors
        .iter()
        .position(|(class, origin, _)| *class == ErrClass::Remote && *origin != me);
    let root_at = local_at.or(remote_at);
    match result {
        Ok(mut report) => match root_at {
            Some(at) => {
                let (_, _, error) = errors.remove(at);
                Err(RunFailure {
                    error,
                    secondary: errors.into_iter().map(|(_, _, e)| e).collect(),
                    per_copy: report.per_copy,
                })
            }
            None => {
                report.transport = (!transport.is_empty()).then_some(transport);
                Ok(report)
            }
        },
        Err(mut failure) => {
            match root_at {
                Some(at) => {
                    let (_, _, error) = errors.remove(at);
                    let engine_root = std::mem::replace(&mut failure.error, error);
                    failure.secondary.insert(0, engine_root);
                    failure
                        .secondary
                        .extend(errors.into_iter().map(|(_, _, e)| e));
                }
                None => {
                    failure
                        .secondary
                        .extend(errors.into_iter().map(|(_, _, e)| e));
                }
            }
            Err(failure)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub_factories(names: &[&str]) -> HashMap<String, FilterFactory> {
        names
            .iter()
            .map(|&n| {
                let f: FilterFactory = Box::new(|_| Err(FilterError::engine("stub factory")));
                (n.to_string(), f)
            })
            .collect()
    }

    #[test]
    fn free_loopback_addrs_are_distinct() {
        let addrs = free_loopback_addrs(4).unwrap();
        assert_eq!(addrs.len(), 4);
        for (i, a) in addrs.iter().enumerate() {
            assert!(a.ip().is_loopback());
            for b in &addrs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn prevalidation_requires_full_placement() {
        // With factories present, an unplaced graph must trip the
        // placement check itself.
        let spec = crate::GraphSpec::new()
            .filter("a", 1)
            .filter("b", 1)
            .stream("s", "a", "b", crate::SchedulePolicy::RoundRobin);
        let factories = stub_factories(&["a", "b"]);
        let cfg = NodeConfig::new(0, free_loopback_addrs(2).unwrap());
        let err = prevalidate(&spec, &factories, &cfg).unwrap_err();
        assert!(err.message().contains("full placement"), "{err}");
    }

    #[test]
    fn prevalidation_reports_missing_factories_first() {
        let spec = crate::GraphSpec::new()
            .filter("a", 1)
            .filter("b", 1)
            .stream("s", "a", "b", crate::SchedulePolicy::RoundRobin);
        let factories = HashMap::new();
        let cfg = NodeConfig::new(0, free_loopback_addrs(2).unwrap());
        let err = prevalidate(&spec, &factories, &cfg).unwrap_err();
        assert!(err.message().contains("no factory"), "{err}");
    }

    #[test]
    fn route_window_tracks_capacity_within_bounds() {
        assert_eq!(route_window(0), 4);
        assert_eq!(route_window(1), 4);
        assert_eq!(route_window(4), 8);
        assert_eq!(route_window(100), 200);
        assert_eq!(route_window(usize::MAX), MAX_CREDIT_GRANT);
        assert_eq!(route_window(1 << 30), MAX_CREDIT_GRANT);
    }

    #[test]
    fn absent_peer_times_out_with_a_typed_error_naming_it() {
        let mut cfg = NodeConfig::new(0, free_loopback_addrs(2).unwrap());
        cfg.connect_timeout = Duration::from_millis(200);
        let started = Instant::now();
        let err = connect_mesh(&cfg, 42).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "accept loop must not hang"
        );
        assert_eq!(err.kind(), FilterErrorKind::Io);
        assert!(err.message().contains("timed out"), "{err}");
        assert!(err.message().contains("node 1"), "{err}");
    }

    #[test]
    fn reserved_listeners_hold_their_ports() {
        let (addrs, listeners) = reserve_loopback_listeners(3).unwrap();
        assert_eq!(addrs.len(), 3);
        assert_eq!(listeners.len(), 3);
        // While the reservation is alive, nobody can steal the port — the
        // exact TOCTOU free_loopback_addrs() leaves open.
        for a in &addrs {
            assert!(
                TcpListener::bind(a).is_err(),
                "port {a} must stay reserved while the listener lives"
            );
        }
        drop(listeners);
    }

    #[test]
    fn prebound_listener_survives_port_contention() {
        // Regression for the launch port race: a thief hammers the
        // reserved address with bind attempts for the whole handshake; a
        // pre-bound listener makes that provably futile, where the old
        // reserve-then-drop dance could lose the port.
        for _ in 0..5 {
            let (addrs, listeners) = reserve_loopback_listeners(2).unwrap();
            let digest = 7u64;
            let stop = Arc::new(AtomicBool::new(false));
            let thief = {
                let addr = addrs[0];
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        assert!(
                            TcpListener::bind(addr).is_err(),
                            "thief stole the reserved port {addr}"
                        );
                    }
                })
            };
            let mut cfg0 = NodeConfig::new(0, addrs.clone());
            cfg0.listener = Some(listeners[0].clone());
            cfg0.connect_timeout = Duration::from_secs(10);
            let mut cfg1 = NodeConfig::new(1, addrs);
            cfg1.connect_timeout = Duration::from_secs(10);
            std::thread::scope(|s| {
                let n0 = s.spawn(|| connect_mesh(&cfg0, digest));
                let n1 = s.spawn(|| connect_mesh(&cfg1, digest));
                let p0 = n0.join().unwrap().expect("node 0 mesh");
                let p1 = n1.join().unwrap().expect("node 1 mesh");
                assert!(p0.contains_key(&1) && p1.contains_key(&0));
            });
            stop.store(true, Ordering::Relaxed);
            thief.join().unwrap();
        }
    }

    #[test]
    fn mixed_wire_versions_are_rejected_loudly() {
        let (addrs, mut listeners) = reserve_loopback_listeners(2).unwrap();
        let digest = 42u64;
        // A fake version-1 node 0: accepts the dial, answers with a v1
        // Hello (no features word on the wire). Reusing the reserved
        // listener keeps this test itself race-free.
        let listener = listeners.remove(0);
        let v1 = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let _ = read_frame(&mut s);
            let _ = write_frame(
                &mut s,
                &Frame::Hello {
                    version: 1,
                    node: 0,
                    digest,
                    features: 0,
                },
            );
            // Hold the socket open until the dialer has read the reply.
            std::thread::sleep(Duration::from_millis(100));
        });
        let mut cfg = NodeConfig::new(1, addrs);
        cfg.connect_timeout = Duration::from_secs(5);
        let err = connect_mesh(&cfg, digest).unwrap_err();
        assert_eq!(err.kind(), FilterErrorKind::Io);
        assert!(err.message().contains("protocol version 1"), "{err}");
        v1.join().unwrap();
    }
}
