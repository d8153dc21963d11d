//! The TCP serving front: the session protocol over real sockets,
//! driven by readiness, not polling.
//!
//! [`NetServer`] wraps a [`MoqoServer`] behind a loopback-or-LAN TCP
//! listener speaking the [`moqo_wire`] format: one framed duplex stream
//! per ticket. A connection's lifecycle is exactly the in-process
//! ticket lifecycle:
//!
//! 1. handshake (`MOQOWIRE` + version, both directions);
//! 2. client sends [`ClientMessage::Submit`] — the same
//!    [`SessionRequest`] type that drives every in-process layer, with
//!    per-session cost models resolved **by identity** against the
//!    server's [`ModelRegistry`];
//! 3. server answers [`ServerMessage::Admission`] (admitted / degraded /
//!    queued / rejected — the protocol's [`AdmissionResponse`], typed,
//!    end to end) and then streams [`ServerMessage::Event`]s;
//! 4. client steers with [`ClientMessage::Command`]s; command faults come
//!    back as typed [`ServerMessage::Error`]s, never a dropped socket;
//! 5. the stream ends with the session's terminal event (selection,
//!    cancellation, or preference auto-select). A client that simply
//!    disconnects retires its session, parking the frontier for future
//!    warm starts — a vanished user never leaks a session slot.
//!
//! # Thread model
//!
//! One **event-loop thread** (`moqo-net-loop`), the front's only
//! thread, owns a [`moqo_poll::Reactor`], the listener, and every
//! connection. It blocks in `poll` until a socket is ready or the wake
//! channel rings — there is no sleep-polling anywhere on this path, so
//! 10k idle sessions cost zero CPU between events. The loop does only
//! cheap work: accepting, nonblocking framed reads into each
//! connection's incremental [`FrameBuffer`], write-readiness-driven
//! flushes of the per-connection outbound [`WriteBuffer`], event
//! forwarding, and inline decode and dispatch of every frame. A submit
//! is an admission decision plus a registration: the session opens —
//! plan build, warm-store take (which may read a snapshot file), seed
//! replay — on a shard worker (see [`MoqoServer::submit`]). A
//! [`SessionCommand`] is a short engine-lock hop. Each forwarding `recv`
//! also pumps the server's admission queue, so a queued submission whose
//! slot freed activates on the loop.
//!
//! The loop never waits on a session. A connection that closes before
//! its terminal event sends its ticket a non-blocking
//! [`SessionCommand::Cancel`] (which withdraws a queued submission), and
//! the loop drains that orphaned stream to its terminal event, counting
//! [`NetStats::disconnect_parked`] once the session parked and left the
//! live count.
//!
//! Session events flow the same way: the server installs a
//! [`crate::api::ServerEventHook`], and every ticket's channel carries
//! its own doorbell that calls it, so each engine-side publish marks its
//! ticket dirty and rings the loop — the push counterpart of the
//! engine's per-session channels, with no thread ever parked on a
//! timeout. The loop forwards a dirty ticket's events one by one with
//! [`MoqoServer::recv`]; the first is the engine's own prime (the
//! full-state event every watch opens with), so the stream a client
//! folds is exactly the one the engine published. A ticket admission
//! control queued rings the hook once as it turns active, and its
//! stream starts then.
//!
//! # Coalescing and backpressure
//!
//! A slow reader's outbound buffer fills. Once more than
//! [`NetConfig::coalesce_after`] bytes are queued, further
//! [`SessionEvent`]s are **coalesced** instead of serialized: N pending
//! events merge into one frame via [`SessionEvent::coalesce`]
//! (deltas compose with [`FrontierDelta::then`], the event declares the
//! epoch range it covers), so folding the merged frame leaves the
//! client's [`SessionView`] bit-identical to folding the originals
//! one-for-one. The outbound queue is bounded (8 MiB per connection); a
//! connection that exceeds it, or that makes no write progress for
//! [`NetConfig::write_timeout`], is counted stalled and retired (parking
//! its session). [`NetStats`] exposes the
//! backpressure picture: `coalesced_events`, `outbound_high_water`,
//! `stalled`.
//!
//! [`NetClient`] is the matching blocking client: it folds the event
//! stream into a [`SessionView`] with the same `fold` the in-process
//! reassemblers use, so the client-side view is **bit-identical** to what
//! `MoqoServer::poll` reports on the server (asserted end to end by
//! `examples/network_serving.rs` and the cross-layer conformance test),
//! coalesced frames included.
//!
//! The server owns its tickets' event channels: polling the same ticket
//! concurrently through the in-process API while a connection is live
//! would steal events from the stream. Diagnostics should use
//! [`NetServer::moqo`] only after the connection finished (the admission
//! frame carries the ticket id for exactly this correlation).
//!
//! [`FrontierDelta::then`]: moqo_core::protocol::FrontierDelta::then

use crate::api::{MoqoServer, Ticket, TicketStatus};
use moqo_core::protocol::{
    AdmissionResponse, ProtocolError, SessionCommand, SessionEvent, SessionRequest, SessionView,
};
use moqo_engine::ModelRegistry;
use moqo_poll::{Events, Interest, Reactor, Token, WakeHandle};
use moqo_wire::{
    check_hello, client_hello, ClientMessage, FrameBuffer, NetError, ServerMessage, WireError,
    WriteBuffer, HELLO_LEN,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Hard bound on one connection's outbound buffer, in bytes. Exceeding
/// it (a slow reader that also triggered large frames) stalls the
/// connection out immediately.
const MAX_OUTBOUND: usize = 8 << 20;

/// Network front configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// How long a connection with queued outbound bytes may go without
    /// any write progress before it is counted stalled and retired. A
    /// client that stops reading while the server streams events never
    /// holds a session slot (or buffer memory) longer than this.
    pub write_timeout: Duration,
    /// Kernel send-buffer size (`SO_SNDBUF`) for accepted sockets;
    /// `None` keeps the OS default. Small values surface backpressure
    /// early — the coalescing tests pin this to the kernel minimum to
    /// force slow-reader behavior deterministically.
    pub send_buffer: Option<usize>,
    /// Outbound bytes beyond which session events coalesce into one
    /// pending frame instead of being serialized individually.
    pub coalesce_after: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            write_timeout: Duration::from_secs(5),
            send_buffer: None,
            coalesce_after: 64 << 10,
        }
    }
}

/// Aggregate network-front counters. Engine-side figures — live
/// sessions, warm opens, sub-frontier hits, rebalancing — are the
/// server's: read them from [`MoqoServer::stats`] through
/// [`NetServer::moqo`].
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Frames received from clients.
    pub frames_in: u64,
    /// Frames sent to clients.
    pub frames_out: u64,
    /// Connections dropped on a wire/socket fault (malformed frames,
    /// version skew, mid-stream disconnects, stalled writers).
    pub faulted: u64,
    /// Session events merged into a coalesced frame instead of shipped
    /// individually — the volume of backpressure absorbed for slow
    /// readers.
    pub coalesced_events: u64,
    /// High-water mark of any single connection's outbound buffer, in
    /// bytes (how close the worst reader came to the 8 MiB bound).
    pub outbound_high_water: u64,
    /// Connections retired for making no write progress within
    /// [`NetConfig::write_timeout`] or overflowing the 8 MiB outbound
    /// bound (also counted in `faulted`).
    pub stalled: u64,
    /// Sessions parked because their connection disconnected or faulted
    /// before the terminal event — warm state captured off vanished
    /// clients.
    pub disconnect_parked: u64,
}

#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    faulted: AtomicU64,
    coalesced_events: AtomicU64,
    outbound_high_water: AtomicU64,
    stalled: AtomicU64,
    disconnect_parked: AtomicU64,
}

const LISTENER_TOKEN: Token = Token(0);
const FIRST_CONN_TOKEN: usize = 1;
/// One socket drain reads at most this much before yielding to the
/// next ready connection (level-triggered polling re-reports the rest).
const MAX_READ_PER_VISIT: usize = 1 << 20;

/// One client connection, owned by the event loop.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    out: WriteBuffer,
    hello_done: bool,
    ticket: Option<Ticket>,
    /// The coalesced not-yet-serialized event for a congested outbound
    /// buffer; newer events merge into it via [`SessionEvent::coalesce`].
    pending_event: Option<SessionEvent>,
    /// True once the terminal event was captured for delivery (the
    /// session needs no clean-up on disconnect).
    finished: bool,
    /// Close as soon as the outbound buffer drains.
    closing: bool,
    /// Last instant the outbound buffer made progress toward the socket
    /// (or became non-empty); drives the stall deadline.
    last_drain: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            frames: FrameBuffer::new(),
            out: WriteBuffer::new(),
            hello_done: false,
            ticket: None,
            pending_event: None,
            finished: false,
            closing: false,
            last_drain: Instant::now(),
        }
    }

    /// Serializes a message into the outbound buffer (actual socket
    /// writes happen on write readiness).
    fn enqueue(&mut self, counters: &NetCounters, msg: &ServerMessage) {
        if self.out.is_empty() {
            // The stall clock measures drain progress; restart it when
            // the buffer transitions from idle to loaded.
            self.last_drain = Instant::now();
        }
        self.out.push_frame(&msg.encode());
        counters.frames_out.fetch_add(1, Ordering::Relaxed);
        counters
            .outbound_high_water
            .fetch_max(self.out.pending() as u64, Ordering::Relaxed);
    }
}

/// Why a connection is being closed (decides the counters).
enum Close {
    /// Stream complete (terminal event delivered, or typed rejection).
    Done,
    /// Orderly client close before the terminal event.
    Orderly,
    /// Wire/socket fault.
    Fault,
    /// No write progress within the deadline, or outbound overflow.
    Stalled,
}

/// The single-threaded reactor loop owning every connection.
struct EventLoop {
    server: Arc<MoqoServer>,
    registry: Arc<ModelRegistry>,
    counters: Arc<NetCounters>,
    config: NetConfig,
    reactor: Reactor,
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    /// Ticket id → conn token, for routing dirty-ticket wakes.
    tickets: HashMap<u64, usize>,
    /// Tickets whose connection closed before their terminal event: each
    /// was sent a `Cancel`, and the loop drains its stream until the
    /// session ended.
    orphans: HashSet<u64>,
    /// Tokens with a non-empty outbound buffer (stall bookkeeping):
    /// exactly the connections registered for write readiness.
    loaded: HashSet<usize>,
    /// Ticket ids marked dirty by the server event hook.
    dirty: Arc<Mutex<VecDeque<u64>>>,
    stop: Arc<AtomicBool>,
    next_token: usize,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::new();
        while !self.stop.load(Ordering::Relaxed) {
            let timeout = self.next_wakeup();
            if self.reactor.poll(&mut events, timeout).is_err() {
                break; // reactor gone: nothing left to drive
            }
            let mut accept = false;
            let mut ready: Vec<(usize, bool, bool)> = Vec::with_capacity(events.len());
            for ev in events.iter() {
                let token = ev.token();
                if token == LISTENER_TOKEN {
                    accept = true;
                    continue;
                }
                ready.push((token.0, ev.is_readable(), ev.is_writable()));
            }
            if accept {
                self.accept_ready();
            }
            for (token, readable, writable) in ready {
                if writable {
                    self.pump_out(token);
                }
                if readable {
                    self.read_conn(token);
                }
            }
            self.drain_dirty();
            self.expire_stalled();
        }
        // Graceful drain: close the sockets, then park every unfinished
        // session before the loop returns.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, Close::Done);
        }
        for id in std::mem::take(&mut self.orphans) {
            if self.server.finish(Ticket::from_u64(id)).is_some() {
                self.counters
                    .disconnect_parked
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// How long `poll` may block: forever when nothing is buffered
    /// outbound, else until the earliest stall deadline.
    fn next_wakeup(&self) -> Option<Duration> {
        let now = Instant::now();
        self.loaded
            .iter()
            .filter_map(|t| self.conns.get(t))
            .map(|c| {
                (c.last_drain + self.config.write_timeout)
                    .checked_duration_since(now)
                    .unwrap_or(Duration::from_millis(1))
            })
            .min()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.config.send_buffer {
                        let _ = moqo_poll::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .reactor
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drains the socket into the frame buffer and processes what
    /// arrived. Level-triggered polling re-reports anything left after
    /// the per-visit read cap.
    fn read_conn(&mut self, token: usize) {
        let mut scratch = [0u8; 64 << 10];
        let fate = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut fate = None;
            let mut taken = 0usize;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        fate = Some(Close::Orderly);
                        break;
                    }
                    Ok(n) => {
                        conn.frames.extend(&scratch[..n]);
                        taken += n;
                        if taken > MAX_READ_PER_VISIT {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fate = Some(Close::Fault);
                        break;
                    }
                }
            }
            fate
        };
        // Frames that arrived before the close still count; a stream
        // whose processing faults overrides an orderly close.
        match self.process_inbound(token) {
            Ok(()) => {
                if let Some(reason) = fate {
                    self.close_conn(token, reason);
                } else {
                    self.pump_out(token);
                }
            }
            Err(e) => {
                if let NetError::Protocol(error) = e {
                    // Typed faults answer before closing (best effort).
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.enqueue(&self.counters, &ServerMessage::Error(error));
                    }
                }
                self.close_conn(token, Close::Fault);
            }
        }
    }

    /// Handshake + frame dispatch for everything buffered on `token`.
    fn process_inbound(&mut self, token: usize) -> Result<(), NetError> {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return Ok(());
            };
            if !conn.hello_done {
                let Some(hello) = conn.frames.take_raw(HELLO_LEN) else {
                    return Ok(());
                };
                let hello: [u8; HELLO_LEN] =
                    hello.try_into().expect("take_raw returned HELLO_LEN bytes");
                check_hello(&hello)?;
                conn.out.push_raw(&client_hello());
                conn.hello_done = true;
            }
        }
        loop {
            let payload = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Ok(());
                };
                if conn.closing {
                    // The stream is logically over; ignore the rest.
                    return Ok(());
                }
                match conn.frames.next_frame()? {
                    Some(payload) => payload,
                    None => return Ok(()),
                }
            };
            self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
            let message = match ClientMessage::decode(&payload, self.registry.as_ref()) {
                Ok(message) => message,
                // The one wire fault with a protocol-level answer: tell
                // the client which identity was unknown.
                Err(WireError::UnknownModel { identity }) => {
                    return Err(ProtocolError::UnknownCostModel { identity }.into())
                }
                Err(e) => return Err(e.into()),
            };
            let conn = self.conns.get_mut(&token).expect("conn vanished mid-frame");
            match (message, conn.ticket) {
                (ClientMessage::Submit(_), Some(_)) => {
                    return Err(NetError::UnexpectedFrame("second submit on one stream"))
                }
                (ClientMessage::Submit(request), None) => {
                    // A malformed request is a typed answer, then close:
                    // exactly what the in-process submit returns.
                    let (ticket, response) = self.server.submit(request)?;
                    self.admitted(token, ticket, response);
                }
                (ClientMessage::Command(command), Some(ticket)) => {
                    if let Err(error) = self.server.command(ticket, command) {
                        conn.enqueue(&self.counters, &ServerMessage::Error(error));
                    }
                }
                (ClientMessage::Command(_), None) => {
                    return Err(NetError::UnexpectedFrame("command before submit"))
                }
            }
        }
    }

    /// Answers a submit with its admission frame and starts forwarding
    /// the ticket's stream from the engine's prime; a queued ticket
    /// forwards nothing yet and rings the hook when it activates.
    fn admitted(&mut self, token: usize, ticket: Ticket, response: AdmissionResponse) {
        let rejected = matches!(response, AdmissionResponse::Rejected(_));
        let conn = self.conns.get_mut(&token).expect("conn vanished mid-frame");
        conn.ticket = Some(ticket);
        conn.enqueue(
            &self.counters,
            &ServerMessage::Admission {
                ticket: ticket.as_u64(),
                response,
            },
        );
        if rejected {
            conn.finished = true;
            conn.closing = true;
            return;
        }
        self.tickets.insert(ticket.as_u64(), token);
        self.forward_events(token);
    }

    fn drain_dirty(&mut self) {
        loop {
            let id = self
                .dirty
                .lock()
                .expect("net dirty queue poisoned")
                .pop_front();
            let Some(id) = id else { return };
            if let Some(&token) = self.tickets.get(&id) {
                self.forward_events(token);
                self.pump_out(token);
            } else if self.orphans.contains(&id) {
                self.reap(id);
            }
        }
    }

    /// Drains an orphaned ticket's stream. Once its session ended (it
    /// parked and left the live count before its terminal event was
    /// sent) or its queued submission was withdrawn by the `Cancel`, the
    /// ticket is forgotten, and a session that ran is counted parked.
    fn reap(&mut self, id: u64) {
        match self.server.poll(Ticket::from_u64(id)) {
            Some(TicketStatus::Active { view, .. }) if !view.is_finished() => return,
            Some(TicketStatus::Active { .. }) => {
                self.counters
                    .disconnect_parked
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.orphans.remove(&id);
    }

    /// Forwards every buffered session event for `token`'s ticket,
    /// coalescing under backpressure.
    fn forward_events(&mut self, token: usize) {
        loop {
            let ticket = match self.conns.get(&token) {
                Some(Conn {
                    ticket: Some(ticket),
                    finished: false,
                    ..
                }) => *ticket,
                _ => return,
            };
            let Some(event) = self.server.recv(ticket, Duration::ZERO) else {
                return;
            };
            self.queue_event(token, event);
        }
    }

    fn queue_event(&mut self, token: usize, event: SessionEvent) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if event.is_final() {
            // The terminal event is captured for delivery (possibly
            // inside a coalesced frame): no clean-up owed on disconnect.
            conn.finished = true;
        }
        if conn.pending_event.is_some() || conn.out.pending() > self.config.coalesce_after {
            let merged = match conn.pending_event.take() {
                Some(prev) => {
                    self.counters
                        .coalesced_events
                        .fetch_add(1, Ordering::Relaxed);
                    prev.coalesce(&event)
                }
                None => event,
            };
            conn.pending_event = Some(merged);
        } else {
            let close = conn.finished;
            conn.enqueue(&self.counters, &ServerMessage::Event(Box::new(event)));
            if close {
                conn.closing = true;
            }
        }
    }

    /// Flushes the outbound buffer as far as the socket accepts,
    /// promoting the coalesced pending frame when room frees up, and
    /// closing/faulting the connection as its state dictates.
    fn pump_out(&mut self, token: usize) {
        let coalesce_after = self.config.coalesce_after;
        let mut fate: Option<Close> = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                let before = conn.out.pending();
                if conn.out.flush_to(&mut conn.stream).is_err() {
                    fate = Some(Close::Fault);
                    break;
                }
                if conn.out.pending() < before {
                    conn.last_drain = Instant::now();
                }
                // Room freed for the coalesced frame? Serialize it and
                // retry so a fast drain ships it in the same visit.
                if conn.pending_event.is_some() && conn.out.pending() <= coalesce_after {
                    let event = conn.pending_event.take().expect("checked above");
                    let close = conn.finished;
                    conn.enqueue(&self.counters, &ServerMessage::Event(Box::new(event)));
                    if close {
                        conn.closing = true;
                    }
                    continue;
                }
                break;
            }
            if fate.is_none() {
                if conn.out.pending() > MAX_OUTBOUND {
                    fate = Some(Close::Stalled);
                } else if conn.closing && conn.out.is_empty() && conn.pending_event.is_none() {
                    fate = Some(Close::Done);
                }
            }
            // Write interest follows `loaded`, so only a change to the
            // set costs a syscall.
            if fate.is_none() {
                let (changed, interest) = if conn.out.is_empty() {
                    (self.loaded.remove(&token), Interest::READABLE)
                } else {
                    let both = Interest::READABLE.add(Interest::WRITABLE);
                    (self.loaded.insert(token), both)
                };
                if changed {
                    let _ = self
                        .reactor
                        .reregister(&conn.stream, Token(token), interest);
                }
            }
        }
        if let Some(reason) = fate {
            self.close_conn(token, reason);
        }
    }

    /// Retires conns whose outbound buffer made no progress within the
    /// write deadline — slow readers must not hold memory forever.
    fn expire_stalled(&mut self) {
        if self.loaded.is_empty() {
            return;
        }
        let timeout = self.config.write_timeout;
        let now = Instant::now();
        let expired: Vec<usize> = self
            .loaded
            .iter()
            .filter(|t| {
                self.conns
                    .get(t)
                    .is_some_and(|c| now.duration_since(c.last_drain) > timeout)
            })
            .copied()
            .collect();
        for token in expired {
            self.close_conn(token, Close::Stalled);
        }
    }

    fn close_conn(&mut self, token: usize, reason: Close) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        match reason {
            Close::Done | Close::Orderly => {}
            Close::Fault => {
                self.counters.faulted.fetch_add(1, Ordering::Relaxed);
            }
            Close::Stalled => {
                self.counters.stalled.fetch_add(1, Ordering::Relaxed);
                self.counters.faulted.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Hand the kernel whatever still fits (typed errors, terminal
        // frames); anything beyond that is the slow reader's loss.
        let _ = conn.out.flush_to(&mut conn.stream);
        let _ = self.reactor.deregister(&conn.stream);
        self.loaded.remove(&token);
        if let Some(ticket) = conn.ticket.take() {
            self.tickets.remove(&ticket.as_u64());
            if !conn.finished {
                // Disconnects and faults must not leak admission slots:
                // cancel the session (or withdraw the queued submission)
                // without waiting for it, and drain its stream until the
                // session parked.
                let _ = self.server.command(ticket, SessionCommand::Cancel);
                self.orphans.insert(ticket.as_u64());
                self.reap(ticket.as_u64());
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// The TCP front; see the module docs for the thread model and the
/// connection lifecycle.
pub struct NetServer {
    server: Arc<MoqoServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    wake: WakeHandle,
    /// The event loop, until shutdown joins it.
    event_loop: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the listener and starts the event-loop thread.
    ///
    /// `registry` must contain every cost model remote requests may
    /// reference (the deployment default is a sensible seed:
    /// [`ModelRegistry::with_default`]).
    pub fn bind(
        server: Arc<MoqoServer>,
        registry: Arc<ModelRegistry>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let reactor = Reactor::new()?;
        reactor.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let wake = reactor.wake_handle();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());

        // Every event a ticket's channel receives marks the ticket dirty
        // and rings the loop: the push path that replaces sleep-polling.
        // The hook runs under the engine state lock, so it touches only
        // leaf state (the queue mutex and the wake latch).
        let dirty: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(VecDeque::new()));
        {
            let dirty = dirty.clone();
            let wake = wake.clone();
            server.set_event_hook(Arc::new(move |ticket| {
                if let Some(t) = ticket {
                    dirty
                        .lock()
                        .expect("net dirty queue poisoned")
                        .push_back(t.as_u64());
                    wake.wake();
                }
            }));
        }

        let event_loop = EventLoop {
            server: server.clone(),
            registry,
            counters: counters.clone(),
            config,
            reactor,
            listener,
            conns: HashMap::new(),
            tickets: HashMap::new(),
            orphans: HashSet::new(),
            loaded: HashSet::new(),
            dirty,
            stop: stop.clone(),
            next_token: FIRST_CONN_TOKEN,
        };
        let event_loop = thread::Builder::new()
            .name("moqo-net-loop".into())
            .spawn(move || event_loop.run())?;

        Ok(NetServer {
            server,
            addr,
            stop,
            counters,
            wake,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process server behind the front — for diagnostics and
    /// persistence. While a connection is live its ticket's events belong
    /// to the network stream; correlate via the admission frame's ticket
    /// id and poll only after the stream finished.
    pub fn moqo(&self) -> &Arc<MoqoServer> {
        &self.server
    }

    /// Network-front counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            faulted: self.counters.faulted.load(Ordering::Relaxed),
            coalesced_events: self.counters.coalesced_events.load(Ordering::Relaxed),
            outbound_high_water: self.counters.outbound_high_water.load(Ordering::Relaxed),
            stalled: self.counters.stalled.load(Ordering::Relaxed),
            disconnect_parked: self.counters.disconnect_parked.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, closes all connections, parks every unfinished
    /// session, and joins the loop thread. Event-driven: the stop flag
    /// plus one wake unblocks the loop immediately, so shutdown takes
    /// milliseconds even under 10k idle connections.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(event_loop) = self.event_loop.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        self.wake.wake();
        let _ = event_loop.join();
        // Detach the event hook: the reactor it rang is gone.
        self.server.set_event_hook(Arc::new(|_| {}));
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// Blocking client for one session over one connection.
///
/// Events fold into the same [`SessionView`] the in-process reassemblers
/// use, so [`NetClient::view`] is bit-identical to the server-side view
/// (`FrontierSnapshot::bits_eq`) at every point of the stream — including
/// across coalesced frames from a backpressured server.
pub struct NetClient {
    stream: TcpStream,
    frames: FrameBuffer,
    view: SessionView,
    ticket: Option<u64>,
    admission: Option<AdmissionResponse>,
    errors: Vec<ProtocolError>,
    eof: bool,
}

impl NetClient {
    /// Connects and completes the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&client_hello())?;
        let mut hello = [0u8; HELLO_LEN];
        stream.read_exact(&mut hello)?;
        check_hello(&hello)?;
        Ok(NetClient {
            stream,
            frames: FrameBuffer::new(),
            view: SessionView::default(),
            ticket: None,
            admission: None,
            errors: Vec::new(),
            eof: false,
        })
    }

    /// Submits the connection's one [`SessionRequest`] and blocks for the
    /// admission decision (at most `timeout`). Typed request faults
    /// ([`ProtocolError`], including
    /// [`ProtocolError::UnknownCostModel`]) come back as
    /// [`NetError::Protocol`].
    pub fn submit(
        &mut self,
        request: SessionRequest,
        timeout: Duration,
    ) -> Result<AdmissionResponse, NetError> {
        if self.ticket.is_some() {
            return Err(NetError::UnexpectedFrame("second submit on one stream"));
        }
        moqo_wire::write_frame(&mut self.stream, &ClientMessage::Submit(request).encode())?;
        let deadline = Instant::now() + timeout;
        match self.read_message(deadline)? {
            Some(ServerMessage::Admission { ticket, response }) => {
                self.ticket = Some(ticket);
                self.admission = Some(response.clone());
                Ok(response)
            }
            Some(ServerMessage::Error(e)) => Err(e.into()),
            Some(ServerMessage::Event(_)) => {
                Err(NetError::UnexpectedFrame("event before admission"))
            }
            // Distinguish a genuinely closed socket from a server that is
            // merely slow to decide admission within `timeout`.
            None if self.eof => Err(NetError::Disconnected),
            None => Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "no admission response within the submit timeout",
            ))),
        }
    }

    /// Sends a [`SessionCommand`]. Commands are pipelined; a command the
    /// server cannot honor surfaces as a typed error on the event stream
    /// (see [`NetClient::take_errors`]).
    pub fn command(&mut self, command: SessionCommand) -> Result<(), NetError> {
        moqo_wire::write_frame(&mut self.stream, &ClientMessage::Command(command).encode())?;
        Ok(())
    }

    /// Blocks for the next [`SessionEvent`] (at most `timeout`), folding
    /// it into the view. `Ok(None)` on timeout, and once the stream ended
    /// after the terminal event. A coalesced frame arrives (and folds) as
    /// one event covering its declared epoch range.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<SessionEvent>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.eof {
                return if self.view.is_finished() {
                    Ok(None)
                } else {
                    Err(NetError::Disconnected)
                };
            }
            match self.read_message(deadline)? {
                Some(ServerMessage::Event(event)) => {
                    self.view.fold(&event)?;
                    return Ok(Some(*event));
                }
                Some(ServerMessage::Error(e)) => {
                    // Command faults interleave with events; they are
                    // collected, not stream-fatal.
                    self.errors.push(e);
                }
                Some(ServerMessage::Admission { .. }) => {
                    return Err(NetError::UnexpectedFrame("second admission"));
                }
                None => return Ok(None),
            }
        }
    }

    /// Drains the stream until the session's terminal event (at most
    /// `timeout`), returning the final view.
    pub fn wait_finished(&mut self, timeout: Duration) -> Result<&SessionView, NetError> {
        let deadline = Instant::now() + timeout;
        while !self.view.is_finished() {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "session did not finish in time",
                )));
            }
            self.recv(deadline - now)?;
        }
        Ok(&self.view)
    }

    /// The client-side reassembled session state.
    pub fn view(&self) -> &SessionView {
        &self.view
    }

    /// The admission decision, once [`NetClient::submit`] returned.
    pub fn admission(&self) -> Option<&AdmissionResponse> {
        self.admission.as_ref()
    }

    /// The server-side ticket id from the admission frame (correlate with
    /// [`Ticket::from_u64`] for post-session diagnostics).
    pub fn server_ticket(&self) -> Option<u64> {
        self.ticket
    }

    /// Typed command faults received so far (cleared on return).
    pub fn take_errors(&mut self) -> Vec<ProtocolError> {
        std::mem::take(&mut self.errors)
    }

    /// One complete server message, or `None` on deadline/EOF.
    fn read_message(&mut self, deadline: Instant) -> Result<Option<ServerMessage>, NetError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return Ok(Some(ServerMessage::decode(&payload)?));
            }
            if self.eof {
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            let mut scratch = [0u8; 8192];
            match self.stream.read(&mut scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => self.frames.extend(&scratch[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionPolicy};
    use crate::api::TicketStatus;
    use crate::shard::tests::{Gate, GatedModel, Release};
    use crate::shard::ShardConfig;
    use crate::ServeConfig;
    use moqo_cost::ResolutionSchedule;
    use moqo_costmodel::{SharedCostModel, StandardCostModel};
    use moqo_engine::EngineConfig;
    use moqo_query::testkit;

    const IDLE: Duration = Duration::from_secs(60);

    fn start_with(
        admission: AdmissionConfig,
        net: NetConfig,
    ) -> (NetServer, SocketAddr, SharedCostModel) {
        start_on(Arc::new(StandardCostModel::paper_metrics()), admission, net)
    }

    fn start_on(
        model: SharedCostModel,
        admission: AdmissionConfig,
        net: NetConfig,
    ) -> (NetServer, SocketAddr, SharedCostModel) {
        let server = Arc::new(MoqoServer::new(
            model.clone(),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ServeConfig {
                shard: ShardConfig {
                    shards: 2,
                    engine: EngineConfig {
                        workers: 2,
                        ..EngineConfig::default()
                    },
                    rebalance_headroom: 8,
                },
                admission,
                retired_tickets: 1024,
            },
        ));
        let registry = Arc::new(ModelRegistry::with_default(model.clone()));
        let net = NetServer::bind(server, registry, net).expect("bind loopback");
        let addr = net.local_addr();
        (net, addr, model)
    }

    fn start(admission: AdmissionConfig) -> (NetServer, SocketAddr, SharedCostModel) {
        start_with(admission, NetConfig::default())
    }

    #[test]
    fn tcp_session_reassembles_bit_exactly_and_parks_on_cancel() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let mut client = NetClient::connect(addr).expect("connect");
        let response = client
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(3, 40_000))),
                IDLE,
            )
            .expect("admitted");
        assert_eq!(response, AdmissionResponse::Admitted);
        // Drain the auto-refined ladder (3 levels).
        while client.view().invocations < 3 {
            client.recv(IDLE).expect("stream healthy");
        }
        assert!(!client.view().frontier.is_empty());
        client.command(SessionCommand::Cancel).expect("send");
        let view = client.wait_finished(IDLE).expect("terminal event");
        assert!(view.selected().is_none());
        // The client view is bit-identical to the server-side one.
        let ticket = Ticket::from_u64(client.server_ticket().unwrap());
        match net.moqo().poll(ticket).expect("closed but queryable") {
            TicketStatus::Active {
                view: server_view, ..
            } => {
                assert!(client.view().frontier.bits_eq(&server_view.frontier));
                assert_eq!(client.view().epoch, server_view.epoch);
                assert_eq!(client.view().invocations, server_view.invocations);
            }
            other => panic!("expected active ticket, got {other:?}"),
        }
        // The cancelled session parked its frontier for warm repeats.
        let fp = net
            .moqo()
            .engine()
            .fingerprint(&testkit::chain_query(3, 40_000));
        assert!(net.moqo().engine().has_parked(fp));
        net.shutdown();
    }

    #[test]
    fn unknown_model_identity_answers_typed_error() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let foreign: SharedCostModel = Arc::new(StandardCostModel::new(
            moqo_costmodel::MetricSet::paper(),
            moqo_costmodel::StandardCostModelConfig {
                dops: vec![1, 2],
                ..moqo_costmodel::StandardCostModelConfig::default()
            },
        ));
        let mut client = NetClient::connect(addr).expect("connect");
        let err = client
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000)))
                    .with_cost_model(foreign.clone()),
                IDLE,
            )
            .expect_err("unregistered model must be refused");
        match err {
            NetError::Protocol(ProtocolError::UnknownCostModel { identity }) => {
                assert_eq!(identity, moqo_costmodel::CostModel::identity(&foreign));
            }
            other => panic!("expected UnknownCostModel, got {other:?}"),
        }
        assert_eq!(net.moqo().stats().live, 0);
        net.shutdown();
    }

    #[test]
    fn disconnected_join_graph_answers_typed_error() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let mut spec = testkit::chain_query(3, 10_000);
        spec.graph.edges.retain(|e| (e.left, e.right) != (1, 2));
        let mut client = NetClient::connect(addr).expect("connect");
        let err = client
            .submit(SessionRequest::new(Arc::new(spec)), IDLE)
            .expect_err("a disconnected join graph must be refused");
        match err {
            NetError::Protocol(ProtocolError::DisconnectedJoinGraph) => {}
            other => panic!("expected DisconnectedJoinGraph, got {other:?}"),
        }
        assert_eq!(net.moqo().stats().live, 0);
        net.shutdown();
    }

    #[test]
    fn command_faults_come_back_typed_without_killing_the_stream() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000))),
                IDLE,
            )
            .expect("admitted");
        while client.view().invocations < 3 {
            client.recv(IDLE).expect("stream healthy");
        }
        // A select for a plan the session never generated: typed error,
        // live stream.
        client
            .command(SessionCommand::SelectPlan(moqo_plan::PlanId(u32::MAX)))
            .expect("send");
        let deadline = Instant::now() + IDLE;
        while client.take_errors().is_empty() {
            assert!(Instant::now() < deadline, "no typed error arrived");
            let _ = client.recv(Duration::from_millis(20)).expect("healthy");
        }
        // The session is still commandable: select a real plan.
        let plan = client.view().frontier.min_by_metric(0).unwrap().plan;
        client
            .command(SessionCommand::SelectPlan(plan))
            .expect("send");
        let view = client.wait_finished(IDLE).expect("terminal event");
        assert_eq!(view.selected(), Some(plan));
        net.shutdown();
    }

    #[test]
    fn rejection_round_trips_and_closes_the_stream() {
        let (net, addr, _model) = start(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Reject,
        });
        let mut first = NetClient::connect(addr).expect("connect");
        first
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000))),
                IDLE,
            )
            .expect("admitted");
        let mut second = NetClient::connect(addr).expect("connect");
        let response = second
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(3, 10_000))),
                IDLE,
            )
            .expect("typed rejection, not an error");
        assert!(matches!(
            response,
            AdmissionResponse::Rejected(moqo_core::RejectReason::Overloaded { .. })
        ));
        net.shutdown();
    }

    #[test]
    fn a_queued_tcp_submission_streams_once_a_slot_frees() {
        let (net, addr, _model) = start(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Queue { depth: 4 },
        });
        let mut a = NetClient::connect(addr).expect("connect");
        a.submit(
            SessionRequest::new(Arc::new(testkit::chain_query(2, 20_000))),
            IDLE,
        )
        .expect("admitted");
        let mut b = NetClient::connect(addr).expect("connect");
        let response = b
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(3, 20_000))),
                IDLE,
            )
            .expect("queued");
        assert_eq!(response, AdmissionResponse::Queued { position: 0 });
        a.command(SessionCommand::Cancel).expect("send");
        a.wait_finished(IDLE).expect("terminal event");
        // b activates on the freed slot and streams from its prime on.
        let prime = b.recv(IDLE).expect("stream healthy").expect("the prime");
        assert!(prime.delta.reset, "the stream opens with the prime");
        while b.view().invocations < 3 {
            b.recv(IDLE).expect("stream healthy");
        }
        // The ladder is done, so no event is in flight: the server-side
        // view is the one the client folded.
        let ticket = Ticket::from_u64(b.server_ticket().unwrap());
        match net.moqo().poll(ticket).expect("active ticket") {
            TicketStatus::Active { view, .. } => {
                assert!(b.view().frontier.bits_eq(&view.frontier));
                assert_eq!(b.view().epoch, view.epoch);
            }
            other => panic!("expected active ticket, got {other:?}"),
        }
        b.command(SessionCommand::Cancel).expect("send");
        b.wait_finished(IDLE).expect("terminal event");
        net.shutdown();
    }

    #[test]
    fn a_client_that_leaves_while_queued_never_gets_a_session() {
        let (net, addr, _model) = start(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Queue { depth: 4 },
        });
        let mut a = NetClient::connect(addr).expect("connect");
        a.submit(
            SessionRequest::new(Arc::new(testkit::chain_query(2, 20_000))),
            IDLE,
        )
        .expect("admitted");
        let b_ticket = {
            let mut b = NetClient::connect(addr).expect("connect");
            let response = b
                .submit(
                    SessionRequest::new(Arc::new(testkit::chain_query(3, 20_000))),
                    IDLE,
                )
                .expect("queued");
            assert_eq!(response, AdmissionResponse::Queued { position: 0 });
            Ticket::from_u64(b.server_ticket().unwrap())
        }; // b disconnects while queued
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.moqo().stats().pending != 0 {
            assert!(Instant::now() < deadline, "b's submission never left");
            thread::sleep(Duration::from_millis(5));
        }
        a.command(SessionCommand::Cancel).expect("send");
        a.wait_finished(IDLE).expect("terminal event");
        assert!(net.moqo().wait_idle(IDLE));
        assert!(net.moqo().poll(b_ticket).is_none(), "b was dropped");
        let stats = net.moqo().stats();
        assert_eq!((stats.live, stats.pending), (0, 0));
        assert_eq!(stats.admission.admitted, 1);
        assert_eq!(net.stats().disconnect_parked, 0, "nothing ran for b");
        net.shutdown();
    }

    #[test]
    fn disconnects_park_and_are_counted() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let spec = Arc::new(testkit::chain_query(3, 30_000));
        {
            let mut client = NetClient::connect(addr).expect("connect");
            client
                .submit(SessionRequest::new(spec.clone()), IDLE)
                .expect("admitted");
            while client.view().invocations < 3 {
                client.recv(IDLE).expect("stream healthy");
            }
        } // drop without cancel: the vanished-user path
        let deadline = Instant::now() + IDLE;
        while net.stats().disconnect_parked == 0 {
            assert!(Instant::now() < deadline, "disconnect never counted");
            thread::sleep(Duration::from_millis(5));
        }
        let stats = net.stats();
        assert_eq!(stats.disconnect_parked, 1);
        assert_eq!(
            net.moqo().stats().live,
            0,
            "disconnect must not leak a session slot"
        );
        let fp = net.moqo().engine().fingerprint(&spec);
        assert!(net.moqo().engine().has_parked(fp));
        net.shutdown();
    }

    #[test]
    fn the_loop_never_waits_on_a_slice() {
        let gate = Arc::new(Gate::default());
        let model = GatedModel {
            inner: StandardCostModel::paper_metrics(),
            gate: Arc::clone(&gate),
        };
        let (net, addr, _model) = start_on(
            Arc::new(model),
            AdmissionConfig::default(),
            NetConfig::default(),
        );
        // Dropped before `net`, so a failing assert releases the held
        // worker before the shutdown parks its session.
        let _release = Release(Arc::clone(&gate));
        gate.armed.store(true, Ordering::SeqCst);
        let spec = Arc::new(testkit::chain_query(3, 40_000));
        // a disconnects while a worker holds its session mid-slice.
        let a_ticket = {
            let mut a = NetClient::connect(addr).expect("connect");
            a.submit(SessionRequest::new(spec.clone()), IDLE)
                .expect("admitted");
            assert!(gate.wait_blocked(), "a's first slice never costed a join");
            Ticket::from_u64(a.server_ticket().unwrap())
        };
        // While a's slice is held, c connects, submits and gets its
        // admission and prime: the loop waits on no session. The
        // handshake has no timeout, so c runs on its own thread.
        let (tx, rx) = std::sync::mpsc::channel();
        let client = thread::spawn(move || {
            let mut c = NetClient::connect(addr).expect("connect");
            let request = SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000)));
            let response = c.submit(request, IDLE).expect("admission");
            let prime = c.recv(IDLE).expect("stream healthy");
            let _ = tx.send(());
            (c, response, prime)
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("c is answered while a's slice is held");
        let (mut c, response, prime) = client.join().expect("client c");
        assert_eq!(response, AdmissionResponse::Admitted);
        assert!(
            prime.expect("the prime").delta.reset,
            "c's stream opens with the prime"
        );

        gate.release();
        let deadline = Instant::now() + IDLE;
        while net.stats().disconnect_parked == 0 {
            assert!(Instant::now() < deadline, "a's session never parked");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(net.stats().disconnect_parked, 1);
        let engine = net.moqo().engine();
        assert!(engine.has_parked(engine.fingerprint(&spec)), "a parked");
        match net.moqo().poll(a_ticket) {
            None => {}
            Some(TicketStatus::Active { view, .. }) => assert!(view.is_finished()),
            Some(other) => panic!("a's ticket is still open: {other:?}"),
        }
        c.command(SessionCommand::Cancel).expect("send");
        c.wait_finished(IDLE).expect("terminal event");
        net.shutdown();
    }

    #[test]
    fn garbage_bytes_fault_the_connection_not_the_server() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        // Raw socket, no handshake: shove noise at the server.
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&[0xa5; 256]).expect("write");
        // The server drops the connection; a well-behaved client still
        // gets service.
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000))),
                IDLE,
            )
            .expect("admitted");
        client.command(SessionCommand::Cancel).expect("send");
        client.wait_finished(IDLE).expect("terminal event");
        let deadline = Instant::now() + IDLE;
        while net.stats().faulted == 0 {
            assert!(Instant::now() < deadline, "fault never counted");
            thread::sleep(Duration::from_millis(5));
        }
        net.shutdown();
    }

    #[test]
    fn slow_readers_coalesce_without_tearing_the_view() {
        // A tiny kernel send buffer plus a client that stops reading
        // forces outbound congestion; pending events must merge into
        // coalesced frames, and the client view must still reassemble
        // bit-identical to the server's once it finally drains.
        let (net, addr, _model) = start_with(
            AdmissionConfig::default(),
            NetConfig {
                send_buffer: Some(1), // kernel clamps to its minimum
                coalesce_after: 0,    // any backlog coalesces
                ..NetConfig::default()
            },
        );
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(4, 50_000))),
                IDLE,
            )
            .expect("admitted");
        // Wait server-side until the ladder refined — the client is NOT
        // reading, so events pile into the connection's outbound path.
        assert!(net.moqo().wait_idle(IDLE));
        // Bounds drags publish further events (each refocuses the
        // frontier), still unread by the client.
        let unbounded = net.moqo().engine().unbounded();
        for i in 0..60u32 {
            let bounds = unbounded.with_limit(0, (i as f64 + 2.0) * 1e7);
            client
                .command(SessionCommand::SetBounds(bounds))
                .expect("send");
        }
        client
            .command(SessionCommand::SetBounds(unbounded))
            .expect("send");
        assert!(net.moqo().wait_idle(IDLE));
        client.command(SessionCommand::Cancel).expect("send");
        // Now drain everything — coalesced frames included.
        let view = client.wait_finished(IDLE).expect("terminal event");
        assert!(view.is_finished());
        let ticket = Ticket::from_u64(client.server_ticket().unwrap());
        match net.moqo().poll(ticket).expect("closed but queryable") {
            TicketStatus::Active {
                view: server_view, ..
            } => {
                assert!(
                    client.view().frontier.bits_eq(&server_view.frontier),
                    "coalesced stream must reassemble bit-exactly"
                );
                assert_eq!(client.view().epoch, server_view.epoch);
            }
            other => panic!("expected active ticket, got {other:?}"),
        }
        let stats = net.stats();
        assert!(
            stats.coalesced_events > 0,
            "a non-reading client must force coalescing (stats: {stats:?})"
        );
        assert!(stats.outbound_high_water > 0);
        assert_eq!(stats.stalled, 0);
        net.shutdown();
    }

    #[test]
    fn stalled_writers_are_bounded_and_retired() {
        // A reader that stops draining while the server owes it real
        // volume must be cut loose after write_timeout. The volume is
        // generated deterministically: a warm session of a query with a
        // wide frontier is dragged between a bound that keeps only the
        // fastest plan and no bound at all, 150 times, and the
        // client never reads a single event — every release re-ships the
        // whole frontier, and the event bytes overwhelm the kernel
        // pipeline (tiny server send buffer + the client's initial
        // receive window), so the userspace outbound buffer stays loaded
        // and the write deadline has to fire.
        let (net, addr, _model) = start_with(
            AdmissionConfig::default(),
            NetConfig {
                send_buffer: Some(1), // kernel clamps to its minimum
                write_timeout: Duration::from_millis(100),
                // Every event is serialized: coalescing would fold the
                // drags into one pending frame and bound the volume.
                coalesce_after: usize::MAX,
                ..NetConfig::default()
            },
        );
        let spec = Arc::new(testkit::chain_query(5, 40_000));
        // A reading session refines the frontier and parks it, so the
        // stalling session below starts warm.
        let fastest = {
            let mut reader = NetClient::connect(addr).expect("connect");
            reader
                .submit(SessionRequest::new(spec.clone()), IDLE)
                .expect("admitted");
            while reader.view().invocations < 3 {
                reader.recv(IDLE).expect("stream healthy");
            }
            reader.command(SessionCommand::Cancel).expect("send");
            let view = reader.wait_finished(IDLE).expect("terminal event");
            assert!(view.frontier.len() > 100, "a wide frontier");
            view.frontier.min_by_metric(0).unwrap().cost[0]
        };
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(SessionRequest::new(spec), IDLE)
            .expect("admitted");
        let unbounded = net.moqo().engine().unbounded();
        let tight = unbounded.with_limit(0, fastest);
        for i in 0..300u32 {
            let bounds = if i % 2 == 0 { tight } else { unbounded };
            // Once the stall fires the server closes the socket, and a
            // later send may fail: that is the outcome under test.
            if client.command(SessionCommand::SetBounds(bounds)).is_err() {
                break;
            }
        }

        // The loop counts the parked session once it drained the
        // cancelled stream, after the session left the live count.
        let deadline = Instant::now() + IDLE;
        while net.stats().stalled == 0
            || net.moqo().stats().live != 0
            || net.stats().disconnect_parked == 0
        {
            assert!(
                Instant::now() < deadline,
                "stall never detected: {:?}",
                net.stats()
            );
            thread::sleep(Duration::from_millis(10));
        }
        let stats = net.stats();
        assert!(stats.stalled >= 1);
        assert!(stats.outbound_high_water > 0);
        assert_eq!(stats.disconnect_parked, 1, "the stalled session parks");
        drop(client);
        net.shutdown();
    }

    #[test]
    fn idle_connections_hold_without_event_loss() {
        // A batch of sessions goes idle (ladder drained, user thinking);
        // the front must hold them live with zero events lost and zero
        // faults — then finish each one bit-exactly.
        const SESSIONS: usize = 24;
        let (net, addr, _model) = start(AdmissionConfig {
            max_live: SESSIONS,
            ..AdmissionConfig::default()
        });
        let mut clients = Vec::new();
        for i in 0..SESSIONS {
            let mut client = NetClient::connect(addr).expect("connect");
            client
                .submit(
                    SessionRequest::new(Arc::new(testkit::chain_query(
                        2 + (i % 3),
                        10_000 + 1_000 * i as u64,
                    ))),
                    IDLE,
                )
                .expect("admitted");
            clients.push(client);
        }
        for client in &mut clients {
            while client.view().invocations < 3 {
                client.recv(IDLE).expect("stream healthy");
            }
        }
        // Idle period: several probe/sweep intervals long, nobody talks.
        thread::sleep(Duration::from_millis(300));
        let stats = net.stats();
        assert_eq!(
            net.moqo().stats().live,
            SESSIONS,
            "idle sessions must stay live"
        );
        assert_eq!(stats.faulted, 0);
        // Everyone wakes up and finishes; no event was lost while idle.
        for client in &mut clients {
            let plan = client.view().frontier.min_by_metric(0).unwrap().plan;
            client
                .command(SessionCommand::SelectPlan(plan))
                .expect("send");
            let view = client.wait_finished(IDLE).expect("terminal event");
            assert_eq!(view.selected(), Some(plan));
        }
        assert_eq!(net.moqo().stats().live, 0);
        net.shutdown();
    }

    #[test]
    fn shutdown_is_event_driven_and_fast() {
        let (net, addr, _model) = start(AdmissionConfig::default());
        let mut clients = Vec::new();
        for _ in 0..8 {
            let mut client = NetClient::connect(addr).expect("connect");
            client
                .submit(
                    SessionRequest::new(Arc::new(testkit::chain_query(2, 10_000))),
                    IDLE,
                )
                .expect("admitted");
            clients.push(client);
        }
        for client in &mut clients {
            while client.view().invocations < 3 {
                client.recv(IDLE).expect("stream healthy");
            }
        }
        // Everything is idle; the loop is blocked in poll with no
        // timeout. Shutdown must ring the wake channel and return well
        // under the no-sleep-polling bound.
        let started = Instant::now();
        net.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "graceful stop took {elapsed:?}, expected < 100ms"
        );
    }
}
