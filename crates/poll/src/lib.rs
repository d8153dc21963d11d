//! The readiness reactor behind the serving front: Linux `epoll` plus
//! an `eventfd` doorbell, bound directly (std links libc, so the
//! `extern "C"` declarations resolve with no added dependency).
//!
//! * **Readiness** — register an fd the caller owns under a [`Token`]
//!   and an [`Interest`], then [`poll`](Reactor::poll) for whatever is
//!   ready. Level-triggered: an fd that stays readable keeps reporting
//!   readable, so callers drain until `WouldBlock`, and the per-poll
//!   batch cap is lossless. The reactor keeps no registration state:
//!   the caller knows each fd's interest and calls
//!   [`reregister`](Reactor::reregister) only when it changes.
//! * **A wake channel** — [`WakeHandle`] is a cheap, cloneable,
//!   thread-safe doorbell. Engine worker threads ring it when a
//!   session publishes an event; the blocked [`poll`](Reactor::poll)
//!   returns with `woken = true`. An atomic latch collapses bursts of
//!   wakes into one eventfd write, so a hot engine does not turn the
//!   doorbell into a syscall treadmill.

#[cfg(not(target_os = "linux"))]
compile_error!("moqo-poll binds epoll and eventfd, which only Linux has");

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod sys {
    //! The libc functions and Linux constants this crate needs.
    #![allow(non_camel_case_types)]

    pub type c_int = i32;

    /// Kernel ABI: packed on x86-64 (the 12-byte layout), natural
    /// alignment everywhere else — mirrors libc's definition.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub u64: u64,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(epfd: c_int, evs: *mut epoll_event, max: c_int, ms: c_int) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn setsockopt(fd: c_int, lvl: c_int, opt: c_int, v: *const c_int, n: u32) -> c_int;
        pub fn getsockopt(fd: c_int, lvl: c_int, opt: c_int, v: *mut c_int, n: *mut u32) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Largest batch one poll returns; level triggering makes the cap
/// lossless (still-ready fds reappear on the next poll).
const MAX_BATCH: usize = 1024;

/// The token the doorbell's eventfd is registered under.
/// [`Reactor::poll`] consumes its event, so callers never see it.
const WAKE_TOKEN: Token = Token(usize::MAX);

/// Opaque per-registration identifier, echoed back on every [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Which readiness classes a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Subscribe to read readiness (and peer hangup).
    pub const READABLE: Interest = Interest(sys::EPOLLIN);
    /// Subscribe to write readiness.
    pub const WRITABLE: Interest = Interest(sys::EPOLLOUT);

    /// Combines two interests (`READABLE.add(WRITABLE)`).
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// One readiness notification: a token plus what fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    mask: u32,
}

impl Event {
    /// The token the fd was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Read readiness: data buffered, or a hangup or error, which the
    /// next read surfaces as EOF or as the error. Folding them in here
    /// makes the caller's read path the one place that observes them.
    pub fn is_readable(&self) -> bool {
        self.mask & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0
    }

    /// Write readiness.
    pub fn is_writable(&self) -> bool {
        self.mask & sys::EPOLLOUT != 0
    }
}

/// Reusable buffer [`Reactor::poll`] fills with ready [`Event`]s.
pub struct Events {
    raw: Vec<sys::epoll_event>,
}

impl Default for Events {
    fn default() -> Events {
        Events::new()
    }
}

impl Events {
    /// An empty buffer with room for one batch.
    pub fn new() -> Events {
        Events {
            raw: Vec::with_capacity(MAX_BATCH),
        }
    }

    /// Iterates the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw.iter().map(|e| Event {
            token: Token(e.u64 as usize),
            mask: e.events,
        })
    }

    /// Number of events from the last poll.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the last poll returned no events (timeout or bare wake).
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// The eventfd a [`WakeHandle`] rings, and the latch over it.
struct Doorbell {
    fd: File,
    pending: AtomicBool,
}

/// Readiness selector + wake channel; see the module docs.
///
/// `register`/`reregister`/`deregister` take `&self` and are safe from
/// any thread; `poll` is meant to be driven by one event-loop thread.
pub struct Reactor {
    epoll: OwnedFd,
    doorbell: Arc<Doorbell>,
}

impl Reactor {
    /// Creates the epoll instance and registers the doorbell with it.
    pub fn new() -> io::Result<Reactor> {
        // SAFETY: each fd is fresh from a successful syscall, and
        // nothing else owns it.
        let epoll = unsafe { OwnedFd::from_raw_fd(cvt(sys::epoll_create1(sys::EPOLL_CLOEXEC))?) };
        let flags = sys::EFD_NONBLOCK | sys::EFD_CLOEXEC;
        let fd = unsafe { File::from_raw_fd(cvt(sys::eventfd(0, flags))?) };
        let pending = AtomicBool::new(false);
        let reactor = Reactor {
            epoll,
            doorbell: Arc::new(Doorbell { fd, pending }),
        };
        let op = sys::EPOLL_CTL_ADD;
        reactor.ctl(op, &reactor.doorbell.fd, WAKE_TOKEN, Interest::READABLE)?;
        Ok(reactor)
    }

    fn ctl(&self, op: i32, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: interest.0 | sys::EPOLLRDHUP,
            u64: token.0 as u64,
        };
        let (epfd, fd) = (self.epoll.as_raw_fd(), fd.as_raw_fd());
        cvt(unsafe { sys::epoll_ctl(epfd, op, fd, &mut ev) }).map(drop)
    }

    /// Starts watching `fd` under `token`. The fd must stay open until
    /// [`deregister`](Reactor::deregister). Fails on the reserved wake
    /// token and, with `AlreadyExists`, on an fd already registered.
    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        refuse_wake_token(token)?;
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the token and interest of a registered `fd`. Each call
    /// is a syscall: callers track interest and skip unchanged ones.
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        refuse_wake_token(token)?;
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Call before closing it.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, Token(0), Interest(0))
    }

    /// A cloneable doorbell for waking a blocked [`poll`](Reactor::poll)
    /// from any thread.
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle(self.doorbell.clone())
    }

    /// Blocks until a registration is ready, a [`WakeHandle`] rings, or
    /// the timeout elapses. Returns `true` when a wake was consumed
    /// (the doorbell is drained and the latch reset before returning,
    /// and its event is left out of `events`); the caller must then
    /// re-check its wake queues, which observes every ring up to the
    /// reset. `None` blocks indefinitely — safe, because shutdown rings
    /// the doorbell too.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<bool> {
        // Round up so a 100µs timeout still sleeps (0 would spin).
        let ms = |d: Duration| d.as_millis().max(if d.is_zero() { 0 } else { 1 });
        let timeout_ms = timeout.map_or(-1, |d| ms(d).min(i32::MAX as u128) as i32);
        events.raw.clear();
        let (epfd, buf) = (self.epoll.as_raw_fd(), events.raw.as_mut_ptr());
        let max = events.raw.capacity() as i32;
        let n = loop {
            match cvt(unsafe { sys::epoll_wait(epfd, buf, max, timeout_ms) }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        // SAFETY: the kernel filled the first `n` entries, and `n` is
        // at most `max`, the capacity.
        unsafe { events.raw.set_len(n) };
        events.raw.retain(|e| e.u64 != WAKE_TOKEN.0 as u64);
        let woken = events.raw.len() < n;
        if woken {
            // Drain *before* resetting the latch. A ring that lands in
            // between finds the latch set and writes nothing, but its
            // work is queued before it rings, so the caller's re-check
            // sees it; a ring after the reset writes a fresh count. The
            // other order loses wakes for good: a ring between reset and
            // drain has its count drained while the latch stays set, and
            // every later ring is swallowed.
            let _ = (&self.doorbell.fd).read(&mut [0u8; 8]);
            self.doorbell.pending.store(false, Ordering::SeqCst);
        }
        Ok(woken)
    }
}

fn refuse_wake_token(token: Token) -> io::Result<()> {
    if token == WAKE_TOKEN {
        let msg = "token reserved for the reactor wake channel";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(())
}

/// Cheap cross-thread doorbell for one [`Reactor`]; clone freely.
#[derive(Clone)]
pub struct WakeHandle(Arc<Doorbell>);

impl WakeHandle {
    /// Rings the doorbell. Bursts collapse: only the first ring after a
    /// poll pays the eventfd-write syscall, the rest flip an atomic.
    pub fn wake(&self) {
        if !self.0.pending.swap(true, Ordering::SeqCst) {
            // A failed write leaves the latch set; the reactor's next
            // timeout still observes the queue, so degrade silently
            // rather than panic a worker thread.
            let _ = (&self.0.fd).write(&1u64.to_ne_bytes());
        }
    }
}

/// Shrinks (or grows) the kernel send buffer of a socket. The kernel
/// doubles the requested value for bookkeeping and clamps it to a
/// floor; returns the effective size. The serving tests use a tiny
/// send buffer to force `WouldBlock` against a stalled reader
/// deterministically.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<usize> {
    let val = bytes.min(i32::MAX as usize) as i32;
    let (mut out, mut len) = (0i32, std::mem::size_of::<i32>() as u32);
    cvt(unsafe { sys::setsockopt(fd, sys::SOL_SOCKET, sys::SO_SNDBUF, &val, len) })?;
    cvt(unsafe { sys::getsockopt(fd, sys::SOL_SOCKET, sys::SO_SNDBUF, &mut out, &mut len) })?;
    Ok(out.max(0) as usize)
}

/// Raises the soft `RLIMIT_NOFILE` toward `target`, clamped to the
/// hard limit; returns the resulting soft limit. Holding 10k+
/// connections needs ~2× that many fds, well past the usual 1024
/// default soft limit.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = sys::rlimit::default();
    cvt(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur < target {
        lim.rlim_cur = target.min(lim.rlim_max);
        cvt(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &lim) })?;
    }
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reserved_wake_token_is_refused() {
        let reactor = Reactor::new().unwrap();
        let (client, server) = tcp_pair();
        let err = reactor
            .register(&client, WAKE_TOKEN, Interest::READABLE)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        reactor
            .register(&server, Token(3), Interest::READABLE)
            .unwrap();
        assert!(reactor
            .reregister(&server, WAKE_TOKEN, Interest::READABLE)
            .is_err());
    }

    #[test]
    fn readable_and_writable_readiness_and_reregister() {
        let reactor = Reactor::new().unwrap();
        let (mut client, server) = tcp_pair();
        let interest = Interest::READABLE.add(Interest::WRITABLE);
        reactor.register(&server, Token(7), interest).unwrap();
        let mut events = Events::new();
        let poll = |events: &mut Events, ms| {
            let woken = reactor
                .poll(events, Some(Duration::from_millis(ms)))
                .unwrap();
            assert!(!woken);
            events.iter().collect::<Vec<Event>>()
        };

        // Idle socket: writable only.
        let ready = poll(&mut events, 500);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token(), Token(7));
        assert!(ready[0].is_writable() && !ready[0].is_readable());

        // Peer writes: readable fires (level-triggered, repeats).
        client.write_all(b"ping").unwrap();
        for _ in 0..2 {
            assert!(poll(&mut events, 500)[0].is_readable());
        }

        // Interest narrowed to writable: readable stops reporting.
        reactor
            .reregister(&server, Token(8), Interest::WRITABLE)
            .unwrap();
        let ready = poll(&mut events, 500);
        assert_eq!(ready[0].token(), Token(8));
        assert!(!ready[0].is_readable() && ready[0].is_writable());

        reactor.deregister(&server).unwrap();
        assert!(poll(&mut events, 10).is_empty());
    }

    #[test]
    fn hangup_reports_readable_and_closed() {
        let reactor = Reactor::new().unwrap();
        let (client, mut server) = tcp_pair();
        reactor
            .register(&server, Token(1), Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::new();
        reactor
            .poll(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token(), Token(1));
        assert!(ev.is_readable());
        // The read path observes the peer's close as EOF.
        assert_eq!(server.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn double_register_errors_and_timeout_returns_empty() {
        let reactor = Reactor::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        reactor
            .register(&listener, Token(0), Interest::READABLE)
            .unwrap();
        let err = reactor
            .register(&listener, Token(1), Interest::READABLE)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let mut events = Events::new();
        let start = Instant::now();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(25)))
            .unwrap();
        assert!(!woken && events.is_empty());
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "timeout returned early"
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let reactor = Reactor::new().unwrap();
        let handle = reactor.wake_handle();
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            handle.wake();
        });
        let mut events = Events::new();
        let start = Instant::now();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(woken);
        assert!(start.elapsed() < Duration::from_secs(5));
        // The wake is consumed, not reported as an event.
        assert!(events.is_empty());
        ringer.join().unwrap();
        // Consumed: the next poll times out quietly.
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!woken && events.is_empty());
        // Repeated rings before a poll collapse into one wake that one
        // poll consumes.
        for _ in 0..3 {
            reactor.wake_handle().wake();
        }
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(woken && events.is_empty());
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!woken);
    }

    #[test]
    fn wake_handle_unblocks_poll_and_resets() {
        let reactor = Reactor::new().unwrap();
        let handle = reactor.wake_handle();
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            // A burst of rings collapses into one wake.
            for _ in 0..10 {
                handle.wake();
            }
        });
        let mut events = Events::new();
        let start = Instant::now();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(woken);
        assert!(start.elapsed() < Duration::from_secs(5));
        ringer.join().unwrap();
        // A burst straddling the latch reset may leave one residual
        // wake; once drained, polls time out quietly.
        while reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap()
        {}
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!woken);
        // And the latch re-arms for the next ring.
        reactor.wake_handle().wake();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(woken);
    }

    #[test]
    fn racing_wakes_are_never_lost() {
        // Rounds of rings against a poller, released together by a
        // barrier and with no sleeps, so rings land anywhere inside
        // `poll` (including between its drain and its latch reset). The
        // poller handles a wake the way event loops do — poll, then
        // re-check the queue — and must observe every ring well within
        // the deadline; a lost wakeup instead parks it in `poll` until
        // the timeout.
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;

        // The window is a few instructions wide: run many rounds, within
        // a time budget so a loaded host still finishes promptly.
        const ROUNDS: u64 = 100_000;
        const BUDGET: Duration = Duration::from_secs(3);
        const DEADLINE: Duration = Duration::from_secs(5);
        let reactor = Reactor::new().unwrap();
        let handle = reactor.wake_handle();
        let posted = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(2));
        let ringer = {
            let (posted, stop, barrier) = (posted.clone(), stop.clone(), barrier.clone());
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // A spurious ring first, so the real one tends
                    // to land while the poller is handling it.
                    handle.wake();
                    posted.store(round, Ordering::SeqCst);
                    handle.wake();
                }
            })
        };
        let mut events = Events::new();
        let began = Instant::now();
        for round in 1..=ROUNDS {
            if began.elapsed() > BUDGET {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
            barrier.wait();
            let start = Instant::now();
            while posted.load(Ordering::SeqCst) < round {
                reactor.poll(&mut events, Some(DEADLINE)).unwrap();
            }
            assert!(
                start.elapsed() < DEADLINE,
                "ring {round} was lost until the poll timed out"
            );
        }
        ringer.join().unwrap();
    }

    #[test]
    fn socket_readiness_flows_through_the_reactor() {
        let reactor = Reactor::new().unwrap();
        let (mut client, server) = tcp_pair();
        reactor
            .register(&server, Token(11), Interest::READABLE)
            .unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Events::new();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(!woken);
        assert!(events
            .iter()
            .any(|e| e.token() == Token(11) && e.is_readable()));
    }

    #[test]
    fn send_buffer_helper_clamps_and_reports() {
        let (client, _server) = tcp_pair();
        let effective = set_send_buffer(client.as_raw_fd(), 4096).unwrap();
        // The kernel doubles and floors the request; it must come back
        // bounded, not zero and not the default ~200KiB.
        assert!(effective >= 4096, "{effective}");
        assert!(effective <= 1 << 20, "{effective}");
    }

    #[test]
    fn nofile_limit_is_monotonic() {
        let before = raise_nofile_limit(0).unwrap();
        let after = raise_nofile_limit(before).unwrap();
        assert!(after >= before);
    }
}
