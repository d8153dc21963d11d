//! The readiness reactor behind the serving front.
//!
//! [`Reactor`] wraps the vendored [`polling`] shim with the two pieces
//! an event loop actually wants on top of raw `epoll`/`poll(2)`:
//!
//! * **Registration bookkeeping** — the reactor remembers each token's
//!   fd and current [`Interest`], so callers flip interest with
//!   [`set_interest`](Reactor::set_interest) and the reactor skips the
//!   syscall when nothing changed (the common case: a connection that
//!   stays read-only between flushes).
//! * **A wake channel** — [`WakeHandle`] is a cheap, cloneable,
//!   thread-safe doorbell. Engine worker threads ring it when a
//!   session publishes an event; the blocked [`poll`](Reactor::poll)
//!   returns with `woken = true`. An atomic latch collapses bursts of
//!   wakes into one pipe write, so a hot engine does not turn the
//!   self-pipe into a syscall treadmill.
//!
//! The wake pipe occupies the reserved [`WAKE_TOKEN`]; user
//! registrations must use other tokens. Both backends are
//! level-triggered — see the [`polling`] crate docs for the contract.

use std::collections::HashMap;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use polling::{
    raise_nofile_limit, set_nonblocking, set_recv_buffer, set_send_buffer, Backend, Event, Events,
    Interest, Token,
};

/// The token the reactor's internal wake pipe is registered under.
/// [`Reactor::poll`] consumes it (reporting `woken = true`), but it
/// still appears in the event buffer — event loops matching on tokens
/// should ignore it.
pub const WAKE_TOKEN: Token = Token(usize::MAX);

#[derive(Clone, Copy, Debug)]
struct Registration {
    fd: RawFd,
    interest: Interest,
}

/// Readiness selector + wake channel; see the module docs.
pub struct Reactor {
    poll: polling::Poll,
    waker: Arc<polling::Waker>,
    wake_pending: Arc<AtomicBool>,
    registrations: Mutex<HashMap<usize, Registration>>,
}

impl Reactor {
    /// Creates a reactor on the platform-default backend (epoll on
    /// Linux, `poll(2)` elsewhere).
    pub fn new() -> io::Result<Reactor> {
        Self::build(polling::Poll::new()?)
    }

    /// Creates a reactor on an explicit backend (tests cross-check the
    /// two implementations against each other).
    pub fn with_backend(backend: Backend) -> io::Result<Reactor> {
        Self::build(polling::Poll::with_backend(backend)?)
    }

    fn build(poll: polling::Poll) -> io::Result<Reactor> {
        let waker = Arc::new(polling::Waker::new(&poll, WAKE_TOKEN)?);
        Ok(Reactor {
            poll,
            waker,
            wake_pending: Arc::new(AtomicBool::new(false)),
            registrations: Mutex::new(HashMap::new()),
        })
    }

    /// The backend this reactor runs on.
    pub fn backend(&self) -> Backend {
        self.poll.backend()
    }

    /// Starts watching `source` under `token`. Fails on the reserved
    /// [`WAKE_TOKEN`] and on token reuse — each live registration needs
    /// a distinct token because the bookkeeping (and every [`Event`])
    /// is keyed by it.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token reserved for the reactor wake channel",
            ));
        }
        let fd = source.as_raw_fd();
        let mut regs = self.registrations.lock().unwrap();
        if regs.contains_key(&token.0) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        self.poll.register(fd, token, interest)?;
        regs.insert(token.0, Registration { fd, interest });
        Ok(())
    }

    /// Sets the interest of an existing registration, skipping the
    /// syscall when the interest is unchanged. Returns whether a
    /// kernel-level update actually happened.
    pub fn set_interest(&self, token: Token, interest: Interest) -> io::Result<bool> {
        let mut regs = self.registrations.lock().unwrap();
        let reg = regs
            .get_mut(&token.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token not registered"))?;
        if reg.interest == interest {
            return Ok(false);
        }
        self.poll.reregister(reg.fd, token, interest)?;
        reg.interest = interest;
        Ok(true)
    }

    /// The interest a token is currently registered with.
    pub fn interest_of(&self, token: Token) -> Option<Interest> {
        self.registrations
            .lock()
            .unwrap()
            .get(&token.0)
            .map(|r| r.interest)
    }

    /// Stops watching the registration behind `token`. Call before
    /// closing the fd.
    pub fn deregister(&self, token: Token) -> io::Result<()> {
        let mut regs = self.registrations.lock().unwrap();
        let reg = regs
            .remove(&token.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token not registered"))?;
        self.poll.deregister(reg.fd)
    }

    /// Number of live registrations (the wake pipe excluded).
    pub fn registered(&self) -> usize {
        self.registrations.lock().unwrap().len()
    }

    /// A cloneable doorbell for waking a blocked [`poll`](Reactor::poll)
    /// from any thread.
    pub fn wake_handle(&self) -> WakeHandle {
        WakeHandle {
            waker: self.waker.clone(),
            pending: self.wake_pending.clone(),
        }
    }

    /// Blocks until a registration is ready, a [`WakeHandle`] rings, or
    /// the timeout elapses. Returns `true` when a wake was consumed
    /// (the wake pipe is drained and the latch reset before returning);
    /// the caller must then re-check its wake queues, which observes
    /// every ring up to the reset. `None` blocks indefinitely — safe,
    /// because shutdown rings the doorbell too.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<bool> {
        self.poll.poll(events, timeout)?;
        let woken = events.iter().any(|e| e.token() == WAKE_TOKEN);
        if woken {
            // Drain *before* resetting the latch. A ring that lands in
            // between finds the latch set and writes nothing, but its
            // work is queued before it rings, so the caller's re-check
            // sees it; a ring after the reset writes a fresh byte. The
            // other order loses wakes for good: a ring between reset and
            // drain has its byte drained while the latch stays set, and
            // every later ring is swallowed.
            self.waker.clear();
            self.wake_pending.store(false, Ordering::SeqCst);
        }
        Ok(woken)
    }
}

/// Cheap cross-thread doorbell for one [`Reactor`]; clone freely.
#[derive(Clone)]
pub struct WakeHandle {
    waker: Arc<polling::Waker>,
    pending: Arc<AtomicBool>,
}

impl WakeHandle {
    /// Rings the doorbell. Bursts collapse: only the first ring after a
    /// poll pays the pipe-write syscall, the rest flip an atomic.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // A failed write leaves the latch set; the reactor's next
            // timeout still observes the queue, so degrade silently
            // rather than panic a worker thread.
            let _ = self.waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn bookkeeping_tracks_interest_and_skips_redundant_updates() {
        for backend in backends() {
            let reactor = Reactor::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();

            reactor
                .register(&server, Token(3), Interest::READABLE)
                .unwrap();
            assert_eq!(reactor.registered(), 1);
            assert_eq!(reactor.interest_of(Token(3)), Some(Interest::READABLE));
            // Unchanged interest: no syscall.
            assert!(!reactor.set_interest(Token(3), Interest::READABLE).unwrap());
            // Changed: syscall happens and the bookkeeping follows.
            assert!(reactor
                .set_interest(Token(3), Interest::READABLE | Interest::WRITABLE)
                .unwrap());
            assert_eq!(
                reactor.interest_of(Token(3)),
                Some(Interest::READABLE | Interest::WRITABLE)
            );

            // Token reuse and the reserved token are rejected.
            assert!(reactor
                .register(&client, Token(3), Interest::READABLE)
                .is_err());
            assert!(reactor
                .register(&client, WAKE_TOKEN, Interest::READABLE)
                .is_err());

            reactor.deregister(Token(3)).unwrap();
            assert_eq!(reactor.registered(), 0);
            assert!(reactor.set_interest(Token(3), Interest::READABLE).is_err());
        }
    }

    #[test]
    fn wake_handle_unblocks_poll_and_resets() {
        for backend in backends() {
            let reactor = Reactor::with_backend(backend).unwrap();
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
            assert!(woken, "{backend:?}");
            assert!(start.elapsed() < Duration::from_secs(5), "{backend:?}");
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
            assert!(!woken, "{backend:?}");
            // And the latch re-arms for the next ring.
            reactor.wake_handle().wake();
            let woken = reactor
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(woken, "{backend:?}");
        }
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
        for backend in backends() {
            let reactor = Reactor::with_backend(backend).unwrap();
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
                    "{backend:?}: ring {round} was lost until the poll timed out"
                );
            }
            ringer.join().unwrap();
        }
    }

    #[test]
    fn socket_readiness_flows_through_the_reactor() {
        for backend in backends() {
            let reactor = Reactor::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            reactor
                .register(&server, Token(11), Interest::READABLE)
                .unwrap();
            client.write_all(b"x").unwrap();
            let mut events = Events::new();
            let woken = reactor
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(!woken, "{backend:?}");
            assert!(
                events
                    .iter()
                    .any(|e| e.token() == Token(11) && e.is_readable()),
                "{backend:?}"
            );
        }
    }
}
