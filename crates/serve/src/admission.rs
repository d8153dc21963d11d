//! Admission control: bounded intake with pluggable overload policy.
//!
//! A serving front that admits every submission degrades for everyone at
//! once — worker pools time-slice ever thinner and no session refines.
//! The [`AdmissionController`] bounds intake at
//! [`AdmissionConfig::max_live`] concurrent sessions and applies one of
//! three policies beyond that point:
//!
//! * [`AdmissionPolicy::Reject`] — shed load immediately; the caller gets
//!   an explicit rejection to retry elsewhere/later (classic
//!   backpressure).
//! * [`AdmissionPolicy::Queue`] — park up to `depth` submissions in a
//!   **bounded** FIFO; they admit as capacity frees. Beyond `depth`,
//!   reject — the queue never grows without bound.
//! * [`AdmissionPolicy::Degrade`] — IAMA's resolution ladder is a
//!   built-in load-shedding knob: admit the session anyway, but at a
//!   coarser target resolution (fewer, cheaper invocations, weaker
//!   [approximation guarantee](moqo_cost::ResolutionSchedule::guarantee)).
//!   The paper's single-user loop always refines to `rM`; a server under
//!   load stops earlier for new arrivals instead of stalling everyone.
//!   Beyond `hard_cap` live sessions even degraded admission stops and
//!   the submission is rejected.
//!
//! The controller is policy + accounting; it holds the queued payloads
//! but never touches the engine. The serving API drains it via
//! [`AdmissionController::release`] whenever capacity may have freed.

use moqo_core::protocol::RejectReason;
use moqo_cost::ResolutionSchedule;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What to do with submissions beyond [`AdmissionConfig::max_live`].
#[derive(Clone, Debug)]
pub enum AdmissionPolicy {
    /// Reject immediately (pure backpressure).
    Reject,
    /// Hold up to `depth` submissions in a bounded FIFO, admitting them
    /// as sessions finish; reject once the queue is full.
    Queue {
        /// Maximum queued submissions.
        depth: usize,
    },
    /// Admit with a coarser resolution ladder up to `hard_cap` live
    /// sessions, then reject.
    Degrade {
        /// The degraded ladder (typically 1–2 levels with a coarse
        /// target factor).
        schedule: ResolutionSchedule,
        /// Absolute live-session ceiling; must exceed `max_live` to have
        /// any effect.
        hard_cap: usize,
    },
}

/// Tunables of the admission controller.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Live sessions admitted at full resolution before the overload
    /// policy kicks in.
    pub max_live: usize,
    /// Policy beyond `max_live`.
    pub policy: AdmissionPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_live: 256,
            policy: AdmissionPolicy::Reject,
        }
    }
}

/// Outcome of an admission request — the controller-internal shape of the
/// protocol's [`AdmissionResponse`](moqo_core::AdmissionResponse) (the
/// serving API converts; the [`RejectReason`] is the protocol's own).
/// The queued payload stays inside the controller; everything else is
/// returned to the caller.
#[derive(Debug)]
pub enum Admission {
    /// Admit now at full resolution.
    Admit,
    /// Admit now under the given degraded ladder.
    AdmitDegraded(ResolutionSchedule),
    /// Parked in the pending queue at the returned position (0-based).
    Queued {
        /// Position in the pending queue at enqueue time.
        position: usize,
    },
    /// Turned away.
    Rejected(RejectReason),
}

/// Monotone admission counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted at full resolution (including dequeued ones).
    pub admitted: u64,
    /// Submissions admitted under a degraded ladder.
    pub degraded: u64,
    /// Submissions parked in the pending queue.
    pub queued: u64,
    /// Submissions rejected.
    pub rejected: u64,
}

/// Bounded-intake gate in front of a serving engine; generic over the
/// queued payload (the serving API queues `(ticket, spec, config)`
/// triples).
pub struct AdmissionController<T> {
    config: AdmissionConfig,
    pending: Mutex<VecDeque<T>>,
    admitted: AtomicU64,
    degraded: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
}

impl<T> AdmissionController<T> {
    /// Creates a controller with the given bounds and policy.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            pending: Mutex::new(VecDeque::new()),
            admitted: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The configured bounds and policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides on a submission given the engine's current live-session
    /// count. `payload` is retained only when the decision is
    /// [`Admission::Queued`].
    ///
    /// Fairness: while submissions are already queued, new arrivals under
    /// the `Queue` policy go to the back of the queue even if capacity
    /// just freed — [`AdmissionController::release`] drains in FIFO
    /// order.
    pub fn request(&self, live: usize, payload: T) -> Admission {
        let max = self.config.max_live;
        match &self.config.policy {
            _ if live < max && self.pending_is_empty() => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Admission::Admit
            }
            AdmissionPolicy::Reject => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Admission::Rejected(RejectReason::Overloaded { live })
            }
            AdmissionPolicy::Queue { depth } => {
                let mut pending = self.pending.lock().expect("admission queue poisoned");
                if live < max && pending.is_empty() {
                    // Capacity freed between the fast path and the lock.
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Admission::Admit;
                }
                if pending.len() >= *depth {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Admission::Rejected(RejectReason::QueueFull { depth: *depth });
                }
                pending.push_back(payload);
                self.queued.fetch_add(1, Ordering::Relaxed);
                Admission::Queued {
                    position: pending.len() - 1,
                }
            }
            AdmissionPolicy::Degrade { schedule, hard_cap } => {
                if live < *hard_cap {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    Admission::AdmitDegraded(schedule.clone())
                } else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    Admission::Rejected(RejectReason::Overloaded { live })
                }
            }
        }
    }

    /// Pops the oldest pending submission if the engine has capacity for
    /// it. Call whenever load may have dropped (a session finished or a
    /// caller polls); each successful release counts as an admission.
    pub fn release(&self, live: usize) -> Option<T> {
        if live >= self.config.max_live {
            return None;
        }
        let popped = self
            .pending
            .lock()
            .expect("admission queue poisoned")
            .pop_front();
        if popped.is_some() {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
        popped
    }

    /// Removes the first pending submission `which` matches (a caller that
    /// gave up while queued). `None` if no pending submission matches: it
    /// was never queued, or a release already popped it.
    pub(crate) fn withdraw(&self, which: impl Fn(&T) -> bool) -> Option<T> {
        let mut pending = self.pending.lock().expect("admission queue poisoned");
        let at = pending.iter().position(which)?;
        pending.remove(at)
    }

    /// Number of submissions currently parked in the pending queue.
    pub fn pending(&self) -> usize {
        self.pending.lock().expect("admission queue poisoned").len()
    }

    fn pending_is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Monotone counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: AdmissionPolicy) -> AdmissionConfig {
        AdmissionConfig {
            max_live: 2,
            policy,
        }
    }

    #[test]
    fn reject_policy_sheds_beyond_the_bound() {
        let c: AdmissionController<u32> = AdmissionController::new(config(AdmissionPolicy::Reject));
        assert!(matches!(c.request(0, 1), Admission::Admit));
        assert!(matches!(c.request(1, 2), Admission::Admit));
        assert!(matches!(
            c.request(2, 3),
            Admission::Rejected(RejectReason::Overloaded { live: 2 })
        ));
        let s = c.stats();
        assert_eq!((s.admitted, s.rejected), (2, 1));
    }

    #[test]
    fn queue_policy_is_bounded_and_fifo() {
        let c: AdmissionController<u32> =
            AdmissionController::new(config(AdmissionPolicy::Queue { depth: 2 }));
        assert!(matches!(
            c.request(2, 10),
            Admission::Queued { position: 0 }
        ));
        assert!(matches!(
            c.request(2, 11),
            Admission::Queued { position: 1 }
        ));
        // Bounded: the third overload submission is rejected, not queued.
        assert!(matches!(
            c.request(2, 12),
            Admission::Rejected(RejectReason::QueueFull { depth: 2 })
        ));
        assert_eq!(c.pending(), 2);
        // No release while at capacity.
        assert_eq!(c.release(2), None);
        // FIFO drain as capacity frees.
        assert_eq!(c.release(1), Some(10));
        assert_eq!(c.release(1), Some(11));
        assert_eq!(c.release(0), None);
        let s = c.stats();
        assert_eq!((s.admitted, s.queued, s.rejected), (2, 2, 1));
    }

    #[test]
    fn queue_policy_keeps_fifo_order_for_new_arrivals() {
        let c: AdmissionController<u32> =
            AdmissionController::new(config(AdmissionPolicy::Queue { depth: 4 }));
        assert!(matches!(c.request(2, 1), Admission::Queued { .. }));
        // Capacity freed, but an older submission waits: the newcomer
        // queues behind it instead of jumping the line.
        assert!(matches!(c.request(0, 2), Admission::Queued { position: 1 }));
        assert_eq!(c.release(0), Some(1));
        assert_eq!(c.release(1), Some(2));
    }

    #[test]
    fn degrade_policy_admits_coarse_up_to_the_hard_cap() {
        let ladder = ResolutionSchedule::linear(0, 1.5, 0.5);
        let c: AdmissionController<u32> =
            AdmissionController::new(config(AdmissionPolicy::Degrade {
                schedule: ladder.clone(),
                hard_cap: 4,
            }));
        assert!(matches!(c.request(1, 1), Admission::Admit));
        match c.request(2, 2) {
            Admission::AdmitDegraded(s) => assert_eq!(s.levels(), ladder.levels()),
            other => panic!("expected degraded admission, got {other:?}"),
        }
        assert!(matches!(
            c.request(4, 3),
            Admission::Rejected(RejectReason::Overloaded { live: 4 })
        ));
        let s = c.stats();
        assert_eq!((s.admitted, s.degraded, s.rejected), (1, 1, 1));
    }
}
