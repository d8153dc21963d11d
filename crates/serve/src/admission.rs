//! Admission control: bounded intake with pluggable overload policy.
//!
//! A serving front that admits every submission degrades for everyone at
//! once — worker pools time-slice ever thinner and no session refines.
//! [`AdmissionConfig::decide`] bounds intake at
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
//! This module is the policy alone: a pure decision over (load, queue
//! length). [`MoqoServer`](crate::MoqoServer) keeps the queued
//! submissions, the counters and the load it decides against in its
//! ticket table, under the one lock that makes the bounds exact.

use moqo_core::protocol::RejectReason;
use moqo_cost::ResolutionSchedule;

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

/// Admission bound and overload policy.
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

/// Outcome of an admission decision — the serving front's internal shape
/// of the protocol's [`AdmissionResponse`](moqo_core::AdmissionResponse)
/// (the serving API converts; the [`RejectReason`] is the protocol's
/// own).
#[derive(Debug)]
pub enum Admission {
    /// Admit now at full resolution.
    Admit,
    /// Admit now under the given degraded ladder.
    AdmitDegraded(ResolutionSchedule),
    /// Goes to the back of the pending queue, at this position (0-based).
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

impl AdmissionConfig {
    /// Decides on a submission given the current load: `live` sessions
    /// (running, plus admissions decided but not yet running) and
    /// `queued` submissions waiting. A pure function of its inputs; the
    /// caller keeps the queue and the counters, and must hold whatever
    /// lock makes `live` and `queued` current for the decision to be an
    /// exact bound.
    ///
    /// Fairness: while submissions are queued, new arrivals under the
    /// `Queue` policy go to the back of the queue even if capacity just
    /// freed — the queue drains in FIFO order.
    pub fn decide(&self, live: usize, queued: usize) -> Admission {
        match &self.policy {
            _ if live < self.max_live && queued == 0 => Admission::Admit,
            AdmissionPolicy::Reject => Admission::Rejected(RejectReason::Overloaded { live }),
            AdmissionPolicy::Queue { depth } if queued >= *depth => {
                Admission::Rejected(RejectReason::QueueFull { depth: *depth })
            }
            AdmissionPolicy::Queue { .. } => Admission::Queued { position: queued },
            AdmissionPolicy::Degrade { schedule, hard_cap } if live < *hard_cap => {
                Admission::AdmitDegraded(schedule.clone())
            }
            AdmissionPolicy::Degrade { .. } => {
                Admission::Rejected(RejectReason::Overloaded { live })
            }
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
        let c = config(AdmissionPolicy::Reject);
        assert!(matches!(c.decide(0, 0), Admission::Admit));
        assert!(matches!(c.decide(1, 0), Admission::Admit));
        assert!(matches!(
            c.decide(2, 0),
            Admission::Rejected(RejectReason::Overloaded { live: 2 })
        ));
    }

    #[test]
    fn queue_policy_is_bounded_and_fifo() {
        let c = config(AdmissionPolicy::Queue { depth: 2 });
        assert!(matches!(c.decide(2, 0), Admission::Queued { position: 0 }));
        assert!(matches!(c.decide(2, 1), Admission::Queued { position: 1 }));
        // Bounded: the third overload submission is rejected, not queued.
        assert!(matches!(
            c.decide(2, 2),
            Admission::Rejected(RejectReason::QueueFull { depth: 2 })
        ));
        // A full queue turns away even a load below the bound: its head
        // takes the freed slot first.
        assert!(matches!(
            c.decide(0, 2),
            Admission::Rejected(RejectReason::QueueFull { depth: 2 })
        ));
    }

    #[test]
    fn queue_policy_keeps_fifo_order_for_new_arrivals() {
        let c = config(AdmissionPolicy::Queue { depth: 4 });
        assert!(matches!(c.decide(2, 0), Admission::Queued { position: 0 }));
        // Capacity freed, but an older submission waits: the newcomer
        // queues behind it instead of jumping the line.
        assert!(matches!(c.decide(0, 1), Admission::Queued { position: 1 }));
        // Once the queue drained, free capacity admits at once.
        assert!(matches!(c.decide(1, 0), Admission::Admit));
    }

    #[test]
    fn degrade_policy_admits_coarse_up_to_the_hard_cap() {
        let ladder = ResolutionSchedule::linear(0, 1.5, 0.5);
        let c = config(AdmissionPolicy::Degrade {
            schedule: ladder.clone(),
            hard_cap: 4,
        });
        assert!(matches!(c.decide(1, 0), Admission::Admit));
        for live in 2..4 {
            match c.decide(live, 0) {
                Admission::AdmitDegraded(s) => assert_eq!(s.levels(), ladder.levels()),
                other => panic!("expected degraded admission, got {other:?}"),
            }
        }
        assert!(matches!(
            c.decide(4, 0),
            Admission::Rejected(RejectReason::Overloaded { live: 4 })
        ));
    }
}
