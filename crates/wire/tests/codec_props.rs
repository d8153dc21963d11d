//! Property tests for the wire codec: encode→decode round-trips for
//! arbitrary protocol values, and decode-totality (typed errors, never a
//! panic) on arbitrary, truncated, and bit-flipped byte strings — the
//! wire-side mirror of the snapshot importer's corruption tests.

use moqo_core::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use moqo_core::{
    AdmissionResponse, FrontierDelta, FrontierPoint, FrontierSnapshot, InvocationReport,
    Preference, ProtocolError, RejectReason, SessionCommand, SessionEvent, SessionOutcome,
    SessionRequest,
};
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{SharedCostModel, StandardCostModel};
use moqo_plan::PlanId;
use moqo_query::testkit;
use moqo_wire::{ClientMessage, ServerMessage, WireError};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 3;

fn model() -> SharedCostModel {
    Arc::new(StandardCostModel::paper_metrics())
}

// ---------------------------------------------------------------------------
// Strategies. Components are dimension-consistent (DIM) so decoded values
// are exactly what a live session would produce; byte-level hostility is
// exercised separately below.
// ---------------------------------------------------------------------------

fn cost_component() -> BoxedStrategy<f64> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|v| v as f64 / 64.0),
        Just(0.0),
        Just(f64::INFINITY),
    ]
    .boxed()
}

fn cost_vector() -> BoxedStrategy<CostVector> {
    proptest::collection::vec(cost_component(), DIM)
        .prop_map(|v| CostVector::new(&v))
        .boxed()
}

fn bounds() -> BoxedStrategy<Bounds> {
    cost_vector().prop_map(Bounds::new).boxed()
}

fn frontier_point() -> BoxedStrategy<FrontierPoint> {
    (0u32..64, cost_vector())
        .prop_map(|(plan, cost)| FrontierPoint {
            plan: PlanId(plan),
            cost,
        })
        .boxed()
}

fn delta() -> BoxedStrategy<FrontierDelta> {
    (
        any::<bool>(),
        proptest::collection::vec((0u32..64).prop_map(PlanId), 0..6),
        proptest::collection::vec(frontier_point(), 0..8),
    )
        .prop_map(|(reset, removed, added)| FrontierDelta {
            reset,
            removed,
            added,
        })
        .boxed()
}

fn preference() -> BoxedStrategy<Preference> {
    let weights = || proptest::collection::vec((0u64..1000).prop_map(|v| v as f64 / 100.0), DIM);
    prop_oneof![
        weights().prop_map(Preference::WeightedSum),
        weights().prop_map(Preference::Chebyshev),
        (proptest::collection::vec(0usize..DIM, 1..4), 0u64..100u64).prop_map(|(order, tol)| {
            Preference::Lexicographic {
                order,
                tolerance: tol as f64 / 1000.0,
            }
        }),
    ]
    .boxed()
}

fn schedule() -> BoxedStrategy<ResolutionSchedule> {
    // alpha_s stays positive: a constant ladder (alpha_s = 0) is not
    // representable by `from_factors` (strictly decreasing), so neither
    // the snapshot format nor the wire codec round-trips it.
    (0usize..4, 1u64..50, 1u64..80)
        .prop_map(|(r_max, t, s)| {
            ResolutionSchedule::linear(r_max, 1.0 + t as f64 / 100.0, s as f64 / 100.0)
        })
        .boxed()
}

fn report() -> BoxedStrategy<InvocationReport> {
    (
        (0u32..100, 0usize..8, 1u64..300, 0u64..1_000_000),
        (0usize..64, 0u64..1000, 0u64..1000, 0u64..1000),
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        (0u64..1000, any::<bool>()),
    )
        .prop_map(|(a, b, c, d)| InvocationReport {
            invocation: a.0,
            resolution: a.1,
            alpha: 1.0 + a.2 as f64 / 100.0,
            duration: Duration::from_nanos(a.3),
            frontier_size: b.0,
            plans_generated: b.1,
            candidates_retrieved: b.2,
            pairs_generated: b.3,
            result_insertions: c.0,
            candidate_insertions: c.1,
            subsets_visited: c.2,
            splits_visited: c.3,
            splits_skipped: d.0,
            used_delta: d.1,
        })
        .boxed()
}

fn outcome() -> BoxedStrategy<SessionOutcome> {
    prop_oneof![
        (0u32..64, any::<bool>()).prop_map(|(p, by)| SessionOutcome::Selected {
            plan: PlanId(p),
            by_preference: by,
        }),
        Just(SessionOutcome::Retired),
    ]
    .boxed()
}

fn opt<T: Clone + 'static>(inner: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), inner.prop_map(Some)].boxed()
}

fn command() -> BoxedStrategy<SessionCommand> {
    prop_oneof![
        Just(SessionCommand::Refine),
        bounds().prop_map(SessionCommand::SetBounds),
        opt(preference()).prop_map(SessionCommand::SetPreference),
        (0u32..64).prop_map(|p| SessionCommand::SelectPlan(PlanId(p))),
        Just(SessionCommand::Cancel),
    ]
    .boxed()
}

fn event() -> BoxedStrategy<SessionEvent> {
    (
        (0u64..1000, delta(), 0usize..8, bounds(), 0u64..1000),
        (opt(report()), opt(report()), opt(outcome()), 0u64..5),
    )
        .prop_map(|(head, tail)| SessionEvent {
            epoch: head.0,
            delta: head.1,
            resolution: head.2,
            bounds: head.3,
            invocations: head.4,
            report: tail.0,
            first_report: tail.1,
            outcome: tail.2,
            coalesced: tail.3,
        })
        .boxed()
}

fn request() -> BoxedStrategy<SessionRequest> {
    (
        (2usize..5, 1u64..4),
        opt(bounds()),
        opt(schedule()),
        any::<bool>(),
        opt(preference()),
        opt((0usize..16).boxed()),
    )
        .prop_map(|((n, card), b, s, with_model, p, ticks)| {
            let mut req = SessionRequest::new(Arc::new(testkit::chain_query(n, card * 10_000)));
            req.bounds = b;
            req.schedule = s;
            if with_model {
                req.cost_model = Some(model());
            }
            req.preference = p;
            req.auto_ticks = ticks;
            req
        })
        .boxed()
}

fn admission() -> BoxedStrategy<AdmissionResponse> {
    prop_oneof![
        Just(AdmissionResponse::Admitted),
        schedule().prop_map(|s| AdmissionResponse::Degraded { schedule: s }),
        (0usize..32).prop_map(|p| AdmissionResponse::Queued { position: p }),
        (0usize..32)
            .prop_map(|l| AdmissionResponse::Rejected(RejectReason::Overloaded { live: l })),
        (0usize..32)
            .prop_map(|d| AdmissionResponse::Rejected(RejectReason::QueueFull { depth: d })),
    ]
    .boxed()
}

fn protocol_error() -> BoxedStrategy<ProtocolError> {
    let pair = || (0usize..64, 0usize..64);
    prop_oneof![
        pair().prop_map(|(expected, got)| ProtocolError::WeightDimensionMismatch { expected, got }),
        pair().prop_map(|(expected, got)| ProtocolError::BoundsDimensionMismatch { expected, got }),
        Just(ProtocolError::EmptyPreferenceOrder),
        Just(ProtocolError::NonFinitePreference),
        pair().prop_map(|(metric, dim)| ProtocolError::MetricOutOfRange { metric, dim }),
        (0u32..64).prop_map(|p| ProtocolError::UnknownPlan { plan: PlanId(p) }),
        Just(ProtocolError::SessionFinished),
        Just(ProtocolError::UnknownSession),
        (any::<u64>(), any::<u64>()).prop_map(|(have, got)| ProtocolError::EpochGap { have, got }),
        any::<u64>().prop_map(|identity| ProtocolError::UnknownCostModel { identity }),
        Just(ProtocolError::DisconnectedJoinGraph),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn commands_round_trip(cmd in command()) {
        let bytes = cmd.encode_to_vec();
        prop_assert_eq!(SessionCommand::decode_exact(&bytes).unwrap(), cmd);
    }

    #[test]
    fn events_round_trip_bit_exactly(ev in event()) {
        let bytes = ev.encode_to_vec();
        let back = SessionEvent::decode_exact(&bytes).unwrap();
        prop_assert_eq!(&back, &ev);
        // Bit-exactness beyond PartialEq: re-encoding reproduces the
        // exact bytes, cost-vector bit patterns included.
        prop_assert_eq!(back.encode_to_vec(), bytes);
    }

    #[test]
    fn admissions_round_trip(resp in admission()) {
        let bytes = resp.encode_to_vec();
        prop_assert_eq!(AdmissionResponse::decode_exact(&bytes).unwrap(), resp);
    }

    #[test]
    fn protocol_errors_round_trip(err in protocol_error()) {
        let bytes = err.encode_to_vec();
        prop_assert_eq!(ProtocolError::decode_exact(&bytes).unwrap(), err.clone());
        let server = ServerMessage::Error(err);
        prop_assert_eq!(ServerMessage::decode(&server.encode()).unwrap(), server);
    }

    #[test]
    fn requests_round_trip_through_the_registry(req in request()) {
        let mut w = WireWriter::new();
        req.wire_encode(&mut w);
        let bytes = w.into_vec();
        let resolver = model();
        let mut r = WireReader::new(&bytes);
        let back = SessionRequest::wire_decode(&mut r, &resolver).unwrap();
        prop_assert!(r.done());
        // The codec is a pure function of the request: equal bytes are
        // the equality proof (QuerySpec has no PartialEq).
        let mut w2 = WireWriter::new();
        back.wire_encode(&mut w2);
        prop_assert_eq!(w2.into_vec(), bytes);
    }

    #[test]
    fn envelopes_round_trip(ev in event(), cmd in command()) {
        let server = ServerMessage::Event(Box::new(ev));
        prop_assert_eq!(
            ServerMessage::decode(&server.encode()).unwrap(),
            server
        );
        let client = ClientMessage::Command(cmd.clone());
        let resolver = model();
        match ClientMessage::decode(&client.encode(), &resolver).unwrap() {
            ClientMessage::Command(back) => prop_assert_eq!(back, cmd),
            other => prop_assert!(false, "wrong envelope: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Decode totality: arbitrary, truncated, and bit-flipped inputs yield
// typed errors, never panics or runaway allocations.
// ---------------------------------------------------------------------------

/// Decodes `bytes` as every protocol type; each must return Ok or a typed
/// error without panicking.
fn decode_all(bytes: &[u8]) {
    let resolver = model();
    let _ = SessionCommand::decode_exact(bytes);
    let _ = SessionEvent::decode_exact(bytes);
    let _ = AdmissionResponse::decode_exact(bytes);
    let _ = ProtocolError::decode_exact(bytes);
    let _ = FrontierDelta::decode_exact(bytes);
    let _ = FrontierSnapshot::decode_exact(bytes);
    let _ = Preference::decode_exact(bytes);
    let _ = InvocationReport::decode_exact(bytes);
    let _ = ResolutionSchedule::decode_exact(bytes);
    let _ = CostVector::decode_exact(bytes);
    let _ = Bounds::decode_exact(bytes);
    let _ = SessionRequest::wire_decode(&mut WireReader::new(bytes), &resolver);
    let _ = ClientMessage::decode(bytes, &resolver);
    let _ = ServerMessage::decode(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn decoding_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..160),
    ) {
        decode_all(&bytes);
    }

    #[test]
    fn protocol_error_truncations_and_flips_never_panic(
        err in protocol_error(),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..12),
    ) {
        let encodings = [err.encode_to_vec(), ServerMessage::Error(err).encode()];
        for bytes in &encodings {
            for len in 0..bytes.len() {
                decode_all(&bytes[..len]);
            }
            let mut mutant = bytes.clone();
            for &(pos, bit) in &flips {
                let i = pos % mutant.len();
                mutant[i] ^= 1 << bit;
            }
            decode_all(&mutant);
        }
    }

    #[test]
    fn decoding_truncations_never_panics(ev in event(), cmd in command()) {
        for bytes in [ev.encode_to_vec(), cmd.encode_to_vec()] {
            for len in 0..bytes.len() {
                decode_all(&bytes[..len]);
                // A strict prefix can never decode as the same type and
                // pass the trailing-bytes check both.
                prop_assert!(
                    SessionEvent::decode_exact(&bytes[..len]).is_err()
                        || SessionCommand::decode_exact(&bytes[..len]).is_err()
                );
            }
        }
    }

    #[test]
    fn retired_frontier_tags_decode_to_typed_errors(
        tag in 2u8..4,
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Client tags 2 and 3 and server tag 3 carried the frontier
        // pull/push control messages of wire version 2. They are unknown
        // tags now, whatever follows them.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&payload);
        decode_all(&bytes);
        let resolver = model();
        prop_assert!(ClientMessage::kind_of(&bytes).is_none());
        prop_assert!(matches!(
            ClientMessage::decode(&bytes, &resolver),
            Err(WireError::Corrupt(_))
        ));
        if tag == 3 {
            prop_assert!(matches!(ServerMessage::decode(&bytes), Err(WireError::Corrupt(_))));
        }
    }

    #[test]
    fn decoding_bit_flips_never_panics(
        ev in event(),
        req in request(),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..12),
    ) {
        let mut w = WireWriter::new();
        req.wire_encode(&mut w);
        for mut bytes in [ev.encode_to_vec(), w.into_vec()] {
            for &(pos, bit) in &flips {
                let i = pos % bytes.len();
                bytes[i] ^= 1 << bit;
            }
            decode_all(&bytes);
        }
    }
}

/// Exhaustive single-byte corruption of one concrete event — the exact
/// analogue of the snapshot importer's corruption test, at the wire layer.
#[test]
fn single_byte_corruption_never_panics_the_event_decoder() {
    let event = SessionEvent {
        epoch: 5,
        delta: FrontierDelta {
            reset: true,
            removed: vec![],
            added: vec![
                FrontierPoint {
                    plan: PlanId(3),
                    cost: CostVector::new(&[4.0, 1.0, 0.5]),
                },
                FrontierPoint {
                    plan: PlanId(8),
                    cost: CostVector::new(&[2.0, 2.0, f64::INFINITY]),
                },
            ],
        },
        resolution: 2,
        bounds: Bounds::unbounded(3),
        invocations: 7,
        report: None,
        first_report: None,
        outcome: Some(SessionOutcome::Retired),
        coalesced: 0,
    };
    let bytes = event.encode_to_vec();
    for i in 0..bytes.len() {
        let mut mutant = bytes.clone();
        mutant[i] ^= 0xa5;
        let _ = SessionEvent::decode_exact(&mutant);
        let _ = ServerMessage::decode(&mutant);
    }
}
