//! The tagged message envelopes a connection exchanges.
//!
//! One connection serves one ticket: the client opens with
//! [`ClientMessage::Submit`], the server answers
//! [`ServerMessage::Admission`], and from then on the client streams
//! [`ClientMessage::Command`]s while the server streams
//! [`ServerMessage::Event`]s (plus typed [`ServerMessage::Error`]s for
//! commands that could not be honored). Each envelope is one frame
//! payload; see [`crate::framing`] for the frame layout.

use moqo_core::wire::{WireDecode, WireEncode, WireError, WireReader, WireResult, WireWriter};
use moqo_core::{AdmissionResponse, ProtocolError, SessionCommand, SessionEvent, SessionRequest};
use moqo_costmodel::ModelResolver;

fn corrupt(msg: impl Into<String>) -> WireError {
    WireError::Corrupt(msg.into())
}

/// Client → server envelope.
#[derive(Clone, Debug)]
pub enum ClientMessage {
    /// Open the connection's session. Valid only as the first message;
    /// the per-session cost model (if any) travels by identity.
    Submit(SessionRequest),
    /// Steer the live session (Algorithm 1's event vocabulary).
    Command(SessionCommand),
}

impl ClientMessage {
    /// Serializes the envelope into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            ClientMessage::Submit(request) => {
                w.u8(0);
                request.wire_encode(&mut w);
            }
            ClientMessage::Command(command) => {
                w.u8(1);
                command.encode(&mut w);
            }
        }
        w.into_vec()
    }

    /// Deserializes one frame payload, resolving cost-model identities
    /// through `models`. The whole payload must be consumed — trailing
    /// bytes mean a framing bug or tampering, both fatal.
    pub fn decode(bytes: &[u8], models: &dyn ModelResolver) -> WireResult<ClientMessage> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            0 => ClientMessage::Submit(SessionRequest::wire_decode(&mut r, models)?),
            1 => ClientMessage::Command(SessionCommand::decode(&mut r)?),
            t => return Err(corrupt(format!("unknown client message tag {t}"))),
        };
        if !r.done() {
            return Err(corrupt("trailing bytes after client message"));
        }
        Ok(msg)
    }
}

/// Server → client envelope.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMessage {
    /// The protocol-level answer to the connection's submit.
    Admission {
        /// The server-side ticket id (diagnostics; lets an operator
        /// correlate a connection with `MoqoServer` state).
        ticket: u64,
        /// Admitted / degraded / queued / rejected, exactly as the
        /// in-process front answers.
        response: AdmissionResponse,
    },
    /// One delta-streamed session update (boxed: events dwarf the other
    /// variants, and every message already crosses a heap-allocated
    /// frame).
    Event(Box<SessionEvent>),
    /// A request or command could not be honored; the session (if any)
    /// stays live unless the connection is closed alongside.
    Error(ProtocolError),
}

impl ServerMessage {
    /// Serializes the envelope into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            ServerMessage::Admission { ticket, response } => {
                w.u8(0);
                w.u64(*ticket);
                response.encode(&mut w);
            }
            ServerMessage::Event(event) => {
                w.u8(1);
                event.encode(&mut w);
            }
            ServerMessage::Error(error) => {
                w.u8(2);
                error.encode(&mut w);
            }
        }
        w.into_vec()
    }

    /// Deserializes one frame payload (trailing bytes rejected).
    pub fn decode(bytes: &[u8]) -> WireResult<ServerMessage> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            0 => ServerMessage::Admission {
                ticket: r.u64()?,
                response: AdmissionResponse::decode(&mut r)?,
            },
            1 => ServerMessage::Event(Box::new(SessionEvent::decode(&mut r)?)),
            2 => ServerMessage::Error(ProtocolError::decode(&mut r)?),
            t => return Err(corrupt(format!("unknown server message tag {t}"))),
        };
        if !r.done() {
            return Err(corrupt("trailing bytes after server message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::{FrontierDelta, RejectReason};
    use moqo_cost::{Bounds, ResolutionSchedule};
    use moqo_costmodel::{SharedCostModel, StandardCostModel};
    use moqo_query::testkit;
    use std::sync::Arc;

    #[test]
    fn client_messages_round_trip() {
        let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
        let submit = ClientMessage::Submit(
            SessionRequest::new(Arc::new(testkit::chain_query(3, 10_000)))
                .with_cost_model(model.clone())
                .with_auto_ticks(2),
        );
        let bytes = submit.encode();
        match ClientMessage::decode(&bytes, &model).unwrap() {
            ClientMessage::Submit(req) => {
                assert_eq!(req.spec.name, "chain-3");
                assert_eq!(req.auto_ticks, Some(2));
                assert_eq!(
                    req.cost_model.as_ref().map(|m| m.identity()),
                    Some(model.identity())
                );
            }
            other => panic!("wrong envelope: {other:?}"),
        }
        let command = ClientMessage::Command(SessionCommand::SetBounds(Bounds::unbounded(3)));
        let bytes = command.encode();
        match ClientMessage::decode(&bytes, &model).unwrap() {
            ClientMessage::Command(SessionCommand::SetBounds(b)) => assert_eq!(b.dim(), 3),
            other => panic!("wrong envelope: {other:?}"),
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = [
            ServerMessage::Admission {
                ticket: 41,
                response: AdmissionResponse::Degraded {
                    schedule: ResolutionSchedule::linear(1, 1.3, 0.2),
                },
            },
            ServerMessage::Admission {
                ticket: 42,
                response: AdmissionResponse::Rejected(RejectReason::Overloaded { live: 9 }),
            },
            ServerMessage::Event(Box::new(SessionEvent {
                epoch: 1,
                delta: FrontierDelta::default(),
                resolution: 0,
                bounds: Bounds::unbounded(2),
                invocations: 1,
                report: None,
                first_report: None,
                outcome: None,
                coalesced: 0,
            })),
            ServerMessage::Error(ProtocolError::UnknownCostModel { identity: 7 }),
        ];
        for msg in &messages {
            let bytes = msg.encode();
            assert_eq!(&ServerMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
        let mut bytes = ClientMessage::Command(SessionCommand::Refine).encode();
        bytes.push(0);
        assert!(ClientMessage::decode(&bytes, &model).is_err());
        let mut bytes = ServerMessage::Error(ProtocolError::SessionFinished).encode();
        bytes.push(0);
        assert!(ServerMessage::decode(&bytes).is_err());
    }
}
