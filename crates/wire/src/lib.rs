//! moqo-wire — the versioned, length-prefixed binary wire format that
//! puts the session protocol on a network.
//!
//! Every in-process serving layer already speaks one typed vocabulary —
//! [`SessionRequest`] / [`SessionCommand`] / [`SessionEvent`] /
//! [`AdmissionResponse`] / [`ProtocolError`] — and `moqo_core::wire`
//! gives each of those types a validated little-endian codec (the same
//! `MOQOFRNT`-style discipline the frontier snapshot format uses). This
//! crate adds what a TCP front needs on top of the payload codec:
//!
//! * **A handshake** ([`client_hello`] / [`check_hello`]): 8 magic bytes
//!   (`MOQOWIRE`) plus a little-endian [`WIRE_VERSION`], exchanged once
//!   per connection in each direction. Version skew is detected before
//!   any payload parsing.
//! * **Frames** ([`write_frame`], [`read_frame`], [`FrameBuffer`]): every
//!   message travels as a `u32` little-endian length prefix followed by
//!   that many payload bytes, capped at [`MAX_FRAME`] so a corrupt or
//!   hostile length can never trigger a huge allocation. [`FrameBuffer`]
//!   reassembles frames incrementally from nonblocking reads.
//! * **Message envelopes** ([`ClientMessage`], [`ServerMessage`]): the
//!   tagged unions a connection exchanges. A client submits one request
//!   and then streams commands; the server answers with the admission
//!   decision, then streams [`SessionEvent`]s (whose deltas reassemble
//!   into a bit-exact `SessionView`) and typed protocol errors.
//!
//! Per-session cost-model overrides cross the wire **by identity**: the
//! decoder resolves them against a server-side model registry
//! ([`ModelResolver`]; `moqo_engine::ModelRegistry` is the deployment
//! implementation), so clients can select among deployed cost models but
//! can never inject cost semantics the operator did not register.
//!
//! Decoding is total: arbitrary, truncated, or bit-flipped bytes produce
//! a typed [`WireError`], never a panic — property-tested in
//! `tests/codec_props.rs`, mirroring the snapshot importer's corruption
//! tests.

#![warn(missing_docs)]

pub mod framing;
pub mod message;

pub use framing::{
    check_hello, client_hello, read_frame, write_frame, FrameBuffer, NetError, WriteBuffer,
    HELLO_LEN, MAX_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
pub use message::{ClientMessage, ServerMessage};

// The payload codec this crate frames, re-exported so wire users need no
// direct moqo-core dependency.
pub use moqo_core::wire::{WireDecode, WireEncode, WireError, WireReader, WireResult, WireWriter};
pub use moqo_core::{
    AdmissionResponse, ProtocolError, SessionCommand, SessionEvent, SessionRequest,
};
pub use moqo_costmodel::ModelResolver;
