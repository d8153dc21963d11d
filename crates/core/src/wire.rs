//! Byte-level wire codec for the session protocol.
//!
//! The [snapshot module](crate::snapshot) established the workspace's
//! serialization discipline: explicit little-endian primitives, length
//! prefixes validated against the remaining buffer, f64s shipped as raw
//! bits (so reassembly is *bit*-exact), and every decoded field checked
//! before any panicking constructor runs. This module promotes those
//! primitives ([`WireWriter`] / [`WireReader`]) to a public codec layer
//! and implements [`WireEncode`] / [`WireDecode`] for **every protocol
//! type** — [`SessionCommand`], [`SessionEvent`], [`AdmissionResponse`],
//! [`ProtocolError`], their component types, and (via
//! [`SessionRequest::wire_encode`] / [`SessionRequest::wire_decode`]) the
//! session request itself — so the types that already drive all three
//! in-process serving layers can cross a process boundary unchanged.
//!
//! Two deliberate asymmetries:
//!
//! * **Cost models encode by identity.** A [`SessionRequest`]'s optional
//!   per-session cost model is code, not data; the wire carries only its
//!   [identity](moqo_costmodel::CostModel::identity), and the decoding
//!   side resolves it against a server-side [`ModelResolver`] — a model
//!   registry.
//!   An identity the server does not know is a typed
//!   [`WireError::UnknownModel`], never a guess.
//! * **Decoding never panics.** Like the snapshot importer, every length,
//!   tag, dimension, and float is validated as it is read; arbitrary,
//!   truncated, or bit-flipped input yields a [`WireError`], so a
//!   malicious client can never crash a serving worker (property-tested
//!   in `moqo-wire`).
//!
//! Framing (message envelopes, length-prefixed frames, the `MOQOWIRE`
//! handshake) lives in the `moqo-wire` crate; this module is only the
//! payload codec.

use crate::frontier::{FrontierPoint, FrontierSnapshot};
use crate::preference::Preference;
use crate::protocol::{
    AdmissionResponse, FrontierDelta, ProtocolError, RejectReason, SessionCommand, SessionEvent,
    SessionOutcome, SessionRequest,
};
use crate::report::InvocationReport;
use moqo_catalog::{Catalog, Column, ColumnRole, Table, TableId};
use moqo_cost::{Bounds, CostVector, ResolutionSchedule, MAX_DIM};
use moqo_costmodel::ModelResolver;
use moqo_plan::{OrderKey, PhysicalProps, PlanId};
use moqo_query::{JoinGraph, QuerySpec};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why a wire payload could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// A structural invariant failed during decoding (bad tag, invalid
    /// length, out-of-range value, non-UTF-8 string, …).
    Corrupt(String),
    /// A request referenced a cost-model identity the decoding side's
    /// model registry does not know.
    UnknownModel {
        /// The unresolvable identity.
        identity: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire payload truncated"),
            WireError::Corrupt(m) => write!(f, "corrupt wire payload: {m}"),
            WireError::UnknownModel { identity } => {
                write!(f, "unknown cost-model identity {identity:#018x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Shorthand used throughout the codec.
pub type WireResult<T> = Result<T, WireError>;

fn corrupt(msg: impl Into<String>) -> WireError {
    WireError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Primitives: explicit little-endian encoding, no host-dependent layout,
// no external serialization dependency.
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes verbatim (magic numbers, pre-encoded payloads).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its raw little-endian bit pattern (bit-exact
    /// round trips, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Validating little-endian byte reader over a borrowed buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes, or [`WireError::Truncated`].
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// True once every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 from its raw bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed count, sanity-capped so corrupt lengths fail fast
    /// instead of attempting huge allocations (each encoded element
    /// occupies at least one byte).
    pub fn count(&mut self, what: &str) -> WireResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(corrupt(format!(
                "{what} count {n} exceeds remaining buffer"
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let n = self.count("string")?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Codec traits.
// ---------------------------------------------------------------------------

/// Types that serialize themselves onto a [`WireWriter`].
pub trait WireEncode {
    /// Appends this value's wire representation to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_vec()
    }
}

/// Types that deserialize themselves from a [`WireReader`], validating
/// every field — decoding MUST NOT panic on any input.
pub trait WireDecode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;

    /// Convenience: decodes a buffer that must contain exactly one value
    /// (trailing bytes are rejected).
    fn decode_exact(bytes: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.done() {
            return Err(corrupt("trailing bytes after value"));
        }
        Ok(v)
    }
}

fn encode_opt<T: WireEncode>(w: &mut WireWriter, v: &Option<T>) {
    match v {
        None => w.bool(false),
        Some(x) => {
            w.bool(true);
            x.encode(w);
        }
    }
}

fn decode_opt<T: WireDecode>(r: &mut WireReader<'_>) -> WireResult<Option<T>> {
    Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
}

// ---------------------------------------------------------------------------
// Component types.
// ---------------------------------------------------------------------------

impl WireEncode for CostVector {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(self.dim() as u8);
        for &v in self.as_slice() {
            w.f64(v);
        }
    }
}

impl WireDecode for CostVector {
    /// Cost components are finite-or-infinite, non-negative, never NaN —
    /// the `CostVector` constructor enforces the same rules with panics;
    /// here they must surface as errors.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let dim = r.u8()? as usize;
        if dim > MAX_DIM {
            return Err(corrupt(format!("cost dimension {dim} exceeds MAX_DIM")));
        }
        let mut vals = [0.0; MAX_DIM];
        for slot in vals.iter_mut().take(dim) {
            let v = r.f64()?;
            if v.is_nan() {
                return Err(corrupt("NaN cost component"));
            }
            if v < 0.0 {
                return Err(corrupt(format!("negative cost component {v}")));
            }
            *slot = v;
        }
        Ok(CostVector::new(&vals[..dim]))
    }
}

impl WireEncode for Bounds {
    fn encode(&self, w: &mut WireWriter) {
        self.limits().encode(w);
    }
}

impl WireDecode for Bounds {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Bounds::new(CostVector::decode(r)?))
    }
}

impl WireEncode for PhysicalProps {
    fn encode(&self, w: &mut WireWriter) {
        match self.order {
            None => w.bool(false),
            Some(OrderKey(k)) => {
                w.bool(true);
                w.u16(k);
            }
        }
    }
}

impl WireDecode for PhysicalProps {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(if r.bool()? {
            PhysicalProps::sorted(OrderKey(r.u16()?))
        } else {
            PhysicalProps::NONE
        })
    }
}

impl WireEncode for ResolutionSchedule {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.levels() as u32);
        for (_, factor) in self.iter() {
            w.f64(factor);
        }
    }
}

impl WireDecode for ResolutionSchedule {
    /// Validates everything `ResolutionSchedule::from_factors` would
    /// assert: non-empty, finite, strictly decreasing, all above 1.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.count("schedule level")?;
        if n == 0 {
            return Err(corrupt("schedule has no levels"));
        }
        let mut factors = Vec::with_capacity(n);
        for _ in 0..n {
            let f = r.f64()?;
            if !(f.is_finite() && f > 1.0) {
                return Err(corrupt(format!("precision factor {f} must exceed 1")));
            }
            if let Some(&prev) = factors.last() {
                if f >= prev {
                    return Err(corrupt("precision factors must strictly decrease"));
                }
            }
            factors.push(f);
        }
        Ok(ResolutionSchedule::from_factors(factors))
    }
}

impl WireEncode for PlanId {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.0);
    }
}

impl WireDecode for PlanId {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(PlanId(r.u32()?))
    }
}

impl WireEncode for FrontierPoint {
    fn encode(&self, w: &mut WireWriter) {
        self.plan.encode(w);
        self.cost.encode(w);
    }
}

impl WireDecode for FrontierPoint {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(FrontierPoint {
            plan: PlanId::decode(r)?,
            cost: CostVector::decode(r)?,
        })
    }
}

impl WireEncode for FrontierSnapshot {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.points.len() as u32);
        for p in &self.points {
            p.encode(w);
        }
    }
}

impl WireDecode for FrontierSnapshot {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.count("frontier point")?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(FrontierPoint::decode(r)?);
        }
        Ok(FrontierSnapshot::new(points))
    }
}

impl WireEncode for FrontierDelta {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(self.reset);
        w.u32(self.removed.len() as u32);
        for p in &self.removed {
            p.encode(w);
        }
        w.u32(self.added.len() as u32);
        for p in &self.added {
            p.encode(w);
        }
    }
}

impl WireDecode for FrontierDelta {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let reset = r.bool()?;
        let n_removed = r.count("removed plan")?;
        let mut removed = Vec::with_capacity(n_removed);
        for _ in 0..n_removed {
            removed.push(PlanId::decode(r)?);
        }
        let n_added = r.count("added point")?;
        let mut added = Vec::with_capacity(n_added);
        for _ in 0..n_added {
            added.push(FrontierPoint::decode(r)?);
        }
        Ok(FrontierDelta {
            reset,
            removed,
            added,
        })
    }
}

impl WireEncode for InvocationReport {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.invocation);
        w.u64(self.resolution as u64);
        w.f64(self.alpha);
        w.u64(self.duration.as_nanos().min(u64::MAX as u128) as u64);
        w.u64(self.frontier_size as u64);
        w.u64(self.plans_generated);
        w.u64(self.candidates_retrieved);
        w.u64(self.pairs_generated);
        w.u64(self.result_insertions);
        w.u64(self.candidate_insertions);
        w.u64(self.subsets_visited);
        w.u64(self.splits_visited);
        w.u64(self.splits_skipped);
        w.bool(self.used_delta);
    }
}

impl WireDecode for InvocationReport {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(InvocationReport {
            invocation: r.u32()?,
            resolution: r.u64()? as usize,
            alpha: r.f64()?,
            duration: Duration::from_nanos(r.u64()?),
            frontier_size: r.u64()? as usize,
            plans_generated: r.u64()?,
            candidates_retrieved: r.u64()?,
            pairs_generated: r.u64()?,
            result_insertions: r.u64()?,
            candidate_insertions: r.u64()?,
            subsets_visited: r.u64()?,
            splits_visited: r.u64()?,
            splits_skipped: r.u64()?,
            used_delta: r.bool()?,
        })
    }
}

impl WireEncode for SessionOutcome {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SessionOutcome::Selected {
                plan,
                by_preference,
            } => {
                w.u8(0);
                plan.encode(w);
                w.bool(*by_preference);
            }
            SessionOutcome::Retired => w.u8(1),
        }
    }
}

impl WireDecode for SessionOutcome {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(SessionOutcome::Selected {
                plan: PlanId::decode(r)?,
                by_preference: r.bool()?,
            }),
            1 => Ok(SessionOutcome::Retired),
            t => Err(corrupt(format!("unknown session outcome tag {t}"))),
        }
    }
}

impl WireEncode for Preference {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Preference::WeightedSum(weights) => {
                w.u8(0);
                w.u32(weights.len() as u32);
                for &x in weights {
                    w.f64(x);
                }
            }
            Preference::Chebyshev(weights) => {
                w.u8(1);
                w.u32(weights.len() as u32);
                for &x in weights {
                    w.f64(x);
                }
            }
            Preference::Lexicographic { order, tolerance } => {
                w.u8(2);
                w.u32(order.len() as u32);
                for &m in order {
                    w.u64(m as u64);
                }
                w.f64(*tolerance);
            }
        }
    }
}

impl WireDecode for Preference {
    /// Weights and tolerances are carried verbatim (bit-exact); semantic
    /// checks (finiteness, dimension) stay in [`Preference::validate`],
    /// which every serving layer runs at the door — decoding only has to
    /// guarantee it cannot panic.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        fn weights(r: &mut WireReader<'_>) -> WireResult<Vec<f64>> {
            let n = r.count("preference weight")?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(r.f64()?);
            }
            Ok(out)
        }
        match r.u8()? {
            0 => Ok(Preference::WeightedSum(weights(r)?)),
            1 => Ok(Preference::Chebyshev(weights(r)?)),
            2 => {
                let n = r.count("preference metric")?;
                let mut order = Vec::with_capacity(n);
                for _ in 0..n {
                    order.push(r.u64()? as usize);
                }
                let tolerance = r.f64()?;
                Ok(Preference::Lexicographic { order, tolerance })
            }
            t => Err(corrupt(format!("unknown preference tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol messages.
// ---------------------------------------------------------------------------

impl WireEncode for SessionCommand {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SessionCommand::Refine => w.u8(0),
            SessionCommand::SetBounds(bounds) => {
                w.u8(1);
                bounds.encode(w);
            }
            SessionCommand::SetPreference(pref) => {
                w.u8(2);
                encode_opt(w, pref);
            }
            SessionCommand::SelectPlan(plan) => {
                w.u8(3);
                plan.encode(w);
            }
            SessionCommand::Cancel => w.u8(4),
        }
    }
}

impl WireDecode for SessionCommand {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(SessionCommand::Refine),
            1 => Ok(SessionCommand::SetBounds(Bounds::decode(r)?)),
            2 => Ok(SessionCommand::SetPreference(decode_opt(r)?)),
            3 => Ok(SessionCommand::SelectPlan(PlanId::decode(r)?)),
            4 => Ok(SessionCommand::Cancel),
            t => Err(corrupt(format!("unknown session command tag {t}"))),
        }
    }
}

impl WireEncode for SessionEvent {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.epoch);
        self.delta.encode(w);
        w.u64(self.resolution as u64);
        self.bounds.encode(w);
        w.u64(self.invocations);
        encode_opt(w, &self.report);
        encode_opt(w, &self.first_report);
        encode_opt(w, &self.outcome);
        w.u64(self.coalesced);
    }
}

impl WireDecode for SessionEvent {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(SessionEvent {
            epoch: r.u64()?,
            delta: FrontierDelta::decode(r)?,
            resolution: r.u64()? as usize,
            bounds: Bounds::decode(r)?,
            invocations: r.u64()?,
            report: decode_opt(r)?,
            first_report: decode_opt(r)?,
            outcome: decode_opt(r)?,
            coalesced: r.u64()?,
        })
    }
}

impl WireEncode for RejectReason {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RejectReason::Overloaded { live } => {
                w.u8(0);
                w.u64(*live as u64);
            }
            RejectReason::QueueFull { depth } => {
                w.u8(1);
                w.u64(*depth as u64);
            }
        }
    }
}

impl WireDecode for RejectReason {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(RejectReason::Overloaded {
                live: r.u64()? as usize,
            }),
            1 => Ok(RejectReason::QueueFull {
                depth: r.u64()? as usize,
            }),
            t => Err(corrupt(format!("unknown reject reason tag {t}"))),
        }
    }
}

impl WireEncode for AdmissionResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            AdmissionResponse::Admitted => w.u8(0),
            AdmissionResponse::Degraded { schedule } => {
                w.u8(1);
                schedule.encode(w);
            }
            AdmissionResponse::Queued { position } => {
                w.u8(2);
                w.u64(*position as u64);
            }
            AdmissionResponse::Rejected(reason) => {
                w.u8(3);
                reason.encode(w);
            }
        }
    }
}

impl WireDecode for AdmissionResponse {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match r.u8()? {
            0 => Ok(AdmissionResponse::Admitted),
            1 => Ok(AdmissionResponse::Degraded {
                schedule: ResolutionSchedule::decode(r)?,
            }),
            2 => Ok(AdmissionResponse::Queued {
                position: r.u64()? as usize,
            }),
            3 => Ok(AdmissionResponse::Rejected(RejectReason::decode(r)?)),
            t => Err(corrupt(format!("unknown admission response tag {t}"))),
        }
    }
}

impl WireEncode for ProtocolError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ProtocolError::WeightDimensionMismatch { expected, got } => {
                w.u8(0);
                w.u64(*expected as u64);
                w.u64(*got as u64);
            }
            ProtocolError::BoundsDimensionMismatch { expected, got } => {
                w.u8(1);
                w.u64(*expected as u64);
                w.u64(*got as u64);
            }
            ProtocolError::EmptyPreferenceOrder => w.u8(2),
            ProtocolError::NonFinitePreference => w.u8(3),
            ProtocolError::MetricOutOfRange { metric, dim } => {
                w.u8(4);
                w.u64(*metric as u64);
                w.u64(*dim as u64);
            }
            ProtocolError::UnknownPlan { plan } => {
                w.u8(5);
                plan.encode(w);
            }
            ProtocolError::SessionFinished => w.u8(6),
            ProtocolError::UnknownSession => w.u8(7),
            ProtocolError::EpochGap { have, got } => {
                w.u8(8);
                w.u64(*have);
                w.u64(*got);
            }
            ProtocolError::UnknownCostModel { identity } => {
                w.u8(9);
                w.u64(*identity);
            }
            ProtocolError::DisconnectedJoinGraph => w.u8(10),
        }
    }
}

impl WireDecode for ProtocolError {
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(match r.u8()? {
            0 => ProtocolError::WeightDimensionMismatch {
                expected: r.u64()? as usize,
                got: r.u64()? as usize,
            },
            1 => ProtocolError::BoundsDimensionMismatch {
                expected: r.u64()? as usize,
                got: r.u64()? as usize,
            },
            2 => ProtocolError::EmptyPreferenceOrder,
            3 => ProtocolError::NonFinitePreference,
            4 => ProtocolError::MetricOutOfRange {
                metric: r.u64()? as usize,
                dim: r.u64()? as usize,
            },
            5 => ProtocolError::UnknownPlan {
                plan: PlanId::decode(r)?,
            },
            6 => ProtocolError::SessionFinished,
            7 => ProtocolError::UnknownSession,
            8 => ProtocolError::EpochGap {
                have: r.u64()?,
                got: r.u64()?,
            },
            9 => ProtocolError::UnknownCostModel { identity: r.u64()? },
            10 => ProtocolError::DisconnectedJoinGraph,
            t => return Err(corrupt(format!("unknown protocol error tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Query specs (shared with the frontier snapshot format).
// ---------------------------------------------------------------------------

impl WireEncode for QuerySpec {
    /// Name, catalog (tables with columns), join graph — byte-compatible
    /// with the spec section of the frontier snapshot format, which
    /// delegates here.
    fn encode(&self, w: &mut WireWriter) {
        w.str(&self.name);
        let catalog = &self.catalog;
        w.u32(catalog.len() as u32);
        for (_, table) in catalog.iter() {
            w.str(&table.name);
            w.u64(table.cardinality);
            w.u32(table.row_width);
            w.u32(table.columns.len() as u32);
            for c in &table.columns {
                w.str(&c.name);
                w.u64(c.distinct_values);
                w.u8(match c.role {
                    ColumnRole::PrimaryKey => 0,
                    ColumnRole::ForeignKey => 1,
                    ColumnRole::Attribute => 2,
                });
            }
        }
        let g = &self.graph;
        w.u32(g.n_tables() as u32);
        for tid in &g.tables {
            w.u32(tid.0);
        }
        for &f in &g.filters {
            w.f64(f);
        }
        w.u32(g.edges.len() as u32);
        for e in &g.edges {
            w.u32(e.left as u32);
            w.u32(e.right as u32);
            w.f64(e.selectivity);
        }
    }
}

impl WireDecode for QuerySpec {
    /// Every reference, filter, and selectivity is validated so the
    /// (panicking) `QuerySpec::new` and graph constructors only ever see
    /// well-formed data.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let name = r.str()?;
        let n_catalog = r.count("catalog table")?;
        let mut tables = Vec::with_capacity(n_catalog);
        for _ in 0..n_catalog {
            let tname = r.str()?;
            if tables.iter().any(|t: &Table| t.name == tname) {
                return Err(corrupt(format!("duplicate catalog table {tname:?}")));
            }
            let cardinality = r.u64()?;
            let row_width = r.u32()?;
            let mut table = Table::new(tname, cardinality, row_width);
            let n_cols = r.count("column")?;
            for _ in 0..n_cols {
                let cname = r.str()?;
                let distinct = r.u64()?;
                let role = match r.u8()? {
                    0 => ColumnRole::PrimaryKey,
                    1 => ColumnRole::ForeignKey,
                    2 => ColumnRole::Attribute,
                    t => return Err(corrupt(format!("unknown column role {t}"))),
                };
                table.columns.push(Column::new(cname, distinct, role));
            }
            tables.push(table);
        }
        let catalog = Arc::new(Catalog::new(tables));

        let n_tables = r.count("graph table")?;
        if n_tables == 0 || n_tables > 64 {
            return Err(corrupt(format!(
                "graph table count {n_tables} out of range"
            )));
        }
        let mut graph_tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let tid = r.u32()?;
            if tid as usize >= catalog.len() {
                return Err(corrupt(format!(
                    "graph references table {tid} outside catalog"
                )));
            }
            graph_tables.push(TableId(tid));
        }
        let mut graph = JoinGraph::new(graph_tables);
        for pos in 0..n_tables {
            let f = r.f64()?;
            if !(f > 0.0 && f <= 1.0) {
                return Err(corrupt(format!("filter selectivity {f} outside (0, 1]")));
            }
            graph.set_filter(pos, f);
        }
        let n_edges = r.count("join edge")?;
        for _ in 0..n_edges {
            let left = r.u32()? as usize;
            let right = r.u32()? as usize;
            let sel = r.f64()?;
            if left >= n_tables || right >= n_tables || left == right {
                return Err(corrupt(format!("join edge ({left}, {right}) invalid")));
            }
            if !(sel > 0.0 && sel <= 1.0) {
                return Err(corrupt(format!("edge selectivity {sel} outside (0, 1]")));
            }
            graph.add_edge(left, right, sel);
        }
        Ok(QuerySpec::new(name, graph, catalog))
    }
}

// ---------------------------------------------------------------------------
// Session requests: the one type whose decode needs server-side context.
// ---------------------------------------------------------------------------

impl SessionRequest {
    /// Serializes the request. The optional per-session cost model is
    /// encoded **by identity** ([`moqo_costmodel::CostModel::identity`]);
    /// the decoding side must resolve it against a model registry.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        self.spec.encode(w);
        encode_opt(w, &self.bounds);
        encode_opt(w, &self.schedule);
        match &self.cost_model {
            None => w.bool(false),
            Some(model) => {
                w.bool(true);
                w.u64(model.identity());
            }
        }
        encode_opt(w, &self.preference);
        match self.auto_ticks {
            None => w.bool(false),
            Some(t) => {
                w.bool(true);
                w.u64(t as u64);
            }
        }
    }

    /// Deserializes a request, resolving an encoded cost-model identity
    /// through `models`. An identity the resolver does not know is
    /// [`WireError::UnknownModel`] — the serving layer surfaces it to the
    /// client as [`ProtocolError::UnknownCostModel`].
    pub fn wire_decode(
        r: &mut WireReader<'_>,
        models: &dyn ModelResolver,
    ) -> WireResult<SessionRequest> {
        let spec = Arc::new(QuerySpec::decode(r)?);
        let bounds = decode_opt(r)?;
        let schedule = decode_opt(r)?;
        let cost_model = if r.bool()? {
            let identity = r.u64()?;
            Some(
                models
                    .resolve_model(identity)
                    .ok_or(WireError::UnknownModel { identity })?,
            )
        } else {
            None
        };
        let preference = decode_opt(r)?;
        let auto_ticks = if r.bool()? {
            Some(r.u64()? as usize)
        } else {
            None
        };
        Ok(SessionRequest {
            spec,
            bounds,
            schedule,
            cost_model,
            preference,
            auto_ticks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_costmodel::{SharedCostModel, StandardCostModel};
    use moqo_query::testkit;

    fn model() -> SharedCostModel {
        Arc::new(StandardCostModel::paper_metrics())
    }

    #[test]
    fn command_round_trips() {
        let commands = [
            SessionCommand::Refine,
            SessionCommand::SetBounds(Bounds::unbounded(3).with_limit(1, 42.5)),
            SessionCommand::SetPreference(Some(Preference::Lexicographic {
                order: vec![2, 0, 1],
                tolerance: 0.01,
            })),
            SessionCommand::SetPreference(None),
            SessionCommand::SelectPlan(PlanId(7)),
            SessionCommand::Cancel,
        ];
        for cmd in &commands {
            let bytes = cmd.encode_to_vec();
            assert_eq!(&SessionCommand::decode_exact(&bytes).unwrap(), cmd);
        }
    }

    #[test]
    fn event_round_trips_bit_exactly() {
        let event = SessionEvent {
            epoch: 3,
            delta: FrontierDelta {
                reset: false,
                removed: vec![PlanId(1)],
                added: vec![FrontierPoint {
                    plan: PlanId(9),
                    cost: CostVector::new(&[1.5, f64::INFINITY, 0.25]),
                }],
            },
            resolution: 2,
            bounds: Bounds::from_slice(&[10.0, f64::INFINITY, 1.0]),
            invocations: 5,
            report: None,
            first_report: Some(InvocationReport {
                invocation: 0,
                resolution: 0,
                alpha: 1.55,
                duration: Duration::from_micros(123),
                frontier_size: 4,
                plans_generated: 0,
                candidates_retrieved: 2,
                pairs_generated: 0,
                result_insertions: 1,
                candidate_insertions: 0,
                subsets_visited: 3,
                splits_visited: 0,
                splits_skipped: 7,
                used_delta: true,
            }),
            outcome: Some(SessionOutcome::Selected {
                plan: PlanId(9),
                by_preference: true,
            }),
            coalesced: 4,
        };
        let bytes = event.encode_to_vec();
        assert_eq!(&SessionEvent::decode_exact(&bytes).unwrap(), &event);
    }

    #[test]
    fn admission_and_errors_round_trip() {
        let responses = [
            AdmissionResponse::Admitted,
            AdmissionResponse::Degraded {
                schedule: ResolutionSchedule::linear(2, 1.2, 0.4),
            },
            AdmissionResponse::Queued { position: 3 },
            AdmissionResponse::Rejected(RejectReason::Overloaded { live: 17 }),
            AdmissionResponse::Rejected(RejectReason::QueueFull { depth: 8 }),
        ];
        for resp in &responses {
            let bytes = resp.encode_to_vec();
            assert_eq!(&AdmissionResponse::decode_exact(&bytes).unwrap(), resp);
        }
        let errors = [
            ProtocolError::WeightDimensionMismatch {
                expected: 3,
                got: 1,
            },
            ProtocolError::EmptyPreferenceOrder,
            ProtocolError::NonFinitePreference,
            ProtocolError::MetricOutOfRange { metric: 5, dim: 3 },
            ProtocolError::UnknownPlan { plan: PlanId(12) },
            ProtocolError::SessionFinished,
            ProtocolError::UnknownSession,
            ProtocolError::EpochGap { have: 4, got: 9 },
            ProtocolError::UnknownCostModel {
                identity: 0xdead_beef,
            },
        ];
        for err in &errors {
            let bytes = err.encode_to_vec();
            assert_eq!(&ProtocolError::decode_exact(&bytes).unwrap(), err);
        }
    }

    #[test]
    fn request_round_trips_through_a_resolver() {
        let m = model();
        let request = SessionRequest::new(Arc::new(testkit::chain_query(3, 20_000)))
            .with_bounds(Bounds::unbounded(3))
            .with_schedule(ResolutionSchedule::linear(2, 1.1, 0.3))
            .with_cost_model(m.clone())
            .with_preference(Preference::WeightedSum(vec![1.0, 0.5, 0.1]))
            .with_auto_ticks(4);
        let mut w = WireWriter::new();
        request.wire_encode(&mut w);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        let decoded = SessionRequest::wire_decode(&mut r, &m).unwrap();
        assert!(r.done());
        // Equality via re-encoding: the codec is a pure function of the
        // request, so equal bytes mean equal requests.
        let mut w2 = WireWriter::new();
        decoded.wire_encode(&mut w2);
        assert_eq!(bytes, w2.into_vec());
        assert_eq!(decoded.spec.name, request.spec.name);
        assert_eq!(decoded.auto_ticks, Some(4));
        assert!(decoded.cost_model.is_some());
    }

    #[test]
    fn unknown_model_identity_is_typed_not_guessed() {
        let m = model();
        let request =
            SessionRequest::new(Arc::new(testkit::chain_query(2, 5_000))).with_cost_model(m);
        let mut w = WireWriter::new();
        request.wire_encode(&mut w);
        let bytes = w.into_vec();
        // A resolver that knows nothing: decoding must fail with the
        // identity, not fall back to a default model.
        struct NoModels;
        impl ModelResolver for NoModels {
            fn resolve_model(&self, _identity: u64) -> Option<SharedCostModel> {
                None
            }
        }
        let mut r = WireReader::new(&bytes);
        match SessionRequest::wire_decode(&mut r, &NoModels) {
            Err(WireError::UnknownModel { .. }) => {}
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_at_every_length() {
        let event = SessionEvent {
            epoch: 1,
            delta: FrontierDelta::full(&FrontierSnapshot::new(vec![FrontierPoint {
                plan: PlanId(0),
                cost: CostVector::new(&[1.0, 2.0]),
            }])),
            resolution: 0,
            bounds: Bounds::unbounded(2),
            invocations: 1,
            report: None,
            first_report: None,
            outcome: None,
            coalesced: 0,
        };
        let bytes = event.encode_to_vec();
        for len in 0..bytes.len() {
            assert!(
                SessionEvent::decode_exact(&bytes[..len]).is_err(),
                "truncation at {len} decoded"
            );
        }
    }
}
