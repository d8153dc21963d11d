//! Connection plumbing: handshake, length-prefixed frames, and the
//! incremental frame reassembler.

use moqo_core::{ProtocolError, WireError};
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every wire connection, in both directions.
pub const WIRE_MAGIC: [u8; 8] = *b"MOQOWIRE";

/// Current wire protocol version. Bumped whenever the frame layout or any
/// message codec changes incompatibly. Version 2 added the `coalesced`
/// epoch-range counter to the `SessionEvent` codec. Version 3 retired
/// the frontier-transfer control messages (client tags 2 and 3, server
/// tag 3), so a peer that still sends them is refused at the hello.
pub const WIRE_VERSION: u32 = 3;

/// Bytes of one handshake hello: magic plus little-endian version.
pub const HELLO_LEN: usize = WIRE_MAGIC.len() + 4;

/// Hard cap on one frame's payload length. A length prefix beyond this is
/// treated as corruption (or hostility) and the connection is dropped —
/// real payloads are orders of magnitude smaller, and the cap keeps a
/// flipped length byte from triggering a gigabyte allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Why a connection-level operation failed.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// A frame payload failed to decode.
    Wire(WireError),
    /// The peer answered a typed protocol error.
    Protocol(ProtocolError),
    /// The peer's hello does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The peer speaks an unsupported wire version.
    UnsupportedVersion(u32),
    /// A frame length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u64),
    /// The connection closed mid-stream (before the session finished).
    Disconnected,
    /// The peer sent a frame that is invalid in the current connection
    /// state (e.g. an event before the admission response).
    UnexpectedFrame(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::BadMagic => write!(f, "peer did not send the MOQOWIRE magic"),
            NetError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "peer speaks wire version {v}, this build speaks {WIRE_VERSION}"
                )
            }
            NetError::FrameTooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            NetError::Disconnected => write!(f, "connection closed mid-stream"),
            NetError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        NetError::Protocol(e)
    }
}

/// The hello either side sends on connect: magic plus version.
pub fn client_hello() -> [u8; HELLO_LEN] {
    let mut hello = [0u8; HELLO_LEN];
    hello[..8].copy_from_slice(&WIRE_MAGIC);
    hello[8..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    hello
}

/// Validates a received hello (magic first, then version, so a stray
/// connection from some other protocol reads as [`NetError::BadMagic`],
/// not a bogus version number).
pub fn check_hello(hello: &[u8; HELLO_LEN]) -> Result<(), NetError> {
    if hello[..8] != WIRE_MAGIC {
        return Err(NetError::BadMagic);
    }
    let version = u32::from_le_bytes(hello[8..].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Writes one frame (length prefix + payload) to a blocking writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "oversized frame authored");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one complete frame from a blocking reader.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame reassembly for nonblocking reads: feed raw bytes in
/// with [`FrameBuffer::extend`], take complete frames (and the raw
/// handshake prefix) out.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix; compacted lazily so steady-state pumping does not
    /// memmove the buffer once per frame.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Takes exactly `n` raw bytes (the unframed handshake), if buffered.
    pub fn take_raw(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.pending().len() < n {
            return None;
        }
        let out = self.pending()[..n].to_vec();
        self.start += n;
        Some(out)
    }

    /// Takes the next complete frame payload, if one is buffered.
    /// `Ok(None)` means "need more bytes"; an oversized length prefix is
    /// a connection-fatal [`NetError::FrameTooLarge`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let pending = self.pending();
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge(len as u64));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.pending().len()
    }
}

/// Outbound counterpart of [`FrameBuffer`] for nonblocking writes: queue
/// frames (and raw handshake bytes) in, flush as much as the socket
/// accepts out, keep the rest for the next write-readiness event.
#[derive(Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    /// Flushed prefix; compacted lazily, mirroring [`FrameBuffer`].
    start: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues raw bytes (the unframed handshake hello).
    pub fn push_raw(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Queues one frame (length prefix + payload).
    pub fn push_frame(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() <= MAX_FRAME, "oversized frame authored");
        self.compact();
        self.buf.reserve(4 + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Writes queued bytes until the socket stops accepting them.
    /// `Ok(true)` means fully drained; `Ok(false)` means the peer's
    /// buffers are full (`WouldBlock`) and bytes remain — re-flush on
    /// the next write-readiness event. Any other error is
    /// connection-fatal.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when nothing is waiting to be flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_and_rejects_skew() {
        let hello = client_hello();
        assert!(check_hello(&hello).is_ok());
        let mut bad_magic = hello;
        bad_magic[0] ^= 0xff;
        assert!(matches!(check_hello(&bad_magic), Err(NetError::BadMagic)));
        // A version-2 peer still speaks the retired frontier messages.
        for skew in [2u32, 99] {
            let mut bad_version = hello;
            bad_version[8..].copy_from_slice(&skew.to_le_bytes());
            assert!(matches!(
                check_hello(&bad_version),
                Err(NetError::UnsupportedVersion(v)) if v == skew
            ));
        }
    }

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        write_frame(&mut pipe, &[7u8; 300]).unwrap();
        let mut r = pipe.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 300]);
        assert!(matches!(
            read_frame(&mut r),
            Err(NetError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"beta").unwrap();
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn write_buffer_survives_partial_writes_and_wouldblock() {
        // A writer that accepts a few bytes at a time and periodically
        // reports WouldBlock — the worst-case slow reader.
        struct Throttled {
            accepted: Vec<u8>,
            budget: usize,
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = self.budget.min(buf.len()).min(3);
                self.accepted.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut wb = WriteBuffer::new();
        wb.push_raw(b"HI");
        wb.push_frame(b"alpha");
        wb.push_frame(&[9u8; 40]);
        let total = wb.pending();
        assert_eq!(total, 2 + 4 + 5 + 4 + 40);

        let mut sink = Throttled {
            accepted: Vec::new(),
            budget: 0,
        };
        let mut rounds = 0;
        loop {
            assert!(rounds < 100, "flush failed to make progress");
            rounds += 1;
            if wb.flush_to(&mut sink).unwrap() {
                break;
            }
            assert!(!wb.is_empty());
            sink.budget = 7; // the "socket" drained a little
        }
        assert!(wb.is_empty());
        // The byte stream reassembles exactly: raw prefix, then frames.
        assert_eq!(&sink.accepted[..2], b"HI");
        let mut fb = FrameBuffer::new();
        fb.extend(&sink.accepted[2..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"alpha");
        assert_eq!(fb.next_frame().unwrap().unwrap(), vec![9u8; 40]);
        assert_eq!(fb.buffered(), 0);
        // Queueing after a drain keeps working (compaction path).
        wb.push_frame(b"tail");
        let mut open = Throttled {
            accepted: Vec::new(),
            budget: usize::MAX,
        };
        assert!(wb.flush_to(&mut open).unwrap());
        let mut fb = FrameBuffer::new();
        fb.extend(&open.accepted);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"tail");
    }

    #[test]
    fn hostile_length_prefix_is_fatal_not_an_allocation() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(NetError::FrameTooLarge(_))));
        let mut r: &[u8] = &u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut r),
            Err(NetError::FrameTooLarge(_))
        ));
    }
}
