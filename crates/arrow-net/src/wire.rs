//! The arrow-net wire format: a compact hand-rolled binary codec for protocol and
//! control frames.
//!
//! Every frame on a socket is length-prefixed and carries a versioned header, so a
//! peer can reject traffic from a different protocol revision (or random garbage)
//! before interpreting a single payload byte:
//!
//! ```text
//! [len: u32 LE]  [magic: u8 = 0xA7]  [version: u8]  [kind: u8]  [payload ...]
//!  └ bytes after the prefix ┘
//! ```
//!
//! Payload fields are fixed-width little-endian integers: request ids are `u64`,
//! object ids `u32`, node ids `u32` (a directory with more than `u32::MAX` nodes is
//! far beyond this runtime's ambitions; encoding checks the bound). The codec does
//! not depend on the serde shim's encoding — it *is* the interchange format, byte
//! stable across builds, and every frame's payload length is checked exactly
//! ([`WireError::TrailingBytes`] rejects over-long payloads rather than ignoring
//! them).
//!
//! [`Frame`] covers the full [`ProtoMsg`] surface (so centralized-baseline traffic
//! can share the codec) plus the control frames the mesh needs: the `Hello`/`Welcome`
//! join handshake, the `Goodbye` shutdown notice, and the `Token` grant that moves an
//! object's exclusion token between peers.

use arrow_core::prelude::{ObjectId, ProtoMsg, RequestId};
use netgraph::NodeId;
use std::io::{Read, Write};

/// First byte of every frame after the length prefix.
pub const WIRE_MAGIC: u8 = 0xA7;

/// Wire protocol revision. Bump on any layout change; peers reject mismatches.
/// Version 2 added the recovery-epoch stamp to `Queue`, `Found` and `Token`
/// frames and the `Epoch` detection broadcast.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on the length prefix. Arrow frames are tiny (≤ 35 bytes today); any
/// larger claim is a corrupt or hostile stream and is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 256;

mod kind {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const GOODBYE: u8 = 0x03;
    pub const ISSUE: u8 = 0x10;
    pub const QUEUE: u8 = 0x11;
    pub const FOUND: u8 = 0x12;
    pub const CENTRAL_ENQUEUE: u8 = 0x13;
    pub const CENTRAL_REPLY: u8 = 0x14;
    pub const EPOCH: u8 = 0x15;
    pub const TOKEN: u8 = 0x20;
}

/// One unit of traffic between two peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// Join handshake, dialer → accepter: "I am node `node`".
    Hello {
        /// The dialing node's id.
        node: NodeId,
    },
    /// Join handshake, accepter → dialer: "and I am node `node`".
    Welcome {
        /// The accepting node's id.
        node: NodeId,
    },
    /// Clean shutdown notice: no further frames will be sent on this connection.
    Goodbye,
    /// A queuing-protocol message (shared with the simulator tier).
    Proto(ProtoMsg),
    /// Object `obj`'s exclusion token, granting request `req` (the wire form of
    /// [`arrow_core::live::CoreAction::SendToken`]), stamped with the sender's recovery
    /// epoch — a stale-epoch token is a ghost from before a regeneration and is
    /// rejected on receipt.
    Token {
        /// Object whose token moves.
        obj: ObjectId,
        /// The request being granted.
        req: RequestId,
        /// Recovery epoch the token belongs to.
        epoch: u64,
    },
}

/// Why a byte sequence is not a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer or stream ended before the frame was complete.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The first header byte is not [`WIRE_MAGIC`].
    BadMagic(u8),
    /// The peer speaks a different wire revision.
    UnsupportedVersion(u8),
    /// Unknown frame kind tag.
    UnknownKind(u8),
    /// The payload is longer than the frame kind's layout allows.
    TrailingBytes {
        /// The frame kind whose payload overflowed.
        kind: u8,
        /// How many unexpected extra bytes followed the payload.
        extra: usize,
    },
    /// An I/O error while reading from a stream.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::FrameTooLarge(len) => {
                write!(
                    f,
                    "length prefix {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::TrailingBytes { kind, extra } => {
                write!(f, "{extra} trailing bytes after frame kind {kind:#04x}")
            }
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_node(out: &mut Vec<u8>, v: NodeId) {
    let v = u32::try_from(v).expect("node id exceeds the u32 wire range");
    put_u32(out, v);
}

/// A cursor over a frame payload with exact-length accounting.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Payload { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos.checked_add(N).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        // `slice` has exactly N bytes by construction; map the impossible
        // mismatch into the error path rather than panicking in the decoder.
        slice.try_into().map_err(|_| WireError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(self.u32()? as NodeId)
    }

    fn finish(self, kind: u8) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                kind,
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => kind::HELLO,
            Frame::Welcome { .. } => kind::WELCOME,
            Frame::Goodbye => kind::GOODBYE,
            Frame::Proto(ProtoMsg::Issue { .. }) => kind::ISSUE,
            Frame::Proto(ProtoMsg::Queue { .. }) => kind::QUEUE,
            Frame::Proto(ProtoMsg::Found { .. }) => kind::FOUND,
            Frame::Proto(ProtoMsg::CentralEnqueue { .. }) => kind::CENTRAL_ENQUEUE,
            Frame::Proto(ProtoMsg::CentralReply { .. }) => kind::CENTRAL_REPLY,
            Frame::Proto(ProtoMsg::Epoch { .. }) => kind::EPOCH,
            Frame::Token { .. } => kind::TOKEN,
        }
    }

    /// Encode the frame, including its length prefix, into a fresh buffer.
    ///
    /// # Panics
    /// If a node id exceeds `u32::MAX` (the wire range).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Append the frame's wire encoding (length prefix included) to `out`,
    /// leaving existing bytes in place. This is the zero-allocation encode path:
    /// the writer keeps one reusable buffer per link and appends every frame of a
    /// coalesced batch before a single `write_all`, so steady-state encoding
    /// performs no heap allocation at all.
    ///
    /// # Panics
    /// If a node id exceeds `u32::MAX` (the wire range).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let base = out.len();
        out.extend_from_slice(&[0, 0, 0, 0]); // length prefix, patched below
        out.push(WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        match *self {
            Frame::Hello { node } | Frame::Welcome { node } => put_node(out, node),
            Frame::Goodbye => {}
            Frame::Proto(ProtoMsg::Issue { req, obj }) => {
                put_u64(out, req.0);
                put_u32(out, obj.0);
            }
            Frame::Proto(ProtoMsg::Queue {
                req,
                obj,
                origin,
                epoch,
            }) => {
                put_u64(out, req.0);
                put_u32(out, obj.0);
                put_node(out, origin);
                put_u64(out, epoch);
            }
            Frame::Proto(ProtoMsg::CentralEnqueue { req, obj, origin }) => {
                put_u64(out, req.0);
                put_u32(out, obj.0);
                put_node(out, origin);
            }
            Frame::Proto(ProtoMsg::Found {
                req,
                obj,
                pred,
                epoch,
            }) => {
                put_u64(out, req.0);
                put_u32(out, obj.0);
                put_u64(out, pred.0);
                put_u64(out, epoch);
            }
            Frame::Proto(ProtoMsg::CentralReply { req, obj, pred }) => {
                put_u64(out, req.0);
                put_u32(out, obj.0);
                put_u64(out, pred.0);
            }
            Frame::Proto(ProtoMsg::Epoch { epoch }) => put_u64(out, epoch),
            Frame::Token { obj, req, epoch } => {
                put_u32(out, obj.0);
                put_u64(out, req.0);
                put_u64(out, epoch);
            }
        }
        let len = (out.len() - base - 4) as u32;
        debug_assert!(len <= MAX_FRAME_LEN);
        out[base..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Decode one frame from the front of `buf`. Returns the frame and the number of
    /// bytes consumed (length prefix included).
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        let prefix: [u8; 4] = buf
            .get(..4)
            .ok_or(WireError::Truncated)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        let body = buf.get(4..total).ok_or(WireError::Truncated)?;
        let frame = Frame::decode_body(body)?;
        Ok((frame, total))
    }

    /// Decode a frame body (everything after the length prefix).
    fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut p = Payload::new(body);
        let [magic] = p.take::<1>()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let [version] = p.take::<1>()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let [kind] = p.take::<1>()?;
        let frame = match kind {
            kind::HELLO => Frame::Hello { node: p.node()? },
            kind::WELCOME => Frame::Welcome { node: p.node()? },
            kind::GOODBYE => Frame::Goodbye,
            kind::ISSUE => Frame::Proto(ProtoMsg::Issue {
                req: RequestId(p.u64()?),
                obj: ObjectId(p.u32()?),
            }),
            kind::QUEUE => Frame::Proto(ProtoMsg::Queue {
                req: RequestId(p.u64()?),
                obj: ObjectId(p.u32()?),
                origin: p.node()?,
                epoch: p.u64()?,
            }),
            kind::FOUND => Frame::Proto(ProtoMsg::Found {
                req: RequestId(p.u64()?),
                obj: ObjectId(p.u32()?),
                pred: RequestId(p.u64()?),
                epoch: p.u64()?,
            }),
            kind::CENTRAL_ENQUEUE => Frame::Proto(ProtoMsg::CentralEnqueue {
                req: RequestId(p.u64()?),
                obj: ObjectId(p.u32()?),
                origin: p.node()?,
            }),
            kind::CENTRAL_REPLY => Frame::Proto(ProtoMsg::CentralReply {
                req: RequestId(p.u64()?),
                obj: ObjectId(p.u32()?),
                pred: RequestId(p.u64()?),
            }),
            kind::EPOCH => Frame::Proto(ProtoMsg::Epoch { epoch: p.u64()? }),
            kind::TOKEN => Frame::Token {
                obj: ObjectId(p.u32()?),
                req: RequestId(p.u64()?),
                epoch: p.u64()?,
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        p.finish(kind)?;
        Ok(frame)
    }

    /// Write the frame to a stream. Returns the number of bytes written.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let bytes = self.encode();
        w.write_all(&bytes)?;
        Ok(bytes.len())
    }

    /// Scan one frame out of the front of a growing receive buffer.
    ///
    /// Unlike [`Frame::decode`], an *incomplete* frame (the length prefix or the
    /// declared payload has not fully arrived yet) is `Ok(None)` — the caller
    /// should read more bytes and try again — while a frame that is complete but
    /// malformed is a hard error. This is the distinction the batched reader
    /// needs: it reads whole kernel buffers at a time and decodes every complete
    /// frame out of its scratch buffer, so "not enough bytes yet" is routine and
    /// must not be confused with corruption.
    pub fn scan(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        let Some(prefix) = buf.get(..4) else {
            return Ok(None);
        };
        let prefix: [u8; 4] = prefix.try_into().map_err(|_| WireError::Truncated)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        let Some(body) = buf.get(4..total) else {
            return Ok(None);
        };
        Ok(Some((Frame::decode_body(body)?, total)))
    }

    /// Read exactly one frame from a stream (blocking until it is complete).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        Frame::decode_body(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_control_frame() {
        for frame in [
            Frame::Hello { node: 0 },
            Frame::Welcome {
                node: 4_000_000_000usize,
            },
            Frame::Goodbye,
            Frame::Token {
                obj: ObjectId(u32::MAX),
                req: RequestId(u64::MAX),
                epoch: 0,
            },
        ] {
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn roundtrip_every_proto_variant() {
        let req = RequestId(0x0123_4567_89AB_CDEF);
        let obj = ObjectId(7);
        for msg in [
            ProtoMsg::Issue { req, obj },
            ProtoMsg::Queue {
                req,
                obj,
                origin: 42,
                epoch: 0,
            },
            ProtoMsg::Found {
                req,
                obj,
                pred: RequestId::ROOT,
                epoch: 0,
            },
            ProtoMsg::CentralEnqueue {
                req,
                obj,
                origin: 0,
            },
            ProtoMsg::CentralReply {
                req,
                obj,
                pred: RequestId(1),
            },
            ProtoMsg::Epoch { epoch: 0xDEAD_BEEF },
        ] {
            let frame = Frame::Proto(msg);
            let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = [
            Frame::Hello { node: 3 },
            Frame::Proto(ProtoMsg::Queue {
                req: RequestId(9),
                obj: ObjectId(1),
                origin: 3,
                epoch: 0,
            }),
            Frame::Token {
                obj: ObjectId(1),
                req: RequestId(9),
                epoch: 0,
            },
            Frame::Goodbye,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), *f);
        }
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap_err(),
            WireError::Truncated,
            "clean EOF at a frame boundary reads as truncation"
        );
    }

    #[test]
    fn encode_into_appends_without_disturbing_earlier_frames() {
        let mut buf = Vec::new();
        let frames = [
            Frame::Hello { node: 3 },
            Frame::Token {
                obj: ObjectId(1),
                req: RequestId(9),
                epoch: 0,
            },
            Frame::Goodbye,
        ];
        for f in &frames {
            f.encode_into(&mut buf);
        }
        let mut at = 0;
        for f in &frames {
            let (decoded, used) = Frame::decode(&buf[at..]).unwrap();
            assert_eq!(decoded, *f);
            at += used;
        }
        assert_eq!(at, buf.len(), "no stray bytes between coalesced frames");
    }

    #[test]
    fn scan_distinguishes_incomplete_from_malformed() {
        let bytes = Frame::Hello { node: 7 }.encode();
        // Every strict prefix is "not yet": more bytes may complete it.
        for cut in 0..bytes.len() {
            assert_eq!(Frame::scan(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
        // The complete frame scans out with its exact length.
        let (frame, used) = Frame::scan(&bytes).unwrap().unwrap();
        assert_eq!(frame, Frame::Hello { node: 7 });
        assert_eq!(used, bytes.len());
        // A complete frame whose payload is short for its kind is corruption,
        // not "need more data" — waiting for more bytes would hang the link.
        let mut short = Frame::Hello { node: 7 }.encode();
        short.truncate(short.len() - 1);
        let len = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(Frame::scan(&short).unwrap_err(), WireError::Truncated);
        // An oversized length prefix is rejected before any allocation.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::scan(&huge).unwrap_err(),
            WireError::FrameTooLarge(u32::MAX)
        );
    }

    #[test]
    fn scan_walks_a_coalesced_batch() {
        let frames = [
            Frame::Proto(ProtoMsg::Queue {
                req: RequestId(5),
                obj: ObjectId(0),
                origin: 2,
                epoch: 0,
            }),
            Frame::Token {
                obj: ObjectId(0),
                req: RequestId(5),
                epoch: 0,
            },
            Frame::Goodbye,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.encode_into(&mut buf);
        }
        // Append a partial fourth frame: the scan must stop cleanly before it.
        let tail = Frame::Hello { node: 1 }.encode();
        buf.extend_from_slice(&tail[..5]);
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((frame, used)) = Frame::scan(&buf[at..]).unwrap() {
            seen.push(frame);
            at += used;
        }
        assert_eq!(seen, frames);
        assert_eq!(buf.len() - at, 5, "partial frame left in the buffer");
    }

    #[test]
    fn bad_magic_version_kind_are_rejected() {
        let good = Frame::Goodbye.encode();
        let mut bad_magic = good.clone();
        bad_magic[4] = 0x00;
        assert_eq!(
            Frame::decode(&bad_magic).unwrap_err(),
            WireError::BadMagic(0x00)
        );
        let mut bad_version = good.clone();
        bad_version[5] = WIRE_VERSION + 1;
        assert_eq!(
            Frame::decode(&bad_version).unwrap_err(),
            WireError::UnsupportedVersion(WIRE_VERSION + 1)
        );
        let mut bad_kind = good;
        bad_kind[6] = 0xEE;
        assert_eq!(
            Frame::decode(&bad_kind).unwrap_err(),
            WireError::UnknownKind(0xEE)
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Frame::Goodbye.encode();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::FrameTooLarge(u32::MAX)
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = Frame::Hello { node: 1 }.encode();
        bytes.push(0xFF);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::TrailingBytes {
                kind: 0x01,
                extra: 1
            }
        );
    }
}
