//! Length-prefixed FX10SNAP wire framing for the shard fleet.
//!
//! The shard supervisor and each of its worker processes exchange
//! messages over a pair of anonymous pipes: the worker's stdin and
//! stdout. The supervisor spawns every worker itself, on the same host,
//! so the spawn authenticates the peer and the pipes deliver in order
//! without loss. Every message is one *frame*:
//!
//! ```text
//! [ u32 LE frame length ][ FX10SNAP container, exactly that long ]
//! ```
//!
//! The container reuses the durable-snapshot layout from
//! [`crate::snapshot`] — magic, version, tagged sections, trailing
//! FNV-1a-64 checksum — so a torn or corrupted pipe write decodes to a
//! typed [`SnapshotError`], never a panic. Two sections are used:
//!
//! - [`SEC_HEAD`]: `{ kind u32, seq u64 }` — the message kind (one of
//!   the [`kind`] constants) and a per-sender sequence number,
//! - [`SEC_BODY`]: opaque payload bytes owned by the protocol layer
//!   (absent for body-less messages such as `FINISH`).
//!
//! The length prefix is validated against a caller-supplied cap
//! *before* any allocation, so a corrupted length field can never
//! trigger an OOM-sized read.

use crate::snapshot::{SectionBuf, Snapshot, SnapshotError, SnapshotWriter};
use crate::Fx10Error;
use std::io::{self, Read, Write};

/// Section tag of the `{kind, seq}` header.
pub const SEC_HEAD: u32 = 1;
/// Section tag of the opaque body payload.
pub const SEC_BODY: u32 = 2;

/// Version of the shard wire protocol, carried in every `HELLO` so a
/// supervisor refuses a worker binary built from a different tree
/// instead of mis-decoding its frames. Bump it whenever a frame layout
/// or body codec changes (the domain `INIT` and result bodies included) —
/// the byte-golden tests in `tests/wire_golden.rs` make such a change a
/// deliberate diff.
pub const PROTOCOL_VERSION: u32 = 4;

/// Default frame-length cap (64 MiB): far above any real batch, far
/// below an allocation that could hurt.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Message kinds of the shard protocol.
pub mod kind {
    /// Worker → supervisor: first message after spawn; proves the pipe.
    /// Body is the worker's [`super::PROTOCOL_VERSION`] — see
    /// [`super::hello_body`].
    pub const HELLO: u32 = 1;
    /// Supervisor → worker: configuration (program, shard ownership,
    /// checkpoint path, state cap, chaos plan). Body is domain-encoded.
    pub const INIT: u32 = 2;
    /// Either direction: a frontier batch. Body is
    /// `[u32 LE dest shard][domain payload]` — see [`super::batch_body`].
    pub const BATCH: u32 = 3;
    /// Worker → supervisor: the listed batch seqs are now covered by a
    /// durable checkpoint and need no redelivery.
    pub const ACK: u32 = 4;
    /// Worker → supervisor: heartbeat with progress counters.
    pub const PROGRESS: u32 = 5;
    /// Supervisor → worker: quiescence probe (body carries the token).
    pub const PROBE: u32 = 6;
    /// Worker → supervisor: probe reply (token, processed, idle).
    pub const PROBE_REPLY: u32 = 7;
    /// Supervisor → worker: stop exploring, send the result as
    /// `RESULT_PART` frames.
    pub const FINISH: u32 = 8;
    /// Supervisor → worker: adopt a dead sibling's shards (body carries
    /// the shard ids and its last checkpoint, if any).
    pub const ADOPT: u32 = 10;
    /// Worker → supervisor: one bounded slice of the final
    /// domain-encoded result — body is `[u32 index][u32 total][bytes]`,
    /// reassembled in order by the supervisor. A collected result can
    /// be far larger than any sane frame cap, and a single monster frame
    /// reads as peer silence for its whole transfer; parts keep every
    /// frame small and the heartbeat accounting live.
    pub const RESULT_PART: u32 = 15;
    // Kinds 9 and 11–14 are retired: never reuse them, so an old peer's
    // frames read as unexpected kinds rather than as something else.
}

fn kind_name(k: u32) -> &'static str {
    match k {
        kind::HELLO => "HELLO",
        kind::INIT => "INIT",
        kind::BATCH => "BATCH",
        kind::ACK => "ACK",
        kind::PROGRESS => "PROGRESS",
        kind::PROBE => "PROBE",
        kind::PROBE_REPLY => "PROBE_REPLY",
        kind::FINISH => "FINISH",
        kind::ADOPT => "ADOPT",
        kind::RESULT_PART => "RESULT_PART",
        _ => "?",
    }
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// One of the [`kind`] constants.
    pub kind: u32,
    /// Per-sender sequence number.
    pub seq: u64,
    /// Opaque body bytes (empty for body-less kinds).
    pub body: Vec<u8>,
}

impl WireMsg {
    /// A message with the given kind, sequence number and body.
    pub fn new(kind: u32, seq: u64, body: Vec<u8>) -> Self {
        WireMsg { kind, seq, body }
    }

    /// Encodes the FX10SNAP container (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut head = SectionBuf::new();
        head.put_u32(self.kind);
        head.put_u64(self.seq);
        w.add_section(SEC_HEAD, head);
        if !self.body.is_empty() {
            let mut body = SectionBuf::new();
            body.put_bytes(&self.body);
            w.add_section(SEC_BODY, body);
        }
        w.finish()
    }

    /// Encodes the full frame: `[u32 LE length][container]`.
    pub fn frame(&self) -> Vec<u8> {
        let container = self.encode();
        let mut out = Vec::with_capacity(4 + container.len());
        out.extend_from_slice(&(container.len() as u32).to_le_bytes());
        out.extend_from_slice(&container);
        out
    }

    /// Decodes a container produced by [`WireMsg::encode`].
    pub fn decode(bytes: &[u8]) -> Result<WireMsg, SnapshotError> {
        let snap = Snapshot::parse(bytes)?;
        let mut head = snap.section(SEC_HEAD)?;
        let kind = head.get_u32()?;
        let seq = head.get_u64()?;
        head.done()?;
        let body = match snap.section(SEC_BODY) {
            Ok(mut c) => {
                let n = c.remaining();
                c.get_bytes(n)?.to_vec()
            }
            Err(SnapshotError::MissingSection(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(WireMsg { kind, seq, body })
    }

    /// Human-readable kind, for supervision-event traces.
    pub fn kind_name(&self) -> &'static str {
        kind_name(self.kind)
    }
}

fn io_err(e: io::Error) -> Fx10Error {
    Fx10Error::Io {
        path: "<shard pipe>".into(),
        message: e.to_string(),
    }
}

/// Writes one frame and flushes the stream.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> Result<(), Fx10Error> {
    w.write_all(&msg.frame()).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Writes pre-encoded frame bytes (as returned by [`WireMsg::frame`])
/// and flushes — the supervisor's writer threads drain queues of these.
pub fn write_frame_bytes(w: &mut impl Write, frame: &[u8]) -> Result<(), Fx10Error> {
    w.write_all(frame).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; mid-frame EOF, an oversized length prefix and container
/// corruption are all errors. `max_len` caps the allocation a corrupted
/// length field can cause.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<WireMsg>, Fx10Error> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(SnapshotError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(SnapshotError::Malformed(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        ))
        .into());
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Fx10Error::from(SnapshotError::Truncated)
        } else {
            io_err(e)
        }
    })?;
    Ok(Some(WireMsg::decode(&buf)?))
}

// -- body codecs -------------------------------------------------------------
//
// Bodies are flat little-endian records (they live inside an already
// checksummed container, so they carry no framing of their own).

fn body_cursor(body: &[u8]) -> BodyReader<'_> {
    BodyReader {
        bytes: body,
        pos: 0,
    }
}

struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n: usize = self
            .get_u64()?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("count overflows usize".into()))?;
        let need = n
            .checked_mul(elem_size)
            .ok_or_else(|| SnapshotError::Malformed("count overflows usize".into()))?;
        if need > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(
                "trailing bytes in message body".into(),
            ))
        }
    }
}

/// Encodes a `HELLO` body: the sender's protocol version.
pub fn hello_body(proto: u32) -> Vec<u8> {
    proto.to_le_bytes().to_vec()
}

/// Decodes a `HELLO` body into the sender's protocol version.
pub fn parse_hello_body(body: &[u8]) -> Result<u32, SnapshotError> {
    let mut c = body_cursor(body);
    let proto = c.get_u32()?;
    c.done()?;
    Ok(proto)
}

/// Encodes an `ACK` body: the checkpoint-covered batch seqs.
pub fn ack_body(seqs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + seqs.len() * 8);
    out.extend_from_slice(&(seqs.len() as u64).to_le_bytes());
    for s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Decodes an `ACK` body.
pub fn parse_ack_body(body: &[u8]) -> Result<Vec<u64>, SnapshotError> {
    let mut c = body_cursor(body);
    let n = c.get_count(8)?;
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(c.get_u64()?);
    }
    c.done()?;
    Ok(seqs)
}

/// A `PROGRESS` heartbeat: the worker's counters since its last spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// States in the worker's visited set.
    pub visited: u64,
    /// Work-bearing frames (`BATCH`/`ADOPT`) processed this incarnation.
    pub processed: u64,
    /// Is the worker's local frontier empty?
    pub idle: bool,
}

/// Encodes a `PROGRESS` body.
pub fn progress_body(p: &Progress) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&p.visited.to_le_bytes());
    out.extend_from_slice(&p.processed.to_le_bytes());
    out.push(p.idle as u8);
    out
}

/// Decodes a `PROGRESS` body.
pub fn parse_progress_body(body: &[u8]) -> Result<Progress, SnapshotError> {
    let mut c = body_cursor(body);
    let visited = c.get_u64()?;
    let processed = c.get_u64()?;
    let idle = c.get_u8()? != 0;
    c.done()?;
    Ok(Progress {
        visited,
        processed,
        idle,
    })
}

/// Encodes a `PROBE` body (just the round token).
pub fn probe_body(token: u64) -> Vec<u8> {
    token.to_le_bytes().to_vec()
}

/// Decodes a `PROBE` body.
pub fn parse_probe_body(body: &[u8]) -> Result<u64, SnapshotError> {
    let mut c = body_cursor(body);
    let token = c.get_u64()?;
    c.done()?;
    Ok(token)
}

/// Encodes a `PROBE_REPLY` body.
pub fn probe_reply_body(token: u64, processed: u64, idle: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&processed.to_le_bytes());
    out.push(idle as u8);
    out
}

/// Decodes a `PROBE_REPLY` body into `(token, processed, idle)`.
pub fn parse_probe_reply_body(body: &[u8]) -> Result<(u64, u64, bool), SnapshotError> {
    let mut c = body_cursor(body);
    let token = c.get_u64()?;
    let processed = c.get_u64()?;
    let idle = c.get_u8()? != 0;
    c.done()?;
    Ok((token, processed, idle))
}

/// Encodes an `ADOPT` body: the shard ids being transferred plus the
/// dead owner's last durable checkpoint (`None` if it never wrote one).
pub fn adopt_body(shards: &[u32], ckpt: Option<&[u8]>) -> Vec<u8> {
    let ck = ckpt.unwrap_or(&[]);
    let mut out = Vec::with_capacity(16 + shards.len() * 4 + ck.len());
    out.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for s in shards {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(ck.len() as u64).to_le_bytes());
    out.extend_from_slice(ck);
    out
}

/// Decodes an `ADOPT` body into `(shard ids, checkpoint bytes)`.
pub fn parse_adopt_body(body: &[u8]) -> Result<(Vec<u32>, Option<Vec<u8>>), SnapshotError> {
    let mut c = body_cursor(body);
    let n = c.get_count(4)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(c.get_u32()?);
    }
    let len = c.get_count(1)?;
    let ckpt = if len == 0 {
        None
    } else {
        Some(c.take(len)?.to_vec())
    };
    c.done()?;
    Ok((shards, ckpt))
}

/// Encodes a `BATCH` body: the destination shard, then the domain
/// payload (a pruned frontier snapshot).
pub fn batch_body(dest: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&dest.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Peeks the destination shard of a `BATCH` body without copying the
/// payload — all the supervisor needs to route it.
pub fn batch_dest(body: &[u8]) -> Result<u32, SnapshotError> {
    if body.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    Ok(u32::from_le_bytes(body[..4].try_into().unwrap()))
}

/// The domain payload of a `BATCH` body (everything after the dest tag).
pub fn batch_payload(body: &[u8]) -> Result<&[u8], SnapshotError> {
    if body.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    Ok(&body[4..])
}

/// Maximum payload bytes per `RESULT_PART` frame. Small enough that a
/// part transfers well inside any heartbeat window; large enough that
/// a typical collected result fits in a handful of parts.
pub const RESULT_PART_LEN: usize = 4 << 20;

/// Cap on the `total` field of a `RESULT_PART` — bounds the memory a
/// buggy worker can make the supervisor reserve.
pub const MAX_RESULT_PARTS: u32 = 4096;

/// Encodes a `RESULT_PART` body: this part's index, the part count of
/// the whole result, then the payload slice.
pub fn result_part_body(index: u32, total: u32, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + chunk.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(chunk);
    out
}

/// Decodes a `RESULT_PART` body into `(index, total, payload)`.
pub fn parse_result_part_body(body: &[u8]) -> Result<(u32, u32, &[u8]), SnapshotError> {
    if body.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let index = u32::from_le_bytes(body[..4].try_into().unwrap());
    let total = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if total == 0 || index >= total || total > MAX_RESULT_PARTS {
        return Err(SnapshotError::Malformed(format!(
            "result part {index}/{total} out of range"
        )));
    }
    Ok((index, total, &body[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    #[test]
    fn frame_roundtrips_through_a_pipe_buffer() {
        let msgs = [
            WireMsg::new(kind::HELLO, 0, hello_body(PROTOCOL_VERSION)),
            WireMsg::new(kind::BATCH, 7, batch_body(3, b"payload")),
            WireMsg::new(kind::FINISH, 99, Vec::new()),
        ];
        let mut pipe = Vec::new();
        for m in &msgs {
            write_frame(&mut pipe, m).unwrap();
        }
        let mut r = IoCursor::new(pipe);
        for m in &msgs {
            let got = read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert!(
            read_frame(&mut r, MAX_FRAME_LEN).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn mid_frame_eof_is_truncated_not_none() {
        let frame = WireMsg::new(kind::PROGRESS, 1, vec![1, 2, 3]).frame();
        for cut in [1, 3, frame.len() - 1] {
            let mut r = IoCursor::new(frame[..cut].to_vec());
            let err = read_frame(&mut r, MAX_FRAME_LEN).unwrap_err();
            assert_eq!(err.exit_code(), 2, "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let mut r = IoCursor::new(bytes);
        let err = read_frame(&mut r, 1 << 20).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn corrupted_container_is_a_typed_error() {
        let mut frame = WireMsg::new(kind::ACK, 5, ack_body(&[1, 2, 3])).frame();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        let mut r = IoCursor::new(frame);
        let err = read_frame(&mut r, MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn ack_body_roundtrips_and_rejects_lying_counts() {
        let seqs = vec![0, 1, u64::MAX];
        assert_eq!(parse_ack_body(&ack_body(&seqs)).unwrap(), seqs);
        // A count claiming more seqs than the body holds must fail
        // before allocating.
        let mut lie = Vec::new();
        lie.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_ack_body(&lie).is_err());
    }

    #[test]
    fn hello_body_roundtrips_and_rejects_trailing_bytes() {
        assert_eq!(parse_hello_body(&hello_body(7)).unwrap(), 7);
        assert!(parse_hello_body(&[]).is_err());
        assert!(parse_hello_body(&[0; 5]).is_err());
    }

    #[test]
    fn progress_and_probe_bodies_roundtrip() {
        let p = Progress {
            visited: 42,
            processed: 7,
            idle: true,
        };
        assert_eq!(parse_progress_body(&progress_body(&p)).unwrap(), p);
        assert_eq!(parse_probe_body(&probe_body(12)).unwrap(), 12);
        assert_eq!(
            parse_probe_reply_body(&probe_reply_body(12, 3, false)).unwrap(),
            (12, 3, false)
        );
    }

    #[test]
    fn adopt_body_roundtrips_with_and_without_checkpoint() {
        let (shards, ckpt) = parse_adopt_body(&adopt_body(&[2, 5], Some(b"SNAP"))).unwrap();
        assert_eq!(shards, vec![2, 5]);
        assert_eq!(ckpt.as_deref(), Some(&b"SNAP"[..]));
        let (shards, ckpt) = parse_adopt_body(&adopt_body(&[9], None)).unwrap();
        assert_eq!(shards, vec![9]);
        assert!(ckpt.is_none());
    }

    #[test]
    fn batch_dest_peeks_without_parsing_the_payload() {
        let body = batch_body(11, &[0xFF; 64]);
        assert_eq!(batch_dest(&body).unwrap(), 11);
        assert_eq!(batch_payload(&body).unwrap().len(), 64);
        assert!(batch_dest(&[1, 2]).is_err());
    }
}
