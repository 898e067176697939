//! Length-prefixed binary wire codec for the storage service.
//!
//! Every unit on the wire is a **frame**: a little-endian `u32` payload
//! length followed by that many payload bytes. The payload is a
//! [`WireMsg`] — a one-byte kind, then the fields in fixed little-endian
//! layouts (variable-length collections carry a `u32` count). Frames are
//! self-delimiting, so any number of them can be packed back-to-back
//! into one socket write (the event loop's per-connection coalescing)
//! and chopped arbitrarily by the transport (the [`FrameReader`]
//! reassembles split frames across reads).
//!
//! ## Allocation discipline
//!
//! The encode path appends to a caller-owned `Vec<u8>` and the decode
//! path borrows from the [`FrameReader`]'s internal buffer; both reuse
//! their buffers across messages, so once the buffers have grown to the
//! working-set size the steady-state encode/decode of the hot operation
//! messages ([`StoreMsg::Query`], [`StoreMsg::QueryAck`],
//! [`StoreMsg::Store`], [`StoreMsg::StoreAck`], [`StoreMsg::Invoke`])
//! performs **zero heap allocations** — pinned by the counting-allocator
//! test in `tests/codec_alloc.rs`, the same technique as the simulator's
//! `noop_alloc`. Messages carrying member lists (reconfiguration path)
//! allocate exactly their `Vec`s on decode.
//!
//! ## Robustness
//!
//! Decoding never panics: truncated payloads, unknown kinds/tags,
//! non-UTF-8 addresses, and oversized or short frames all surface as
//! [`CodecError`]s (property-tested in `tests/codec_props.rs`, including
//! garbage prefixes and random split points). A frame longer than
//! [`MAX_FRAME`] is rejected *before* buffering, so a corrupt length
//! prefix cannot balloon memory.

use dds_core::process::ProcessId;
use dds_core::spec::register::RegOp;
use dds_store::msg::{OpTag, Stamp, StoreMsg};

/// Upper bound on a frame payload. Generously above the largest honest
/// message (a roster or member list of [`MAX_LIST`] entries), far below
/// anything that could hurt: a length prefix beyond this is garbage.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on decoded collection lengths (members, candidates,
/// roster entries). Honest deployments are tiny; a huge count with a
/// small payload is rejected by the truncation checks anyway, but
/// bounding it first keeps the worst case O(small).
pub const MAX_LIST: usize = 4096;

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the message did.
    Truncated,
    /// Unknown message kind or `StoreMsg` tag byte.
    BadTag(u8),
    /// A declared frame or collection length exceeds its bound.
    TooLarge(usize),
    /// The payload has bytes left over after the message.
    TrailingBytes(usize),
    /// An address field is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::TooLarge(n) => write!(f, "declared length {n} over bound"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadUtf8 => write!(f, "address not utf-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Everything that crosses a service socket.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Connection preamble: who is speaking on this connection. A
    /// process hosting several protocol identities (a load generator
    /// thread) sends one `Hello` per identity; `addr` is where the
    /// sender can be dialed back, empty for processes that do not
    /// listen (clients).
    Hello {
        /// The protocol identity.
        pid: ProcessId,
        /// [`ROLE_REPLICA`] or [`ROLE_CLIENT`].
        role: u8,
        /// Dial-back address (`uds:<path>` / `tcp:<host:port>`), or
        /// empty.
        addr: String,
    },
    /// The seed's membership broadcast: every identity it currently
    /// knows, with role and dial address.
    Roster {
        /// `(pid, role, addr)` per known process, in pid order.
        entries: Vec<(ProcessId, u8, String)>,
    },
    /// A protocol message from `from` to `to` (frames are addressed so
    /// one connection can multiplex many hosted identities).
    Proto {
        /// Sending protocol identity.
        from: ProcessId,
        /// Receiving protocol identity.
        to: ProcessId,
        /// The protocol payload.
        msg: StoreMsg,
    },
}

/// `Hello::role` of a quorum replica (listens, serves phases).
pub const ROLE_REPLICA: u8 = 0;
/// `Hello::role` of a client-only process (does not listen).
pub const ROLE_CLIENT: u8 = 1;

// --- encoding ------------------------------------------------------------

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_pid(buf: &mut Vec<u8>, p: ProcessId) {
    put_u64(buf, p.as_raw());
}

#[inline]
fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

#[inline]
fn put_stamp(buf: &mut Vec<u8>, s: Stamp) {
    put_u64(buf, s.seq);
    put_u64(buf, s.writer);
}

#[inline]
fn put_tag(buf: &mut Vec<u8>, t: OpTag) {
    put_u64(buf, t.seq);
    put_u32(buf, t.attempt);
}

fn put_pids(buf: &mut Vec<u8>, pids: &[ProcessId]) {
    put_u32(buf, pids.len() as u32);
    for &p in pids {
        put_pid(buf, p);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_reg_op(buf: &mut Vec<u8>, op: RegOp) {
    match op {
        RegOp::Read => buf.push(0),
        RegOp::Write(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
    }
}

fn put_store_msg(buf: &mut Vec<u8>, msg: &StoreMsg) {
    match msg {
        StoreMsg::Invoke(op) => {
            buf.push(0);
            put_reg_op(buf, *op);
        }
        StoreMsg::Reconfigure { members } => {
            buf.push(1);
            put_pids(buf, members);
        }
        StoreMsg::Query { tag, epoch } => {
            buf.push(2);
            put_tag(buf, *tag);
            put_u64(buf, *epoch);
        }
        StoreMsg::Store {
            tag,
            epoch,
            stamp,
            value,
        } => {
            buf.push(3);
            put_tag(buf, *tag);
            put_u64(buf, *epoch);
            put_stamp(buf, *stamp);
            put_opt_u64(buf, *value);
        }
        StoreMsg::ViewReq => buf.push(4),
        StoreMsg::QueryAck { tag, stamp, value } => {
            buf.push(5);
            put_tag(buf, *tag);
            put_stamp(buf, *stamp);
            put_opt_u64(buf, *value);
        }
        StoreMsg::StoreAck { tag } => {
            buf.push(6);
            put_tag(buf, *tag);
        }
        StoreMsg::Fenced {
            tag,
            epoch,
            members,
        } => {
            buf.push(7);
            put_tag(buf, *tag);
            put_u64(buf, *epoch);
            put_pids(buf, members);
        }
        StoreMsg::ViewRep { epoch, members } => {
            buf.push(8);
            put_u64(buf, *epoch);
            put_pids(buf, members);
        }
        StoreMsg::Announce => buf.push(9),
        StoreMsg::Announce2 { joiner } => {
            buf.push(10);
            put_pid(buf, *joiner);
        }
        StoreMsg::Probe { epoch } => {
            buf.push(11);
            put_u64(buf, *epoch);
        }
        StoreMsg::ProbeAck { epoch, candidates } => {
            buf.push(12);
            put_u64(buf, *epoch);
            put_pids(buf, candidates);
        }
        StoreMsg::RecQuery { epoch, members } => {
            buf.push(13);
            put_u64(buf, *epoch);
            put_pids(buf, members);
        }
        StoreMsg::RecAck {
            epoch,
            base,
            stamp,
            value,
        } => {
            buf.push(14);
            put_u64(buf, *epoch);
            put_u64(buf, *base);
            put_stamp(buf, *stamp);
            put_opt_u64(buf, *value);
        }
        StoreMsg::Migrate {
            epoch,
            members,
            stamp,
            value,
        } => {
            buf.push(15);
            put_u64(buf, *epoch);
            put_pids(buf, members);
            put_stamp(buf, *stamp);
            put_opt_u64(buf, *value);
        }
        StoreMsg::MigrateAck { epoch } => {
            buf.push(16);
            put_u64(buf, *epoch);
        }
    }
}

/// Appends one framed message to `buf` (length prefix included). `buf`
/// is the connection's coalescing write buffer: successive calls pack
/// frames back-to-back and one `write` flushes them all.
pub fn encode_frame(buf: &mut Vec<u8>, msg: &WireMsg) {
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    match msg {
        WireMsg::Hello { pid, role, addr } => {
            buf.push(0);
            put_pid(buf, *pid);
            buf.push(*role);
            put_str(buf, addr);
        }
        WireMsg::Roster { entries } => {
            buf.push(1);
            put_u32(buf, entries.len() as u32);
            for (pid, role, addr) in entries {
                put_pid(buf, *pid);
                buf.push(*role);
                put_str(buf, addr);
            }
        }
        WireMsg::Proto { from, to, msg } => {
            buf.push(2);
            put_pid(buf, *from);
            put_pid(buf, *to);
            put_store_msg(buf, msg);
        }
    }
    let payload = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
}

// --- decoding ------------------------------------------------------------

/// A zero-copy cursor over one frame payload.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.at + n > self.b.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn pid(&mut self) -> Result<ProcessId, CodecError> {
        Ok(ProcessId::from_raw(self.u64()?))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    fn stamp(&mut self) -> Result<Stamp, CodecError> {
        Ok(Stamp {
            seq: self.u64()?,
            writer: self.u64()?,
        })
    }

    fn tag(&mut self) -> Result<OpTag, CodecError> {
        Ok(OpTag {
            seq: self.u64()?,
            attempt: self.u32()?,
        })
    }

    fn list_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_LIST {
            return Err(CodecError::TooLarge(n));
        }
        Ok(n)
    }

    fn pids(&mut self) -> Result<Vec<ProcessId>, CodecError> {
        let n = self.list_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.pid()?);
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(CodecError::TooLarge(n));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    fn reg_op(&mut self) -> Result<RegOp, CodecError> {
        match self.u8()? {
            0 => Ok(RegOp::Read),
            1 => Ok(RegOp::Write(self.u64()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    fn store_msg(&mut self) -> Result<StoreMsg, CodecError> {
        Ok(match self.u8()? {
            0 => StoreMsg::Invoke(self.reg_op()?),
            1 => StoreMsg::Reconfigure {
                members: self.pids()?,
            },
            2 => StoreMsg::Query {
                tag: self.tag()?,
                epoch: self.u64()?,
            },
            3 => StoreMsg::Store {
                tag: self.tag()?,
                epoch: self.u64()?,
                stamp: self.stamp()?,
                value: self.opt_u64()?,
            },
            4 => StoreMsg::ViewReq,
            5 => StoreMsg::QueryAck {
                tag: self.tag()?,
                stamp: self.stamp()?,
                value: self.opt_u64()?,
            },
            6 => StoreMsg::StoreAck { tag: self.tag()? },
            7 => StoreMsg::Fenced {
                tag: self.tag()?,
                epoch: self.u64()?,
                members: self.pids()?,
            },
            8 => StoreMsg::ViewRep {
                epoch: self.u64()?,
                members: self.pids()?,
            },
            9 => StoreMsg::Announce,
            10 => StoreMsg::Announce2 {
                joiner: self.pid()?,
            },
            11 => StoreMsg::Probe { epoch: self.u64()? },
            12 => StoreMsg::ProbeAck {
                epoch: self.u64()?,
                candidates: self.pids()?,
            },
            13 => StoreMsg::RecQuery {
                epoch: self.u64()?,
                members: self.pids()?,
            },
            14 => StoreMsg::RecAck {
                epoch: self.u64()?,
                base: self.u64()?,
                stamp: self.stamp()?,
                value: self.opt_u64()?,
            },
            15 => StoreMsg::Migrate {
                epoch: self.u64()?,
                members: self.pids()?,
                stamp: self.stamp()?,
                value: self.opt_u64()?,
            },
            16 => StoreMsg::MigrateAck { epoch: self.u64()? },
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

/// Decodes one frame payload (no length prefix). The whole payload must
/// be consumed — trailing bytes are an error, so a frame cannot smuggle
/// a second message past the reader.
pub fn decode_frame(payload: &[u8]) -> Result<WireMsg, CodecError> {
    let mut c = Cur { b: payload, at: 0 };
    let msg = match c.u8()? {
        0 => WireMsg::Hello {
            pid: c.pid()?,
            role: c.u8()?,
            addr: c.string()?,
        },
        1 => {
            let n = c.list_len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((c.pid()?, c.u8()?, c.string()?));
            }
            WireMsg::Roster { entries }
        }
        2 => WireMsg::Proto {
            from: c.pid()?,
            to: c.pid()?,
            msg: c.store_msg()?,
        },
        t => return Err(CodecError::BadTag(t)),
    };
    if c.at != payload.len() {
        return Err(CodecError::TrailingBytes(payload.len() - c.at));
    }
    Ok(msg)
}

/// Reassembles frames from an arbitrarily-chopped byte stream.
///
/// Feed raw reads with [`FrameReader::extend`]; pull complete payloads
/// with [`FrameReader::next_payload`], which borrows from the internal
/// buffer (decode before the next `extend`). The buffer is compacted
/// opportunistically and retained across frames, so steady-state
/// operation allocates nothing once it has grown to the high-water mark.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix (compacted away once the buffer drains or grows).
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: if everything buffered has been
        // consumed, restart at the front so capacity is reused instead
        // of extended.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Returns the next complete frame payload, `Ok(None)` when more
    /// bytes are needed, or [`CodecError::TooLarge`] when the length
    /// prefix exceeds [`MAX_FRAME`] (the connection should be dropped —
    /// the stream cannot be resynchronized).
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if len > MAX_FRAME {
            return Err(CodecError::TooLarge(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_single() {
        let msg = WireMsg::Proto {
            from: ProcessId::from_raw(7),
            to: ProcessId::from_raw(1),
            msg: StoreMsg::Query {
                tag: OpTag { seq: 3, attempt: 2 },
                epoch: 9,
            },
        };
        let mut buf = Vec::new();
        encode_frame(&mut buf, &msg);
        let mut r = FrameReader::new();
        r.extend(&buf);
        let payload = r.next_payload().unwrap().unwrap();
        assert_eq!(decode_frame(payload).unwrap(), msg);
        assert!(r.next_payload().unwrap().is_none());
    }

    #[test]
    fn split_frames_reassemble() {
        let msgs = [
            WireMsg::Hello {
                pid: ProcessId::from_raw(1),
                role: ROLE_REPLICA,
                addr: "uds:/tmp/x.sock".into(),
            },
            WireMsg::Proto {
                from: ProcessId::from_raw(1),
                to: ProcessId::from_raw(2),
                msg: StoreMsg::Announce,
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode_frame(&mut buf, m);
        }
        // Feed a byte at a time.
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for &b in &buf {
            r.extend(&[b]);
            while let Some(p) = r.next_payload().unwrap() {
                got.push(decode_frame(p).unwrap());
            }
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn oversize_frame_rejected() {
        let mut r = FrameReader::new();
        r.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(r.next_payload(), Err(CodecError::TooLarge(MAX_FRAME + 1)));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[200]).is_err());
        assert!(decode_frame(&[2, 1, 2, 3]).is_err());
        // Valid frame with trailing junk.
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            &WireMsg::Proto {
                from: ProcessId::from_raw(0),
                to: ProcessId::from_raw(1),
                msg: StoreMsg::ViewReq,
            },
        );
        let mut payload = buf[4..].to_vec();
        payload.push(0xFF);
        assert!(matches!(
            decode_frame(&payload),
            Err(CodecError::TrailingBytes(1))
        ));
    }
}
