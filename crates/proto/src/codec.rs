//! Binary codec for the wire protocol.
//!
//! Frames are length-independent (self-describing); all integers are
//! little-endian. A request frame is:
//!
//! ```text
//! magic (2B, 0x5056 "PV") | version (1B) | opcode (1B)
//! client id (4B) | request id (8B) | opcode-specific body
//! ```
//!
//! List I/O requests put their region list *after* the fixed header as
//! trailing data — `count (4B)` then `count × (offset 8B, len 8B)` —
//! reproducing the paper's "variable sized trailing data" extension of
//! the PVFS I/O request structure. [`encode_message`] enforces the
//! [`MAX_LIST_REGIONS`] and single-frame limits;
//! bulk data (write payload / read response data) is *not* part of the
//! request frame — it streams behind it, and is appended after the frame
//! here.
//!
//! The simulator charges network time for exactly `encode_message(m).len()`
//! bytes, so frame layout is load-bearing for the reproduced figures.
//!
//! # Trace context (version 2 frames)
//!
//! A traced request carries its [`TraceContext`] — trace id (8B) and
//! parent span id (8B) — immediately after the request id, signalled by
//! version byte [`VERSION_TRACED`]. Untraced requests keep version
//! [`VERSION`] and the original layout, so `PVFS_TRACE=off` produces
//! frames byte-identical to a pre-tracing build, and old-format frames
//! decode unchanged ([`decode_frame`] accepts both).

use crate::limits::{list_request_fits_frame, MAX_LIST_REGIONS, MAX_VECTOR_RUNS};

use crate::message::{Message, Request, Response, VectorRun};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pvfs_types::{
    ClientId, FileHandle, Histogram, PvfsError, PvfsResult, Region, RegionList, RequestId, Span,
    SpanId, StatsSnapshot, StripeLayout, TraceContext, TraceId,
};

const MAGIC: u16 = 0x5056; // "PV"
const VERSION: u8 = 1;
/// Version byte of frames carrying a 16-byte trace context after the
/// request id. Everything else about the layout is identical to
/// [`VERSION`] frames.
pub const VERSION_TRACED: u8 = 2;

// Request opcodes.
const OP_CREATE: u8 = 1;
const OP_OPEN: u8 = 2;
const OP_CLOSE: u8 = 3;
const OP_REMOVE: u8 = 4;
const OP_GET_LOCAL_SIZE: u8 = 5;
const OP_READ: u8 = 6;
const OP_WRITE: u8 = 7;
const OP_READ_LIST: u8 = 8;
const OP_WRITE_LIST: u8 = 9;
const OP_READ_VECTORS: u8 = 10;
const OP_WRITE_VECTORS: u8 = 11;
const OP_LIST_DIR: u8 = 12;
const OP_GET_STATS: u8 = 13;
const OP_RESET_STATS: u8 = 14;
const OP_SYNC: u8 = 15;
const OP_FLUSH: u8 = 16;
const OP_PING: u8 = 17;
const OP_STRIPE_DIGEST: u8 = 18;
const OP_TRUNCATE: u8 = 19;
const OP_GET_TRACE: u8 = 20;

// Response opcodes.
const RESP_CREATED: u8 = 1;
const RESP_OPENED: u8 = 2;
const RESP_CLOSED: u8 = 3;
const RESP_REMOVED: u8 = 4;
const RESP_LOCAL_SIZE: u8 = 5;
const RESP_DATA: u8 = 6;
const RESP_WRITTEN: u8 = 7;
const RESP_ERROR: u8 = 8;
const RESP_LISTING: u8 = 9;
const RESP_STATS: u8 = 10;
const RESP_SYNCED: u8 = 11;
const RESP_FLUSHED: u8 = 12;
const RESP_PONG: u8 = 13;
const RESP_DIGESTS: u8 = 14;
const RESP_SPANS: u8 = 15;

// Error variant tags.
const ERR_INVALID_ARGUMENT: u8 = 1;
const ERR_NO_SUCH_FILE: u8 = 2;
const ERR_ALREADY_EXISTS: u8 = 3;
const ERR_BAD_HANDLE: u8 = 4;
const ERR_PROTOCOL: u8 = 5;
const ERR_STORAGE: u8 = 6;
const ERR_TRANSPORT: u8 = 7;
const ERR_NO_SUCH_SERVER: u8 = 8;
const ERR_TIMEOUT: u8 = 9;
const ERR_FRAME_TOO_LARGE: u8 = 10;
const ERR_CONFIG: u8 = 11;
const ERR_UNAVAILABLE: u8 = 12;
const ERR_OVERLOADED: u8 = 13;

/// A wire frame in two parts: `head ‖ payload` is the frame, byte for
/// byte what [`encode_message`] (a request; plus the trace context, when
/// there is one) or [`encode_response`] (a reply) produces in one
/// buffer.
///
/// In all three write requests the bulk payload is the last field, so
/// the frame splits cleanly behind the payload's length word: `head` is
/// everything the encoder writes (header, trace context, layout, region
/// list, payload length), `payload` is the buffer the client gathered —
/// shared, never copied behind the head. Every other request is all
/// head. A [`Response::Data`] reply splits the same way behind its
/// [`data_response_head`]; every other reply is all head. A stream
/// transport writes the two parts with one vectored write; the channel
/// transport hands both over untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Everything before the bulk payload (the whole frame when there
    /// is none, or when it arrived contiguous off a socket).
    pub head: Bytes,
    /// A write request's or data reply's bulk payload; empty otherwise.
    pub payload: Bytes,
}

impl Frame {
    /// Bytes the frame occupies on the wire (before any stream framing).
    pub fn len(&self) -> usize {
        self.head.len() + self.payload.len()
    }

    /// True iff both parts are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A frame received (or encoded) as one contiguous buffer.
impl From<Bytes> for Frame {
    fn from(head: Bytes) -> Frame {
        Frame {
            head,
            payload: Bytes::new(),
        }
    }
}

/// Encode a request message to its wire frame (header + trailing data +
/// bulk payload). Always an untraced [`VERSION`] frame — the historical
/// layout, byte for byte.
pub fn encode_message(m: &Message) -> PvfsResult<Bytes> {
    // Exactly the frame: a frame sized short of its region list regrows,
    // and a regrow re-copies everything written so far.
    let len = request_head_len(&m.request, None) + m.request.bulk_len() as usize;
    let mut buf = BytesMut::with_capacity(len);
    if let Some(payload) = put_head(&mut buf, m.client, m.id, &m.request, None)? {
        buf.put_slice(payload);
    }
    Ok(buf.freeze())
}

/// Encode a request as a two-part [`Frame`] in a buffer of its own:
/// [`encode_frame_into`] for callers with no spare to offer.
pub fn encode_frame(m: &Message, ctx: Option<TraceContext>) -> PvfsResult<Frame> {
    let head = BytesMut::with_capacity(request_head_len(&m.request, ctx));
    encode_frame_into(m.client, m.id, &m.request, ctx, head)
}

/// Encode a request as a two-part [`Frame`] — the same head encoder as
/// [`encode_message`], with a write's payload shared instead of copied
/// behind it — attaching `ctx` as a [`VERSION_TRACED`] frame when
/// present. `ctx: None` is byte-identical to [`encode_message`], which
/// is what pins `PVFS_TRACE=off` to zero wire overhead.
///
/// The head is written into `head` (cleared first), which becomes the
/// frame's: a caller that takes the frame's head back once every handle
/// on it is gone ([`Bytes::try_into_mut`]) and passes it in again encodes
/// without allocating. [`request_head_len`] is the room it needs. The
/// request is only borrowed: nothing of it is cloned but the handle on a
/// write's payload.
pub fn encode_frame_into(
    client: ClientId,
    id: RequestId,
    request: &Request,
    ctx: Option<TraceContext>,
    mut head: BytesMut,
) -> PvfsResult<Frame> {
    head.clear();
    let payload = put_head(&mut head, client, id, request, ctx)?;
    Ok(Frame {
        payload: payload.cloned().unwrap_or_default(),
        head: head.freeze(),
    })
}

/// Exact size of a request frame's head: everything before the bulk
/// payload, the trace context included when there is one.
pub fn request_head_len(request: &Request, ctx: Option<TraceContext>) -> usize {
    request.control_wire_size() as usize + if ctx.is_some() { 16 } else { 0 }
}

/// The one request encoder: write everything up to (and including) a
/// write request's payload length into `buf` and return the payload that
/// belongs behind it — `None` for requests that carry none.
fn put_head<'m>(
    buf: &mut BytesMut,
    client: ClientId,
    id: RequestId,
    request: &'m Request,
    ctx: Option<TraceContext>,
) -> PvfsResult<Option<&'m Bytes>> {
    buf.put_u16_le(MAGIC);
    buf.put_u8(if ctx.is_some() {
        VERSION_TRACED
    } else {
        VERSION
    });
    buf.put_u8(opcode(request));
    buf.put_u32_le(client.0);
    buf.put_u64_le(id.0);
    if let Some(ctx) = ctx {
        buf.put_u64_le(ctx.trace.0);
        buf.put_u64_le(ctx.parent.0);
    }
    let mut payload = None;
    match request {
        Request::Create { path, layout } => {
            put_string(buf, path);
            put_layout(buf, layout);
        }
        Request::Open { path } => put_string(buf, path),
        Request::Close { handle } => buf.put_u64_le(handle.0),
        Request::Remove { path } => put_string(buf, path),
        Request::ListDir => {}
        Request::GetLocalSize { handle } => buf.put_u64_le(handle.0),
        Request::Read {
            handle,
            layout,
            region,
        } => {
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_region(buf, *region);
        }
        Request::Write {
            handle,
            layout,
            region,
            data,
        } => {
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_region(buf, *region);
            buf.put_u64_le(data.len() as u64);
            payload = Some(data);
        }
        Request::ReadList {
            handle,
            layout,
            regions,
        } => {
            check_list(regions)?;
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_trailing(buf, regions);
        }
        Request::WriteList {
            handle,
            layout,
            regions,
            data,
        } => {
            check_list(regions)?;
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_trailing(buf, regions);
            buf.put_u64_le(data.len() as u64);
            payload = Some(data);
        }
        Request::ReadVectors {
            handle,
            layout,
            runs,
        } => {
            check_runs(runs)?;
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_runs(buf, runs);
        }
        Request::WriteVectors {
            handle,
            layout,
            runs,
            data,
        } => {
            check_runs(runs)?;
            buf.put_u64_le(handle.0);
            put_layout(buf, layout);
            put_runs(buf, runs);
            buf.put_u64_le(data.len() as u64);
            payload = Some(data);
        }
        Request::Sync { handle } => buf.put_u64_le(handle.0),
        Request::Flush => {}
        Request::GetStats | Request::ResetStats | Request::Ping => {}
        Request::StripeDigest { handle, chunk } => {
            buf.put_u64_le(handle.0);
            buf.put_u64_le(*chunk);
        }
        Request::Truncate { handle, size } => {
            buf.put_u64_le(handle.0);
            buf.put_u64_le(*size);
        }
        Request::GetTrace { trace } => buf.put_u64_le(trace.0),
    }
    Ok(payload)
}

/// True when `frame` is a well-formed header whose opcode is a control
/// scrape (`GetStats`/`ResetStats`/`GetTrace`). Transports use this to
/// keep the observer out of the observation: scrape frames are excluded
/// from a daemon's `bytes_rx`/`bytes_tx`/`frames_rx` accounting and its
/// queue/service histograms, so a scraped snapshot equals an in-process
/// snapshot taken at the same moment — and scraping traces never adds
/// spans to the traces being scraped.
pub fn frame_is_stats_scrape(frame: &Bytes) -> bool {
    frame.len() >= 4
        && frame[0..2] == MAGIC.to_le_bytes()
        && (frame[2] == VERSION || frame[2] == VERSION_TRACED)
        && (frame[3] == OP_GET_STATS || frame[3] == OP_RESET_STATS || frame[3] == OP_GET_TRACE)
}

/// Extract the request id from a frame's fixed header without decoding
/// the body. Returns `Some(id)` when the frame is long enough and its
/// magic and version check out — the body may still be malformed.
///
/// Servers use this to echo the *real* request id on error responses
/// for frames whose body fails to decode, so clients can attribute the
/// failure to the request that caused it instead of receiving the
/// unattributable id 0.
pub fn decode_frame_id(frame: &Bytes) -> Option<RequestId> {
    let mut buf = frame.clone();
    if buf.remaining() < 16 {
        return None;
    }
    if buf.get_u16_le() != MAGIC {
        return None;
    }
    let version = buf.get_u8();
    if version != VERSION && version != VERSION_TRACED {
        return None;
    }
    let _opcode = buf.get_u8();
    let _client = buf.get_u32_le();
    Some(RequestId(buf.get_u64_le()))
}

/// Decode a contiguous request frame, dropping any trace context.
pub fn decode_message(buf: Bytes) -> PvfsResult<Message> {
    decode_frame(buf.into()).map(|(m, _)| m)
}

/// Decode a request [`Frame`] — the one request decoder — returning the
/// trace context when the frame is a [`VERSION_TRACED`] one. Old-format
/// ([`VERSION`]) frames decode exactly as before with `None` — backward
/// compatibility is pinned by the codec regression and fuzz tests. A
/// contiguous buffer converts with `.into()`. A write's
/// payload is taken (as an O(1) view) from whichever part holds it: the
/// tail of a contiguous frame, as a socket delivers it, or the payload
/// part of a frame split at the head/payload boundary, as
/// [`encode_frame`] builds it. A payload part shorter than announced, or
/// bytes left over in either part, are the same typed errors a short or
/// over-long contiguous frame gets.
pub fn decode_frame(frame: Frame) -> PvfsResult<(Message, Option<TraceContext>)> {
    decode_frame_reusing(frame, &mut RegionList::new())
}

/// [`decode_frame`], with a list request's regions decoded into the
/// storage `spare` holds — taken out of it, refilled in place when no
/// other handle shares it ([`RegionList::clear`]) — so that a daemon
/// that puts each served request's list back ([`Request::into_regions`])
/// decodes the next one without allocating. A spare with no room for a
/// full list (a fresh one, say) is replaced by one with room for
/// [`MAX_LIST_REGIONS`], whatever this frame's count: every later frame
/// fits.
pub fn decode_frame_reusing(
    frame: Frame,
    spare: &mut RegionList,
) -> PvfsResult<(Message, Option<TraceContext>)> {
    let Frame {
        head: mut buf,
        mut payload,
    } = frame;
    let magic = get_u16(&mut buf)?;
    if magic != MAGIC {
        return Err(PvfsError::protocol(format!("bad magic {magic:#06x}")));
    }
    let version = get_u8(&mut buf)?;
    if version != VERSION && version != VERSION_TRACED {
        return Err(PvfsError::protocol(format!(
            "unsupported version {version}"
        )));
    }
    let op = get_u8(&mut buf)?;
    let client = ClientId(get_u32(&mut buf)?);
    let id = RequestId(get_u64(&mut buf)?);
    let ctx = if version == VERSION_TRACED {
        Some(TraceContext {
            trace: TraceId(get_u64(&mut buf)?),
            parent: SpanId(get_u64(&mut buf)?),
        })
    } else {
        None
    };
    let request = match op {
        OP_CREATE => {
            let path = get_string(&mut buf)?;
            let layout = get_layout(&mut buf)?;
            Request::Create { path, layout }
        }
        OP_OPEN => Request::Open {
            path: get_string(&mut buf)?,
        },
        OP_CLOSE => Request::Close {
            handle: FileHandle(get_u64(&mut buf)?),
        },
        OP_REMOVE => Request::Remove {
            path: get_string(&mut buf)?,
        },
        OP_LIST_DIR => Request::ListDir,
        OP_GET_LOCAL_SIZE => Request::GetLocalSize {
            handle: FileHandle(get_u64(&mut buf)?),
        },
        OP_READ => Request::Read {
            handle: FileHandle(get_u64(&mut buf)?),
            layout: get_layout(&mut buf)?,
            region: get_region(&mut buf)?,
        },
        OP_WRITE => {
            let handle = FileHandle(get_u64(&mut buf)?);
            let layout = get_layout(&mut buf)?;
            let region = get_region(&mut buf)?;
            let data = get_payload(&mut buf, &mut payload)?;
            Request::Write {
                handle,
                layout,
                region,
                data,
            }
        }
        OP_READ_LIST => {
            let handle = FileHandle(get_u64(&mut buf)?);
            let layout = get_layout(&mut buf)?;
            let regions = get_trailing(&mut buf, spare)?;
            Request::ReadList {
                handle,
                layout,
                regions,
            }
        }
        OP_WRITE_LIST => {
            let handle = FileHandle(get_u64(&mut buf)?);
            let layout = get_layout(&mut buf)?;
            let regions = get_trailing(&mut buf, spare)?;
            let data = get_payload(&mut buf, &mut payload)?;
            Request::WriteList {
                handle,
                layout,
                regions,
                data,
            }
        }
        OP_READ_VECTORS => Request::ReadVectors {
            handle: FileHandle(get_u64(&mut buf)?),
            layout: get_layout(&mut buf)?,
            runs: get_runs(&mut buf)?,
        },
        OP_WRITE_VECTORS => {
            let handle = FileHandle(get_u64(&mut buf)?);
            let layout = get_layout(&mut buf)?;
            let runs = get_runs(&mut buf)?;
            let data = get_payload(&mut buf, &mut payload)?;
            Request::WriteVectors {
                handle,
                layout,
                runs,
                data,
            }
        }
        OP_SYNC => Request::Sync {
            handle: FileHandle(get_u64(&mut buf)?),
        },
        OP_FLUSH => Request::Flush,
        OP_GET_STATS => Request::GetStats,
        OP_RESET_STATS => Request::ResetStats,
        OP_PING => Request::Ping,
        OP_STRIPE_DIGEST => Request::StripeDigest {
            handle: FileHandle(get_u64(&mut buf)?),
            chunk: get_u64(&mut buf)?,
        },
        OP_TRUNCATE => Request::Truncate {
            handle: FileHandle(get_u64(&mut buf)?),
            size: get_u64(&mut buf)?,
        },
        OP_GET_TRACE => Request::GetTrace {
            trace: TraceId(get_u64(&mut buf)?),
        },
        other => return Err(PvfsError::protocol(format!("unknown opcode {other}"))),
    };
    let garbage = buf.remaining() + payload.remaining();
    if garbage > 0 {
        return Err(PvfsError::protocol(format!(
            "{garbage} bytes of garbage after frame"
        )));
    }
    Ok((
        Message {
            client,
            id,
            request,
        },
        ctx,
    ))
}

/// Bytes of the envelope every response frame starts with: magic,
/// version, echoed request id.
pub const RESPONSE_ENVELOPE_LEN: usize = 2 + 1 + 8;

/// Bytes of a [`Response::Data`] frame before its payload: envelope,
/// tag, payload length.
pub const DATA_HEAD_LEN: usize = RESPONSE_ENVELOPE_LEN + 1 + 8;

/// Every response frame starts with this: magic, version, echoed id.
fn put_response_envelope(buf: &mut impl BufMut, id: RequestId) {
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(id.0);
}

/// The head of a [`Response::Data`] frame carrying `payload_len` bytes:
/// `head ‖ payload` is byte for byte what [`encode_response`] produces.
/// A stream transport writes the two parts with one vectored write, so
/// the payload is never staged behind its head in a second buffer.
pub fn data_response_head(id: RequestId, payload_len: u64) -> [u8; DATA_HEAD_LEN] {
    let mut head = [0u8; DATA_HEAD_LEN];
    let mut w = &mut head[..];
    put_response_envelope(&mut w, id);
    w.put_u8(RESP_DATA);
    w.put_u64_le(payload_len);
    head
}

/// The frame of `resp` if it is a fixed-size reply — a tag and at most
/// one word: every acknowledgement of the data path (`Written`,
/// `Synced`, `Flushed`, `Pong`, `LocalSize`) and of the manager
/// (`Created`, `Closed`, `Removed`) — in an array as long as the longest
/// of them, and its length; `None` for the variable-size replies. (A
/// `Data` reply's fixed part is [`data_response_head`].)
fn short_response(id: RequestId, resp: &Response) -> Option<([u8; DATA_HEAD_LEN], usize)> {
    let (tag, word) = match resp {
        Response::Created { handle } => (RESP_CREATED, Some(handle.0)),
        Response::Closed => (RESP_CLOSED, None),
        Response::Removed => (RESP_REMOVED, None),
        Response::LocalSize { size } => (RESP_LOCAL_SIZE, Some(*size)),
        Response::Written { bytes } => (RESP_WRITTEN, Some(*bytes)),
        Response::Synced { durable } => (RESP_SYNCED, Some(*durable)),
        Response::Flushed { files } => (RESP_FLUSHED, Some(*files)),
        Response::Pong { queue_depth } => (RESP_PONG, Some(*queue_depth)),
        _ => return None,
    };
    let mut frame = [0u8; DATA_HEAD_LEN];
    let mut w = &mut frame[..];
    put_response_envelope(&mut w, id);
    w.put_u8(tag);
    if let Some(word) = word {
        w.put_u64_le(word);
    }
    let len = DATA_HEAD_LEN - w.len();
    Some((frame, len))
}

/// Encode a response frame (echoing the request id). A fixed-size reply
/// — every acknowledgement there is — is put together on the stack and
/// comes back inside the `Bytes` ([`bytes::INLINE_CAP`]): nothing is
/// allocated for it, and nothing about it depends on when its receiver
/// drops it.
pub fn encode_response(id: RequestId, resp: &Response) -> Bytes {
    if let Some((frame, len)) = short_response(id, resp) {
        return Bytes::copy_from_slice(&frame[..len]);
    }
    if let Response::Data { data } = resp {
        let mut buf = BytesMut::with_capacity(DATA_HEAD_LEN + data.len());
        buf.put_slice(&data_response_head(id, data.len() as u64));
        buf.put_slice(data);
        return buf.freeze();
    }
    let mut buf = BytesMut::with_capacity(32);
    put_response_envelope(&mut buf, id);
    match resp {
        Response::Opened { handle, layout } => {
            buf.put_u8(RESP_OPENED);
            buf.put_u64_le(handle.0);
            put_layout(&mut buf, layout);
        }
        Response::Listing { paths } => {
            buf.put_u8(RESP_LISTING);
            buf.put_u32_le(paths.len() as u32);
            for p in paths {
                put_string_mut(&mut buf, p);
            }
        }
        Response::Digests {
            version,
            size,
            chunks,
        } => {
            buf.put_u8(RESP_DIGESTS);
            buf.put_u64_le(*version);
            buf.put_u64_le(*size);
            buf.put_u32_le(chunks.len() as u32);
            for c in chunks {
                buf.put_u64_le(*c);
            }
        }
        Response::Stats(snap) => {
            buf.put_u8(RESP_STATS);
            put_stats(&mut buf, snap);
        }
        Response::Spans(spans) => {
            buf.put_u8(RESP_SPANS);
            buf.put_u32_le(spans.len() as u32);
            for s in spans {
                put_span(&mut buf, s);
            }
        }
        Response::Error(e) => {
            buf.put_u8(RESP_ERROR);
            put_error(&mut buf, e);
        }
        _ => unreachable!("the fixed-size replies and `Data` are encoded above"),
    }
    buf.freeze()
}

/// Extract the echoed request id from a response frame's envelope
/// without decoding the body, which may be malformed: what lets a client
/// with several requests on one connection tell whose reply failed to
/// decode.
pub fn decode_response_id(frame: &Bytes) -> Option<RequestId> {
    let mut buf = frame.clone();
    if buf.remaining() < RESPONSE_ENVELOPE_LEN
        || buf.get_u16_le() != MAGIC
        || buf.get_u8() != VERSION
    {
        return None;
    }
    Some(RequestId(buf.get_u64_le()))
}

/// Decode a contiguous response frame, returning the echoed request id
/// and the response.
pub fn decode_response(buf: Bytes) -> PvfsResult<(RequestId, Response)> {
    decode_response_frame(buf.into())
}

/// Decode a response [`Frame`] — the one response decoder. A
/// [`Response::Data`] payload is taken (as an O(1) view) from whichever
/// part holds it: the tail of a contiguous frame, as a socket delivers
/// it, or the payload part behind a [`data_response_head`], as the
/// channel transport hands it over. A payload part shorter than
/// announced, or bytes left over in either part, are the same typed
/// errors a short or over-long contiguous frame gets.
pub fn decode_response_frame(frame: Frame) -> PvfsResult<(RequestId, Response)> {
    let Frame {
        head: mut buf,
        mut payload,
    } = frame;
    let magic = get_u16(&mut buf)?;
    if magic != MAGIC {
        return Err(PvfsError::protocol(format!("bad magic {magic:#06x}")));
    }
    let version = get_u8(&mut buf)?;
    if version != VERSION {
        return Err(PvfsError::protocol(format!(
            "unsupported version {version}"
        )));
    }
    let id = RequestId(get_u64(&mut buf)?);
    let tag = get_u8(&mut buf)?;
    let resp = match tag {
        RESP_CREATED => Response::Created {
            handle: FileHandle(get_u64(&mut buf)?),
        },
        RESP_OPENED => Response::Opened {
            handle: FileHandle(get_u64(&mut buf)?),
            layout: get_layout(&mut buf)?,
        },
        RESP_CLOSED => Response::Closed,
        RESP_REMOVED => Response::Removed,
        RESP_LISTING => {
            let n = get_u32(&mut buf)? as usize;
            if n > 1_000_000 {
                return Err(PvfsError::protocol("absurd listing length"));
            }
            let mut paths = Vec::with_capacity(n);
            for _ in 0..n {
                paths.push(get_string(&mut buf)?);
            }
            Response::Listing { paths }
        }
        RESP_LOCAL_SIZE => Response::LocalSize {
            size: get_u64(&mut buf)?,
        },
        RESP_DATA => Response::Data {
            data: get_payload(&mut buf, &mut payload)?,
        },
        RESP_WRITTEN => Response::Written {
            bytes: get_u64(&mut buf)?,
        },
        RESP_SYNCED => Response::Synced {
            durable: get_u64(&mut buf)?,
        },
        RESP_FLUSHED => Response::Flushed {
            files: get_u64(&mut buf)?,
        },
        RESP_PONG => Response::Pong {
            queue_depth: get_u64(&mut buf)?,
        },
        RESP_DIGESTS => {
            let version = get_u64(&mut buf)?;
            let size = get_u64(&mut buf)?;
            let n = get_u32(&mut buf)? as usize;
            // Bound the allocation by the bytes actually present, so a
            // forged count cannot balloon memory before the reads fail.
            if buf.remaining() < n * 8 {
                return Err(PvfsError::protocol(format!(
                    "digest response claims {n} chunks but only {} bytes remain",
                    buf.remaining()
                )));
            }
            let mut chunks = Vec::with_capacity(n);
            for _ in 0..n {
                chunks.push(get_u64(&mut buf)?);
            }
            Response::Digests {
                version,
                size,
                chunks,
            }
        }
        RESP_STATS => Response::Stats(Box::new(get_stats(&mut buf)?)),
        RESP_SPANS => {
            let n = get_u32(&mut buf)? as usize;
            // A span is at least 52 bytes on the wire; bound the
            // allocation by the bytes actually present, as for digests.
            if buf.remaining() < n * 52 {
                return Err(PvfsError::protocol(format!(
                    "span response claims {n} spans but only {} bytes remain",
                    buf.remaining()
                )));
            }
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                spans.push(get_span(&mut buf)?);
            }
            Response::Spans(spans)
        }
        RESP_ERROR => Response::Error(get_error(&mut buf)?),
        other => return Err(PvfsError::protocol(format!("unknown response tag {other}"))),
    };
    let garbage = buf.remaining() + payload.remaining();
    if garbage > 0 {
        return Err(PvfsError::protocol(format!(
            "{garbage} bytes of garbage after response"
        )));
    }
    Ok((id, resp))
}

/// Frame size split for cost accounting: `(control bytes, bulk bytes)`.
/// Control = header + trailing data; bulk = streamed payload.
pub fn frame_sizes(m: &Message) -> PvfsResult<(u64, u64)> {
    let total = encode_message(m)?.len() as u64;
    let bulk = m.request.bulk_len();
    // Write frames carry an 8-byte bulk length prefix counted as control.
    Ok((total - bulk, bulk))
}

fn check_runs(runs: &[VectorRun]) -> PvfsResult<()> {
    if runs.is_empty() {
        return Err(PvfsError::protocol("vector request with no runs"));
    }
    if runs.len() > MAX_VECTOR_RUNS {
        return Err(PvfsError::protocol(format!(
            "vector request with {} runs exceeds the {MAX_VECTOR_RUNS}-run frame limit",
            runs.len()
        )));
    }
    for run in runs {
        run.validate()
            .map_err(|e| PvfsError::protocol(format!("invalid vector run: {e}")))?;
    }
    Ok(())
}

fn put_runs(buf: &mut BytesMut, runs: &[VectorRun]) {
    buf.put_u32_le(runs.len() as u32);
    for run in runs {
        buf.put_u64_le(run.base);
        buf.put_u64_le(run.blocklen);
        buf.put_u64_le(run.stride);
        buf.put_u64_le(run.count);
    }
}

fn get_runs(buf: &mut Bytes) -> PvfsResult<Vec<VectorRun>> {
    let count = get_u32(buf)? as usize;
    if count == 0 || count > MAX_VECTOR_RUNS {
        return Err(PvfsError::protocol(format!(
            "vector run count {count} out of range 1..={MAX_VECTOR_RUNS}"
        )));
    }
    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        let run = VectorRun {
            base: get_u64(buf)?,
            blocklen: get_u64(buf)?,
            stride: get_u64(buf)?,
            count: get_u64(buf)?,
        };
        run.validate()
            .map_err(|e| PvfsError::protocol(format!("invalid vector run on wire: {e}")))?;
        runs.push(run);
    }
    Ok(runs)
}

fn opcode(r: &Request) -> u8 {
    match r {
        Request::Create { .. } => OP_CREATE,
        Request::Open { .. } => OP_OPEN,
        Request::Close { .. } => OP_CLOSE,
        Request::Remove { .. } => OP_REMOVE,
        Request::ListDir => OP_LIST_DIR,
        Request::GetLocalSize { .. } => OP_GET_LOCAL_SIZE,
        Request::Read { .. } => OP_READ,
        Request::Write { .. } => OP_WRITE,
        Request::ReadList { .. } => OP_READ_LIST,
        Request::WriteList { .. } => OP_WRITE_LIST,
        Request::ReadVectors { .. } => OP_READ_VECTORS,
        Request::WriteVectors { .. } => OP_WRITE_VECTORS,
        Request::Sync { .. } => OP_SYNC,
        Request::Flush => OP_FLUSH,
        Request::GetStats => OP_GET_STATS,
        Request::ResetStats => OP_RESET_STATS,
        Request::Ping => OP_PING,
        Request::StripeDigest { .. } => OP_STRIPE_DIGEST,
        Request::Truncate { .. } => OP_TRUNCATE,
        Request::GetTrace { .. } => OP_GET_TRACE,
    }
}

/// Spans ship as `trace (8B) | id (8B) | parent (8B) | node string |
/// op string | start_ns (8B) | dur_ns (8B) | note count (4B) | notes` —
/// 52 bytes plus the strings.
fn put_span(buf: &mut BytesMut, s: &Span) {
    buf.put_u64_le(s.trace.0);
    buf.put_u64_le(s.id.0);
    buf.put_u64_le(s.parent.0);
    put_string_mut(buf, &s.node);
    put_string_mut(buf, &s.op);
    buf.put_u64_le(s.start_ns);
    buf.put_u64_le(s.dur_ns);
    buf.put_u32_le(s.notes.len() as u32);
    for n in &s.notes {
        put_string_mut(buf, n);
    }
}

fn get_span(buf: &mut Bytes) -> PvfsResult<Span> {
    let trace = TraceId(get_u64(buf)?);
    let id = SpanId(get_u64(buf)?);
    let parent = SpanId(get_u64(buf)?);
    let node = get_string(buf)?;
    let op = get_string(buf)?;
    let start_ns = get_u64(buf)?;
    let dur_ns = get_u64(buf)?;
    let n = get_u32(buf)? as usize;
    // Each note is at least a 4-byte length prefix.
    if buf.remaining() < n * 4 {
        return Err(PvfsError::protocol(format!(
            "span claims {n} notes but only {} bytes remain",
            buf.remaining()
        )));
    }
    let mut notes = Vec::with_capacity(n);
    for _ in 0..n {
        notes.push(get_string(buf)?);
    }
    Ok(Span {
        trace,
        id,
        parent,
        node,
        op,
        start_ns,
        dur_ns,
        notes,
    })
}

/// The limits every list request must meet, on the wire and at a
/// daemon's door alike: at least one region, at most
/// [`MAX_LIST_REGIONS`], header plus trailing data within one Ethernet
/// frame.
pub fn check_list(regions: &RegionList) -> PvfsResult<()> {
    if regions.is_empty() {
        return Err(PvfsError::protocol("list request with no regions"));
    }
    if regions.count() > MAX_LIST_REGIONS {
        return Err(PvfsError::protocol(format!(
            "list request with {} regions exceeds the {MAX_LIST_REGIONS}-region trailing-data limit",
            regions.count()
        )));
    }
    if !list_request_fits_frame(regions.count()) {
        return Err(PvfsError::protocol(
            "list request does not fit one Ethernet frame",
        ));
    }
    Ok(())
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> PvfsResult<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(PvfsError::protocol("short frame reading string"));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| PvfsError::protocol("invalid utf-8 in string"))
}

fn put_layout(buf: &mut BytesMut, l: &StripeLayout) {
    buf.put_u32_le(l.base);
    buf.put_u32_le(l.pcount);
    buf.put_u64_le(l.ssize);
}

fn get_layout(buf: &mut Bytes) -> PvfsResult<StripeLayout> {
    let base = get_u32(buf)?;
    let pcount = get_u32(buf)?;
    let ssize = get_u64(buf)?;
    StripeLayout::new(base, pcount, ssize)
        .map_err(|e| PvfsError::protocol(format!("invalid stripe layout on wire: {e}")))
}

fn put_region(buf: &mut BytesMut, r: Region) {
    buf.put_u64_le(r.offset);
    buf.put_u64_le(r.len);
}

fn get_region(buf: &mut Bytes) -> PvfsResult<Region> {
    let (offset, len) = (get_u64(buf)?, get_u64(buf)?);
    Region::try_new(offset, len)
        .ok_or_else(|| PvfsError::protocol(format!("region {offset}+{len} overflows u64")))
}

fn put_trailing(buf: &mut BytesMut, regions: &RegionList) {
    buf.put_u32_le(regions.count() as u32);
    for r in regions {
        put_region(buf, *r);
    }
}

fn get_trailing(buf: &mut Bytes, spare: &mut RegionList) -> PvfsResult<RegionList> {
    let count = get_u32(buf)? as usize;
    if count == 0 || count > MAX_LIST_REGIONS {
        return Err(PvfsError::protocol(format!(
            "trailing data region count {count} out of range 1..={MAX_LIST_REGIONS}"
        )));
    }
    let mut regions = std::mem::take(spare);
    regions.clear();
    if regions.capacity() < MAX_LIST_REGIONS {
        regions = RegionList::with_capacity(MAX_LIST_REGIONS);
    }
    for _ in 0..count {
        let region = get_region(buf)?;
        if region.is_empty() {
            return Err(PvfsError::protocol(
                "invalid trailing data: invalid argument: region list contains an empty region",
            ));
        }
        regions.push(region);
    }
    Ok(regions)
}

/// A snapshot travels as the ledger declares it (`pvfs_types::metrics`):
/// every counter, then every gauge, one word each, then every histogram.
fn put_stats(buf: &mut BytesMut, s: &StatsSnapshot) {
    for (_, v) in s.counters().into_iter().chain(s.gauges()) {
        buf.put_u64_le(v);
    }
    for (_, h) in s.histograms() {
        put_histogram(buf, h);
    }
}

fn get_stats(buf: &mut Bytes) -> PvfsResult<StatsSnapshot> {
    StatsSnapshot::read(buf, get_u64, get_histogram)
}

/// Histograms ship sparse: `sum (16B, lo/hi u64 halves) | min (8B) |
/// max (8B) | n (4B) | n × (bucket index 4B, count 8B)` — 36 bytes plus
/// 12 per occupied bucket, so a stats response stays a small control
/// frame.
fn put_histogram(buf: &mut BytesMut, h: &Histogram) {
    buf.put_u64_le(h.sum_ns() as u64);
    buf.put_u64_le((h.sum_ns() >> 64) as u64);
    buf.put_u64_le(h.min_ns());
    buf.put_u64_le(h.max_ns());
    let sparse = h.to_sparse();
    buf.put_u32_le(sparse.len() as u32);
    for (i, c) in sparse {
        buf.put_u32_le(i);
        buf.put_u64_le(c);
    }
}

fn get_histogram(buf: &mut Bytes) -> PvfsResult<Histogram> {
    let sum_lo = get_u64(buf)?;
    let sum_hi = get_u64(buf)?;
    let sum = (sum_hi as u128) << 64 | sum_lo as u128;
    let min = get_u64(buf)?;
    let max = get_u64(buf)?;
    let n = get_u32(buf)? as usize;
    if n > 1024 {
        return Err(PvfsError::protocol("absurd histogram bucket count"));
    }
    let mut sparse = Vec::with_capacity(n);
    for _ in 0..n {
        sparse.push((get_u32(buf)?, get_u64(buf)?));
    }
    Histogram::from_sparse(&sparse, sum, min, max)
        .ok_or_else(|| PvfsError::protocol("invalid histogram buckets on wire"))
}

/// A write request's bulk payload: the length word, then that many
/// bytes out of the rest of the head (a contiguous frame) or, once the
/// head is spent, out of the frame's payload part.
fn get_payload(head: &mut Bytes, payload: &mut Bytes) -> PvfsResult<Bytes> {
    let len = get_u64(head)? as usize;
    let part = if head.has_remaining() { head } else { payload };
    if part.remaining() < len {
        return Err(PvfsError::protocol("short frame reading bulk data"));
    }
    Ok(part.split_to(len))
}

fn put_error(buf: &mut BytesMut, e: &PvfsError) {
    match e {
        PvfsError::InvalidArgument(m) => {
            buf.put_u8(ERR_INVALID_ARGUMENT);
            put_string_mut(buf, m);
        }
        PvfsError::NoSuchFile(m) => {
            buf.put_u8(ERR_NO_SUCH_FILE);
            put_string_mut(buf, m);
        }
        PvfsError::AlreadyExists(m) => {
            buf.put_u8(ERR_ALREADY_EXISTS);
            put_string_mut(buf, m);
        }
        PvfsError::BadHandle(h) => {
            buf.put_u8(ERR_BAD_HANDLE);
            buf.put_u64_le(*h);
        }
        PvfsError::Protocol(m) => {
            buf.put_u8(ERR_PROTOCOL);
            put_string_mut(buf, m);
        }
        PvfsError::Storage(m) => {
            buf.put_u8(ERR_STORAGE);
            put_string_mut(buf, m);
        }
        PvfsError::Transport(m) => {
            buf.put_u8(ERR_TRANSPORT);
            put_string_mut(buf, m);
        }
        PvfsError::NoSuchServer(s) => {
            buf.put_u8(ERR_NO_SUCH_SERVER);
            buf.put_u32_le(*s);
        }
        PvfsError::Timeout(m) => {
            buf.put_u8(ERR_TIMEOUT);
            put_string_mut(buf, m);
        }
        PvfsError::FrameTooLarge { len, max } => {
            buf.put_u8(ERR_FRAME_TOO_LARGE);
            buf.put_u64_le(*len);
            buf.put_u64_le(*max);
        }
        PvfsError::Config(m) => {
            buf.put_u8(ERR_CONFIG);
            put_string_mut(buf, m);
        }
        PvfsError::Unavailable {
            server,
            retry_after_ms,
        } => {
            buf.put_u8(ERR_UNAVAILABLE);
            buf.put_u32_le(*server);
            buf.put_u64_le(*retry_after_ms);
        }
        PvfsError::Overloaded {
            server,
            queue_depth,
        } => {
            buf.put_u8(ERR_OVERLOADED);
            buf.put_u32_le(*server);
            buf.put_u64_le(*queue_depth);
        }
    }
}

fn put_string_mut(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_error(buf: &mut Bytes) -> PvfsResult<PvfsError> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        ERR_INVALID_ARGUMENT => PvfsError::InvalidArgument(get_string(buf)?),
        ERR_NO_SUCH_FILE => PvfsError::NoSuchFile(get_string(buf)?),
        ERR_ALREADY_EXISTS => PvfsError::AlreadyExists(get_string(buf)?),
        ERR_BAD_HANDLE => PvfsError::BadHandle(get_u64(buf)?),
        ERR_PROTOCOL => PvfsError::Protocol(get_string(buf)?),
        ERR_STORAGE => PvfsError::Storage(get_string(buf)?),
        ERR_TRANSPORT => PvfsError::Transport(get_string(buf)?),
        ERR_NO_SUCH_SERVER => PvfsError::NoSuchServer(get_u32(buf)?),
        ERR_TIMEOUT => PvfsError::Timeout(get_string(buf)?),
        ERR_FRAME_TOO_LARGE => PvfsError::FrameTooLarge {
            len: get_u64(buf)?,
            max: get_u64(buf)?,
        },
        ERR_CONFIG => PvfsError::Config(get_string(buf)?),
        ERR_UNAVAILABLE => PvfsError::Unavailable {
            server: get_u32(buf)?,
            retry_after_ms: get_u64(buf)?,
        },
        ERR_OVERLOADED => PvfsError::Overloaded {
            server: get_u32(buf)?,
            queue_depth: get_u64(buf)?,
        },
        other => return Err(PvfsError::protocol(format!("unknown error tag {other}"))),
    })
}

fn get_u8(buf: &mut Bytes) -> PvfsResult<u8> {
    if buf.remaining() < 1 {
        return Err(PvfsError::protocol("short frame"));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes) -> PvfsResult<u16> {
    if buf.remaining() < 2 {
        return Err(PvfsError::protocol("short frame"));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes) -> PvfsResult<u32> {
    if buf.remaining() < 4 {
        return Err(PvfsError::protocol("short frame"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> PvfsResult<u64> {
    if buf.remaining() < 8 {
        return Err(PvfsError::protocol("short frame"));
    }
    Ok(buf.get_u64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request's whole wire frame in one buffer, as a socket delivers
    /// it.
    pub(super) fn contiguous(m: &Message, ctx: Option<TraceContext>) -> PvfsResult<Bytes> {
        let frame = encode_frame(m, ctx)?;
        Ok([&frame.head[..], &frame.payload[..]].concat().into())
    }
    use crate::limits::{ETHERNET_MTU, LIST_HEADER_SIZE};

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 8, 16384).unwrap()
    }

    fn msg(request: Request) -> Message {
        Message {
            client: ClientId(5),
            id: RequestId(77),
            request,
        }
    }

    fn roundtrip(request: Request) {
        let m = msg(request);
        let encoded = encode_message(&m).unwrap();
        let decoded = decode_message(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_metadata_ops() {
        roundtrip(Request::Create {
            path: "/pvfs/data.bin".into(),
            layout: layout(),
        });
        roundtrip(Request::Open {
            path: "/pvfs/data.bin".into(),
        });
        roundtrip(Request::Close {
            handle: FileHandle(42),
        });
        roundtrip(Request::Remove {
            path: "/pvfs/data.bin".into(),
        });
        roundtrip(Request::GetLocalSize {
            handle: FileHandle(42),
        });
        roundtrip(Request::ListDir);
    }

    #[test]
    fn roundtrip_stats_ops() {
        roundtrip(Request::GetStats);
        roundtrip(Request::ResetStats);
        roundtrip(Request::Ping);
        roundtrip(Request::GetTrace {
            trace: TraceId(0xfeed),
        });
    }

    fn sample_span(trace: u64, id: u64, parent: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: SpanId(parent),
            node: "iod2".into(),
            op: "storage:read".into(),
            start_ns: 123_456_789,
            dur_ns: 42_000,
            notes: vec!["retry#2".into(), "failover".into()],
        }
    }

    #[test]
    fn span_responses_roundtrip_and_reject_forged_counts() {
        for resp in [
            Response::Spans(vec![]),
            Response::Spans(vec![
                sample_span(9, 1, 0),
                sample_span(9, 2, 1),
                Span {
                    notes: vec![],
                    ..sample_span(9, 3, 1)
                },
            ]),
        ] {
            let encoded = encode_response(RequestId(5), &resp);
            let (id, decoded) = decode_response(encoded).unwrap();
            assert_eq!(id, RequestId(5));
            assert_eq!(decoded, resp);
        }
        // A forged span count must fail the decode, not balloon memory.
        let mut frame =
            encode_response(RequestId(5), &Response::Spans(vec![sample_span(9, 1, 0)])).to_vec();
        let count_at = 2 + 1 + 8 + 1; // magic, version, id, tag
        frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(Bytes::from(frame)).is_err());
    }

    #[test]
    fn traced_frames_roundtrip_with_context() {
        let ctx = TraceContext {
            trace: TraceId(0xabcd),
            parent: SpanId(0x1234),
        };
        for request in [
            Request::Open { path: "/a".into() },
            Request::Read {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(1000, 5000),
            },
            Request::WriteList {
                handle: FileHandle(1),
                layout: layout(),
                regions: RegionList::from_pairs([(0, 4), (20, 4)]).unwrap(),
                data: Bytes::from(vec![9u8; 8]),
            },
        ] {
            let m = msg(request);
            let frame = contiguous(&m, Some(ctx)).unwrap();
            assert_eq!(frame[2], VERSION_TRACED);
            let (decoded, got) = decode_frame(frame.into()).unwrap();
            assert_eq!(decoded, m);
            assert_eq!(got, Some(ctx));
        }
    }

    /// `PVFS_TRACE=off` must cost zero wire bytes: the no-context path
    /// is byte-identical to the historical encoder, and old-format
    /// frames still decode (with no context).
    #[test]
    fn untraced_frames_are_byte_identical_to_version_one() {
        for request in [
            Request::Open { path: "/a".into() },
            Request::GetStats,
            Request::Write {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(0, 5),
                data: Bytes::from(vec![1, 2, 3, 4, 5]),
            },
        ] {
            let m = msg(request);
            let legacy = encode_message(&m).unwrap();
            let untraced = contiguous(&m, None).unwrap();
            assert_eq!(legacy, untraced, "{}", m.request.op_name());
            assert_eq!(legacy[2], VERSION);
            let (decoded, ctx) = decode_frame(legacy.into()).unwrap();
            assert_eq!(decoded, m);
            assert_eq!(ctx, None, "old frames must carry no context");
        }
    }

    #[test]
    fn traced_frame_costs_exactly_sixteen_bytes() {
        let m = msg(Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 8),
        });
        let ctx = TraceContext {
            trace: TraceId(1),
            parent: SpanId(2),
        };
        let plain = encode_message(&m).unwrap();
        let traced = contiguous(&m, Some(ctx)).unwrap();
        assert_eq!(traced.len(), plain.len() + 16);
    }

    #[test]
    fn truncated_traced_frames_are_rejected_not_panicking() {
        let ctx = TraceContext {
            trace: TraceId(7),
            parent: SpanId(8),
        };
        let full = contiguous(
            &msg(Request::Read {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(0, 8),
            }),
            Some(ctx),
        )
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_frame(full.slice(0..cut).into()).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn frame_id_readable_on_traced_frames() {
        let ctx = TraceContext {
            trace: TraceId(7),
            parent: SpanId(8),
        };
        let full = contiguous(
            &msg(Request::Close {
                handle: FileHandle(1),
            }),
            Some(ctx),
        )
        .unwrap();
        assert_eq!(decode_frame_id(&full), Some(RequestId(77)));
    }

    #[test]
    fn roundtrip_truncate() {
        roundtrip(Request::Truncate {
            handle: FileHandle(42),
            size: 1 << 20,
        });
        roundtrip(Request::Truncate {
            handle: FileHandle(7 | 2 << 56),
            size: 0,
        });
    }

    #[test]
    fn roundtrip_stripe_digest() {
        roundtrip(Request::StripeDigest {
            handle: FileHandle(42),
            chunk: 16 * 1024,
        });
        roundtrip(Request::StripeDigest {
            handle: FileHandle(0),
            chunk: 1,
        });
    }

    #[test]
    fn digest_responses_roundtrip_and_reject_forged_counts() {
        for resp in [
            Response::Digests {
                version: 0,
                size: 0,
                chunks: vec![],
            },
            Response::Digests {
                version: 17,
                size: 70_000,
                chunks: vec![0xcbf2_9ce4_8422_2325, 0, u64::MAX, 12345],
            },
        ] {
            let encoded = encode_response(RequestId(5), &resp);
            let (id, decoded) = decode_response(encoded).unwrap();
            assert_eq!(id, RequestId(5));
            assert_eq!(decoded, resp);
        }
        // A forged count larger than the trailing bytes must fail the
        // decode, not balloon the allocation.
        let mut frame = encode_response(
            RequestId(5),
            &Response::Digests {
                version: 1,
                size: 8,
                chunks: vec![7],
            },
        )
        .to_vec();
        // The count field sits after the 11-byte response header
        // (magic, version, id), the tag byte, and two u64s; patch it to
        // a huge value.
        let count_at = 2 + 1 + 8 + 1 + 8 + 8;
        frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(Bytes::from(frame)).is_err());
    }

    #[test]
    fn roundtrip_durability_ops() {
        roundtrip(Request::Sync {
            handle: FileHandle(42),
        });
        roundtrip(Request::Flush);
    }

    #[test]
    fn stats_response_roundtrips_exactly() {
        let mut snap = StatsSnapshot {
            requests: 1_000_003,
            contiguous_requests: 17,
            list_requests: 999_986,
            regions: 63_999_104,
            bytes_read: u64::MAX / 3,
            bytes_written: 42,
            errors: 7,
            bytes_rx: 1 << 40,
            bytes_tx: (1 << 40) + 1,
            frames_rx: 2_000_000,
            journal_appends: 512,
            journal_bytes: 9_999_999,
            journal_replays: 2,
            flushes: 31,
            fsyncs: 77,
            requests_shed: 13,
            workers: 8,
            busy_workers: 3,
            queue_depth: 12,
            journal_depth: 5,
            ..Default::default()
        };
        for v in [0u64, 900, 1_000_000, 30_000_000_000] {
            snap.queue_wait.record(v);
        }
        snap.service_time.record(123_456_789);
        snap.fsync_time.record(4_000_000);
        let encoded = encode_response(RequestId(5), &Response::Stats(Box::new(snap.clone())));
        let (id, decoded) = decode_response(encoded).unwrap();
        assert_eq!(id, RequestId(5));
        match decoded {
            Response::Stats(back) => {
                assert_eq!(*back, snap);
                assert_eq!(back.queue_wait.mean_ns(), snap.queue_wait.mean_ns());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Empty histograms survive too.
        let empty = StatsSnapshot::default();
        let encoded = encode_response(RequestId(6), &Response::Stats(Box::new(empty.clone())));
        let (_, decoded) = decode_response(encoded).unwrap();
        assert_eq!(decoded, Response::Stats(Box::new(empty)));
    }

    /// One fully populated `Stats` frame against bytes written out by
    /// hand: envelope, tag, the 16 counters in `counters()` order, the
    /// four gauges, then the three histograms, sparse.
    #[test]
    fn stats_frame_is_pinned_byte_for_byte() {
        let mut snap = StatsSnapshot {
            requests: 1,
            contiguous_requests: 2,
            list_requests: 3,
            regions: 4,
            bytes_read: 5,
            bytes_written: 6,
            errors: 7,
            bytes_rx: 8,
            bytes_tx: 9,
            frames_rx: 10,
            journal_appends: 11,
            journal_bytes: 12,
            journal_replays: 13,
            flushes: 14,
            fsyncs: 15,
            requests_shed: 16,
            workers: 17,
            busy_workers: 18,
            queue_depth: 19,
            journal_depth: 20,
            ..Default::default()
        };
        snap.queue_wait.record(1_000);
        snap.queue_wait.record(3_000);
        snap.service_time.record(1_000_000);

        let mut want: Vec<u8> = vec![0x56, 0x50, 1]; // magic, version
        want.extend(0x0102_0304_0506_0708u64.to_le_bytes()); // request id
        want.push(10); // RESP_STATS
        for word in 1..=20u64 {
            want.extend(word.to_le_bytes());
        }
        let histogram = |sum: u64, min: u64, max: u64, buckets: &[(u32, u64)]| {
            let mut h = Vec::new();
            for word in [sum, 0, min, max] {
                h.extend(word.to_le_bytes());
            }
            h.extend((buckets.len() as u32).to_le_bytes());
            for (index, count) in buckets {
                h.extend(index.to_le_bytes());
                h.extend(count.to_le_bytes());
            }
            h
        };
        // 1000 ns ∈ [2^9.5, 2^10) = bucket 19; 3000 ns ∈ [2^11.5, 2^12) = 23.
        want.extend(histogram(4_000, 1_000, 3_000, &[(19, 1), (23, 1)]));
        // 1 ms ∈ [2^19.5, 2^20) = bucket 39.
        want.extend(histogram(1_000_000, 1_000_000, 1_000_000, &[(39, 1)]));
        want.extend(histogram(0, 0, 0, &[]));
        assert_eq!(want.len(), 3 + 8 + 1 + 20 * 8 + 3 * 36 + 3 * 12);

        let id = RequestId(0x0102_0304_0506_0708);
        let frame = encode_response(id, &Response::Stats(Box::new(snap.clone())));
        assert_eq!(&frame[..], &want[..]);
        let (back_id, back) = decode_response(Bytes::from(want)).unwrap();
        assert_eq!((back_id, back), (id, Response::Stats(Box::new(snap))));
    }

    #[test]
    fn stats_scrape_frames_are_recognized() {
        for (req, is_scrape) in [
            (Request::GetStats, true),
            (Request::ResetStats, true),
            (Request::GetTrace { trace: TraceId(3) }, true),
            (Request::ListDir, false),
            (Request::Open { path: "/a".into() }, false),
            // Sync/Flush do real work — they are accounted ops, not scrapes.
            (
                Request::Sync {
                    handle: FileHandle(1),
                },
                false,
            ),
            (Request::Flush, false),
            // Pings are accounted requests: their latency is the health
            // signal, so they must perturb the stats they ride past.
            (Request::Ping, false),
            // Digest scrapes read the whole local file — real work,
            // accounted like any other request.
            (
                Request::StripeDigest {
                    handle: FileHandle(1),
                    chunk: 4096,
                },
                false,
            ),
        ] {
            let frame = encode_message(&msg(req.clone())).unwrap();
            assert_eq!(
                frame_is_stats_scrape(&frame),
                is_scrape,
                "misclassified {}",
                req.op_name()
            );
        }
        // Garbage and short frames are never scrapes.
        assert!(!frame_is_stats_scrape(&Bytes::copy_from_slice(b"PV")));
        assert!(!frame_is_stats_scrape(&Bytes::copy_from_slice(
            b"\xff\xff\x01\x0d_____________"
        )));
        // Version-2 headers are recognized too (a traced client's
        // scrape frame must not sneak into the wire accounting).
        let traced = contiguous(
            &msg(Request::GetStats),
            Some(TraceContext {
                trace: TraceId(1),
                parent: SpanId(2),
            }),
        )
        .unwrap();
        assert!(frame_is_stats_scrape(&traced));
    }

    #[test]
    fn roundtrip_contiguous_io() {
        roundtrip(Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(1000, 5000),
        });
        roundtrip(Request::Write {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 5),
            data: Bytes::from(vec![1, 2, 3, 4, 5]),
        });
    }

    #[test]
    fn roundtrip_list_io() {
        let regions = RegionList::from_pairs((0..64).map(|i| (i * 100, 10u64))).unwrap();
        roundtrip(Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions: regions.clone(),
        });
        roundtrip(Request::WriteList {
            handle: FileHandle(1),
            layout: layout(),
            regions,
            data: Bytes::from(vec![9u8; 640]),
        });
    }

    #[test]
    fn roundtrip_vector_io() {
        let runs = vec![
            VectorRun {
                base: 0,
                blocklen: 128,
                stride: 1024,
                count: 1_000_000,
            },
            VectorRun {
                base: 1 << 32,
                blocklen: 8,
                stride: 8,
                count: 1,
            },
        ];
        roundtrip(Request::ReadVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs: runs.clone(),
        });
        roundtrip(Request::WriteVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs,
            data: Bytes::from(vec![3u8; 64]),
        });
    }

    #[test]
    fn vector_request_limits_enforced() {
        let too_many: Vec<VectorRun> = (0..MAX_VECTOR_RUNS as u64 + 1)
            .map(|i| VectorRun {
                base: i * 1000,
                blocklen: 1,
                stride: 10,
                count: 2,
            })
            .collect();
        let m = msg(Request::ReadVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs: too_many,
        });
        assert!(encode_message(&m).is_err());
        // Overlapping run rejected.
        let m = msg(Request::ReadVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs: vec![VectorRun {
                base: 0,
                blocklen: 10,
                stride: 5,
                count: 3,
            }],
        });
        assert!(encode_message(&m).is_err());
        // Empty rejected.
        let m = msg(Request::ReadVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs: vec![],
        });
        assert!(encode_message(&m).is_err());
    }

    #[test]
    fn vector_frame_fits_mtu_at_limit() {
        let runs: Vec<VectorRun> = (0..MAX_VECTOR_RUNS as u64)
            .map(|i| VectorRun {
                base: i * 100_000,
                blocklen: 8,
                stride: 64,
                count: 1000,
            })
            .collect();
        let m = msg(Request::ReadVectors {
            handle: FileHandle(1),
            layout: layout(),
            runs,
        });
        let encoded = encode_message(&m).unwrap();
        assert!(
            encoded.len() <= ETHERNET_MTU,
            "frame is {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn vector_run_expansion_helpers() {
        let run = VectorRun {
            base: 100,
            blocklen: 4,
            stride: 10,
            count: 3,
        };
        assert_eq!(run.total_len(), 12);
        let regions: Vec<Region> = run.regions().collect();
        assert_eq!(
            regions,
            vec![
                Region::new(100, 4),
                Region::new(110, 4),
                Region::new(120, 4)
            ]
        );
        let single = VectorRun::contiguous(Region::new(5, 7));
        assert_eq!(
            single.regions().collect::<Vec<_>>(),
            vec![Region::new(5, 7)]
        );
    }

    #[test]
    fn list_request_frame_fits_mtu_at_64_regions() {
        let regions = RegionList::from_pairs((0..64).map(|i| (i * 100, 10u64))).unwrap();
        let m = msg(Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions,
        });
        let encoded = encode_message(&m).unwrap();
        assert!(
            encoded.len() <= ETHERNET_MTU,
            "frame is {} bytes",
            encoded.len()
        );
        // Header layout constant matches the actual codec.
        assert_eq!(encoded.len(), LIST_HEADER_SIZE + 64 * 16);
    }

    #[test]
    fn oversized_list_is_rejected_at_encode() {
        let regions = RegionList::from_pairs((0..65).map(|i| (i * 100, 10u64))).unwrap();
        let m = msg(Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions,
        });
        assert!(matches!(encode_message(&m), Err(PvfsError::Protocol(_))));
    }

    #[test]
    fn empty_list_is_rejected_at_encode() {
        let m = msg(Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions: RegionList::new(),
        });
        assert!(encode_message(&m).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Created {
                handle: FileHandle(7),
            },
            Response::Opened {
                handle: FileHandle(7),
                layout: layout(),
            },
            Response::Closed,
            Response::Removed,
            Response::LocalSize { size: 123456 },
            Response::Data {
                data: Bytes::from(vec![0xab; 300]),
            },
            Response::Written { bytes: 300 },
            Response::Synced { durable: 1 << 33 },
            Response::Flushed { files: 12 },
            Response::Error(PvfsError::BadHandle(9)),
            Response::Error(PvfsError::NoSuchFile("/x".into())),
            Response::Error(PvfsError::NoSuchServer(3)),
            Response::Error(PvfsError::Storage("disk on fire".into())),
            Response::Error(PvfsError::FrameTooLarge {
                len: 1 << 40,
                max: 1 << 20,
            }),
            Response::Error(PvfsError::Config("PVFS_AGGREGATORS: junk".into())),
            Response::Error(PvfsError::Unavailable {
                server: 3,
                retry_after_ms: 250,
            }),
            Response::Error(PvfsError::Overloaded {
                server: 1,
                queue_depth: 64,
            }),
            Response::Pong { queue_depth: 9 },
            Response::Listing {
                paths: vec!["/pvfs/a".into(), "/pvfs/b".into()],
            },
            Response::Listing { paths: vec![] },
        ];
        for resp in cases {
            let encoded = encode_response(RequestId(11), &resp);
            let (id, decoded) = decode_response(encoded).unwrap();
            assert_eq!(id, RequestId(11));
            assert_eq!(decoded, resp);
        }
    }

    /// The byte-for-byte encoding of a tag-and-word reply, written out by
    /// hand: what `encode_response` produced while it built every reply
    /// in a `BytesMut`.
    fn reference_short(id: u64, tag: u8, word: Option<u64>) -> Vec<u8> {
        let mut frame = vec![0x56, 0x50, VERSION];
        frame.extend_from_slice(&id.to_le_bytes());
        frame.push(tag);
        frame.extend(word.iter().flat_map(|w| w.to_le_bytes()));
        frame
    }

    #[test]
    fn fixed_size_replies_are_inline_and_of_unchanged_bytes() {
        let cases = [
            (
                Response::Created {
                    handle: FileHandle(7),
                },
                RESP_CREATED,
                Some(7),
            ),
            (Response::Closed, RESP_CLOSED, None),
            (Response::Removed, RESP_REMOVED, None),
            (
                Response::LocalSize { size: 1 << 40 },
                RESP_LOCAL_SIZE,
                Some(1 << 40),
            ),
            (Response::Written { bytes: 2048 }, RESP_WRITTEN, Some(2048)),
            (
                Response::Synced { durable: u64::MAX },
                RESP_SYNCED,
                Some(u64::MAX),
            ),
            (Response::Flushed { files: 3 }, RESP_FLUSHED, Some(3)),
            (Response::Pong { queue_depth: 0 }, RESP_PONG, Some(0)),
        ];
        for (resp, tag, word) in cases {
            let id = RequestId(0x0102_0304_0506_0708);
            // The same bytes as ever, held in the handle.
            let encoded = encode_response(id, &resp);
            let reference = reference_short(id.0, tag, word);
            assert_eq!(&encoded[..], &reference[..], "{resp:?}");
            assert!(encoded.len() <= bytes::INLINE_CAP);
            assert_eq!(decode_response(encoded).unwrap(), (id, resp));
        }
        // Everything else has no fixed size, and a buffer (a `Data`
        // reply's fixed part is `data_response_head`).
        for resp in [
            Response::Data { data: Bytes::new() },
            Response::Opened {
                handle: FileHandle(1),
                layout: layout(),
            },
            Response::Listing { paths: vec![] },
            Response::Error(PvfsError::BadHandle(1)),
        ] {
            assert!(short_response(RequestId(1), &resp).is_none(), "{resp:?}");
        }
        let head = data_response_head(RequestId(5), 300);
        assert_eq!(&head[..], &reference_short(5, RESP_DATA, Some(300))[..]);
    }

    #[test]
    fn a_head_is_encoded_into_the_buffer_it_is_given() {
        let list = |n: u64| {
            msg(Request::WriteList {
                handle: FileHandle(1),
                layout: layout(),
                regions: RegionList::from_pairs((0..n).map(|i| (i * 100, 10))).unwrap(),
                data: Bytes::from(vec![7u8; 10 * n as usize]),
            })
        };
        let ctx = TraceContext {
            trace: TraceId(5),
            parent: SpanId(6),
        };
        let mut spare = BytesMut::with_capacity(2048);
        let at = spare.as_ptr();
        for (n, ctx) in [(64, None), (3, Some(ctx)), (64, Some(ctx))] {
            let m = list(n);
            // Whatever the last frame left in the buffer is gone.
            let frame = encode_frame_into(m.client, m.id, &m.request, ctx, spare).unwrap();
            assert_eq!(frame, encode_frame(&m, ctx).unwrap());
            assert_eq!(frame.head.len(), request_head_len(&m.request, ctx));
            assert_eq!(frame.head.as_ptr(), at, "encoded where the spare lies");
            // The request was only borrowed: its payload is shared with
            // the frame, not copied.
            assert_eq!(
                frame.payload.as_ptr(),
                m.request.clone().into_bulk().unwrap().as_ptr()
            );
            let Frame { head, payload } = frame;
            drop(payload);
            spare = head.try_into_mut().expect("the frame's last handle");
        }
    }

    #[test]
    fn a_list_is_decoded_into_the_storage_of_the_one_before() {
        let list = |pairs: &[(u64, u64)]| {
            let regions = RegionList::from_pairs(pairs.iter().copied()).unwrap();
            let request = Request::ReadList {
                handle: FileHandle(1),
                layout: layout(),
                regions,
            };
            encode_frame(&msg(request), None).unwrap()
        };
        let full: Vec<(u64, u64)> = (0..MAX_LIST_REGIONS as u64).map(|i| (i * 64, 8)).collect();
        let mut spare = RegionList::new();
        let mut storage = None;
        for pairs in [&[(5, 5), (50, 5)][..], &full, &[(9, 1)]] {
            let (message, _) = decode_frame_reusing(list(pairs), &mut spare).unwrap();
            assert_eq!(message, decode_frame(list(pairs)).unwrap().0);
            assert!(spare.is_empty() && spare.capacity() == 0, "taken out");
            // Served, the request gives its list back; the next one —
            // longer or shorter — lands in the same storage.
            spare = message.request.into_regions().unwrap();
            assert!(spare.capacity() >= MAX_LIST_REGIONS);
            let at = spare.regions().as_ptr();
            assert_eq!(*storage.get_or_insert(at), at);
        }
        // A list someone else still holds is left to them.
        let held = spare.clone();
        let (message, _) = decode_frame_reusing(list(&[(1, 1)]), &mut spare).unwrap();
        let fresh = message.request.into_regions().unwrap();
        assert_ne!(fresh.regions().as_ptr(), held.regions().as_ptr());
        assert_eq!(held, RegionList::from_pairs([(9, 1)]).unwrap());
        // An empty region on the wire is refused, as ever.
        let mut raw = list(&[(1, 1), (2, 2)]).head.to_vec();
        let len = raw.len();
        raw[len - 8..].fill(0);
        let refused = decode_frame_reusing(Bytes::from(raw).into(), &mut spare).unwrap_err();
        assert!(matches!(&refused, PvfsError::Protocol(m) if m.contains("empty region")));
        // Nothing but list requests carry one.
        assert!(msg(Request::Ping).request.into_regions().is_none());
        assert!(msg(Request::Ping).request.into_bulk().is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = encode_message(&msg(Request::Open { path: "/a".into() }))
            .unwrap()
            .to_vec();
        raw[0] = 0xff;
        assert!(decode_message(Bytes::from(raw)).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut raw = encode_message(&msg(Request::Open { path: "/a".into() }))
            .unwrap()
            .to_vec();
        raw[2] = 99;
        assert!(decode_message(Bytes::from(raw)).is_err());
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicking() {
        let full = encode_message(&msg(Request::Write {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 8),
            data: Bytes::from(vec![0u8; 8]),
        }))
        .unwrap();
        for cut in 0..full.len() {
            let truncated = full.slice(0..cut);
            assert!(
                decode_message(truncated).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    /// A frame naming a region whose end overflows u64 must decode to a
    /// protocol error (Region::try_new), not reach Region::new's panic.
    #[test]
    fn overflowing_region_on_the_wire_is_a_protocol_error() {
        let full = encode_message(&msg(Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 8),
        }))
        .unwrap();
        // The region is the last 16 bytes of the frame: offset, len.
        let mut evil = full.to_vec();
        let n = evil.len();
        evil[n - 16..n - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        evil[n - 8..n].copy_from_slice(&2u64.to_le_bytes());
        let err = decode_message(Bytes::from(evil)).unwrap_err();
        assert!(matches!(err, PvfsError::Protocol(m) if m.contains("overflows")));
    }

    /// decode_frame_id reads ids out of frames whose bodies are
    /// corrupt, and refuses frames whose headers are unreadable.
    #[test]
    fn frame_id_survives_body_corruption_only() {
        let full = encode_message(&msg(Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 8),
        }))
        .unwrap();
        assert_eq!(decode_frame_id(&full), Some(RequestId(77)));
        // Body truncated: header id still recoverable.
        assert_eq!(decode_frame_id(&full.slice(0..17)), Some(RequestId(77)));
        // Header truncated: no id.
        assert_eq!(decode_frame_id(&full.slice(0..15)), None);
        // Bad magic: no id.
        let mut bad = full.to_vec();
        bad[0] ^= 0xff;
        assert_eq!(decode_frame_id(&Bytes::from(bad)), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode_message(&msg(Request::Close {
            handle: FileHandle(1),
        }))
        .unwrap()
        .to_vec();
        raw.push(0);
        assert!(decode_message(Bytes::from(raw)).is_err());
    }

    #[test]
    fn frame_sizes_split_control_and_bulk() {
        let m = msg(Request::Write {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 1000),
            data: Bytes::from(vec![0u8; 1000]),
        });
        let (control, bulk) = frame_sizes(&m).unwrap();
        assert_eq!(bulk, 1000);
        assert!(control < 100);
        assert_eq!(control + bulk, encode_message(&m).unwrap().len() as u64);
    }

    #[test]
    fn control_wire_size_matches_codec() {
        let regions = RegionList::from_pairs((0..17).map(|i| (i * 100, 10u64))).unwrap();
        let runs = vec![
            VectorRun {
                base: 0,
                blocklen: 8,
                stride: 64,
                count: 100,
            };
            3
        ];
        let cases = vec![
            Request::Create {
                path: "/pvfs/file".into(),
                layout: layout(),
            },
            Request::Open {
                path: "/a/b".into(),
            },
            Request::Remove {
                path: "/a/b".into(),
            },
            Request::Close {
                handle: FileHandle(1),
            },
            Request::GetLocalSize {
                handle: FileHandle(1),
            },
            Request::Read {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(5, 10),
            },
            Request::Write {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(5, 10),
                data: Bytes::from(vec![0u8; 10]),
            },
            Request::ReadList {
                handle: FileHandle(1),
                layout: layout(),
                regions: regions.clone(),
            },
            Request::WriteList {
                handle: FileHandle(1),
                layout: layout(),
                regions,
                data: Bytes::from(vec![0u8; 170]),
            },
            Request::ReadVectors {
                handle: FileHandle(1),
                layout: layout(),
                runs: runs.clone(),
            },
            Request::WriteVectors {
                handle: FileHandle(1),
                layout: layout(),
                runs,
                data: Bytes::from(vec![0u8; 2400]),
            },
            Request::Sync {
                handle: FileHandle(1),
            },
            Request::Flush,
            Request::GetStats,
            Request::ResetStats,
            Request::Ping,
            Request::StripeDigest {
                handle: FileHandle(9),
                chunk: 16 * 1024,
            },
            Request::Truncate {
                handle: FileHandle(9),
                size: 4096,
            },
            Request::GetTrace {
                trace: TraceId(0xbeef),
            },
        ];
        for request in cases {
            let m = msg(request);
            let encoded = encode_message(&m).unwrap().len() as u64;
            assert_eq!(
                m.request.control_wire_size(),
                encoded - m.request.bulk_len(),
                "control size mismatch for {}",
                m.request.op_name()
            );
            assert_frame_matches_contiguous(&m);
        }
    }

    fn payload_of(request: &Request) -> Option<&Bytes> {
        match request {
            Request::Write { data, .. }
            | Request::WriteList { data, .. }
            | Request::WriteVectors { data, .. } => Some(data),
            _ => None,
        }
    }

    /// `Frame` against the contiguous form, traced and untraced:
    /// `head ‖ payload` is the same bytes, the head is exactly the
    /// control part, the payload is the request's own buffer (shared,
    /// not copied), and both forms decode to the same message.
    pub(super) fn assert_frame_matches_contiguous(m: &Message) {
        let ctx = TraceContext {
            trace: TraceId(0xfeed),
            parent: SpanId(0xf00d),
        };
        for ctx in [None, Some(ctx)] {
            // Untraced, the contiguous encoder is the independent
            // witness; traced, only the split form exists.
            let whole = match ctx {
                None => encode_message(m).unwrap(),
                Some(_) => contiguous(m, ctx).unwrap(),
            };
            let frame = encode_frame(m, ctx).unwrap();
            assert_eq!(
                [&frame.head[..], &frame.payload[..]].concat(),
                whole.as_ref(),
                "{}",
                m.request.op_name()
            );
            assert_eq!(frame.len(), whole.len());
            assert_eq!(frame.payload.len() as u64, m.request.bulk_len());
            if let Some(data) = payload_of(&m.request).filter(|d| !d.is_empty()) {
                assert_eq!(frame.payload.as_ptr(), data.as_ptr(), "payload was copied");
            }
            assert_eq!(decode_frame(frame).unwrap(), (m.clone(), ctx));
            assert_eq!(decode_frame(Frame::from(whole)).unwrap(), (m.clone(), ctx));
        }
    }

    #[test]
    fn an_untraced_frame_is_encode_message_split_behind_the_length_word() {
        let data = Bytes::from((0..200u8).collect::<Vec<_>>());
        let m = msg(Request::WriteList {
            handle: FileHandle(3),
            layout: layout(),
            regions: RegionList::from_pairs([(0, 100), (4096, 100)]).unwrap(),
            data: data.clone(),
        });
        let whole = encode_message(&m).unwrap();
        let frame = encode_frame(&m, None).unwrap();
        assert_eq!(frame.head.as_ref(), &whole[..whole.len() - 200]);
        assert_eq!(&frame.head[frame.head.len() - 8..], 200u64.to_le_bytes());
        assert_eq!(frame.payload, data);
        // A request without a payload is all head.
        let ping = encode_frame(&msg(Request::Ping), None).unwrap();
        assert_eq!(ping.head, encode_message(&msg(Request::Ping)).unwrap());
        assert!(ping.payload.is_empty());
        assert!(Frame::default().is_empty());
    }

    #[test]
    fn frame_encoding_enforces_the_same_limits() {
        let too_many = RegionList::from_pairs((0..65u64).map(|i| (i * 10, 1))).unwrap();
        let m = msg(Request::WriteList {
            handle: FileHandle(1),
            layout: layout(),
            regions: too_many,
            data: Bytes::from(vec![0u8; 65]),
        });
        assert_eq!(
            encode_frame(&m, None).unwrap_err(),
            encode_message(&m).unwrap_err()
        );
    }

    #[test]
    fn a_data_reply_in_two_parts_decodes_as_its_contiguous_encoding() {
        let data = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let id = RequestId(9);
        let whole = encode_response(id, &Response::Data { data: data.clone() });
        let head = Bytes::copy_from_slice(&data_response_head(id, data.len() as u64));
        assert_eq!(head.as_ref(), &whole[..DATA_HEAD_LEN]);
        assert_eq!(decode_response_id(&head), Some(id));
        assert_eq!(decode_response_id(&whole), Some(id));
        let parts = |payload: Bytes| Frame {
            head: head.clone(),
            payload,
        };
        let decoded = decode_response_frame(parts(data.clone())).unwrap();
        assert_eq!(decoded, decode_response(whole.clone()).unwrap());
        assert_eq!(decoded, (id, Response::Data { data: data.clone() }));

        // Every truncation of either part is the typed error the same
        // cut of the contiguous frame gets.
        for cut in 0..data.len() {
            assert_eq!(
                decode_response_frame(parts(data.slice(..cut))).unwrap_err(),
                decode_response(whole.slice(..DATA_HEAD_LEN + cut)).unwrap_err()
            );
        }
        for cut in 0..DATA_HEAD_LEN {
            let short = Frame::from(head.slice(..cut));
            assert_eq!(
                decode_response_frame(short).unwrap_err(),
                decode_response(whole.slice(..cut)).unwrap_err()
            );
            let id_readable = cut >= RESPONSE_ENVELOPE_LEN;
            assert_eq!(
                decode_response_id(&head.slice(..cut)).is_some(),
                id_readable
            );
        }

        // Over-long, and a payload part behind a reply that carries none.
        let long = parts(Bytes::from([&data[..], &[0, 0, 0]].concat()));
        assert_eq!(
            decode_response_frame(long).unwrap_err(),
            PvfsError::protocol("3 bytes of garbage after response")
        );
        let closed = Frame {
            head: encode_response(id, &Response::Closed),
            payload: Bytes::from(vec![1u8]),
        };
        assert_eq!(
            decode_response_frame(closed).unwrap_err(),
            PvfsError::protocol("1 bytes of garbage after response")
        );
        // Not a response at all: no id to attribute.
        assert_eq!(decode_response_id(&Bytes::from(vec![0xffu8; 16])), None);
    }

    #[test]
    fn short_and_over_long_payload_parts_are_typed_errors() {
        let m = msg(Request::Write {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 64),
            data: Bytes::from(vec![7u8; 64]),
        });
        let frame = encode_frame(&m, None).unwrap();
        let whole = encode_message(&m).unwrap();
        let contiguous_err = |raw: Bytes| decode_message(raw).unwrap_err();

        // Short: the same error a truncated contiguous frame gets.
        let short = Frame {
            head: frame.head.clone(),
            payload: frame.payload.slice(..63),
        };
        assert_eq!(
            decode_frame(short).unwrap_err(),
            contiguous_err(whole.slice(..whole.len() - 1))
        );
        let missing = Frame::from(frame.head.clone());
        assert_eq!(
            decode_frame(missing).unwrap_err(),
            PvfsError::protocol("short frame reading bulk data")
        );

        // Over-long: the same error trailing garbage gets.
        let mut padded = whole.to_vec();
        padded.extend_from_slice(&[0, 0, 0]);
        let long = Frame {
            head: frame.head.clone(),
            payload: Bytes::from([&frame.payload[..], &[0, 0, 0]].concat()),
        };
        assert_eq!(
            decode_frame(long).unwrap_err(),
            contiguous_err(Bytes::from(padded))
        );

        // A payload part behind a request that carries none is garbage,
        // and so is one behind a frame whose head already holds it.
        let ping = Frame {
            head: encode_message(&msg(Request::Ping)).unwrap(),
            payload: Bytes::from(vec![1u8]),
        };
        assert_eq!(
            decode_frame(ping).unwrap_err(),
            PvfsError::protocol("1 bytes of garbage after frame")
        );
        let doubled = Frame {
            head: whole.clone(),
            payload: frame.payload.clone(),
        };
        assert_eq!(
            decode_frame(doubled).unwrap_err(),
            PvfsError::protocol("64 bytes of garbage after frame")
        );

        // A split anywhere but the head/payload boundary is not a frame.
        let straddling = Frame {
            head: whole.slice(..whole.len() - 10),
            payload: whole.slice(whole.len() - 10..),
        };
        assert!(decode_frame(straddling).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut raw = encode_message(&msg(Request::Open { path: "/a".into() }))
            .unwrap()
            .to_vec();
        raw[3] = 200;
        assert!(decode_message(Bytes::from(raw)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::contiguous;
    use super::*;
    use proptest::prelude::*;

    fn arb_layout() -> impl Strategy<Value = StripeLayout> {
        (0u32..4, 1u32..16, 1u64..1_000_000).prop_map(|(base, pcount, ssize)| StripeLayout {
            base,
            pcount,
            ssize,
        })
    }

    fn arb_regions() -> impl Strategy<Value = RegionList> {
        proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..=MAX_LIST_REGIONS)
            .prop_map(|pairs| RegionList::from_pairs(pairs).unwrap())
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            ("[a-z/]{1,30}", arb_layout())
                .prop_map(|(path, layout)| Request::Create { path, layout }),
            "[a-z/]{1,30}".prop_map(|path| Request::Open { path }),
            (0u64..u64::MAX).prop_map(|h| Request::Close {
                handle: FileHandle(h)
            }),
            (arb_layout(), 0u64..1_000_000, 1u64..100_000).prop_map(|(layout, off, len)| {
                Request::Read {
                    handle: FileHandle(1),
                    layout,
                    region: Region::new(off, len),
                }
            }),
            (
                arb_layout(),
                0u64..1_000_000,
                proptest::collection::vec(any::<u8>(), 0..2048)
            )
                .prop_map(|(layout, off, data)| Request::Write {
                    handle: FileHandle(1),
                    layout,
                    region: Region::new(off, data.len() as u64),
                    data: Bytes::from(data),
                }),
            (arb_layout(), arb_regions()).prop_map(|(layout, regions)| Request::ReadList {
                handle: FileHandle(1),
                layout,
                regions,
            }),
            (
                arb_layout(),
                arb_regions(),
                proptest::collection::vec(any::<u8>(), 0..512)
            )
                .prop_map(|(layout, regions, data)| Request::WriteList {
                    handle: FileHandle(1),
                    layout,
                    regions,
                    data: Bytes::from(data),
                }),
        ]
    }

    proptest! {
        #[test]
        fn any_request_roundtrips(
            request in arb_request(),
            client in 0u32..1024,
            id in 0u64..u64::MAX,
        ) {
            let m = Message {
                client: ClientId(client),
                id: RequestId(id),
                request,
            };
            let encoded = encode_message(&m).unwrap();
            let decoded = decode_message(encoded).unwrap();
            prop_assert_eq!(decoded, m);
        }

        #[test]
        fn any_request_frame_is_its_contiguous_encoding_in_two_parts(
            request in arb_request(),
            client in 0u32..1024,
            id in 0u64..u64::MAX,
        ) {
            super::tests::assert_frame_matches_contiguous(&Message {
                client: ClientId(client),
                id: RequestId(id),
                request,
            });
        }

        #[test]
        fn list_frames_never_exceed_mtu(
            layout in arb_layout(),
            regions in arb_regions(),
        ) {
            let m = Message {
                client: ClientId(0),
                id: RequestId(0),
                request: Request::ReadList {
                    handle: FileHandle(1),
                    layout,
                    regions,
                },
            };
            let encoded = encode_message(&m).unwrap();
            prop_assert!(encoded.len() <= crate::limits::ETHERNET_MTU);
        }

        #[test]
        fn decode_never_panics_on_random_bytes(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_message(Bytes::from(raw.clone()));
            let _ = decode_response(Bytes::from(raw));
        }

        #[test]
        fn any_request_roundtrips_with_trace_context(
            request in arb_request(),
            trace in 1u64..u64::MAX,
            parent in 0u64..u64::MAX,
        ) {
            let m = Message {
                client: ClientId(3),
                id: RequestId(11),
                request,
            };
            let ctx = TraceContext {
                trace: TraceId(trace),
                parent: SpanId(parent),
            };
            let encoded = contiguous(&m, Some(ctx)).unwrap();
            let (decoded, got) = decode_frame(encoded.into()).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(got, Some(ctx));
        }
    }
}
