//! Binary codec for the wire protocol.
//!
//! Frames are self-describing; integers are little-endian. A request is
//! `magic (2B, 0x5056 "PV") | version (1B) | opcode (1B) | client id (4B)
//! | request id (8B) | fields`, a response `magic | version | echoed
//! request id (8B) | tag (1B) | fields`.
//!
//! Every message is one row of the `wire!` table in [`crate::message`]:
//! its variant, its opcode or tag, its fields in wire order. A field's
//! Rust type is its wire type — a `Field` impl below puts, gets and sizes
//! it — so the encoders, the decoders, the opcode maps,
//! [`Request::control_wire_size`] and [`Request::op_name`] are derived,
//! not kept. The frames as they travel are committed byte for byte
//! (`fixtures.rs`): a changed literal is a new wire version.
//!
//! A list request's regions follow its fixed fields as trailing data —
//! `count (4B)` then `count × (offset 8B, len 8B)` — the paper's
//! "variable sized trailing data" extension of the PVFS I/O request,
//! held to [`MAX_LIST_REGIONS`] and one Ethernet frame ([`check_list`]).
//! Bulk data (write payload, read reply data) streams behind the control
//! part, as a [`Frame`]'s second part. The simulator charges network
//! time for exactly `control_wire_size` bytes plus the bulk, so the
//! layout is load-bearing for the reproduced figures.
//!
//! # Trace context (version 2 frames)
//!
//! A traced request carries its [`TraceContext`] — trace id (8B) and
//! parent span id (8B) — right after the request id, under version byte
//! [`VERSION_TRACED`]. Untraced requests keep version 1 and the original
//! layout, so `PVFS_TRACE=off` frames are byte-identical to a pre-tracing
//! build, and old-format frames decode unchanged ([`decode_frame`]
//! accepts both).

use crate::limits::{list_request_fits_frame, MAX_BULK_BYTES, MAX_LIST_REGIONS, MAX_VECTOR_RUNS};

use crate::message::{Message, Request, Response, VectorRun};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pvfs_types::{
    ClientId, FileHandle, Histogram, PvfsError, PvfsResult, Region, RegionList, RequestId, Span,
    SpanId, StatsSnapshot, StripeLayout, TraceContext, TraceId,
};

const MAGIC: u16 = 0x5056; // "PV"
const VERSION: u8 = 1;
/// Version byte of frames carrying a 16-byte trace context after the
/// request id. Everything else about the layout is identical to version
/// 1 frames.
pub const VERSION_TRACED: u8 = 2;

/// Bytes of the envelope every request frame starts with: magic,
/// version, opcode, client id, request id.
pub(crate) const REQUEST_ENVELOPE_LEN: u64 = 2 + 1 + 1 + 4 + 8;

/// Bytes of the envelope every response frame starts with: magic,
/// version, echoed request id.
pub const RESPONSE_ENVELOPE_LEN: usize = 2 + 1 + 8;

/// Bytes of a [`Response::Data`] frame before its payload: envelope,
/// tag, payload length. A reply no longer than this is put together on
/// the stack ([`encode_response`]).
pub const DATA_HEAD_LEN: usize = RESPONSE_ENVELOPE_LEN + 1 + 8;

/// A wire frame in two parts: `head ‖ payload` is the frame, byte for
/// byte what [`encode_message`] (a request; plus the trace context, when
/// there is one) or [`encode_response`] (a reply) produces in one
/// buffer. A bulk payload is always a row's last field, so the frame
/// splits cleanly behind the payload's length word: `head` is everything
/// the encoder writes, `payload` the buffer the client gathered (or the
/// daemon read) — shared, never copied behind the head. A message
/// without one is all head. A stream transport writes the two parts with
/// one vectored write; the channel transport hands both over untouched.
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

/// Declares the protocol, one row per message, and derives its codec.
///
/// A row is a variant, its fields in wire order, and its tag on the
/// wire: `Read { handle: FileHandle, layout: StripeLayout, region:
/// Region } = 6`. A field's Rust type is its wire type (a [`Field`]); a
/// bulk payload (`Bytes`) is always a row's last field. A request row
/// adds its `op_name` and, for a control scrape, `scrape`; a tuple
/// variant names its fields for the codec's sake, `Stats(snapshot:
/// Box<StatsSnapshot>)`. `requests` and `responses` declare their enums;
/// `errors` is the wire form of [`PvfsError`], which `pvfs-types`
/// declares. Each gets its [`Tagged`] codec and, under test, a generator
/// of every row.
macro_rules! wire {
    (
        $(#[$req_meta:meta])*
        requests $Req:ident {
            $($(#[$r_meta:meta])*
            $R:ident $({ $($r:ident: $RT:ty),* })? = $op:literal $name:literal $($scrape:ident)?,)*
        }
        $(#[$resp_meta:meta])*
        responses $Resp:ident {
            $($(#[$s_meta:meta])*
            $S:ident $({ $($s:ident: $ST:ty),* })? $(($($t:ident: $TT:ty),*))? = $tag:literal,)*
        }
        errors $Err:ident {
            $($E:ident $({ $($e:ident: $ET:ty),* })? $(($($u:ident: $UT:ty),*))? = $code:literal,)*
        }
    ) => {
        $(#[$req_meta])*
        pub enum $Req {
            $($(#[$r_meta])* $R $({ $($r: $RT),* })?,)*
        }

        $(#[$resp_meta])*
        pub enum $Resp {
            $($(#[$s_meta])* $S $({ $($s: $ST),* })? $(($($TT),*))?,)*
        }

        impl $Req {
            /// Short operation name for logs and stats.
            pub fn op_name(&self) -> &'static str {
                match self {
                    $($Req::$R { .. } => $name,)*
                }
            }

            /// True for the opcode of a control scrape
            /// ([`Request::is_control_scrape`]).
            pub(crate) fn is_scrape_op(op: u8) -> bool {
                match op {
                    $($op => wire!(@scrape $($scrape)?),)*
                    _ => false,
                }
            }
        }

        wire!(@tagged $Req "opcode",
            $($op $R [$($($r: $RT),*)?] ($R $({ $($r),* })?))*);
        wire!(@tagged $Resp "response tag",
            $($tag $S [$($($s: $ST),*)? $($($t: $TT),*)?] ($S $({ $($s),* })? $(($($t),*))?))*);
        wire!(@tagged $Err "error tag",
            $($code $E [$($($e: $ET),*)? $($($u: $UT),*)?] ($E $({ $($e),* })? $(($($u),*))?))*);
    };
    (@scrape) => { false };
    (@scrape scrape) => { true };
    (@tagged $E:ident $what:literal,
        $($tag:literal $V:ident [$($b:ident: $T:ty),*] ($($shape:tt)*))*
    ) => {
        impl $crate::codec::Tagged for $E {
            fn tag(&self) -> u8 {
                match self {
                    $($E::$V { .. } => $tag,)*
                }
            }

            fn put_fields(&self, w: &mut impl bytes::BufMut) -> Option<&bytes::Bytes> {
                use $crate::codec::Field;
                match self {
                    $($E::$($shape)* => {
                        $($b.put(w);)*
                        None $(.or($b.payload()))*
                    })*
                }
            }

            fn get_fields(tag: u8, r: &mut $crate::codec::Reader) -> pvfs_types::PvfsResult<Self> {
                use $crate::codec::Field;
                match tag {
                    $($tag => {
                        $(let $b = <$T>::get(r)?;)*
                        Ok($E::$($shape)*)
                    })*
                    other => {
                        let what = $what;
                        Err(pvfs_types::PvfsError::protocol(format!("unknown {what} {other}")))
                    }
                }
            }

            fn fields_len(&self) -> u64 {
                use $crate::codec::Field;
                match self {
                    $($E::$($shape)* => 0 $(+ $b.wire_len())*,)*
                }
            }

            fn check_fields(&self) -> pvfs_types::PvfsResult<()> {
                use $crate::codec::Field;
                match self {
                    $($E::$($shape)* => {
                        $($b.check()?;)*
                        Ok(())
                    })*
                }
            }
        }

        #[cfg(test)]
        impl $crate::codec::arb::Arb for $E {
            fn arb() -> proptest::strategy::BoxedStrategy<Self> {
                use proptest::strategy::{Just, Strategy};
                proptest::prop_oneof![$(
                    (Just(()), $(<$T>::arb(),)*).prop_map(|((), $($b,)*)| $E::$($shape)*)
                ),*]
                .boxed()
            }
        }
    };
}
pub(crate) use wire;

/// An enum declared by [`wire!`] rows: each variant travels as its tag
/// and then its fields, in row order.
pub(crate) trait Tagged: Sized {
    /// The variant's opcode or tag.
    fn tag(&self) -> u8;
    /// Put the fields; a payload field comes back, to travel behind them.
    fn put_fields(&self, w: &mut impl BufMut) -> Option<&Bytes>;
    /// The fields of the variant `tag` names, read in row order.
    fn get_fields(tag: u8, r: &mut Reader) -> PvfsResult<Self>;
    /// Bytes the fields take on the wire, a payload's counted as its
    /// length word.
    fn fields_len(&self) -> u64;
    /// Every field within its wire limits ([`Field::check`]): what an
    /// encoder asks before it writes and a decoder after it reads.
    fn check_fields(&self) -> PvfsResult<()>;
}

/// A wire type: how one field of a [`wire!`] row is put, got and sized.
pub(crate) trait Field: Sized {
    /// The fewest bytes a value takes on the wire: what holds a count to
    /// the bytes that remain before anything is allocated for it.
    const MIN_LEN: u64;

    fn put(&self, w: &mut impl BufMut);

    fn get(r: &mut Reader) -> PvfsResult<Self>;

    /// Bytes this value takes on the wire (a payload's: its length word).
    fn wire_len(&self) -> u64 {
        Self::MIN_LEN
    }

    /// The limits a value must meet on the wire: checked before a
    /// message is encoded and after it is decoded ([`Tagged::check_fields`]).
    fn check(&self) -> PvfsResult<()> {
        Ok(())
    }

    /// The limits a counted vector of these must meet: each item's, unless
    /// the count has limits of its own.
    fn check_all(items: &[Self]) -> PvfsResult<()> {
        items.iter().try_for_each(Field::check)
    }

    /// The bulk payload behind the head, for the one field that is one.
    fn payload(&self) -> Option<&Bytes> {
        None
    }
}

/// A frame being decoded: its head, its payload part, and the spare a
/// list request's regions are decoded into.
pub(crate) struct Reader<'s> {
    head: Bytes,
    payload: Bytes,
    spare: &'s mut RegionList,
}

impl<'s> Reader<'s> {
    fn new(frame: Frame, spare: &'s mut RegionList) -> Reader<'s> {
        Reader {
            head: frame.head,
            payload: frame.payload,
            spare,
        }
    }

    /// Magic and version, returning the version when it is one of
    /// `VERSION..=newest`.
    fn envelope(&mut self, newest: u8) -> PvfsResult<u8> {
        let magic = u16::get(self)?;
        if magic != MAGIC {
            return Err(PvfsError::protocol(format!("bad magic {magic:#06x}")));
        }
        let version = u8::get(self)?;
        if !(VERSION..=newest).contains(&version) {
            return Err(PvfsError::protocol(format!(
                "unsupported version {version}"
            )));
        }
        Ok(version)
    }

    /// The frame is spent: bytes left over in either part are garbage
    /// after `what`.
    fn finish(self, what: &str) -> PvfsResult<()> {
        match self.head.remaining() + self.payload.remaining() {
            0 => Ok(()),
            garbage => Err(PvfsError::protocol(format!(
                "{garbage} bytes of garbage after {what}"
            ))),
        }
    }
}

macro_rules! int_fields {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Field for $t {
            const MIN_LEN: u64 = std::mem::size_of::<$t>() as u64;

            fn put(&self, w: &mut impl BufMut) {
                w.$put(*self)
            }

            fn get(r: &mut Reader) -> PvfsResult<Self> {
                if r.head.remaining() < Self::MIN_LEN as usize {
                    return Err(PvfsError::protocol("short frame"));
                }
                Ok(r.head.$get())
            }
        }
    )*};
}

int_fields! {
    u8: put_u8, get_u8;
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
}

impl Field for String {
    const MIN_LEN: u64 = 4;

    fn put(&self, w: &mut impl BufMut) {
        (self.len() as u32).put(w);
        w.put_slice(self.as_bytes());
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let len = u32::get(r)? as usize;
        if r.head.remaining() < len {
            return Err(PvfsError::protocol("short frame reading string"));
        }
        String::from_utf8(r.head.split_to(len).to_vec())
            .map_err(|_| PvfsError::protocol("invalid utf-8 in string"))
    }

    fn wire_len(&self) -> u64 {
        4 + self.len() as u64
    }
}

/// A bulk payload, always a row's last field: its length word in the
/// head, its bytes out of the rest of the head (a contiguous frame) or,
/// once the head is spent, out of the frame's payload part.
impl Field for Bytes {
    const MIN_LEN: u64 = 8;

    fn put(&self, w: &mut impl BufMut) {
        (self.len() as u64).put(w)
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let len = u64::get(r)? as usize;
        let part = if r.head.has_remaining() {
            &mut r.head
        } else {
            &mut r.payload
        };
        if part.remaining() < len {
            return Err(PvfsError::protocol("short frame reading bulk data"));
        }
        Ok(part.split_to(len))
    }

    /// One frame carries at most [`MAX_BULK_BYTES`] of bulk, by either
    /// transport.
    fn check(&self) -> PvfsResult<()> {
        let (len, max) = (self.len() as u64, MAX_BULK_BYTES as u64);
        let too_large = PvfsError::FrameTooLarge { len, max };
        (len <= max).then_some(()).ok_or(too_large)
    }

    fn payload(&self) -> Option<&Bytes> {
        Some(self)
    }
}

/// A count, then that many items. The count is held to the bytes that
/// remain before anything is allocated for it.
impl<T: Field> Field for Vec<T> {
    const MIN_LEN: u64 = 4;

    fn put(&self, w: &mut impl BufMut) {
        (self.len() as u32).put(w);
        self.iter().for_each(|item| item.put(w));
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let n = u32::get(r)? as u64;
        let (claimed, remain) = (n * T::MIN_LEN, r.head.remaining());
        if claimed > remain as u64 {
            return Err(PvfsError::protocol(format!(
                "a count of {n} claims {claimed} bytes but only {remain} bytes remain"
            )));
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }

    fn wire_len(&self) -> u64 {
        4 + self.iter().map(Field::wire_len).sum::<u64>()
    }

    fn check(&self) -> PvfsResult<()> {
        T::check_all(self)
    }
}

impl<T: Field> Field for Box<T> {
    const MIN_LEN: u64 = T::MIN_LEN;

    fn put(&self, w: &mut impl BufMut) {
        (**self).put(w)
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        T::get(r).map(Box::new)
    }

    fn wire_len(&self) -> u64 {
        (**self).wire_len()
    }
}

/// Structs that travel as their fields, in declaration order (a newtype's
/// one field is `0`); the block after each adds the rest of its [`Field`]
/// impl (its wire limits).
macro_rules! struct_fields {
    ($($S:ident { $($f:tt: $T:ty),* } { $($limits:tt)* })*) => {$(
        impl Field for $S {
            const MIN_LEN: u64 = 0 $(+ <$T>::MIN_LEN)*;

            fn put(&self, w: &mut impl BufMut) {
                $(self.$f.put(w);)*
            }

            fn get(r: &mut Reader) -> PvfsResult<Self> {
                Ok($S { $($f: <$T>::get(r)?),* })
            }

            fn wire_len(&self) -> u64 {
                0 $(+ self.$f.wire_len())*
            }

            $($limits)*
        }
    )*};
}

struct_fields! {
    ClientId { 0: u32 } {}
    RequestId { 0: u64 } {}
    FileHandle { 0: u64 } {}
    TraceId { 0: u64 } {}
    SpanId { 0: u64 } {}
    TraceContext { trace: TraceId, parent: SpanId } {}
    // 52 bytes plus the strings.
    Span {
        trace: TraceId, id: SpanId, parent: SpanId, node: String, op: String, start_ns: u64,
        dur_ns: u64, notes: Vec<String>
    } {}
    StripeLayout { base: u32, pcount: u32, ssize: u64 } {
        fn check(&self) -> PvfsResult<()> {
            self.validate()
                .map_err(|e| PvfsError::protocol(format!("invalid stripe layout on wire: {e}")))
        }
    }
    Region { offset: u64, len: u64 } {
        fn check(&self) -> PvfsResult<()> {
            match self.offset.checked_add(self.len) {
                Some(_) => Ok(()),
                None => Err(PvfsError::protocol(format!(
                    "region {}+{} overflows u64",
                    self.offset, self.len
                ))),
            }
        }
    }
    VectorRun { base: u64, blocklen: u64, stride: u64, count: u64 } {
        fn check(&self) -> PvfsResult<()> {
            self.validate()
                .map_err(|e| PvfsError::protocol(format!("invalid vector run: {e}")))
        }

        /// A request carries 1 to [`MAX_VECTOR_RUNS`] runs, each valid.
        fn check_all(runs: &[Self]) -> PvfsResult<()> {
            if runs.is_empty() {
                return Err(PvfsError::protocol("vector request with no runs"));
            }
            if runs.len() > MAX_VECTOR_RUNS {
                return Err(PvfsError::protocol(format!(
                    "vector request with {} runs exceeds the {MAX_VECTOR_RUNS}-run frame limit",
                    runs.len()
                )));
            }
            runs.iter().try_for_each(Field::check)
        }
    }
}

/// The paper's trailing data: a count, then that many regions — at most
/// [`MAX_LIST_REGIONS`], none empty — decoded into the reader's spare:
/// taken out of it, refilled in place when no other handle shares it
/// ([`RegionList::clear`]). A spare with no room for a full list (a fresh
/// one, say) is replaced by one with room for [`MAX_LIST_REGIONS`],
/// whatever this frame's count: every later frame fits.
impl Field for RegionList {
    const MIN_LEN: u64 = 4;

    fn put(&self, w: &mut impl BufMut) {
        (self.count() as u32).put(w);
        self.regions().iter().for_each(|region| region.put(w));
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let count = u32::get(r)? as usize;
        if count == 0 || count > MAX_LIST_REGIONS {
            return Err(PvfsError::protocol(format!(
                "trailing data region count {count} out of range 1..={MAX_LIST_REGIONS}"
            )));
        }
        let mut regions = std::mem::take(r.spare);
        regions.clear();
        if regions.capacity() < MAX_LIST_REGIONS {
            regions = RegionList::with_capacity(MAX_LIST_REGIONS);
        }
        for _ in 0..count {
            let region = Region::get(r)?;
            region.check()?;
            if region.is_empty() {
                return Err(PvfsError::protocol(
                    "invalid trailing data: invalid argument: region list contains an empty region",
                ));
            }
            regions.push(region);
        }
        Ok(regions)
    }

    fn wire_len(&self) -> u64 {
        4 + Region::MIN_LEN * self.count() as u64
    }

    fn check(&self) -> PvfsResult<()> {
        check_list(self)
    }
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

/// A snapshot travels as the ledger declares it (`pvfs_types::metrics`):
/// every counter, then every gauge, one word each, then every histogram.
impl Field for StatsSnapshot {
    /// Never counted: a reply carries one snapshot.
    const MIN_LEN: u64 = 0;

    fn put(&self, w: &mut impl BufMut) {
        for (_, v) in self.counters().into_iter().chain(self.gauges()) {
            v.put(w);
        }
        self.histograms().iter().for_each(|(_, h)| h.put(w));
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        StatsSnapshot::read(r, u64::get, Histogram::get)
    }

    fn wire_len(&self) -> u64 {
        let histograms: u64 = self.histograms().iter().map(|(_, h)| h.wire_len()).sum();
        8 * (self.counters().len() + self.gauges().len()) as u64 + histograms
    }
}

/// Histograms ship sparse: `sum (16B, lo/hi u64 halves) | min (8B) |
/// max (8B) | n (4B) | n × (bucket index 4B, count 8B)` — 36 bytes plus
/// 12 per occupied bucket, so a stats response stays a small control
/// frame.
impl Field for Histogram {
    const MIN_LEN: u64 = 36;

    fn put(&self, w: &mut impl BufMut) {
        let sum = self.sum_ns();
        for word in [sum as u64, (sum >> 64) as u64, self.min_ns(), self.max_ns()] {
            word.put(w);
        }
        let sparse = self.to_sparse();
        (sparse.len() as u32).put(w);
        for (i, c) in sparse {
            i.put(w);
            c.put(w);
        }
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let (lo, hi, min, max) = (u64::get(r)?, u64::get(r)?, u64::get(r)?, u64::get(r)?);
        let n = u32::get(r)? as usize;
        if n > 1024 {
            return Err(PvfsError::protocol("absurd histogram bucket count"));
        }
        let mut sparse = Vec::with_capacity(n);
        for _ in 0..n {
            sparse.push((u32::get(r)?, u64::get(r)?));
        }
        Histogram::from_sparse(&sparse, (hi as u128) << 64 | lo as u128, min, max)
            .ok_or_else(|| PvfsError::protocol("invalid histogram buckets on wire"))
    }

    fn wire_len(&self) -> u64 {
        Self::MIN_LEN + 12 * self.to_sparse().len() as u64
    }
}

/// An error travels as its code, then its fields (the `errors` rows).
impl Field for PvfsError {
    const MIN_LEN: u64 = 1;

    fn put(&self, w: &mut impl BufMut) {
        self.tag().put(w);
        self.put_fields(w);
    }

    fn get(r: &mut Reader) -> PvfsResult<Self> {
        let code = u8::get(r)?;
        PvfsError::get_fields(code, r)
    }

    fn wire_len(&self) -> u64 {
        Self::MIN_LEN + self.fields_len()
    }
}

/// Encode a request message to its wire frame (header + trailing data +
/// bulk payload). Always an untraced version 1 frame — the historical
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
    let ctx_len = ctx.map_or(0, |ctx| ctx.wire_len());
    (request.control_wire_size() + ctx_len) as usize
}

/// The one request encoder: hold the request to its wire limits, write
/// everything up to (and including) a write request's payload length
/// into `buf`, and return the payload that belongs behind it.
fn put_head<'m>(
    buf: &mut BytesMut,
    client: ClientId,
    id: RequestId,
    request: &'m Request,
    ctx: Option<TraceContext>,
) -> PvfsResult<Option<&'m Bytes>> {
    request.check_fields()?;
    MAGIC.put(buf);
    ctx.map_or(VERSION, |_| VERSION_TRACED).put(buf);
    request.tag().put(buf);
    client.put(buf);
    id.put(buf);
    if let Some(ctx) = ctx {
        ctx.put(buf);
    }
    Ok(request.put_fields(buf))
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
        && frame[..2] == MAGIC.to_le_bytes()
        && (VERSION..=VERSION_TRACED).contains(&frame[2])
        && Request::is_scrape_op(frame[3])
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
    let mut spare = RegionList::new();
    let mut r = Reader::new(frame.clone().into(), &mut spare);
    r.envelope(VERSION_TRACED).ok()?;
    let (_op, _client) = (u8::get(&mut r).ok()?, ClientId::get(&mut r).ok()?);
    RequestId::get(&mut r).ok()
}

/// Decode a contiguous request frame, dropping any trace context.
pub fn decode_message(buf: Bytes) -> PvfsResult<Message> {
    decode_frame(buf.into()).map(|(m, _)| m)
}

/// Decode a request [`Frame`] — the one request decoder — returning the
/// trace context when the frame is a [`VERSION_TRACED`] one. Old-format
/// (version 1) frames decode exactly as before with `None` — backward
/// compatibility is pinned by the committed fixture frames. A
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
/// storage `spare` holds (see the trailing data's `Field` impl), so
/// that a daemon that puts each served request's list back
/// ([`Request::into_regions`]) decodes the next one without allocating.
pub fn decode_frame_reusing(
    frame: Frame,
    spare: &mut RegionList,
) -> PvfsResult<(Message, Option<TraceContext>)> {
    let mut r = Reader::new(frame, spare);
    let version = r.envelope(VERSION_TRACED)?;
    let op = u8::get(&mut r)?;
    let (client, id) = (ClientId::get(&mut r)?, RequestId::get(&mut r)?);
    let ctx = match version {
        VERSION_TRACED => Some(TraceContext::get(&mut r)?),
        _ => None,
    };
    let request = Request::get_fields(op, &mut r)?;
    request.check_fields()?;
    r.finish("frame")?;
    Ok((
        Message {
            client,
            id,
            request,
        },
        ctx,
    ))
}

/// Every response frame starts with this: magic, version, echoed id.
fn put_response_envelope(buf: &mut impl BufMut, id: RequestId) {
    MAGIC.put(buf);
    VERSION.put(buf);
    id.put(buf);
}

/// The head of a [`Response::Data`] frame carrying `payload_len` bytes:
/// `head ‖ payload` is byte for byte what [`encode_response`] produces.
/// A stream transport writes the two parts with one vectored write, so
/// the payload is never staged behind its head in a second buffer.
pub fn data_response_head(id: RequestId, payload_len: u64) -> [u8; DATA_HEAD_LEN] {
    let mut head = [0u8; DATA_HEAD_LEN];
    let mut w = &mut head[..];
    put_response_envelope(&mut w, id);
    Response::Data { data: Bytes::new() }.tag().put(&mut w);
    payload_len.put(&mut w);
    head
}

/// The one response encoder: envelope, tag, fields, and a `Data`
/// reply's payload behind them.
fn put_response(w: &mut impl BufMut, id: RequestId, resp: &Response) {
    put_response_envelope(w, id);
    resp.tag().put(w);
    if let Some(payload) = resp.put_fields(w) {
        w.put_slice(payload);
    }
}

/// Encode a response frame (echoing the request id). A reply of at most
/// [`DATA_HEAD_LEN`] bytes — every acknowledgement there is — is put
/// together on the stack and comes back inside the `Bytes`
/// ([`bytes::INLINE_CAP`]): nothing is allocated for it, and nothing
/// about it depends on when its receiver drops it.
pub fn encode_response(id: RequestId, resp: &Response) -> Bytes {
    let len = RESPONSE_ENVELOPE_LEN + 1 + (resp.fields_len() + resp.bulk_len()) as usize;
    if len <= DATA_HEAD_LEN {
        let mut frame = [0u8; DATA_HEAD_LEN];
        put_response(&mut &mut frame[..], id, resp);
        return Bytes::copy_from_slice(&frame[..len]);
    }
    let mut buf = BytesMut::with_capacity(len);
    put_response(&mut buf, id, resp);
    buf.freeze()
}

/// Extract the echoed request id from a response frame's envelope
/// without decoding the body, which may be malformed: what lets a client
/// with several requests on one connection tell whose reply failed to
/// decode.
pub fn decode_response_id(frame: &Bytes) -> Option<RequestId> {
    let mut spare = RegionList::new();
    let mut r = Reader::new(frame.clone().into(), &mut spare);
    r.envelope(VERSION).ok()?;
    RequestId::get(&mut r).ok()
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
    let mut spare = RegionList::new();
    let mut r = Reader::new(frame, &mut spare);
    r.envelope(VERSION)?;
    let id = RequestId::get(&mut r)?;
    let tag = u8::get(&mut r)?;
    let resp = Response::get_fields(tag, &mut r)?;
    resp.check_fields()?;
    r.finish("response")?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

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

    /// The id every fixture reply echoes.
    const FIXTURE_ID: RequestId = RequestId(0x0102_0304_0506_0708);

    /// The context every traced fixture request carries.
    const FIXTURE_CTX: TraceContext = TraceContext {
        trace: TraceId(0xfeed),
        parent: SpanId(0xf00d),
    };

    /// What the fixture requests hold, one per opcode in opcode order
    /// (`crate::fixtures::REQUESTS`), each sent as [`msg`].
    fn fixture_requests() -> Vec<Request> {
        let (handle, layout) = (FileHandle(42), StripeLayout::new(1, 4, 16384).unwrap());
        let regions = RegionList::from_pairs([(0, 4), (20, 4)]).unwrap();
        let run = |base, blocklen, stride, count| VectorRun {
            base,
            blocklen,
            stride,
            count,
        };
        vec![
            Request::Create {
                path: "/pvfs/f".into(),
                layout,
            },
            Request::Open {
                path: "/pvfs/f".into(),
            },
            Request::Close { handle },
            Request::Remove {
                path: "/pvfs/f".into(),
            },
            Request::GetLocalSize { handle },
            Request::Read {
                handle,
                layout,
                region: Region::new(1000, 5000),
            },
            Request::Write {
                handle,
                layout,
                region: Region::new(0, 5),
                data: Bytes::from(vec![1, 2, 3, 4, 5]),
            },
            Request::ReadList {
                handle,
                layout,
                regions: regions.clone(),
            },
            Request::WriteList {
                handle,
                layout,
                regions,
                data: Bytes::from(vec![9u8; 8]),
            },
            Request::ReadVectors {
                handle,
                layout,
                runs: vec![run(0, 128, 1024, 3), run(1 << 32, 8, 8, 1)],
            },
            Request::WriteVectors {
                handle,
                layout,
                runs: vec![run(0, 4, 16, 2)],
                data: Bytes::from(vec![3u8; 8]),
            },
            Request::ListDir,
            Request::GetStats,
            Request::ResetStats,
            Request::Sync { handle },
            Request::Flush,
            Request::Ping,
            Request::StripeDigest {
                handle,
                chunk: 16 * 1024,
            },
            Request::Truncate {
                handle,
                size: 1 << 20,
            },
            Request::GetTrace {
                trace: TraceId(0xbeef),
            },
        ]
    }

    /// One fully populated snapshot: the 16 counters 1..=16, the four
    /// gauges 17..=20, two samples of queue wait (buckets 19 and 23), one
    /// of service time (bucket 39), no fsync.
    fn fixture_stats() -> StatsSnapshot {
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
        snap
    }

    /// What the fixture replies hold, one per response kind in tag order
    /// but `Error` (`crate::fixtures::RESPONSES`), each echoing
    /// [`FIXTURE_ID`].
    fn fixture_responses() -> Vec<Response> {
        vec![
            Response::Created {
                handle: FileHandle(7),
            },
            Response::Opened {
                handle: FileHandle(7),
                layout: StripeLayout::new(1, 4, 16384).unwrap(),
            },
            Response::Closed,
            Response::Removed,
            Response::LocalSize { size: 1 << 40 },
            Response::Data {
                data: Bytes::from(vec![0xab; 4]),
            },
            Response::Written { bytes: 2048 },
            Response::Listing {
                paths: vec!["/pvfs/a".into(), "/pvfs/bb".into()],
            },
            Response::Stats(Box::new(fixture_stats())),
            Response::Synced { durable: u64::MAX },
            Response::Flushed { files: 3 },
            Response::Pong { queue_depth: 9 },
            Response::Digests {
                version: 17,
                size: 70_000,
                chunks: vec![0xcbf2_9ce4_8422_2325, 0, u64::MAX],
            },
            Response::Spans(vec![sample_span(9, 1, 0)]),
        ]
    }

    /// What the fixture error replies hold, one per code in code order
    /// (`crate::fixtures::ERRORS`), each a [`Response::Error`] echoing
    /// [`FIXTURE_ID`].
    fn fixture_errors() -> Vec<PvfsError> {
        vec![
            PvfsError::InvalidArgument("bad stride".into()),
            PvfsError::NoSuchFile("/pvfs/gone".into()),
            PvfsError::AlreadyExists("/pvfs/f".into()),
            PvfsError::BadHandle(9),
            PvfsError::Protocol("short frame".into()),
            PvfsError::Storage("disk on fire".into()),
            PvfsError::Transport("peer hung up".into()),
            PvfsError::NoSuchServer(3),
            PvfsError::Timeout("iod2".into()),
            PvfsError::FrameTooLarge {
                len: 1 << 40,
                max: 1 << 20,
            },
            PvfsError::Config("PVFS_AGGREGATORS: junk".into()),
            PvfsError::Unavailable {
                server: 3,
                retry_after_ms: 250,
            },
            PvfsError::Overloaded {
                server: 1,
                queue_depth: 64,
            },
        ]
    }

    /// The committed frames: every value encodes to its literal byte for
    /// byte, every literal decodes back to its value, and the literals
    /// hold every opcode, response tag and error code there is.
    #[test]
    fn every_fixture_frame_is_encoded_byte_for_byte_and_decodes_back() {
        let requests = fixture_requests();
        assert_eq!(requests.len(), fixtures::REQUESTS.len());
        for (i, (request, (name, v1, v2))) in
            requests.into_iter().zip(fixtures::REQUESTS).enumerate()
        {
            assert_eq!(request.op_name(), name);
            let m = msg(request);
            for (ctx, hex) in [(None, v1), (Some(FIXTURE_CTX), v2)] {
                let frame = fixtures::bytes(hex);
                assert_eq!(frame[3] as usize, i + 1, "{name}: opcodes run 1..=20");
                assert_eq!(
                    &contiguous(&m, ctx).unwrap()[..],
                    &frame[..],
                    "{name} {ctx:?}"
                );
                let decoded = decode_frame(Bytes::from(frame).into()).unwrap();
                assert_eq!(decoded, (m.clone(), ctx), "{name}");
            }
        }
        let responses = fixture_responses().into_iter().zip(fixtures::RESPONSES);
        let errors = fixture_errors().into_iter().map(Response::Error);
        let errors = errors.zip(fixtures::ERRORS);
        for (resp, (kind, hex)) in responses.chain(errors) {
            let frame = fixtures::bytes(hex);
            assert_eq!(
                &encode_response(FIXTURE_ID, &resp)[..],
                &frame[..],
                "{kind}"
            );
            let decoded = decode_response(Bytes::from(frame)).unwrap();
            assert_eq!(decoded, (FIXTURE_ID, resp), "{kind}");
        }
        let tag_at = |at: usize, table: &[(&str, &str)]| -> Vec<u8> {
            table
                .iter()
                .map(|(_, hex)| fixtures::bytes(hex)[at])
                .collect()
        };
        let tags: Vec<u8> = (1..=15).filter(|&t| t != 8).collect();
        assert_eq!(tag_at(11, &fixtures::RESPONSES), tags);
        assert!(tag_at(11, &fixtures::ERRORS).iter().all(|&t| t == 8));
        assert_eq!(tag_at(12, &fixtures::ERRORS), (1..=13).collect::<Vec<u8>>());
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

    /// A histogram field whose `min` exceeds its `max` is refused at
    /// decode: every percentile of it would panic.
    #[test]
    fn a_forged_histogram_min_above_max_is_refused() {
        const V: u64 = 0x0123_4567_89ab_cdef;
        let mut snap = StatsSnapshot::default();
        snap.queue_wait.record(V);
        let mut raw = encode_response(RequestId(7), &Response::Stats(Box::new(snap))).to_vec();
        // The field's min and max words, both V, side by side.
        let pair = [V.to_le_bytes(), V.to_le_bytes()].concat();
        let at = raw.windows(16).position(|w| w == pair).unwrap();
        raw[at..at + 8].copy_from_slice(&100u64.to_le_bytes());
        raw[at + 8..at + 16].copy_from_slice(&5u64.to_le_bytes());
        let err = decode_response(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, PvfsError::Protocol(_)), "{err}");
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

    /// A write frame carries at most one frame's bulk: one byte more is
    /// refused before anything is encoded, the cap itself is not.
    #[test]
    fn a_bulk_above_the_cap_is_refused() {
        let write = |len: usize| {
            msg(Request::Write {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(0, len as u64),
                data: Bytes::from(vec![0u8; len]),
            })
        };
        assert!(encode_message(&write(MAX_BULK_BYTES)).is_ok());
        match encode_message(&write(MAX_BULK_BYTES + 1)) {
            Err(PvfsError::FrameTooLarge { len, max }) => {
                assert_eq!(
                    (len, max),
                    (MAX_BULK_BYTES as u64 + 1, MAX_BULK_BYTES as u64)
                )
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
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

    /// `LIST_HEADER_SIZE`, the planner's frame arithmetic, is what the
    /// table says a list request with no regions takes.
    #[test]
    fn list_header_size_is_a_list_request_without_regions() {
        let bare = Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions: RegionList::new(),
        };
        assert_eq!(bare.control_wire_size(), LIST_HEADER_SIZE as u64);
    }

    /// A 16-byte listing that claims a million paths is refused before
    /// anything is allocated for them (it once cost the client 24 MB of
    /// `String`s): a count is held to the bytes that remain.
    #[test]
    fn a_forged_listing_count_is_refused_before_it_is_allocated() {
        let mut frame = encode_response(FIXTURE_ID, &Response::Listing { paths: vec![] }).to_vec();
        frame[12..].copy_from_slice(&1_000_000u32.to_le_bytes());
        let err = decode_response(Bytes::from(frame)).unwrap_err();
        let claim = |m: &str| m.contains("claims") && m.contains("but only 0 bytes remain");
        assert!(matches!(&err, PvfsError::Protocol(m) if claim(m)), "{err}");
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

    /// Every reply of at most `DATA_HEAD_LEN` bytes — every
    /// acknowledgement, and whatever else is that short — is its
    /// fixture's bytes held inside the `Bytes`, nothing allocated; every
    /// longer one is not. A `Data` reply's fixed part is its fixture's
    /// first `DATA_HEAD_LEN` bytes.
    #[test]
    fn fixed_size_replies_are_inline_and_of_unchanged_bytes() {
        let inline = |b: &Bytes| {
            let this = b as *const Bytes as usize;
            (this..this + std::mem::size_of::<Bytes>()).contains(&(b.as_ptr() as usize))
        };
        let responses = fixture_responses().into_iter().zip(fixtures::RESPONSES);
        let errors = fixture_errors().into_iter().map(Response::Error);
        let mut short = Vec::new();
        for (resp, (kind, hex)) in responses.chain(errors.zip(fixtures::ERRORS)) {
            let encoded = encode_response(FIXTURE_ID, &resp);
            assert_eq!(&encoded[..], &fixtures::bytes(hex)[..], "{kind}");
            assert_eq!(inline(&encoded), encoded.len() <= DATA_HEAD_LEN, "{kind}");
            if inline(&encoded) {
                short.push(kind);
            }
        }
        let acks = [
            "created",
            "closed",
            "removed",
            "local_size",
            "written",
            "synced",
        ];
        assert_eq!(
            short,
            [&acks[..], &["flushed", "pong", "no_such_server"]].concat()
        );
        let data = fixtures::bytes(fixtures::RESPONSES[5].1);
        assert_eq!(
            &data_response_head(FIXTURE_ID, 4)[..],
            &data[..DATA_HEAD_LEN]
        );
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
    use super::arb::Arb;
    use super::tests::contiguous;
    use super::*;
    use proptest::prelude::*;

    /// Every row of each table is drawn: the generators are the table's.
    #[test]
    fn the_generators_draw_every_row() {
        use proptest::test_runner::TestRng;
        use std::collections::BTreeSet;
        fn tags<T: Tagged>(rows: BoxedStrategy<T>) -> BTreeSet<u8> {
            let mut rng = TestRng::deterministic("rows");
            (0..2000).map(|_| rows.generate(&mut rng).tag()).collect()
        }
        assert_eq!(tags(Request::arb()), (1..=20).collect());
        assert_eq!(tags(Response::arb()), (1..=15).collect());
        assert_eq!(tags(PvfsError::arb()), (1..=13).collect());
    }

    proptest! {
        #[test]
        fn any_request_roundtrips(
            request in Request::arb(),
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
            request in Request::arb(),
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
            layout in StripeLayout::arb(),
            regions in RegionList::arb(),
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
        fn any_response_roundtrips(response in Response::arb(), id in any::<u64>()) {
            let encoded = encode_response(RequestId(id), &response);
            prop_assert_eq!(decode_response(encoded).unwrap(), (RequestId(id), response));
        }

        #[test]
        fn decode_never_panics_on_random_bytes(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_message(Bytes::from(raw.clone()));
            let _ = decode_response(Bytes::from(raw));
        }

        #[test]
        fn any_request_roundtrips_with_trace_context(
            request in Request::arb(),
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

/// Generators of every wire type, so that each table's generator is
/// derived from its rows (`wire!`): `Request::arb()`, `Response::arb()`
/// and `PvfsError::arb()` draw every row there is.
#[cfg(test)]
pub(crate) mod arb {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    pub(crate) trait Arb: Sized + 'static {
        fn arb() -> BoxedStrategy<Self>;

        /// A counted vector of these, as the wire allows it.
        fn arb_vec() -> BoxedStrategy<Vec<Self>> {
            vec(Self::arb(), 0..4).boxed()
        }
    }

    macro_rules! arb {
        ($($t:ty => $strategy:expr;)*) => {$(
            impl Arb for $t {
                fn arb() -> BoxedStrategy<Self> {
                    $strategy.boxed()
                }
            }
        )*};
    }

    arb! {
        u32 => any::<u32>();
        u64 => any::<u64>();
        FileHandle => any::<u64>().prop_map(FileHandle);
        TraceId => any::<u64>().prop_map(TraceId);
        String => "[a-z/]{0,30}";
        Bytes => vec(any::<u8>(), 0..512).prop_map(Bytes::from);
        StripeLayout => (0u32..4, 1u32..16, 1u64..1_000_000)
            .prop_map(|(base, pcount, ssize)| StripeLayout { base, pcount, ssize });
        Region => (0u64..1_000_000, 0u64..100_000).prop_map(|(at, len)| Region::new(at, len));
        RegionList => vec((0u64..1_000_000, 1u64..10_000), 1..=MAX_LIST_REGIONS)
            .prop_map(|pairs| RegionList::from_pairs(pairs).unwrap());
        Span => (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            String::arb(),
            String::arb(),
            (any::<u64>(), any::<u64>()),
            Vec::<String>::arb(),
        )
            .prop_map(|((trace, id, parent), node, op, (start_ns, dur_ns), notes)| Span {
                trace: TraceId(trace),
                id: SpanId(id),
                parent: SpanId(parent),
                node,
                op,
                start_ns,
                dur_ns,
                notes,
            });
        StatsSnapshot => any::<u64>().prop_map(|seed| {
            // Every metric drawn from one seed: a word per counter and
            // gauge, a few samples per histogram.
            let next = |s: &mut u64| {
                *s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                *s >> 20
            };
            let histogram = |s: &mut u64| {
                let mut h = Histogram::new();
                (0..next(s) % 4).for_each(|_| h.record(next(s) % 1_000_000_000));
                Ok::<_, ()>(h)
            };
            StatsSnapshot::read(&mut { seed }, |s| Ok(next(s)), histogram).unwrap()
        });
    }

    impl Arb for VectorRun {
        fn arb() -> BoxedStrategy<Self> {
            (0u64..1 << 40, 1u64..4096, 0u64..4096, 1u64..1000)
                .prop_map(|(base, blocklen, gap, count)| VectorRun {
                    base,
                    blocklen,
                    stride: blocklen + gap,
                    count,
                })
                .boxed()
        }

        fn arb_vec() -> BoxedStrategy<Vec<Self>> {
            vec(Self::arb(), 1..=MAX_VECTOR_RUNS).boxed()
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb() -> BoxedStrategy<Self> {
            T::arb_vec()
        }
    }

    impl<T: Arb> Arb for Box<T> {
        fn arb() -> BoxedStrategy<Self> {
            T::arb().prop_map(Box::new).boxed()
        }
    }
}
