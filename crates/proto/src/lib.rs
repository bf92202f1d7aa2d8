//! Wire protocol for the PVFS list-I/O reproduction.
//!
//! The paper extends the PVFS I/O request structure with a field
//! announcing that *variable-sized trailing data* follows the request:
//! the file offsets and lengths of a noncontiguous (list I/O) access.
//! Two limits are faithfully reproduced here:
//!
//! * at most [`MAX_LIST_REGIONS`] (64) file regions per request, and
//! * the request header plus trailing data must fit one Ethernet frame
//!   of [`ETHERNET_MTU`] (1500) bytes.
//!
//! Requests describing more regions are split by the planner into
//! several list requests, exactly as §3.3 describes.
//!
//! The module provides:
//!
//! * [`Request`] / [`Response`] — every message clients, I/O daemons and
//!   the manager exchange;
//! * [`Message`] — the request envelope carrying client and request ids;
//! * [`Io`] — a data request's one view ([`Request::io`]): its kind,
//!   handle, layout, [`Shape`] and payload, whichever of the six I/O
//!   variants it is, and [`Request::data`], their one constructor;
//! * a complete binary codec ([`codec`]) so frame sizes are real, not
//!   estimated — the simulator charges network time for exactly the
//!   bytes `encode` produces;
//! * [`limits`] — frame-limit arithmetic shared by planner and codec.

pub mod codec;
pub mod limits;
pub mod message;

pub use codec::{
    check_list, data_response_head, decode_data_head, decode_frame, decode_frame_id,
    decode_frame_reusing, decode_message, decode_response, decode_response_frame,
    decode_response_id, encode_frame, encode_frame_into, encode_message, encode_response,
    frame_is_stats_scrape, request_head_len, Frame, DATA_HEAD_LEN, RESPONSE_ENVELOPE_LEN,
    VERSION_TRACED,
};
pub use limits::{
    list_request_fits_frame, max_regions_per_frame, BULK_PIECE, ETHERNET_MTU, MAX_BULK_BYTES,
    MAX_LIST_REGIONS, MAX_VECTOR_RUNS, MAX_WIRE_FRAME,
};
pub use message::{Io, IoKind, Message, OpClass, Request, Response, Shape, ShapeRef, VectorRun};

#[cfg(test)]
mod fixtures;
