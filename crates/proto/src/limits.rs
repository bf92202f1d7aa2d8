//! Frame-limit arithmetic for list I/O requests.
//!
//! §3.3: *"We have chosen to allow up to 64 contiguous file regions to be
//! described in trailing data before another I/O request must be issued.
//! … This limit was chosen to allow the I/O request and trailing data to
//! travel through the network in a single Ethernet packet (1500
//! bytes)."*

/// Maximum number of file regions in one list I/O request (the paper's
/// conservative default).
pub const MAX_LIST_REGIONS: usize = 64;

/// One Ethernet frame: the paper's constraint on header + trailing data.
pub const ETHERNET_MTU: usize = 1500;

/// Encoded size of one trailing-data entry: file offset (u64) + length
/// (u64).
pub const TRAILING_ENTRY_SIZE: usize = 16;

/// Encoded size of a list I/O request header (everything before the
/// trailing data): magic (2), version (1), opcode (1), client id (4),
/// request id (8), handle (8), stripe layout (4 + 4 + 8) and region
/// count (4) — kept in sync with the codec by a test.
pub const LIST_HEADER_SIZE: usize = 2 + 1 + 1 + 4 + 8 + 8 + 16 + 4;

/// Encoded size of one vector-run entry: base + blocklen + stride +
/// count, 8 bytes each.
pub const VECTOR_RUN_SIZE: usize = 32;

/// Maximum vector runs per datatype-I/O request, chosen — like the
/// paper's 64-region limit — so the request fits one Ethernet frame:
/// (1500 − 44) / 32 = 45.
pub const MAX_VECTOR_RUNS: usize = (ETHERNET_MTU - LIST_HEADER_SIZE) / VECTOR_RUN_SIZE;

/// Hard cap on the bulk payload (write data / read response data) one
/// wire frame may carry. Bulk streams *behind* the MTU-bounded request
/// header on a real network; on the framed TCP transport it travels in
/// the same length-prefixed frame, so the frame cap must budget for it.
/// It is the wire guard — a malformed length prefix does not turn into
/// a multi-gigabyte allocation — and the sieve buffer's ceiling; a list
/// or datatype chunk closes before it, and a contiguous transfer moves
/// in [`BULK_PIECE`]s far below it.
pub const MAX_BULK_BYTES: usize = 64 << 20;

/// The most bulk one piece of a contiguous transfer (multiple I/O)
/// carries to any one daemon. The request pipeline keeps a window of
/// pieces in flight per daemon, so a transfer of any size stages at most
/// that window of pieces on either side of the wire — as ROMIO's
/// fixed-size buffer bounds its staging whatever the access's size.
pub const BULK_PIECE: usize = 256 << 10;

/// Hard cap on one length-prefixed wire frame of the TCP transport:
/// the MTU-bounded control part (header + trailing data, see
/// [`list_request_fits_frame`]) plus the [`MAX_BULK_BYTES`] bulk
/// budget. A peer announcing more is rejected with
/// `PvfsError::FrameTooLarge` before any allocation happens.
pub const MAX_WIRE_FRAME: usize = ETHERNET_MTU + MAX_BULK_BYTES;

/// How many trailing-data regions fit a frame of `mtu` bytes.
pub const fn max_regions_per_frame(mtu: usize) -> usize {
    (mtu - LIST_HEADER_SIZE) / TRAILING_ENTRY_SIZE
}

/// Does a list request with `region_count` regions fit one Ethernet
/// frame (header + trailing data, excluding any bulk write payload,
/// which streams separately)?
pub const fn list_request_fits_frame(region_count: usize) -> bool {
    LIST_HEADER_SIZE + region_count * TRAILING_ENTRY_SIZE <= ETHERNET_MTU
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_papers_64_region_limit_fits_one_frame() {
        assert!(list_request_fits_frame(MAX_LIST_REGIONS));
        // 44 + 64 * 16 = 1068 <= 1500.
        assert_eq!(
            LIST_HEADER_SIZE + MAX_LIST_REGIONS * TRAILING_ENTRY_SIZE,
            1068
        );
    }

    #[test]
    fn frame_capacity_exceeds_64() {
        // The paper calls 64 "conservative": the frame could hold more.
        assert!(max_regions_per_frame(ETHERNET_MTU) >= MAX_LIST_REGIONS);
        assert_eq!(max_regions_per_frame(ETHERNET_MTU), 91);
    }

    #[test]
    fn oversized_lists_do_not_fit() {
        assert!(!list_request_fits_frame(92));
    }

    #[test]
    fn vector_run_limit_fits_one_frame() {
        assert_eq!(MAX_VECTOR_RUNS, 45);
        let at_limit = LIST_HEADER_SIZE + MAX_VECTOR_RUNS * VECTOR_RUN_SIZE;
        let over_limit = LIST_HEADER_SIZE + (MAX_VECTOR_RUNS + 1) * VECTOR_RUN_SIZE;
        assert!(at_limit <= ETHERNET_MTU, "{at_limit}");
        assert!(over_limit > ETHERNET_MTU, "{over_limit}");
    }
}
