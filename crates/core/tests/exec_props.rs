//! Property tests for the shared scatter/gather execution semantics:
//! gather and scatter must be exact inverses through the per-server
//! byte-stream convention, for arbitrary requests and layouts.

use bytes::BytesMut;
use proptest::prelude::*;
use pvfs_core::exec::{gather_payload_into, scatter_response, server_share, Buffers};
use pvfs_core::plan::{OpKind, Target};
use pvfs_core::{ListRequest, PieceMap};
use pvfs_types::{align_lists, Region, RegionList, StripeLayout};

fn arb_layout() -> impl Strategy<Value = StripeLayout> {
    (1u32..8, 1u64..64).prop_map(|(pcount, ssize)| StripeLayout::new(0, pcount, ssize).unwrap())
}

/// A random valid request: sorted disjoint file regions plus a memory
/// list fragmenting the same total differently.
fn arb_request() -> impl Strategy<Value = ListRequest> {
    (
        proptest::collection::vec((0u64..48, 1u64..40), 1..24),
        proptest::collection::vec(1u64..32, 1..16),
    )
        .prop_map(|(gaps_lens, mem_cuts)| {
            let mut file = RegionList::new();
            let mut off = 0u64;
            for (gap, len) in gaps_lens {
                off += gap;
                file.push(Region::new(off, len));
                off += len;
            }
            let total = file.total_len();
            // Fragment memory into pieces from mem_cuts, cycling.
            let mut mem = RegionList::new();
            let mut mem_off = 0u64;
            let mut rem = total;
            let mut i = 0;
            while rem > 0 {
                let len = mem_cuts[i % mem_cuts.len()].min(rem);
                mem.push(Region::new(mem_off, len));
                mem_off += len + 3;
                rem -= len;
                i += 1;
            }
            ListRequest::new(mem, file).expect("constructed valid")
        })
}

proptest! {
    /// Writing a payload out of a buffer and scattering it back into a
    /// zeroed buffer reproduces exactly the bytes the request names —
    /// per server, for the list-op flavor.
    #[test]
    fn gather_then_scatter_is_identity(request in arb_request(), layout in arb_layout()) {
        let pieces = PieceMap::new(&request.mem, &request.file).unwrap();
        let buf_len = request.mem.extent().map(|e| e.end()).unwrap_or(0) as usize;
        let source_copy: Vec<u8> =
            (0..buf_len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect();
        let mut source = source_copy.clone();
        let mut source_temps = vec![];
        let src_bufs = Buffers { user: &mut source, temps: &mut source_temps };

        // Chunk regions like list I/O would.
        for chunk in request.file.chunks(64) {
            let wop = OpKind::WriteList {
                regions: chunk.clone(),
                src: Target::Pieces(pieces.clone()),
            };
            let rop = OpKind::ReadList {
                regions: chunk.clone(),
                dest: Target::Pieces(pieces.clone()),
            };
            let mut dest = vec![0u8; buf_len];
            let mut dest_temps = vec![];
            let mut dst_bufs = Buffers { user: &mut dest, temps: &mut dest_temps };
            let mut total_share = 0u64;
            for slot in 0..layout.pcount {
                let server = layout.server_at_slot(slot);
                let (payload, frags) = gather_payload_into(
                    &wop, &layout, server, &src_bufs, BytesMut::with_capacity,
                );
                prop_assert_eq!(payload.len() as u64, server_share(&wop, &layout, server));
                total_share += payload.len() as u64;
                let got_frags =
                    scatter_response(&rop, &layout, server, &payload, &mut dst_bufs).unwrap();
                prop_assert_eq!(frags, got_frags, "fragment counts disagree");
            }
            prop_assert_eq!(total_share, chunk.total_len());
            let _ = dst_bufs;
            // Every byte the chunk names must have round-tripped:
            // verify via the aligned pieces clipped to the chunk.
            for (mem, file) in align_lists(&request.mem, &request.file).unwrap() {
                for r in chunk.iter() {
                    if let Some(clip) = file.intersect(*r) {
                        let mem_off = mem.offset + (clip.offset - file.offset);
                        for i in 0..clip.len {
                            prop_assert_eq!(
                                dest[(mem_off + i) as usize],
                                source_copy[(mem_off + i) as usize],
                                "byte mismatch at mem {}", mem_off + i
                            );
                        }
                    }
                }
            }
        }
    }

    /// `server_share` sums to the request total across servers for any
    /// op flavor.
    #[test]
    fn shares_partition_total(request in arb_request(), layout in arb_layout()) {
        let pieces = PieceMap::new(&request.mem, &request.file).unwrap();
        let regions = request.file.clone();
        let ops = vec![
            OpKind::ReadList { regions: regions.clone(), dest: Target::Pieces(pieces.clone()) },
            OpKind::Read {
                region: regions.extent().unwrap(),
                dest: Target::Window { temp: 0, base: regions.extent().unwrap().offset },
            },
        ];
        for op in &ops {
            let total: u64 = (0..layout.pcount)
                .map(|s| server_share(op, &layout, layout.server_at_slot(s)))
                .sum();
            let expect = match op {
                OpKind::Read { region, .. } => region.len,
                _ => request.total_len(),
            };
            prop_assert_eq!(total, expect);
        }
    }

    /// Window-targeted scatter fills exactly the window positions the
    /// server owns.
    #[test]
    fn window_scatter_places_by_logical_offset(
        layout in arb_layout(),
        start in 0u64..200,
        len in 1u64..300,
    ) {
        let window = Region::new(start, len);
        let mut user = vec![];
        let mut temps = vec![vec![0u8; len as usize]];
        let mut bufs = Buffers { user: &mut user, temps: &mut temps };
        for slot in 0..layout.pcount {
            let server = layout.server_at_slot(slot);
            let op = OpKind::Read {
                region: window,
                dest: Target::Window { temp: 0, base: start },
            };
            let share = server_share(&op, &layout, server);
            let payload = vec![slot as u8 + 1; share as usize];
            scatter_response(&op, &layout, server, &payload, &mut bufs).unwrap();
        }
        let _ = bufs;
        // Every window byte must carry its owner's tag.
        for i in 0..len {
            let owner = layout.slot_of(start + i) as u8 + 1;
            prop_assert_eq!(temps[0][i as usize], owner, "byte {}", i);
        }
    }
}
