//! Micro-benchmarks of the building blocks: codec, region algebra,
//! stripe mapping, scatter map, cache, planner compilation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pvfs_core::{plan, IoKind, ListRequest, Method, MethodConfig, PieceMap};
use pvfs_disk::{BufferCache, CacheConfig};
use pvfs_proto::{decode_message, encode_message, Message, Request};
use pvfs_types::{ClientId, FileHandle, Region, RegionList, RequestId, StripeLayout};
use std::time::Duration;

fn layout() -> StripeLayout {
    StripeLayout::paper_default(8)
}

fn strided(n: u64, len: u64, stride: u64) -> RegionList {
    RegionList::from_pairs((0..n).map(|i| (i * stride, len))).unwrap()
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let msg = Message {
        client: ClientId(1),
        id: RequestId(7),
        request: Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions: strided(64, 128, 1024),
        },
    };
    let frame = encode_message(&msg).unwrap();
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("encode_list64", |b| {
        b.iter(|| encode_message(black_box(&msg)).unwrap())
    });
    g.bench_function("decode_list64", |b| {
        b.iter(|| decode_message(black_box(frame.clone())).unwrap())
    });
    g.finish();
}

fn bench_regions(c: &mut Criterion) {
    let mut g = c.benchmark_group("regions");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let list = strided(4096, 64, 100);
    g.bench_function("coalesce_4096", |b| b.iter(|| black_box(&list).coalesced()));
    g.bench_function("clip_4096", |b| {
        b.iter(|| black_box(&list).clip_to(Region::new(100_000, 150_000)))
    });
    let req = ListRequest::gather(list.clone());
    g.bench_function("align_lists_4096", |b| b.iter(|| req.pieces().unwrap()));
    g.finish();
}

fn bench_striping(c: &mut Criterion) {
    let mut g = c.benchmark_group("striping");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let l = layout();
    g.bench_function("to_local_roundtrip", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for off in (0..1_000_000u64).step_by(4096) {
                let (s, local) = l.to_local(black_box(off));
                acc ^= l.to_logical(s.0, local);
            }
            acc
        })
    });
    g.bench_function("segments_1MiB", |b| {
        b.iter(|| l.segments(Region::new(0, 1 << 20)).count())
    });
    g.finish();
}

fn bench_piecemap(c: &mut Criterion) {
    let mut g = c.benchmark_group("piecemap");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let req = ListRequest::gather(strided(65_536, 64, 100));
    let map = PieceMap::new(&req.mem, &req.file).unwrap();
    g.bench_function("lookup_64k_pieces", |b| {
        b.iter(|| {
            let mut slices = 0usize;
            map.for_each_slice(black_box(Region::new(3_276_800, 64)), |_| slices += 1);
            slices
        })
    });
    // One FLASH checkpoint op: 98 304 eight-byte memory fragments
    // feeding 192 × 4 KiB file regions.
    let mem = strided(98_304, 8, 192);
    let file = strided(192, 4096, 1 << 20);
    g.bench_function("piece_map_build_98304x192", |b| {
        b.iter(|| PieceMap::new(black_box(&mem), black_box(&file)).unwrap())
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_cache");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("sequential_access", |b| {
        let mut cache = BufferCache::new(CacheConfig::paper_default());
        let mut off = 0u64;
        b.iter(|| {
            let out = cache.access(off, 4096, false);
            off = (off + 4096) % (1 << 30);
            out
        })
    });
    g.bench_function("thrashing_access", |b| {
        let mut cache = BufferCache::new(CacheConfig::tiny(64));
        let mut off = 0u64;
        b.iter(|| {
            let out = cache.access(off, 16, true);
            off = off.wrapping_add(7919 * 16) % (1 << 24);
            out
        })
    });
    g.finish();
}

fn bench_planners(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner_compile");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
    let cfg = MethodConfig::paper_default();
    let req = ListRequest::gather(strided(16_384, 64, 256));
    for method in Method::ALL {
        g.bench_with_input(
            BenchmarkId::new("compile_16k_regions", method.name()),
            &method,
            |b, &m| {
                b.iter(|| {
                    plan(
                        black_box(m),
                        IoKind::Read,
                        black_box(&req),
                        FileHandle(1),
                        layout(),
                        &cfg,
                    )
                    .unwrap()
                    .stats
                })
            },
        );
    }
    g.finish();
}

fn bench_run_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("datatype");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let regular = strided(65_536, 64, 256);
    g.bench_function("compress_regular_64k", |b| {
        b.iter(|| pvfs_core::pattern::compress_runs(black_box(regular.regions())))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_regions,
    bench_striping,
    bench_piecemap,
    bench_cache,
    bench_planners,
    bench_run_compression
);
criterion_main!(benches);
