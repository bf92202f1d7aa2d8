//! Every metric the benchmark prints, declared once: name, unit, which
//! direction is better and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` must say the same; a test checks it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The same six on every workload: what gates a change.
///
/// The four counts repeat to the last digit from run to run and from
/// seed to seed; their bounds are what a later change may not exceed,
/// not a noise margin, and they are the metrics a small gain can be
/// claimed on. Peak RSS repeats within 3.4 % on five workloads; on
/// `tiled_list_read` it moves in steps of one 2.5 MiB buffer with how
/// the threads interleave (86.6–99.4 MiB, spread 6.3 %), which is why
/// the bound is 0.20 and not ISSUE.md's 0.10. Set-up time is read at
/// the minimum of many fresh set-ups and moved by at most 12 % between
/// two back-to-back sets of ten runs (by up to 29 % between a quiet
/// half hour of the host and a slow one; README.md).
///
/// ISSUE.md lists four more. `goodput_mibs`, `op_p50_ms` and
/// `cpu_s_per_gib` do not repeat on this kind of VM — two sets of runs
/// of one commit, taken back to back, differ by 25 to 50 % while the
/// host sits in a slow phase that lasts minutes (README.md has the
/// runs) — and ISSUE.md's rule is that a timing that fails so is
/// demoted, not kept with a loose bound: they are `client.goodput_mibs`,
/// `client.op_p50_ms` and `client.cpu_s_per_gib` in the per-layer
/// table, reported and never judged. `failed_ops_frac` is 0 on every
/// healthy run and the contract asks for metrics that are never 0; the
/// result line's `attempted` / `failed` / `correct` carry it, and any
/// failure makes the exit status non-zero.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "frames_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "wire_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "alloc_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// `layer.metric`; the layers are the workspace crates on a workload's
/// path, plus `ceiling` (the machine) and `machine` (the run's own
/// validity). README.md says what each should move, on which workload.
pub const PER_LAYER: [PerLayer; 66] = [
    // workloads: input description.
    layer("workloads.gen_us_per_op", "us", Lower),
    layer("workloads.regions_per_op", "count", Lower),
    layer("workloads.payload_bytes_per_op", "bytes", Higher),
    // types
    layer("types.align_us_per_op", "us", Lower),
    // core
    layer("core.plan_us_per_op", "us", Lower),
    layer("core.plan_allocs_per_op", "count", Lower),
    layer("core.rounds_per_op", "count", Lower),
    layer("core.wire_requests_per_op", "count", Lower),
    // proto
    layer("proto.encode_req_us_per_op", "us", Lower),
    layer("proto.decode_req_us_per_op", "us", Lower),
    layer("proto.encode_resp_us_per_op", "us", Lower),
    layer("proto.decode_resp_us_per_op", "us", Lower),
    layer("proto.codec_gibs", "GiB/s", Higher),
    layer("proto.codec_memcpy_frac", "ratio", Higher),
    layer("proto.allocs_per_frame", "count", Lower),
    layer("proto.alloc_bytes_per_payload_byte", "ratio", Lower),
    layer("proto.header_bytes_per_region", "bytes", Lower),
    // net
    layer("net.frame_io_us_per_op", "us", Lower),
    layer("net.frame_allocs_per_frame", "count", Lower),
    layer("net.ping_chan_us_p50", "us", Lower),
    layer("net.ping_tcp_us_p50", "us", Lower),
    layer("net.ping_chan_over_handoff", "ratio", Lower),
    layer("net.ping_tcp_over_loopback", "ratio", Lower),
    layer("net.residual_ms_per_op", "ms", Lower),
    layer("net.residual_frac", "ratio", Lower),
    layer("net.attempts_per_op", "count", Lower),
    layer("net.retries_per_op", "count", Lower),
    layer("net.sheds_seen", "count", Lower),
    layer("net.breaker_rejections", "count", Lower),
    // server
    layer("server.handle_us_per_op", "us", Lower),
    layer("server.handle_allocs_per_request", "count", Lower),
    layer("server.queue_wait_us_p50", "us", Lower),
    layer("server.service_us_p50", "us", Lower),
    layer("server.requests_per_op", "count", Lower),
    layer("server.regions_per_request", "count", Higher),
    layer("server.shed_per_op", "count", Lower),
    // disk
    layer("disk.mem_write_us_per_op", "us", Lower),
    layer("disk.mem_read_us_per_op", "us", Lower),
    layer("disk.store_memcpy_frac", "ratio", Higher),
    layer("disk.localfile_over_store", "ratio", Lower),
    layer("disk.file_write_us_per_op", "us", Lower),
    layer("disk.file_over_mem", "ratio", Lower),
    layer("disk.fsyncs_per_op", "count", Lower),
    layer("disk.journal_bytes_per_payload_byte", "ratio", Lower),
    layer("disk.fsync_us_p50", "us", Lower),
    // client
    layer("client.request_us_per_op", "us", Lower),
    layer("client.gather_us_per_op", "us", Lower),
    layer("client.scatter_us_per_op", "us", Lower),
    layer("client.walk_glue_us_per_op", "us", Lower),
    layer("client.copy_bytes_per_payload_byte", "ratio", Lower),
    layer("client.rpc_us_p50", "us", Lower),
    // The timings ISSUE.md wanted end to end; they do not repeat here.
    layer("client.goodput_mibs", "MiB/s", Higher),
    layer("client.cpu_s_per_gib", "s/GiB", Lower),
    layer("client.op_p50_ms", "ms", Lower),
    layer("client.op_p90_ms", "ms", Lower),
    layer("client.op_p99_ms", "ms", Lower),
    layer("client.op_max_ms", "ms", Lower),
    // ceiling: the machine, measured pinned in the same run.
    layer("ceiling.memcpy_gibs", "GiB/s", Higher),
    layer("ceiling.loopback_rtt_us", "us", Lower),
    layer("ceiling.loopback_gibs", "GiB/s", Higher),
    layer("ceiling.thread_handoff_us", "us", Lower),
    layer("ceiling.append_fsync_us", "us", Lower),
    // machine: validity of the run, not of the program.
    layer("machine.steal_frac", "ratio", Lower),
    layer("machine.foreign_cpu_frac", "ratio", Lower),
    layer("machine.slice_spread", "ratio", Lower),
    layer("machine.traced_ops", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must agree.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.members().len(), 2);
            assert_eq!((s(j, "name"), s(j, "why")), (w.name.into(), w.why.into()));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.members().len(), 4);
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.word());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.members().len(), 3);
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.word());
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
