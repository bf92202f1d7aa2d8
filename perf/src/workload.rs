//! The six workloads: what each one runs and why it is here. All are a
//! closed loop of one client against 4 I/O daemons with 16 KiB stripes;
//! op `k` uses rank `(start + k) mod ranks` of the pattern so the whole
//! file is touched.

/// How frames travel between client and daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process bounded channels: no sockets, no framing.
    Chan,
    /// Length-prefixed frames over loopback TCP.
    Tcp,
}

/// Where the daemons keep bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory sparse store.
    Mem,
    /// One data file + write-ahead journal per handle, under the
    /// benchmark's output directory: every batch is encoded,
    /// checksummed, appended to the journal, flushed with `fsync`
    /// (`SyncPolicy::Always`) and applied; checkpoints every 128 records
    /// or 4 MiB of journal.
    FileJournaled,
}

/// The access pattern generator and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// 1-D cyclic: `clients` ranks, `accesses` regions of 128 B each.
    Cyclic { clients: u64, accesses: u64 },
    /// The paper's 3×2 display wall: 768 rows of 3072 B per tile.
    Tiled,
    /// FLASH checkpoint: 8-byte memory fragments into 4 KiB file chunks.
    Flash { nprocs: u64, blocks: u64 },
}

/// Bytes per cyclic access.
pub const CYCLIC_ACCESS_BYTES: u64 = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// ≤64 regions per request frame — the paper's contribution.
    List,
    /// One request per region — the paper's baseline.
    Multiple,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it stresses and
    /// which it bypasses.
    pub why: &'static str,
    pub transport: Transport,
    pub backend: Backend,
    /// Daemon service time emulated by a timer, for the workload where
    /// overlap — not CPU — is the point.
    pub emulated_latency_ms: Option<u64>,
    pub pattern: Pattern,
    pub method: Method,
    pub kind: Kind,
    /// Request frames the daemons must see per op — the ⌈n/64⌉ story,
    /// asserted on every run.
    pub frames_per_op: u64,
}

const CYCLIC_LIST: Pattern = Pattern::Cyclic {
    clients: 8,
    accesses: 1024,
};

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "cyclic_list_write",
        why: "1024 x 128 B list write over tcp: per-frame cost (proto region codec, tcp framing, \
              server dispatch) dominates; disk does almost nothing",
        transport: Transport::Tcp,
        backend: Backend::Mem,
        emulated_latency_ms: None,
        pattern: CYCLIC_LIST,
        method: Method::List,
        kind: Kind::Write,
        frames_per_op: 64,
    },
    Spec {
        name: "cyclic_list_read",
        why: "the same pattern read back: list-read gather and response staging instead of \
              request decode and scatter; a write gain that costs reads shows here",
        transport: Transport::Tcp,
        backend: Backend::Mem,
        emulated_latency_ms: None,
        pattern: CYCLIC_LIST,
        method: Method::List,
        kind: Kind::Read,
        frames_per_op: 64,
    },
    Spec {
        name: "tiled_list_read",
        why: "768 x 3072 B tile read, 2.25 MiB in 48 frames: payload copies in proto, tcp framing \
              and the store dominate; per-frame cost, which cyclic_* exercises, is bypassed",
        transport: Transport::Tcp,
        backend: Backend::Mem,
        emulated_latency_ms: None,
        pattern: Pattern::Tiled,
        method: Method::List,
        kind: Kind::Read,
        frames_per_op: 48,
    },
    Spec {
        name: "flash_list_write_durable",
        why: "FLASH checkpoint, 98304 8-byte fragments into 192 x 4 KiB, file backend, journal \
              fsynced per batch, over chan: the only workload where disk journaling and client \
              planning matter",
        transport: Transport::Chan,
        backend: Backend::FileJournaled,
        emulated_latency_ms: None,
        pattern: Pattern::Flash {
            nprocs: 2,
            blocks: 8,
        },
        method: Method::List,
        kind: Kind::Write,
        frames_per_op: 12,
    },
    Spec {
        name: "cyclic_multiple_read",
        why: "256 single-region RPCs of 128 B over chan: the per-RPC fixed cost (client round, \
              hand-off, daemon dispatch) at its purest; no sockets, no payload to speak of",
        transport: Transport::Chan,
        backend: Backend::Mem,
        emulated_latency_ms: None,
        pattern: Pattern::Cyclic {
            clients: 8,
            accesses: 256,
        },
        method: Method::Multiple,
        kind: Kind::Read,
        frames_per_op: 256,
    },
    Spec {
        name: "cyclic_list_read_overlap",
        why: "cyclic_list_read with 2 ms emulated daemon service: wall time is waiting, so only \
              fan-out, pipelining or worker concurrency move it; CPU-path changes must not",
        transport: Transport::Tcp,
        backend: Backend::Mem,
        emulated_latency_ms: Some(2),
        pattern: CYCLIC_LIST,
        method: Method::List,
        kind: Kind::Read,
        frames_per_op: 64,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert_eq!(find(w.name), Some(w));
        }
        assert_eq!(find("nope"), None);
    }
}
