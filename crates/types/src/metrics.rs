//! Metrics shared across the workspace: a log-bucketed latency
//! histogram with a lock-free recording face, and the ledger — the one
//! table in which every metric a daemon or a client endpoint keeps is
//! declared.
//!
//! The paper reports per-test wall times; this reproduction can say
//! more — per-request RTT distributions expose *why* a configuration is
//! slow (client-chain bound vs server-queue bound), which is how
//! EXPERIMENTS.md dissects the block-block list-I/O upturn. The same
//! [`Histogram`] serves the simulator's 30-million-request runs and the
//! live path's per-RPC accounting; [`SharedHistogram`] is the
//! concurrent face used by `&self` recorders (worker pools, cloned
//! clients).
//!
//! # The ledger
//!
//! The paper's headline is a count — ⌈n/64⌉ list requests per I/O daemon
//! instead of n — and `frames_rx` is the counter that checks it. It and
//! every other metric is one line of a `ledger!` table below: a name, a
//! kind (counter, gauge or histogram) and a doc line, in wire order.
//! From the table come the plain snapshot with a public field per metric
//! ([`StatsSnapshot`], [`ClientStats`]), its atomic twin ([`Ledger`],
//! [`ClientLedger`]: one relaxed `AtomicU64` per counter and gauge, one
//! [`SharedHistogram`] per histogram), `snapshot`, `reset`, `counters`,
//! `gauges`, `histograms`, `since`, `to_json`, and `read`, through which
//! `pvfs-proto` decodes a `Stats` frame — so a metric added to a table
//! is on the wire, in the JSON, in `reset` and in the shell's
//! `stats json` with no other edit, and none of those can fall out of
//! step with another. What the transports book for every daemon alike —
//! wire bytes, the queue gauge, queue wait and service time, sheds — is
//! written once, as methods of [`Ledger`].

use std::sync::atomic::{AtomicU64, Ordering};

/// A histogram over nanosecond durations with logarithmic buckets
/// (2 buckets per octave, ~41% resolution), cheap enough to record
/// every request of a 30-million-request simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// bucket i covers [2^(i/2), 2^((i+1)/2)) ns, with bucket 0
    /// holding everything below 1 ns. Inline: a snapshot, a delta or a
    /// default histogram costs no allocation.
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const BUCKETS: usize = 128; // covers past 2^63 ns

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        // 2 buckets per power of two, split at √2·2^k.
        let lg2 = 63 - ns.leading_zeros() as u64; // floor(log2)
        let half = u64::from(ns as f64 >= (1u64 << lg2) as f64 * std::f64::consts::SQRT_2);
        ((2 * lg2 + half) as usize).min(BUCKETS - 1)
    }

    /// Representative (geometric-ish) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        if i == 0 {
            return 1;
        }
        let lg2 = (i / 2) as u32;
        let base = 1u64 << lg2;
        if i.is_multiple_of(2) {
            // [2^k, sqrt2·2^k): midpoint ~1.19·2^k
            (base as f64 * 1.19) as u64
        } else {
            (base as f64 * 1.68) as u64
        }
    }

    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values in nanoseconds (the codec ships
    /// it so means survive the wire).
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (0.0..=1.0) in nanoseconds, resolved to
    /// bucket granularity (~±20%). Returns `None` when the histogram is
    /// empty — including one produced by merging empties — so callers
    /// can distinguish "no samples" from a genuine 0 ns measurement.
    pub fn try_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(Self::bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Like [`try_percentile_ns`](Self::try_percentile_ns) but flattens
    /// the empty case to 0, matching `mean_ns`/`min_ns`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.try_percentile_ns(p).unwrap_or(0)
    }

    /// The nonzero buckets as `(index, count)` pairs — the sparse form
    /// the wire codec ships (most of the 128 buckets are empty).
    pub fn to_sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuild a histogram from its sparse wire form. Returns `None`
    /// for out-of-range bucket indices and for a non-empty histogram
    /// whose `min` exceeds its `max` (untrusted input); the empty
    /// histogram is normalized.
    pub fn from_sparse(sparse: &[(u32, u64)], sum: u128, min: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(i, c) in sparse {
            let slot = h.buckets.get_mut(i as usize)?;
            *slot = slot.checked_add(c)?;
            h.count = h.count.checked_add(c)?;
        }
        if h.count > 0 {
            if min > max {
                return None;
            }
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        Some(h)
    }

    /// The samples recorded since `earlier` was snapshotted from the
    /// same monotonically-growing histogram. Buckets, count and sum
    /// subtract exactly; min/max cannot (old extremes may predate the
    /// interval), so they are re-derived from the surviving buckets'
    /// representative bounds — the same ±bucket resolution percentiles
    /// already have.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            d.buckets[i] = a.saturating_sub(*b);
            d.count += d.buckets[i];
        }
        d.sum = self.sum.saturating_sub(earlier.sum);
        if d.count > 0 {
            let first = d.buckets.iter().position(|&c| c != 0).unwrap_or(0);
            let last = d.buckets.iter().rposition(|&c| c != 0).unwrap_or(0);
            d.min = Self::bucket_value(first).max(self.min);
            d.max = Self::bucket_value(last).min(self.max).max(d.min);
        }
        d
    }

    /// Compact JSON object (counts in ns) for machine-readable dumps.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
            self.count(),
            self.min_ns(),
            self.percentile_ns(0.50),
            self.percentile_ns(0.95),
            self.percentile_ns(0.99),
            self.max_ns(),
            self.mean_ns(),
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A [`Histogram`] that can be recorded into through `&self` from many
/// threads at once: one relaxed atomic per bucket, plus atomic
/// count/sum/min/max. Recording is a handful of uncontended relaxed
/// atomic ops — cheap enough for every RPC on the live path; snapshots
/// are not linearizable across fields (a recorder may be mid-flight),
/// which per-request accounting tolerates by design.
#[derive(Debug)]
pub struct SharedHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// ns sum in u64: >500 years of accumulated latency before wrap.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl SharedHistogram {
    /// An empty shared histogram.
    pub fn new() -> SharedHistogram {
        SharedHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one duration in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Histogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An owned point-in-time copy.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (i, b) in self.buckets.iter().enumerate() {
            h.buckets[i] = b.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed) as u128;
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        // Normalize torn reads: the aggregate fields may lag or lead the
        // buckets; keep the invariants percentile_ns relies on. A first
        // sample caught between its count and its min/max stores reads
        // as min > max: it has not happened yet.
        if h.count == 0 || h.min > h.max {
            h.buckets.iter_mut().for_each(|b| *b = 0);
            h.count = 0;
            h.sum = 0;
            h.min = u64::MAX;
            h.max = 0;
        }
        h
    }

    /// Zero every bucket and aggregate (the `ResetStats` RPC).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for SharedHistogram {
    fn default() -> Self {
        SharedHistogram::new()
    }
}

/// Declares one table of metrics — counters, then gauges, then
/// histograms, each a doc line and a name, in wire order — and derives
/// its snapshot and its ledger (see the module docs). Exported: a crate
/// with counters of its own (the fault injector, the collective fabric)
/// declares them the same way.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$snapshot_meta:meta])*
        snapshot $Snapshot:ident;
        $(#[$ledger_meta:meta])*
        ledger $Ledger:ident;
        counters { $($(#[$c_meta:meta])* $c:ident,)* }
        gauges { $($(#[$g_meta:meta])* $g:ident,)* }
        histograms { $($(#[$h_meta:meta])* $h:ident,)* }
    ) => {
        $(#[$snapshot_meta])*
        pub struct $Snapshot {
            $($(#[$c_meta])* pub $c: u64,)*
            $($(#[$g_meta])* pub $g: u64,)*
            $($(#[$h_meta])* pub $h: $crate::Histogram,)*
        }

        impl $Snapshot {
            /// The counters, named, in wire order.
            pub fn counters(&self) -> [(&'static str, u64); 0 $(+ $crate::ledger!(@one $c))*] {
                [$((stringify!($c), self.$c)),*]
            }

            /// The gauges, named, in wire order (after the counters).
            pub fn gauges(&self) -> [(&'static str, u64); 0 $(+ $crate::ledger!(@one $g))*] {
                [$((stringify!($g), self.$g)),*]
            }

            /// The histograms, named, in wire order (after the gauges).
            pub fn histograms(&self) -> [(&'static str, &$crate::Histogram); 0 $(+ $crate::ledger!(@one $h))*] {
                [$((stringify!($h), &self.$h)),*]
            }

            /// A snapshot read metric by metric in wire order: `word`
            /// yields each counter and gauge, `histogram` each histogram
            /// (how the wire codec decodes one without naming a field).
            pub fn read<S, E>(
                src: &mut S,
                word: impl Fn(&mut S) -> Result<u64, E>,
                histogram: impl Fn(&mut S) -> Result<$crate::Histogram, E>,
            ) -> Result<Self, E> {
                let _ = &histogram; // a table without histograms never calls it
                Ok(Self {
                    $($c: word(src)?,)*
                    $($g: word(src)?,)*
                    $($h: histogram(src)?,)*
                })
            }

            /// What happened between `earlier` and this snapshot of the
            /// same ledger: counters and histograms subtract, gauges
            /// describe the present and stay.
            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $($c: self.$c - earlier.$c,)*
                    $($g: self.$g,)*
                    $($h: self.$h.since(&earlier.$h),)*
                }
            }

            /// The snapshot as one JSON object, a member per metric in
            /// wire order (no external deps; the schema is documented in
            /// README § Observability).
            pub fn to_json(&self) -> String {
                let mut members = Vec::new();
                for (name, v) in self.counters().into_iter().chain(self.gauges()) {
                    members.push(format!("\"{name}\":{v}"));
                }
                for (name, h) in self.histograms() {
                    members.push(format!("\"{name}\":{}", h.to_json()));
                }
                format!("{{{}}}", members.join(","))
            }
        }

        $(#[$ledger_meta])*
        #[derive(Debug, Default)]
        pub struct $Ledger {
            $($(#[$c_meta])* pub $c: ::std::sync::atomic::AtomicU64,)*
            $($(#[$g_meta])* pub $g: ::std::sync::atomic::AtomicU64,)*
            $($(#[$h_meta])* pub $h: $crate::SharedHistogram,)*
        }

        impl $Ledger {
            /// A point-in-time copy: each metric is exact, skew between
            /// metrics is possible while requests are in flight.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $($c: self.$c.load(::std::sync::atomic::Ordering::Relaxed),)*
                    $($g: self.$g.load(::std::sync::atomic::Ordering::Relaxed),)*
                    $($h: self.$h.snapshot(),)*
                }
            }

            /// Zero the counters and histograms (`ResetStats`). Gauges
            /// describe current state — a queue's depth, a journal's
            /// backlog, a pool's size — not history, and survive.
            pub fn reset(&self) {
                $(self.$c.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
                $(self.$h.reset();)*
            }

            /// One more of everything: each counter and gauge up by one,
            /// a sample in each histogram.
            #[cfg(test)]
            #[allow(dead_code)]
            fn bump_all(&self) {
                $(self.$c.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);)*
                $(self.$g.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);)*
                $(self.$h.record(1);)*
            }
        }
    };
    (@one $metric:ident) => { 1 };
}

ledger! {
    /// Everything one daemon reports through the `GetStats` control RPC
    /// — a point-in-time copy of its [`Ledger`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    snapshot StatsSnapshot;
    /// One daemon's books. The daemon, every store it opens and the
    /// transport in front of it share one `Arc<Ledger>` and each bump
    /// their own metrics in it: one relaxed atomic add per event, no
    /// lock. The manager keeps the same books with the data-path metrics
    /// left at zero.
    ledger Ledger;
    counters {
        /// Total requests served (data + metadata, not stats scrapes).
        requests,
        /// Contiguous `Read`/`Write` requests.
        contiguous_requests,
        /// List-I/O (`ReadList`/`WriteList`/vector) requests.
        list_requests,
        /// File regions touched across all data requests.
        regions,
        /// Payload bytes read from storage.
        bytes_read,
        /// Payload bytes written to storage.
        bytes_written,
        /// Requests answered with an error response.
        errors,
        /// Wire bytes received: request frames, on TCP with their length
        /// prefixes (stats scrapes excluded — see the codec's
        /// observer-effect note).
        bytes_rx,
        /// Wire bytes sent (response frames).
        bytes_tx,
        /// Request frames received. The paper's ⌈n/64⌉ claim is about
        /// exactly this counter: one list request frame moves up to 64
        /// regions.
        frames_rx,
        /// Journal records appended by the storage engine (write batches +
        /// truncates; 0 on the memory backend).
        journal_appends,
        /// Bytes appended to storage journals.
        journal_bytes,
        /// Journal records replayed at daemon recovery.
        journal_replays,
        /// Durability flushes (checkpoints + explicit sync barriers).
        flushes,
        /// `fsync` syscalls issued by the storage engine (journal + data
        /// files).
        fsyncs,
        /// Requests shed off a full queue with [`Overloaded`] before any
        /// worker saw them (load shedding; see DESIGN §4i).
        ///
        /// [`Overloaded`]: crate::PvfsError::Overloaded
        requests_shed,
    }
    gauges {
        /// Worker threads serving this daemon: the number its door
        /// started, or for a daemon driven in-process the one configured.
        workers,
        /// Workers serving a request right now.
        busy_workers,
        /// Frames accepted onto the queue and not yet picked up by a
        /// worker.
        queue_depth,
        /// Journal records committed but not yet checkpointed.
        journal_depth,
    }
    histograms {
        /// Time from frame arrival to a worker picking it up.
        queue_wait,
        /// Time a worker spent serving the request (decode + execute +
        /// encode).
        service_time,
        /// Latency of each storage-engine `fsync` syscall.
        fsync_time,
    }
}

/// The bookkeeping every transport does for every daemon, written once:
/// a transport asks a daemon for its ledger and calls these.
impl Ledger {
    /// The books of a daemon served by `workers` threads.
    pub fn with_workers(workers: u64) -> Ledger {
        let ledger = Ledger::default();
        ledger.workers.store(workers, Ordering::Relaxed);
        ledger
    }

    /// One request frame arrived (`wire_bytes` = the frame plus any
    /// transport framing). Transports call this, never a daemon: one
    /// driven in-process (the simulator) sees no wire traffic.
    pub fn wire_rx(&self, wire_bytes: u64) {
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
        self.bytes_rx.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// One response frame is about to leave. Called *before* the frame
    /// is handed to the peer: a client that holds a reply can never
    /// scrape counters that miss that reply's frame.
    pub fn wire_tx(&self, wire_bytes: u64) {
        self.bytes_tx.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Take back a [`wire_tx`](Ledger::wire_tx) whose write then failed.
    /// Saturating, so a `ResetStats` landing in between cannot wrap the
    /// counter.
    pub fn retract_wire_tx(&self, wire_bytes: u64) {
        let _ = self
            .bytes_tx
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(wire_bytes))
            });
    }

    /// A request frame is about to enter the worker queue; paired with
    /// [`begin`](Ledger::begin) if it does and
    /// [`unqueued`](Ledger::unqueued) if not.
    pub fn queued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A frame booked as [`queued`](Ledger::queued) never entered the
    /// queue — shed off a full one, timed out waiting for room, the
    /// daemon gone: no worker will ever [`begin`](Ledger::begin) it.
    pub fn unqueued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A queued frame met a full queue and was refused before any worker
    /// saw it: undoes the [`queued`](Ledger::queued) and counts the shed.
    pub fn shed(&self) {
        self.unqueued();
        self.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker took, at the clock reading `taken`, a request queued at
    /// the reading `queued`; paired with [`end`](Ledger::end). The two
    /// readings are the `queue` span of a traced request too.
    pub fn begin(&self, queued: u64, taken: u64) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.busy_workers.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(taken.saturating_sub(queued));
    }

    /// The request a worker took at the reading `taken`
    /// ([`begin`](Ledger::begin)) was done at the reading `done`: the
    /// `service` span of a traced request too.
    pub fn end(&self, taken: u64, done: u64) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
        self.service_time.record(done.saturating_sub(taken));
    }

    /// One storage-engine fsync, begun at the clock reading `started`,
    /// has just ended: the one reading of its end, returned, is the
    /// sample's and the `journal:fsync` span's (the serving daemon's
    /// trace sink, if one is active on this thread).
    pub fn record_fsync(&self, started: u64) -> u64 {
        let ended = crate::clock::now_ns();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_time.record(ended.saturating_sub(started));
        crate::trace::sink_add("journal:fsync", started, ended);
        ended
    }
}

ledger! {
    /// What a client endpoint's RPCs cost in reliability currency — the
    /// measured counterpart of its retry, breaker and replica policies —
    /// and how long they took: a point-in-time copy of its
    /// [`ClientLedger`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    snapshot ClientStats;
    /// One client endpoint's books, shared by every clone of the
    /// endpoint (a `PvfsFile` counts into the client it came from).
    ledger ClientLedger;
    counters {
        /// RPC attempts issued (first tries and retries alike).
        attempts,
        /// Attempts that were retries of a failed op.
        retries,
        /// Total milliseconds slept in retry backoff.
        backoff_ms,
        /// Faults the transport injected (0 on a clean transport; the
        /// transport counts them, a snapshot copies its count in).
        faults_injected,
        /// RPCs rejected client-side by an open circuit breaker
        /// (`PvfsError::Unavailable`) without touching the wire.
        breaker_rejections,
        /// `PvfsError::Overloaded` responses observed (server-side sheds
        /// this endpoint ran into).
        sheds_seen,
        /// Replicated reads that abandoned one copy and moved to the next
        /// mirror instead of erroring the round (`PVFS_REPLICAS` > 1).
        replica_failovers,
        /// Replicated writes that met their quorum while at least one copy
        /// failed — divergence a later `scrub` will repair.
        quorum_shortfalls,
    }
    gauges {}
    histograms {
        /// Client-perceived latency of every RPC attempt a daemon served
        /// — frame shipped to reply decoded, server errors included;
        /// sheds, lost attempts, backoff sleeps and control scrapes
        /// excluded.
        rpc_latency,
    }
}

/// What an anti-entropy scrub pass over one file observed and repaired
/// (see DESIGN §4j). Client-driven: the scrubber fetches `StripeDigest`
/// checksums from every copy of every stripe slot, compares them, and
/// rewrites divergent spans from the freshest copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripe slots examined (one per daemon in the file's layout).
    pub slots_scanned: u64,
    /// Per-chunk digest comparisons made across copies.
    pub digests_compared: u64,
    /// Copies whose digest probe failed (daemon down); they are skipped,
    /// not repaired, and a later scrub picks them up.
    pub copies_unreachable: u64,
    /// Copies found divergent from their slot's repair source.
    pub copies_divergent: u64,
    /// Payload bytes rewritten onto stale copies.
    pub repair_bytes: u64,
    /// Stale copies truncated because they were longer than the source.
    pub copies_truncated: u64,
}

impl ScrubReport {
    /// Accumulate another report into this one (multi-file scrubs).
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.slots_scanned += other.slots_scanned;
        self.digests_compared += other.digests_compared;
        self.copies_unreachable += other.copies_unreachable;
        self.copies_divergent += other.copies_divergent;
        self.repair_bytes += other.repair_bytes;
        self.copies_truncated += other.copies_truncated;
    }

    /// True when every reachable copy agreed and nothing was rewritten.
    pub fn clean(&self) -> bool {
        self.copies_divergent == 0 && self.repair_bytes == 0 && self.copies_truncated == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.percentile_ns(0.5), 0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn empty_percentiles_are_typed_none_at_every_boundary() {
        let h = Histogram::new();
        for p in [0.0, 0.5, 1.0, -1.0, 2.0] {
            assert_eq!(h.try_percentile_ns(p), None, "p={p}");
            assert_eq!(h.percentile_ns(p), 0, "p={p}");
        }
        // One sample flips it to Some at every clamped percentile.
        let mut h = h;
        h.record(42);
        for p in [0.0, 0.5, 1.0, -1.0, 2.0] {
            assert_eq!(h.try_percentile_ns(p), Some(42), "p={p}");
        }
    }

    #[test]
    fn merge_of_empties_stays_empty() {
        let mut a = Histogram::new();
        let b = Histogram::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.try_percentile_ns(0.5), None);
        assert_eq!(a.percentile_ns(0.99), 0);
        assert_eq!(a.min_ns(), 0);
        // Merging a real histogram afterwards recovers normal behavior:
        // the sentinel min from the empty merge must not leak out.
        let mut c = Histogram::new();
        c.record(1_000);
        a.merge(&c);
        assert_eq!(a.count(), 1);
        assert_eq!(a.try_percentile_ns(0.5), Some(1_000));
        assert_eq!(a.min_ns(), 1_000);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_ns(), 1_000_000);
        assert_eq!(h.min_ns(), 1_000_000);
        assert_eq!(h.max_ns(), 1_000_000);
        // Percentiles clamp to observed range.
        assert_eq!(h.percentile_ns(0.5), 1_000_000);
        assert_eq!(h.percentile_ns(0.999), 1_000_000);
    }

    #[test]
    fn percentiles_are_order_of_magnitude_correct() {
        let mut h = Histogram::new();
        // 99 fast samples at ~1ms, 1 slow at ~1s.
        for _ in 0..99 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        let p50 = h.percentile_ns(0.5);
        assert!((500_000..2_000_000).contains(&p50), "p50={p50}");
        let p995 = h.percentile_ns(0.995);
        assert!(p995 > 100_000_000, "p995={p995}");
    }

    /// The simulator's contract with the histogram: recording every
    /// request of a multi-million-request run must stay exact on count
    /// and order-of-magnitude on percentiles.
    #[test]
    fn simulator_usage_survives_the_lift() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.percentile_ns(0.5);
        assert!((500_000..2_000_000).contains(&p50), "p50={p50}");
        assert!(h.percentile_ns(0.995) > 100_000_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean_ns(), 25);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min_ns(), 50);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn zero_duration_is_representable() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn bucket_monotonicity() {
        // Bucket index must be nondecreasing in the value.
        let mut prev = 0;
        for shift in 0..40 {
            for frac in [0u64, 1, 3] {
                let v = (1u64 << shift) + frac * (1u64 << shift) / 4;
                let b = Histogram::bucket_of(v);
                assert!(b >= prev || v < (1 << shift), "v={v} b={b} prev={prev}");
                prev = prev.max(b);
            }
        }
    }

    #[test]
    fn sparse_roundtrip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 1_000, 1_000_000, u64::MAX / 2] {
            h.record(v);
        }
        let back = Histogram::from_sparse(&h.to_sparse(), h.sum, h.min, h.max).unwrap();
        assert_eq!(back, h);
        // Percentiles survive the trip too.
        assert_eq!(back.percentile_ns(0.5), h.percentile_ns(0.5));
    }

    #[test]
    fn sparse_rejects_bogus_indices() {
        assert!(Histogram::from_sparse(&[(9999, 1)], 1, 1, 1).is_none());
        // A min above the max would make every percentile panic.
        assert!(Histogram::from_sparse(&[(10, 1)], 0, 100, 5).is_none());
        // Empty sparse → normalized empty histogram.
        let h = Histogram::from_sparse(&[], 0, 0, 0).unwrap();
        assert_eq!(h, Histogram::new());
    }

    #[test]
    fn since_isolates_the_interval() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(2_000);
        let before = h.clone();
        h.record(1_000_000);
        h.record(2_000_000);
        let d = h.since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.mean_ns(), 1_500_000);
        // Min/max are bucket-resolution but must bracket the interval's
        // samples, not the old ones.
        assert!(d.min_ns() > 100_000, "min={}", d.min_ns());
        assert!(d.max_ns() >= 1_500_000, "max={}", d.max_ns());
        // Self-diff is empty.
        assert_eq!(h.since(&h).count(), 0);
    }

    #[test]
    fn shared_histogram_matches_serial_recording() {
        let shared = SharedHistogram::new();
        let mut serial = Histogram::new();
        for v in [5u64, 50, 500, 5_000, 50_000] {
            shared.record(v);
            serial.record(v);
        }
        assert_eq!(shared.snapshot(), serial);
        shared.reset();
        assert_eq!(shared.snapshot(), Histogram::new());
        assert_eq!(shared.count(), 0);
    }

    /// `record` stores the bucket and the count before min and max: a
    /// snapshot between those stores, on the first sample, reads
    /// min > max, which `clamp` in `percentile_ns` cannot take.
    #[test]
    fn a_snapshot_torn_on_the_first_sample_reads_empty() {
        let shared = SharedHistogram::new();
        shared.buckets[Histogram::bucket_of(1_000)].fetch_add(1, Ordering::Relaxed);
        shared.count.fetch_add(1, Ordering::Relaxed);
        let snap = shared.snapshot();
        assert_eq!(snap.percentile_ns(0.5), 0);
        assert_eq!(snap, Histogram::new());
    }

    #[test]
    fn shared_histogram_concurrent_records_all_land() {
        use std::sync::Arc;
        let shared = Arc::new(SharedHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(1 + t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count(), 4_000);
        assert_eq!(snap.min_ns(), 1);
        assert_eq!(snap.max_ns(), 4_000);
    }

    /// One value per metric, all distinct: counters 1..=16 in
    /// `counters()` order, gauges 17..=20, two queue-wait samples, one
    /// service-time sample, no fsync.
    fn populated_snapshot() -> StatsSnapshot {
        let mut s = StatsSnapshot {
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
            ..StatsSnapshot::default()
        };
        s.queue_wait.record(1_000);
        s.queue_wait.record(3_000);
        s.service_time.record(1_000_000);
        s
    }

    /// The JSON of a fixed snapshot, to the byte: CI greps this schema
    /// out of `PVFS_STATS=dump` and README § Observability documents it.
    #[test]
    fn stats_snapshot_json_is_pinned() {
        assert_eq!(
            populated_snapshot().to_json(),
            "{\"requests\":1,\"contiguous_requests\":2,\"list_requests\":3,\"regions\":4,\
             \"bytes_read\":5,\"bytes_written\":6,\"errors\":7,\"bytes_rx\":8,\"bytes_tx\":9,\
             \"frames_rx\":10,\"journal_appends\":11,\"journal_bytes\":12,\"journal_replays\":13,\
             \"flushes\":14,\"fsyncs\":15,\"requests_shed\":16,\"workers\":17,\"busy_workers\":18,\
             \"queue_depth\":19,\"journal_depth\":20,\
             \"queue_wait\":{\"count\":2,\"min_ns\":1000,\"p50_ns\":1000,\"p95_ns\":3000,\
             \"p99_ns\":3000,\"max_ns\":3000,\"mean_ns\":2000},\
             \"service_time\":{\"count\":1,\"min_ns\":1000000,\"p50_ns\":1000000,\
             \"p95_ns\":1000000,\"p99_ns\":1000000,\"max_ns\":1000000,\"mean_ns\":1000000},\
             \"fsync_time\":{\"count\":0,\"min_ns\":0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\
             \"max_ns\":0,\"mean_ns\":0}}"
        );
    }

    /// Both tables, through nothing but what `ledger!` derives: a
    /// snapshot read slot by slot holds the slots in the order its
    /// listings (and so the codec and the JSON) walk them, under names
    /// that are all different, and `reset` zeroes exactly the counters and
    /// histograms.
    #[test]
    fn every_declared_metric_is_in_every_derived_form() {
        macro_rules! check {
            ($Snapshot:ident, $Ledger:ident) => {{
                // Slot k of the wire holds k (a histogram: k samples).
                let mut slot = 0u64;
                let snap = $Snapshot::read(
                    &mut slot,
                    |slot| {
                        *slot += 1;
                        Ok::<_, ()>(*slot)
                    },
                    |slot| {
                        *slot += 1;
                        let mut h = Histogram::new();
                        (0..*slot).for_each(|_| h.record(1));
                        Ok(h)
                    },
                )
                .unwrap();
                let words: Vec<(&str, u64)> = (snap.counters().into_iter())
                    .chain(snap.gauges())
                    .chain(snap.histograms().map(|(name, h)| (name, h.count())))
                    .collect();
                assert_eq!(
                    words.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
                    (1..=slot).collect::<Vec<_>>()
                );
                let names: std::collections::HashSet<_> = words.iter().map(|(n, _)| *n).collect();
                assert_eq!(names.len(), words.len(), "metric names are unique");
                let json = snap.to_json();
                let mut at = 0;
                for (name, _) in &words {
                    let key = format!("\"{name}\":");
                    at += json[at..].find(&key).expect("JSON members in wire order") + key.len();
                }
                // Nothing is declared twice over: a snapshot is its own
                // delta from nothing.
                let delta = snap.since(&$Snapshot::default());
                assert_eq!(delta.counters(), snap.counters());
                assert_eq!(
                    delta.histograms().map(|(name, h)| (name, h.count())),
                    snap.histograms().map(|(name, h)| (name, h.count()))
                );

                let ledger = $Ledger::default();
                ledger.bump_all();
                ledger.bump_all();
                let before = ledger.snapshot();
                assert!(before.counters().iter().all(|(_, v)| *v == 2));
                assert!(before.histograms().iter().all(|(_, h)| h.count() == 2));
                ledger.reset();
                let after = ledger.snapshot();
                assert!(after.counters().iter().all(|(_, v)| *v == 0));
                assert!(after.histograms().iter().all(|(_, h)| h.count() == 0));
                assert_eq!(after.gauges(), before.gauges(), "gauges survive");
                assert!(after.gauges().iter().all(|(_, v)| *v == 2));
            }};
        }
        check!(StatsSnapshot, Ledger);
        check!(ClientStats, ClientLedger);
    }

    #[test]
    fn stats_snapshot_json_shape() {
        let mut s = StatsSnapshot {
            requests: 7,
            bytes_rx: 123,
            workers: 4,
            ..Default::default()
        };
        s.service_time.record(1_000_000);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests\":7"), "{json}");
        assert!(json.contains("\"bytes_rx\":123"), "{json}");
        assert!(json.contains("\"service_time\":{\"count\":1"), "{json}");
        assert!(json.contains("\"fsync_time\":{\"count\":0"), "{json}");
        assert!(json.contains("\"journal_depth\":0"), "{json}");
        // Counter order is the wire order.
        let names: Vec<&str> = s.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "requests");
        assert_eq!(names[9], "frames_rx");
        assert_eq!(names[10], "journal_appends");
        assert_eq!(names[14], "fsyncs");
        assert_eq!(names[15], "requests_shed");
    }
}
