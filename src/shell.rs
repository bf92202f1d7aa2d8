//! An interactive shell over an in-process PVFS cluster.
//!
//! Drives the whole stack — manager, striped I/O daemons, the client
//! library and all five noncontiguous access methods — from one-line
//! commands. Used by the `pvfs-shell` binary and directly testable:
//! [`Shell::execute`] maps a command line to its printed output.
//!
//! ```text
//! pvfs> create /data 8 16384
//! pvfs> write /data 0 hello-parallel-world
//! pvfs> read /data 6 8
//! pvfs> method list
//! pvfs> writep /data 4096 16 64 256 0xab
//! pvfs> readp /data 4096 16 64 256
//! pvfs> ls
//! pvfs> stats
//! ```

use crate::client::PvfsFile;
use crate::core::Method;
use crate::net::{ClientStats, ClusterClient, LiveCluster, RpcTarget};
use crate::proto::{Request, Response};
use crate::types::{
    clock, PvfsError, PvfsResult, RegionList, ServerId, StatsSnapshot, StripeLayout, TraceId,
};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Shell state: one live cluster, open files, the selected access
/// method.
pub struct Shell {
    cluster: LiveCluster,
    /// The shell's one client endpoint. Every open file clones it, so
    /// all commands share one tracer (`trace last` sees every op) and
    /// one set of resilience counters (the `stats` client section).
    client: ClusterClient,
    files: HashMap<String, PvfsFile>,
    method: Method,
}

impl Shell {
    /// Start a shell over a fresh cluster with `n_servers` I/O daemons.
    pub fn new(n_servers: u32) -> Shell {
        let cluster = LiveCluster::spawn(n_servers);
        let client = cluster.client();
        Shell {
            cluster,
            client,
            files: HashMap::new(),
            method: Method::List,
        }
    }

    /// Number of I/O servers behind this shell.
    pub fn n_servers(&self) -> u32 {
        self.cluster.n_servers()
    }

    /// Switch this shell's trace mode without touching the process
    /// environment (the binary reads `PVFS_TRACE` into the initial
    /// client; tests and embedders use this). Files already open keep
    /// tracing under the mode they were opened with.
    pub fn set_trace_mode(&mut self, mode: crate::types::TraceMode) {
        self.client = self.cluster.client().with_trace_mode(mode);
    }

    /// Execute one command line; returns the text to print.
    pub fn execute(&mut self, line: &str) -> PvfsResult<String> {
        let mut words = line.split_whitespace();
        let Some(cmd) = words.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = words.collect();
        match cmd {
            "help" => Ok(HELP.to_string()),
            "create" => self.cmd_create(&args),
            "open" => self.cmd_open(&args),
            "close" => self.cmd_close(&args),
            "rm" => self.cmd_rm(&args),
            "ls" => self.cmd_ls(),
            "stat" => self.cmd_stat(&args),
            "write" => self.cmd_write(&args),
            "read" => self.cmd_read(&args),
            "writep" => self.cmd_writep(&args),
            "readp" => self.cmd_readp(&args),
            "method" => self.cmd_method(&args),
            "sync" => self.cmd_sync(&args),
            "scrub" => self.cmd_scrub(&args),
            "bench" => self.cmd_bench(&args),
            "stats" => self.cmd_stats(&args),
            "trace" => self.cmd_trace(&args),
            "health" => self.cmd_health(),
            other => Err(PvfsError::invalid(format!(
                "unknown command '{other}' (try 'help')"
            ))),
        }
    }

    fn file_mut(&mut self, path: &str) -> PvfsResult<&mut PvfsFile> {
        self.files
            .get_mut(path)
            .ok_or_else(|| PvfsError::invalid(format!("'{path}' is not open (use open/create)")))
    }

    fn cmd_create(&mut self, args: &[&str]) -> PvfsResult<String> {
        let path = *args
            .first()
            .ok_or_else(|| PvfsError::invalid("create PATH [pcount [ssize [base]]]"))?;
        let pcount: u32 = parse_or(args.get(1), self.cluster.n_servers())?;
        let ssize: u64 = parse_or(args.get(2), pvfs_types::striping::DEFAULT_STRIPE_SIZE)?;
        let base: u32 = parse_or(args.get(3), 0)?;
        let layout = StripeLayout::new(base, pcount, ssize)?;
        let file = PvfsFile::create(&self.client, path, layout)?;
        self.files.insert(path.to_string(), file);
        Ok(format!(
            "created {path}: {pcount}-way striped from node {base}, {ssize} B stripes"
        ))
    }

    fn cmd_open(&mut self, args: &[&str]) -> PvfsResult<String> {
        let path = *args
            .first()
            .ok_or_else(|| PvfsError::invalid("open PATH"))?;
        let file = PvfsFile::open(&self.client, path)?;
        let l = file.layout();
        self.files.insert(path.to_string(), file);
        Ok(format!(
            "opened {path} (handle {}, {}-way, {} B stripes)",
            self.files[path].handle(),
            l.pcount,
            l.ssize
        ))
    }

    fn cmd_close(&mut self, args: &[&str]) -> PvfsResult<String> {
        let path = *args
            .first()
            .ok_or_else(|| PvfsError::invalid("close PATH"))?;
        let file = self
            .files
            .remove(path)
            .ok_or_else(|| PvfsError::invalid(format!("'{path}' is not open")))?;
        file.close()?;
        Ok(format!("closed {path}"))
    }

    fn cmd_rm(&mut self, args: &[&str]) -> PvfsResult<String> {
        let path = *args.first().ok_or_else(|| PvfsError::invalid("rm PATH"))?;
        self.files.remove(path);
        PvfsFile::remove(&self.client, path)?;
        Ok(format!("removed {path}"))
    }

    fn cmd_ls(&mut self) -> PvfsResult<String> {
        let paths = PvfsFile::list(&self.client)?;
        if paths.is_empty() {
            return Ok("(empty namespace)".into());
        }
        Ok(paths.join("\n"))
    }

    fn cmd_stat(&mut self, args: &[&str]) -> PvfsResult<String> {
        let path = *args
            .first()
            .ok_or_else(|| PvfsError::invalid("stat PATH"))?;
        let file = self.file_mut(path)?;
        let l = file.layout();
        let size = file.size()?;
        Ok(format!(
            "{path}: {size} bytes, handle {}, striped {}-way from node {} at {} B",
            file.handle(),
            l.pcount,
            l.base,
            l.ssize
        ))
    }

    fn cmd_write(&mut self, args: &[&str]) -> PvfsResult<String> {
        let (path, offset) = path_offset(args, "write PATH OFFSET TEXT")?;
        let text = args
            .get(2)
            .ok_or_else(|| PvfsError::invalid("write PATH OFFSET TEXT"))?;
        let file = self.file_mut(path)?;
        let report = file.write_at(offset, text.as_bytes())?;
        Ok(format!(
            "wrote {} bytes at {offset} ({} requests)",
            text.len(),
            report.requests
        ))
    }

    fn cmd_read(&mut self, args: &[&str]) -> PvfsResult<String> {
        let (path, offset) = path_offset(args, "read PATH OFFSET LEN")?;
        let len: usize = parse(args.get(2), "LEN")?;
        if len > 1 << 20 {
            return Err(PvfsError::invalid("read at most 1 MiB at a time"));
        }
        let file = self.file_mut(path)?;
        let mut buf = vec![0u8; len];
        file.read_at(offset, &mut buf)?;
        Ok(render_bytes(&buf))
    }

    fn cmd_writep(&mut self, args: &[&str]) -> PvfsResult<String> {
        let (path, offset) = path_offset(args, "writep PATH OFFSET COUNT LEN STRIDE BYTE")?;
        let count: u64 = parse(args.get(2), "COUNT")?;
        let len: u64 = parse(args.get(3), "LEN")?;
        let stride: u64 = parse(args.get(4), "STRIDE")?;
        let byte = parse_byte(args.get(5))?;
        let regions = strided_regions(offset, count, len, stride)?;
        let mem = RegionList::contiguous(0, regions.total_len());
        let src = vec![byte; regions.total_len() as usize];
        let method = self.method;
        let file = self.file_mut(path)?;
        let report = file.write_list(&mem, &regions, &src, method)?;
        Ok(format!(
            "wrote {count}×{len} B every {stride} B at {offset} with {}: {} requests, {} rounds",
            method, report.requests, report.rounds
        ))
    }

    fn cmd_readp(&mut self, args: &[&str]) -> PvfsResult<String> {
        let (path, offset) = path_offset(args, "readp PATH OFFSET COUNT LEN STRIDE")?;
        let count: u64 = parse(args.get(2), "COUNT")?;
        let len: u64 = parse(args.get(3), "LEN")?;
        let stride: u64 = parse(args.get(4), "STRIDE")?;
        let regions = strided_regions(offset, count, len, stride)?;
        let mem = RegionList::contiguous(0, regions.total_len());
        let mut buf = vec![0u8; regions.total_len() as usize];
        let method = self.method;
        let file = self.file_mut(path)?;
        let report = file.read_list(&mem, &regions, &mut buf, method)?;
        let mut out = format!(
            "read {count}×{len} B every {stride} B at {offset} with {}: {} requests, {} rounds\n",
            method, report.requests, report.rounds
        );
        out.push_str(&render_bytes(&buf[..buf.len().min(64)]));
        Ok(out)
    }

    fn cmd_method(&mut self, args: &[&str]) -> PvfsResult<String> {
        match args.first() {
            None => Ok(format!("current method: {}", self.method)),
            Some(&name) => {
                self.method = match name {
                    "multiple" => Method::Multiple,
                    "sieve" | "sieving" | "datasieving" => Method::DataSieving,
                    "list" => Method::List,
                    "hybrid" => Method::Hybrid,
                    "datatype" | "vector" => Method::Datatype,
                    other => {
                        return Err(PvfsError::invalid(format!(
                            "unknown method '{other}' (multiple|sieve|list|hybrid|datatype)"
                        )))
                    }
                };
                Ok(format!("method set to {}", self.method))
            }
        }
    }

    /// Durability barrier. `sync PATH` fsyncs one open file on every
    /// daemon in its layout; bare `sync` flushes every open file on
    /// every daemon. On the memory backend both are cheap no-ops that
    /// report zero durable bytes — only `PVFS_STORAGE=file:<dir>`
    /// clusters have anything to persist.
    fn cmd_sync(&mut self, args: &[&str]) -> PvfsResult<String> {
        match args.first() {
            Some(&path) => {
                let durable = self.file_mut(path)?.sync()?;
                Ok(format!("synced {path}: {durable} bytes durable"))
            }
            None => {
                let client = &self.client;
                let mut files = 0u64;
                for i in 0..self.cluster.n_servers() {
                    match client.call(RpcTarget::Server(ServerId(i)), Request::Flush)? {
                        Response::Flushed { files: n } => files += n,
                        other => {
                            return Err(PvfsError::protocol(format!(
                                "unexpected response to Flush: {other:?}"
                            )))
                        }
                    }
                }
                Ok(format!(
                    "flushed {files} open files across {} daemons",
                    self.cluster.n_servers()
                ))
            }
        }
    }

    /// Anti-entropy repair. `scrub PATH` digests and heals one open
    /// file; bare `scrub` walks every open file. With `PVFS_REPLICAS`
    /// unset (r=1) there is nothing to compare and the pass reports
    /// clean without touching any daemon.
    fn cmd_scrub(&mut self, args: &[&str]) -> PvfsResult<String> {
        let paths: Vec<String> = match args.first() {
            Some(&path) => {
                self.file_mut(path)?;
                vec![path.to_string()]
            }
            None => {
                let mut open: Vec<String> = self.files.keys().cloned().collect();
                open.sort();
                open
            }
        };
        if paths.is_empty() {
            return Ok("nothing open to scrub".into());
        }
        let mut total = crate::types::ScrubReport::default();
        for path in &paths {
            let file = self.file_mut(path)?;
            total.absorb(&file.scrub()?);
        }
        Ok(format!(
            "scrubbed {} file(s): {} slots, {} digests compared, {} divergent copies, \
             {} bytes repaired, {} truncated, {} unreachable",
            paths.len(),
            total.slots_scanned,
            total.digests_compared,
            total.copies_divergent,
            total.repair_bytes,
            total.copies_truncated,
            total.copies_unreachable
        ))
    }

    /// Compare all five methods on a strided pattern against an open
    /// file, with wall-clock timing on the live cluster.
    fn cmd_bench(&mut self, args: &[&str]) -> PvfsResult<String> {
        let (path, offset) = path_offset(args, "bench PATH OFFSET COUNT LEN STRIDE")?;
        let count: u64 = parse(args.get(2), "COUNT")?;
        let len: u64 = parse(args.get(3), "LEN")?;
        let stride: u64 = parse(args.get(4), "STRIDE")?;
        let regions = strided_regions(offset, count, len, stride)?;
        let mem = RegionList::contiguous(0, regions.total_len());
        let file = self.file_mut(path)?;
        let mut out = format!(
            "{:<20} {:>10} {:>8} {:>12}\n",
            "method", "requests", "rounds", "wall µs"
        );
        for method in crate::core::Method::ALL {
            let mut buf = vec![0u8; regions.total_len() as usize];
            let started = clock::now_ns();
            let report = file.read_list(&mem, &regions, &mut buf, method)?;
            let us = clock::since(started).as_micros();
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>8} {:>12}",
                method.name(),
                report.requests,
                report.rounds,
                us
            );
        }
        out.pop();
        Ok(out)
    }

    /// Scrape every daemon (and the manager) over the `GetStats` RPC —
    /// the same path an external monitoring tool would use — and render
    /// counters plus queue-wait/service-time percentiles. `stats json`
    /// emits the machine-readable form instead.
    fn cmd_stats(&mut self, args: &[&str]) -> PvfsResult<String> {
        let client = &self.client;
        let scrape = |target: RpcTarget| -> PvfsResult<StatsSnapshot> {
            match client.call(target, Request::GetStats)? {
                Response::Stats(s) => Ok(*s),
                other => Err(PvfsError::protocol(format!(
                    "unexpected response to GetStats: {other:?}"
                ))),
            }
        };
        let snaps: Vec<StatsSnapshot> = (0..self.cluster.n_servers())
            .map(|i| scrape(RpcTarget::Server(ServerId(i))))
            .collect::<PvfsResult<_>>()?;
        let mgr = scrape(RpcTarget::Manager)?;
        let client = client.stats();
        Ok(if args.first() == Some(&"json") {
            stats_json(&snaps, &mgr, &client)
        } else {
            stats_tables(&snaps, &mgr, &client)
        })
    }

    /// Render the waterfall of one retained distributed trace. Bare
    /// `trace` (or `trace last`) shows the most recently retained
    /// trace; `trace ID` looks one up by the hex id a waterfall header
    /// prints. Requires `PVFS_TRACE` (off by default: zero overhead,
    /// nothing retained).
    fn cmd_trace(&mut self, args: &[&str]) -> PvfsResult<String> {
        if !self.client.tracer().enabled() {
            return Ok(
                "tracing is off — restart with PVFS_TRACE=all|slow:<ms>|sample:<1/n>".into(),
            );
        }
        let trace = match args.first() {
            None | Some(&"last") => self.client.tracer().last().ok_or_else(|| {
                PvfsError::invalid("no trace retained yet (run an I/O command first)")
            })?,
            Some(&id) => TraceId::parse(id)?,
        };
        let tree = self.client.fetch_trace(trace);
        if tree.spans().is_empty() {
            return Err(PvfsError::invalid(format!(
                "no spans retained for trace {trace} (evicted from a ring, or never sampled?)"
            )));
        }
        Ok(tree.render())
    }

    /// Ping every daemon over the wire — the same cheap probe a
    /// background failure detector would run — and report round-trip
    /// time and live queue depth. A daemon that cannot answer within
    /// the RPC deadline shows as `down` with the error it produced.
    fn cmd_health(&mut self) -> PvfsResult<String> {
        let client = &self.client;
        let mut out = String::from("server     status    rtt µs  queue\n");
        for i in 0..self.cluster.n_servers() {
            let started = clock::now_ns();
            match client.ping(ServerId(i)) {
                Ok(depth) => {
                    let _ = writeln!(
                        out,
                        "{:<10} {:<8} {:>8.1} {:>6}",
                        format!("iod{i}"),
                        "up",
                        clock::since(started).as_secs_f64() * 1e6,
                        depth
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<10} {:<8} {e}", format!("iod{i}"), "down");
                }
            }
        }
        out.pop();
        Ok(out)
    }
}

const HELP: &str = "commands:
  create PATH [pcount [ssize [base]]]   create a striped file
  open PATH | close PATH | rm PATH      namespace operations
  ls                                    list the namespace
  stat PATH                             size + striping of an open file
  write PATH OFFSET TEXT                contiguous write
  read PATH OFFSET LEN                  contiguous read (hex+ascii)
  writep PATH OFFSET COUNT LEN STRIDE BYTE   strided noncontiguous write
  readp PATH OFFSET COUNT LEN STRIDE    strided noncontiguous read
  method [multiple|sieve|list|hybrid|datatype]   select the access method
  sync [PATH]                           durability barrier: one open file, or every daemon
  scrub [PATH]                          anti-entropy repair across replicas (PVFS_REPLICAS)
  bench PATH OFFSET COUNT LEN STRIDE    compare all methods on a pattern
  stats [json]                          per-server statistics scraped over the GetStats RPC
  trace [last|ID]                       waterfall of a retained trace (needs PVFS_TRACE)
  health                                ping every daemon: liveness, RTT, queue depth
  help                                  this text";

/// `stats json`: one array, an object per daemon, the manager, and the
/// client's counters last.
fn stats_json(snaps: &[StatsSnapshot], mgr: &StatsSnapshot, client: &ClientStats) -> String {
    let mut out = String::from("[");
    for (i, s) in snaps.iter().enumerate() {
        let _ = write!(out, "{{\"daemon\":\"iod{i}\",\"stats\":{}}},", s.to_json());
    }
    let _ = write!(out, "{{\"daemon\":\"mgr\",\"stats\":{}}},", mgr.to_json());
    let _ = write!(
        out,
        "{{\"daemon\":\"client\",\"stats\":{}}}]",
        client.to_json()
    );
    out
}

/// `stats`: the request, storage and latency tables, then the client's
/// counters.
fn stats_tables(snaps: &[StatsSnapshot], mgr: &StatsSnapshot, client: &ClientStats) -> String {
    let iods = || (0..).map(|i| format!("iod{i}")).zip(snaps);
    let mut out =
        String::from("server     requests  contig    list  regions   read B  written B\n");
    for (name, s) in iods().chain([("mgr".to_string(), mgr)]) {
        let _ = writeln!(
            out,
            "{name:<10} {:>8} {:>7} {:>7} {:>8} {:>8} {:>10}",
            s.requests,
            s.contiguous_requests,
            s.list_requests,
            s.regions,
            s.bytes_read,
            s.bytes_written
        );
    }
    let _ = writeln!(
        out,
        "\nstorage    jrnl-app  jrnl-depth  replays  flushes  fsyncs    shed"
    );
    for (name, s) in iods() {
        let _ = writeln!(
            out,
            "{name:<10} {:>8} {:>11} {:>8} {:>8} {:>7} {:>7}",
            s.journal_appends,
            s.journal_depth,
            s.journal_replays,
            s.flushes,
            s.fsyncs,
            s.requests_shed
        );
    }
    let _ = writeln!(
        out,
        "\nlatency (µs)            p50      p95      p99  samples"
    );
    let mut latencies = Vec::new();
    for (name, s) in iods() {
        latencies.push((format!("{name} queue-wait"), &s.queue_wait));
        latencies.push((format!("{name} service"), &s.service_time));
        latencies.push((format!("{name} fsync"), &s.fsync_time));
    }
    latencies.push(("mgr service".to_string(), &mgr.service_time));
    for (name, h) in client.histograms() {
        let what = name.trim_end_matches("_latency");
        latencies.push((format!("client {what}"), h));
    }
    let us = |ns: u64| ns as f64 / 1000.0;
    for (what, h) in latencies {
        let _ = writeln!(
            out,
            "{what:<18} {:>8.1} {:>8.1} {:>8.1} {:>8}",
            us(h.percentile_ns(0.50)),
            us(h.percentile_ns(0.95)),
            us(h.percentile_ns(0.99)),
            h.count()
        );
    }
    // Every client counter there is, so one added to the table shows up
    // here without a second edit.
    let _ = writeln!(out, "\nclient counters");
    for (name, value) in client.counters() {
        let _ = writeln!(out, "  {name:<20} {value:>10}");
    }
    out.pop();
    out
}

fn parse<T: std::str::FromStr>(arg: Option<&&str>, name: &str) -> PvfsResult<T> {
    arg.ok_or_else(|| PvfsError::invalid(format!("missing {name}")))?
        .parse()
        .map_err(|_| PvfsError::invalid(format!("bad {name}")))
}

fn parse_or<T: std::str::FromStr>(arg: Option<&&str>, default: T) -> PvfsResult<T> {
    match arg {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| PvfsError::invalid(format!("bad number '{s}'"))),
    }
}

fn parse_byte(arg: Option<&&str>) -> PvfsResult<u8> {
    let s = arg.ok_or_else(|| PvfsError::invalid("missing BYTE"))?;
    let v = if let Some(hex) = s.strip_prefix("0x") {
        u8::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map_err(|_| PvfsError::invalid(format!("bad byte '{s}'")))
}

fn path_offset<'a>(args: &[&'a str], usage: &str) -> PvfsResult<(&'a str, u64)> {
    let path = *args.first().ok_or_else(|| PvfsError::invalid(usage))?;
    let offset: u64 = parse(args.get(1), "OFFSET")?;
    Ok((path, offset))
}

fn strided_regions(offset: u64, count: u64, len: u64, stride: u64) -> PvfsResult<RegionList> {
    if count == 0 || len == 0 {
        return Err(PvfsError::invalid("COUNT and LEN must be nonzero"));
    }
    if stride < len {
        return Err(PvfsError::invalid("STRIDE must be at least LEN"));
    }
    if count * len > 1 << 24 {
        return Err(PvfsError::invalid("pattern too large (max 16 MiB)"));
    }
    RegionList::from_pairs((0..count).map(|i| (offset + i * stride, len)))
}

/// Hex + ASCII dump, 16 bytes per line.
fn render_bytes(buf: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in buf.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        let _ = writeln!(out, "{:08x}  {:<47}  |{}|", i * 16, hex.join(" "), ascii);
    }
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        Shell::new(4)
    }

    #[test]
    fn create_write_read_cycle() {
        let mut sh = shell();
        sh.execute("create /f 4 64").unwrap();
        sh.execute("write /f 0 hello").unwrap();
        let out = sh.execute("read /f 0 5").unwrap();
        assert!(out.contains("68 65 6c 6c 6f"), "{out}");
        assert!(out.contains("|hello|"), "{out}");
    }

    #[test]
    fn ls_and_rm() {
        let mut sh = shell();
        assert_eq!(sh.execute("ls").unwrap(), "(empty namespace)");
        sh.execute("create /a").unwrap();
        sh.execute("create /b").unwrap();
        assert_eq!(sh.execute("ls").unwrap(), "/a\n/b");
        sh.execute("rm /a").unwrap();
        assert_eq!(sh.execute("ls").unwrap(), "/b");
    }

    #[test]
    fn stat_reports_size_and_layout() {
        let mut sh = shell();
        sh.execute("create /f 2 128").unwrap();
        sh.execute("write /f 100 xyz").unwrap();
        let out = sh.execute("stat /f").unwrap();
        assert!(out.contains("103 bytes"), "{out}");
        assert!(out.contains("striped 2-way"), "{out}");
    }

    #[test]
    fn strided_pattern_roundtrip_under_each_method() {
        let mut sh = shell();
        sh.execute("create /p 4 64").unwrap();
        for m in ["multiple", "sieve", "list", "hybrid", "datatype"] {
            sh.execute(&format!("method {m}")).unwrap();
            sh.execute("writep /p 0 8 4 32 0xab").unwrap();
            let out = sh.execute("readp /p 0 8 4 32").unwrap();
            assert!(out.contains("ab ab ab ab"), "method {m}: {out}");
        }
        // Gaps were never written.
        let gap = sh.execute("read /p 4 4").unwrap();
        assert!(gap.contains("00 00 00 00"), "{gap}");
    }

    #[test]
    fn method_switching_and_errors() {
        let mut sh = shell();
        assert!(sh.execute("method").unwrap().contains("List I/O"));
        sh.execute("method sieve").unwrap();
        assert!(sh.execute("method").unwrap().contains("Data Sieving"));
        assert!(sh.execute("method bogus").is_err());
    }

    #[test]
    fn helpful_errors() {
        let mut sh = shell();
        assert!(sh.execute("frobnicate").is_err());
        assert!(sh.execute("read /missing 0 4").is_err());
        assert!(sh.execute("open /missing").is_err());
        assert!(sh.execute("writep /x 0 0 4 8 1").is_err());
        assert!(sh.execute("create").is_err());
        assert!(sh.execute("").unwrap().is_empty());
        assert!(sh.execute("help").unwrap().contains("commands:"));
    }

    #[test]
    fn bench_compares_all_methods() {
        let mut sh = shell();
        sh.execute("create /b 4 64").unwrap();
        sh.execute("write /b 0 seed-data-so-reads-return-something")
            .unwrap();
        let out = sh.execute("bench /b 0 16 4 16").unwrap();
        for name in [
            "Multiple I/O",
            "Data Sieving I/O",
            "List I/O",
            "Hybrid I/O",
            "Datatype I/O",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn stats_show_traffic() {
        let mut sh = shell();
        sh.execute("create /s 4 64").unwrap();
        sh.execute("write /s 0 0123456789abcdef").unwrap();
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("iod0"), "{out}");
        assert!(out.lines().count() >= 5, "{out}");
        // The scrape includes the manager and the latency percentiles.
        assert!(out.contains("mgr"), "{out}");
        assert!(out.contains("latency (µs)"), "{out}");
        assert!(out.contains("iod0 queue-wait"), "{out}");
        assert!(out.contains("iod0 service"), "{out}");
    }

    #[test]
    fn stats_json_is_machine_readable() {
        let mut sh = shell();
        sh.execute("create /j 2 64").unwrap();
        sh.execute("write /j 0 payload").unwrap();
        let out = sh.execute("stats json").unwrap();
        assert!(out.starts_with('[') && out.ends_with(']'), "{out}");
        assert!(out.contains("\"daemon\":\"iod0\""), "{out}");
        assert!(out.contains("\"daemon\":\"mgr\""), "{out}");
        assert!(out.contains("\"requests\":"), "{out}");
        assert!(out.contains("\"p99_ns\":"), "{out}");
        // Scraping must not perturb the counters it reports.
        let again = sh.execute("stats json").unwrap();
        assert_eq!(again, out, "a scrape perturbed the stats");
    }

    #[test]
    fn sync_command_barriers_one_file_or_the_cluster() {
        let mut sh = shell();
        sh.execute("create /d 4 64").unwrap();
        sh.execute("write /d 0 make-it-durable").unwrap();
        // The default shell cluster is memory-backed: the barrier runs
        // the full RPC fan-out but has nothing to persist.
        let out = sh.execute("sync /d").unwrap();
        assert_eq!(out, "synced /d: 0 bytes durable");
        let out = sh.execute("sync").unwrap();
        assert!(out.contains("flushed"), "{out}");
        assert!(sh.execute("sync /missing").is_err());
    }

    #[test]
    fn stats_show_storage_counters() {
        let mut sh = shell();
        sh.execute("create /s 2 64").unwrap();
        sh.execute("write /s 0 bytes").unwrap();
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("jrnl-app"), "{out}");
        assert!(out.contains("shed"), "{out}");
        assert!(out.contains("iod0 fsync"), "{out}");
    }

    #[test]
    fn health_pings_every_daemon() {
        let mut sh = shell();
        let out = sh.execute("health").unwrap();
        for i in 0..sh.n_servers() {
            assert!(out.contains(&format!("iod{i}")), "{out}");
        }
        assert!(out.contains("up"), "{out}");
        assert!(!out.contains("down"), "{out}");
        // The probes are accounted requests on the daemons they hit.
        let stats = sh.execute("stats json").unwrap();
        assert!(stats.contains("\"requests\":1"), "{stats}");
    }

    #[test]
    fn scrub_command_reports_clean_without_replication() {
        let mut sh = shell();
        assert_eq!(sh.execute("scrub").unwrap(), "nothing open to scrub");
        sh.execute("create /r 4 64").unwrap();
        sh.execute("write /r 0 replicated-bytes").unwrap();
        // The default shell cluster runs r=1: a scrub has nothing to
        // compare and reports clean without touching any daemon.
        let out = sh.execute("scrub /r").unwrap();
        assert!(out.contains("scrubbed 1 file(s)"), "{out}");
        assert!(out.contains("0 divergent copies"), "{out}");
        assert!(out.contains("0 bytes repaired"), "{out}");
        let all = sh.execute("scrub").unwrap();
        assert!(all.contains("scrubbed 1 file(s)"), "{all}");
        assert!(sh.execute("scrub /missing").is_err());
    }

    #[test]
    fn stats_render_every_client_counter() {
        let mut sh = shell();
        sh.execute("create /c 2 64").unwrap();
        sh.execute("write /c 0 counters").unwrap();
        let text = sh.execute("stats").unwrap();
        let json = sh.execute("stats json").unwrap();
        assert!(text.contains("client counters"), "{text}");
        assert!(json.contains("\"daemon\":\"client\""), "{json}");
        // Every ClientStats counter must surface in both renderings —
        // `counters()` destructures the struct exhaustively, so a field
        // added to ClientStats reaches this loop automatically and
        // cannot be silently dropped from the shell's reports.
        for (name, _) in sh.client.stats().counters() {
            assert!(text.contains(name), "stats text is missing {name}: {text}");
            assert!(
                json.contains(&format!("\"{name}\":")),
                "stats json is missing {name}: {json}"
            );
        }
    }

    /// The tables and the JSON for a fixed set of snapshots, to the byte.
    #[test]
    fn stats_renderings_are_pinned() {
        let mut iod = StatsSnapshot {
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
        iod.queue_wait.record(1_000);
        iod.queue_wait.record(3_000);
        iod.service_time.record(1_000_000);
        let mut mgr = StatsSnapshot {
            requests: 21,
            workers: 1,
            ..StatsSnapshot::default()
        };
        mgr.service_time.record(2_000);
        let mut client = ClientStats {
            attempts: 1,
            retries: 2,
            backoff_ms: 3,
            faults_injected: 4,
            breaker_rejections: 5,
            sheds_seen: 6,
            replica_failovers: 7,
            quorum_shortfalls: 8,
            ..ClientStats::default()
        };
        client.rpc_latency.record(4_000);
        assert_eq!(
            stats_tables(&[iod.clone()], &mgr, &client),
            "\
server     requests  contig    list  regions   read B  written B
iod0              1       2       3        4        5          6
mgr              21       0       0        0        0          0

storage    jrnl-app  jrnl-depth  replays  flushes  fsyncs    shed
iod0             11          20       13       14      15      16

latency (µs)            p50      p95      p99  samples
iod0 queue-wait         1.0      3.0      3.0        2
iod0 service         1000.0   1000.0   1000.0        1
iod0 fsync              0.0      0.0      0.0        0
mgr service             2.0      2.0      2.0        1
client rpc              4.0      4.0      4.0        1

client counters
  attempts                      1
  retries                       2
  backoff_ms                    3
  faults_injected               4
  breaker_rejections            5
  sheds_seen                    6
  replica_failovers             7
  quorum_shortfalls             8"
        );
        let empty = "{\"count\":0,\"min_ns\":0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\"max_ns\":0,\"mean_ns\":0}";
        assert_eq!(
            stats_json(&[iod], &mgr, &client),
            format!(
                "[{{\"daemon\":\"iod0\",\"stats\":{{\
                 \"requests\":1,\"contiguous_requests\":2,\"list_requests\":3,\"regions\":4,\
                 \"bytes_read\":5,\"bytes_written\":6,\"errors\":7,\"bytes_rx\":8,\"bytes_tx\":9,\
                 \"frames_rx\":10,\"journal_appends\":11,\"journal_bytes\":12,\
                 \"journal_replays\":13,\"flushes\":14,\"fsyncs\":15,\"requests_shed\":16,\
                 \"workers\":17,\"busy_workers\":18,\"queue_depth\":19,\"journal_depth\":20,\
                 \"queue_wait\":{{\"count\":2,\"min_ns\":1000,\"p50_ns\":1000,\"p95_ns\":3000,\
                 \"p99_ns\":3000,\"max_ns\":3000,\"mean_ns\":2000}},\
                 \"service_time\":{{\"count\":1,\"min_ns\":1000000,\"p50_ns\":1000000,\
                 \"p95_ns\":1000000,\"p99_ns\":1000000,\"max_ns\":1000000,\"mean_ns\":1000000}},\
                 \"fsync_time\":{empty}}}}},\
                 {{\"daemon\":\"mgr\",\"stats\":{{\
                 \"requests\":21,\"contiguous_requests\":0,\"list_requests\":0,\"regions\":0,\
                 \"bytes_read\":0,\"bytes_written\":0,\"errors\":0,\"bytes_rx\":0,\"bytes_tx\":0,\
                 \"frames_rx\":0,\"journal_appends\":0,\"journal_bytes\":0,\"journal_replays\":0,\
                 \"flushes\":0,\"fsyncs\":0,\"requests_shed\":0,\"workers\":1,\"busy_workers\":0,\
                 \"queue_depth\":0,\"journal_depth\":0,\"queue_wait\":{empty},\
                 \"service_time\":{{\"count\":1,\"min_ns\":2000,\"p50_ns\":2000,\"p95_ns\":2000,\
                 \"p99_ns\":2000,\"max_ns\":2000,\"mean_ns\":2000}},\"fsync_time\":{empty}}}}},\
                 {{\"daemon\":\"client\",\"stats\":{{\"attempts\":1,\"retries\":2,\"backoff_ms\":3,\
                 \"faults_injected\":4,\"breaker_rejections\":5,\"sheds_seen\":6,\
                 \"replica_failovers\":7,\"quorum_shortfalls\":8,\
                 \"rpc_latency\":{{\"count\":1,\"min_ns\":4000,\"p50_ns\":4000,\"p95_ns\":4000,\
                 \"p99_ns\":4000,\"max_ns\":4000,\"mean_ns\":4000}}}}}}]"
            )
        );
    }

    #[test]
    fn trace_command_renders_a_waterfall() {
        let mut sh = shell();
        // Off by default: the command explains how to turn tracing on.
        assert!(sh.execute("trace").unwrap().contains("tracing is off"));
        sh.set_trace_mode(crate::types::TraceMode::All);
        sh.execute("create /t 4 64").unwrap();
        sh.execute("writep /t 0 8 4 32 0xab").unwrap();
        let out = sh.execute("trace last").unwrap();
        // The waterfall stitches client spans to the server-side spans
        // fetched over GetTrace: plan execution, per-attempt RPCs, and
        // the daemons' queue/service/storage segments.
        assert!(out.starts_with("trace "), "{out}");
        assert!(out.contains("execute"), "{out}");
        assert!(out.contains("rpc:"), "{out}");
        assert!(out.contains("service"), "{out}");
        assert!(out.contains("queue"), "{out}");
        // The header's hex id looks the same trace up again.
        let id = out.split_whitespace().nth(1).unwrap();
        let by_id = sh.execute(&format!("trace {id}")).unwrap();
        assert_eq!(by_id, out, "fetching a waterfall changed the waterfall");
        assert!(sh.execute("trace not-hex").is_err());
    }

    #[test]
    fn close_then_reopen() {
        let mut sh = shell();
        sh.execute("create /c 2 32").unwrap();
        sh.execute("write /c 0 data").unwrap();
        sh.execute("close /c").unwrap();
        assert!(sh.execute("read /c 0 4").is_err()); // not open locally
        sh.execute("open /c").unwrap();
        let out = sh.execute("read /c 0 4").unwrap();
        assert!(out.contains("|data|"), "{out}");
    }

    #[test]
    fn render_bytes_format() {
        let out = render_bytes(&[0x41, 0x00, 0x7f]);
        assert!(out.contains("41 00 7f"));
        assert!(out.contains("|A..|"));
    }
}
