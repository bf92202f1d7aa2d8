//! `perf`: the live-cluster benchmark. See README.md beside this
//! package for the workloads, the metrics and the decisions behind
//! them.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! perf all [--seed N] [--seconds S] [--out FILE]          every workload, one report
//! perf compare A.json B.json                              judge B against A
//! perf --smoke                                            every workload, tiny windows
//! ```

mod alloc;
mod ceilings;
mod compare;
mod json;
mod layers;
mod live;
mod metrics;
mod span;
mod stats;
mod sys;
mod traced;
mod workload;

use json::Value;
use live::{LiveResult, Sabotage, Window};
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traced::TraceOpts;
use workload::{Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The driver's default, and `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u64 = 15;

/// Where the benchmark writes: data directories of the file backend,
/// trace files, reports. Inside the package, ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// What the process did to itself before any thread started.
#[derive(Debug, Clone, Copy, Default)]
struct Host {
    pinned_cpu: Option<usize>,
    /// Whether [`sys::hold_malloc_still`] took.
    malloc_fixed: bool,
}

/// One run's options.
struct RunOpts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sabotage: Sabotage,
}

impl RunOpts {
    fn window(&self) -> Window {
        if self.smoke {
            return Window {
                warmup: Duration::from_millis(200),
                slice: Duration::from_millis(100),
                slices: 2,
                setups: 1,
                setup_bytes: 0,
            };
        }
        if self.trace {
            // Half the time to the live run the residual is taken
            // against; the walk, replays and ceilings fill the rest.
            return Window {
                warmup: Duration::from_secs_f64((self.seconds * 0.1).min(1.0)),
                slice: Duration::from_secs_f64(self.seconds / 20.0),
                slices: 10,
                setups: 1,
                setup_bytes: 0,
            };
        }
        // Quarter-second slices: short enough that a burst of
        // interference spoils some slices and leaves others clean.
        let slices = ((self.seconds * 4.0) as usize).max(8);
        Window {
            warmup: Duration::from_secs_f64((self.seconds * 0.2).min(2.0)),
            slice: Duration::from_secs_f64(self.seconds / slices as f64),
            slices,
            setups: 8,
            setup_bytes: 64 << 20,
        }
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.push("value", value).push("unit", unit);
    v
}

fn end_to_end_metrics(r: &LiveResult) -> Value {
    let ops = r.ops_ok().max(1) as f64;
    let payload = r.payload_bytes.max(1) as f64;
    let value = |name: &str| match name {
        "frames_per_op" => r.counters.frames_rx as f64 / ops,
        "wire_bytes_per_payload_byte" => r.counters.wire_bytes as f64 / payload,
        "allocs_per_op" => r.allocs.allocs as f64 / ops,
        "alloc_bytes_per_payload_byte" => r.allocs.bytes as f64 / payload,
        "peak_rss_mib" => sys::peak_rss_kib() as f64 / 1024.0,
        "setup_s" => r.setup_s(),
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    let mut m = Value::obj();
    for e in &END_TO_END {
        m.push(e.name, metric_value(value(e.name), e.unit));
    }
    m
}

fn config_block(spec: &Spec, opts: &RunOpts, window: Window, host: Host) -> Value {
    let out = out_dir();
    let cfg = live::cluster_cfg(spec, &out);
    let mut c = Value::obj();
    c.push("git_rev", sys::git_rev(&repo_root()))
        .push("workload", spec.name)
        .push("seed", opts.seed)
        .push("trace", opts.trace)
        .push("warmup_s", window.warmup.as_secs_f64())
        .push("slice_s", window.slice.as_secs_f64())
        .push("slices", window.slices)
        .push("setups_min", window.setups)
        .push("setup_bytes", window.setup_bytes)
        .push("malloc_held_still", host.malloc_fixed)
        .push("daemons", layers::SERVERS as u64)
        .push("stripe_bytes", layers::STRIPE_BYTES)
        .push("workers_per_daemon", layers::WORKERS)
        .push("queue_depth", layers::QUEUE_DEPTH)
        .push("clients", 1u64)
        .push("loop", "closed")
        .push("transport", format!("{:?}", spec.transport).to_lowercase())
        .push("backend", format!("{:?}", spec.backend))
        .push("sync_policy", cfg.sync_policy())
        .push(
            "emulated_latency_ms",
            spec.emulated_latency_ms.map_or(Value::Null, Value::from),
        )
        .push("storage_dir", out.display().to_string())
        .push("storage_fs", sys::fs_type(&out))
        .push("pinned", host.pinned_cpu.is_some())
        .push(
            "pinned_cpu",
            host.pinned_cpu.map_or(Value::Null, Value::from),
        )
        .push("nproc", sys::nproc());
    c
}

fn samples(values: &[f64]) -> Value {
    let sorted = stats::sorted(values.to_vec());
    let (q1, q3) = stats::quartiles(&sorted);
    let mut v = Value::obj();
    v.push("n", sorted.len())
        .push("min", sorted.first().copied().unwrap_or(0.0))
        .push("q1", q1)
        .push("median", stats::median(&sorted))
        .push("q3", q3)
        .push("max", sorted.last().copied().unwrap_or(0.0));
    v
}

/// What one run hands back: the result line, the detail line, and why
/// the run is incorrect, if it is.
struct RunOutput {
    result: Value,
    detail: Value,
    violations: Vec<String>,
}

/// One run of one workload: the driver's unit of work.
fn run_workload(spec: &Spec, opts: &RunOpts, host: Host) -> Result<RunOutput, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let window = opts.window();
    let live = live::run(
        spec,
        opts.seed,
        window,
        opts.sabotage,
        &out,
        host.pinned_cpu,
    )?;
    let mut violations = live.violations.clone();
    let mut detail = Value::obj();
    detail.push("config", config_block(spec, opts, window, host));
    detail
        .push("slice_goodput_mibs", samples(&live.slice_mibs))
        // In time order: a burst of interference shows as a run of low
        // slices.
        .push(
            "slice_goodput_series",
            live.slice_mibs
                .iter()
                .map(|v| Value::Num(v.round()))
                .collect::<Vec<_>>(),
        )
        .push("slice_cpu_s_per_gib", samples(&live.slice_cpu_s_per_gib))
        .push("op_ms", samples(&live.op_ms))
        .push("setup_s", samples(&live.setup_s))
        .push("setup_cluster_s", samples(&live.setup_cluster_s))
        .push("ops_timed", live.attempted)
        .push("ops_failed", live.failed)
        .push("readbacks", live.readbacks)
        .push("readbacks_failed", live.readbacks_failed);

    let metrics = if opts.trace {
        let trace_opts = if opts.smoke {
            TraceOpts::smoke()
        } else {
            TraceOpts::full()
        };
        let traced = traced::run(spec, opts.seed, trace_opts, &live, &out)?;
        violations.extend(traced.violations);
        detail
            .push("budget", traced.budget)
            .push("trace_file", traced.trace_file.display().to_string());
        let mut m = Value::obj();
        for p in &PER_LAYER {
            let value = *traced
                .metrics
                .get(p.name)
                .unwrap_or_else(|| panic!("the traced run did not measure {}", p.name));
            m.push(p.name, metric_value(value, p.unit));
        }
        m
    } else {
        end_to_end_metrics(&live)
    };

    let correct = violations.is_empty();
    detail.push(
        "violations",
        violations
            .iter()
            .map(|v| Value::from(v.as_str()))
            .collect::<Vec<_>>(),
    );
    let mut result = Value::obj();
    result
        .push("correct", correct)
        .push("attempted", live.attempted + live.readbacks)
        .push("failed", live.failed + live.readbacks_failed)
        .push("metrics", metrics);
    Ok(RunOutput {
        result,
        detail,
        violations,
    })
}

/// Every workload with tiny windows, both runs, in this process.
fn smoke(host: Host) -> Result<(), String> {
    for spec in &WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 1,
                seconds: 0.0,
                trace,
                smoke: true,
                sabotage: Sabotage::default(),
            };
            let out = run_workload(spec, &opts, host)?;
            if !out.violations.is_empty() {
                return Err(format!("{}: {:?}", spec.name, out.violations));
            }
            println!(
                "{} trace={} {}",
                spec.name,
                trace as u8,
                out.result.render()
            );
        }
    }
    Ok(())
}

/// One child run: (metrics, detail, correct).
fn child_run(
    exe: &Path,
    spec: &Spec,
    trace: &str,
    seed: u64,
    seconds: u64,
) -> Result<(Value, Value, bool), String> {
    eprintln!("perf all: {} --trace {trace} --seed {seed}", spec.name);
    let child = std::process::Command::new(exe)
        .args(["--workload", spec.name, "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().unwrap_or(""))
        .map_err(|e| format!("{} --trace {trace}: no result line ({e})", spec.name))?;
    let detail = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .unwrap_or(Value::Null);
    let correct = child.status.success() && result.get("correct") == Some(&Value::Bool(true));
    let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
    Ok((metrics, detail, correct))
}

/// Untraced passes of `perf all`, on consecutive seeds.
const PASSES: u64 = 3;

/// `perf all`: each workload in child processes of their own (own peak
/// RSS, allocator counts and pinned CPU), folded into one report. The
/// untraced run is made [`PASSES`] times and each end-to-end metric
/// reported as the median over them, as the driver does on a larger
/// scale. A pass goes through all six workloads before the next one
/// starts, so the three runs of one workload lie minutes apart and a
/// slow phase of the host has to outlast two passes to move a median.
/// The traced run is made once.
fn run_all(seed: u64, seconds: u64, out_file: Option<&Path>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    // [workload][pass]
    let mut runs: Vec<Vec<(Value, Value)>> = vec![Vec::new(); WORKLOADS.len()];
    for pass in 0..PASSES {
        for (spec, runs) in WORKLOADS.iter().zip(&mut runs) {
            let (metrics, detail, correct) = child_run(&exe, spec, "0", seed + pass, seconds)?;
            all_correct &= correct;
            runs.push((metrics, detail));
        }
    }
    let mut workloads = Value::obj();
    for (spec, runs) in WORKLOADS.iter().zip(runs) {
        let mut end_to_end = Value::obj();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(metrics, _)| metrics.get(m.name)?.get("value")?.as_f64())
                .collect();
            let mut v = metric_value(stats::median(&stats::sorted(values.clone())), m.unit);
            v.push(
                "runs",
                values.into_iter().map(Value::Num).collect::<Vec<_>>(),
            );
            end_to_end.push(m.name, v);
        }
        let (per_layer, per_layer_detail, correct) = child_run(&exe, spec, "1", seed, seconds)?;
        all_correct &= correct;
        let first_detail = runs.into_iter().next().map_or(Value::Null, |(_, d)| d);
        let mut entry = Value::obj();
        entry
            .push("end_to_end", end_to_end)
            .push("end_to_end_detail", first_detail)
            .push("per_layer", per_layer)
            .push("per_layer_detail", per_layer_detail);
        workloads.push(spec.name, entry);
    }
    let mut report = Value::obj();
    report
        .push("schema", "pvfs-perf/1")
        .push("git_rev", sys::git_rev(&repo_root()))
        .push("seed", seed)
        .push("seconds", seconds)
        .push("passes", PASSES)
        .push("correct", all_correct)
        .push("workloads", workloads);
    match out_file {
        Some(path) => std::fs::write(path, report.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?,
        None => print!("{}", report.render_pretty()),
    }
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

/// `BENCHMARK.json`, generated from the same tables the binary prints
/// from (a test checks the committed file still agrees).
fn benchmark_json() -> Value {
    let strings = |items: &[&str]| items.iter().map(|s| Value::from(*s)).collect::<Vec<_>>();
    let mut doc = Value::obj();
    doc.push(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perf/Cargo.toml",
            "--",
        ]),
    )
    .push("paths", strings(&["perf"]))
    .push("run_seconds", RUN_SECONDS);
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut o = Value::obj();
        o.push("name", w.name).push("why", w.why);
        workloads.push(o);
    }
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let mut o = Value::obj();
        o.push("name", m.name)
            .push("unit", m.unit)
            .push("better", m.better.word())
            .push("bound", m.bound);
        e2e.push(o);
    }
    let mut layers = Vec::new();
    for m in &PER_LAYER {
        let mut o = Value::obj();
        o.push("name", m.name)
            .push("unit", m.unit)
            .push("better", m.better.word());
        layers.push(o);
    }
    doc.push("workloads", workloads)
        .push("end_to_end", e2e)
        .push("per_layer", layers);
    doc
}

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1
  perf all [--seed N] [--seconds S] [--out FILE]
  perf compare A.json B.json
  perf --smoke
  perf --print-benchmark-json";

/// `--flag value` pairs and bare words, in order.
#[derive(Debug)]
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// A flag outside the known set is an error: a typo must not run
    /// the benchmark under a default it did not ask for.
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        while let Some(a) = raw.next() {
            let value = match a.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => raw.next(),
                "--smoke" | "--print-benchmark-json" => None,
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => {
                    args.words.push(a);
                    continue;
                }
            };
            args.flags.push((a, value));
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} {v}: not a number")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    // Hermetic: no knob of the program leaks in from the environment.
    // Before any thread exists, so nothing reads the environment
    // concurrently.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with(layers::ENV_PREFIX))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }

    let args = Args::parse(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    match args.words.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.words.as_slice() else {
                return Err(USAGE.into());
            };
            return run_compare(a, b);
        }
        Some("all") => {
            let seed = args.number("--seed", 1)?;
            let seconds = args.number("--seconds", RUN_SECONDS)?;
            return run_all(seed, seconds, args.value("--out").map(Path::new));
        }
        Some(_) => return Err(USAGE.into()),
        None => {}
    }
    if args.has("--print-benchmark-json") {
        print!("{}", benchmark_json().render_pretty());
        return Ok(true);
    }

    let host = Host {
        pinned_cpu: sys::pin_to_last_cpu(),
        malloc_fixed: sys::hold_malloc_still(),
    };
    if args.has("--smoke") {
        return smoke(host).map(|()| true);
    }
    let name = args.value("--workload").ok_or(USAGE)?;
    let spec = workload::find(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 120]"));
    }
    let opts = RunOpts {
        seed: args.number("--seed", 1)?,
        seconds,
        trace: match args.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: must be 0 or 1")),
        },
        smoke: false,
        sabotage: Sabotage::default(),
    };
    let out = run_workload(spec, &opts, host)?;
    for v in &out.violations {
        eprintln!("perf: {}: {v}", spec.name);
    }
    println!("{}", out.detail.render());
    println!("{}", out.result.render());
    Ok(out.violations.is_empty())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `cargo test` runs: every workload, both runs, end to end,
    /// with tiny windows — and the budget identity on what comes out.
    #[test]
    fn smoke_runs_every_workload_and_the_budget_adds_up() {
        let started = std::time::Instant::now();
        for spec in &WORKLOADS {
            let opts = RunOpts {
                seed: 2,
                seconds: 0.0,
                trace: true,
                smoke: true,
                sabotage: Sabotage::default(),
            };
            let out = run_workload(spec, &opts, Host::default()).unwrap();
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                spec.name,
                out.violations
            );
            let m = out.result.get("metrics").unwrap();
            assert_eq!(m.members().len(), PER_LAYER.len());
            let v = |name: &str| m.get(name).unwrap().get("value").unwrap().as_f64().unwrap();
            // Stage self times + residual = the live op's time.
            let inline_us: f64 = [
                "client.request_us_per_op",
                "types.align_us_per_op",
                "core.plan_us_per_op",
                "client.gather_us_per_op",
                "proto.encode_req_us_per_op",
                "net.frame_io_us_per_op",
                "proto.decode_req_us_per_op",
                "server.handle_us_per_op",
                "proto.encode_resp_us_per_op",
                "proto.decode_resp_us_per_op",
                "client.scatter_us_per_op",
                "client.walk_glue_us_per_op",
            ]
            .iter()
            .map(|n| v(n))
            .sum();
            let total_us = inline_us + 1e3 * v("net.residual_ms_per_op");
            let live_us = 1e3 * v("client.op_p50_ms");
            // `core.plan` is clamped at 0 when the separately timed
            // alignment exceeds the whole plan; allow for that only.
            if v("core.plan_us_per_op") > 0.0 {
                assert!(
                    (total_us - live_us).abs() <= 1e-6 * live_us,
                    "{}: {total_us} != {live_us}",
                    spec.name
                );
            }
            assert_eq!(v("core.wire_requests_per_op"), spec.frames_per_op as f64);
            assert_eq!(v("net.retries_per_op"), 0.0);
        }
        // The release build finishes in a few seconds; debug builds of
        // the workspace crates are several times slower.
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn untraced_run_prints_exactly_the_end_to_end_metrics() {
        let spec = workload::find("cyclic_multiple_read").unwrap();
        let opts = RunOpts {
            seed: 5,
            seconds: 0.0,
            trace: false,
            smoke: true,
            sabotage: Sabotage::default(),
        };
        let out = run_workload(spec, &opts, Host::default()).unwrap();
        assert!(out.violations.is_empty());
        let keys: Vec<&str> = out
            .result
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = out.result.get("metrics").unwrap();
        for e in &END_TO_END {
            let value = m
                .get(e.name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(value > 0.0, "{} must never be 0", e.name);
        }
        assert_eq!(m.members().len(), END_TO_END.len());
        assert_eq!(
            m.get("frames_per_op")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(256.0)
        );
    }

    /// One wrong expected byte: the result line says so, and `main`
    /// turns a run with violations into a non-zero exit status.
    #[test]
    fn a_corrupt_expected_byte_makes_the_result_incorrect() {
        let spec = workload::find("cyclic_list_read").unwrap();
        let opts = RunOpts {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
            sabotage: Sabotage {
                corrupt_expected: true,
            },
        };
        let out = run_workload(spec, &opts, Host::default()).unwrap();
        assert!(!out.violations.is_empty());
        assert_eq!(out.result.get("correct"), Some(&Value::Bool(false)));
        let failed = out.result.get("failed").and_then(Value::as_f64).unwrap();
        let attempted = out.result.get("attempted").and_then(Value::as_f64).unwrap();
        assert!(
            failed > 0.0 && failed < attempted,
            "{failed} of {attempted}"
        );
    }

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let doc = benchmark_json();
        assert!(doc.render_pretty().len() <= 64 * 1024);
        let Some(Value::Arr(command)) = doc.get("command") else {
            panic!("no command");
        };
        assert!(command.len() <= 32);
        assert_eq!(
            json::parse(include_str!("../../BENCHMARK.json")).unwrap(),
            doc,
            "regenerate with: perf --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn args_parse_the_drivers_form() {
        let parse = |line: &str| Args::parse(line.split(' ').map(String::from));
        let a = parse("--workload tiled_list_read --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.value("--workload"), Some("tiled_list_read"));
        assert_eq!(a.number("--seed", 1u64), Ok(7));
        assert_eq!(a.number("--seconds", 0.0), Ok(10.0));
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(a.number::<u64>("--out", 3) == Ok(3));
        let a = parse("compare a.json b.json").unwrap();
        assert_eq!(a.words, ["compare", "a.json", "b.json"]);
        assert!(parse("--seed").unwrap().number("--seed", 1u64).is_err());
        // A typo is refused, not run under the default seed.
        let e = parse("--workload cyclic_list_write --sed 5").unwrap_err();
        assert!(e.contains("--sed"), "{e}");
    }
}
