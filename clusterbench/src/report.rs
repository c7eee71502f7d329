//! Metrics, the provenance record and the result line.

use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::deployed::{group_of, Outcome};
use crate::stats::{mean, percentile, sorted, supports, tail_percentile};
use crate::traced::{CodecCost, Replay};
use crate::workload::{self, DestMix, Pacing, Workload};

/// End-to-end metrics, printed with `--trace 0` (names and units must match
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_msg_s", "msg/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_msg", "us"),
    ("setup_s", "s"),
    ("replica_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` (names and units must match
/// `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str); 21] = [
    ("wbamd.node_thread_us_per_msg", "us"),
    ("wbamd.poller_thread_us_per_msg", "us"),
    ("wbamd.main_thread_us_per_msg", "us"),
    ("wbamd.leader_cpu_share", "ratio"),
    ("wbamd.wakeups_per_msg", "count"),
    ("tcp.segments_per_msg", "count"),
    ("tcp.wire_bytes_per_msg", "B"),
    ("client.cpu_us_per_msg", "us"),
    ("client.retries_per_msg", "count"),
    ("client.send_lag_ms", "ms"),
    ("core.on_event_us_per_msg", "us"),
    ("core.on_event_p99_us", "us"),
    ("core.events_per_msg", "count"),
    ("core.sends_per_msg", "count"),
    ("core.allocs_per_msg", "count"),
    ("codec.encode_ns_per_frame", "ns"),
    ("codec.decode_ns_per_frame", "ns"),
    ("codec.bytes_per_msg", "B"),
    ("codec.allocs_per_frame", "count"),
    ("loop.us_per_msg", "us"),
    ("trace.overhead_pct", "%"),
];

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

/// Everything one run reports.
pub struct Record {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spec_json: String,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Reasons the run is not correct; empty when it is.
    problems: Vec<String>,
    notes: Vec<(String, String)>,
    /// Per-slice throughput, CPU per multicast and median latency, in
    /// window order.
    slices: Vec<(f64, f64, f64)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0 so the line stays parseable).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

impl Record {
    pub fn new(w: &Workload, seed: u64, seconds: u64, trace: bool, spec_json: &str) -> Record {
        Record {
            workload: *w,
            seed,
            seconds,
            trace,
            spec_json: spec_json.to_string(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            slices: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Metrics of the deployed run.
    pub fn deployed(&mut self, o: &Outcome, setups: &[Duration], links: usize) {
        let win = &o.window;
        let n = win.completed_in_window();
        self.attempted = win.attempted;
        self.failed = o.failed;
        // End-to-end rates and latencies are medians over the window's
        // slices. A latency percentile falls back to the whole window when
        // some slice has fewer than ten samples beyond it.
        let slices = win.slices();
        let median = |xs: Vec<f64>| percentile(&sorted(xs), 0.5).unwrap_or(0.0);
        self.put(
            "throughput_msg_s",
            median(slices.iter().map(|s| s.0).collect()),
            "msg/s",
            n,
        );
        self.put(
            "throughput_window_msg_s",
            n as f64 / win.length.as_secs_f64(),
            "msg/s",
            n,
        );
        let lat = sorted(
            win.completions
                .iter()
                .map(|&(s, d)| (d - s).as_secs_f64() * 1e3)
                .collect(),
        );
        let samples = lat.len() as u64;
        let mut basis = Vec::new();
        let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|p| {
            if !slices.is_empty() && slices.iter().all(|s| supports(s.2.len(), p)) {
                basis.push(format!("p{}: median of {} slices", p * 100.0, slices.len()));
                median(
                    slices
                        .iter()
                        .map(|s| percentile(&s.2, p).unwrap_or(0.0))
                        .collect(),
                )
            } else {
                basis.push(format!("p{}: whole window", p * 100.0));
                percentile(&lat, p).unwrap_or(0.0)
            }
        });
        self.note("latency_basis", basis.join("; "));
        self.slices = slices
            .iter()
            .map(|s| (s.0, s.1, percentile(&s.2, 0.5).unwrap_or(0.0)))
            .collect();
        self.put("latency_p50_ms", p50, "ms", samples);
        self.put("latency_p90_ms", p90, "ms", samples);
        self.put("latency_p99_ms", p99, "ms", samples);
        if let Some(p) = tail_percentile(lat.len()) {
            self.note("latency_tail_percentile", format!("{p}"));
            self.put(
                "latency_tail_ms",
                percentile(&lat, p).unwrap_or(0.0),
                "ms",
                samples,
            );
        }
        self.put(
            "cpu_us_per_msg",
            median(slices.iter().map(|s| s.1).collect()),
            "us",
            n,
        );
        let replica_ns: u64 = win.replica_cpu.iter().map(|r| r.total().cpu_ns).sum();
        let client_ns = win.client_cpu_ns;
        let setup_s = sorted(setups.iter().map(Duration::as_secs_f64).collect());
        self.put(
            "setup_s",
            percentile(&setup_s, 0.5).unwrap_or(0.0),
            "s",
            setups.len() as u64,
        );
        let rss = win.replica_rss_kb.iter().copied().max().unwrap_or(0);
        self.put(
            "replica_rss_mb",
            rss as f64 / 1024.0,
            "MB",
            win.replica_rss_kb.len() as u64,
        );
        self.put(
            "error_rate",
            per(o.failed as f64, win.attempted),
            "ratio",
            win.attempted,
        );
        if let Some(gap) = win.unavailable() {
            self.put("unavailable_ms", gap.as_secs_f64() * 1e3, "ms", 1);
        }

        let sum = |f: &dyn Fn(&crate::procfs::RoleCounters) -> u64| -> f64 {
            win.replica_cpu.iter().map(f).sum::<u64>() as f64
        };
        self.put(
            "wbamd.node_thread_us_per_msg",
            per(sum(&|r| r.node.cpu_ns) / 1e3, n),
            "us",
            n,
        );
        self.put(
            "wbamd.poller_thread_us_per_msg",
            per(sum(&|r| r.poller.cpu_ns) / 1e3, n),
            "us",
            n,
        );
        self.put(
            "wbamd.main_thread_us_per_msg",
            per(sum(&|r| r.main.cpu_ns + r.other.cpu_ns) / 1e3, n),
            "us",
            n,
        );
        // The busiest replica of each group is its (acting) leader.
        let mut busiest = [0u64; workload::NUM_GROUPS];
        for (i, r) in win.replica_cpu.iter().enumerate() {
            let g = group_of(i as u32).0 as usize;
            busiest[g] = busiest[g].max(r.total().cpu_ns);
        }
        self.put(
            "wbamd.leader_cpu_share",
            if replica_ns == 0 {
                0.0
            } else {
                busiest.iter().sum::<u64>() as f64 / replica_ns as f64
            },
            "ratio",
            win.replica_cpu.len() as u64,
        );
        self.put(
            "wbamd.wakeups_per_msg",
            per(sum(&|r| r.total().voluntary), n),
            "count",
            n,
        );
        self.put(
            "tcp.segments_per_msg",
            per(win.net.out_segs as f64, n),
            "count",
            n,
        );
        self.put(
            "tcp.wire_bytes_per_msg",
            per(win.net.lo_tx_bytes as f64, n),
            "B",
            n,
        );
        self.put(
            "client.cpu_us_per_msg",
            per(client_ns as f64 / 1e3, n),
            "us",
            n,
        );
        self.put(
            "client.retries_per_msg",
            per(win.retries as f64, win.attempted),
            "count",
            win.attempted,
        );
        let lags = sorted(win.send_lags_ms.clone());
        self.put(
            "client.send_lag_ms",
            percentile(&lags, 0.99).unwrap_or(0.0),
            "ms",
            lags.len() as u64,
        );

        self.note("host_steal_pct", format!("{:.2}", win.host_steal * 100.0));
        self.note("links_after_warmup", links.to_string());
        self.note("log_lines", o.log_lines.to_string());
        self.note("graceful_stops", o.graceful_stops.to_string());
        self.note("dropped_frames", o.dropped_frames.to_string());
        self.note("retries", win.retries.to_string());
        self.note("completed", win.completions.len().to_string());
        if !o.verdict.is_clean() {
            self.problems.push(format!(
                "replica check: {} violations, first: {}",
                o.verdict.violation_count,
                o.verdict.violations.join("; ")
            ));
        }
        if o.warmup_incomplete > 0 {
            self.problems.push(format!(
                "{} warm-up multicasts never completed",
                o.warmup_incomplete
            ));
        }
        if self.workload.kill_at.is_none() {
            if o.dropped_frames > 0 {
                self.problems.push(format!(
                    "fault-free run dropped {} frames",
                    o.dropped_frames
                ));
            }
            if win.retries > 0 {
                self.problems.push(format!(
                    "fault-free run fired {} client retries",
                    win.retries
                ));
            }
        }
    }

    /// Metrics of the traced replay (`plain` is the same replay untraced).
    pub fn traced(&mut self, plain: &Replay, traced: &Replay, codec: &CodecCost) {
        let n = traced.completed;
        let spans: Vec<f64> = traced
            .traces
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.dur_ns as f64 / 1e3))
            .collect();
        let core_us: f64 = spans.iter().sum();
        let events = spans.len() as u64;
        let spans = sorted(spans);
        self.put("core.on_event_us_per_msg", per(core_us, n), "us", n);
        self.put(
            "core.on_event_p99_us",
            percentile(&spans, 0.99).unwrap_or(0.0),
            "us",
            events,
        );
        self.put("core.events_per_msg", per(events as f64, n), "count", n);
        let sends: u64 = traced.traces.iter().map(|t| t.sends).sum();
        self.put("core.sends_per_msg", per(sends as f64, n), "count", n);
        let allocs: u64 = traced.traces.iter().map(|t| t.allocs).sum();
        self.put("core.allocs_per_msg", per(allocs as f64, n), "count", n);
        self.put(
            "codec.encode_ns_per_frame",
            codec.encode_ns_per_frame,
            "ns",
            codec.frames,
        );
        self.put(
            "codec.decode_ns_per_frame",
            codec.decode_ns_per_frame,
            "ns",
            codec.frames,
        );
        self.put("codec.bytes_per_msg", per(codec.bytes as f64, n), "B", n);
        self.put(
            "codec.allocs_per_frame",
            codec.allocs_per_frame,
            "count",
            codec.frames,
        );
        // Node-loop self time: the untraced replay's time in the runtime
        // minus the core's share, measured by the traced twin.
        let plain_us = plain.run_wall.as_secs_f64() * 1e6;
        self.put("loop.us_per_msg", per(plain_us - core_us, n), "us", n);
        let traced_us = traced.run_wall.as_secs_f64() * 1e6;
        self.put(
            "trace.overhead_pct",
            if plain_us > 0.0 {
                (traced_us - plain_us) / plain_us * 100.0
            } else {
                0.0
            },
            "%",
            n,
        );
        self.put("replay.untraced_us_per_msg", per(plain_us, n), "us", n);
        self.put("replay.traced_us_per_msg", per(traced_us, n), "us", n);
        let roots: Vec<f64> = traced
            .traces
            .iter()
            .flat_map(|t| t.roots.values())
            .filter_map(|&(s, e)| Some((e? - s) as f64 / 1e3))
            .collect();
        self.put(
            "replay.multicast_span_us",
            mean(&roots),
            "us",
            roots.len() as u64,
        );
        self.note("replay_digest", format!("{:016x}", traced.digest));

        if plain.digest != traced.digest {
            self.problems.push(format!(
                "tracing changed the replay schedule: digest {:016x} untraced vs {:016x} traced",
                plain.digest, traced.digest
            ));
        }
        for (label, r) in [("untraced", plain), ("traced", traced)] {
            if r.completed != r.ops {
                self.problems.push(format!(
                    "{label} replay completed {} of {} multicasts",
                    r.completed, r.ops
                ));
            }
            if !r.verdict.is_clean() {
                self.problems.push(format!(
                    "{label} replay replica check: {}",
                    r.verdict.violations.join("; ")
                ));
            }
        }
        if codec.mismatches > 0 {
            self.problems.push(format!(
                "{} frames did not decode to what was encoded",
                codec.mismatches
            ));
        }
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The names the result line carries in this mode.
    fn result_names(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .result_names()
            .iter()
            .map(|&(name, unit)| {
                let value = self.metric(name).map_or(0.0, |m| m.value);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record: provenance, configuration, every metric with its
    /// sample count, notes and problems.
    pub fn to_json(&self) -> String {
        let w = &self.workload;
        let pacing = match w.pacing {
            Pacing::Closed { outstanding } => {
                format!("{{\"loop\": \"closed\", \"outstanding\": {outstanding}}}")
            }
            Pacing::Open { rate_per_s } => {
                format!(
                    "{{\"loop\": \"open\", \"rate_per_s\": {}}}",
                    json_num(rate_per_s)
                )
            }
        };
        let mix = match w.dest_mix {
            DestMix::Both => "both groups",
            DestMix::HalfBoth => "half both groups, half one group uniformly",
        };
        let config = format!(
            "{{\"pacing\": {pacing}, \"destinations\": {}, \"payload_bytes\": {}, \
             \"max_batch\": {}, \"batch_delay_ms\": {}, \"kill_group0_leader_at\": {}, \
             \"warmup_ops\": {}, \"replay_ops\": {}, \"setups\": {}, \"deploy_spec\": {}}}",
            json_str(mix),
            w.payload_bytes,
            w.max_batch,
            w.batch_delay_ms,
            w.kill_at.map_or("null".to_string(), json_num),
            workload::WARMUP_OPS,
            w.replay_ops,
            crate::SETUPS,
            self.spec_json
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(&m.unit),
                    m.samples
                )
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        let column = |f: fn(&(f64, f64, f64)) -> f64| -> String {
            let v: Vec<String> = self.slices.iter().map(|s| json_num(f(s))).collect();
            v.join(", ")
        };
        format!(
            "{{\"record\": \"clusterbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"provenance\": {}, \"config\": {config}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"notes\": {{{}}}, \
             \"slices\": {{\"throughput_msg_s\": [{}], \"cpu_us_per_msg\": [{}], \
             \"latency_p50_ms\": [{}]}}, \"problems\": [{}]}}",
            json_str(w.name),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            provenance(self.seed),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            notes.join(", "),
            column(|s| s.0),
            column(|s| s.1),
            column(|s| s.2),
            problems.join(", ")
        )
    }

    /// A human-readable table of every metric.
    pub fn print_table(&self) {
        println!(
            "clusterbench {} seed={} seconds={} trace={}",
            self.workload.name,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        println!(
            "  {:<34} {:>14} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>14.4} {:<6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

/// Git revision and dirty flag (null outside a git checkout), a digest of
/// the sources that were built, date, processor count and kernel.
fn provenance(seed: u64) -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"git_rev\": {}, \"git_dirty\": {}, \"source_digest\": {}, \"date\": {}, \
         \"nproc\": {nproc}, \"kernel\": {}, \"seed\": {seed}}}",
        rev.map_or("null".to_string(), |r| json_str(&r)),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_str(&source_digest()),
        json_str(&utc_now()),
        json_str(&kernel)
    )
}

/// FNV-1a over the path and bytes of every source file that goes into the
/// build (the workspace manifests, `crates/`, `compat/` and this package),
/// in sorted path order: provenance that survives a checkout without git.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    for d in ["crates", "compat", "clusterbench"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Appends one record line to `path`, creating its directory.
pub fn append(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        unit: Option<String>,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    fn benchmark_json() -> BenchmarkJson {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        wbam_types::wire::from_json(&text).expect("BENCHMARK.json parses")
    }

    fn pairs(list: &[Named]) -> Vec<(String, String)> {
        list.iter()
            .map(|n| (n.name.clone(), n.unit.clone().unwrap_or_default()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let b = benchmark_json();
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&b.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&b.per_layer), own(&PER_LAYER));
        let names: Vec<String> = b.workloads.iter().map(|w| w.name.clone()).collect();
        let ours: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_carries_exactly_the_mode_metrics() {
        let w = workload::WORKLOADS[0];
        for trace in [false, true] {
            let mut r = Record::new(&w, 1, 1, trace, "{}");
            r.put("latency_p50_ms", 0.5, "ms", 10);
            r.put("not_listed", 1.0, "ms", 1);
            let line = r.result_line();
            let names = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for (name, unit) in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            }
            assert!(!line.contains("not_listed"));
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        }
    }

    #[test]
    fn utc_dates_are_well_formed() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'));
    }
}
