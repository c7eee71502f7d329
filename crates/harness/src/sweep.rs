//! Parameter sweeps over client counts and destination-group counts.
//!
//! A sweep runs the closed-loop workload of [`crate::workload`] for every
//! combination of protocol, client count and destination-group count in a
//! [`SweepSpec`], producing one [`SweepPoint`] per combination — exactly the
//! data series plotted in Figures 7 (LAN) and 8 (WAN) of the paper.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterSpec, Protocol, ProtocolSim};
use crate::workload::{run_closed_loop, ClosedLoopWorkload, WorkloadResult};

/// Description of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base cluster (latency model, group count, service time); the client
    /// count is overridden per point.
    pub base: ClusterSpec,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Client counts to evaluate.
    pub client_counts: Vec<usize>,
    /// Destination-group counts to evaluate.
    pub dest_group_counts: Vec<usize>,
    /// Workload template (duration, warm-up, payload size).
    pub workload: ClosedLoopWorkload,
}

impl SweepSpec {
    /// The Figure 7 sweep (LAN), scaled down by default to keep simulation
    /// times reasonable; the benchmark binaries pass larger client counts.
    pub fn lan(client_counts: Vec<usize>, dest_group_counts: Vec<usize>) -> Self {
        SweepSpec {
            base: ClusterSpec::lan(0),
            protocols: Protocol::evaluated().to_vec(),
            client_counts,
            dest_group_counts,
            workload: ClosedLoopWorkload {
                duration: Duration::from_millis(500),
                warmup: Duration::from_millis(100),
                ..ClosedLoopWorkload::default()
            },
        }
    }

    /// The Figure 8 sweep (WAN).
    pub fn wan(client_counts: Vec<usize>, dest_group_counts: Vec<usize>) -> Self {
        SweepSpec {
            base: ClusterSpec::wan(0),
            protocols: Protocol::evaluated().to_vec(),
            client_counts,
            dest_group_counts,
            workload: ClosedLoopWorkload {
                duration: Duration::from_secs(4),
                warmup: Duration::from_secs(1),
                ..ClosedLoopWorkload::default()
            },
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Protocol label (as used in the paper's plots).
    pub protocol: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Number of destination groups per multicast.
    pub dest_groups: usize,
    /// Batch-size knob the cluster ran with (1 = unbatched).
    pub max_batch: usize,
    /// Workload results.
    pub result: WorkloadResult,
}

impl SweepPoint {
    /// Mean latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.result.latency.mean.as_secs_f64() * 1e3
    }

    /// Throughput in messages per second.
    pub fn throughput(&self) -> f64 {
        self.result.throughput.messages_per_second
    }

    /// The machine-readable benchmark record for this point, tagged with the
    /// emitting benchmark's name and environment label (e.g. `lan`, `wan`).
    pub fn bench_record(&self, bench: &str, environment: &str) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            environment: environment.to_string(),
            wire: None,
            protocol: self.protocol.clone(),
            max_batch: self.max_batch,
            clients: self.clients,
            dest_groups: self.dest_groups,
            outstanding: None,
            throughput_msg_s: self.throughput(),
            latency_p50_ms: self.result.latency.p50_ms(),
            latency_p99_ms: self.result.latency.p99_ms(),
            latency_mean_ms: self.result.latency.mean_ms(),
        }
    }
}

/// One machine-readable benchmark result, serialised as a single JSON object
/// per line of `BENCH_throughput.json` so that successive runs (and CI jobs)
/// can append without parsing the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Name of the emitting benchmark binary.
    pub bench: String,
    /// Environment label (`lan`, `wan`, ...).
    pub environment: String,
    /// Wire codec the cluster ran with: `"binary"` for deployed benches
    /// (older records may read `"json"`, a retired codec). `None` for
    /// simulated benches, which exchange in-memory values and never hit a
    /// serialiser. Old records without the field parse as `None`.
    pub wire: Option<String>,
    /// Protocol label.
    pub protocol: String,
    /// Batch-size knob (1 = unbatched).
    pub max_batch: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Destination groups per multicast.
    pub dest_groups: usize,
    /// Multicasts each client keeps in flight. `None` for simulated sweeps,
    /// whose clients are closed-loop with one outstanding multicast each.
    /// Old records without the field parse as `None`.
    pub outstanding: Option<u64>,
    /// Delivered messages per second of simulated time.
    pub throughput_msg_s: f64,
    /// Median delivery latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile delivery latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Mean delivery latency in milliseconds.
    pub latency_mean_ms: f64,
}

/// The complete result of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SweepResult {
    /// All measured points.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The distinct protocol labels present in the result.
    pub fn known_labels(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.points.iter().map(|p| p.protocol.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Points for a given protocol and destination-group count, ordered by
    /// client count — one plotted curve of Figure 7/8.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` matches no point at all, or if `dest_groups` was
    /// never swept: either means the calling benchmark queries a curve that
    /// was never measured (a typo or a dropped sweep dimension), and silently
    /// returning an empty series would let it print empty tables.
    pub fn series(&self, protocol: &str, dest_groups: usize) -> Vec<&SweepPoint> {
        assert!(
            self.points.iter().any(|p| p.protocol == protocol),
            "unknown protocol label {protocol:?}: this sweep only measured {:?}",
            self.known_labels()
        );
        assert!(
            self.points.iter().any(|p| p.dest_groups == dest_groups),
            "destination-group count {dest_groups} was never swept: this sweep only measured {:?}",
            {
                let mut v: Vec<usize> = self.points.iter().map(|p| p.dest_groups).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        );
        let mut v: Vec<&SweepPoint> = self
            .points
            .iter()
            .filter(|p| p.protocol == protocol && p.dest_groups == dest_groups)
            .collect();
        v.sort_by_key(|p| p.clients);
        v
    }

    /// Renders the result as an aligned text table (one row per point).
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("protocol   groups  clients    batch  latency_ms   throughput_msg_s\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:<7} {:<10} {:<6} {:<12.3} {:<12.1}\n",
                p.protocol,
                p.dest_groups,
                p.clients,
                p.max_batch,
                p.latency_ms(),
                p.throughput()
            ));
        }
        out
    }

    /// Appends one JSON record per point (JSON-lines format) to `path` —
    /// by convention `BENCH_throughput.json` at the repository root. Returns
    /// the number of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening or writing the file.
    pub fn append_json_records(
        &self,
        path: impl AsRef<std::path::Path>,
        bench: &str,
        environment: &str,
    ) -> std::io::Result<usize> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for p in &self.points {
            let record = p.bench_record(bench, environment);
            let line =
                serde_json::to_string(&record).map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(file, "{line}")?;
        }
        Ok(self.points.len())
    }
}

/// Runs a sweep, one simulation per (protocol, clients, destination groups).
pub fn sweep(spec: &SweepSpec) -> SweepResult {
    let mut result = SweepResult::default();
    for protocol in &spec.protocols {
        for &clients in &spec.client_counts {
            for &dest_groups in &spec.dest_group_counts {
                let mut cluster_spec = spec.base.clone();
                cluster_spec.num_clients = clients;
                let mut sim = ProtocolSim::build(*protocol, &cluster_spec);
                let workload = ClosedLoopWorkload {
                    dest_groups,
                    ..spec.workload.clone()
                };
                let run = run_closed_loop(&mut sim, &workload);
                result.points.push(SweepPoint {
                    protocol: protocol.label().to_string(),
                    clients,
                    dest_groups,
                    max_batch: spec.base.max_batch,
                    result: run,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_simnet::LatencyModel;

    #[test]
    fn small_lan_sweep_orders_protocols_correctly() {
        // A deliberately tiny sweep so the test stays fast: 3 groups, few
        // clients, short run. The qualitative result of Figure 7 — WbCast has
        // lower latency than FastCast and FT-Skeen — must already show.
        let mut spec = SweepSpec::lan(vec![4], vec![2]);
        spec.base.num_groups = 3;
        spec.base.latency = LatencyModel::constant(Duration::from_millis(1));
        spec.workload.duration = Duration::from_millis(300);
        spec.workload.warmup = Duration::from_millis(50);
        let result = sweep(&spec);
        assert_eq!(result.points.len(), 3);
        let latency_of = |label: &str| {
            result
                .series(label, 2)
                .first()
                .map(|p| p.latency_ms())
                .unwrap()
        };
        let wb = latency_of("WbCast");
        let fc = latency_of("FastCast");
        let fts = latency_of("Skeen");
        assert!(
            wb < fc,
            "WbCast ({wb:.2} ms) must beat FastCast ({fc:.2} ms)"
        );
        assert!(
            fc < fts,
            "FastCast ({fc:.2} ms) must beat FT-Skeen ({fts:.2} ms)"
        );
        let table = result.to_table();
        assert!(table.contains("WbCast"));
        assert!(table.lines().count() >= 4);
    }

    fn tiny_result() -> SweepResult {
        let mut spec = SweepSpec::lan(vec![2], vec![1]);
        spec.base.num_groups = 2;
        spec.base.latency = LatencyModel::constant(Duration::from_millis(1));
        spec.protocols = vec![crate::cluster::Protocol::WhiteBox];
        spec.workload.duration = Duration::from_millis(100);
        spec.workload.warmup = Duration::from_millis(20);
        sweep(&spec)
    }

    #[test]
    #[should_panic(expected = "unknown protocol label")]
    fn series_rejects_unknown_protocol_labels() {
        // Guards against bench binaries printing empty tables because of a
        // typo'd or never-swept label.
        let result = tiny_result();
        let _ = result.series("WbCsat", 1);
    }

    #[test]
    #[should_panic(expected = "never swept")]
    fn series_rejects_unswept_destination_group_counts() {
        let result = tiny_result();
        let _ = result.series("WbCast", 3);
    }

    #[test]
    fn json_records_round_trip_and_append() {
        let result = tiny_result();
        assert_eq!(result.points.len(), 1);
        let record = result.points[0].bench_record("unit_test", "lan");
        assert_eq!(record.protocol, "WbCast");
        assert_eq!(record.max_batch, 1);
        assert!(record.throughput_msg_s > 0.0);
        let json = serde_json::to_string(&record).unwrap();
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);

        // Records written before the `wire` and `outstanding` fields existed
        // must keep parsing (the fields are absent in BENCH_*.json lines from
        // earlier runs).
        let legacy =
            json.replacen("\"wire\":null,", "", 1)
                .replacen("\"outstanding\":null,", "", 1);
        assert!(
            !legacy.contains("wire") && !legacy.contains("outstanding"),
            "expected to strip the wire and outstanding fields"
        );
        let old: BenchRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.wire, None);
        assert_eq!(old.outstanding, None);
        assert_eq!(old, record);

        let path =
            std::env::temp_dir().join(format!("wbam_bench_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            result
                .append_json_records(&path, "unit_test", "lan")
                .unwrap(),
            1
        );
        assert_eq!(
            result
                .append_json_records(&path, "unit_test", "lan")
                .unwrap(),
            1
        );
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            contents.lines().count(),
            2,
            "records must append, not overwrite"
        );
        for line in contents.lines() {
            let rec: BenchRecord = serde_json::from_str(line).unwrap();
            assert_eq!(rec.bench, "unit_test");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batched_sweep_points_carry_the_knob() {
        let mut spec = SweepSpec::lan(vec![4], vec![1]);
        spec.base.num_groups = 2;
        spec.base = spec.base.with_batching(8, Duration::from_micros(200));
        spec.base.latency = LatencyModel::constant(Duration::from_millis(1));
        spec.protocols = vec![crate::cluster::Protocol::WhiteBox];
        spec.workload.duration = Duration::from_millis(200);
        spec.workload.warmup = Duration::from_millis(40);
        let result = sweep(&spec);
        assert_eq!(result.points[0].max_batch, 8);
        assert!(
            result.points[0].result.latency.count > 0,
            "batched runs must still deliver"
        );
    }
}
