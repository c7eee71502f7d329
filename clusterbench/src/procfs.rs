//! OS accounting read from `/proc`: per-thread CPU and context switches of
//! the `wbamd` processes, their peak RSS, and the network namespace's TCP
//! segment and loopback byte counters. The parsers take text so they can be
//! tested on fixtures.

use std::collections::BTreeSet;

/// CPU time (ns) and voluntary context switches of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    pub cpu_ns: u64,
    pub voluntary: u64,
}

impl ThreadCounters {
    fn add(&mut self, other: ThreadCounters) {
        self.cpu_ns += other.cpu_ns;
        self.voluntary += other.voluntary;
    }

    /// Growth since `earlier`; a counter that went backwards (a thread that
    /// is gone) counts as no growth.
    pub fn since(self, earlier: ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
        }
    }
}

/// A `wbamd` process split by thread role. `TcpNode::spawn` starts the
/// poller thread before the node thread, and `wbamd --stdin-stop` starts its
/// stdin watcher before both, so among the non-main threads in ascending tid
/// order the last two are the poller and then the node thread; anything
/// earlier is `other`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCounters {
    pub main: ThreadCounters,
    pub poller: ThreadCounters,
    pub node: ThreadCounters,
    pub other: ThreadCounters,
}

impl RoleCounters {
    pub fn total(&self) -> ThreadCounters {
        let mut t = self.main;
        t.add(self.poller);
        t.add(self.node);
        t.add(self.other);
        t
    }

    pub fn since(self, earlier: RoleCounters) -> RoleCounters {
        RoleCounters {
            main: self.main.since(earlier.main),
            poller: self.poller.since(earlier.poller),
            node: self.node.since(earlier.node),
            other: self.other.since(earlier.other),
        }
    }
}

/// Assigns roles to `(tid, counters)` pairs of process `pid`.
pub fn assign_roles(pid: u32, mut threads: Vec<(u32, ThreadCounters)>) -> RoleCounters {
    threads.sort_by_key(|&(tid, _)| tid);
    let mut roles = RoleCounters::default();
    let workers: Vec<ThreadCounters> = threads
        .iter()
        .filter(|&&(tid, _)| tid != pid)
        .map(|&(_, c)| c)
        .collect();
    if let Some(&(_, main)) = threads.iter().find(|&&(tid, _)| tid == pid) {
        roles.main = main;
    }
    let n = workers.len();
    for (i, c) in workers.into_iter().enumerate() {
        if i + 2 == n {
            roles.poller = c;
        } else if i + 1 == n {
            roles.node = c;
        } else {
            roles.other.add(c);
        }
    }
    roles
}

/// First field of `/proc/<pid>/task/<tid>/schedstat`: time on CPU in ns.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` (clock ticks) from a `stat` line; the command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A numeric `Key:  value [kB]` field of a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() == key {
            v.split_whitespace().next()?.parse().ok()
        } else {
            None
        }
    })
}

/// `Tcp: OutSegs` from `/proc/net/snmp` (a header line names the columns of
/// the value line that follows it).
pub fn parse_snmp_out_segs(text: &str) -> Option<u64> {
    let mut lines = text.lines().filter(|l| l.starts_with("Tcp:"));
    let header: Vec<&str> = lines.next()?.split_whitespace().collect();
    let values: Vec<&str> = lines.next()?.split_whitespace().collect();
    let col = header.iter().position(|&h| h == "OutSegs")?;
    values.get(col)?.parse().ok()
}

/// Transmitted bytes of interface `iface` from `/proc/net/dev`.
pub fn parse_net_dev_tx_bytes(text: &str, iface: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        if name.trim() != iface {
            return None;
        }
        // 8 receive columns, then transmit bytes.
        rest.split_whitespace().nth(8)?.parse().ok()
    })
}

/// Local ports in state LISTEN (`0A`) in `/proc/net/tcp`.
pub fn parse_listening_ports(text: &str) -> BTreeSet<u16> {
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let local = fields.get(1)?;
            if *fields.get(3)? != "0A" {
                return None;
            }
            u16::from_str_radix(local.rsplit(':').next()?, 16).ok()
        })
        .collect()
}

/// Established (`01`) connections in `/proc/net/tcp` whose remote port is
/// one of `ports`: the dialled links of a cluster listening on those ports.
pub fn count_established_to(text: &str, ports: &BTreeSet<u16>) -> usize {
    text.lines()
        .skip(1)
        .filter(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (Some(remote), Some(state)) = (fields.get(2), fields.get(3)) else {
                return false;
            };
            *state == "01"
                && remote
                    .rsplit(':')
                    .next()
                    .and_then(|p| u16::from_str_radix(p, 16).ok())
                    .is_some_and(|p| ports.contains(&p))
        })
        .count()
}

/// Total and stolen time of all CPUs, from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn since(self, earlier: HostCpu) -> HostCpu {
        HostCpu {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    pub fn steal_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}

/// The aggregate `cpu` line of `/proc/stat`: user nice system idle iowait
/// irq softirq steal guest guest_nice (guest time is already in user).
pub fn parse_host_cpu(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(HostCpu {
        total: fields.iter().take(8).sum(),
        steal: *fields.get(7)?,
    })
}

pub fn host_cpu() -> HostCpu {
    read("/proc/stat")
        .and_then(|t| parse_host_cpu(&t))
        .unwrap_or_default()
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU ns of one thread: `schedstat`, or clock ticks from `stat` (USER_HZ =
/// 100) on a kernel without schedstat. `None` once the thread has exited.
fn thread_cpu_ns(pid: u32, tid: u32) -> Option<u64> {
    let base = format!("/proc/{pid}/task/{tid}");
    match read(&format!("{base}/schedstat")).and_then(|t| parse_schedstat(&t)) {
        Some(ns) => Some(ns),
        None => Some(parse_stat_ticks(&read(&format!("{base}/stat"))?)? * 10_000_000),
    }
}

/// Counters of one thread, or `None` when it has exited.
fn thread_counters(pid: u32, tid: u32) -> Option<ThreadCounters> {
    let cpu_ns = thread_cpu_ns(pid, tid)?;
    let status = read(&format!("/proc/{pid}/task/{tid}/status"))?;
    let voluntary = parse_status_field(&status, "voluntary_ctxt_switches")?;
    Some(ThreadCounters { cpu_ns, voluntary })
}

/// Thread ids of `pid`; `None` once the process is gone.
fn tids(pid: u32) -> Option<Vec<u32>> {
    let dir = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    Some(
        dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect(),
    )
}

/// Every live thread of `pid` with its counters.
pub fn threads_of(pid: u32) -> Vec<(u32, ThreadCounters)> {
    tids(pid)
        .unwrap_or_default()
        .into_iter()
        .filter_map(|tid| Some((tid, thread_counters(pid, tid)?)))
        .collect()
}

/// CPU ns of every live thread of `pid` (the cheap read taken at every
/// slice boundary); `None` once the process is gone.
pub fn cpu_ns_of(pid: u32) -> Option<u64> {
    Some(
        tids(pid)?
            .into_iter()
            .filter_map(|tid| thread_cpu_ns(pid, tid))
            .sum(),
    )
}

/// Role-split counters of a `wbamd` process.
pub fn roles_of(pid: u32) -> RoleCounters {
    assign_roles(pid, threads_of(pid))
}

/// Peak resident set (`VmHWM`) of `pid` in kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    parse_status_field(&read(&format!("/proc/{pid}/status"))?, "VmHWM")
}

/// Network-namespace counters: TCP segments sent and loopback bytes sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub out_segs: u64,
    pub lo_tx_bytes: u64,
}

pub fn net_counters() -> NetCounters {
    NetCounters {
        out_segs: read("/proc/net/snmp")
            .and_then(|t| parse_snmp_out_segs(&t))
            .unwrap_or(0),
        lo_tx_bytes: read("/proc/net/dev")
            .and_then(|t| parse_net_dev_tx_bytes(&t, "lo"))
            .unwrap_or(0),
    }
}

/// The contents of `/proc/net/tcp` (empty when unreadable).
pub fn net_tcp() -> String {
    read("/proc/net/tcp").unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (wbamd (x) y) S 1 4242 4242 0 -1 4194560 301 0 0 0 \
                        123 45 0 0 20 0 3 0 98765 12345678 900 18446744073709551615";

    #[test]
    fn stat_ticks_skip_a_command_with_spaces_and_parens() {
        assert_eq!(parse_stat_ticks(STAT), Some(168));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(
            parse_schedstat("531725251 15399280 52\n"),
            Some(531_725_251)
        );
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\twbamd\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n\
                      voluntary_ctxt_switches:\t77\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(5120));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(77)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(status, "Missing"), None);
    }

    #[test]
    fn snmp_out_segs_by_column_name() {
        let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                    Tcp: RtoAlgorithm RtoMin RtoMax MaxConn ActiveOpens PassiveOpens AttemptFails \
                    EstabResets CurrEstab InSegs OutSegs RetransSegs InErrs OutRsts InCsumErrors\n\
                    Tcp: 1 200 120000 -1 10519 1855 8660 483 2 5438722 5395411 43485 0 9338 0\n\
                    Udp: InDatagrams\nUdp: 5\n";
        assert_eq!(parse_snmp_out_segs(snmp), Some(5_395_411));
        assert_eq!(parse_snmp_out_segs("Ip: a\nIp: 1\n"), None);
    }

    #[test]
    fn net_dev_tx_bytes_of_loopback() {
        let dev = "Inter-|   Receive                                                |  Transmit\n \
                   face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets\n    \
                   lo: 73294093050 5438753    0    0    0     0          0         0 73294093051 5438753    0    0    0     0       0          0\n  \
                   eth0: 1 2 0 0 0 0 0 0 3 4 0 0 0 0 0 0\n";
        assert_eq!(parse_net_dev_tx_bytes(dev, "lo"), Some(73_294_093_051));
        assert_eq!(parse_net_dev_tx_bytes(dev, "eth0"), Some(3));
        assert_eq!(parse_net_dev_tx_bytes(dev, "wlan0"), None);
    }

    #[test]
    fn net_tcp_listeners_and_established_links() {
        let tcp = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode\n   \
                   0: 0100007F:4E20 00000000:0000 0A 00000000:00000000 00:00000000 00000000 0 0 808 1\n   \
                   1: 0100007F:4E21 00000000:0000 0A 00000000:00000000 00:00000000 00000000 0 0 809 1\n   \
                   2: 0100007F:9C40 0100007F:4E20 01 00000000:00000000 00:00000000 00000000 0 0 810 1\n   \
                   3: 0100007F:4E20 0100007F:9C40 01 00000000:00000000 00:00000000 00000000 0 0 811 1\n   \
                   4: 0100007F:9C41 0100007F:4E21 06 00000000:00000000 00:00000000 00000000 0 0 0 1\n";
        let listening = parse_listening_ports(tcp);
        assert_eq!(listening, BTreeSet::from([0x4E20, 0x4E21]));
        // Only line 2 is an established connection *to* a cluster port.
        assert_eq!(count_established_to(tcp, &listening), 1);
    }

    #[test]
    fn host_cpu_steal_share() {
        let stat = "cpu  380015 0 44940 565821 822 0 5340 18397 0 0\n\
                    cpu0 204150 0 22940 257635 754 0 2483 7708 0 0\nintr 1 2\n";
        let h = parse_host_cpu(stat).unwrap();
        assert_eq!(
            h,
            HostCpu {
                total: 1_015_335,
                steal: 18_397
            }
        );
        let later = HostCpu {
            total: 1_015_335 + 1000,
            steal: 18_397 + 50,
        };
        assert_eq!(later.since(h).steal_share(), 0.05);
        assert_eq!(parse_host_cpu("intr 1\n"), None);
    }

    #[test]
    fn roles_follow_thread_creation_order() {
        let c = |ns| ThreadCounters {
            cpu_ns: ns,
            voluntary: ns / 10,
        };
        // main 100, stdin watcher 101, poller 102, node 103 (any input order).
        let roles = assign_roles(
            100,
            vec![(103, c(30)), (100, c(10)), (102, c(20)), (101, c(1))],
        );
        assert_eq!(roles.main, c(10));
        assert_eq!(roles.poller, c(20));
        assert_eq!(roles.node, c(30));
        assert_eq!(roles.other, c(1));
        assert_eq!(roles.total().cpu_ns, 61);
        // Without the watcher thread.
        let roles = assign_roles(100, vec![(100, c(10)), (102, c(20)), (103, c(30))]);
        assert_eq!(
            (roles.poller, roles.node, roles.other),
            (c(20), c(30), c(0))
        );
        let later = assign_roles(100, vec![(100, c(15)), (102, c(26)), (103, c(30))]);
        assert_eq!(later.since(roles).poller.cpu_ns, 6);
    }
}
