//! The four workloads and the seeded generator that turns a seed into the
//! destinations and payloads the cluster sees.

use std::time::Duration;

use wbam_types::GroupId;

/// Groups in the benchmark cluster.
pub const NUM_GROUPS: usize = 2;
/// Replicas per group (`2f + 1`, f = 1).
pub const GROUP_SIZE: usize = 3;
/// Replica processes.
pub const REPLICAS: usize = NUM_GROUPS * GROUP_SIZE;
/// Multicasts run before every measured window, all to both groups so every
/// leader-to-member and member-to-leader link is dialled before timing.
pub const WARMUP_OPS: u64 = 64;
/// Warm-up multicasts kept outstanding (closed loop, every workload). Deep,
/// so warm-up takes few protocol rounds (and few batch-timer waits) and
/// `setup_s` is mostly process start-up and dialling.
pub const WARMUP_OUTSTANDING: u64 = 32;

/// How the generator paces submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Keep this many multicasts outstanding; the next one goes out when one
    /// completes.
    Closed { outstanding: usize },
    /// Submit on a fixed schedule regardless of completions.
    Open { rate_per_s: f64 },
}

/// Which groups a multicast goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestMix {
    /// Every multicast to both groups.
    Both,
    /// Half to both groups, half to one group chosen uniformly.
    HalfBoth,
}

/// One workload: the load shape plus the cluster configuration it needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub pacing: Pacing,
    pub dest_mix: DestMix,
    pub payload_bytes: usize,
    pub max_batch: usize,
    pub batch_delay_ms: u64,
    /// Share of the measured window after which the group-0 leader is
    /// SIGKILLed (it stays down); `None` for fault-free workloads.
    pub kill_at: Option<f64>,
    /// Multicasts the traced in-process replay runs.
    pub replay_ops: u64,
}

/// Failure-detector and compaction settings shared by every workload.
pub const HEARTBEAT_MS: u64 = 50;
pub const ELECTION_TIMEOUT_MS: u64 = 500;
pub const RETRY_TIMEOUT_MS: u64 = 500;
pub const COMPACTION_INTERVAL: u64 = 50;
pub const COMPACTION_LAG: usize = 100;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fastpath",
        pacing: Pacing::Closed { outstanding: 1 },
        dest_mix: DestMix::Both,
        payload_bytes: 20,
        max_batch: 1,
        batch_delay_ms: 0,
        kill_at: None,
        replay_ops: 1500,
    },
    Workload {
        name: "contended",
        pacing: Pacing::Closed { outstanding: 64 },
        dest_mix: DestMix::HalfBoth,
        payload_bytes: 20,
        max_batch: 1,
        batch_delay_ms: 0,
        kill_at: None,
        replay_ops: 3000,
    },
    Workload {
        name: "bulk",
        pacing: Pacing::Closed { outstanding: 64 },
        dest_mix: DestMix::HalfBoth,
        payload_bytes: 2048,
        max_batch: 128,
        batch_delay_ms: 1,
        kill_at: None,
        replay_ops: 3000,
    },
    Workload {
        name: "failover",
        pacing: Pacing::Open { rate_per_s: 200.0 },
        dest_mix: DestMix::Both,
        payload_bytes: 20,
        max_batch: 1,
        batch_delay_ms: 0,
        kill_at: Some(0.3),
        replay_ops: 2000,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Interval between scheduled submissions of an open-loop workload.
    pub fn open_period(&self) -> Option<Duration> {
        match self.pacing {
            Pacing::Open { rate_per_s } => Some(Duration::from_secs_f64(1.0 / rate_per_s)),
            Pacing::Closed { .. } => None,
        }
    }
}

/// One generated multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Destination groups, ascending.
    pub dest: Vec<GroupId>,
    pub payload: Vec<u8>,
}

/// splitmix64: the generator's only randomness, kept here so the op stream
/// for a seed does not change when the repository's RNG shims do.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th multicast of the op stream for `seed`. Each op depends only
/// on (seed, workload, index), so a run consumes a prefix of one fixed list
/// however many ops its window completes. Warm-up ops use `warmup = true`,
/// which forces both groups so every link is dialled.
pub fn op(seed: u64, workload: &Workload, index: u64, warmup: bool) -> Op {
    let salt = if warmup { 0x5741_524D } else { 0 };
    let mut state = seed ^ salt ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let roll = splitmix64(&mut state);
    let dest = if warmup || workload.dest_mix == DestMix::Both || roll.is_multiple_of(2) {
        (0..NUM_GROUPS as u32).map(GroupId).collect()
    } else {
        vec![GroupId(((roll >> 1) % NUM_GROUPS as u64) as u32)]
    };
    let mut payload = Vec::with_capacity(workload.payload_bytes);
    while payload.len() < workload.payload_bytes {
        let word = splitmix64(&mut state).to_le_bytes();
        let take = (workload.payload_bytes - payload.len()).min(8);
        payload.extend_from_slice(&word[..take]);
    }
    Op { dest, payload }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, w: &Workload, n: u64) -> Vec<Op> {
        (0..n).map(|i| op(seed, w, i, false)).collect()
    }

    #[test]
    fn same_seed_gives_identical_ops_and_different_seed_differs() {
        for w in &WORKLOADS {
            assert_eq!(ops(7, w, 200), ops(7, w, 200), "{}", w.name);
            assert_ne!(ops(7, w, 200), ops(8, w, 200), "{}", w.name);
        }
    }

    #[test]
    fn ops_follow_the_workload_shape() {
        let contended = Workload::by_name("contended").unwrap();
        let list = ops(3, &contended, 4000);
        let both = list.iter().filter(|o| o.dest.len() == 2).count();
        let g0 = list.iter().filter(|o| o.dest == [GroupId(0)]).count();
        // Half to both groups, the rest split evenly: loose 5% bands.
        assert!((1800..2200).contains(&both), "both = {both}");
        assert!((900..1100).contains(&g0), "g0 = {g0}");
        assert!(list.iter().all(|o| o.payload.len() == 20));

        let bulk = Workload::by_name("bulk").unwrap();
        assert!(ops(3, &bulk, 10).iter().all(|o| o.payload.len() == 2048));
        for name in ["fastpath", "failover"] {
            let w = Workload::by_name(name).unwrap();
            assert!(ops(3, &w, 100).iter().all(|o| o.dest.len() == 2));
        }
        // Warm-up ops always reach both groups.
        assert!((0..100).all(|i| op(3, &contended, i, true).dest.len() == 2));
    }
}
