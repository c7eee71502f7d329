//! Replica-judged correctness: what every replica delivered, checked against
//! what the client submitted and saw complete.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use wbam_types::{GroupId, MsgId, Timestamp};

/// A global timestamp as `(time, group)`: the protocol's total order on
/// proper timestamps is lexicographic on this pair.
pub type Gts = (u64, u32);

/// A delivery's global timestamp as [`Gts`], with the `wbamd` delivery-log
/// convention for a missing one: time 0, group `u32::MAX`.
pub fn gts_of(ts: Option<Timestamp>) -> Gts {
    ts.map_or((0, u32::MAX), |t| {
        (t.time(), t.group().map_or(u32::MAX, |g| g.0))
    })
}

/// One multicast the client submitted.
#[derive(Debug, Clone)]
pub struct Submitted {
    pub dest: Vec<GroupId>,
    /// The timestamp the client's completion carried; `None` if it never
    /// completed.
    pub completed_gts: Option<Gts>,
}

/// The outcome of judging one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Human-readable violations (capped; `violation_count` has the total).
    pub violations: Vec<String>,
    pub violation_count: usize,
    /// Messages named by some violation.
    pub bad: BTreeSet<MsgId>,
}

impl Verdict {
    fn flag(&mut self, msg: MsgId, what: String) {
        self.violation_count += 1;
        self.bad.insert(msg);
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

/// Checks every replica's delivery log (`replica id → [(msg, gts)]` in
/// delivery order) against the submitted multicasts:
///
/// * a replica delivers only messages that were submitted and addressed to
///   its group, each at most once;
/// * each replica delivers in strictly increasing gts order (the total
///   order of Figure 6);
/// * all replicas, and the client's completion, agree on each message's gts;
/// * every completed multicast is delivered by every replica of its
///   destination groups, except replicas in `crashed` (whose logs are still
///   checked for the properties above).
pub fn judge(
    submitted: &BTreeMap<MsgId, Submitted>,
    logs: &BTreeMap<u32, Vec<(MsgId, Gts)>>,
    group_of: impl Fn(u32) -> GroupId,
    crashed: &BTreeSet<u32>,
) -> Verdict {
    let mut v = Verdict::default();
    let mut agreed: HashMap<MsgId, Gts> = HashMap::new();
    let mut delivered: BTreeMap<u32, HashSet<MsgId>> = BTreeMap::new();
    for (&replica, log) in logs {
        let group = group_of(replica);
        let seen = delivered.entry(replica).or_default();
        let mut last: Option<Gts> = None;
        for &(msg, gts) in log {
            match submitted.get(&msg) {
                None => v.flag(
                    msg,
                    format!("p{replica} delivered {msg:?}, never submitted"),
                ),
                Some(s) if !s.dest.contains(&group) => v.flag(
                    msg,
                    format!(
                        "p{replica} of {group:?} delivered {msg:?} addressed to {:?}",
                        s.dest
                    ),
                ),
                Some(_) => {}
            }
            if !seen.insert(msg) {
                v.flag(msg, format!("p{replica} delivered {msg:?} twice"));
            }
            if last.is_some_and(|l| gts <= l) {
                v.flag(
                    msg,
                    format!("p{replica} delivered {msg:?} at gts {gts:?} after gts {last:?}"),
                );
            }
            last = Some(gts);
            match agreed.get(&msg) {
                Some(&g) if g != gts => v.flag(
                    msg,
                    format!(
                        "p{replica} delivered {msg:?} at gts {gts:?}, another replica at {g:?}"
                    ),
                ),
                Some(_) => {}
                None => {
                    agreed.insert(msg, gts);
                }
            }
        }
    }
    for (&msg, s) in submitted {
        let Some(client_gts) = s.completed_gts else {
            continue;
        };
        if let Some(&g) = agreed.get(&msg) {
            if g != client_gts {
                v.flag(
                    msg,
                    format!("client completed {msg:?} at gts {client_gts:?}, replicas at {g:?}"),
                );
            }
        }
        for (&replica, seen) in &delivered {
            if crashed.contains(&replica) || !s.dest.contains(&group_of(replica)) {
                continue;
            }
            if !seen.contains(&msg) {
                v.flag(msg, format!("p{replica} never delivered completed {msg:?}"));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::ProcessId;

    fn m(seq: u64) -> MsgId {
        MsgId::new(ProcessId(6), seq)
    }

    fn group_of(p: u32) -> GroupId {
        GroupId(p / 3)
    }

    fn both(gts: Option<Gts>) -> Submitted {
        Submitted {
            dest: vec![GroupId(0), GroupId(1)],
            completed_gts: gts,
        }
    }

    fn clean_logs() -> BTreeMap<u32, Vec<(MsgId, Gts)>> {
        (0..6)
            .map(|p| (p, vec![(m(0), (1, 0)), (m(1), (2, 1))]))
            .collect()
    }

    fn submitted() -> BTreeMap<MsgId, Submitted> {
        BTreeMap::from([(m(0), both(Some((1, 0)))), (m(1), both(Some((2, 1))))])
    }

    #[test]
    fn agreeing_complete_logs_pass() {
        let v = judge(&submitted(), &clean_logs(), group_of, &BTreeSet::new());
        assert!(v.is_clean(), "{:?}", v.violations);
    }

    #[test]
    fn each_violation_is_caught() {
        let subs = submitted();
        let none = BTreeSet::new();

        let mut logs = clean_logs();
        logs.get_mut(&4).unwrap().pop(); // p4 misses m1
        let v = judge(&subs, &logs, group_of, &none);
        assert_eq!(v.bad, BTreeSet::from([m(1)]));
        // ... unless p4 crashed.
        assert!(judge(&subs, &logs, group_of, &BTreeSet::from([4])).is_clean());

        let mut logs = clean_logs();
        logs.get_mut(&2).unwrap().swap(0, 1); // p2 out of gts order
        assert!(!judge(&subs, &logs, group_of, &none).is_clean());

        let mut logs = clean_logs();
        logs.get_mut(&3).unwrap()[1].1 = (3, 1); // p3 disagrees on m1's gts
        assert!(!judge(&subs, &logs, group_of, &none).is_clean());

        let mut logs = clean_logs();
        logs.get_mut(&1).unwrap().push((m(1), (2, 1))); // duplicate
        assert!(!judge(&subs, &logs, group_of, &none).is_clean());

        let mut logs = clean_logs();
        logs.get_mut(&0).unwrap().push((m(9), (5, 0))); // never submitted
        assert!(!judge(&subs, &logs, group_of, &none).is_clean());

        let mut subs1 = submitted();
        subs1.get_mut(&m(1)).unwrap().dest = vec![GroupId(1)]; // g0 must not deliver it
        assert!(!judge(&subs1, &clean_logs(), group_of, &none).is_clean());

        let mut subs2 = submitted();
        subs2.get_mut(&m(0)).unwrap().completed_gts = Some((7, 0)); // client disagrees
        assert!(!judge(&subs2, &clean_logs(), group_of, &none).is_clean());
    }

    #[test]
    fn uncompleted_messages_need_not_be_delivered() {
        let mut subs = submitted();
        subs.insert(m(2), both(None));
        assert!(judge(&subs, &clean_logs(), group_of, &BTreeSet::new()).is_clean());
    }
}
