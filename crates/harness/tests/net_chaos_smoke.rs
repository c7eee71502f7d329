//! Bounded seeded chaos smoke: one full `run_net_token` pass — a live
//! 2-group × 3-replica `wbamd` cluster behind the nemesis proxy, with link
//! drops, a partition/heal, a SIGKILL/redeploy and a small workload — must
//! come out clean: Figure 6 agreement and the linearizability oracle over
//! the drained delivery logs, graceful SIGTERM stop of every replica, and a
//! plan digest that replays byte-for-byte. The CI `net-chaos` job runs wider
//! sweeps; this keeps the driver itself inside tier-1.

use std::path::PathBuf;

use wbam_harness::chaos::generate_net_plan;
use wbam_harness::{run_net_token, NetChaosConfig, SeedToken, TokenVersion};

#[test]
fn seeded_chaos_run_passes_all_checks_and_replays_its_plan() {
    let token = SeedToken::parse(
        "WBAM_NET_SEED=n1:WbCast:000000000000002a",
        &[TokenVersion::N1],
    )
    .expect("token");
    let config = NetChaosConfig {
        messages: Some(10),
        wbamd: Some(PathBuf::from(env!("CARGO_BIN_EXE_wbamd"))),
        ..NetChaosConfig::default()
    };
    let report = run_net_token(&token, &config).expect("cluster came up");
    assert_eq!(
        report.violation,
        None,
        "chaos run failed (logs kept in {}): {:?}",
        report.log_dir.display(),
        report.violation
    );
    assert_eq!(report.completed, report.ops, "not every op completed");
    assert!(report.delivery_lines > 0, "no deliveries drained");
    assert!(
        report.proxy.dropped > 0,
        "the plan's link drops never fired"
    );

    // Replayability: the derived plan is a pure function of the token.
    assert_eq!(
        generate_net_plan(&token, config.messages).digest(),
        report.plan_digest,
        "plan derivation is not deterministic"
    );
}
