//! Replays the deterministic-runtime regression corpus
//! (`tests/regressions/rt_corpus.tokens`) and property-tests the runtime
//! explorer's determinism contract.
//!
//! Every failing token in the corpus once reproduced a real bug in the
//! *deployed* node event loop — the same `run_node` loop the TCP transport
//! drives, stepped under a virtual clock by `DeterministicRuntime` (see the
//! comments in the corpus file). Replaying them on every test run keeps
//! those bugs fixed at the layer they were found.

use proptest::prelude::*;
use wbam::harness::rt::{generate_rt_plan, run_rt_artifacts};
use wbam::harness::{run_token, Engine, Protocol, RtEngine, SeedToken, TokenVersion};

/// The corpus file's tokens.
fn corpus() -> Vec<SeedToken> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions/rt_corpus.tokens"
    );
    let text = std::fs::read_to_string(path).expect("corpus file exists");
    SeedToken::parse_corpus(&text, RtEngine::REPLAYS).expect("corpus tokens parse")
}

#[test]
fn rt_regression_corpus_replays_clean() {
    let tokens = corpus();
    assert!(!tokens.is_empty(), "corpus must not be empty");
    let mut failures = Vec::new();
    for token in &tokens {
        let report = run_token::<RtEngine>(token);
        if let Some(violation) = report.violation {
            failures.push(format!("{token}: {violation}"));
        }
        if report.completed != report.ops {
            failures.push(format!(
                "{token}: only {} of {} operations completed",
                report.completed, report.ops
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "previously fixed deployed-loop bugs reappeared:\n{}",
        failures.join("\n")
    );
}

/// The acceptance contract of `rt1` tokens: re-running a token reproduces
/// the identical interleaving byte for byte — equal digests over every
/// delivery record *and* the scheduler's decision trace.
#[test]
fn rt_corpus_tokens_replay_byte_for_byte() {
    // One token per protocol is enough to pin the determinism contract; the
    // clean-replay test above already runs every token once.
    let mut seen = std::collections::BTreeSet::new();
    for token in corpus() {
        if !seen.insert(token.protocol.label()) {
            continue;
        }
        let plan = generate_rt_plan(&token);
        let first = run_rt_artifacts(&token, &plan);
        let second = run_rt_artifacts(&token, &plan);
        assert_eq!(
            first.report.digest, second.report.digest,
            "{token} did not replay deterministically"
        );
        assert_eq!(first.trace_digest, second.trace_digest);
        assert_eq!(first.deliveries, second.deliveries);
        assert_eq!(first.report.completed, second.report.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Twin-run determinism over arbitrary seeds and every protocol: two
    /// runs of the same `rt1` token — crashes, elections, retries and all —
    /// must produce element-wise identical delivery records and identical
    /// scheduler traces. This is deliberately *not* a cleanliness check
    /// (the sweep in CI covers that); determinism must hold even for a
    /// hypothetical future failing seed, or its token would be unreplayable.
    #[test]
    fn rt_tokens_are_deterministic(seed in 0u64..u64::MAX, proto in 0usize..3) {
        let token = SeedToken {
            version: TokenVersion::Rt1,
            protocol: Protocol::evaluated()[proto],
            seed,
        };
        let plan = generate_rt_plan(&token);
        let first = run_rt_artifacts(&token, &plan);
        let second = run_rt_artifacts(&token, &plan);
        prop_assert_eq!(first.report.digest, second.report.digest);
        prop_assert_eq!(first.trace_digest, second.trace_digest);
        prop_assert_eq!(&first.deliveries, &second.deliveries);
        prop_assert_eq!(first.report.violation, second.report.violation);
    }
}
