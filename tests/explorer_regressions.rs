//! Replays the explorer regression corpus (`tests/regressions/corpus.tokens`)
//! and checks the explorer's own determinism contract.
//!
//! Every token in the corpus once reproduced a real bug (see the comments in
//! the corpus file); replaying them on every test run keeps those bugs fixed.

use wbam_harness::{run_token, Engine, SeedToken, SimEngine};

/// The corpus file's tokens.
fn corpus() -> Vec<SeedToken> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions/corpus.tokens"
    );
    let text = std::fs::read_to_string(path).expect("corpus file exists");
    SeedToken::parse_corpus(&text, SimEngine::REPLAYS).expect("corpus tokens parse")
}

#[test]
fn regression_corpus_replays_clean() {
    let tokens = corpus();
    assert!(!tokens.is_empty(), "corpus must not be empty");
    let mut failures = Vec::new();
    for token in &tokens {
        let report = run_token::<SimEngine>(token);
        if let Some(violation) = report.violation {
            failures.push(format!("{token}: {violation}"));
        }
    }
    assert!(
        failures.is_empty(),
        "previously fixed bugs reappeared:\n{}",
        failures.join("\n")
    );
}

/// The acceptance contract of the seed tokens: re-running a token reproduces
/// the identical schedule byte for byte (equal digests over every delivery
/// record of the run).
#[test]
fn corpus_tokens_replay_byte_for_byte() {
    // One token per protocol is enough to pin the determinism contract; the
    // clean-replay test above already runs every schedule once.
    let mut seen = std::collections::BTreeSet::new();
    for token in corpus() {
        if !seen.insert(token.protocol.label()) {
            continue;
        }
        let first = run_token::<SimEngine>(&token);
        let second = run_token::<SimEngine>(&token);
        assert_eq!(
            first.digest, second.digest,
            "{token} did not replay deterministically"
        );
        assert_eq!(first.completed, second.completed);
        assert_eq!(first.deliveries, second.deliveries);
    }
}
