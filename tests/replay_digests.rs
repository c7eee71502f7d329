//! Pins what every replay token *means*, across builds.
//!
//! The determinism tests elsewhere compare two runs of one build, so a
//! refactor that silently changes what a token derives (one extra RNG draw,
//! a reordered check, a different digest construction) would pass them all.
//! This test compares against digests recorded once and committed in
//! `tests/regressions/digests.golden`:
//!
//! * the run digest of every token in `corpus.tokens` (simulator `v1`/`v2`)
//!   and `rt_corpus.tokens` (deterministic runtime `rt1`), and
//! * the plan digest of the first six `n1` net-chaos tokens of base seed 42,
//!   both at the CI smoke's `--messages 24` (`<token>@24`) and with the
//!   derived workload size (bare `<token>`).
//!
//! Golden lines are `<token>[@<messages>] <digest-hex>`; `#` starts a
//! comment. Existing lines never change: a derivation change is a new token
//! version, whose tokens get new lines.

use std::collections::BTreeMap;

use wbam_harness::chaos::generate_net_plan;
use wbam_harness::{run_token, Engine, Protocol, RtEngine, SeedToken, SimEngine, TokenVersion};

fn read(name: &str) -> String {
    let path = format!("{}/tests/regressions/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The non-comment, non-blank lines of a regression file.
fn entries(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// A token's printed form without its `WBAM_*SEED=` prefix.
fn bare(token: &SeedToken) -> String {
    let printed = token.to_string();
    printed
        .split_once('=')
        .map_or(printed.clone(), |(_, body)| body.to_string())
}

/// The run digest of every token of a corpus file.
fn corpus_digests<E: Engine>(file: &str, out: &mut BTreeMap<String, u64>) {
    let tokens = SeedToken::parse_corpus(&read(file), E::REPLAYS).expect("corpus tokens parse");
    for token in tokens {
        out.insert(bare(&token), run_token::<E>(&token).digest);
    }
}

/// Every pinned key with the digest this build computes for it.
fn computed() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    corpus_digests::<SimEngine>("corpus.tokens", &mut out);
    corpus_digests::<RtEngine>("rt_corpus.tokens", &mut out);
    for index in 0..6 {
        let token = SeedToken::sweep(TokenVersion::N1, 42, index, &[Protocol::WhiteBox]);
        for messages in [Some(24), None] {
            let mut key = bare(&token);
            if let Some(m) = messages {
                key.push_str(&format!("@{m}"));
            }
            out.insert(key, generate_net_plan(&token, messages).digest());
        }
    }
    out
}

#[test]
fn replay_digests_match_the_golden_file() {
    let golden_text = read("digests.golden");
    let mut golden: BTreeMap<String, u64> = BTreeMap::new();
    for line in entries(&golden_text) {
        let (key, hex) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("golden line `{line}` is not `<key> <digest>`"));
        let digest = u64::from_str_radix(hex.trim(), 16)
            .unwrap_or_else(|e| panic!("golden line `{line}`: {e}"));
        assert!(
            golden.insert(key.to_string(), digest).is_none(),
            "golden key `{key}` is listed twice"
        );
    }

    let mut problems = Vec::new();
    for (key, digest) in computed() {
        match golden.remove(&key) {
            Some(pinned) if pinned == digest => {}
            Some(pinned) => problems.push(format!(
                "{key}: digest {digest:016x}, golden file pins {pinned:016x}"
            )),
            None => problems.push(format!("not pinned yet: {key} {digest:016x}")),
        }
    }
    for key in golden.keys() {
        problems.push(format!(
            "golden key {key} is no longer derived by this test"
        ));
    }
    assert!(
        problems.is_empty(),
        "replay digests drifted from tests/regressions/digests.golden:\n{}",
        problems.join("\n")
    );
}
