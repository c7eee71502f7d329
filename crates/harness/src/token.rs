//! Replay tokens: a derivation version, a protocol and a seed name one
//! complete seeded experiment.
//!
//! | version | engine | printed as |
//! |---|---|---|
//! | `v1`, `v2` | simulator explorer ([`crate::explorer`]) | `WBAM_SEED=v2:WbCast:<hex>` |
//! | `rt1` | deterministic-runtime explorer ([`crate::rt`]) | `WBAM_SEED=rt1:WbCast:<hex>` |
//! | `n1` | deployed chaos driver ([`crate::chaos`]) | `WBAM_NET_SEED=n1:WbCast:<hex>` |
//!
//! The engines' derivations share nothing, so each refuses the others'
//! tokens. A derivation change is a new version; old versions keep their
//! meaning forever.

use std::fmt;

use wbam_types::hash::{splitmix64, GOLDEN_GAMMA};

use crate::cluster::Protocol;

/// A derivation version, naming the engine that replays the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TokenVersion {
    /// Simulator: topology, workload and nemesis plan; no compaction.
    V1,
    /// Simulator: `V1` plus a compaction cadence and an extra mid-run
    /// crash/restart, drawn from a separately salted RNG so every `V1`
    /// token keeps its meaning.
    V2,
    /// Deterministic runtime: topology, workload, crash schedule and the
    /// scheduler's decision stream.
    Rt1,
    /// Deployed chaos: nemesis plan, process faults and workload.
    N1,
}

impl TokenVersion {
    /// `(label, printed prefix, replaying engine)`.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            TokenVersion::V1 => ("v1", "WBAM_SEED=", "the simulator explorer"),
            TokenVersion::V2 => ("v2", "WBAM_SEED=", "the simulator explorer"),
            TokenVersion::Rt1 => ("rt1", "WBAM_SEED=", "the runtime explorer"),
            TokenVersion::N1 => ("n1", "WBAM_NET_SEED=", "the net-chaos driver"),
        }
    }

    /// The version's printed label.
    fn label(self) -> &'static str {
        self.names().0
    }

    /// Whether this version can run `protocol`: the deterministic runtime
    /// needs a deployed node loop (not singleton Skeen), and the chaos
    /// driver runs only the white-box protocol (the baselines assume
    /// reliable channels and stall under loss by design).
    fn runs(self, protocol: Protocol) -> bool {
        match self {
            TokenVersion::V1 | TokenVersion::V2 => true,
            TokenVersion::Rt1 => Protocol::evaluated().contains(&protocol),
            TokenVersion::N1 => protocol == Protocol::WhiteBox,
        }
    }
}

/// A replayable experiment identifier. [`fmt::Display`] and
/// [`SeedToken::parse`] round-trip it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedToken {
    /// The derivation version (and with it the engine).
    pub version: TokenVersion,
    /// The protocol the experiment runs.
    pub protocol: Protocol,
    /// The seed every part of the experiment is derived from.
    pub seed: u64,
}

impl fmt::Display for SeedToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (label, prefix, _) = self.version.names();
        write!(
            f,
            "{prefix}{label}:{}:{:016x}",
            self.protocol.label(),
            self.seed
        )
    }
}

impl SeedToken {
    /// The token of run `index` in a sweep starting at `base_seed`,
    /// rotating over `protocols`.
    pub fn sweep(
        version: TokenVersion,
        base_seed: u64,
        index: usize,
        protocols: &[Protocol],
    ) -> SeedToken {
        SeedToken {
            version,
            protocol: protocols[index % protocols.len()],
            seed: splitmix64(base_seed ^ (index as u64).wrapping_mul(GOLDEN_GAMMA)),
        }
    }

    /// Parses a printed token (the `WBAM_SEED=` / `WBAM_NET_SEED=` prefix
    /// is optional) of one of the `versions` the caller's engine replays.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for malformed tokens, unknown
    /// versions or protocols, protocols the version cannot run, and tokens
    /// of any other engine.
    pub fn parse(s: &str, versions: &[TokenVersion]) -> Result<SeedToken, String> {
        let s = s.trim();
        let body = ["WBAM_SEED=", "WBAM_NET_SEED="]
            .iter()
            .find_map(|prefix| s.strip_prefix(prefix))
            .unwrap_or(s);
        let parts: Vec<&str> = body.split(':').collect();
        let [label, protocol, seed_hex] = parts[..] else {
            return Err(format!(
                "expected <version>:<protocol>:<seed>, got `{body}`"
            ));
        };
        let all = [
            TokenVersion::V1,
            TokenVersion::V2,
            TokenVersion::Rt1,
            TokenVersion::N1,
        ];
        let version = all
            .into_iter()
            .find(|v| v.label() == label)
            .ok_or_else(|| format!("token version `{label}` not supported (v1, v2, rt1, n1)"))?;
        if !versions.contains(&version) {
            let accepted: Vec<&str> = versions.iter().map(|v| v.label()).collect();
            return Err(format!(
                "`{label}` tokens belong to {}; this engine replays {}",
                version.names().2,
                accepted.join(", ")
            ));
        }
        let protocol = Protocol::from_label(protocol)
            .filter(|p| version.runs(*p))
            .ok_or_else(|| format!("{} cannot run protocol `{protocol}`", version.names().2))?;
        let seed =
            u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed `{seed_hex}`: {e}"))?;
        Ok(SeedToken {
            version,
            protocol,
            seed,
        })
    }

    /// Parses a regression corpus: one token per line, skipping blank lines
    /// and `#` comments.
    ///
    /// # Errors
    ///
    /// Names the first line that is not a token of `versions`.
    pub fn parse_corpus(text: &str, versions: &[TokenVersion]) -> Result<Vec<SeedToken>, String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| SeedToken::parse(l, versions).map_err(|e| format!("`{l}`: {e}")))
            .collect()
    }
}

/// Asserts that `version` round-trips through its printed form, with and
/// without the prefix, for every one of `protocols`, and that an engine
/// replaying `version` refuses every token in `rejected`.
#[cfg(test)]
pub(crate) fn assert_tokens_round_trip(
    version: TokenVersion,
    prefix: &str,
    protocols: &[Protocol],
    rejected: &[&str],
) {
    for &protocol in protocols {
        let token = SeedToken {
            version,
            protocol,
            seed: 0xdead_beef_1234_5678,
        };
        let s = token.to_string();
        assert!(s.starts_with(prefix), "{s}");
        assert_eq!(SeedToken::parse(&s, &[version]).unwrap(), token);
        // The prefix is optional on input.
        let bare = s.split_once('=').unwrap().1;
        assert_eq!(SeedToken::parse(bare, &[version]).unwrap(), token);
    }
    for s in rejected {
        assert!(SeedToken::parse(s, &[version]).is_err(), "{s} accepted");
    }
}
