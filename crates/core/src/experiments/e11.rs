//! E11 — exhaustive small-scope verification.
//!
//! The falsifiers follow the paper's constructive strategy; this experiment
//! enumerates *every* adversary behaviour in a bounded scope by exhaustive
//! search. Bounded-header victims get shortest counterexamples; the naive
//! protocol gets a certificate that no invalid execution exists in scope —
//! small-scope evidence for the dichotomy that the theorems state in
//! general.

use super::table::markdown;
use nonfifo_adversary::{ExploreConfig, ExploreOutcome, Explorer};
use nonfifo_protocols::{AlternatingBit, DataLink, GoBackN, NaiveCycle, SequenceNumber};
use std::fmt;

/// One protocol's exhaustive-search verdict.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Protocol name.
    pub protocol: String,
    /// Scope description (messages / depth / pool).
    pub scope: String,
    /// Verdict rendering.
    pub verdict: String,
    /// True if a counterexample was found.
    pub counterexample: bool,
    /// Shortest counterexample depth (adversary actions), if any.
    pub depth: Option<usize>,
    /// States visited.
    pub states: usize,
}

/// The E11 report.
#[derive(Debug, Clone)]
pub struct E11Report {
    /// One row per protocol.
    pub rows: Vec<E11Row>,
}

impl fmt::Display for E11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.scope.clone(),
                    r.verdict.clone(),
                    r.states.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            markdown(
                &["protocol", "scope (msgs/depth/pool)", "verdict", "states"],
                &rows
            )
        )
    }
}

fn probe(proto: &dyn DataLink, cfg: ExploreConfig) -> E11Row {
    let outcome = Explorer::new(cfg).explore(proto);
    let scope = format!("{}/{}/{}", cfg.max_messages, cfg.max_depth, cfg.max_pool);
    match outcome {
        ExploreOutcome::Counterexample {
            depth, execution, ..
        } => E11Row {
            protocol: proto.name(),
            scope,
            verdict: format!(
                "shortest invalid execution: {depth} actions, {} events",
                execution.len()
            ),
            counterexample: true,
            depth: Some(depth),
            states: 0,
        },
        ExploreOutcome::Exhausted { states } => E11Row {
            protocol: proto.name(),
            scope,
            verdict: "no invalid execution in scope (exhaustive)".into(),
            counterexample: false,
            depth: None,
            states,
        },
        ExploreOutcome::Truncated { states } => E11Row {
            protocol: proto.name(),
            scope,
            verdict: "inconclusive (state budget)".into(),
            counterexample: false,
            depth: None,
            states,
        },
    }
}

/// Runs E11.
pub fn e11_exhaustive() -> E11Report {
    let small = ExploreConfig {
        max_messages: 3,
        max_depth: 12,
        max_pool: 5,
        max_states: 300_000,
        ..ExploreConfig::default()
    };
    let cycle = ExploreConfig {
        max_messages: 4,
        max_depth: 16,
        max_pool: 6,
        max_states: 500_000,
        ..ExploreConfig::default()
    };
    let rows = vec![
        probe(&AlternatingBit::new(), small),
        probe(&GoBackN::new(1), cycle),
        probe(&NaiveCycle::new(3), cycle),
        probe(&SequenceNumber::new(), small),
    ];
    E11Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dichotomy_verified_exhaustively() {
        let report = e11_exhaustive();
        let row = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.protocol.starts_with(name))
                .unwrap()
        };
        assert!(row("alternating-bit").counterexample);
        assert!(row("naive-cycle").counterexample);
        assert!(!row("sequence-number").counterexample);
        assert!(row("sequence-number").states > 0);
        // The minimal alternating-bit attack is short.
        assert!(row("alternating-bit").depth.unwrap() <= 7);
    }
}
