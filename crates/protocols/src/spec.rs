//! Data-driven protocol selection.
//!
//! Experiments are configured from serializable specs: [`ProtocolSpec`] names a protocol
//! and its parameters, and [`ProtocolSpec::build`] materialises it as a
//! `Box<dyn Protocol>`, which the simulation builder takes as is — the same form it
//! stores a concrete protocol in. Adding a protocol means implementing `Protocol` and
//! adding a constructor arm here.

use crate::{Jsq, KChoice, OneShot, Raes, Saer, Threshold};
use clb_engine::Protocol;
use serde::{Deserialize, Serialize};

/// A serializable description of a protocol and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// SAER(c, d).
    Saer {
        /// Threshold constant `c`.
        c: u32,
        /// Request number `d`.
        d: u32,
    },
    /// RAES(c, d).
    Raes {
        /// Threshold constant `c`.
        c: u32,
        /// Request number `d`.
        d: u32,
    },
    /// Per-round threshold protocol.
    Threshold {
        /// Per-round acceptance cap.
        per_round: u32,
    },
    /// Parallel k-choice with per-server capacity.
    KChoice {
        /// Choices per ball per round.
        k: u32,
        /// Per-server capacity.
        capacity: u32,
    },
    /// Accept-everything single-round baseline.
    OneShot,
    /// Join-shortest-queue among `d` sampled choices (online stability baseline).
    Jsq {
        /// Choices per ball per round.
        d: u32,
    },
}

impl ProtocolSpec {
    /// Materialises the spec as a runtime-dispatched protocol.
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            ProtocolSpec::Saer { c, d } => Box::new(Saer::new(c, d)),
            ProtocolSpec::Raes { c, d } => Box::new(Raes::new(c, d)),
            ProtocolSpec::Threshold { per_round } => Box::new(Threshold::new(per_round)),
            ProtocolSpec::KChoice { k, capacity } => Box::new(KChoice::new(k, capacity)),
            ProtocolSpec::OneShot => Box::new(OneShot::new()),
            ProtocolSpec::Jsq { d } => Box::new(Jsq::new(d)),
        }
    }

    /// Every spec variant with the given parameters, for exhaustive sweeps and tests.
    pub fn all_variants(c: u32, d: u32) -> Vec<ProtocolSpec> {
        vec![
            ProtocolSpec::Saer { c, d },
            ProtocolSpec::Raes { c, d },
            ProtocolSpec::Threshold {
                per_round: d.max(1),
            },
            ProtocolSpec::KChoice {
                k: 2,
                capacity: c * d,
            },
            ProtocolSpec::OneShot,
            ProtocolSpec::Jsq { d: d.max(1) },
        ]
    }

    /// A short label for experiment tables (matches the built protocol's `name()`,
    /// without materialising one).
    pub fn label(&self) -> String {
        match *self {
            ProtocolSpec::Saer { c, d } => format!("saer(c={c}, d={d})"),
            ProtocolSpec::Raes { c, d } => format!("raes(c={c}, d={d})"),
            ProtocolSpec::Threshold { per_round } => format!("threshold(T={per_round})"),
            ProtocolSpec::KChoice { k, capacity } => format!("kchoice(k={k}, cap={capacity})"),
            ProtocolSpec::OneShot => "one-shot".to_string(),
            ProtocolSpec::Jsq { d } => format!("jsq(d={d})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, ServerCtx, Simulation};
    use clb_graph::{generators, log2_squared};

    #[test]
    fn every_spec_builds_and_has_a_label() {
        for spec in ProtocolSpec::all_variants(8, 2) {
            let protocol = spec.build();
            assert!(!spec.label().is_empty());
            assert_eq!(spec.label(), protocol.name());
        }
    }

    #[test]
    fn spec_runs_match_concrete_protocol_runs() {
        // `.protocol(Saer::new(..))` and `.protocol(spec.build())` take the same path.
        let n = 128;
        let d = 2;
        let graph = generators::regular_random(n, log2_squared(n), 3).unwrap();

        let mut concrete = Simulation::builder(&graph)
            .protocol(Saer::new(4, d))
            .demand(Demand::Constant(d))
            .seed(99)
            .build();
        let concrete_result = concrete.run();

        let mut built = Simulation::builder(&graph)
            .protocol(ProtocolSpec::Saer { c: 4, d }.build())
            .demand(Demand::Constant(d))
            .seed(99)
            .build();
        let built_result = built.run();

        assert_eq!(concrete_result, built_result);
        assert_eq!(concrete.server_loads(), built.server_loads());
        assert_eq!(concrete.server_states(), built.server_states());
    }

    #[test]
    fn choices_per_round_is_forwarded() {
        assert_eq!(
            ProtocolSpec::KChoice { k: 3, capacity: 4 }
                .build()
                .choices_per_round(),
            3
        );
        assert_eq!(
            ProtocolSpec::Saer { c: 2, d: 2 }
                .build()
                .choices_per_round(),
            1
        );
    }

    #[test]
    fn all_specs_complete_on_an_easy_instance() {
        let n = 128;
        let graph = generators::regular_random(n, log2_squared(n), 5).unwrap();
        for spec in [
            ProtocolSpec::Saer { c: 8, d: 2 },
            ProtocolSpec::Raes { c: 8, d: 2 },
            ProtocolSpec::Threshold { per_round: 4 },
            ProtocolSpec::KChoice { k: 2, capacity: 16 },
            ProtocolSpec::OneShot,
            ProtocolSpec::Jsq { d: 2 },
        ] {
            let mut sim = Simulation::builder(&graph)
                .protocol(spec.build())
                .demand(Demand::Constant(2))
                .seed(1)
                .max_rounds(2_000)
                .build();
            let result = sim.run();
            assert!(result.completed, "{} did not complete", spec.label());
        }
    }

    #[test]
    fn closed_semantics_dispatch_correctly() {
        let saer = ProtocolSpec::Saer { c: 1, d: 1 }.build();
        let mut state = 0;
        let ctx = ServerCtx {
            server: 0,
            round: 1,
            current_load: 0,
            incoming: 5,
        };
        assert_eq!(saer.server_decide(&mut state, &ctx), 0);
        assert!(saer.server_is_closed(state, 0));
        // SAER's state word is its received-request count.
        assert_eq!(state, 5);

        let oneshot = ProtocolSpec::OneShot.build();
        let mut state = 0;
        assert_eq!(oneshot.server_decide(&mut state, &ctx), 5);
        assert!(!oneshot.server_is_closed(state, 1_000_000));
    }
}
