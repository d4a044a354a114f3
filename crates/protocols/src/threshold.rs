//! The classic parallel threshold rule (Adler / Micah et al. family).
//!
//! Every round, a server accepts at most `per_round` of the requests it receives and
//! rejects the excess; rejected balls are re-thrown in the next round. Unlike SAER/RAES
//! there is no cumulative cap, so the protocol always terminates on any graph without
//! isolated clients — but its maximum load is unbounded in the worst case and is
//! `Θ(log n / log log n)`-ish on dense graphs when `per_round` is small. It is the
//! natural member of the "Threshold algorithms" class the paper's related-work section
//! describes (Section 1.3) and serves as a termination-always baseline.

use clb_engine::{Protocol, ServerCtx};
use serde::{Deserialize, Serialize};

/// Accept at most `per_round` requests per server per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Threshold {
    per_round: u32,
}

impl Threshold {
    /// Creates the protocol. Panics if `per_round` is zero (the process could never
    /// make progress).
    pub fn new(per_round: u32) -> Self {
        assert!(per_round > 0, "per-round threshold must be positive");
        Self { per_round }
    }

    /// The per-round acceptance cap.
    pub fn per_round(&self) -> u32 {
        self.per_round
    }
}

impl Protocol for Threshold {
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        ctx.incoming.min(self.per_round)
    }

    fn server_is_closed(&self, _state: u64, _current_load: u32) -> bool {
        false
    }

    fn name(&self) -> String {
        format!("threshold(T={})", self.per_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, Simulation};
    use clb_graph::generators;

    fn ctx(incoming: u32) -> ServerCtx {
        ServerCtx {
            server: 0,
            round: 1,
            current_load: 0,
            incoming,
        }
    }

    #[test]
    fn caps_each_round_independently() {
        let p = Threshold::new(3);
        let mut s = 0;
        assert_eq!(p.server_decide(&mut s, &ctx(5)), 3);
        assert_eq!(p.server_decide(&mut s, &ctx(2)), 2);
        assert_eq!(s, 0, "the threshold rule keeps no state of its own");
        assert!(!p.server_is_closed(s, 1000));
        assert_eq!(p.name(), "threshold(T=3)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = Threshold::new(0);
    }

    #[test]
    fn always_terminates_on_connected_graphs() {
        let n = 256;
        let graph = generators::regular_random(n, 16, 5).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Threshold::new(1))
            .demand(Demand::Constant(2))
            .seed(8)
            .max_rounds(5_000)
            .build();
        let result = sim.run();
        assert!(result.completed);
        // Load conservation.
        let total: u32 = sim.server_loads().iter().sum();
        assert_eq!(total as u64, result.total_balls);
    }

    #[test]
    fn tighter_threshold_takes_more_rounds_but_balances_better() {
        let n = 256;
        let graph = generators::complete(n, n).unwrap();
        let run = |per_round| {
            let mut sim = Simulation::builder(&graph)
                .protocol(Threshold::new(per_round))
                .demand(Demand::Constant(4))
                .seed(12)
                .max_rounds(5_000)
                .build();
            sim.run()
        };
        let tight = run(1);
        let loose = run(1_000_000);
        assert!(tight.completed && loose.completed);
        assert!(tight.rounds >= loose.rounds);
        assert!(tight.max_load <= loose.max_load);
        // With an effectively unbounded threshold the process is one-choice in a single
        // round; with T = 1 the final allocation is far more balanced.
        assert_eq!(loose.rounds, 1);
        assert!(tight.max_load < loose.max_load);
    }
}
