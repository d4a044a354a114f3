//! The one-shot uniform baseline: servers accept everything.
//!
//! Every ball is placed in the first round on a uniformly random admissible server.
//! This is the classic single-choice balls-into-bins process whose maximum load on the
//! complete graph is `Θ(log n / log log n)` w.h.p. — the number the experiments use to
//! show what SAER's `c·d` guarantee buys.

use clb_engine::{Protocol, ServerCtx};
use serde::{Deserialize, Serialize};

/// Accept-everything protocol (single round, unbounded load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneShot;

impl OneShot {
    /// Creates the protocol.
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for OneShot {
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        ctx.incoming
    }

    fn server_is_closed(&self, _state: u64, _current_load: u32) -> bool {
        false
    }

    fn name(&self) -> String {
        "one-shot".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, Simulation};
    use clb_graph::generators;

    #[test]
    fn completes_in_exactly_one_round() {
        let graph = generators::regular_random(128, 32, 3).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OneShot::new())
            .demand(Demand::Constant(3))
            .seed(1)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.total_messages, 2 * 128 * 3);
        assert_eq!(OneShot::new().name(), "one-shot");
    }

    #[test]
    fn max_load_is_unbalanced_compared_to_the_mean() {
        // With n balls into n bins the maximum load should exceed the mean (1) by a
        // factor that grows with n — here we just check it is at least 3 for n = 1024,
        // comfortably below the Θ(log n / log log n) ≈ 4.5 expectation but robust.
        let n = 1024;
        let graph = generators::complete(n, n).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OneShot::new())
            .demand(Demand::Constant(1))
            .seed(7)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert!(
            result.max_load >= 3,
            "max load {} suspiciously balanced",
            result.max_load
        );
    }
}
