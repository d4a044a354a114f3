//! Join-shortest-queue with `d` sampled choices (the "power of d choices" rule).
//!
//! The online baseline of the queueing literature (Fox et al. and the JSQ(d) family):
//! every ball contacts `d` servers sampled uniformly from its neighbourhood, every
//! contacted server accepts, and the ball settles on the accepting server with the
//! smallest current load (ties to the smallest index), releasing the rest. Servers
//! never close and keep no private state, so the protocol is trivially
//! churn-compatible: a departure frees capacity that the very next round's settle
//! decisions see. Under an online workload this behaves like an M/G/∞-style system —
//! the backlog stays bounded at every arrival rate, which makes JSQ the stability
//! yardstick the constrained protocols (SAER, RAES) are measured against in
//! `exp_online`.

use clb_engine::{Protocol, ServerCtx, SettleRule};
use serde::{Deserialize, Serialize};

/// Join-shortest-queue among `d` uniformly sampled neighbourhood servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Jsq {
    d: u32,
}

impl Jsq {
    /// Creates the protocol with `d` sampled choices per ball per round.
    /// Panics if `d` is zero.
    pub fn new(d: u32) -> Self {
        assert!(d > 0, "number of choices must be positive");
        Self { d }
    }

    /// Number of servers each alive ball contacts per round.
    pub fn d(&self) -> u32 {
        self.d
    }
}

impl Protocol for Jsq {
    fn choices_per_round(&self) -> u32 {
        self.d
    }

    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        ctx.incoming
    }

    fn server_is_closed(&self, _state: u64, _current_load: u32) -> bool {
        false
    }

    fn settle_rule(&self) -> SettleRule {
        SettleRule::LeastLoaded
    }

    fn name(&self) -> String {
        format!("jsq(d={})", self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, Simulation};
    use clb_graph::generators;

    #[test]
    fn accepts_everything_and_never_closes() {
        let p = Jsq::new(2);
        assert_eq!(p.choices_per_round(), 2);
        let ctx = ServerCtx {
            server: 0,
            round: 1,
            current_load: 1_000_000,
            incoming: 7,
        };
        assert_eq!(p.server_decide(&mut 0, &ctx), 7);
        assert!(!p.server_is_closed(0, u32::MAX));
        assert_eq!(p.settle_rule(), SettleRule::LeastLoaded);
        assert_eq!(p.name(), "jsq(d=2)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_choices_rejected() {
        let _ = Jsq::new(0);
    }

    #[test]
    fn completes_in_one_round_with_balanced_loads() {
        // Accept-all with d choices settles every ball in round 1; picking the
        // least-loaded of two uniform choices keeps the maximum load well under the
        // one-choice balls-in-bins maximum on a complete topology.
        let n = 512;
        let graph = generators::complete(n, n).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(Jsq::new(2))
            .demand(Demand::Constant(1))
            .seed(17)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        // Power of two choices: max load Θ(log log n) ≪ one-choice Θ(log n / log log n).
        assert!(
            result.max_load <= 4,
            "two-choice max load should be tiny, got {}",
            result.max_load
        );
        let total: u32 = sim.server_loads().iter().sum();
        assert_eq!(u64::from(total), result.total_balls);
    }

    #[test]
    fn spreads_better_than_one_shot() {
        // One seed can tie (both rules land on the same small maximum), so compare
        // the max-load totals across a handful of seeds: never worse per seed in
        // aggregate, strictly better overall.
        let n = 512;
        let graph = generators::complete(n, n).unwrap();
        let run = |protocol: Box<dyn Protocol>, seed: u64| {
            Simulation::builder(&graph)
                .protocol(protocol)
                .demand(Demand::Constant(1))
                .seed(seed)
                .build()
                .run()
        };
        let mut jsq_total = 0u32;
        let mut one_shot_total = 0u32;
        for seed in [23, 24, 25, 26, 27] {
            jsq_total += run(Box::new(Jsq::new(2)), seed).max_load;
            one_shot_total += run(Box::new(crate::OneShot::new()), seed).max_load;
        }
        assert!(
            jsq_total < one_shot_total,
            "jsq total {jsq_total} vs one-shot total {one_shot_total}"
        );
    }
}
