//! A parallel k-choice retry protocol with per-server capacity.
//!
//! Inspired by the parallel Greedy protocols of Adler/Micah et al. (Section 1.3 of the
//! paper): every alive ball contacts `k` servers per round (chosen independently and
//! uniformly at random, with replacement, from its neighbourhood); a server accepts
//! incoming requests only up to its remaining capacity; a ball accepted by several
//! servers keeps exactly one of them and the surplus acceptances are released. The
//! protocol keeps the hard `capacity` load guarantee of SAER/RAES while converging in
//! fewer rounds on sparse graphs, at the price of `k`× the message complexity per round
//! — exactly the trade-off the paper's related work discusses for the dense case.

use clb_engine::{Protocol, ServerCtx};
use serde::{Deserialize, Serialize};

/// Parallel k-choice protocol with a hard per-server capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KChoice {
    k: u32,
    capacity: u32,
}

impl KChoice {
    /// Creates the protocol with `k` choices per ball per round and the given per-server
    /// capacity. Panics if either is zero.
    pub fn new(k: u32, capacity: u32) -> Self {
        assert!(k > 0, "number of choices must be positive");
        assert!(capacity > 0, "capacity must be positive");
        Self { k, capacity }
    }

    /// Number of servers each alive ball contacts per round.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The per-server capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

impl Protocol for KChoice {
    fn choices_per_round(&self) -> u32 {
        self.k
    }

    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        self.capacity
            .saturating_sub(ctx.current_load)
            .min(ctx.incoming)
    }

    fn server_is_closed(&self, _state: u64, current_load: u32) -> bool {
        current_load >= self.capacity
    }

    fn name(&self) -> String {
        format!("kchoice(k={}, cap={})", self.k, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_engine::{Demand, Simulation};
    use clb_graph::{generators, log2_squared};

    fn ctx(load: u32, incoming: u32) -> ServerCtx {
        ServerCtx {
            server: 0,
            round: 1,
            current_load: load,
            incoming,
        }
    }

    #[test]
    fn accepts_up_to_remaining_capacity() {
        let p = KChoice::new(2, 5);
        assert_eq!(p.choices_per_round(), 2);
        assert_eq!(p.server_decide(&mut 0, &ctx(0, 3)), 3);
        assert_eq!(p.server_decide(&mut 0, &ctx(4, 3)), 1);
        assert_eq!(p.server_decide(&mut 0, &ctx(5, 3)), 0);
        assert!(p.server_is_closed(0, 5));
        assert!(!p.server_is_closed(0, 4));
        assert_eq!(p.name(), "kchoice(k=2, cap=5)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let _ = KChoice::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = KChoice::new(1, 0);
    }

    #[test]
    fn respects_capacity_and_completes() {
        let n = 256;
        let d = 2;
        let cap = 4 * d;
        let graph = generators::regular_random(n, log2_squared(n), 9).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(KChoice::new(2, cap))
            .demand(Demand::Constant(d))
            .seed(21)
            .max_rounds(1_000)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert!(result.max_load <= cap);
        let total: u32 = sim.server_loads().iter().sum();
        assert_eq!(total as u64, result.total_balls);
    }

    #[test]
    fn more_choices_cost_more_messages_per_round() {
        let n = 128;
        let graph = generators::regular_random(n, log2_squared(n), 5).unwrap();
        let run = |k| {
            let mut sim = Simulation::builder(&graph)
                .protocol(KChoice::new(k, 8))
                .demand(Demand::Constant(2))
                .seed(2)
                .max_rounds(1_000)
                .build();
            sim.run()
        };
        let one = run(1);
        let four = run(4);
        assert!(one.completed && four.completed);
        // First-round cost alone is k times larger; overall work must reflect that.
        assert!(four.total_messages > one.total_messages);
    }
}
