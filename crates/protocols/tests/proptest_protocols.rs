//! Property-based tests of the protocol semantics at the decision-rule level: for any
//! sequence of incoming batches, the server-side rules must maintain their defining
//! invariants (SAER: never accept after burning, burn exactly when the received total
//! exceeds c·d; RAES: never let the load exceed c·d, never reject a batch that fits).

use clb_engine::{Protocol, ServerCtx};
use clb_protocols::{Raes, Saer, Threshold};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn saer_decision_rule_invariants(
        c in 1u32..40,
        d in 1u32..6,
        batches in prop::collection::vec(0u32..30, 1..40),
    ) {
        let protocol = Saer::new(c, d);
        let threshold = (c * d) as u64;
        let mut state = 0u64;
        let mut load = 0u32;
        let mut received = 0u64;
        let mut burned_seen = false;
        for (round, &incoming) in batches.iter().enumerate() {
            if incoming == 0 {
                continue; // the engine never calls decide with an empty batch
            }
            let ctx = ServerCtx { server: 0, round: round as u32 + 1, current_load: load, incoming };
            let accepted = protocol.server_decide(&mut state, &ctx);
            received += incoming as u64;
            // Accept-all-or-nothing rule.
            prop_assert!(accepted == 0 || accepted == incoming);
            if burned_seen {
                prop_assert_eq!(accepted, 0, "burned servers must reject forever");
            }
            load += accepted;
            // The state word is the received count, and the burn condition is exactly
            // "received more than c·d so far".
            prop_assert_eq!(state, received);
            let burned = protocol.server_is_closed(state, load);
            prop_assert_eq!(burned, received > threshold);
            burned_seen = burned;
            // The load guarantee follows from the rule.
            prop_assert!(load as u64 <= threshold);
        }
    }

    #[test]
    fn raes_decision_rule_invariants(
        c in 1u32..40,
        d in 1u32..6,
        batches in prop::collection::vec(0u32..30, 1..40),
    ) {
        let protocol = Raes::new(c, d);
        let threshold = c * d;
        let mut state = 0u64;
        let mut load = 0u32;
        for (round, &incoming) in batches.iter().enumerate() {
            if incoming == 0 {
                continue;
            }
            let ctx = ServerCtx { server: 0, round: round as u32 + 1, current_load: load, incoming };
            let accepted = protocol.server_decide(&mut state, &ctx);
            prop_assert!(accepted == 0 || accepted == incoming);
            // RAES accepts exactly when the batch fits.
            if load + incoming <= threshold {
                prop_assert_eq!(accepted, incoming);
            } else {
                prop_assert_eq!(accepted, 0);
            }
            load += accepted;
            prop_assert!(load <= threshold);
            prop_assert_eq!(protocol.server_is_closed(state, load), load >= threshold);
        }
    }

    /// On any batch sequence, SAER's cumulative accepted count never exceeds RAES's when
    /// both see the same batches — the deterministic shadow of Corollary 2's domination.
    #[test]
    fn raes_accepts_at_least_as_much_as_saer_on_identical_batches(
        c in 1u32..20,
        d in 1u32..4,
        batches in prop::collection::vec(1u32..20, 1..30),
    ) {
        let saer = Saer::new(c, d);
        let raes = Raes::new(c, d);
        let mut saer_state = 0u64;
        let mut raes_state = 0u64;
        let mut saer_load = 0u32;
        let mut raes_load = 0u32;
        for (round, &incoming) in batches.iter().enumerate() {
            let round = round as u32 + 1;
            let saer_ctx =
                ServerCtx { server: 0, round, current_load: saer_load, incoming };
            saer_load += saer.server_decide(&mut saer_state, &saer_ctx);
            let raes_ctx =
                ServerCtx { server: 0, round, current_load: raes_load, incoming };
            raes_load += raes.server_decide(&mut raes_state, &raes_ctx);
            prop_assert!(saer_load <= raes_load);
        }
    }

    #[test]
    fn threshold_never_accepts_more_than_t_per_round(
        t in 1u32..10,
        batches in prop::collection::vec(0u32..50, 1..30),
    ) {
        let protocol = Threshold::new(t);
        let mut state = 0u64;
        for (round, &incoming) in batches.iter().enumerate() {
            if incoming == 0 {
                continue;
            }
            let ctx = ServerCtx { server: 0, round: round as u32 + 1, current_load: 0, incoming };
            let accepted = protocol.server_decide(&mut state, &ctx);
            prop_assert!(accepted <= t);
            prop_assert!(accepted <= incoming);
            prop_assert_eq!(accepted, incoming.min(t));
            prop_assert_eq!(state, 0, "the threshold rule keeps no state");
        }
    }
}
