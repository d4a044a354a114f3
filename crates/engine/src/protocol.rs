//! The protocol trait: what a server does with the requests it receives in a round.
//!
//! The class of protocols the paper studies (symmetric, non-adaptive, threshold-based)
//! fixes the *client* side completely: in every round, each ball that is still alive is
//! re-submitted to a destination chosen independently and uniformly at random from the
//! owner's neighbourhood. What distinguishes SAER from RAES from the classic threshold
//! algorithms is only the *server* acceptance rule, so that is all the trait models.

/// Context handed to the server decision rule for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCtx {
    /// Dense index of the server taking the decision.
    pub server: u32,
    /// Current round, starting at 1.
    pub round: u32,
    /// Number of balls already assigned to (accepted by) this server before this round.
    pub current_load: u32,
    /// Number of requests the server received in phase 1 of this round.
    pub incoming: u32,
}

/// How a ball that was accepted by more than one server in a round picks where it
/// settles (only relevant when [`Protocol::choices_per_round`] `> 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleRule {
    /// Settle on the first accepting server in the ball's slot order (the historical
    /// behaviour; choice order is itself a deterministic function of the RNG stream).
    FirstAccepted,
    /// Settle on the accepting server with the smallest post-decision load, ties
    /// broken by the smallest server index — the join-shortest-queue family.
    LeastLoaded,
}

/// A symmetric, non-adaptive, threshold-style protocol.
///
/// The trait is object-safe: the simulation holds its protocol as a
/// `Box<dyn Protocol>`, so a protocol chosen at runtime (from a config file, a CLI
/// flag or a sweep grid) runs through the same hot loop as one named in code.
///
/// The only per-server memory the paper's protocols need is one counter — SAER's
/// cumulative received-request count — so the engine owns one `u64` word per server,
/// zeroed at build, and hands it to [`Protocol::server_decide`] and
/// [`Protocol::server_is_closed`]. Rules that decide from the current load alone
/// (RAES, the baselines) ignore the word.
pub trait Protocol: Send + Sync {
    /// Number of destination servers each alive ball contacts per round
    /// (1 for SAER/RAES; `k` for the parallel k-choice baseline).
    fn choices_per_round(&self) -> u32 {
        1
    }

    /// Decides how many of the `ctx.incoming` requests the server accepts this round,
    /// updating the server's state word if the rule keeps one.
    ///
    /// The engine passes the requests in a canonical deterministic order and accepts the
    /// first `k` of them, where `k` is the returned value (clamped to `ctx.incoming`).
    /// Returning `0` rejects the whole batch; returning `ctx.incoming` accepts it all.
    /// The method is only called for servers that received at least one request.
    fn server_decide(&self, state: &mut u64, ctx: &ServerCtx) -> u32;

    /// True if the server is currently *closed*: it would reject any request regardless
    /// of the batch size. For SAER this is "burned", for RAES "saturated" (load = c·d).
    /// Observers use this to measure the `S_t` quantity of the paper's analysis.
    fn server_is_closed(&self, state: u64, current_load: u32) -> bool;

    /// How a multi-accepted ball picks its settle server (see [`SettleRule`]).
    /// Defaults to [`SettleRule::FirstAccepted`], the paper's behaviour.
    fn settle_rule(&self) -> SettleRule {
        SettleRule::FirstAccepted
    }

    /// A short human-readable name used in reports and experiment tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>()
            .rsplit("::")
            .next()
            .unwrap_or("protocol")
            .to_string()
    }
}

/// Boxes any protocol, so the simulation builder takes a concrete protocol and an
/// already-boxed one (e.g. from `ProtocolSpec::build`) alike without boxing twice.
impl<P: Protocol + 'static> From<P> for Box<dyn Protocol> {
    fn from(protocol: P) -> Self {
        Box::new(protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts up to a fixed total, counted in the state word, then closes.
    struct UpTo(u64);
    impl Protocol for UpTo {
        fn server_decide(&self, state: &mut u64, ctx: &ServerCtx) -> u32 {
            let take = self.0.saturating_sub(*state).min(u64::from(ctx.incoming));
            *state += take;
            take as u32
        }
        fn server_is_closed(&self, state: u64, _load: u32) -> bool {
            state >= self.0
        }
    }

    #[test]
    fn default_choices_is_one() {
        assert_eq!(UpTo(3).choices_per_round(), 1);
    }

    #[test]
    fn default_name_is_type_name() {
        assert_eq!(UpTo(3).name(), "UpTo");
        let boxed: Box<dyn Protocol> = UpTo(3).into();
        assert_eq!(boxed.name(), "UpTo");
    }

    #[test]
    fn decide_and_closed_interact() {
        let p = UpTo(3);
        let mut s = 0;
        let ctx = ServerCtx {
            server: 0,
            round: 1,
            current_load: 0,
            incoming: 2,
        };
        assert_eq!(p.server_decide(&mut s, &ctx), 2);
        assert!(!p.server_is_closed(s, 2));
        let ctx = ServerCtx {
            server: 0,
            round: 2,
            current_load: 2,
            incoming: 5,
        };
        assert_eq!(p.server_decide(&mut s, &ctx), 1);
        assert!(p.server_is_closed(s, 3));
    }

    #[test]
    fn default_settle_rule_is_first_accepted() {
        assert_eq!(UpTo(3).settle_rule(), SettleRule::FirstAccepted);
    }
}
