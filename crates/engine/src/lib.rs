//! Synchronous round engine for client-server load-balancing protocols (model **M**).
//!
//! The paper's computational model (Section 2.1) is a fully decentralised synchronous
//! system: clients and servers exchange messages only along the edges of a fixed
//! bipartite graph, in lock-step rounds, clients send ball IDs and servers answer each
//! request with a single accept/reject bit. This crate is that model as an executable
//! substrate:
//!
//! * [`protocol::Protocol`] — the small object-safe trait a protocol implements: the
//!   threshold rule deciding how many of a round's incoming requests to accept, given
//!   one engine-owned `u64` state word per server (SAER's received-request count; the
//!   other rules decide from the current load and ignore it). The simulation holds its
//!   protocol as a `Box<dyn Protocol>`, so a protocol picked at runtime and one named
//!   in code run through the same hot loop. SAER, RAES and the baselines live in the
//!   `clb-protocols` crate.
//! * [`Simulation`] — executes rounds: every alive ball picks destination servers
//!   uniformly at random from its owner's neighbourhood (symmetric, non-adaptive),
//!   servers apply the protocol's threshold rule, and accepted balls settle. The
//!   *inside* of a round is parallelised end to end: every phase splits into
//!   contiguous pieces (request ranges, server ranges, ball-slot ranges) whose
//!   boundaries depend on problem sizes only — never the thread count — and whose
//!   results merge in piece-index order, so one simulation with millions of balls
//!   scales across cores with bit-identical results at every thread count. All
//!   randomness is derived from per-(ball, round) streams, making the work order
//!   irrelevant. Construction goes through the fluent [`Simulation::builder`].
//!
//!   The round loop is **allocation-free after construction**: all per-round scratch
//!   (the flat slot-major request buffer phase 1 writes picks into, the rank buffers
//!   of the three-pass `O(R + P·S)` parallel counting sort that groups requests
//!   server-major for phase 2, the per-server accept counts, the per-piece settle
//!   scratch, the closed census and the double-buffered alive-ball list) lives in a
//!   `RoundBuffers` struct owned by the simulation and sized once at build time —
//!   piece descriptors live on the stack. Building makes a number of allocations
//!   that does not grow with the server count: the per-server protocol state is one
//!   dense `Vec<u64>`. See the `simulation` module docs and the counting-allocator
//!   harness in `tests/alloc_free.rs`.
//! * [`observe`] — round observers that record the quantities the paper's analysis
//!   tracks: the burned/saturated fraction `S_t`, the per-neighbourhood request mass
//!   `r_t(N(v))`, alive balls, loads and work. Observers are borrowed per run
//!   through [`Simulation::run_observed`], so the caller keeps and reads them.
//! * [`workload`] — online (open-system) workloads: an [`ArrivalProcess`] injects
//!   balls at round boundaries, settled balls depart after a sampled
//!   [`ServiceDistribution`] time and free their server's slot. The batch semantics
//!   above are the default and are bit-for-bit unchanged when no workload is
//!   attached; arrival counts, owners and service times live in dedicated RNG
//!   domains keyed by round/ball ids, so online runs stay deterministic at every
//!   thread count too.
//! * Work accounting follows the paper exactly: each submitted request is one message
//!   and each accept/reject answer is another, so the reported work is
//!   `2 · Σ_t (requests sent in round t)`.
//!
//! # Example: one full run through the builder
//!
//! ```
//! use clb_engine::{Demand, Simulation};
//! use clb_engine::protocol::{Protocol, ServerCtx};
//! use clb_graph::generators;
//!
//! // A toy protocol: servers accept everything (classic one-choice).
//! struct AcceptAll;
//! impl Protocol for AcceptAll {
//!     fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 { ctx.incoming }
//!     fn server_is_closed(&self, _state: u64, _load: u32) -> bool { false }
//! }
//!
//! let graph = generators::regular_random(64, 16, 7).unwrap();
//! let mut sim = Simulation::builder(&graph)
//!     .protocol(AcceptAll)
//!     .demand(Demand::Constant(2))
//!     .seed(42)
//!     .build();
//! let result = sim.run();
//! assert!(result.completed);
//! assert_eq!(result.rounds, 1); // everything is accepted in the first round
//! assert_eq!(result.total_messages, 2 * 64 * 2); // request + answer per ball
//! ```
//!
//! # Example: choosing the protocol at runtime
//!
//! ```
//! use clb_engine::{Demand, Protocol, Simulation};
//! # use clb_engine::protocol::ServerCtx;
//! # struct AcceptAll;
//! # impl Protocol for AcceptAll {
//! #     fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 { ctx.incoming }
//! #     fn server_is_closed(&self, _state: u64, _load: u32) -> bool { false }
//! # }
//! # struct RejectFirstRound;
//! # impl Protocol for RejectFirstRound {
//! #     fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
//! #         if ctx.round > 1 { ctx.incoming } else { 0 }
//! #     }
//! #     fn server_is_closed(&self, _state: u64, _load: u32) -> bool { false }
//! # }
//! let graph = clb_graph::generators::regular_random(64, 16, 7).unwrap();
//! // e.g. from a CLI flag:
//! let patient = true;
//! let protocol: Box<dyn Protocol> =
//!     if patient { Box::new(RejectFirstRound) } else { Box::new(AcceptAll) };
//! let result = Simulation::builder(&graph)
//!     .protocol(protocol)
//!     .demand(Demand::Constant(2))
//!     .seed(42)
//!     .build()
//!     .run();
//! assert!(result.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod demand;
pub mod observe;
pub mod protocol;
pub mod simulation;
pub mod workload;

pub use config::SimConfig;
pub use demand::Demand;
pub use observe::{
    AliveBallsObserver, BurnedFractionObserver, MaxLoadObserver, NeighborhoodMassObserver,
    Observer, RoundView, TrajectoryObserver,
};
pub use protocol::{Protocol, ServerCtx, SettleRule};
pub use simulation::{RoundRecord, RunResult, Simulation, SimulationBuilder};
pub use workload::{ArrivalProcess, OnlineWorkload, ServiceDistribution};
