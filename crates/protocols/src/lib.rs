//! Parallel load-balancing protocols on constrained client-server topologies.
//!
//! This crate contains the paper's contribution and the baselines it is measured
//! against, all implemented against the [`clb_engine::Protocol`] trait:
//!
//! * [`Saer`] — **S**top **A**ccepting if **E**xceeding **R**equests (Algorithm 1 of the
//!   paper): a server that has *received* more than `c·d` balls since the start of the
//!   process becomes **burned** and rejects everything from then on.
//! * [`Raes`] — **R**equest **a** link, then **A**ccept if **E**nough **S**pace
//!   (Becchetti et al., SODA 2020): a server rejects a round's batch only if accepting
//!   it would push its *accepted* load above `c·d`; it may accept again in later rounds.
//! * [`Threshold`] — the classic parallel threshold rule (Adler et al. family): accept
//!   at most `T` requests per round, never close permanently.
//! * [`KChoice`] — a parallel k-choice retry protocol with per-server capacity, the
//!   collision-style baseline for the dense regime.
//! * [`OneShot`] — servers accept everything; the one-round uniform baseline whose
//!   maximum load is the classic `Θ(log n / log log n)`.
//! * [`Jsq`] — join-shortest-queue among `d` sampled choices: accept-all servers plus
//!   the engine's least-loaded settle rule. The stability yardstick for online
//!   (arrival/departure) workloads, where SAER's burn-forever rule cannot recover.
//! * [`ProtocolSpec`] — a serde-configurable description of any of the above;
//!   [`ProtocolSpec::build`] materialises it as a `Box<dyn Protocol>`, which drops
//!   into the simulation builder exactly like a concrete protocol.
//!
//! Every rule implements the one object-safe [`clb_engine::Protocol`] trait. The only
//! per-server memory any of them keeps is SAER's received-request count, held in the
//! engine-owned `u64` state word; the others decide from the current load alone.
//!
//! # Quick start
//!
//! ```
//! use clb_engine::{Demand, Simulation};
//! use clb_graph::generators;
//! use clb_protocols::Saer;
//!
//! let n = 256;
//! let delta = clb_graph::log2_squared(n); // Θ(log² n), the sparsest admissible degree
//! let graph = generators::regular_random(n, delta, 1).unwrap();
//! let d = 2;
//! let c = 8;
//! let mut sim = Simulation::builder(&graph)
//!     .protocol(Saer::new(c, d))
//!     .demand(Demand::Constant(d))
//!     .seed(42)
//!     .build();
//! let result = sim.run();
//! assert!(result.completed);
//! assert!(result.max_load <= c * d); // the protocol's hard load guarantee
//! ```
//!
//! # Quick start, protocol chosen at runtime
//!
//! ```
//! use clb_engine::{Demand, Simulation};
//! use clb_graph::generators;
//! use clb_protocols::ProtocolSpec;
//!
//! let graph = generators::regular_random(256, clb_graph::log2_squared(256), 1).unwrap();
//! // e.g. deserialised from an experiment config file:
//! let spec = ProtocolSpec::Raes { c: 8, d: 2 };
//! let result = Simulation::builder(&graph)
//!     .protocol(spec.build())
//!     .demand(Demand::Constant(2))
//!     .seed(42)
//!     .build()
//!     .run();
//! assert!(result.completed);
//! assert!(result.max_load <= 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsq;
pub mod kchoice;
pub mod one_shot;
pub mod raes;
pub mod saer;
pub mod spec;
pub mod threshold;

pub use jsq::Jsq;
pub use kchoice::KChoice;
pub use one_shot::OneShot;
pub use raes::Raes;
pub use saer::Saer;
pub use spec::ProtocolSpec;
pub use threshold::Threshold;
