//! The synchronous round executor and its fluent builder.
//!
//! # Hot-loop design: `RoundBuffers` + intra-round pieces
//!
//! A round is executed entirely inside scratch space that is sized once at build time
//! and reused for the whole run ([`RoundBuffers`], owned by [`Simulation`]): the flat
//! slot-major request buffer phase 1 writes into, the per-request rank buffer the
//! three-pass counting sort produces, the per-server request counts, accept counts and
//! closed census the observers read, the per-piece settle scratch, and the
//! double-buffered alive-ball list. After the buffers are warm (i.e. after
//! construction), [`Simulation::step`] performs **no heap allocation** — pinned by the
//! counting-allocator harness in `crates/engine/tests/alloc_free.rs`.
//!
//! Every phase of a round is split into contiguous **pieces** (request ranges, server
//! ranges, ball-slot ranges) that run in parallel and merge in piece-index order, so a
//! single simulation scales across cores while staying bit-identical at every thread
//! count. The piece plan ([`PiecePlan`]) is derived from problem sizes alone — never
//! from the thread count — so the plan (and therefore every intermediate) is a pure
//! function of `(graph, protocol, seed)`.
//!
//! Server-major grouping is rank-based rather than materialized: a three-pass
//! `O(R + P·S)` computation assigns each request its rank within its destination
//! server's segment (ascending request index within a server — the same canonical
//! order the former explicit counting-sort permutation produced), and phase 3 tests
//! `rank < accept_count[server]` instead of reading a permuted index array. Every
//! parallel write lands in a disjoint carved sub-slice, which is why the whole engine
//! stays `#![forbid(unsafe_code)]`.

use crate::{
    config::SimConfig,
    demand::Demand,
    observe::{Observer, RoundView},
    protocol::{Protocol, ServerCtx, SettleRule},
    workload::OnlineWorkload,
};
use clb_graph::{BipartiteGraph, ClientId};
use clb_rng::domains::PROTOCOL_DOMAIN;
use clb_rng::{RandomSource, StreamFactory};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Sentinel for "ball not yet assigned to any server".
const UNASSIGNED: u32 = u32::MAX;

/// Upper bound on the number of pieces any phase is split into. Piece descriptor
/// arrays live on the stack (`[Option<_>; MAX_INTRA_PIECES]`), so `step()` stays
/// allocation-free no matter the plan.
const MAX_INTRA_PIECES: usize = 32;

/// Minimum requests per sort piece; below this the histogram passes run serially.
const MIN_SORT_PIECE: usize = 1 << 14;

/// Minimum servers per phase-2/census piece.
const MIN_SERVER_PIECE: usize = 1 << 12;

/// Minimum ball slots per phase-3 piece.
const MIN_SLOT_PIECE: usize = 1 << 14;

/// The `k`-th of `pieces` contiguous ranges tiling `0..len` (balanced to within one).
///
/// Ranges are exactly adjacent (`range(k).end == range(k + 1).start`), which the
/// carving loops below rely on to split buffers without gaps.
fn piece_range(len: usize, pieces: usize, k: usize) -> Range<usize> {
    (k * len / pieces)..((k + 1) * len / pieces)
}

/// How many pieces each phase of a round is split into.
///
/// Derived from problem sizes only — **never** the thread count — so the piece
/// boundaries (and every per-piece intermediate) are identical whether the pieces run
/// on one core or sixteen. Different plans also produce bit-identical results (the
/// merges are in piece-index order and the per-(ball, round) RNG streams make work
/// order irrelevant); `intra_step_pieces_do_not_change_results` pins that.
#[derive(Debug, Clone, Copy)]
struct PiecePlan {
    /// Pieces for the three-pass request sort (contiguous request ranges).
    sort: usize,
    /// Pieces for phase 2 decisions, the sort combine and the census (server ranges).
    server: usize,
    /// Pieces for phase 3 settling (contiguous ball-slot ranges).
    slot: usize,
}

impl PiecePlan {
    fn for_sizes(
        request_capacity: usize,
        num_servers: usize,
        total_balls: usize,
        over: Option<usize>,
    ) -> Self {
        if let Some(pieces) = over {
            let pieces = pieces.clamp(1, MAX_INTRA_PIECES);
            return Self {
                sort: pieces,
                server: pieces,
                slot: pieces,
            };
        }
        // The parallel sort costs an extra O(sort · S) combine; capping the piece
        // count by R / 4S keeps that overhead under a quarter of the O(R) pass, and
        // drops to a single piece (the fused serial sort) when servers rival requests.
        let sort = (request_capacity / MIN_SORT_PIECE)
            .min(request_capacity / (4 * num_servers.max(1)))
            .clamp(1, MAX_INTRA_PIECES);
        let server = (num_servers / MIN_SERVER_PIECE).clamp(1, MAX_INTRA_PIECES);
        let slot = (total_balls / MIN_SLOT_PIECE).clamp(1, MAX_INTRA_PIECES);
        Self { sort, server, slot }
    }
}

/// Checks that a round's request count (`alive × choices`) fits the engine's 32-bit
/// request indexing and returns it.
///
/// Request indices are stored as `u32` in the sort buffers (and were packed into the
/// low 32 bits of the sort keys before the counting-sort rewrite), so a round may
/// carry at most `u32::MAX` requests. The guard panics with a diagnosable message
/// instead of silently corrupting indices.
fn checked_request_count(alive: usize, choices: u32) -> usize {
    match alive.checked_mul(choices as usize) {
        Some(total) if total <= u32::MAX as usize => total,
        _ => panic!(
            "request count overflow: {alive} alive balls x {choices} choices per round \
             exceeds the engine's 2^32 - 1 requests-per-round limit; reduce the demand, \
             the ball count or the protocol's choices_per_round()"
        ),
    }
}

/// Reusable per-round scratch space, hoisted out of the hot loop.
///
/// Everything a round touches lives here, sized once in [`SimulationBuilder::build`],
/// so a steady-state round never touches the allocator. The request-indexed buffers
/// are built at full capacity and *sliced* to the live request count each round — no
/// `clear()`/`resize()` zero-fill, because the covering passes overwrite every slot
/// they later read (the invariants are stated at each use site).
struct RoundBuffers {
    /// Phase-1 picks in a flat slot-major layout: entry `slot * choices + k` is the
    /// destination server of the k-th pick of the ball at `alive_balls[slot]`.
    request_server: Vec<u32>,
    /// Rank of each request within its destination server's segment, counting requests
    /// in ascending request-index order — the position the former explicit counting
    /// sort would have scattered it to, minus the segment base. A request is accepted
    /// iff `request_rank < accept_count[server]`.
    request_rank: Vec<u32>,
    /// Requests each server received this round (read by observers via [`RoundView`]).
    requests_per_server: Vec<u32>,
    /// Requests each server accepted this round. Entries for servers with zero
    /// incoming requests are stale from earlier rounds; phase 3 only consults servers
    /// that received at least one request this round.
    accept_count: Vec<u32>,
    /// Per-server closed census at the end of the round (read by observers).
    closed: Vec<bool>,
    /// Double-buffer swapped with `Simulation::alive_balls` at the end of phase 3.
    alive_next: Vec<u32>,
    /// Per-piece survivor lists (phase 3), concatenated into `alive_next` in
    /// piece-index order after the join.
    alive_scratch: Vec<u32>,
    /// Per-piece settled balls (phase 3), packed `(ball << 32) | server`, applied to
    /// `ball_assigned` after the join.
    assigned_scratch: Vec<u64>,
    /// Per-piece released-server lists (phase 3); empty when `choices == 1`, which
    /// can never produce surplus accepts.
    release_scratch: Vec<u32>,
    /// Per-piece server histograms for the parallel sort, piece-major
    /// (`piece_hist[k * S + s]`). Empty when `plan.sort == 1`.
    piece_hist: Vec<u32>,
    /// Exclusive prefix offsets for the parallel sort, server-major
    /// (`piece_off[s * plan.sort + k]` = requests for server `s` in pieces `< k`).
    /// Empty when `plan.sort == 1`.
    piece_off: Vec<u32>,
    /// The piece plan, fixed at build time.
    plan: PiecePlan,
}

impl RoundBuffers {
    fn new(num_servers: usize, total_balls: usize, choices: u32, plan: PiecePlan) -> Self {
        let request_capacity = checked_request_count(total_balls, choices);
        Self {
            request_server: vec![0; request_capacity],
            request_rank: vec![0; request_capacity],
            requests_per_server: vec![0; num_servers],
            accept_count: vec![0; num_servers],
            closed: vec![false; num_servers],
            alive_next: Vec::with_capacity(total_balls),
            alive_scratch: vec![0; total_balls],
            assigned_scratch: vec![0; total_balls],
            release_scratch: if choices > 1 {
                vec![0; request_capacity]
            } else {
                Vec::new()
            },
            piece_hist: if plan.sort > 1 {
                vec![0; plan.sort * num_servers]
            } else {
                Vec::new()
            },
            piece_off: if plan.sort > 1 {
                vec![0; plan.sort * num_servers]
            } else {
                Vec::new()
            },
            plan,
        }
    }
}

/// Per-round summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number (starting at 1).
    pub round: u32,
    /// Requests submitted by clients in this round.
    pub requests_sent: u64,
    /// Balls that settled (were accepted and kept) in this round.
    pub balls_assigned: u64,
    /// Balls still alive after this round.
    pub alive_after: u64,
    /// Messages exchanged in this round (requests + accept/reject answers).
    pub messages: u64,
    /// Servers that are closed (burned / saturated) at the end of this round.
    pub closed_servers: u64,
    /// Maximum server load at the end of this round.
    pub max_load: u32,
    /// Balls injected by the online workload at the start of this round (0 in batch
    /// mode, where every ball is present from round 1).
    pub arrivals: u64,
    /// Balls whose service time elapsed at the start of this round (0 in batch mode,
    /// where settled balls occupy their server forever).
    pub departures: u64,
    /// Balls occupying a server at the end of this round. In batch mode this is the
    /// cumulative number of settled balls; online it is the in-system service load.
    pub in_service_after: u64,
}

/// Final outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunResult {
    /// True if every ball was assigned within the round cap (online: and no arrivals
    /// remain to be injected).
    pub completed: bool,
    /// True if the run stopped because it reached the round cap with work left —
    /// the complement of `completed` *for a finished run*. Distinguishing "drained"
    /// from "truncated at the horizon" matters for online workloads, which routinely
    /// run to the cap by design: a stability verdict read off a truncated run is
    /// only meaningful because this flag says the truncation happened.
    pub hit_round_cap: bool,
    /// Rounds executed.
    pub rounds: u32,
    /// Total messages exchanged (the paper's work complexity).
    ///
    /// **Accounting convention:** every submitted request counts two messages — the
    /// request itself and the server's accept/reject answer — so this is always
    /// `2 · Σ_t (requests sent in round t)`. Phase-3 surplus releases (a ball that had
    /// several accepted choices telling the losing servers it settled elsewhere, only
    /// possible when `choices_per_round() > 1`) are **excluded**: the paper's model M
    /// protocols are single-choice, its work complexity counts request/answer pairs
    /// (Section 2.1), and keeping the k-choice baselines on the same ledger keeps
    /// their work figures comparable. `exp_work_complexity` asserts this identity on a
    /// real k-choice run.
    pub total_messages: u64,
    /// Maximum server load at the end of the run.
    pub max_load: u32,
    /// Balls left unassigned (0 when `completed`).
    pub unassigned_balls: u64,
    /// Total number of balls in the system.
    pub total_balls: u64,
    /// Servers that are closed (burned / saturated) at the end of the run — the
    /// absolute counterpart of the paper's `S_t` fraction.
    pub closed_servers: u64,
}

impl RunResult {
    /// Work normalised by the number of balls: `total_messages / total_balls`.
    /// Theorem 1 predicts this stays `O(1)` for SAER on admissible graphs.
    pub fn work_per_ball(&self) -> f64 {
        if self.total_balls == 0 {
            return 0.0;
        }
        self.total_messages as f64 / self.total_balls as f64
    }
}

// ---------------------------------------------------------------------------
// The three-pass parallel counting sort (rank form).
//
// Pass A (per request piece): count requests per server into the piece's own
// histogram row and record each request's rank *within its piece*.
// Pass B (per server range): turn the piece-major histogram matrix into server-major
// exclusive prefix offsets and per-server totals.
// Pass C (per request piece): rebase each piece-local rank by its piece's offset for
// the request's server, yielding the global within-segment rank.
//
// Ranks count requests in (piece index, within-piece index) order = ascending global
// request index, so `segment_base[s] + rank` reproduces the former stable counting
// sort's scatter positions exactly (`parallel_rank_sort_matches_serial_permutation`
// pins this against the reference permutation).
// ---------------------------------------------------------------------------

/// Pass A over one request range; also the whole serial sort when called with the
/// full range and `requests_per_server` as the histogram row.
fn sort_pass_histogram(request_server: &[u32], rank: &mut [u32], hist_row: &mut [u32]) {
    hist_row.fill(0);
    for (rank_slot, &server) in rank.iter_mut().zip(request_server) {
        let count = &mut hist_row[server as usize];
        *rank_slot = *count;
        *count += 1;
    }
}

/// Pass B over one server range: exclusive prefix over pieces per server, plus the
/// per-server totals phase 2 and the observers read.
fn sort_pass_combine(
    hist: &[u32],
    num_servers: usize,
    server_lo: usize,
    off: &mut [u32],
    totals: &mut [u32],
) {
    let pieces = hist.len() / num_servers;
    for (i, total) in totals.iter_mut().enumerate() {
        let server = server_lo + i;
        let mut acc = 0u32;
        for k in 0..pieces {
            off[i * pieces + k] = acc;
            acc += hist[k * num_servers + server];
        }
        *total = acc;
    }
}

/// Pass C over one request range: piece-local rank → global within-segment rank.
fn sort_pass_rebase(
    request_server: &[u32],
    rank: &mut [u32],
    off: &[u32],
    piece: usize,
    pieces: usize,
) {
    for (rank_slot, &server) in rank.iter_mut().zip(request_server) {
        *rank_slot += off[server as usize * pieces + piece];
    }
}

// ---------------------------------------------------------------------------
// Piece descriptors. Each phase carves its buffers into disjoint sub-slices held by
// stack-allocated descriptors, then `drive_pieces` runs them in parallel; merges
// afterwards walk the descriptors in piece-index order. All borrows are plain safe
// `split_at_mut` carving — no unsafe, no overlapping writes.
// ---------------------------------------------------------------------------

/// Runs every populated piece descriptor, in parallel when the pool allows it. The
/// merge discipline is the caller's: walk `pieces` in index order afterwards.
fn drive_pieces<D: Send, F: Fn(&mut D) + Send + Sync>(pieces: &mut [Option<D>], task: F) {
    pieces.par_iter_mut().for_each(|slot| {
        if let Some(piece) = slot.as_mut() {
            task(piece);
        }
    });
}

/// Pass-A piece: one contiguous request range plus its own histogram row.
struct HistPiece<'a> {
    req: &'a [u32],
    rank: &'a mut [u32],
    row: &'a mut [u32],
}

/// Pass-B piece: one contiguous server range of the offset matrix and totals.
struct CombinePiece<'a> {
    server_lo: usize,
    off: &'a mut [u32],
    totals: &'a mut [u32],
}

/// Pass-C piece: one contiguous request range, rebased in place.
struct RebasePiece<'a> {
    piece: usize,
    req: &'a [u32],
    rank: &'a mut [u32],
}

/// Phase-2 piece: one contiguous server range (states, loads, accept counts).
struct DecidePiece<'a> {
    server_lo: usize,
    states: &'a mut [u64],
    loads: &'a mut [u32],
    incoming: &'a [u32],
    accept: &'a mut [u32],
}

/// Phase-3 per-piece output tallies.
#[derive(Debug, Clone, Copy, Default)]
struct SettleCounts {
    alive: u32,
    assigned: u32,
    released: u32,
}

/// Phase-3 piece: one contiguous ball-slot range writing into carved scratch.
struct SettlePiece<'a> {
    slot_lo: usize,
    slots: &'a [u32],
    alive_out: &'a mut [u32],
    assigned_out: &'a mut [u64],
    release_out: &'a mut [u32],
    counts: SettleCounts,
}

impl SettlePiece<'_> {
    /// Settles every ball in this piece's slot range; surplus accepts are recorded for
    /// the post-join load release, survivors go to `alive_out` in slot order.
    ///
    /// Under [`SettleRule::FirstAccepted`] the first accepted choice wins
    /// (`rank < accept_count`). Under [`SettleRule::LeastLoaded`] the accepted choice
    /// with the smallest `(post-decision load, server index)` wins; `loads` is the
    /// phase-2 output snapshot, identical for every piece, so the pick is a pure
    /// function of the round's decisions — never of piece or thread scheduling.
    fn run(
        &mut self,
        choices: usize,
        rule: SettleRule,
        request_server: &[u32],
        request_rank: &[u32],
        accept_count: &[u32],
        loads: &[u32],
    ) {
        let mut alive = 0usize;
        let mut assigned = 0usize;
        let mut released = 0usize;
        for (i, &ball) in self.slots.iter().enumerate() {
            let base = (self.slot_lo + i) * choices;
            // Pick the winning accepted request, if any. `accept_count[server]` is
            // fresh for every request's server: that server received at least one
            // request this round (this one), so phase 2 visited it.
            let mut winner: Option<usize> = None;
            for idx in base..base + choices {
                let server = request_server[idx];
                if request_rank[idx] >= accept_count[server as usize] {
                    continue;
                }
                winner = Some(match (winner, rule) {
                    (None, _) => idx,
                    (Some(best), SettleRule::FirstAccepted) => best,
                    (Some(best), SettleRule::LeastLoaded) => {
                        let best_server = request_server[best];
                        let key = (loads[server as usize], server);
                        if key < (loads[best_server as usize], best_server) {
                            idx
                        } else {
                            best
                        }
                    }
                });
            }
            // Every accepted request except the winner is a surplus accept: the
            // server bumped its load for it in phase 2, so it must be released.
            if let Some(winner) = winner {
                for idx in base..base + choices {
                    if idx == winner {
                        continue;
                    }
                    let server = request_server[idx];
                    if request_rank[idx] < accept_count[server as usize] {
                        self.release_out[released] = server;
                        released += 1;
                    }
                }
                let server = request_server[winner];
                self.assigned_out[assigned] = (u64::from(ball) << 32) | u64::from(server);
                assigned += 1;
            } else {
                self.alive_out[alive] = ball;
                alive += 1;
            }
        }
        self.counts = SettleCounts {
            alive: alive as u32,
            assigned: assigned as u32,
            released: released as u32,
        };
    }
}

/// Census piece: one contiguous server range folding closed flags and max load.
struct CensusPiece<'a> {
    states: &'a [u64],
    loads: &'a [u32],
    closed: &'a mut [bool],
    closed_count: u64,
    max_load: u32,
}

/// Fluent constructor for [`Simulation`], obtained from [`Simulation::builder`].
///
/// The graph and the protocol are required; demand defaults to `Constant(1)`, the seed
/// to 0 and the round cap to [`SimConfig::DEFAULT_MAX_ROUNDS`]. Observers are borrowed
/// per run through [`Simulation::run_observed`].
///
/// ```
/// use clb_engine::{Demand, MaxLoadObserver, Simulation};
/// # use clb_engine::protocol::{Protocol, ServerCtx};
/// # struct AcceptAll;
/// # impl Protocol for AcceptAll {
/// #     fn server_decide(&self, _: &mut u64, ctx: &ServerCtx) -> u32 { ctx.incoming }
/// #     fn server_is_closed(&self, _: u64, _: u32) -> bool { false }
/// # }
/// let graph = clb_graph::generators::regular_random(32, 8, 1).unwrap();
/// let mut sim = Simulation::builder(&graph)
///     .protocol(AcceptAll)
///     .demand(Demand::Constant(2))
///     .seed(42)
///     .max_rounds(600)
///     .build();
/// let mut max_load = MaxLoadObserver::new();
/// let result = sim.run_observed(&mut [&mut max_load]);
/// assert_eq!(max_load.max_load, result.max_load);
/// ```
pub struct SimulationBuilder<'g> {
    graph: &'g BipartiteGraph,
    protocol: Option<Box<dyn Protocol>>,
    demand: Demand,
    config: SimConfig,
    intra_pieces: Option<usize>,
    workload: Option<OnlineWorkload>,
}

impl<'g> SimulationBuilder<'g> {
    fn new(graph: &'g BipartiteGraph) -> Self {
        Self {
            graph,
            protocol: None,
            demand: Demand::Constant(1),
            config: SimConfig::default(),
            intra_pieces: None,
            workload: None,
        }
    }

    /// Sets the protocol (required): a concrete protocol such as `Saer::new(8, 2)`,
    /// or a `Box<dyn Protocol>` chosen at runtime, which is kept as is.
    pub fn protocol(mut self, protocol: impl Into<Box<dyn Protocol>>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Sets the per-client demand (default: one ball per client).
    pub fn demand(mut self, demand: Demand) -> Self {
        self.demand = demand;
        self
    }

    /// Sets the experiment seed (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the round cap (default: [`SimConfig::DEFAULT_MAX_ROUNDS`]).
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Replaces the whole simulation config (seed + round cap) at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the intra-round piece plan (clamped to `1..=32` pieces for every
    /// phase). The plan is normally derived from problem sizes alone, so small
    /// instances run the fused serial path; this override forces the parallel code
    /// paths regardless of size. Results are **bit-identical for every setting** —
    /// the override exists so tests and benchmarks can exercise the parallel path on
    /// instances small enough to check exhaustively.
    pub fn intra_step_pieces(mut self, pieces: usize) -> Self {
        self.intra_pieces = Some(pieces);
        self
    }

    /// Attaches an online workload: balls arrive at round boundaries per the arrival
    /// process and depart after their sampled service time (see [`OnlineWorkload`]).
    /// The demand still seeds the system with an initial batch (use
    /// `Demand::Constant(0)` for a pure open system). Without a workload, the
    /// simulation runs the paper's batch semantics, bit-for-bit unchanged.
    pub fn workload(mut self, workload: OnlineWorkload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    /// Panics if no protocol was set, if a client with a non-empty demand has an empty
    /// neighbourhood (its balls could never be placed, so the run would trivially never
    /// complete), if the demand is inconsistent with the graph (see
    /// [`Demand::materialize`]), or if the system is vacuous — zero demand and no
    /// online workload supplying arrivals.
    pub fn build(self) -> Simulation<'g> {
        let protocol = self
            .protocol
            .expect("SimulationBuilder: a protocol is required");
        let graph = self.graph;
        let config = self.config;
        let n = graph.num_clients();
        let per_client = self.demand.materialize(n, config.seed);
        let mut ball_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        ball_offsets.push(0);
        for (c, &balls) in per_client.iter().enumerate() {
            if balls > 0 {
                assert!(
                    graph.client_degree(ClientId::new(c)) > 0,
                    "client {c} has {balls} balls but no admissible server"
                );
            }
            acc += balls;
            ball_offsets.push(acc);
        }
        let initial_balls = acc as usize;
        let mut ball_owner = vec![0u32; initial_balls];
        for c in 0..n {
            for b in ball_offsets[c]..ball_offsets[c + 1] {
                ball_owner[b as usize] = c as u32;
            }
        }

        // Online workload: materialize the whole arrival schedule and every arriving
        // ball's owner up front. Ball ids, owners and per-round counts become pure
        // functions of `(seed, workload)` fixed before the first round runs, and the
        // round buffers can be sized once for the system's lifetime total.
        let online = self.workload.map(|workload| {
            if let Err(msg) = workload.validate() {
                panic!("SimulationBuilder: invalid online workload: {msg}");
            }
            let arrivals_per_round = workload.arrivals_per_round(config.seed);
            let total_arrivals: u64 = arrivals_per_round.iter().map(|&c| u64::from(c)).sum();
            let capacity = (initial_balls as u64).checked_add(total_arrivals);
            let capacity = match capacity {
                Some(c) if c <= u64::from(u32::MAX) => c as usize,
                _ => panic!(
                    "online workload overflows the engine's 2^32 - 1 ball-id limit: \
                     {initial_balls} initial balls + {total_arrivals} arrivals"
                ),
            };
            let eligible: Vec<u32> = (0..n)
                .filter(|&c| graph.client_degree(ClientId::new(c)) > 0)
                .map(|c| c as u32)
                .collect();
            assert!(
                total_arrivals == 0 || !eligible.is_empty(),
                "online workload has arrivals but no client has an admissible server"
            );
            for ball in initial_balls as u64..capacity as u64 {
                let owner = eligible[workload.owner_index(config.seed, ball, eligible.len())];
                ball_owner.push(owner);
            }
            let mut birth_round = vec![1u32; initial_balls];
            birth_round.resize(capacity, 0);
            OnlineState {
                workload,
                arrivals_per_round,
                total_arrivals,
                injected: 0,
                next_ball: initial_balls as u32,
                birth_round,
                settle_round: vec![0; capacity],
                depart_calendar: Vec::new(),
            }
        });

        let total_balls = ball_owner.len();
        assert!(
            total_balls > 0,
            "simulation has no balls: the demand is zero and no online workload supplies arrivals"
        );
        let choices = protocol.choices_per_round().max(1);
        let request_capacity = checked_request_count(total_balls, choices);
        let plan = PiecePlan::for_sizes(
            request_capacity,
            graph.num_servers(),
            total_balls,
            self.intra_pieces,
        );
        let buffers = RoundBuffers::new(graph.num_servers(), total_balls, choices, plan);
        Simulation {
            graph,
            protocol,
            config,
            factory: StreamFactory::new(config.seed).domain(PROTOCOL_DOMAIN),
            ball_offsets,
            ball_owner,
            ball_assigned: vec![UNASSIGNED; total_balls],
            server_load: vec![0; graph.num_servers()],
            server_states: vec![0; graph.num_servers()],
            round: 0,
            alive_balls: (0..initial_balls as u32).collect(),
            total_messages: 0,
            last_closed_servers: 0,
            last_max_load: 0,
            in_service: 0,
            online,
            buffers,
        }
    }
}

/// Mutable bookkeeping for an online workload (present iff one was attached).
///
/// The arrival schedule, every ball's owner and every ball's service time are pure
/// functions of `(seed, workload)` fixed at build; this struct only tracks *progress*
/// through that predetermined script plus the per-ball birth/settle rounds the
/// latency accounting needs.
struct OnlineState {
    workload: OnlineWorkload,
    /// Balls arriving at the start of round `t` (index `t - 1`); fixed at build.
    arrivals_per_round: Vec<u32>,
    /// Sum of `arrivals_per_round`, cached.
    total_arrivals: u64,
    /// Arrivals injected so far; the run is over when this reaches `total_arrivals`
    /// and the alive list is drained.
    injected: u64,
    /// First not-yet-injected ball id (arriving balls get ids after the initial batch).
    next_ball: u32,
    /// Round each ball entered the system (1 for the initial batch, the arrival round
    /// for online balls, 0 = not yet arrived).
    birth_round: Vec<u32>,
    /// Round each ball settled (0 = not yet settled). Latency of a settled ball is
    /// `settle_round - birth_round + 1`.
    settle_round: Vec<u32>,
    /// `depart_calendar[t]` holds one entry per ball departing at the start of round
    /// `t` — the server it releases. Load decrements commute, so the push order
    /// (piece-index order within a round) never matters.
    depart_calendar: Vec<Vec<u32>>,
}

/// A protocol run on a fixed graph: owns all mutable state of the process.
///
/// Constructed with [`Simulation::builder`]; works with any [`Protocol`], held as a
/// `Box<dyn Protocol>` (one virtual call per server decision and census check).
pub struct Simulation<'g> {
    graph: &'g BipartiteGraph,
    protocol: Box<dyn Protocol>,
    config: SimConfig,
    factory: StreamFactory,

    // Ball layout: balls of client `c` occupy indices `ball_offsets[c]..ball_offsets[c+1]`.
    ball_offsets: Vec<u32>,
    ball_owner: Vec<u32>,
    ball_assigned: Vec<u32>,

    server_load: Vec<u32>,
    /// One protocol state word per server, zeroed at build (see [`Protocol`]).
    server_states: Vec<u64>,

    round: u32,
    alive_balls: Vec<u32>,
    total_messages: u64,

    // Census cache written by the round's closed/max fold; valid once `round > 0`,
    // so `result()` never re-scans the servers after a round has run.
    last_closed_servers: u64,
    last_max_load: u32,

    // Balls currently occupying a server (settled, not yet departed). In batch mode
    // departures never happen, so this is the cumulative settled count.
    in_service: u64,
    online: Option<OnlineState>,

    buffers: RoundBuffers,
}

impl<'g> Simulation<'g> {
    /// Starts building a simulation on `graph`.
    pub fn builder(graph: &'g BipartiteGraph) -> SimulationBuilder<'g> {
        SimulationBuilder::new(graph)
    }

    /// The graph the simulation runs on.
    pub fn graph(&self) -> &BipartiteGraph {
        self.graph
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &dyn Protocol {
        &*self.protocol
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of balls not yet assigned.
    pub fn alive_count(&self) -> u64 {
        self.alive_balls.len() as u64
    }

    /// Total number of balls in the system.
    pub fn total_balls(&self) -> u64 {
        self.ball_owner.len() as u64
    }

    /// True if every ball has been assigned and (online) no arrivals remain.
    pub fn is_complete(&self) -> bool {
        self.alive_balls.is_empty() && self.pending_arrivals() == 0
    }

    /// Balls the online workload has not injected yet (0 in batch mode).
    pub fn pending_arrivals(&self) -> u64 {
        self.online
            .as_ref()
            .map_or(0, |o| o.total_arrivals - o.injected)
    }

    /// Balls currently occupying a server (settled and not yet departed). In batch
    /// mode this is the cumulative settled count.
    pub fn in_service(&self) -> u64 {
        self.in_service
    }

    /// Per-ball settle latencies (`settle_round - birth_round + 1`) for every ball
    /// settled so far, in ball-id order. `None` unless an online workload is attached
    /// (batch mode does not track per-ball birth/settle rounds).
    pub fn settle_latencies(&self) -> Option<Vec<u32>> {
        let online = self.online.as_ref()?;
        Some(
            online
                .settle_round
                .iter()
                .zip(&online.birth_round)
                .filter(|&(&settle, _)| settle != 0)
                .map(|(&settle, &birth)| settle - birth + 1)
                .collect(),
        )
    }

    /// Current load of every server.
    pub fn server_loads(&self) -> &[u32] {
        &self.server_load
    }

    /// Per-server protocol state words (e.g. SAER's received-request counts, to
    /// inspect which servers burned after a run).
    pub fn server_states(&self) -> &[u64] {
        &self.server_states
    }

    /// The servers assigned to the balls of `client`, one entry per ball;
    /// `None` for balls still alive.
    pub fn client_assignment(&self, client: ClientId) -> Vec<Option<u32>> {
        let lo = self.ball_offsets[client.index()] as usize;
        let hi = self.ball_offsets[client.index() + 1] as usize;
        self.ball_assigned[lo..hi]
            .iter()
            .map(|&s| if s == UNASSIGNED { None } else { Some(s) })
            .collect()
    }

    /// Executes rounds until completion or the round cap.
    pub fn run(&mut self) -> RunResult {
        self.run_observed(&mut [])
    }

    /// Executes rounds until completion or the round cap, invoking every borrowed
    /// observer after each round.
    pub fn run_observed(&mut self, observers: &mut [&mut dyn Observer]) -> RunResult {
        while !self.is_complete() && self.round < self.config.max_rounds {
            let record = self.step();
            let view = RoundView {
                record: &record,
                graph: self.graph,
                server_loads: &self.server_load,
                requests_per_server: &self.buffers.requests_per_server,
                closed: &self.buffers.closed,
            };
            for obs in observers.iter_mut() {
                obs.on_round(&view);
            }
        }
        self.result()
    }

    /// The outcome so far (callable at any point; `completed` reflects the current
    /// alive-ball count).
    ///
    /// Once a round has run this reuses the census the round already folded (closed
    /// count and max load) instead of re-scanning every server; the cold path below
    /// only runs for a `result()` call before the first `step()`.
    pub fn result(&self) -> RunResult {
        let (closed_servers, max_load) = if self.round > 0 {
            (self.last_closed_servers, self.last_max_load)
        } else {
            let closed = self
                .server_states
                .iter()
                .zip(&self.server_load)
                .filter(|(&state, &load)| self.protocol.server_is_closed(state, load))
                .count() as u64;
            (closed, self.server_load.iter().copied().max().unwrap_or(0))
        };
        let completed = self.is_complete();
        RunResult {
            completed,
            hit_round_cap: !completed && self.round >= self.config.max_rounds,
            rounds: self.round,
            total_messages: self.total_messages,
            max_load,
            unassigned_balls: self.alive_balls.len() as u64 + self.pending_arrivals(),
            total_balls: self.ball_owner.len() as u64,
            closed_servers,
        }
    }

    /// Executes one round and returns its summary record: phase 1 (clients submit),
    /// phase 2 (servers decide), phase 3 (balls settle), census. Every phase runs over
    /// contiguous pieces per the build-time piece plan and merges in piece-index
    /// order; nothing is allocated on the way.
    pub fn step(&mut self) -> RoundRecord {
        self.round += 1;
        let round = self.round;

        // Online round prologue — departures, then arrivals, both before any request
        // of the round is routed. Each departure frees one slot of its server's load
        // (decrements commute, so the calendar order is irrelevant); arrivals append
        // to the alive list in ascending ball-id order. Both are pure functions of the
        // schedule, so the prologue is trivially thread- and piece-independent.
        let mut departures = 0u64;
        let mut arrivals = 0u64;
        if let Some(online) = self.online.as_mut() {
            if let Some(due) = online.depart_calendar.get_mut(round as usize) {
                let due = std::mem::take(due);
                departures = due.len() as u64;
                for &server in &due {
                    self.server_load[server as usize] -= 1;
                }
                self.in_service -= departures;
            }
            if let Some(&count) = online.arrivals_per_round.get(round as usize - 1) {
                for _ in 0..count {
                    let ball = online.next_ball;
                    online.next_ball += 1;
                    online.birth_round[ball as usize] = round;
                    self.alive_balls.push(ball);
                }
                online.injected += u64::from(count);
                arrivals = u64::from(count);
            }
        }

        let choices = self.protocol.choices_per_round().max(1);
        let per_ball = choices as usize;
        let rule = self.protocol.settle_rule();
        let graph = self.graph;
        let num_servers = graph.num_servers();
        let factory = self.factory;
        let ball_owner = &self.ball_owner;
        let alive = self.alive_balls.len();
        let total_requests = checked_request_count(alive, choices);

        let RoundBuffers {
            request_server,
            request_rank,
            requests_per_server,
            accept_count,
            closed,
            alive_next,
            alive_scratch,
            assigned_scratch,
            release_scratch,
            piece_hist,
            piece_off,
            plan,
        } = &mut self.buffers;
        let plan = *plan;

        // Phase 1 — every alive ball picks `choices` destinations independently and
        // uniformly at random (with replacement) from its owner's neighbourhood,
        // written straight into the flat slot-major request buffer. Parallel over
        // balls; the per-(ball, round) stream keeps it deterministic.
        //
        // Covering invariant: the buffer is sliced, never zeroed — the slice holds
        // exactly `alive` chunks of `choices` slots, the zip pairs every chunk with an
        // alive ball, and the inner loop writes every slot of its chunk. Stale tail
        // entries beyond `total_requests` are never read.
        request_server[..total_requests]
            .par_chunks_mut(per_ball)
            .zip(self.alive_balls.par_iter())
            .for_each(|(picks, &ball)| {
                let client = ball_owner[ball as usize];
                let neigh = graph.client_neighbors(ClientId::new(client as usize));
                let mut rng = factory.stream3(client as u64, ball as u64, round as u64);
                for pick in picks {
                    *pick = neigh[rng.gen_index(neigh.len())].0;
                }
            });

        let num_requests = total_requests as u64;
        self.total_messages += 2 * num_requests;

        // Canonical server-major grouping, rank form: `request_rank[j]` becomes the
        // position of request `j` within its server's segment, counting in ascending
        // request index — the order the former explicit counting sort produced. The
        // rank buffer is sliced, never zeroed: pass A writes every slot in the slice.
        if plan.sort == 1 {
            // Fused serial sort: one pass fills both ranks and per-server totals.
            sort_pass_histogram(
                &request_server[..total_requests],
                &mut request_rank[..total_requests],
                requests_per_server,
            );
        } else {
            let pieces = plan.sort;
            // Pass A — per-piece histograms + piece-local ranks, carved by request range.
            {
                let req_all: &[u32] = &request_server[..total_requests];
                let mut descs: [Option<HistPiece>; MAX_INTRA_PIECES] =
                    std::array::from_fn(|_| None);
                let mut rank_rest: &mut [u32] = &mut request_rank[..total_requests];
                let mut hist_rest: &mut [u32] = piece_hist;
                let mut consumed = 0;
                for (k, slot) in descs[..pieces].iter_mut().enumerate() {
                    let hi = piece_range(total_requests, pieces, k).end;
                    let (rank, rest) = std::mem::take(&mut rank_rest).split_at_mut(hi - consumed);
                    rank_rest = rest;
                    let (row, rest) = std::mem::take(&mut hist_rest).split_at_mut(num_servers);
                    hist_rest = rest;
                    *slot = Some(HistPiece {
                        req: &req_all[consumed..hi],
                        rank,
                        row,
                    });
                    consumed = hi;
                }
                drive_pieces(&mut descs[..pieces], |p| {
                    sort_pass_histogram(p.req, p.rank, p.row)
                });
            }
            // Pass B — exclusive prefix across pieces, carved by server range.
            {
                let hist: &[u32] = piece_hist;
                let combine_pieces = plan.server;
                let mut descs: [Option<CombinePiece>; MAX_INTRA_PIECES] =
                    std::array::from_fn(|_| None);
                let mut off_rest: &mut [u32] = piece_off;
                let mut totals_rest: &mut [u32] = requests_per_server;
                let mut consumed = 0;
                for (k, slot) in descs[..combine_pieces].iter_mut().enumerate() {
                    let hi = piece_range(num_servers, combine_pieces, k).end;
                    let take = hi - consumed;
                    let (off, rest) = std::mem::take(&mut off_rest).split_at_mut(take * pieces);
                    off_rest = rest;
                    let (totals, rest) = std::mem::take(&mut totals_rest).split_at_mut(take);
                    totals_rest = rest;
                    *slot = Some(CombinePiece {
                        server_lo: consumed,
                        off,
                        totals,
                    });
                    consumed = hi;
                }
                drive_pieces(&mut descs[..combine_pieces], |p| {
                    sort_pass_combine(hist, num_servers, p.server_lo, p.off, p.totals)
                });
            }
            // Pass C — rebase piece-local ranks to global within-segment ranks.
            {
                let req_all: &[u32] = &request_server[..total_requests];
                let off: &[u32] = piece_off;
                let mut descs: [Option<RebasePiece>; MAX_INTRA_PIECES] =
                    std::array::from_fn(|_| None);
                let mut rank_rest: &mut [u32] = &mut request_rank[..total_requests];
                let mut consumed = 0;
                for (k, slot) in descs[..pieces].iter_mut().enumerate() {
                    let hi = piece_range(total_requests, pieces, k).end;
                    let (rank, rest) = std::mem::take(&mut rank_rest).split_at_mut(hi - consumed);
                    rank_rest = rest;
                    *slot = Some(RebasePiece {
                        piece: k,
                        req: &req_all[consumed..hi],
                        rank,
                    });
                    consumed = hi;
                }
                drive_pieces(&mut descs[..pieces], |p| {
                    sort_pass_rebase(p.req, p.rank, off, p.piece, pieces)
                });
            }
        }

        // Phase 2 — per-server threshold decisions over carved server ranges. Each
        // server's decision touches only its own state, load and accept count, so the
        // pieces are disjoint; within a piece servers run in ascending order, the same
        // order the serial loop used.
        //
        // Covering invariant for `accept_count`: entries for servers with zero
        // incoming requests stay stale, and phase 3 only reads `accept_count[s]` for
        // `s = request_server[idx]` — a server that received at least one request.
        {
            let server_pieces = plan.server;
            let incoming_all: &[u32] = requests_per_server;
            let mut descs: [Option<DecidePiece>; MAX_INTRA_PIECES] = std::array::from_fn(|_| None);
            let mut states_rest: &mut [u64] = &mut self.server_states;
            let mut loads_rest: &mut [u32] = &mut self.server_load;
            let mut accept_rest: &mut [u32] = accept_count;
            let mut consumed = 0;
            for (k, slot) in descs[..server_pieces].iter_mut().enumerate() {
                let hi = piece_range(num_servers, server_pieces, k).end;
                let take = hi - consumed;
                let (states, rest) = std::mem::take(&mut states_rest).split_at_mut(take);
                states_rest = rest;
                let (loads, rest) = std::mem::take(&mut loads_rest).split_at_mut(take);
                loads_rest = rest;
                let (accept, rest) = std::mem::take(&mut accept_rest).split_at_mut(take);
                accept_rest = rest;
                *slot = Some(DecidePiece {
                    server_lo: consumed,
                    states,
                    loads,
                    incoming: &incoming_all[consumed..hi],
                    accept,
                });
                consumed = hi;
            }
            let protocol = &*self.protocol;
            drive_pieces(&mut descs[..server_pieces], |p| {
                for i in 0..p.incoming.len() {
                    let incoming = p.incoming[i];
                    if incoming == 0 {
                        continue;
                    }
                    let ctx = ServerCtx {
                        server: (p.server_lo + i) as u32,
                        round,
                        current_load: p.loads[i],
                        incoming,
                    };
                    let accept = protocol.server_decide(&mut p.states[i], &ctx).min(incoming);
                    p.loads[i] += accept;
                    p.accept[i] = accept;
                }
            });
        }

        // Phase 3 — balls settle over carved slot ranges. With a single choice per
        // round each ball has exactly one request; with k choices a ball keeps one
        // accepted destination (per the settle rule) and surplus accepts are
        // *recorded* per piece, then released from their servers' loads after the
        // join. Load decrements commute, so the piece count can never change the
        // loads the next round observes.
        let mut balls_assigned = 0u64;
        {
            let slot_pieces = plan.slot;
            let slots_all: &[u32] = &self.alive_balls;
            let req_all: &[u32] = &request_server[..total_requests];
            let rank_all: &[u32] = &request_rank[..total_requests];
            let accept_all: &[u32] = accept_count;
            let mut descs: [Option<SettlePiece>; MAX_INTRA_PIECES] = std::array::from_fn(|_| None);
            let mut alive_rest: &mut [u32] = &mut alive_scratch[..alive];
            let mut assigned_rest: &mut [u64] = &mut assigned_scratch[..alive];
            let mut release_rest: &mut [u32] = if per_ball > 1 {
                &mut release_scratch[..total_requests]
            } else {
                &mut []
            };
            let mut consumed = 0;
            for (k, slot) in descs[..slot_pieces].iter_mut().enumerate() {
                let hi = piece_range(alive, slot_pieces, k).end;
                let take = hi - consumed;
                let (alive_out, rest) = std::mem::take(&mut alive_rest).split_at_mut(take);
                alive_rest = rest;
                let (assigned_out, rest) = std::mem::take(&mut assigned_rest).split_at_mut(take);
                assigned_rest = rest;
                let release_out: &mut [u32] = if per_ball > 1 {
                    let (r, rest) = std::mem::take(&mut release_rest).split_at_mut(take * per_ball);
                    release_rest = rest;
                    r
                } else {
                    &mut []
                };
                *slot = Some(SettlePiece {
                    slot_lo: consumed,
                    slots: &slots_all[consumed..hi],
                    alive_out,
                    assigned_out,
                    release_out,
                    counts: SettleCounts::default(),
                });
                consumed = hi;
            }
            // Post-decision load snapshot for the least-loaded settle rule; the same
            // slice is visible to every piece, so the pick is scheduling-independent.
            let loads_snapshot: &[u32] = &self.server_load;
            drive_pieces(&mut descs[..slot_pieces], |p| {
                p.run(
                    per_ball,
                    rule,
                    req_all,
                    rank_all,
                    accept_all,
                    loads_snapshot,
                )
            });

            // Merge in piece-index order: survivors concatenate piece-by-piece (so
            // `alive_next` is in ascending slot order, exactly the serial order).
            alive_next.clear();
            for p in descs[..slot_pieces].iter().flatten() {
                alive_next.extend_from_slice(&p.alive_out[..p.counts.alive as usize]);
                balls_assigned += u64::from(p.counts.assigned);
            }

            // The two remaining applications touch disjoint state (ball assignments
            // plus online settle bookkeeping vs server loads), so they run as the two
            // arms of a join.
            let descs_done = &descs[..slot_pieces];
            let ball_assigned = &mut self.ball_assigned;
            let online = self.online.as_mut();
            let seed = self.config.seed;
            let max_rounds = self.config.max_rounds;
            let server_load = &mut self.server_load;
            rayon::join(
                || match online {
                    None => {
                        for p in descs_done.iter().flatten() {
                            for &packed in &p.assigned_out[..p.counts.assigned as usize] {
                                ball_assigned[(packed >> 32) as usize] = packed as u32;
                            }
                        }
                    }
                    Some(online) => {
                        // Settled balls record their latency and schedule their
                        // departure. The service draw is keyed by ball id alone, and
                        // departures only decrement loads, so piece order cannot leak
                        // into anything observable. A departure falling beyond the
                        // round cap is not scheduled: it could never be applied
                        // within the run, and skipping it keeps the calendar bounded
                        // by `max_rounds`.
                        for p in descs_done.iter().flatten() {
                            for &packed in &p.assigned_out[..p.counts.assigned as usize] {
                                let ball = (packed >> 32) as usize;
                                ball_assigned[ball] = packed as u32;
                                online.settle_round[ball] = round;
                                let service = online.workload.service_rounds(seed, ball as u64);
                                if let Some(due) = round.checked_add(service) {
                                    if due <= max_rounds {
                                        let due = due as usize;
                                        if online.depart_calendar.len() <= due {
                                            online.depart_calendar.resize_with(due + 1, Vec::new);
                                        }
                                        online.depart_calendar[due].push(packed as u32);
                                    }
                                }
                            }
                        }
                    }
                },
                || {
                    // Each surplus accept frees the slot its server reserved in phase 2.
                    for p in descs_done.iter().flatten() {
                        for &server in &p.release_out[..p.counts.released as usize] {
                            server_load[server as usize] -= 1;
                        }
                    }
                },
            );
        }
        std::mem::swap(&mut self.alive_balls, alive_next);
        self.in_service += balls_assigned;

        // Census — closed flags, closed count and max load folded in one pass over
        // carved server ranges, reduced in piece-index order. The fold is cached so
        // `result()` never re-scans the servers.
        let (closed_servers, max_load) = {
            let census_pieces = plan.server;
            let states_all: &[u64] = &self.server_states;
            let loads_all: &[u32] = &self.server_load;
            let mut descs: [Option<CensusPiece>; MAX_INTRA_PIECES] = std::array::from_fn(|_| None);
            let mut closed_rest: &mut [bool] = closed;
            let mut consumed = 0;
            for (k, slot) in descs[..census_pieces].iter_mut().enumerate() {
                let hi = piece_range(num_servers, census_pieces, k).end;
                let (closed_piece, rest) =
                    std::mem::take(&mut closed_rest).split_at_mut(hi - consumed);
                closed_rest = rest;
                *slot = Some(CensusPiece {
                    states: &states_all[consumed..hi],
                    loads: &loads_all[consumed..hi],
                    closed: closed_piece,
                    closed_count: 0,
                    max_load: 0,
                });
                consumed = hi;
            }
            let protocol = &*self.protocol;
            drive_pieces(&mut descs[..census_pieces], |p| {
                let mut count = 0u64;
                let mut max = 0u32;
                for ((flag, &state), &load) in
                    p.closed.iter_mut().zip(p.states.iter()).zip(p.loads.iter())
                {
                    let is_closed = protocol.server_is_closed(state, load);
                    *flag = is_closed;
                    count += u64::from(is_closed);
                    max = max.max(load);
                }
                p.closed_count = count;
                p.max_load = max;
            });
            let mut total = 0u64;
            let mut max = 0u32;
            for p in descs[..census_pieces].iter().flatten() {
                total += p.closed_count;
                max = max.max(p.max_load);
            }
            (total, max)
        };
        self.last_closed_servers = closed_servers;
        self.last_max_load = max_load;

        RoundRecord {
            round,
            requests_sent: num_requests,
            balls_assigned,
            alive_after: self.alive_balls.len() as u64,
            messages: 2 * num_requests,
            closed_servers,
            max_load,
            arrivals,
            departures,
            in_service_after: self.in_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clb_graph::generators;

    /// Servers accept everything: classic one-choice.
    struct AcceptAll;
    impl Protocol for AcceptAll {
        fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
            ctx.incoming
        }
        fn server_is_closed(&self, _state: u64, _load: u32) -> bool {
            false
        }
    }

    /// Servers reject everything before `open_round`, then accept everything.
    struct OpensAt(u32);
    impl Protocol for OpensAt {
        fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
            if ctx.round >= self.0 {
                ctx.incoming
            } else {
                0
            }
        }
        fn server_is_closed(&self, _state: u64, _load: u32) -> bool {
            false
        }
    }

    /// Capacity-1 servers contacted with two choices per ball: exercises the release path.
    struct TwoChoiceCapacityOne;
    impl Protocol for TwoChoiceCapacityOne {
        fn choices_per_round(&self) -> u32 {
            2
        }
        fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
            1u32.saturating_sub(ctx.current_load).min(ctx.incoming)
        }
        fn server_is_closed(&self, _state: u64, load: u32) -> bool {
            load >= 1
        }
    }

    #[test]
    fn accept_all_finishes_in_one_round() {
        let g = generators::regular_random(32, 8, 1).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(3))
            .seed(5)
            .build();
        assert_eq!(sim.total_balls(), 96);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.unassigned_balls, 0);
        assert_eq!(result.total_messages, 2 * 96);
        assert_eq!(result.closed_servers, 0);
        // Every ball landed on a neighbour of its owner.
        for c in g.clients() {
            for server in sim.client_assignment(c) {
                let server = server.expect("all balls assigned");
                assert!(g.client_neighbors(c).iter().any(|s| s.0 == server));
            }
        }
        // Load conservation: total load equals total balls.
        let total_load: u32 = sim.server_loads().iter().sum();
        assert_eq!(total_load as u64, sim.total_balls());
    }

    #[test]
    fn rejections_delay_completion_and_cost_work() {
        let g = generators::regular_random(16, 4, 2).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(OpensAt(4))
            .demand(Demand::Constant(1))
            .seed(1)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 4);
        // Every ball was re-submitted in rounds 1..4: work = 2 * balls * 4.
        assert_eq!(result.total_messages, 2 * 16 * 4);
    }

    #[test]
    fn round_cap_stops_non_terminating_runs() {
        let g = generators::regular_random(8, 2, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(1))
            .seed(1)
            .max_rounds(7)
            .build();
        let result = sim.run();
        assert!(!result.completed);
        assert!(
            result.hit_round_cap,
            "an incomplete run that reached max_rounds must report the cap"
        );
        assert_eq!(result.rounds, 7);
        assert_eq!(result.unassigned_balls, 8);
        assert_eq!(result.max_load, 0);
    }

    #[test]
    fn completed_runs_do_not_report_the_round_cap() {
        let g = generators::regular_random(8, 2, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .seed(1)
            .max_rounds(1)
            .build();
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.rounds, 1);
        assert!(
            !result.hit_round_cap,
            "finishing exactly at the cap is not a truncation"
        );
    }

    #[test]
    fn step_by_step_matches_run() {
        let g = generators::regular_random(16, 4, 9).unwrap();
        let build = || {
            Simulation::builder(&g)
                .protocol(OpensAt(3))
                .demand(Demand::Constant(2))
                .seed(11)
                .build()
        };
        let mut a = build();
        let mut b = build();
        let result_a = a.run();
        let mut rounds = 0;
        while !b.is_complete() && rounds < 100 {
            let record = b.step();
            rounds += 1;
            assert_eq!(record.round, rounds);
        }
        assert_eq!(result_a, b.result());
    }

    #[test]
    fn two_choice_release_keeps_loads_consistent() {
        // 8 clients, 8 servers, capacity 1, one ball each: a perfect matching must
        // eventually emerge and no server may end with load > 1.
        let g = generators::complete(8, 8).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        let result = sim.run();
        assert!(result.completed, "matching should complete: {result:?}");
        assert!(result.max_load <= 1);
        // Every server holds exactly one ball, and holding a ball is what closes a
        // server under this protocol.
        assert_eq!(result.closed_servers, 8);
        let total_load: u32 = sim.server_loads().iter().sum();
        assert_eq!(total_load, 8);
        // The protocol keeps no state of its own, so every state word stays zero.
        assert!(sim.server_states().iter().all(|&state| state == 0));
    }

    // Since PR 3 the vendored rayon stub is a real work-distributing thread pool, so
    // this genuinely exercises scheduling; `.intra_step_pieces(8)` additionally forces
    // the intra-round parallel path on this deliberately small instance.
    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::regular_random(64, 16, 21).unwrap();
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sim = Simulation::builder(&g)
                    .protocol(OpensAt(2))
                    .demand(Demand::Constant(2))
                    .seed(77)
                    .intra_step_pieces(8)
                    .build();
                let result = sim.run();
                (result, sim.server_loads().to_vec())
            })
        };
        let (r1, loads1) = run_with(1);
        let (r4, loads4) = run_with(4);
        assert_eq!(r1, r4);
        assert_eq!(loads1, loads4);
    }

    /// Builds the within-segment ranks with a given sort-piece count via the same
    /// three passes `step` drives, serially.
    fn rank_with_pieces(
        request_server: &[u32],
        num_servers: usize,
        pieces: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let len = request_server.len();
        let mut rank = vec![0u32; len];
        let mut totals = vec![0u32; num_servers];
        if pieces == 1 {
            sort_pass_histogram(request_server, &mut rank, &mut totals);
            return (rank, totals);
        }
        let mut hist = vec![0u32; pieces * num_servers];
        for k in 0..pieces {
            let r = piece_range(len, pieces, k);
            sort_pass_histogram(
                &request_server[r.clone()],
                &mut rank[r],
                &mut hist[k * num_servers..(k + 1) * num_servers],
            );
        }
        let mut off = vec![0u32; pieces * num_servers];
        sort_pass_combine(&hist, num_servers, 0, &mut off, &mut totals);
        for k in 0..pieces {
            let r = piece_range(len, pieces, k);
            sort_pass_rebase(&request_server[r.clone()], &mut rank[r], &off, k, pieces);
        }
        (rank, totals)
    }

    #[test]
    fn parallel_rank_sort_matches_serial_permutation() {
        // A skewed request pattern over 7 servers (server 5 gets nothing, server 0 is
        // hot) with a length that does not divide evenly into any piece count.
        let num_servers = 7;
        let request_server: Vec<u32> = (0..203u32)
            .map(
                |i| match i.wrapping_mul(2654435761).wrapping_mul(i + 1) % 10 {
                    0..=3 => 0,
                    4..=5 => 3,
                    6 => 1,
                    7 => 2,
                    8 => 4,
                    _ => 6,
                },
            )
            .collect();

        // Reference: the former explicit stable counting sort's permutation.
        let mut counts = vec![0u32; num_servers];
        for &s in &request_server {
            counts[s as usize] += 1;
        }
        let mut base = vec![0u32; num_servers];
        let mut acc = 0u32;
        for (b, &c) in base.iter_mut().zip(&counts) {
            *b = acc;
            acc += c;
        }
        let mut cursor = base.clone();
        let mut reference = vec![0u32; request_server.len()];
        for (i, &s) in request_server.iter().enumerate() {
            reference[cursor[s as usize] as usize] = i as u32;
            cursor[s as usize] += 1;
        }

        for pieces in [1, 2, 3, 8] {
            let (rank, totals) = rank_with_pieces(&request_server, num_servers, pieces);
            assert_eq!(totals, counts, "pieces={pieces}");
            // `base[s] + rank[i]` must be exactly where the reference scattered `i`.
            let mut sorted = vec![u32::MAX; request_server.len()];
            for (i, &s) in request_server.iter().enumerate() {
                let position = (base[s as usize] + rank[i]) as usize;
                assert_eq!(
                    sorted[position],
                    u32::MAX,
                    "pieces={pieces}: rank collision"
                );
                sorted[position] = i as u32;
            }
            assert_eq!(sorted, reference, "pieces={pieces}");
        }
    }

    /// Runs step-by-step under a forced piece plan (or the size-derived default for
    /// `None`) and returns everything a caller could observe.
    fn run_with_pieces(
        g: &clb_graph::BipartiteGraph,
        protocol: impl Into<Box<dyn Protocol>>,
        pieces: Option<usize>,
    ) -> (Vec<RoundRecord>, RunResult, Vec<u32>) {
        let mut builder = Simulation::builder(g)
            .protocol(protocol)
            .demand(Demand::Constant(2))
            .seed(9)
            .max_rounds(200);
        if let Some(p) = pieces {
            builder = builder.intra_step_pieces(p);
        }
        let mut sim = builder.build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 200 {
            records.push(sim.step());
        }
        (records, sim.result(), sim.server_loads().to_vec())
    }

    #[test]
    fn intra_step_pieces_do_not_change_results() {
        let g = generators::regular_random(96, 12, 33).unwrap();
        let piece_grid = [Some(2), Some(5), Some(32), None];
        // One-choice (no releases) and two-choice (surplus releases) protocols.
        let baseline = run_with_pieces(&g, OpensAt(3), Some(1));
        for pieces in piece_grid {
            assert_eq!(
                run_with_pieces(&g, OpensAt(3), pieces),
                baseline,
                "pieces={pieces:?}"
            );
        }
        let baseline = run_with_pieces(&g, TwoChoiceCapacityOne, Some(1));
        for pieces in piece_grid {
            assert_eq!(
                run_with_pieces(&g, TwoChoiceCapacityOne, pieces),
                baseline,
                "pieces={pieces:?}"
            );
        }
    }

    /// SAER's rule with threshold `c·d`: accept while the cumulative received count
    /// stays within it, otherwise burn. (`clb_protocols::Saer` implements the trait of
    /// the dev-dependency's copy of this crate, not this one.)
    struct SaerRule(u64);
    impl Protocol for SaerRule {
        fn server_decide(&self, received: &mut u64, ctx: &ServerCtx) -> u32 {
            *received += u64::from(ctx.incoming);
            if *received > self.0 {
                0
            } else {
                ctx.incoming
            }
        }
        fn server_is_closed(&self, received: u64, _load: u32) -> bool {
            received > self.0
        }
    }

    #[test]
    fn size_derived_plan_is_identical_across_thread_counts() {
        // Degree-8 striped graph: client `c` is wired to servers `(7c + i) mod S` for
        // i < 8, with S = n / 32, so each server sees ~32 requests in the first round.
        let clients = 1usize << 17;
        let servers = clients / 32;
        let edges: Vec<(u32, u32)> = (0..clients)
            .flat_map(|c| (0..8).map(move |i| (c as u32, ((7 * c + i) % servers) as u32)))
            .collect();
        let g = clb_graph::BipartiteGraph::from_edges(clients, servers, &edges).unwrap();

        // One ball per client and one choice per round: these sizes split the sort and
        // the settling into pieces but keep the server-range phases whole.
        let plan = PiecePlan::for_sizes(clients, servers, clients, None);
        assert!(
            plan.sort > 1 && plan.slot > 1 && plan.server == 1,
            "expected a mixed plan, got {plan:?}"
        );

        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sim = Simulation::builder(&g)
                    .protocol(SaerRule(24 * 2))
                    .demand(Demand::Constant(1))
                    .seed(88)
                    .max_rounds(200)
                    .build();
                let mut records = Vec::new();
                while !sim.is_complete() && sim.round() < 200 {
                    records.push(sim.step());
                }
                (records, sim.result(), sim.server_loads().to_vec())
            })
        };
        let baseline = run_with(1);
        assert!(
            baseline.0.len() > 1,
            "the instance should take several rounds"
        );
        for threads in [2, 4] {
            assert_eq!(run_with(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn explicit_demand_with_zero_ball_clients() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let demand = Demand::Explicit(vec![0, 3, 0, 1]);
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(demand)
            .seed(2)
            .build();
        assert_eq!(sim.total_balls(), 4);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(sim.client_assignment(ClientId::new(0)).len(), 0);
        assert_eq!(sim.client_assignment(ClientId::new(1)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "no admissible server")]
    fn isolated_client_with_demand_panics() {
        let g = clb_graph::BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "protocol is required")]
    fn builder_requires_a_protocol() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let _ = Simulation::builder(&g).demand(Demand::Constant(1)).build();
    }

    /// A protocol whose per-round choice count is absurdly large, to hit the request
    /// overflow guard without allocating anything first.
    struct ManyChoices(u32);
    impl Protocol for ManyChoices {
        fn choices_per_round(&self) -> u32 {
            self.0
        }
        fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
            ctx.incoming
        }
        fn server_is_closed(&self, _state: u64, _load: u32) -> bool {
            false
        }
    }

    #[test]
    fn request_count_guard_accepts_the_limit() {
        assert_eq!(checked_request_count(0, u32::MAX), 0);
        assert_eq!(checked_request_count(1, u32::MAX), u32::MAX as usize);
        assert_eq!(checked_request_count(6, 7), 42);
    }

    #[test]
    #[should_panic(expected = "request count overflow")]
    fn request_count_guard_rejects_overflow() {
        let _ = checked_request_count(2, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "request count overflow")]
    fn oversized_choice_count_is_diagnosed_at_build() {
        // 8 balls x u32::MAX choices per round can never be indexed by the engine's
        // 32-bit request ids; the guard must fire before any buffer is sized.
        let g = generators::regular_random(8, 2, 3).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(ManyChoices(u32::MAX))
            .demand(Demand::Constant(1))
            .build();
    }

    #[test]
    fn surplus_releases_are_excluded_from_total_messages() {
        // Two choices per ball on capacity-1 servers: surplus accepts (both choices
        // accepted) are released in phase 3. The documented convention is that those
        // release notifications do NOT count as messages: the total stays exactly
        // 2 x (requests submitted), matching the sum of the per-round records.
        let g = generators::complete(8, 8).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        let mut request_messages = 0u64;
        while !sim.is_complete() && sim.round() < 500 {
            let record = sim.step();
            assert_eq!(record.messages, 2 * record.requests_sent);
            request_messages += record.messages;
        }
        let result = sim.result();
        assert!(result.completed);
        assert_eq!(result.total_messages, request_messages);
    }

    #[test]
    fn least_loaded_settle_prefers_light_servers() {
        // One ball, two accepted choices: server 0 carries load 5, server 1 load 2.
        let slots = [0u32];
        let request_server = [0u32, 1];
        let request_rank = [0u32, 0];
        let accept_count = [1u32, 1];
        let loads = [5u32, 2];
        let run_rule = |rule: SettleRule| {
            let mut alive_out = [0u32; 1];
            let mut assigned_out = [0u64; 1];
            let mut release_out = [0u32; 2];
            let mut piece = SettlePiece {
                slot_lo: 0,
                slots: &slots,
                alive_out: &mut alive_out,
                assigned_out: &mut assigned_out,
                release_out: &mut release_out,
                counts: SettleCounts::default(),
            };
            piece.run(
                2,
                rule,
                &request_server,
                &request_rank,
                &accept_count,
                &loads,
            );
            assert_eq!(piece.counts.assigned, 1);
            assert_eq!(piece.counts.released, 1);
            (assigned_out[0] as u32, release_out[0])
        };
        // First-accepted keeps the slot-order winner (server 0), releasing server 1.
        assert_eq!(run_rule(SettleRule::FirstAccepted), (0, 1));
        // Least-loaded settles on the lighter server 1, releasing server 0.
        assert_eq!(run_rule(SettleRule::LeastLoaded), (1, 0));
    }

    #[test]
    fn least_loaded_ties_break_to_smallest_server_index() {
        let slots = [0u32];
        let request_server = [3u32, 1];
        let request_rank = [0u32, 0];
        let accept_count = [0u32, 1, 0, 1];
        let loads = [0u32, 4, 0, 4];
        let mut alive_out = [0u32; 1];
        let mut assigned_out = [0u64; 1];
        let mut release_out = [0u32; 2];
        let mut piece = SettlePiece {
            slot_lo: 0,
            slots: &slots,
            alive_out: &mut alive_out,
            assigned_out: &mut assigned_out,
            release_out: &mut release_out,
            counts: SettleCounts::default(),
        };
        piece.run(
            2,
            SettleRule::LeastLoaded,
            &request_server,
            &request_rank,
            &accept_count,
            &loads,
        );
        assert_eq!(
            assigned_out[0] as u32, 1,
            "equal loads: smallest index wins"
        );
        assert_eq!(release_out[0], 3);
    }

    /// One slot per server, freed again when the occupant departs: the shape of an
    /// online queueing server (contrast with SAER, whose received-request counter
    /// never forgets — the churn-incompatible shape).
    struct LoadCapOne;
    impl Protocol for LoadCapOne {
        fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
            1u32.saturating_sub(ctx.current_load).min(ctx.incoming)
        }
        fn server_is_closed(&self, _state: u64, load: u32) -> bool {
            load >= 1
        }
    }

    fn trace_workload(arrivals: Vec<u32>, service_rounds: u32) -> OnlineWorkload {
        OnlineWorkload {
            arrivals: crate::workload::ArrivalProcess::Trace { arrivals },
            service: crate::workload::ServiceDistribution::Deterministic {
                rounds: service_rounds,
            },
        }
    }

    #[test]
    fn departures_free_capacity_for_later_arrivals() {
        // One client, one capacity-1 server, one arrival per round for three rounds
        // with one-round service: each ball must settle in its arrival round because
        // the previous occupant departed at the round boundary. Without the departure
        // path, balls 2 and 3 could never settle.
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(LoadCapOne)
            .demand(Demand::Explicit(vec![0]))
            .workload(trace_workload(vec![1, 1, 1], 1))
            .seed(5)
            .max_rounds(10)
            .build();
        assert_eq!(sim.total_balls(), 3);
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 10 {
            records.push(sim.step());
        }
        let result = sim.result();
        assert!(result.completed, "all arrivals settled: {result:?}");
        assert!(!result.hit_round_cap);
        assert_eq!(result.rounds, 3);
        assert_eq!(result.unassigned_balls, 0);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.arrivals, 1);
            assert_eq!(r.balls_assigned, 1, "round {} settles its arrival", i + 1);
            assert_eq!(r.departures, u64::from(i > 0), "prior occupant departs");
            assert_eq!(r.in_service_after, 1);
            assert_eq!(r.max_load, 1);
        }
        // Every settled ball spent exactly one round alive.
        assert_eq!(sim.settle_latencies().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn zero_demand_open_system_runs_on_arrivals_alone() {
        // `Demand::Constant(0)` plus a workload is the pure open system: every ball
        // in the run is an arrival.
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(0))
            .workload(trace_workload(vec![2, 0, 1], 1))
            .seed(5)
            .max_rounds(10)
            .build();
        assert_eq!(sim.total_balls(), 3);
        let result = sim.run();
        assert!(result.completed);
        assert_eq!(result.total_balls, 3);
    }

    #[test]
    #[should_panic(expected = "no balls")]
    fn zero_demand_without_a_workload_is_vacuous() {
        let g = clb_graph::BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(0))
            .seed(5)
            .build();
    }

    #[test]
    fn online_run_conserves_balls_and_loads() {
        let g = generators::regular_random(24, 6, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .workload(OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Poisson {
                    rate: 3.0,
                    rounds: 12,
                },
                service: crate::workload::ServiceDistribution::Uniform { min: 1, max: 4 },
            })
            .seed(31)
            .max_rounds(100)
            .build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 100 {
            records.push(sim.step());
        }
        let result = sim.result();
        assert!(
            result.completed,
            "accept-all drains every arrival: {result:?}"
        );
        let total_arrivals: u64 = records.iter().map(|r| r.arrivals).sum();
        let total_assigned: u64 = records.iter().map(|r| r.balls_assigned).sum();
        assert_eq!(
            total_assigned,
            24 + total_arrivals,
            "initial batch + arrivals"
        );
        assert_eq!(result.total_balls, 24 + total_arrivals);
        // In-service accounting: load on the servers equals settled minus departed.
        let total_departed: u64 = records.iter().map(|r| r.departures).sum();
        let load_sum: u64 = sim.server_loads().iter().map(|&l| u64::from(l)).sum();
        assert_eq!(load_sum, total_assigned - total_departed);
        assert_eq!(sim.in_service(), load_sum);
        let last = records.last().unwrap();
        assert_eq!(last.in_service_after, sim.in_service());
        // Latencies cover every settled ball and are at least one round.
        let latencies = sim.settle_latencies().unwrap();
        assert_eq!(latencies.len() as u64, total_assigned);
        assert!(latencies.iter().all(|&l| l >= 1));
    }

    #[test]
    fn online_runs_are_identical_across_piece_counts() {
        let g = generators::regular_random(32, 8, 17).unwrap();
        let run = |pieces: Option<usize>| {
            let workload = OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Bursty {
                    on_rate: 4.0,
                    on_rounds: 3,
                    off_rounds: 2,
                    rounds: 15,
                },
                service: crate::workload::ServiceDistribution::Geometric { p: 0.4 },
            };
            let mut builder = Simulation::builder(&g)
                .protocol(TwoChoiceCapacityOne)
                .demand(Demand::Constant(1))
                .workload(workload)
                .seed(13)
                .max_rounds(150);
            if let Some(p) = pieces {
                builder = builder.intra_step_pieces(p);
            }
            let mut sim = builder.build();
            let mut records = Vec::new();
            while !sim.is_complete() && sim.round() < 150 {
                records.push(sim.step());
            }
            (
                records,
                sim.result(),
                sim.server_loads().to_vec(),
                sim.settle_latencies().unwrap(),
            )
        };
        let baseline = run(Some(1));
        for pieces in [Some(2), Some(7), Some(32), None] {
            assert_eq!(run(pieces), baseline, "pieces={pieces:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid online workload")]
    fn invalid_workload_is_rejected_at_build() {
        let g = generators::regular_random(4, 2, 5).unwrap();
        let _ = Simulation::builder(&g)
            .protocol(AcceptAll)
            .demand(Demand::Constant(1))
            .workload(OnlineWorkload {
                arrivals: crate::workload::ArrivalProcess::Poisson {
                    rate: f64::NAN,
                    rounds: 4,
                },
                service: crate::workload::ServiceDistribution::Deterministic { rounds: 1 },
            })
            .build();
    }

    #[test]
    fn work_per_ball_helper() {
        let r = RunResult {
            completed: true,
            hit_round_cap: false,
            rounds: 3,
            total_messages: 600,
            max_load: 4,
            unassigned_balls: 0,
            total_balls: 100,
            closed_servers: 0,
        };
        assert!((r.work_per_ball() - 6.0).abs() < 1e-12);
        let empty = RunResult {
            total_balls: 0,
            ..r
        };
        assert_eq!(empty.work_per_ball(), 0.0);
    }
}
