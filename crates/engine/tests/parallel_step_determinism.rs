//! Property-based pin of the intra-round parallelism contract: on *irregular* graphs
//! (skewed degrees, servers with wildly different fan-in), with 1, 2 or 4 choices per
//! ball, with and without a composite `FaultPlan`, every per-round `RoundRecord`, the
//! final `RunResult` and the server loads must be **bit-identical** between a
//! 1-thread / 1-piece baseline and every (thread count × forced piece plan)
//! combination. The piece plan is derived from problem sizes (never thread count), so
//! forcing it via `intra_step_pieces` is the only way to route instances this small
//! through the parallel sort / decide / settle / census paths.
//!
//! The serial-vs-parallel counting-sort permutation itself is pinned at the unit level
//! in `src/simulation.rs` (`parallel_rank_sort_matches_serial_permutation`); this file
//! pins the end-to-end observable behaviour.

use clb_engine::{Demand, Protocol, RoundRecord, RunResult, ServerCtx, Simulation};
use clb_faults::FaultPlan;
use clb_graph::BipartiteGraph;
use proptest::prelude::*;

/// Capacity-`cap` servers contacted with `choices` picks per ball: exercises the
/// k-choice settle and surplus-release paths at every generated choice count.
struct CapacityK {
    choices: u32,
    cap: u32,
}

impl Protocol for CapacityK {
    fn choices_per_round(&self) -> u32 {
        self.choices
    }
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        self.cap.saturating_sub(ctx.current_load).min(ctx.incoming)
    }
    fn server_is_closed(&self, _state: u64, load: u32) -> bool {
        load >= self.cap
    }
}

/// Deterministically builds a skewed bipartite graph from a test-case seed: the first
/// quarter of the clients get large neighbourhoods, the rest one or two edges, so
/// server fan-in is heavily uneven (some servers absorb most requests, some none).
fn irregular_graph(clients: usize, servers: usize, seed: u64) -> BipartiteGraph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for c in 0..clients {
        let span = if c < clients / 4 { servers.min(8) } else { 2 };
        let degree = 1 + next() as usize % span;
        for _ in 0..degree {
            edges.push((c as u32, (next() as usize % servers) as u32));
        }
        // Guarantee at least one edge per client (the builder rejects isolated
        // clients with demand); duplicates are removed below.
    }
    edges.sort_unstable();
    edges.dedup();
    BipartiteGraph::from_edges(clients, servers, &edges).expect("deduped edges are valid")
}

/// Every fault kind at once, intense enough to bite on 64-round runs.
fn composite_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(3, 0.3)
        .lying_load(0.25, 0.5)
        .message_loss(0.1, 0.05)
        .stragglers(0.2, 0.5)
}

/// Runs step-by-step in a dedicated pool and returns everything observable.
#[allow(clippy::too_many_arguments)]
fn run_case(
    graph: &BipartiteGraph,
    choices: u32,
    cap: u32,
    demand: u32,
    seed: u64,
    faulted: bool,
    threads: usize,
    pieces: usize,
) -> (Vec<RoundRecord>, RunResult, Vec<u32>) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let inner: Box<dyn Protocol> = Box::new(CapacityK { choices, cap });
        let protocol = if faulted {
            composite_plan().wrap(inner, seed)
        } else {
            inner
        };
        let mut sim = Simulation::builder(graph)
            .protocol(protocol)
            .demand(Demand::Constant(demand))
            .seed(seed)
            .max_rounds(64)
            .intra_step_pieces(pieces)
            .build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 64 {
            records.push(sim.step());
        }
        (records, sim.result(), sim.server_loads().to_vec())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract: (threads, pieces) ∈ {(1,8), (4,8), (2,3)} must all
    /// reproduce the (1,1) baseline bit for bit, step by step.
    #[test]
    fn step_records_are_bit_identical_across_threads_and_pieces(
        clients in 4usize..=40,
        servers in 2usize..=20,
        choice_idx in 0usize..3,
        cap in 1u32..=3,
        demand in 1u32..=2,
        fault_bit in 0u32..2,
        seed in any::<u64>(),
    ) {
        let choices = [1u32, 2, 4][choice_idx];
        let faulted = fault_bit == 1;
        let graph = irregular_graph(clients, servers, seed);
        let baseline = run_case(&graph, choices, cap, demand, seed, faulted, 1, 1);
        for (threads, pieces) in [(1usize, 8usize), (4, 8), (2, 3)] {
            let candidate = run_case(&graph, choices, cap, demand, seed, faulted, threads, pieces);
            prop_assert_eq!(
                &candidate, &baseline,
                "diverged at threads={} pieces={} (choices={}, faulted={})",
                threads, pieces, choices, faulted
            );
        }
    }
}
