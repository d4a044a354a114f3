//! Property-based pin of the determinism contract for **online workloads**: with
//! continuous arrivals, service-time departures and (optionally) a composite fault
//! plan all active at once, every per-round `RoundRecord`, the final `RunResult`,
//! the server loads and the per-ball settle latencies must be **bit-identical**
//! between a 1-thread / 1-piece baseline and every (thread count × forced piece
//! plan) combination — the online extension of `parallel_step_determinism.rs`.
//!
//! Both settle rules ride the sweep: a capacity protocol (first-accepted, the
//! historical rule) and a least-loaded accept-all protocol (the JSQ-style rule),
//! so the two-pass winner-then-releases settle path is exercised under churn.
//! The *shard* axis of the same contract is pinned in `tests/shard_determinism.rs`
//! (`online_scenarios_are_bit_identical_across_shard_counts`) and by the CI
//! exp_online stdout diffs.

use clb_engine::{
    ArrivalProcess, Demand, OnlineWorkload, Protocol, RoundRecord, RunResult, ServerCtx,
    ServiceDistribution, SettleRule, Simulation,
};
use clb_faults::FaultPlan;
use clb_graph::BipartiteGraph;
use proptest::prelude::*;

/// Capacity-`cap` servers with `choices` picks per ball and the historical
/// first-accepted settle rule; releases and departures free capacity through the
/// engine's load.
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

/// Accept-all with the least-loaded settle rule: the JSQ-style path, where the
/// settle winner depends on load snapshots the piece plan must not perturb.
struct LeastLoadedK {
    choices: u32,
}

impl Protocol for LeastLoadedK {
    fn choices_per_round(&self) -> u32 {
        self.choices
    }
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        ctx.incoming
    }
    fn server_is_closed(&self, _state: u64, _load: u32) -> bool {
        false
    }
    fn settle_rule(&self) -> SettleRule {
        SettleRule::LeastLoaded
    }
}

/// Deterministically builds a skewed bipartite graph from a test-case seed (same
/// construction as `parallel_step_determinism.rs`): uneven client degrees, so server
/// fan-in is heavily skewed and the counting-sort paths see unbalanced pieces.
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
    }
    edges.sort_unstable();
    edges.dedup();
    BipartiteGraph::from_edges(clients, servers, &edges).expect("deduped edges are valid")
}

/// Every fault kind at once, intense enough to bite on 48-round runs.
fn composite_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(3, 0.3)
        .lying_load(0.25, 0.5)
        .message_loss(0.1, 0.05)
        .stragglers(0.2, 0.5)
}

fn workload(arrival_idx: usize, service_idx: usize) -> OnlineWorkload {
    let arrivals = match arrival_idx {
        0 => ArrivalProcess::Batch {
            per_round: 2,
            rounds: 12,
        },
        1 => ArrivalProcess::Poisson {
            rate: 1.5,
            rounds: 12,
        },
        2 => ArrivalProcess::Bursty {
            on_rate: 3.0,
            on_rounds: 2,
            off_rounds: 3,
            rounds: 12,
        },
        _ => ArrivalProcess::Trace {
            arrivals: vec![4, 0, 0, 7, 1, 0, 2],
        },
    };
    let service = match service_idx {
        0 => ServiceDistribution::Deterministic { rounds: 2 },
        1 => ServiceDistribution::Geometric { p: 0.4 },
        _ => ServiceDistribution::Uniform { min: 1, max: 5 },
    };
    OnlineWorkload { arrivals, service }
}

type Observations = (Vec<RoundRecord>, RunResult, Vec<u32>, Vec<u32>);

/// Runs step-by-step in a dedicated pool and returns everything observable,
/// including the settle-latency vector only online runs expose.
#[allow(clippy::too_many_arguments)]
fn run_case(
    graph: &BipartiteGraph,
    workload: &OnlineWorkload,
    least_loaded: bool,
    demand: u32,
    seed: u64,
    faulted: bool,
    threads: usize,
    pieces: usize,
) -> Observations {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let inner: Box<dyn Protocol> = if least_loaded {
            Box::new(LeastLoadedK { choices: 2 })
        } else {
            Box::new(CapacityK { choices: 2, cap: 3 })
        };
        let protocol = if faulted {
            composite_plan().wrap(inner, seed)
        } else {
            inner
        };
        let mut sim = Simulation::builder(graph)
            .protocol(protocol)
            .demand(Demand::Constant(demand))
            .workload(workload.clone())
            .seed(seed)
            .max_rounds(48)
            .intra_step_pieces(pieces)
            .build();
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < 48 {
            records.push(sim.step());
        }
        let latencies = sim
            .settle_latencies()
            .expect("online runs report settle latencies");
        (
            records,
            sim.result(),
            sim.server_loads().to_vec(),
            latencies,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The online contract: (threads, pieces) ∈ {(1,8), (4,8), (2,3)} must all
    /// reproduce the (1,1) baseline bit for bit — records, result, loads and settle
    /// latencies — for every arrival process × service distribution × settle rule ×
    /// fault plan combination.
    #[test]
    fn online_runs_are_bit_identical_across_threads_and_pieces(
        clients in 4usize..=40,
        servers in 2usize..=20,
        arrival_idx in 0usize..4,
        service_idx in 0usize..3,
        rule_bit in 0u32..2,
        demand in 1u32..=2,
        fault_bit in 0u32..2,
        seed in any::<u64>(),
    ) {
        let workload = workload(arrival_idx, service_idx);
        let least_loaded = rule_bit == 1;
        let faulted = fault_bit == 1;
        let graph = irregular_graph(clients, servers, seed);
        let baseline =
            run_case(&graph, &workload, least_loaded, demand, seed, faulted, 1, 1);
        for (threads, pieces) in [(1usize, 8usize), (4, 8), (2, 3)] {
            let candidate =
                run_case(&graph, &workload, least_loaded, demand, seed, faulted, threads, pieces);
            prop_assert_eq!(
                &candidate, &baseline,
                "diverged at threads={} pieces={} (arrivals={}, service={}, least_loaded={}, faulted={})",
                threads, pieces, arrival_idx, service_idx, least_loaded, faulted
            );
        }
    }
}
