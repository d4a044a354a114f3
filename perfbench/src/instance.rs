//! `instance`: one 10⁷-ball SAER run per operation on a prebuilt 20M-edge graph.
//!
//! Set-up assembles a striped degree-8 edge list and hands it to
//! `BipartiteGraph::from_edges`; each operation then builds a `Simulation` and steps
//! it to completion, so `clb-engine` does nearly all the timed work.

use crate::common::{
    check, closed_loop, engine_metrics, mean, peak_rss_mb, pool, pool_metrics, repeated_setup,
    settle_round_p99, timed, EngineCounts, Measured, Settings,
};
use crate::stats::{median, Tail, Tally};
use crate::trace::Trace;
use clb::prelude::*;

const CLIENTS: usize = 2_500_000;
const SERVERS: usize = CLIENTS / 8;
const DEGREE: usize = 8;
const C: u32 = 24;
const D: u32 = 2;
const BALLS_PER_CLIENT: u32 = 4;
const MAX_ROUNDS: u32 = 200;
/// Operations cycle through this many simulation seeds; the simulated statistics
/// are taken over the first pass, so they depend on the seed alone. Rounds to
/// completion vary by seed, so a long list keeps operation times comparable
/// across `--seed`s.
const SEEDS: u64 = 32;
/// Seeds of the traced pass (the first ones of the list).
const TRACED_SEEDS: usize = 8;
/// Clients of the small graph whose run spawns the pool during set-up.
const WARM_CLIENTS: usize = 4096;

/// Client `c` is wired to servers `(7c + i) mod S`, `i < 8`: no randomness, O(E)
/// to produce, distinct neighbours (S ≥ 8) and a near-uniform fan-in of 64 clients
/// per server.
fn striped_edges(clients: usize, servers: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(clients * DEGREE);
    for c in 0..clients {
        for i in 0..DEGREE {
            edges.push((c as u32, ((c * 7 + i) % servers) as u32));
        }
    }
    edges
}

fn striped_graph(clients: usize, trace: &mut Trace) -> Result<BipartiteGraph, String> {
    let servers = clients / 8;
    let edges = trace.span("instance.edge_list", |_| striped_edges(clients, servers));
    trace
        .span("graph.from_edges", |_| {
            BipartiteGraph::from_edges(clients, servers, &edges)
        })
        .map_err(|e| format!("striped graph rejected: {e}"))
}

/// Everything one operation leaves behind for the checks.
struct Run {
    records: Vec<RoundRecord>,
    result: RunResult,
    loads: Option<Vec<u32>>,
}

/// One operation: build the simulation and step it to completion. Server loads
/// are copied out only when asked for (the determinism check).
fn run(graph: &BipartiteGraph, seed: u64, keep_loads: bool, trace: &mut Trace) -> Run {
    let mut sim = trace.span("engine.build", |_| {
        Simulation::builder(graph)
            .protocol(ProtocolSpec::Saer { c: C, d: D }.build())
            .demand(Demand::Constant(BALLS_PER_CLIENT))
            .seed(seed)
            .max_rounds(MAX_ROUNDS)
            .build()
    });
    let mut records = Vec::with_capacity(16);
    while !sim.is_complete() && sim.round() < MAX_ROUNDS {
        records.push(trace.span("engine.step", |_| sim.step()));
    }
    Run {
        records,
        result: sim.result(),
        loads: keep_loads.then(|| sim.server_loads().to_vec()),
    }
}

fn ok(result: &RunResult) -> bool {
    result.completed && result.max_load <= C * D
}

pub fn measure(settings: &Settings) -> Result<Measured, String> {
    let threads = settings.threads;
    let main_pool = pool(threads);
    let base = settings.base_seed();
    let seeds: Vec<u64> = (0..SEEDS).map(|i| base + i).collect();
    let definition = format!(
        "instance; graph=striped clients={CLIENTS} servers={SERVERS} degree={DEGREE}; \
         protocol=SAER c={C} d={D}; demand=constant {BALLS_PER_CLIENT}; max_rounds={MAX_ROUNDS}; \
         seeds={}..={}; pool_threads={threads}; shards=0",
        seeds[0],
        seeds[seeds.len() - 1]
    );
    let mut trace = if settings.trace {
        Trace::new()
    } else {
        Trace::off()
    };

    // Set-up: the graph, then one small run that spawns the pool's workers.
    let (setup_s, graph) = repeated_setup(|repeat| {
        trace.set_op(repeat as u32);
        let graph = striped_graph(CLIENTS, &mut trace)?;
        let warm = striped_graph(WARM_CLIENTS, &mut Trace::off())?;
        let warm_run = main_pool.install(|| run(&warm, base, false, &mut Trace::off()));
        check(ok(&warm_run.result), || "warm-up run failed".into())?;
        Ok(graph)
    })?;
    let from_edges_s = trace.total("graph.from_edges") / crate::common::SETUP_REPEATS as f64;

    // Timed closed loop at `threads` threads, tracing off.
    let mut first_pass: Vec<Run> = Vec::new();
    let mut tally = Tally::default();
    let stats_before = rayon::pool_stats();
    let times = closed_loop(settings.seconds, SEEDS as usize, |i| {
        let seed = seeds[i % seeds.len()];
        let r = main_pool.install(|| run(&graph, seed, false, &mut Trace::off()));
        tally.record(1, u64::from(!ok(&r.result)));
        if i < seeds.len() {
            first_pass.push(r);
        }
        Ok(())
    })?;
    let stats_after = rayon::pool_stats();

    // Determinism gate: the first seed at 1 thread and at `threads` threads.
    let (t1, one) = timed(|| pool(1).install(|| run(&graph, seeds[0], true, &mut Trace::off())));
    let (t2, two) = timed(|| main_pool.install(|| run(&graph, seeds[0], true, &mut Trace::off())));
    check(
        one.records == two.records && one.result == two.result && one.loads == two.loads,
        || {
            format!(
                "seed {} is not bit-identical at 1 and {threads} threads",
                seeds[0]
            )
        },
    )?;
    check(first_pass[0].records == two.records, || {
        format!("seed {} gave two different runs", seeds[0])
    })?;

    let tail = Tail::of(&times);
    let end_to_end = vec![
        ("setup_s", setup_s),
        ("op_p50_s", median(&times)),
        ("op_tail_s", tail.value),
        ("cells_per_s", 1.0 / median(&times)),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "max_load",
            mean(first_pass.iter().map(|r| f64::from(r.result.max_load))),
        ),
        (
            "rounds_mean",
            mean(first_pass.iter().map(|r| f64::from(r.result.rounds))),
        ),
        (
            "work_per_ball",
            mean(first_pass.iter().map(|r| r.result.work_per_ball())),
        ),
        (
            "latency_p99_rounds",
            mean(first_pass.iter().map(|r| {
                settle_round_p99(
                    r.records.iter().map(|x| x.alive_after),
                    r.result.total_balls,
                )
            })),
        ),
    ];
    let mut notes = vec![format!(
        "operation times {times:.3?} s; op_tail_s is p{:.1} of {} operations ({} beyond); \
         1 vs {threads} threads on seed {}: {t1:.3} s vs {t2:.3} s, bit-identical",
        tail.percentile, tail.samples, tail.beyond, seeds[0]
    )];

    let mut per_layer = Vec::new();
    if settings.trace {
        // Traced pass over the seed list at the same width.
        let mut counts = EngineCounts::default();
        let mut traced = Vec::new();
        for (op, &seed) in seeds[..TRACED_SEEDS].iter().enumerate() {
            trace.set_op((crate::common::SETUP_REPEATS + op) as u32);
            let (time, r) = timed(|| {
                main_pool.install(|| trace.span("instance.op", |t| run(&graph, seed, false, t)))
            });
            check(r.records == first_pass[op].records, || {
                format!("traced run of seed {seed} differs from the untraced one")
            })?;
            counts.add(&r.records);
            traced.push(time);
        }
        let ops = TRACED_SEEDS as f64;
        let untraced_first_pass = median(&times[..TRACED_SEEDS]);
        let traced_op = median(&traced);
        let engine_share =
            (trace.total("engine.build") + trace.total("engine.step")) / traced.iter().sum::<f64>();
        notes.push(format!(
            "engine.build + engine.step cover {:.1}% of a traced operation",
            100.0 * engine_share
        ));
        let edges = (CLIENTS * DEGREE) as f64;
        per_layer.extend([
            ("graph.edges", edges),
            ("graph.ns_per_edge", from_edges_s * 1e9 / edges),
            ("graph.from_edges_s", from_edges_s),
        ]);
        per_layer.extend(engine_metrics(&trace, counts, ops));
        per_layer.extend(pool_metrics(
            stats_before,
            stats_after,
            times.len() as f64,
            t1 / t2,
        ));
        per_layer.extend([
            ("trace.op_s", traced_op),
            ("trace.overhead", traced_op / untraced_first_pass - 1.0),
        ]);
    }

    Ok(Measured {
        definition,
        end_to_end,
        per_layer,
        tally,
        notes,
        trace: settings.trace.then_some(trace),
    })
}
