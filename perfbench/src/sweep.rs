//! `sweep`: one in-process `Scenario::run` per operation over 48 cells whose seeds
//! are disjoint, so every cell generates its own n = 4096 graph and `clb-graph`
//! generation does nearly all the timed work.

use crate::common::{
    check, closed_loop, engine_metrics, mean, peak_rss_mb, pool, pool_metrics, repeated_setup,
    replay_trial, settle_round_p99, timed, EngineCounts, Measured, Settings,
};
use crate::stats::{median, Tail, Tally};
use crate::trace::Trace;
use clb::graph::GraphError;
use clb::prelude::*;

const N: usize = 4096;
const CS: [u32; 3] = [4, 8, 16];
const D: u32 = 2;
const TRIALS: usize = 8;
/// Base seeds of consecutive sweep points stride by this much, keeping every
/// point's trial seeds disjoint.
const STRIDE: u64 = 1000;

fn topologies() -> [GraphSpec; 2] {
    let log2sq = log2_squared(N);
    [
        GraphSpec::RegularLogSquared { n: N, eta: 1.0 },
        GraphSpec::AlmostRegular {
            n: N,
            min_degree: log2sq / 2,
            max_degree: 2 * log2sq,
        },
    ]
}

/// The grid's per-point configs, complete: the scenario's own policy (trials and
/// retention) is already applied, so the runner and the replay see the same ones.
fn configs(base: u64) -> Vec<ExperimentConfig> {
    CS.iter()
        .flat_map(|&c| topologies().map(move |graph| (c, graph)))
        .enumerate()
        .map(|(index, (c, graph))| {
            ExperimentConfig::new(graph, ProtocolSpec::Saer { c, d: D })
                .seed(base + STRIDE * index as u64)
                .trials(TRIALS)
                .retention(Retention::Full)
                .measurements(Measurements {
                    trajectory: true,
                    ..Measurements::default()
                })
        })
        .collect()
}

fn scenario() -> Scenario {
    Scenario::new("sweep", "benchmark sweep", "graph generation dominates")
        .trials(TRIALS)
        .retention(Retention::Full)
}

fn run(configs: &[ExperimentConfig]) -> Result<SweepReport<usize>, String> {
    scenario()
        .run(Sweep::over("point", 0..configs.len()), |index, _| {
            configs[index].clone()
        })
        .map_err(|e| format!("sweep failed: {e}"))
}

/// Cells of `report` that did not complete or broke the `c·d` bound.
fn failed_cells(report: &SweepReport<usize>) -> u64 {
    report
        .iter()
        .map(|(_, point)| {
            let bound = match point.config.protocol {
                ProtocolSpec::Saer { c, d } => c * d,
                _ => u32::MAX,
            };
            point
                .trials
                .iter()
                .filter(|t| !t.result.completed || t.result.max_load > bound)
                .count() as u64
        })
        .sum()
}

pub fn measure(settings: &Settings) -> Result<Measured, String> {
    let threads = settings.threads;
    let main_pool = pool(threads);
    let base = settings.base_seed();
    let configs = configs(base);
    let cells = (configs.len() * TRIALS) as u64;
    let definition = format!(
        "sweep; n={N}; topologies=RegularLogSquared eta=1, AlmostRegular {}..={}; \
         protocol=SAER c in {CS:?} d={D}; trials={TRIALS}; cells={cells}; retention=full; \
         measurements=trajectory; base_seeds={base}+{STRIDE}*point; pool_threads={threads}; \
         shards=0",
        log2_squared(N) / 2,
        2 * log2_squared(N)
    );

    // Set-up: one cell of the grid, which also spawns the pool's workers; its
    // outcome is kept to check the first cell of every sweep against.
    let (setup_s, first_cell) = repeated_setup(|_| {
        main_pool
            .install(|| configs[0].run_trial(configs[0].base_seed))
            .map_err(|e| format!("set-up cell failed: {e}"))
    })?;

    let mut first: Option<SweepReport<usize>> = None;
    let mut tally = Tally::default();
    let stats_before = rayon::pool_stats();
    let times = closed_loop(settings.seconds, 1, |_| {
        let report = main_pool.install(|| run(&configs))?;
        tally.record(cells, failed_cells(&report));
        check(
            report.cache.direct_builds == cells as usize && report.cache.snapshot_hits == 0,
            || format!("expected {cells} direct builds, got {:?}", report.cache),
        )?;
        match &first {
            None => {
                check(report.report(0).trials[0] == first_cell, || {
                    "the sweep's first cell differs from ExperimentConfig::run_trial".into()
                })?;
                first = Some(report);
            }
            Some(first) => check(&report == first, || {
                "two sweeps gave different reports".into()
            })?,
        }
        Ok(())
    })?;
    let stats_after = rayon::pool_stats();
    let report = first.expect("the closed loop ran at least once");
    let ops = times.len() as f64;

    let trials = || report.iter().flat_map(|(_, point)| point.trials.iter());
    let tail = Tail::of(&times);
    let end_to_end = vec![
        ("setup_s", setup_s),
        ("op_p50_s", median(&times)),
        ("op_tail_s", tail.value),
        ("cells_per_s", cells as f64 / median(&times)),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "max_load",
            mean(trials().map(|t| f64::from(t.result.max_load))),
        ),
        (
            "rounds_mean",
            mean(trials().map(|t| f64::from(t.result.rounds))),
        ),
        (
            "work_per_ball",
            mean(trials().map(|t| t.result.work_per_ball())),
        ),
        (
            "latency_p99_rounds",
            mean(trials().map(|t| {
                let alive = t.alive_series.as_ref().expect("trajectory is measured");
                settle_round_p99(alive.iter().copied(), t.result.total_balls)
            })),
        ),
    ];
    let mut notes = vec![format!(
        "operation times {times:.3?} s; op_tail_s is p{:.1} of {} operations ({} beyond)",
        tail.percentile, tail.samples, tail.beyond
    )];

    let mut per_layer = Vec::new();
    let mut trace = None;
    if settings.trace {
        // The untraced runner at 1 thread: the replay's reference and the speed-up base.
        let (t1, single) = timed(|| pool(1).install(|| run(&configs)));
        check(single? == report, || "the sweep differs at 1 thread".into())?;
        let mut t = Trace::new();
        let (replay_s, counts) = pool(1).install(|| replay(&configs, &report, &mut t))?;
        let layer_spans = [
            "graph.generate",
            "core.trial",
            "core.accumulate_push",
            "core.accumulate_merge",
            "core.into_report",
        ];
        let replayed: f64 = layer_spans.iter().map(|name| t.total(name)).sum();
        let generate_s = t.total("graph.generate");
        let edges: f64 = trials().map(|t| t.degree_stats.num_edges as f64).sum();
        notes.push(format!(
            "graph.generate covers {:.1}% of the traced replay",
            100.0 * generate_s / replay_s
        ));
        per_layer.extend([
            ("graph.generate_s", generate_s),
            ("graph.edges", edges),
            ("graph.ns_per_edge", generate_s * 1e9 / edges),
        ]);
        per_layer.extend(engine_metrics(&t, counts, 1.0));
        let retained: u64 = report.iter().map(|(_, point)| point.retained_bytes).sum();
        per_layer.extend([
            ("core.trial_s", t.total("core.trial")),
            ("core.scenario_self_s", t1 - replayed),
            ("core.snapshot_hits", report.cache.snapshot_hits as f64),
            ("core.direct_builds", report.cache.direct_builds as f64),
            ("core.accumulate_push_s", t.total("core.accumulate_push")),
            (
                "core.accumulate_merge_s",
                t.total("core.accumulate_merge") + t.total("core.into_report"),
            ),
            ("core.retained_bytes", retained as f64),
        ]);
        per_layer.extend(pool_metrics(
            stats_before,
            stats_after,
            ops,
            t1 / median(&times),
        ));
        per_layer.extend([
            ("trace.op_s", replay_s),
            ("trace.overhead", replay_s / t1 - 1.0),
        ]);
        trace = Some(t);
    }

    Ok(Measured {
        definition,
        end_to_end,
        per_layer,
        tally,
        notes,
        trace,
    })
}

/// Replays one sweep through the public layer calls, in the runner's point-major
/// cell order, and checks that it reproduces `report`. Returns the replay's wall
/// time and engine counts.
fn replay(
    configs: &[ExperimentConfig],
    report: &SweepReport<usize>,
    trace: &mut Trace,
) -> Result<(f64, EngineCounts), String> {
    let mut counts = EngineCounts::default();
    let (time, reports) = timed(|| {
        trace.span("sweep.replay", |t| {
            configs
                .iter()
                .map(|config| {
                    let mut point = OutcomeAccumulator::new(config.retention);
                    for trial in 0..config.trials as u64 {
                        let seed = config.base_seed + trial;
                        let graph = t.span("graph.generate", |_| config.graph.build(seed))?;
                        let outcome = replay_trial(config, &graph, seed, t, &mut counts);
                        let mut cell = OutcomeAccumulator::new(config.retention);
                        t.span("core.accumulate_push", |_| cell.push(outcome));
                        t.span("core.accumulate_merge", |_| point.merge(cell));
                    }
                    Ok(t.span("core.into_report", |_| point.into_report(config.clone())))
                })
                .collect::<Result<Vec<ExperimentReport>, GraphError>>()
        })
    });
    let reports = reports.map_err(|e| format!("replay failed: {e}"))?;
    check(
        reports.iter().eq(report.iter().map(|(_, point)| point)),
        || "the replayed sweep differs from the Scenario::run report".into(),
    )?;
    Ok((time, counts))
}
