//! `sharded`: one `Scenario::run_sharded` per operation, over 2 worker processes of
//! one thread each. The grid is online RAES and JSQ(d) under Poisson arrivals on
//! one shared topology with paired seeds, so the coordinating process generates 8 graphs for 48
//! cells and ships them as snapshots; outcomes fold into summary accumulators and
//! travel back over the shard wire.

use crate::common::{
    check, closed_loop, engine_metrics, mean, peak_rss_mb, pool, pool_metrics, repeated_setup,
    replay_trial, timed, EngineCounts, Measured, Settings,
};
use crate::stats::{median, Tail, Tally};
use crate::trace::Trace;
use clb::graph::snapshot;
use clb::prelude::*;
use clb::shard::{
    decode_manifest, decode_report, encode_manifest, encode_report, execute_manifest,
    partition_cells, GraphSource, ShardCell, ShardManifest, ShardPayload, ShardReport,
};
use std::collections::BTreeMap;

const N: usize = 1024;
const C: u32 = 4;
const D: u32 = 2;
const TRIALS: usize = 8;
const SERVICE_P: f64 = 0.25;
const HORIZON: u32 = 200;
const DRAIN: u32 = 60;

/// The grid's per-point configs with the scenario's policy already applied.
fn configs(base: u64) -> Vec<ExperimentConfig> {
    // Service capacity of the constrained protocols: every slot of every server
    // turning over once per mean service time 1/p.
    let capacity = (N as f64) * f64::from(C * D) * SERVICE_P;
    let rates = [capacity / 8.0, capacity / 4.0, capacity / 2.0];
    let protocols = [
        ProtocolSpec::Raes { c: C, d: D },
        ProtocolSpec::Jsq { d: D },
    ];
    protocols
        .iter()
        .flat_map(|&protocol| rates.map(move |rate| (protocol, rate)))
        .map(|(protocol, rate)| {
            ExperimentConfig::new(
                GraphSpec::Regular {
                    n: N,
                    delta: log2_squared(N),
                },
                protocol,
            )
            .seed(base)
            .trials(TRIALS)
            .retention(Retention::Summary)
            .demand(Demand::Constant(0))
            .workload(OnlineWorkload {
                arrivals: ArrivalProcess::Poisson {
                    rate,
                    rounds: HORIZON,
                },
                service: ServiceDistribution::Geometric { p: SERVICE_P },
            })
            .max_rounds(HORIZON + DRAIN)
        })
        .collect()
}

fn scenario() -> Scenario {
    Scenario::new("sharded", "benchmark online sweep", "all cells stable")
        .trials(TRIALS)
        .retention(Retention::Summary)
        .paired_seeds()
}

fn run_sharded(configs: &[ExperimentConfig], shards: usize) -> Result<SweepReport<usize>, String> {
    scenario()
        .run_sharded(
            Sweep::over("point", 0..configs.len()),
            |index, _| configs[index].clone(),
            &ShardPlan::new(shards).worker(worker_exe()?),
        )
        .map_err(|e| format!("sharded sweep failed: {e}"))
}

/// This binary, which runs a shard when spawned as a worker. Naming it explicitly
/// keeps a `CLB_SHARD_WORKER` in the environment from substituting another one.
fn worker_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

fn run_in_process(configs: &[ExperimentConfig]) -> Result<SweepReport<usize>, String> {
    scenario()
        .run(Sweep::over("point", 0..configs.len()), |index, _| {
            configs[index].clone()
        })
        .map_err(|e| format!("in-process sweep failed: {e}"))
}

/// Cells that were unstable or ran into the round cap; fails outright when a
/// constrained protocol broke its `c·d` bound.
fn failed_cells(report: &SweepReport<usize>) -> Result<u64, String> {
    let mut failed = 0;
    for (_, point) in report.iter() {
        let online = point.online.ok_or("an online cell has no online report")?;
        if let ProtocolSpec::Raes { c, d } = point.config.protocol {
            check(online.peak_load.max <= f64::from(c * d), || {
                format!(
                    "RAES peak load {} broke the c·d bound",
                    online.peak_load.max
                )
            })?;
        }
        let unstable = point.trial_count - online.stable_trials;
        failed += unstable.max(point.capped_trials) as u64;
    }
    Ok(failed)
}

pub fn measure(settings: &Settings) -> Result<Measured, String> {
    let threads = settings.threads;
    let shards = settings.threads;
    let main_pool = pool(threads);
    let base = settings.base_seed();
    let configs = configs(base);
    let cells = (configs.len() * TRIALS) as u64;
    let definition = format!(
        "sharded; graph=Regular n={N} degree={}; protocols=RAES c={C} d={D}, JSQ d={D}; \
         arrivals=Poisson rate n*c*d*p/{{8,4,2}} for {HORIZON} rounds; service=geometric \
         p={SERVICE_P}; max_rounds={}; trials={TRIALS}; cells={cells}; retention=summary; \
         paired base_seed={base}; pool_threads={threads}; shards={shards} x 1 thread",
        log2_squared(N),
        HORIZON + DRAIN
    );

    // Set-up: the first sweep point alone over the same shards, which spawns the
    // pool's workers and the worker processes once.
    let (setup_s, ()) = repeated_setup(|_| {
        let report = main_pool.install(|| run_sharded(&configs[..1], shards))?;
        check(failed_cells(&report)? == 0, || {
            "the set-up point failed".into()
        })
    })?;

    let mut first: Option<SweepReport<usize>> = None;
    let mut tally = Tally::default();
    let stats_before = rayon::pool_stats();
    let times = closed_loop(settings.seconds, 1, |_| {
        let report = main_pool.install(|| run_sharded(&configs, shards))?;
        tally.record(cells, failed_cells(&report)?);
        check(
            report.cache.snapshot_hits == cells as usize && report.cache.direct_builds == 0,
            || format!("expected {cells} snapshot hits, got {:?}", report.cache),
        )?;
        match &first {
            None => first = Some(report),
            Some(first) => check(&report == first, || "two sharded sweeps differ".into())?,
        }
        Ok(())
    })?;
    let stats_after = rayon::pool_stats();
    let report = first.expect("the closed loop ran at least once");
    let ops = times.len() as f64;

    // The sharded report must equal the in-process one.
    let (t_in, in_process) = timed(|| main_pool.install(|| run_in_process(&configs)));
    check(in_process? == report, || {
        "the sharded report differs from the in-process Scenario::run report".into()
    })?;

    let points = || report.iter().map(|(_, point)| point);
    let online = |point: &ExperimentReport| point.online.expect("checked above");
    let tail = Tail::of(&times);
    let end_to_end = vec![
        ("setup_s", setup_s),
        ("op_p50_s", median(&times)),
        ("op_tail_s", tail.value),
        ("cells_per_s", cells as f64 / median(&times)),
        ("peak_rss_mb", peak_rss_mb()),
        ("max_load", mean(points().map(|p| online(p).peak_load.mean))),
        ("rounds_mean", mean(points().map(|p| p.rounds.mean))),
        (
            "work_per_ball",
            mean(points().map(|p| p.work_per_ball.mean)),
        ),
        (
            "latency_p99_rounds",
            mean(points().map(|p| online(p).latency_p99.mean)),
        ),
    ];
    let notes = vec![format!(
        "operation times {times:.3?} s; op_tail_s is p{:.1} of {} operations ({} beyond); \
         the in-process Scenario::run report is identical",
        tail.percentile, tail.samples, tail.beyond
    )];

    let mut per_layer = Vec::new();
    let mut trace = None;
    if settings.trace {
        let (t1, single) = timed(|| pool(1).install(|| run_in_process(&configs)));
        check(single? == report, || {
            "the in-process sweep differs at 1 thread".into()
        })?;
        let mut t = Trace::new();
        let replayed = pool(1).install(|| replay(&configs, shards, &report, &mut t))?;
        let worker_s = t.total("core.shard_worker");
        let total = |names: &[&str]| names.iter().map(|name| t.total(name)).sum::<f64>();
        let in_process_spans = total(&[
            "graph.generate",
            "graph.snapshot_encode",
            "graph.snapshot_decode",
            "core.trial",
            "core.accumulate_push",
            "core.accumulate_merge",
            "core.into_report",
        ]);
        let coordinator_spans = total(&[
            "graph.generate",
            "graph.snapshot_encode",
            "core.manifest_encode",
            "core.report_decode",
            "core.report_merge",
            "core.into_report",
        ]);
        let generate_s = t.total("graph.generate");
        per_layer.extend([
            ("graph.generate_s", generate_s),
            ("graph.edges", replayed.edges as f64),
            (
                "graph.ns_per_edge",
                generate_s * 1e9 / replayed.edges as f64,
            ),
            ("graph.snapshot_encode_s", t.total("graph.snapshot_encode")),
            ("graph.snapshot_decode_s", t.total("graph.snapshot_decode")),
            ("graph.snapshot_bytes", replayed.snapshot_bytes as f64),
        ]);
        per_layer.extend(engine_metrics(&t, replayed.counts, 1.0));
        per_layer.extend([
            ("core.trial_s", t.total("core.trial")),
            ("core.scenario_self_s", t1 - in_process_spans),
            ("core.snapshot_hits", report.cache.snapshot_hits as f64),
            ("core.direct_builds", report.cache.direct_builds as f64),
            ("core.accumulate_push_s", t.total("core.accumulate_push")),
            (
                "core.accumulate_merge_s",
                total(&[
                    "core.accumulate_merge",
                    "core.report_merge",
                    "core.into_report",
                ]),
            ),
            ("core.retained_bytes", replayed.retained_bytes as f64),
            (
                "core.wire_encode_s",
                total(&["core.manifest_encode", "core.report_encode"]),
            ),
            (
                "core.wire_decode_s",
                total(&["core.manifest_decode", "core.report_decode"]),
            ),
            ("core.manifest_bytes", replayed.manifest_bytes as f64),
            ("core.report_bytes", replayed.report_bytes as f64),
            ("core.shard_worker_s", worker_s),
            (
                "core.shard_spawn_wait_s",
                median(&times) - coordinator_spans,
            ),
        ]);
        per_layer.extend(pool_metrics(stats_before, stats_after, ops, t1 / t_in));
        // The replay runs every worker twice (library and layer by layer); the
        // library's execution is not part of the traced operation.
        let traced_op = replayed.seconds - worker_s;
        per_layer.extend([
            ("trace.op_s", traced_op),
            ("trace.overhead", traced_op / t1 - 1.0),
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

/// Sizes and counts the replay observed.
struct Replayed {
    seconds: f64,
    counts: EngineCounts,
    edges: u64,
    snapshot_bytes: u64,
    manifest_bytes: u64,
    report_bytes: u64,
    retained_bytes: u64,
}

/// Replays one sharded sweep in process through the public layer calls: the
/// coordinator's snapshot cache and manifests, each shard's worker (once through
/// `execute_manifest`, once cell by cell with spans, checked equal), the report
/// wire, and the coordinator's shard-order merge. Checks the result equals `report`.
fn replay(
    configs: &[ExperimentConfig],
    shards: usize,
    report: &SweepReport<usize>,
    trace: &mut Trace,
) -> Result<Replayed, String> {
    let mut replayed = Replayed {
        seconds: 0.0,
        counts: EngineCounts::default(),
        edges: 0,
        snapshot_bytes: 0,
        manifest_bytes: 0,
        report_bytes: 0,
        retained_bytes: 0,
    };
    let (seconds, reports) = timed(|| {
        trace.span("sharded.replay", |t| {
            replay_spans(configs, shards, t, &mut replayed)
        })
    });
    replayed.seconds = seconds;
    let reports = reports?;
    check(
        reports.iter().eq(report.iter().map(|(_, point)| point)),
        || "the replayed sharded sweep differs from the run_sharded report".into(),
    )?;
    Ok(replayed)
}

fn replay_spans(
    configs: &[ExperimentConfig],
    shards: usize,
    t: &mut Trace,
    replayed: &mut Replayed,
) -> Result<Vec<ExperimentReport>, String> {
    // The runner's plan: point-major cells, graph identities in first-appearance
    // order, snapshots for identities shared by more than one cell.
    let grid: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(index, config)| (0..config.trials as u64).map(move |trial| (index, trial)))
        .collect();
    let mut identity_index: BTreeMap<(String, u64), usize> = BTreeMap::new();
    let mut identities: Vec<(usize, u64, usize)> = Vec::new();
    let identity_of_cell: Vec<usize> = grid
        .iter()
        .map(|&(index, trial)| {
            let seed = configs[index].base_seed + trial;
            let key = (configs[index].graph.cache_key(), seed);
            let identity = *identity_index.entry(key).or_insert_with(|| {
                identities.push((index, seed, 0));
                identities.len() - 1
            });
            identities[identity].2 += 1;
            identity
        })
        .collect();
    let mut snapshots: Vec<Option<Vec<u8>>> = Vec::new();
    for &(index, seed, uses) in &identities {
        if uses < 2 {
            snapshots.push(None);
            continue;
        }
        let graph = t
            .span("graph.generate", |_| configs[index].graph.build(seed))
            .map_err(|e| format!("graph build failed: {e}"))?;
        replayed.edges += graph.num_edges() as u64;
        let bytes = t.span("graph.snapshot_encode", |_| {
            snapshot::encode(&graph).to_vec()
        });
        replayed.snapshot_bytes += bytes.len() as u64;
        snapshots.push(Some(bytes));
    }

    let mut merged: Vec<OutcomeAccumulator> = configs
        .iter()
        .map(|config| OutcomeAccumulator::new(config.retention))
        .collect();
    for (shard, range) in partition_cells(grid.len(), shards).into_iter().enumerate() {
        if range.is_empty() {
            continue;
        }
        // Coordinator: this shard's manifest, with its own dense snapshot table.
        let mut local: BTreeMap<usize, u32> = BTreeMap::new();
        let mut local_snapshots = Vec::new();
        let cells = range
            .clone()
            .map(|cell| {
                let (point, trial) = grid[cell];
                let identity = identity_of_cell[cell];
                let source = match &snapshots[identity] {
                    Some(bytes) => {
                        GraphSource::Snapshot(*local.entry(identity).or_insert_with(|| {
                            local_snapshots.push(bytes.clone());
                            (local_snapshots.len() - 1) as u32
                        }))
                    }
                    None => GraphSource::Direct,
                };
                ShardCell {
                    point: point as u32,
                    trial,
                    source,
                }
            })
            .collect();
        let manifest = ShardManifest {
            shard_index: shard as u32,
            shard_count: shards as u32,
            first_cell: range.start as u64,
            configs: configs.to_vec(),
            snapshots: local_snapshots,
            cells,
        };
        let manifest_wire = t.span("core.manifest_encode", |_| encode_manifest(&manifest));
        replayed.manifest_bytes += manifest_wire.len() as u64;

        // Worker: decode, execute through the library, then again layer by layer.
        let manifest = t
            .span("core.manifest_decode", |_| decode_manifest(&manifest_wire))
            .map_err(|e| format!("manifest decode failed: {e}"))?;
        let library = t
            .span("core.shard_worker", |_| execute_manifest(&manifest))
            .map_err(|e| format!("execute_manifest failed: {e}"))?;
        let by_hand = replay_worker(&manifest, t, &mut replayed.counts)?;
        check(by_hand == library, || {
            format!("shard {shard}: the layer-by-layer worker differs from execute_manifest")
        })?;
        let report_wire = t
            .span("core.report_encode", |_| encode_report(&library))
            .map_err(|e| format!("report encode failed: {e}"))?;
        replayed.report_bytes += report_wire.len() as u64;

        // Coordinator: decode and merge in shard order.
        let decoded = t
            .span("core.report_decode", |_| decode_report(&report_wire))
            .map_err(|e| format!("report decode failed: {e}"))?;
        let ShardPayload::Accumulators(states) = decoded.payload else {
            return Err("a summary sweep returned per-cell outcomes".into());
        };
        for (point, accumulator) in states {
            t.span("core.report_merge", |_| {
                merged[point as usize].merge(accumulator)
            });
        }
    }
    replayed.retained_bytes = merged.iter().map(OutcomeAccumulator::retained_bytes).sum();
    Ok(merged
        .into_iter()
        .zip(configs)
        .map(|(accumulator, config)| {
            t.span("core.into_report", |_| {
                accumulator.into_report(config.clone())
            })
        })
        .collect())
}

/// One shard's cells, each decoded, replayed and folded with its own span.
fn replay_worker(
    manifest: &ShardManifest,
    t: &mut Trace,
    counts: &mut EngineCounts,
) -> Result<ShardReport, String> {
    let mut points: BTreeMap<u32, OutcomeAccumulator> = BTreeMap::new();
    let (mut snapshot_hits, mut direct_builds) = (0, 0);
    for cell in &manifest.cells {
        let config = &manifest.configs[cell.point as usize];
        let seed = config.base_seed + cell.trial;
        let graph = match cell.source {
            GraphSource::Snapshot(index) => {
                snapshot_hits += 1;
                t.span("graph.snapshot_decode", |_| {
                    snapshot::decode(&manifest.snapshots[index as usize])
                })
            }
            GraphSource::Direct => {
                direct_builds += 1;
                t.span("graph.generate", |_| config.graph.build(seed))
            }
        }
        .map_err(|e| format!("cell graph failed: {e}"))?;
        let outcome = replay_trial(config, &graph, seed, t, counts);
        let mut accumulator = OutcomeAccumulator::new(config.retention);
        t.span("core.accumulate_push", |_| accumulator.push(outcome));
        let point = points
            .entry(cell.point)
            .or_insert_with(|| OutcomeAccumulator::new(config.retention));
        t.span("core.accumulate_merge", |_| point.merge(accumulator));
    }
    Ok(ShardReport {
        shard_index: manifest.shard_index,
        first_cell: manifest.first_cell,
        snapshot_hits,
        direct_builds,
        payload: ShardPayload::Accumulators(points.into_iter().collect()),
    })
}
