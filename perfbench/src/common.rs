//! Pieces every workload shares: thread pools, the closed timing loop, the replayed
//! trial, engine counters, pool-statistics deltas and memory readings.

use crate::stats::Tally;
use crate::trace::Trace;
use clb::analysis::Histogram;
use clb::prelude::*;
// clb-audit: allow(wall-clock) -- the benchmark exists to measure wall time
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// A failed correctness check.
pub type Gate = Result<(), String>;

/// Fails with `message` unless `ok`.
pub fn check(ok: bool, message: impl FnOnce() -> String) -> Gate {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// Run settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Main pool width: 2, or fewer on a machine with fewer hardware threads.
    pub threads: usize,
    pub hardware_threads: usize,
}

impl Settings {
    /// Base of every simulation and graph seed of the run: distinct per `--seed`,
    /// and far enough below `u64::MAX` that seed arithmetic never wraps.
    pub fn base_seed(&self) -> u64 {
        (self.seed % 1_000_000) * 100_000 + 1
    }
}

/// What one workload run produced.
pub struct Measured {
    /// Sizes, seeds, thread and shard counts, spelled out.
    pub definition: String,
    /// `(metric, value)` for every end-to-end metric.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(metric, value)` for every per-layer metric (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Operations or cells attempted and failed.
    pub tally: Tally,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    /// The run's spans; `None` when untraced.
    pub trace: Option<Trace>,
}

/// A pool that runs every parallel call inside `install` on `threads` threads.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("stub pools always build")
}

/// Times `setup` [`SETUP_REPEATS`] times and returns the median plus the last result.
pub fn repeated_setup<R>(
    mut setup: impl FnMut(usize) -> Result<R, String>,
) -> Result<(f64, R), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for repeat in 0..SETUP_REPEATS {
        // Release the previous result first so set-ups do not stack in memory.
        drop(last.take());
        let (time, result) = timed(|| setup(repeat));
        times.push(time);
        last = Some(result?);
    }
    Ok((
        crate::stats::median(&times),
        last.expect("at least one set-up"),
    ))
}

/// The closed loop: runs `op(i)` back to back until `seconds` have passed and at
/// least `min_ops` operations ran; returns each operation's wall time.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Gate,
) -> Result<Vec<f64>, String> {
    // clb-audit: allow(wall-clock) -- the closed loop runs for a wall-time budget
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (time, result) = timed(|| op(times.len()));
        result?;
        times.push(time);
    }
    Ok(times)
}

/// Wall time of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // clb-audit: allow(wall-clock) -- operation and layer timings are the output
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// Peak resident memory of this process in MB (VmHWM), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The round by which 99% of a batch run's balls had settled, from the per-round
/// alive counts.
pub fn settle_round_p99(alive_after: impl IntoIterator<Item = u64>, total_balls: u64) -> f64 {
    let mut last = 0;
    for (index, alive) in alive_after.into_iter().enumerate() {
        last = index + 1;
        if alive * 100 <= total_balls {
            break;
        }
    }
    last as f64
}

/// Mean of `values`.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    sum / count.max(1) as f64
}

/// Engine work summed over the rounds a run stepped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub rounds: u64,
    pub requests: u64,
    pub settled: u64,
    pub arrivals: u64,
    pub departures: u64,
}

impl EngineCounts {
    pub fn add(&mut self, records: &[RoundRecord]) {
        for r in records {
            self.rounds += 1;
            self.requests += r.requests_sent;
            self.settled += r.balls_assigned;
            self.arrivals += r.arrivals;
            self.departures += r.departures;
        }
    }
}

/// The engine metrics of a traced run, per operation.
pub fn engine_metrics(trace: &Trace, counts: EngineCounts, ops: f64) -> Vec<(&'static str, f64)> {
    let step = trace.total("engine.step");
    vec![
        ("engine.build_s", trace.total("engine.build") / ops),
        ("engine.step_s", step / ops),
        (
            "engine.ns_per_request",
            step * 1e9 / counts.requests.max(1) as f64,
        ),
        ("engine.rounds", counts.rounds as f64 / ops),
        ("engine.requests", counts.requests as f64 / ops),
        (
            "engine.accept_ratio",
            counts.settled as f64 / counts.requests.max(1) as f64,
        ),
        ("engine.arrivals", counts.arrivals as f64 / ops),
        ("engine.departures", counts.departures as f64 / ops),
    ]
}

/// Pool counters accumulated between two `pool_stats()` readings, per operation.
pub fn pool_metrics(
    before: rayon::PoolStats,
    after: rayon::PoolStats,
    ops: f64,
    speedup_2v1: f64,
) -> Vec<(&'static str, f64)> {
    let attempted = after.steals_attempted - before.steals_attempted;
    let succeeded = after.steals_succeeded - before.steals_succeeded;
    vec![
        (
            "rayon.tasks",
            (after.tasks_executed - before.tasks_executed) as f64 / ops,
        ),
        ("rayon.steals", succeeded as f64 / ops),
        (
            "rayon.steal_ratio",
            if attempted == 0 {
                0.0
            } else {
                succeeded as f64 / attempted as f64
            },
        ),
        ("rayon.parks", (after.parks - before.parks) as f64 / ops),
        ("rayon.speedup_2v1", speedup_2v1),
    ]
}

/// One trial replayed through the public layer calls, with spans around
/// `SimulationBuilder::build` and every `Simulation::step`: the same steps as
/// `ExperimentConfig::run_trial_on` for configs without faults or the per-round
/// burned-fraction and neighbourhood-mass measurements. Callers check that the
/// replayed outcomes fold into the runner's report.
pub fn replay_trial(
    config: &ExperimentConfig,
    graph: &BipartiteGraph,
    seed: u64,
    trace: &mut Trace,
    counts: &mut EngineCounts,
) -> TrialOutcome {
    assert!(
        config.faults.is_none()
            && !config.measurements.burned_fraction
            && !config.measurements.neighborhood_mass,
        "the replay covers fault-free configs with at most the trajectory measurement"
    );
    trace.span("core.trial", |t| {
        let mut sim = t.span("engine.build", |_| {
            let mut builder = Simulation::builder(graph)
                .protocol(config.protocol.build())
                .demand(config.demand.clone())
                .config(SimConfig {
                    seed,
                    max_rounds: config.max_rounds,
                });
            if let Some(workload) = &config.workload {
                builder = builder.workload(workload.clone());
            }
            if let Some(pieces) = config.intra_step_pieces {
                builder = builder.intra_step_pieces(pieces);
            }
            builder.build()
        });
        let mut records = Vec::new();
        while !sim.is_complete() && sim.round() < config.max_rounds {
            records.push(t.span("engine.step", |_| sim.step()));
        }
        counts.add(&records);
        let degree_stats = DegreeStats::of(graph);
        let online = config.workload.as_ref().map(|_| {
            let latencies = sim
                .settle_latencies()
                .expect("a workload-attached simulation reports settle latencies");
            OnlineStats::compute(&records, &latencies)
        });
        TrialOutcome {
            seed,
            degree_stats,
            surviving_servers: degree_stats.num_servers as u64,
            result: sim.result(),
            online,
            load_histogram: Histogram::of(sim.server_loads().iter().copied()),
            burned_fraction_series: None,
            neighborhood_mass_series: None,
            alive_series: config
                .measurements
                .trajectory
                .then(|| records.iter().map(|r| r.alive_after).collect()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_round_is_the_first_round_with_at_most_one_percent_alive() {
        assert_eq!(settle_round_p99([500, 20, 10, 0], 1000), 3.0);
        assert_eq!(settle_round_p99([0], 1000), 1.0);
        // A run cut off before 99% settled reports its last round.
        assert_eq!(settle_round_p99([900, 800], 1000), 2.0);
    }

    #[test]
    fn the_closed_loop_runs_at_least_min_ops() {
        let mut seen = Vec::new();
        let times = closed_loop(0.0, 3, |i| {
            seen.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!((times.len(), seen), (3, vec![0, 1, 2]));
        assert!(closed_loop(0.0, 2, |_| Err("boom".into())).is_err());
    }
}
