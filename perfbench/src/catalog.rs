//! What the benchmark measures: its workloads, its end-to-end metrics with their
//! direction and bound, and its per-layer metrics with the end-to-end metric and
//! workload each should move. `BENCHMARK.json` and `perfbench/CATALOG.json` are
//! checked against these tables by the tests below.

use crate::json::quote;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// One workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (one line, at most 200 characters).
    pub why: &'static str,
    /// What one closed-loop operation is.
    pub operation: &'static str,
    /// Listed in `BENCHMARK.json`, so every run of it is held to the end-to-end
    /// bounds. An ungated workload runs only by hand.
    pub gated: bool,
}

/// `sweep` is ungated: its cells are bound by `GraphSpec::build`'s hash-set probes,
/// whose speed follows the last-level-cache traffic of whatever else shares the
/// host, and on a shared 2-vCPU host its operation time spread 17-28% of the median
/// between runs of the same code, past the 0.25 timing bound. Its layers are still
/// measured: generation and the in-process runner on `sharded`, by hand on `sweep`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "instance",
        why: "one 1e7-ball SAER run on a prebuilt 20M-edge graph, closed loop, 1 caller at 2 \
              threads: clb-engine build and step do nearly all the work",
        operation: "build a Simulation (SAER c=24 d=2, 4 balls per client, 2.5M clients, \
                    312,500 servers) and step it to completion at 2 threads",
        gated: true,
    },
    Workload {
        name: "sweep",
        why: "a 48-cell SAER sweep over regular and almost-regular n=4096 graphs, closed loop, \
              1 caller at 2 threads: clb-graph generation does nearly all the work",
        operation: "one Scenario::run, Retention::Full: SAER c in {4,8,16} x {RegularLogSquared, \
                    AlmostRegular 72..=288} at n=4096, 8 trials, disjoint seeds",
        gated: false,
    },
    Workload {
        name: "sharded",
        why: "a 48-cell online RAES/JSQ sweep over 2 shard processes of 1 thread, closed loop, 1 \
              caller: snapshots, summary folds and the shard wire carry the cells",
        operation: "one Scenario::run_sharded over 2 shards, Retention::Summary, paired seeds: \
                    {RAES c=4 d=2, JSQ d=2} x Poisson rate {256, 512, 1024} on Regular n=1024 \
                    degree 100, geometric service p=0.25, 200 rounds of arrivals + 60 to drain, \
                    8 trials",
        gated: true,
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "median over 5 set-ups of the time before the first timed operation: graph \
                  build and warm-up",
    },
    EndToEnd {
        name: "op_p50_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "median wall time of one operation",
    },
    EndToEnd {
        name: "op_tail_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "highest percentile of operation wall time with 10 samples beyond it (the \
                  upper median when fewer than 21 operations ran); percentile and sample count \
                  are printed",
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        better: Higher,
        bound: 0.25,
        meaning: "median over operations of cells per second of operation time (an instance \
                  operation is one cell)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.1,
        meaning: "peak resident memory of the benchmark's main process (VmHWM)",
    },
    EndToEnd {
        name: "max_load",
        unit: "balls",
        better: Lower,
        bound: 0.1,
        meaning: "mean over cells of the paper's maximum load (the in-flight peak for online \
                  cells)",
    },
    EndToEnd {
        name: "rounds_mean",
        unit: "rounds",
        better: Lower,
        bound: 0.2,
        meaning: "mean over cells of the rounds to completion, the paper's completion time",
    },
    EndToEnd {
        name: "work_per_ball",
        unit: "msgs/ball",
        better: Lower,
        bound: 0.1,
        meaning: "mean over cells of messages per ball, the paper's work complexity",
    },
    EndToEnd {
        name: "latency_p99_rounds",
        unit: "rounds",
        better: Lower,
        bound: 0.1,
        meaning: "mean over cells of the 99th-percentile settle latency: OnlineReport \
                  latency_p99 for online cells, the round by which 99% of balls settled for \
                  batch cells",
    },
];

/// One per-layer metric: reported by every workload with tracing on, per operation.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How it is measured.
    pub meaning: &'static str,
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const SWEEP_CELLS: &[(&str, &str)] = &[("cells_per_s", "sweep")];
/// `sharded`'s coordinator generates its 8 graphs before the workers start.
const GENERATE: &[(&str, &str)] = &[("cells_per_s", "sweep"), ("cells_per_s", "sharded")];
const SHARDED_CELLS: &[(&str, &str)] = &[("cells_per_s", "sharded")];
const SHARDED_CELLS_RSS: &[(&str, &str)] =
    &[("cells_per_s", "sharded"), ("peak_rss_mb", "sharded")];
const ENGINE: &[(&str, &str)] = &[
    ("op_p50_s", "instance"),
    ("op_tail_s", "instance"),
    ("cells_per_s", "sharded"),
];
const PROTOCOL: &[(&str, &str)] = &[
    ("work_per_ball", "instance"),
    ("work_per_ball", "sweep"),
    ("rounds_mean", "instance"),
    ("rounds_mean", "sweep"),
];
const CORE: &[(&str, &str)] = &[("cells_per_s", "sweep"), ("cells_per_s", "sharded")];
const POOL: &[(&str, &str)] = &[("op_p50_s", "instance"), ("cells_per_s", "sweep")];

pub const PER_LAYER: [PerLayer; 35] = [
    PerLayer {
        name: "graph.generate_s",
        unit: "s",
        better: Lower,
        meaning: "time in GraphSpec::build",
        moves: GENERATE,
    },
    PerLayer {
        name: "graph.edges",
        unit: "count",
        better: Lower,
        meaning: "edges of the graphs generated or assembled",
        moves: GENERATE,
    },
    PerLayer {
        name: "graph.ns_per_edge",
        unit: "ns",
        better: Lower,
        meaning: "(generate + from_edges time) per edge",
        moves: GENERATE,
    },
    PerLayer {
        name: "graph.from_edges_s",
        unit: "s",
        better: Lower,
        meaning: "time in BipartiteGraph::from_edges (set-up of instance)",
        moves: &[("setup_s", "instance")],
    },
    PerLayer {
        name: "graph.snapshot_encode_s",
        unit: "s",
        better: Lower,
        meaning: "time in snapshot::encode",
        moves: SHARDED_CELLS_RSS,
    },
    PerLayer {
        name: "graph.snapshot_decode_s",
        unit: "s",
        better: Lower,
        meaning: "time in snapshot::decode",
        moves: SHARDED_CELLS_RSS,
    },
    PerLayer {
        name: "graph.snapshot_bytes",
        unit: "bytes",
        better: Lower,
        meaning: "bytes of snapshot encodings",
        moves: SHARDED_CELLS_RSS,
    },
    PerLayer {
        name: "engine.build_s",
        unit: "s",
        better: Lower,
        meaning: "time in SimulationBuilder::build",
        moves: ENGINE,
    },
    PerLayer {
        name: "engine.step_s",
        unit: "s",
        better: Lower,
        meaning: "time in Simulation::step",
        moves: ENGINE,
    },
    PerLayer {
        name: "engine.ns_per_request",
        unit: "ns",
        better: Lower,
        meaning: "step time per request sent",
        moves: ENGINE,
    },
    PerLayer {
        name: "engine.rounds",
        unit: "rounds",
        better: Lower,
        meaning: "rounds stepped",
        moves: PROTOCOL,
    },
    PerLayer {
        name: "engine.requests",
        unit: "count",
        better: Lower,
        meaning: "requests sent",
        moves: PROTOCOL,
    },
    PerLayer {
        name: "engine.accept_ratio",
        unit: "ratio",
        better: Higher,
        meaning: "balls settled per request sent",
        moves: PROTOCOL,
    },
    PerLayer {
        name: "engine.arrivals",
        unit: "count",
        better: Lower,
        meaning: "online arrivals injected",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "engine.departures",
        unit: "count",
        better: Lower,
        meaning: "online departures",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.trial_s",
        unit: "s",
        better: Lower,
        meaning: "time in one trial (the run_trial_on steps, replayed)",
        moves: CORE,
    },
    PerLayer {
        name: "core.scenario_self_s",
        unit: "s",
        better: Lower,
        meaning: "Scenario::run at 1 thread minus its replayed layer spans",
        moves: CORE,
    },
    PerLayer {
        name: "core.snapshot_hits",
        unit: "count",
        better: Higher,
        meaning: "cells served from a graph snapshot (runner's CacheStats)",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.direct_builds",
        unit: "count",
        better: Lower,
        meaning: "cells that built their own graph (runner's CacheStats)",
        moves: SWEEP_CELLS,
    },
    PerLayer {
        name: "core.accumulate_push_s",
        unit: "s",
        better: Lower,
        meaning: "time in OutcomeAccumulator::push",
        moves: CORE,
    },
    PerLayer {
        name: "core.accumulate_merge_s",
        unit: "s",
        better: Lower,
        meaning: "time in OutcomeAccumulator::merge and into_report",
        moves: SHARDED_CELLS_RSS,
    },
    PerLayer {
        name: "core.retained_bytes",
        unit: "bytes",
        better: Lower,
        meaning: "OutcomeAccumulator::retained_bytes of the merged per-point accumulators",
        moves: SHARDED_CELLS_RSS,
    },
    PerLayer {
        name: "core.wire_encode_s",
        unit: "s",
        better: Lower,
        meaning: "time in shard::encode_manifest and encode_report",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.wire_decode_s",
        unit: "s",
        better: Lower,
        meaning: "time in shard::decode_manifest and decode_report",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.manifest_bytes",
        unit: "bytes",
        better: Lower,
        meaning: "encoded manifest bytes over all shards",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.report_bytes",
        unit: "bytes",
        better: Lower,
        meaning: "encoded shard report bytes over all shards",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.shard_worker_s",
        unit: "s",
        better: Lower,
        meaning: "time in shard::execute_manifest, in process at 1 thread, over all shards",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "core.shard_spawn_wait_s",
        unit: "s",
        better: Lower,
        meaning: "run_sharded wall time minus the replayed spans of its coordinating process",
        moves: SHARDED_CELLS,
    },
    PerLayer {
        name: "rayon.tasks",
        unit: "count",
        better: Lower,
        meaning: "pool tasks executed (pool_stats delta over the timed operations)",
        moves: POOL,
    },
    PerLayer {
        name: "rayon.steals",
        unit: "count",
        better: Lower,
        meaning: "successful steal scans (pool_stats delta)",
        moves: POOL,
    },
    PerLayer {
        name: "rayon.steal_ratio",
        unit: "ratio",
        better: Higher,
        meaning: "successful over attempted steal scans",
        moves: POOL,
    },
    PerLayer {
        name: "rayon.parks",
        unit: "count",
        better: Lower,
        meaning: "worker parks (pool_stats delta)",
        moves: POOL,
    },
    PerLayer {
        name: "rayon.speedup_2v1",
        unit: "ratio",
        better: Higher,
        meaning: "untraced operation time at 1 thread over the same at 2 threads",
        moves: POOL,
    },
    PerLayer {
        name: "trace.op_s",
        unit: "s",
        better: Lower,
        meaning: "wall time of one traced operation (the replay, for sweep and sharded)",
        moves: &[],
    },
    PerLayer {
        name: "trace.overhead",
        unit: "ratio",
        better: Lower,
        meaning: "traced over untraced operation time minus 1, at equal thread counts",
        moves: &[],
    },
];

/// The catalog as a JSON document: seeds, workloads, metric directions and bounds,
/// and what each per-layer metric should move.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"default_seed\": {DEFAULT_SEED},\n");
    out += &format!("  \"held_out_seed\": {HELD_OUT_SEED},\n");
    out += "  \"workloads\": [\n";
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"gated\": {}, \"why\": {}, \"loop\": \"closed: one caller \
                 waits for each operation before starting the next\", \"operation\": {}}}",
                quote(w.name),
                w.gated,
                quote(w.why),
                quote(w.operation)
            )
        })
        .collect();
    out += &workloads.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}, \
                 \"meaning\": {}}}",
                quote(m.name),
                quote(m.unit),
                m.better.as_str(),
                m.bound,
                quote(m.meaning)
            )
        })
        .collect();
    out += &e2e.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let moves: Vec<String> = m
                .moves
                .iter()
                .map(|(metric, workload)| {
                    format!(
                        "{{\"metric\": {}, \"workload\": {}}}",
                        quote(metric),
                        quote(workload)
                    )
                })
                .collect();
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"meaning\": {}, \
                 \"moves\": [{}]}}",
                quote(m.name),
                quote(m.unit),
                m.better.as_str(),
                quote(m.meaning),
                moves.join(", ")
            )
        })
        .collect();
    out += &layers.join(",\n");
    out += "\n  ]\n}\n";
    out
}

/// The bound of end-to-end metric `name`, if it is one.
pub fn bound_of(name: &str) -> Option<(f64, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.bound, m.better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn read(relative: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        value
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn keys(value: &Value) -> Vec<&str> {
        value
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = field(&doc, "workloads").as_array().unwrap();
        let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(workloads.len(), gated.len());
        for (entry, w) in workloads.iter().zip(gated) {
            assert_eq!(keys(entry), ["name", "why"]);
            assert_eq!(field(entry, "name").as_str(), Some(w.name));
            assert_eq!(field(entry, "why").as_str(), Some(w.why));
            assert!(w.why.len() <= 200, "{}: why is too long", w.name);
        }
        let e2e = field(&doc, "end_to_end").as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
            assert_eq!(field(entry, "bound").as_f64(), Some(m.bound));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        let layers = field(&doc, "per_layer").as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
        }
    }

    #[test]
    fn catalog_json_is_current() {
        assert_eq!(
            read("CATALOG.json"),
            describe(),
            "regenerate with: python3 perfbench/run.py describe > perfbench/CATALOG.json"
        );
    }

    #[test]
    fn every_move_names_a_known_metric_and_workload() {
        for m in &PER_LAYER {
            for (metric, workload) in m.moves {
                assert!(END_TO_END.iter().any(|e| e.name == *metric), "{metric}");
                assert!(WORKLOADS.iter().any(|w| w.name == *workload), "{workload}");
            }
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
        assert!(parse(&describe()).is_ok());
    }
}
