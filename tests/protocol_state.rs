//! The one object-safe `Protocol` trait, seen from the facade: the simulation builder
//! takes a concrete protocol and a `ProtocolSpec::build()` box alike, the engine owns
//! one `u64` state word per server that only SAER writes, and server loads stay an
//! exact census of the balls in service through surplus releases and departures.

use clb::prelude::*;

/// Runs one simulation and captures everything observable about the outcome.
fn observe(
    graph: &BipartiteGraph,
    protocol: impl Into<Box<dyn Protocol>>,
    d: u32,
    seed: u64,
) -> Observations {
    let mut sim = Simulation::builder(graph)
        .protocol(protocol)
        .demand(Demand::Constant(d))
        .seed(seed)
        .max_rounds(2_000)
        .build();
    let result = sim.run();
    Observations {
        name: sim.protocol().name(),
        result,
        loads: sim.server_loads().to_vec(),
        states: sim.server_states().to_vec(),
        assignments: graph.clients().map(|c| sim.client_assignment(c)).collect(),
    }
}

#[derive(Debug, PartialEq)]
struct Observations {
    name: String,
    result: RunResult,
    loads: Vec<u32>,
    states: Vec<u64>,
    assignments: Vec<Vec<Option<u32>>>,
}

/// The concrete protocol a spec names, handed to the builder unboxed.
fn observe_concrete(
    spec: &ProtocolSpec,
    graph: &BipartiteGraph,
    d: u32,
    seed: u64,
) -> Observations {
    match *spec {
        ProtocolSpec::Saer { c, d: pd } => observe(graph, Saer::new(c, pd), d, seed),
        ProtocolSpec::Raes { c, d: pd } => observe(graph, Raes::new(c, pd), d, seed),
        ProtocolSpec::Threshold { per_round } => observe(graph, Threshold::new(per_round), d, seed),
        ProtocolSpec::KChoice { k, capacity } => observe(graph, KChoice::new(k, capacity), d, seed),
        ProtocolSpec::OneShot => observe(graph, OneShot::new(), d, seed),
        ProtocolSpec::Jsq { d: pd } => observe(graph, Jsq::new(pd), d, seed),
    }
}

#[test]
fn builder_takes_concrete_and_spec_built_protocols_alike() {
    // `protocol(impl Into<Box<dyn Protocol>>)` boxes a concrete protocol once and takes
    // an already-boxed one as is, so both entry points must run the same rule: same
    // name, same result, same loads, state words and assignments — on every topology
    // family, in the completing and the round-capped regimes.
    let d = 2;
    for graph_spec in [
        GraphSpec::Regular { n: 64, delta: 16 },
        GraphSpec::Complete { n: 32 },
        GraphSpec::SkewedExample { n: 64 },
        GraphSpec::Clusters {
            n: 64,
            clusters: 4,
            intra_degree: 12,
            inter_degree: 3,
        },
    ] {
        let graph = graph_spec.build(3).unwrap();
        for (c, spec_d) in [(8, 2), (1, 3)] {
            for spec in ProtocolSpec::all_variants(c, spec_d) {
                let concrete = observe_concrete(&spec, &graph, d, 42);
                let built = observe(&graph, spec.build(), d, 42);
                assert_eq!(
                    concrete,
                    built,
                    "{} on {} diverged between a concrete and a spec-built protocol",
                    spec.label(),
                    graph_spec.label()
                );
            }
        }
    }
}

#[test]
fn state_words_stay_zero_for_rules_that_ignore_them() {
    // Only SAER keeps per-server memory (its received-request count); every other
    // rule decides from the current load alone and must leave its word untouched,
    // bare and behind a fault adapter that exercises every fault kind.
    let d = 2;
    let graph = generators::regular_random(128, log2_squared(128), 11).unwrap();
    let plan = FaultPlan::none()
        .crash(4, 0.3)
        .lying_load(0.25, 0.5)
        .message_loss(0.1, 0.05)
        .stragglers(0.2, 0.5);
    for spec in ProtocolSpec::all_variants(2, d) {
        for seed in [1u64, 99] {
            for (how, obs) in [
                ("bare", observe(&graph, spec.build(), d, seed)),
                (
                    "faulted",
                    observe(&graph, plan.wrap(spec.build(), seed), d, seed),
                ),
            ] {
                let written = obs.states.iter().filter(|&&word| word != 0).count();
                if let ProtocolSpec::Saer { .. } = spec {
                    assert!(written > 0, "{how} SAER (seed {seed}) counted no requests");
                } else {
                    assert_eq!(
                        written,
                        0,
                        "{how} {} (seed {seed}) wrote {written} state words",
                        spec.label()
                    );
                }
            }
        }
    }
}

#[test]
fn server_loads_stay_a_census_of_balls_in_service() {
    // Surplus acceptances of multi-choice balls and online departures are plain load
    // decrements, so after every round the loads must sum to the balls in service —
    // in batch mode, exactly the balls holding an assignment.
    let graph = generators::regular_random(96, 12, 5).unwrap();
    let specs = [
        ProtocolSpec::Saer { c: 4, d: 2 },
        ProtocolSpec::Raes { c: 4, d: 2 },
        ProtocolSpec::KChoice { k: 2, capacity: 8 },
        ProtocolSpec::KChoice { k: 3, capacity: 2 },
        ProtocolSpec::Jsq { d: 2 },
    ];
    for spec in specs {
        let mut batch = Simulation::builder(&graph)
            .protocol(spec.build())
            .demand(Demand::Constant(2))
            .seed(17)
            .max_rounds(200)
            .build();
        while !batch.is_complete() && batch.round() < 200 {
            batch.step();
            let loads: u64 = batch.server_loads().iter().map(|&l| u64::from(l)).sum();
            let assigned = graph
                .clients()
                .flat_map(|c| batch.client_assignment(c))
                .filter(Option::is_some)
                .count() as u64;
            assert_eq!(loads, batch.in_service(), "{} batch", spec.label());
            assert_eq!(loads, assigned, "{} batch", spec.label());
        }

        let mut online = Simulation::builder(&graph)
            .protocol(spec.build())
            .workload(OnlineWorkload {
                arrivals: ArrivalProcess::Poisson {
                    rate: 24.0,
                    rounds: 40,
                },
                service: ServiceDistribution::Geometric { p: 0.25 },
            })
            .seed(17)
            .max_rounds(200)
            .build();
        let mut departed = 0;
        while !online.is_complete() && online.round() < 200 {
            departed += online.step().departures;
            let loads: u64 = online.server_loads().iter().map(|&l| u64::from(l)).sum();
            assert_eq!(loads, online.in_service(), "{} online", spec.label());
        }
        assert!(
            departed > 0,
            "{} online: no ball ever departed",
            spec.label()
        );
    }
}
