//! Pins the engine's observable behaviour bit-identical across engine refactors.
//!
//! The fixture `fixtures/golden_runs.txt` holds three blocks, each generated by
//! `regenerate_golden_fixture` (below) on the engine that preceded the refactor it
//! guards:
//!
//! * the batch matrix (topology × every `ProtocolSpec` × seed), generated before the
//!   `RoundBuffers` / counting-sort rework, against the per-round-allocating
//!   `par_sort_unstable` engine;
//! * fault rows: crash-stop, lying loads, message loss, stragglers and all four at
//!   once, each wrapped around SAER, RAES and k-choice;
//! * online rows: Poisson arrivals with geometric service on SAER, RAES, JSQ and
//!   k-choice, digesting the arrival/departure record fields and every ball's
//!   settle latency too.
//!
//! The fault and online rows were appended (the batch block unchanged) before the
//! protocol trait was collapsed to one object-safe trait with engine-owned `u64`
//! server state. The main test replays the exact same matrix on the current engine
//! and demands bit-identical `RunResult`s, per-round `RoundRecord` streams and final
//! server loads.
//!
//! If this test ever fails, the engine's observable behaviour changed. That is only
//! acceptable for a deliberate semantic change, in which case regenerate the fixture
//! with:
//!
//! ```text
//! cargo test --test golden_equivalence -- --ignored --nocapture regenerate
//! ```
//!
//! and paste the printed lines into `tests/fixtures/golden_runs.txt` (and say why in
//! the commit message).

use clb::prelude::*;

const FIXTURE: &str = include_str!("fixtures/golden_runs.txt");
const MAX_ROUNDS: u32 = 300;
const SEEDS: [u64; 3] = [11, 57, 123];

/// Every topology family, small enough that the full matrix runs in a few seconds.
fn topologies() -> Vec<GraphSpec> {
    vec![
        GraphSpec::Regular { n: 96, delta: 12 },
        GraphSpec::RegularLogSquared { n: 96, eta: 1.0 },
        GraphSpec::AlmostRegular {
            n: 96,
            min_degree: 8,
            max_degree: 16,
        },
        GraphSpec::SkewedExample { n: 64 },
        GraphSpec::Complete { n: 48 },
        GraphSpec::ErdosRenyi { n: 96, p: 0.15 },
        GraphSpec::Geometric {
            n: 96,
            expected_degree: 16,
        },
        GraphSpec::Clusters {
            n: 96,
            clusters: 4,
            intra_degree: 10,
            inter_degree: 3,
        },
    ]
}

/// Every `ProtocolSpec` variant, at two parameterisations.
fn protocols() -> Vec<ProtocolSpec> {
    let mut all = ProtocolSpec::all_variants(4, 2);
    all.extend(ProtocolSpec::all_variants(8, 3));
    all
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The fault plans of the fault rows: each kind alone, then all four at once.
fn fault_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none().crash(2, 0.3),
        FaultPlan::none().lying_load(0.5, 0.5),
        FaultPlan::none().message_loss(0.2, 0.1),
        FaultPlan::none().stragglers(0.3, 0.5),
        FaultPlan::none()
            .crash(2, 0.3)
            .lying_load(0.25, 0.5)
            .message_loss(0.1, 0.05)
            .stragglers(0.2, 0.5),
    ]
}

/// The protocols the fault rows wrap: the paper's two plus the k-choice baseline,
/// whose surplus accepts exercise the release path under faults. The thresholds are
/// tight so that every run lasts several rounds and each fault kind gets to bite.
fn faulted_protocols() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::Saer { c: 2, d: 2 },
        ProtocolSpec::Raes { c: 2, d: 2 },
        ProtocolSpec::KChoice { k: 2, capacity: 2 },
    ]
}

/// The protocols of the online rows: the paper's two, whose burned / saturated
/// servers meet departures, plus the two multi-choice baselines, whose surplus
/// accepts are released in the same rounds as departures free capacity.
fn online_protocols() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::Saer { c: 4, d: 2 },
        ProtocolSpec::Raes { c: 4, d: 2 },
        ProtocolSpec::Jsq { d: 2 },
        ProtocolSpec::KChoice { k: 2, capacity: 8 },
    ]
}

/// Poisson arrivals at a quarter of the client count per round for 40 rounds, each
/// ball served for a geometric number of rounds.
fn online_workload(clients: usize) -> OnlineWorkload {
    OnlineWorkload {
        arrivals: ArrivalProcess::Poisson {
            rate: clients as f64 / 4.0,
            rounds: 40,
        },
        service: ServiceDistribution::Geometric { p: 0.25 },
    }
}

/// What wraps a row's protocol run, beyond the batch defaults.
enum Extra {
    None,
    Faults(FaultPlan),
    Online,
}

/// Runs one cell of the matrix and renders its observable behaviour as one fixture
/// line: every `RunResult` field in the clear plus an FNV-1a digest of the full
/// per-round record stream and the final server loads. Online rows also digest the
/// arrival/departure fields of every record and every ball's settle latency.
fn run_case(spec: &GraphSpec, protocol: &ProtocolSpec, seed: u64, extra: &Extra) -> String {
    let graph = spec.build(seed).expect("fixture specs are valid");
    let demand = match protocol {
        ProtocolSpec::Saer { d, .. } | ProtocolSpec::Raes { d, .. } => *d,
        _ => 1,
    };
    let (built, label) = match extra {
        Extra::None => (protocol.build(), protocol.label()),
        Extra::Faults(plan) => (
            plan.wrap(protocol.build(), seed),
            format!("{}+faults[{}]", protocol.label(), plan.label()),
        ),
        Extra::Online => (protocol.build(), format!("{}+online", protocol.label())),
    };
    let mut builder = Simulation::builder(&graph)
        .protocol(built)
        .demand(Demand::Constant(demand))
        .seed(seed)
        .max_rounds(MAX_ROUNDS);
    if let Extra::Online = extra {
        builder = builder.workload(online_workload(graph.num_clients()));
    }
    let mut sim = builder.build();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    while !sim.is_complete() && sim.round() < MAX_ROUNDS {
        let record = sim.step();
        for word in [
            record.round as u64,
            record.requests_sent,
            record.balls_assigned,
            record.alive_after,
            record.messages,
            record.closed_servers,
            record.max_load as u64,
        ] {
            fnv1a(&mut digest, word);
        }
        if let Extra::Online = extra {
            for word in [record.arrivals, record.departures, record.in_service_after] {
                fnv1a(&mut digest, word);
            }
        }
    }
    for &load in sim.server_loads() {
        fnv1a(&mut digest, load as u64);
    }
    if let Some(latencies) = sim.settle_latencies() {
        for latency in latencies {
            fnv1a(&mut digest, latency as u64);
        }
    }
    let result = sim.result();
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:016x}",
        spec.label(),
        label,
        seed,
        result.completed,
        result.rounds,
        result.total_messages,
        result.max_load,
        result.unassigned_balls,
        result.total_balls,
        result.closed_servers,
        digest,
    )
}

fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for spec in topologies() {
        for protocol in protocols() {
            for &seed in &SEEDS {
                lines.push(run_case(&spec, &protocol, seed, &Extra::None));
            }
        }
    }
    // The fault and online rows run on two topologies: a regular graph and the
    // skewed example, whose uneven degrees spread the faults and arrivals unevenly.
    let extra_topologies = [
        GraphSpec::Regular { n: 96, delta: 12 },
        GraphSpec::SkewedExample { n: 64 },
    ];
    for spec in &extra_topologies {
        for plan in fault_plans() {
            for protocol in faulted_protocols() {
                for &seed in &SEEDS {
                    lines.push(run_case(spec, &protocol, seed, &Extra::Faults(plan)));
                }
            }
        }
    }
    for spec in &extra_topologies {
        for protocol in online_protocols() {
            for &seed in &SEEDS {
                lines.push(run_case(spec, &protocol, seed, &Extra::Online));
            }
        }
    }
    lines
}

#[test]
fn engine_matches_pr1_golden_fixture() {
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let actual = current_lines();
    assert_eq!(
        expected.len(),
        actual.len(),
        "fixture has {} cases but the matrix produced {} — regenerate the fixture",
        expected.len(),
        actual.len()
    );
    let mut mismatches = 0;
    for (want, got) in expected.iter().zip(&actual) {
        if want != got {
            mismatches += 1;
            eprintln!("golden mismatch:\n  fixture: {want}\n  current: {got}");
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} of {} cases diverged from the golden fixture",
        actual.len()
    );
}

/// Regenerates the fixture; run with `--ignored --nocapture` and redirect the lines
/// between the BEGIN/END markers into `tests/fixtures/golden_runs.txt`.
#[test]
#[ignore = "fixture generator, not a check"]
fn regenerate_golden_fixture() {
    println!("==GOLDEN BEGIN==");
    for line in current_lines() {
        println!("{line}");
    }
    println!("==GOLDEN END==");
}
