//! E2 — Theorem 1: the total work of SAER is Θ(n).
//!
//! Same sweep as E1, reporting total messages and messages per ball; the paper predicts
//! the per-ball figure converges to a constant independent of n.

use clb::engine::TrajectoryObserver;
use clb::prelude::*;
use clb::report::fmt2;

/// Asserts the engine's message-accounting convention on a live run: `total_messages`
/// is exactly `2 × Σ_t requests_sent(t)` (one request + one answer per submitted
/// request), with phase-3 surplus releases excluded — see the docs on
/// `RunResult::total_messages`. Runs a two-choice protocol, the only family where
/// releases occur, so the assertion would actually catch a convention change.
fn assert_message_accounting() {
    let graph = generators::regular_random(256, log2_squared(256), 42).unwrap();
    let mut sim = Simulation::builder(&graph)
        .protocol(ProtocolSpec::KChoice { k: 2, capacity: 4 }.build())
        .demand(Demand::Constant(2))
        .seed(42)
        .max_rounds(600)
        .build();
    let mut trajectory = TrajectoryObserver::new();
    let result = sim.run_observed(&mut [&mut trajectory]);
    let request_messages: u64 = trajectory.records.iter().map(|r| 2 * r.requests_sent).sum();
    assert_eq!(
        result.total_messages, request_messages,
        "total_messages must count exactly 2 messages per request (releases excluded)"
    );
    println!(
        "message accounting check: {} messages = 2 x {} requests over {} rounds (surplus releases excluded by convention)\n",
        result.total_messages,
        request_messages / 2,
        result.rounds
    );
}

fn main() {
    let scenario = Scenario::new(
        "E2",
        "total work of SAER is Θ(n)",
        "messages per ball stay O(1) (flat) as n grows",
    );
    scenario.announce();

    assert_message_accounting();

    let d = 2;
    let c = 4;
    let report = scenario
        .run(Sweep::over("n", n_sweep()), |i, &n| {
            ExperimentConfig::new(
                GraphSpec::RegularLogSquared { n, eta: 1.0 },
                ProtocolSpec::Saer { c, d },
            )
            // Seed-striding convention: 1000 per sweep point keeps trial
            // seed ranges disjoint across points.
            .seed(200 + 1000 * i as u64)
        })
        .expect("valid configuration");

    let mut table = Table::new([
        "n",
        "balls (n*d)",
        "messages mean",
        "messages / ball",
        "messages / ball (max)",
    ]);
    let mut per_ball = Vec::new();
    for (&n, point) in report.iter() {
        // A per-trial dissection: the numerator needs the outcome vec, so divide by
        // its length too — under Retention::Summary (empty trials) that fails
        // loudly as NaN instead of silently printing 0/trial_count.
        let messages_mean: f64 = point
            .trials
            .iter()
            .map(|t| t.result.total_messages as f64)
            .sum::<f64>()
            / point.trials.len() as f64;
        per_ball.push(point.work_per_ball.mean);
        table.row([
            n.to_string(),
            (n as u64 * d as u64).to_string(),
            format!("{messages_mean:.0}"),
            fmt2(point.work_per_ball.mean),
            fmt2(point.work_per_ball.max),
        ]);
    }
    println!("{}", table.to_markdown());

    let min = per_ball.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_ball.iter().copied().fold(0.0f64, f64::max);
    println!(
        "messages-per-ball spread across the sweep: [{:.2}, {:.2}] (ratio {:.2}; Θ(n) total work means this stays ~flat)",
        min,
        max,
        max / min
    );
}
