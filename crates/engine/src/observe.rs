//! Round observers: the measurement hooks behind every experiment.
//!
//! The paper's analysis tracks a handful of per-round quantities — the maximum fraction
//! of burned servers in any client neighbourhood (`S_t`, Definition 3), the request mass
//! received by a neighbourhood (`r_t(N(v))`, Definition 5), the number of alive balls
//! (work analysis, Section 3.2) — none of which the protocols themselves need. Observers
//! compute them from a read-only [`RoundView`] after each round, so the measurement cost
//! is paid only by the experiments that ask for it.

use clb_graph::BipartiteGraph;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::simulation::RoundRecord;

/// Read-only view of the simulation state right after a round.
pub struct RoundView<'a> {
    /// Summary record of the round that just finished.
    pub record: &'a RoundRecord,
    /// The topology the run executes on.
    pub graph: &'a BipartiteGraph,
    /// Current load of every server.
    pub server_loads: &'a [u32],
    /// Requests each server received in this round.
    pub requests_per_server: &'a [u32],
    /// Whether each server is closed (burned / saturated) according to the protocol.
    pub closed: &'a [bool],
}

/// A per-round measurement hook.
pub trait Observer {
    /// Called once after every round.
    fn on_round(&mut self, view: &RoundView<'_>);
}

/// Records every [`RoundRecord`] of the run.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TrajectoryObserver {
    /// The recorded per-round summaries, in round order.
    pub records: Vec<RoundRecord>,
}

impl TrajectoryObserver {
    /// Creates an empty trajectory recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The alive-ball counts after each round (used by experiment E11).
    pub fn alive_series(&self) -> Vec<u64> {
        self.records.iter().map(|r| r.alive_after).collect()
    }

    /// Per-round decay ratios `alive_t / alive_{t-1}` (the work analysis of Section 3.2
    /// shows these stay below 4/5 while at least `nd/log n` balls are alive).
    pub fn alive_decay_ratios(&self, total_balls: u64) -> Vec<f64> {
        let mut previous = total_balls as f64;
        let mut ratios = Vec::with_capacity(self.records.len());
        for r in &self.records {
            if previous > 0.0 {
                ratios.push(r.alive_after as f64 / previous);
            } else {
                ratios.push(0.0);
            }
            previous = r.alive_after as f64;
        }
        ratios
    }
}

impl Observer for TrajectoryObserver {
    fn on_round(&mut self, view: &RoundView<'_>) {
        self.records.push(*view.record);
    }
}

/// Tracks the maximum server load seen at the end of any round.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct MaxLoadObserver {
    /// The maximum load observed so far.
    pub max_load: u32,
}

impl MaxLoadObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for MaxLoadObserver {
    fn on_round(&mut self, view: &RoundView<'_>) {
        self.max_load = self.max_load.max(view.record.max_load);
    }
}

/// Records the alive-ball count after every round.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AliveBallsObserver {
    /// Alive balls after each round.
    pub alive: Vec<u64>,
}

impl AliveBallsObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for AliveBallsObserver {
    fn on_round(&mut self, view: &RoundView<'_>) {
        self.alive.push(view.record.alive_after);
    }
}

/// Measures `S_t`: the maximum, over all clients `v`, of the fraction of closed
/// (burned/saturated) servers in `N(v)` — Definition 3 of the paper.
///
/// This is an `O(|E|)` sweep per round, parallelised over clients.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct BurnedFractionObserver {
    /// `S_t` for each round, in round order.
    pub max_fraction_per_round: Vec<f64>,
}

impl BurnedFractionObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The largest `S_t` observed over the whole run (Lemma 4 predicts ≤ 1/2 for
    /// admissible graphs and a large enough threshold constant `c`).
    pub fn peak(&self) -> f64 {
        self.max_fraction_per_round
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

impl Observer for BurnedFractionObserver {
    fn on_round(&mut self, view: &RoundView<'_>) {
        let closed = view.closed;
        let max_fraction = view
            .graph
            .clients()
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&v| {
                let neigh = view.graph.client_neighbors(v);
                if neigh.is_empty() {
                    return 0.0;
                }
                let burned = neigh.iter().filter(|s| closed[s.index()]).count();
                burned as f64 / neigh.len() as f64
            })
            .reduce(|| 0.0, f64::max);
        self.max_fraction_per_round.push(max_fraction);
    }
}

/// Measures `r_t = max_v r_t(N(v))`: the largest number of requests any client
/// neighbourhood received in a round — Definition 5 of the paper.
///
/// Also records the *mean* neighbourhood mass, which the Stage I analysis (Lemma 13)
/// predicts decays geometrically until it reaches `O(log n)`.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct NeighborhoodMassObserver {
    /// `max_v r_t(N(v))` per round.
    pub max_mass_per_round: Vec<u64>,
    /// Mean of `r_t(N(v))` over clients, per round.
    pub mean_mass_per_round: Vec<f64>,
}

impl NeighborhoodMassObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-round decay factors `max_mass_t / max_mass_{t-1}` (NaN-free; rounds with a
    /// zero previous mass yield 0).
    pub fn decay_factors(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for w in self.max_mass_per_round.windows(2) {
            if w[0] == 0 {
                out.push(0.0);
            } else {
                out.push(w[1] as f64 / w[0] as f64);
            }
        }
        out
    }
}

impl Observer for NeighborhoodMassObserver {
    fn on_round(&mut self, view: &RoundView<'_>) {
        let requests = view.requests_per_server;
        let masses: Vec<u64> = view
            .graph
            .clients()
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&v| {
                view.graph
                    .client_neighbors(v)
                    .iter()
                    .map(|s| requests[s.index()] as u64)
                    .sum::<u64>()
            })
            .collect();
        let max = masses.iter().copied().max().unwrap_or(0);
        let mean = if masses.is_empty() {
            0.0
        } else {
            masses.iter().sum::<u64>() as f64 / masses.len() as f64
        };
        self.max_mass_per_round.push(max);
        self.mean_mass_per_round.push(mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, ServerCtx};
    use crate::{Demand, Simulation};
    use clb_graph::generators;

    /// Capacity-limited servers: accept while cumulative received ≤ cap, then close.
    struct Capped(u32);
    impl Protocol for Capped {
        fn server_decide(&self, state: &mut u64, ctx: &ServerCtx) -> u32 {
            *state += u64::from(ctx.incoming);
            if *state > u64::from(self.0) {
                0
            } else {
                ctx.incoming
            }
        }
        fn server_is_closed(&self, state: u64, _load: u32) -> bool {
            state > u64::from(self.0)
        }
    }

    fn run_all_observers(
        cap: u32,
    ) -> (
        TrajectoryObserver,
        MaxLoadObserver,
        BurnedFractionObserver,
        NeighborhoodMassObserver,
        AliveBallsObserver,
    ) {
        let g = generators::regular_random(64, 16, 3).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(Capped(cap))
            .demand(Demand::Constant(2))
            .seed(9)
            .max_rounds(200)
            .build();
        let mut trajectory = TrajectoryObserver::new();
        let mut max_load = MaxLoadObserver::new();
        let mut burned = BurnedFractionObserver::new();
        let mut mass = NeighborhoodMassObserver::new();
        let mut alive = AliveBallsObserver::new();
        sim.run_observed(&mut [
            &mut trajectory,
            &mut max_load,
            &mut burned,
            &mut mass,
            &mut alive,
        ]);
        (trajectory, max_load, burned, mass, alive)
    }

    #[test]
    fn trajectory_records_every_round() {
        let (trajectory, _, _, _, alive) = run_all_observers(8);
        assert!(!trajectory.records.is_empty());
        for (i, r) in trajectory.records.iter().enumerate() {
            assert_eq!(r.round as usize, i + 1);
        }
        assert_eq!(alive.alive.len(), trajectory.records.len());
        assert_eq!(trajectory.alive_series(), alive.alive);
    }

    #[test]
    fn alive_decay_ratios_are_fractions() {
        let (trajectory, _, _, _, _) = run_all_observers(8);
        let ratios = trajectory.alive_decay_ratios(128);
        assert_eq!(ratios.len(), trajectory.records.len());
        assert!(ratios.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn max_load_observer_matches_final_loads() {
        let g = generators::regular_random(32, 8, 4).unwrap();
        let mut sim = Simulation::builder(&g)
            .protocol(Capped(16))
            .demand(Demand::Constant(2))
            .seed(4)
            .build();
        let mut obs = MaxLoadObserver::new();
        let result = sim.run_observed(&mut [&mut obs]);
        assert_eq!(obs.max_load, result.max_load);
    }

    #[test]
    fn burned_fraction_is_a_valid_fraction_and_monotone_for_permanent_closure() {
        let (_, _, burned, _, _) = run_all_observers(4);
        assert!(!burned.max_fraction_per_round.is_empty());
        for &f in &burned.max_fraction_per_round {
            assert!((0.0..=1.0).contains(&f));
        }
        // Capped closes servers permanently, so S_t never decreases.
        for w in burned.max_fraction_per_round.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(burned.peak() <= 1.0);
    }

    #[test]
    fn neighborhood_mass_starts_at_roughly_d_delta() {
        let (_, _, _, mass, _) = run_all_observers(8);
        // Round 1: every ball is alive, so the expected mass of a Δ-neighbourhood is
        // d·Δ = 2·16 = 32; the max over 64 clients cannot exceed the total 128 and
        // should be at least the mean.
        let first_max = mass.max_mass_per_round[0];
        let first_mean = mass.mean_mass_per_round[0];
        assert!(first_max as f64 >= first_mean);
        assert!(
            (first_mean - 32.0).abs() < 16.0,
            "mean {first_mean} far from d*delta"
        );
        assert!(first_max <= 128);
        let factors = mass.decay_factors();
        assert_eq!(factors.len(), mass.max_mass_per_round.len() - 1);
    }

    #[test]
    fn generous_capacity_closes_no_server() {
        let (_, _, burned, _, _) = run_all_observers(1_000_000);
        assert_eq!(burned.peak(), 0.0);
    }
}
