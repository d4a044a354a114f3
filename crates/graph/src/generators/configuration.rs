//! Random simple bipartite graphs with prescribed degree sequences.
//!
//! This is the substrate every random generator in the crate builds on: expand both
//! degree sequences into "stubs", match them by a random shuffle (the classic
//! configuration model), then *repair* the few duplicate edges by local stub swaps so
//! the result is a simple graph while staying (asymptotically) uniform over simple
//! graphs with the prescribed degrees. For the sparse regimes used in the experiments
//! (`Δ = O(log²n)`, `n` up to 2^16) the expected number of repairs is `O(Δ²)` per run and
//! the repair loop terminates after a handful of swaps.

use crate::{bipartite::BipartiteGraph, GraphError, Result};
use clb_rng::domains::GENERATOR_DOMAIN;
use clb_rng::{shuffle, RandomSource, StreamFactory};

/// Generates a uniform-ish random *simple* bipartite graph with the given degree
/// sequences.
///
/// Requirements:
/// * `client_degrees.iter().sum() == server_degrees.iter().sum()`,
/// * every client degree is at most the number of servers,
/// * every server degree is at most the number of clients.
///
/// Returns [`GraphError::GenerationFailed`] if the duplicate-repair loop exhausts its
/// budget, which only happens for degree sequences very close to the feasibility
/// boundary (e.g. near-complete graphs with wildly uneven degrees).
pub fn configuration_model(
    client_degrees: &[usize],
    server_degrees: &[usize],
    seed: u64,
) -> Result<BipartiteGraph> {
    let num_clients = client_degrees.len();
    let num_servers = server_degrees.len();
    let total_c: usize = client_degrees.iter().sum();
    let total_s: usize = server_degrees.iter().sum();
    if total_c != total_s {
        return Err(GraphError::InvalidParameters(format!(
            "degree sequences disagree: client stubs {total_c} vs server stubs {total_s}"
        )));
    }
    if let Some((i, &d)) = client_degrees
        .iter()
        .enumerate()
        .find(|&(_, &d)| d > num_servers)
    {
        return Err(GraphError::InvalidParameters(format!(
            "client {i} has degree {d} > number of servers {num_servers}"
        )));
    }
    if let Some((i, &d)) = server_degrees
        .iter()
        .enumerate()
        .find(|&(_, &d)| d > num_clients)
    {
        return Err(GraphError::InvalidParameters(format!(
            "server {i} has degree {d} > number of clients {num_clients}"
        )));
    }

    let total = total_c;
    let mut rng = StreamFactory::new(seed)
        .domain(GENERATOR_DOMAIN)
        .stream(0, 0);

    // Expand stubs. Position p of the matching connects client_of[p] to server_of[p].
    let mut client_of: Vec<u32> = Vec::with_capacity(total);
    for (c, &d) in client_degrees.iter().enumerate() {
        client_of.extend(std::iter::repeat_n(c as u32, d));
    }
    let mut server_of: Vec<u32> = Vec::with_capacity(total);
    for (s, &d) in server_degrees.iter().enumerate() {
        server_of.extend(std::iter::repeat_n(s as u32, d));
    }
    shuffle(&mut server_of, &mut rng);

    // Client c's stubs are the fixed positions `start[c]..start[c + 1]` and repairs
    // only swap `server_of` entries, so the multiplicity of edge (c, s) is the number
    // of times s occurs in c's slice. A position is "bad" while its edge occurs more
    // than once.
    let mut start = Vec::with_capacity(num_clients + 1);
    start.push(0usize);
    for &d in client_degrees {
        start.push(start[start.len() - 1] + d);
    }
    let stubs_of = |c: u32| start[c as usize]..start[c as usize + 1];

    // The initial worklist holds every bad position, client by client in ascending
    // position order.
    let mut worklist: Vec<usize> = Vec::new();
    let mut sorted: Vec<u32> = Vec::new();
    for c in 0..num_clients as u32 {
        sorted.clear();
        sorted.extend_from_slice(&server_of[stubs_of(c)]);
        sorted.sort_unstable();
        if sorted.windows(2).all(|w| w[0] != w[1]) {
            continue;
        }
        // In `sorted`, the first copy of s is followed by a second exactly when s
        // repeats.
        worklist.extend(stubs_of(c).filter(|&p| {
            let first = sorted.partition_point(|&x| x < server_of[p]);
            sorted.get(first + 1) == Some(&server_of[p])
        }));
    }

    // Each repair needs O(1) expected proposals in the sparse regime; the budget is
    // generous so that legitimate dense cases still succeed.
    let mut budget: u64 = 200 * (worklist.len() as u64 + 1) + 10_000;
    while let Some(p) = worklist.pop() {
        let (c, s) = (client_of[p], server_of[p]);
        if server_of[stubs_of(c)].iter().filter(|&&x| x == s).count() <= 1 {
            continue; // already repaired by an earlier swap
        }
        loop {
            if budget == 0 {
                return Err(GraphError::GenerationFailed(format!(
                    "duplicate-repair budget exhausted with {} unresolved stubs",
                    worklist.len() + 1
                )));
            }
            budget -= 1;
            let q = rng.gen_index(total);
            if q == p {
                continue;
            }
            let new_p = (client_of[p], server_of[q]);
            let new_q = (client_of[q], server_of[p]);
            if new_p == new_q {
                continue;
            }
            if server_of[stubs_of(new_p.0)].contains(&new_p.1)
                || server_of[stubs_of(new_q.0)].contains(&new_q.1)
            {
                continue;
            }
            // Both new edges are unique; both old edges lose one copy.
            server_of.swap(p, q);
            break;
        }
    }

    let edges: Vec<(u32, u32)> = client_of.into_iter().zip(server_of).collect();
    BipartiteGraph::from_edges(num_clients, num_servers, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    #[test]
    fn respects_degree_sequences() {
        let client_deg = vec![3, 2, 4, 1, 2];
        let server_deg = vec![2, 2, 3, 2, 3];
        let g = configuration_model(&client_deg, &server_deg, 7).unwrap();
        for (i, &d) in client_deg.iter().enumerate() {
            assert_eq!(g.client_degree(ClientId::new(i)), d);
        }
        for (i, &d) in server_deg.iter().enumerate() {
            assert_eq!(g.server_degree(ServerId::new(i)), d);
        }
    }

    #[test]
    fn mismatched_sums_rejected() {
        let err = configuration_model(&[2, 2], &[1, 2], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
    }

    #[test]
    fn infeasible_degree_rejected() {
        // A client cannot have more neighbours than there are servers.
        let err = configuration_model(&[3], &[1, 1, 1], 1).err();
        assert!(err.is_none(), "degree 3 with 3 servers is feasible");
        let err = configuration_model(&[4, 0, 0], &[2, 1, 1], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
        let err = configuration_model(&[2, 1, 1], &[4, 0, 0], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
    }

    #[test]
    fn produces_simple_graph_even_with_heavy_collisions() {
        // Dense-ish: 16 clients and servers, all degree 12 out of 16 possible.
        let deg = vec![12usize; 16];
        let g = configuration_model(&deg, &deg, 99).unwrap();
        assert_eq!(g.num_edges(), 12 * 16);
        // No duplicates by construction (from_edges would have failed otherwise).
        for c in g.clients() {
            assert_eq!(g.client_degree(c), 12);
        }
    }

    #[test]
    fn complete_graph_via_degrees_is_feasible() {
        let deg = vec![8usize; 8];
        let g = configuration_model(&deg, &deg, 3).unwrap();
        assert_eq!(g.num_edges(), 64);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let deg = vec![5usize; 40];
        let a = configuration_model(&deg, &deg, 1234).unwrap();
        let b = configuration_model(&deg, &deg, 1234).unwrap();
        let c = configuration_model(&deg, &deg, 1235).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_degrees_are_allowed() {
        let g = configuration_model(&[0, 2, 0], &[1, 0, 1], 5).unwrap();
        assert_eq!(g.client_degree(ClientId::new(0)), 0);
        assert_eq!(g.client_degree(ClientId::new(1)), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_sequences_give_empty_graph() {
        let g = configuration_model(&[], &[], 1).unwrap();
        assert_eq!(g.num_clients(), 0);
        assert_eq!(g.num_servers(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
