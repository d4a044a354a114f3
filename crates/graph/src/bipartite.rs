//! The immutable CSR bipartite graph.

use crate::{
    ids::{ClientId, ServerId},
    GraphError, Result,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum edges per construction piece; smaller inputs are built in one piece.
const MIN_EDGE_PIECE: usize = 1 << 14;

/// Upper bound on the number of pieces a construction pass is split into.
const MAX_PIECES: usize = 32;

/// An immutable bipartite client-server graph in compressed sparse row form.
///
/// Only the client side is stored as adjacency: the protocols walk client
/// neighbourhoods (a client only ever contacts `N(v)`), while a server only counts
/// the requests it receives, so the server side keeps just its degrees.
///
/// The graph is *simple*: no duplicate (client, server) edges. Multi-edges would skew
/// the uniform-neighbour sampling distribution the paper's protocols rely on, so the
/// [`crate::GraphBuilder`] either rejects or de-duplicates them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BipartiteGraph {
    num_clients: usize,
    num_servers: usize,
    client_offsets: Vec<u64>,
    client_edges: Vec<ServerId>,
    server_degrees: Vec<u32>,
}

impl BipartiteGraph {
    /// Builds a graph from a (client, server) edge list.
    ///
    /// The edge list may be in any order; it must not contain duplicates (use
    /// [`crate::GraphBuilder`] if de-duplication is wanted). Every index must be in
    /// range. On bad input the error names the first out-of-range edge in list order
    /// (its client before its server), else the lowest duplicate (client, server).
    ///
    /// Validation and the per-client sort run in pieces whose count depends on the
    /// edge count alone, and pieces report in index order, so the result is the same
    /// at every thread count.
    pub fn from_edges(
        num_clients: usize,
        num_servers: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self> {
        let pieces = (edges.len() / MIN_EDGE_PIECE).clamp(1, MAX_PIECES);
        if let Some(err) = first_out_of_range(edges, num_clients, num_servers, pieces) {
            return Err(err);
        }

        // Stable counting scatter into the client side.
        let mut cursor = vec![0u64; num_clients];
        for &(c, _) in edges {
            cursor[c as usize] += 1;
        }
        let mut client_offsets = Vec::with_capacity(num_clients + 1);
        let mut acc = 0u64;
        client_offsets.push(0);
        for slot in cursor.iter_mut() {
            let degree = *slot;
            *slot = acc;
            acc += degree;
            client_offsets.push(acc);
        }
        let mut client_edges = vec![ServerId(0); edges.len()];
        for &(c, s) in edges {
            let slot = &mut cursor[c as usize];
            client_edges[*slot as usize] = ServerId(s);
            *slot += 1;
        }

        // Canonical per-range order makes equality, snapshots and duplicate
        // detection deterministic.
        if let Some((client, server)) =
            sort_client_ranges(&client_offsets, &mut client_edges, pieces)
        {
            return Err(GraphError::DuplicateEdge { client, server });
        }

        let mut server_degrees = vec![0u32; num_servers];
        for s in &client_edges {
            server_degrees[s.index()] += 1;
        }
        Ok(Self {
            num_clients,
            num_servers,
            client_offsets,
            client_edges,
            server_degrees,
        })
    }

    #[inline]
    fn client_range(&self, c: usize) -> (usize, usize) {
        (
            self.client_offsets[c] as usize,
            self.client_offsets[c + 1] as usize,
        )
    }

    /// Number of clients `|C|`.
    #[inline]
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of servers `|S|`.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.client_edges.len()
    }

    /// The servers adjacent to client `v` — the neighbourhood `N(v)` of the paper.
    #[inline]
    pub fn client_neighbors(&self, v: ClientId) -> &[ServerId] {
        let (lo, hi) = self.client_range(v.index());
        &self.client_edges[lo..hi]
    }

    /// Degree of client `v`, written `Δ_v` in the paper.
    #[inline]
    pub fn client_degree(&self, v: ClientId) -> usize {
        let (lo, hi) = self.client_range(v.index());
        hi - lo
    }

    /// Degree of server `u`, written `Δ_u` in the paper.
    #[inline]
    pub fn server_degree(&self, u: ServerId) -> usize {
        self.server_degrees[u.index()] as usize
    }

    /// Returns `true` if the edge (v, u) is present. Binary search, `O(log Δ_v)`.
    pub fn has_edge(&self, v: ClientId, u: ServerId) -> bool {
        self.client_neighbors(v).binary_search(&u).is_ok()
    }

    /// Iterates over all clients.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        (0..self.num_clients).map(ClientId::new)
    }

    /// Iterates over all servers.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.num_servers).map(ServerId::new)
    }

    /// Iterates over all edges in canonical (client, server) order.
    pub fn edges(&self) -> impl Iterator<Item = (ClientId, ServerId)> + '_ {
        self.clients()
            .flat_map(move |c| self.client_neighbors(c).iter().map(move |&s| (c, s)))
    }

    /// Returns `true` if some client has an empty neighbourhood (such a client can never
    /// place its balls, so every protocol run on the graph would fail to terminate).
    pub fn has_isolated_client(&self) -> bool {
        self.clients().any(|c| self.client_degree(c) == 0)
    }
}

/// Checks every index in `pieces` contiguous edge chunks and returns the error of the
/// first out-of-range edge in list order (its client checked before its server).
fn first_out_of_range(
    edges: &[(u32, u32)],
    num_clients: usize,
    num_servers: usize,
    pieces: usize,
) -> Option<GraphError> {
    let chunk = edges.len().div_ceil(pieces).max(1);
    let found: Vec<Option<GraphError>> = (0..edges.len().div_ceil(chunk))
        .into_par_iter()
        .map(|k| {
            let piece = &edges[k * chunk..((k + 1) * chunk).min(edges.len())];
            piece.iter().find_map(|&(c, s)| {
                let (client, server) = (c as usize, s as usize);
                if client >= num_clients {
                    Some(GraphError::ClientOutOfRange {
                        client,
                        num_clients,
                    })
                } else if server >= num_servers {
                    Some(GraphError::ServerOutOfRange {
                        server,
                        num_servers,
                    })
                } else {
                    None
                }
            })
        })
        .collect();
    found.into_iter().flatten().next()
}

/// Sorts each client's CSR range in place, over `pieces` contiguous client pieces,
/// and reports the lowest duplicate `(client, server)`. A range that is already
/// strictly increasing is neither sorted nor has duplicates, so it costs one scan.
fn sort_client_ranges(
    offsets: &[u64],
    edges: &mut [ServerId],
    pieces: usize,
) -> Option<(usize, usize)> {
    let num_clients = offsets.len() - 1;
    let chunk = num_clients.div_ceil(pieces).max(1);
    // Cut the edge buffer at client-chunk boundaries: piece k owns clients
    // `first..first + chunk` and exactly their edges.
    let mut parts = Vec::with_capacity(pieces);
    let mut rest = edges;
    for first in (0..num_clients).step_by(chunk) {
        let end = (first + chunk).min(num_clients);
        let (part, tail) = rest.split_at_mut((offsets[end] - offsets[first]) as usize);
        parts.push((first, &offsets[first..=end], part));
        rest = tail;
    }
    let found: Vec<Option<(usize, usize)>> = parts
        .into_par_iter()
        .map(|(first, offsets, part)| {
            let base = offsets[0];
            offsets.windows(2).enumerate().find_map(|(i, w)| {
                let range = &mut part[(w[0] - base) as usize..(w[1] - base) as usize];
                if range.windows(2).all(|p| p[0] < p[1]) {
                    return None;
                }
                range.sort_unstable();
                range
                    .windows(2)
                    .find(|p| p[0] == p[1])
                    .map(|p| (first + i, p[0].index()))
            })
        })
        .collect();
    found.into_iter().flatten().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> BipartiteGraph {
        // 3 clients, 4 servers.
        // c0 - s0, s1 ; c1 - s1, s2, s3 ; c2 - s3
        BipartiteGraph::from_edges(3, 4, &[(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn sizes_and_degrees() {
        let g = small_graph();
        assert_eq!(g.num_clients(), 3);
        assert_eq!(g.num_servers(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.client_degree(ClientId(0)), 2);
        assert_eq!(g.client_degree(ClientId(1)), 3);
        assert_eq!(g.client_degree(ClientId(2)), 1);
        assert_eq!(g.server_degree(ServerId(0)), 1);
        assert_eq!(g.server_degree(ServerId(1)), 2);
        assert_eq!(g.server_degree(ServerId(3)), 2);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = small_graph();
        assert_eq!(
            g.client_neighbors(ClientId(1)),
            &[ServerId(1), ServerId(2), ServerId(3)]
        );
        // Every server's degree counts exactly the client lists it appears in.
        for s in g.servers() {
            let fan_in = g.clients().filter(|&c| g.has_edge(c, s)).count();
            assert_eq!(g.server_degree(s), fan_in);
        }
    }

    #[test]
    fn has_edge_queries() {
        let g = small_graph();
        assert!(g.has_edge(ClientId(0), ServerId(1)));
        assert!(!g.has_edge(ClientId(0), ServerId(3)));
        assert!(!g.has_edge(ClientId(2), ServerId(0)));
    }

    #[test]
    fn edge_order_does_not_matter() {
        let a = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1), (0, 1)]).unwrap();
        let b = BipartiteGraph::from_edges(2, 2, &[(0, 1), (0, 0), (1, 1)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(2, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ClientOutOfRange { client: 2, .. }
        ));
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ServerOutOfRange { server: 5, .. }
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 1), (0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::DuplicateEdge {
                client: 0,
                server: 1
            }
        ));
    }

    /// The lowest (client, server) pair that occurs more than once, found naively.
    fn lowest_duplicate(edges: &[(u32, u32)]) -> Option<(usize, usize)> {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        sorted
            .windows(2)
            .find(|w| w[0] == w[1])
            .map(|w| (w[0].0 as usize, w[0].1 as usize))
    }

    #[test]
    fn from_edges_agrees_across_pieces() {
        // 8192 clients of degree 8 over 1024 servers: four construction pieces.
        let (clients, servers) = (8192usize, 1024usize);
        let mut sorted: Vec<(u32, u32)> = (0..clients)
            .flat_map(|c| (0..8).map(move |i| (c as u32, ((c * 7 + i * 131) % servers) as u32)))
            .collect();
        sorted.sort_unstable();
        let n = sorted.len();
        assert!(n >= 3 * MIN_EDGE_PIECE);
        let chunk = n.div_ceil((n / MIN_EDGE_PIECE).clamp(1, MAX_PIECES));
        // 40503 is odd, so `j ↦ 40503·j mod 2¹⁶` permutes the positions.
        let scrambled: Vec<(u32, u32)> = (0..n).map(|j| sorted[(j * 40_503) % n]).collect();
        assert_ne!(scrambled, sorted);

        let g = BipartiteGraph::from_edges(clients, servers, &scrambled).unwrap();
        assert_eq!(
            g,
            BipartiteGraph::from_edges(clients, servers, &sorted).unwrap()
        );
        let canonical: Vec<(u32, u32)> = g.edges().map(|(c, s)| (c.0, s.0)).collect();
        assert_eq!(canonical, sorted);

        // A high client's duplicate early in the list, then two of client 1's edges
        // copied into the last piece: the lowest pair wins, not the first one seen.
        let mut dup = scrambled.clone();
        let high = sorted[8 * 8000];
        let (low_a, low_b) = (sorted[8], sorted[9]);
        for (pos, edge) in [(5, high), (n - 2, low_b), (n - 1, low_a)] {
            assert_ne!(dup[pos], edge);
            dup[pos] = edge;
        }
        assert!(n - 2 >= 3 * chunk);
        let want = lowest_duplicate(&dup).unwrap();
        assert_eq!(want, (1, low_a.1.min(low_b.1) as usize));
        let err = BipartiteGraph::from_edges(clients, servers, &dup).unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                client: want.0,
                server: want.1
            }
        );

        // Out-of-range edges in the last two pieces: the earlier one is reported,
        // even though the later one is bad on both sides.
        let mut bad = scrambled;
        bad[n - 1] = (clients as u32 + 5, servers as u32 + 5);
        let later = BipartiteGraph::from_edges(clients, servers, &bad).unwrap_err();
        assert_eq!(
            later,
            GraphError::ClientOutOfRange {
                client: clients + 5,
                num_clients: clients
            }
        );
        bad[2 * chunk + 7] = (0, servers as u32);
        let err = BipartiteGraph::from_edges(clients, servers, &bad).unwrap_err();
        assert_eq!(
            err,
            GraphError::ServerOutOfRange {
                server: servers,
                num_servers: servers
            }
        );
    }

    #[test]
    fn empty_graph_and_isolated_clients() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        assert!(g.has_isolated_client());
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        assert!(!g.has_isolated_client());
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_isolated_client());
    }

    #[test]
    fn edges_iterator_is_exhaustive_and_canonical() {
        let g = small_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0], (ClientId(0), ServerId(0)));
        assert_eq!(edges[5], (ClientId(2), ServerId(3)));
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted);
    }
}
