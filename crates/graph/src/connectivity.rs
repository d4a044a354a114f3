//! Connectivity analysis of bipartite graphs.
//!
//! Connectivity is not required by Theorem 1, but disconnected or fragmented topologies
//! are useful failure-injection workloads for the test suite; [`Components`] labels
//! the connected components of a graph.

use crate::{bipartite::BipartiteGraph, ClientId};

/// The result of a connected-components sweep over a bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label of every client (dense, starting at 0).
    pub client_component: Vec<u32>,
    /// Component label of every server; servers with no edges get their own components.
    pub server_component: Vec<u32>,
    /// Number of connected components (counting isolated nodes).
    pub count: usize,
}

impl Components {
    /// Computes connected components with a union-find over the client neighbourhoods.
    ///
    /// Labels are dense and given in order of first appearance: clients in ascending
    /// order, then the isolated servers (no incident edges) in ascending order.
    pub fn of(g: &BipartiteGraph) -> Self {
        // Nodes `0..C` are the clients, `C..C + S` the servers.
        let num_clients = g.num_clients();
        let mut parent: Vec<usize> = (0..num_clients + g.num_servers()).collect();
        for c in 0..num_clients {
            for &s in g.client_neighbors(ClientId::new(c)) {
                let a = find(&mut parent, c);
                let b = find(&mut parent, num_clients + s.index());
                // Linking to the smaller root keeps every root the lowest node of
                // its component.
                parent[a.max(b)] = a.min(b);
            }
        }

        const UNLABELED: u32 = u32::MAX;
        let mut label = vec![UNLABELED; parent.len()];
        let mut next_label = 0u32;
        let mut components = Vec::with_capacity(parent.len());
        for node in 0..parent.len() {
            let root = find(&mut parent, node);
            if label[root] == UNLABELED {
                label[root] = next_label;
                next_label += 1;
            }
            components.push(label[root]);
        }
        let server_component = components.split_off(num_clients);
        Self {
            client_component: components,
            server_component,
            count: next_label as usize,
        }
    }

    /// True if all clients and servers belong to a single component.
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }
}

/// Root of `node`'s set, halving the path on the way up.
fn find(parent: &mut [usize], mut node: usize) -> usize {
    while parent[node] != node {
        parent[node] = parent[parent[node]];
        node = parent[node];
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipartiteGraph;

    #[test]
    fn connected_graph_has_one_component() {
        let g =
            BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]).unwrap();
        let c = Components::of(&g);
        assert!(c.is_connected());
        assert_eq!(c.count, 1);
        assert!(c.client_component.iter().all(|&l| l == 0));
        assert!(c.server_component.iter().all(|&l| l == 0));
    }

    #[test]
    fn two_islands() {
        let g =
            BipartiteGraph::from_edges(4, 4, &[(0, 0), (1, 0), (2, 2), (3, 3), (2, 3)]).unwrap();
        let c = Components::of(&g);
        // {c0,c1,s0} and {c2,c3,s2,s3}, plus isolated s1.
        assert_eq!(c.count, 3);
        assert!(!c.is_connected());
        assert_eq!(c.client_component[0], c.client_component[1]);
        assert_ne!(c.client_component[0], c.client_component[2]);
        assert_eq!(c.client_component[2], c.client_component[3]);
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let g = BipartiteGraph::from_edges(2, 2, &[]).unwrap();
        let c = Components::of(&g);
        assert_eq!(c.count, 4);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let c = Components::of(&g);
        assert_eq!(c.count, 0);
        assert!(c.is_connected());
    }
}
