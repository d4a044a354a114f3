//! Pins every generator's output bit-identical across graph-layer refactors.
//!
//! Each row of `fixtures/graph_digests.txt` is `spec|seed|edges|digest`, where the
//! digest is the FNV-1a 64 of `snapshot::encode(&spec.build(seed))`. A snapshot is
//! the canonical (client, server) edge list, so the digest depends on which graph a
//! generator produced and not on how `BipartiteGraph` lays it out in memory: a change
//! to the CSR layout or to `from_edges` must leave every row unchanged, and so must a
//! change to a generator's internals that is meant to be a pure speed-up.
//!
//! The matrix covers all eight `GraphSpec` families at `n ≤ 4096` with three seeds
//! each, plus one 2¹⁴-node `Regular` graph at Δ = log²n and one 2¹⁴-node
//! `AlmostRegular` graph, where the configuration model's duplicate repair does real
//! work.
//!
//! If this test fails, some generator now returns a different graph. That is only
//! acceptable for a deliberate change of the generator, in which case regenerate the
//! fixture with:
//!
//! ```text
//! cargo test -p clb-graph --test graph_digest -- --ignored --nocapture regenerate
//! ```
//!
//! and paste the printed lines into `crates/graph/tests/fixtures/graph_digests.txt`
//! (and say why in the commit message).

use clb_graph::{snapshot, GraphSpec};

const FIXTURE: &str = include_str!("fixtures/graph_digests.txt");
const SEEDS: [u64; 3] = [3, 29, 1009];
const LARGE_SEED: u64 = 7;

/// Every family at `n ≤ 4096`, sized so the whole matrix stays quick in debug builds.
fn small_specs() -> Vec<GraphSpec> {
    vec![
        GraphSpec::Regular {
            n: 1024,
            delta: 100,
        },
        GraphSpec::RegularLogSquared { n: 4096, eta: 0.5 },
        GraphSpec::AlmostRegular {
            n: 2048,
            min_degree: 40,
            max_degree: 160,
        },
        GraphSpec::SkewedExample { n: 4096 },
        GraphSpec::Complete { n: 256 },
        GraphSpec::ErdosRenyi { n: 2048, p: 0.02 },
        GraphSpec::Geometric {
            n: 4096,
            expected_degree: 48,
        },
        GraphSpec::Clusters {
            n: 4096,
            clusters: 8,
            intra_degree: 24,
            inter_degree: 4,
        },
    ]
}

/// The two large configuration-model graphs, one seed each.
fn large_specs() -> Vec<GraphSpec> {
    vec![
        GraphSpec::Regular {
            n: 16384,
            delta: 196,
        },
        GraphSpec::AlmostRegular {
            n: 16384,
            min_degree: 98,
            max_degree: 196,
        },
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn row(spec: &GraphSpec, seed: u64) -> String {
    let graph = spec
        .build(seed)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.cache_key()));
    let bytes = snapshot::encode(&graph);
    format!(
        "{}|{seed}|{}|{:016x}",
        spec.cache_key(),
        graph.num_edges(),
        fnv1a64(&bytes)
    )
}

fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for spec in small_specs() {
        for &seed in &SEEDS {
            lines.push(row(&spec, seed));
        }
    }
    for spec in large_specs() {
        lines.push(row(&spec, LARGE_SEED));
    }
    lines
}

#[test]
fn fnv1a64_matches_reference_values() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn generated_graphs_match_digest_fixture() {
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let actual = current_lines();
    assert_eq!(
        expected.len(),
        actual.len(),
        "fixture has {} rows but the matrix produced {} — regenerate the fixture",
        expected.len(),
        actual.len()
    );
    let mut mismatches = 0;
    for (want, got) in expected.iter().zip(&actual) {
        if want != got {
            mismatches += 1;
            eprintln!("digest mismatch:\n  fixture: {want}\n  current: {got}");
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} of {} graphs diverged from the digest fixture",
        actual.len()
    );
}

/// Regenerates the fixture; run with `--ignored --nocapture` and redirect the lines
/// between the BEGIN/END markers into `crates/graph/tests/fixtures/graph_digests.txt`.
#[test]
#[ignore = "fixture generator, not a check"]
fn regenerate_digest_fixture() {
    println!("==DIGEST BEGIN==");
    for line in current_lines() {
        println!("{line}");
    }
    println!("==DIGEST END==");
}
