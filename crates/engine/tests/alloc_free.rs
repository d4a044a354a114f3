//! Pins the zero-allocation round loop: after the simulation is built, `step()` must
//! never touch the global allocator. Building itself makes a number of allocations
//! that does not grow with the server count: per-server protocol state is one dense
//! `Vec<u64>`, not one allocation per server.
//!
//! The harness installs a **thread-aware** counting `#[global_allocator]` (this
//! integration test is its own binary, so the counter sees nothing but this file's
//! work): each thread opts in with a thread-local flag and gets its own thread-local
//! count, so pool workers, the test harness and other tests' threads can allocate
//! freely without polluting a measured window. The engine sizes all of its per-round
//! scratch in `SimulationBuilder::build` (see `RoundBuffers` in
//! `src/simulation.rs`), so the steady-state count across any number of rounds must be
//! exactly zero.
//!
//! Three execution contexts are pinned:
//!
//! 1. the classic sequential path (`ThreadPool::install(1)` scopes the rayon stub to
//!    one thread, exactly the pre-pool behaviour),
//! 2. the same single-thread scope with the intra-round piece plan forced to 8, so
//!    the parallel sort / decide / settle / census code paths (chunked drives,
//!    chunk-order merges, surplus releases) run through the counted window, and
//! 3. `step()` running *on pool workers* — how `Scenario::run` executes trials.
//!    Since the pool's work-stealing rewrite, nested drives **fan out** from workers
//!    instead of running sequentially, and fanning out dispatches real jobs: piece
//!    and result vectors plus a completion latch, allocated on the driving thread.
//!    Zero is therefore the wrong pin here; what must hold instead is that the
//!    per-round dispatch cost is bounded by a small constant and **independent of
//!    the instance size** (piece counts are plan-derived or capped, never
//!    `O(n)`), so the allocator never re-enters the per-item hot loops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clb_engine::{Demand, Protocol, ServerCtx, Simulation};
use clb_graph::generators;
use clb_protocols::ProtocolSpec;
use rayon::prelude::*;

struct CountingAllocator;

thread_local! {
    // Const-initialised Cells: accessing them never allocates (which would recurse
    // into the allocator) and registers no destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: allocations during thread teardown must not panic inside alloc.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on *this* thread and returns how many
/// allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(|c| c.get());
    let result = f();
    let after = ALLOCATIONS.with(|c| c.get());
    COUNTING.with(|c| c.set(false));
    (after - before, result)
}

/// Single-choice protocol that keeps every ball alive for `open_round - 1` rounds, so
/// the counted window exercises full-size request batches every round.
struct OpensAt(u32);
impl Protocol for OpensAt {
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        if ctx.round >= self.0 {
            ctx.incoming
        } else {
            0
        }
    }
    fn server_is_closed(&self, _state: u64, _load: u32) -> bool {
        false
    }
}

/// Two choices per ball on capacity-1 servers: drives the release path and the
/// k-choice phase-3 logic through the counted window.
struct TwoChoiceCapacityOne;
impl Protocol for TwoChoiceCapacityOne {
    fn choices_per_round(&self) -> u32 {
        2
    }
    fn server_decide(&self, _state: &mut u64, ctx: &ServerCtx) -> u32 {
        1u32.saturating_sub(ctx.current_load).min(ctx.incoming)
    }
    fn server_is_closed(&self, _state: u64, load: u32) -> bool {
        load >= 1
    }
}

#[test]
fn build_allocations_do_not_grow_with_the_server_count() {
    // A runtime-chosen SAER is the production path: the spec's boxed protocol goes
    // into the simulation as is, and its per-server state is the engine's dense
    // state vector, so `build()` allocates the same number of times at any size.
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let counts: Vec<u64> = [256usize, 1024, 4096]
        .into_iter()
        .map(|servers| {
            let graph = generators::regular_random(servers, 8, 5).unwrap();
            assert_eq!(graph.num_servers(), servers);
            let builder = Simulation::builder(&graph)
                .protocol(ProtocolSpec::Saer { c: 4, d: 2 }.build())
                .demand(Demand::Constant(2))
                .seed(3);
            let (allocations, sim) = sequential.install(|| counted(|| builder.build()));
            assert_eq!(sim.server_states().len(), servers);
            allocations
        })
        .collect();
    assert!(
        counts.windows(2).all(|pair| pair[0] == pair[1]),
        "build() allocations grew with the server count: {counts:?} at 256/1024/4096 servers"
    );
}

#[test]
fn round_loop_is_allocation_free_after_build() {
    // Scope the rayon stub to one thread: the classic sequential path, where the
    // engine's own par_* calls never touch the pool (and so never enqueue jobs,
    // which does allocate on the driving thread).
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    sequential.install(|| {
        // Case 1: single-choice, all balls stay alive for 40 rounds — every counted
        // round runs the phase-1 pick loop, the counting sort and phase 3 at full size.
        let graph = generators::regular_random(256, 16, 21).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(3))
            .seed(7)
            .build();
        sim.step(); // warm-up (the buffers are pre-sized in build; belt and braces)
        let (allocations, ()) = counted(|| {
            for _ in 0..40 {
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "single-choice step() allocated {allocations} times over 40 rounds"
        );
        assert_eq!(
            sim.alive_count(),
            256 * 3,
            "every ball must have stayed alive"
        );

        // Case 2: two choices per ball with releases — the k-choice settle path must
        // be just as clean. Complete bipartite 64x64 with capacity-1 servers takes
        // many rounds to finish, so 10 counted steps all do real work.
        let graph = generators::complete(64, 64).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..10 {
                if sim.is_complete() {
                    break;
                }
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "two-choice step() allocated {allocations} times over the counted window"
        );
    });
}

#[test]
fn round_loop_is_allocation_free_with_forced_intra_pieces() {
    // Forcing the piece plan to 8 on instances this small routes every phase through
    // the chunked parallel path (three-pass sort, per-chunk settle scratch, surplus
    // releases) — per-chunk tallies live in stack arrays and all scratch is in
    // RoundBuffers, so the counted window must stay at exactly zero.
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    sequential.install(|| {
        let graph = generators::regular_random(256, 16, 21).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(OpensAt(u32::MAX))
            .demand(Demand::Constant(3))
            .seed(7)
            .intra_step_pieces(8)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..40 {
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "single-choice step() with 8 intra pieces allocated {allocations} times"
        );

        let graph = generators::complete(64, 64).unwrap();
        let mut sim = Simulation::builder(&graph)
            .protocol(TwoChoiceCapacityOne)
            .demand(Demand::Constant(1))
            .seed(3)
            .max_rounds(500)
            .intra_step_pieces(8)
            .build();
        sim.step();
        let (allocations, ()) = counted(|| {
            for _ in 0..10 {
                if sim.is_complete() {
                    break;
                }
                sim.step();
            }
        });
        assert_eq!(
            allocations, 0,
            "two-choice step() with 8 intra pieces allocated {allocations} times"
        );
    });
}

/// Steps four sims of `n` clients on a 4-thread pool with the intra-step plan forced
/// to 8 pieces, and returns the worst per-round allocation count observed on any
/// driving thread (main or worker — whichever ran that sim's piece).
fn worker_allocations_per_round(n: usize) -> u64 {
    const ROUNDS: u64 = 20;
    let graph = generators::regular_random(n, 16, 21).unwrap();
    let sims: Vec<_> = (0..4u64)
        .map(|seed| {
            let mut sim = Simulation::builder(&graph)
                .protocol(OpensAt(u32::MAX))
                .demand(Demand::Constant(3))
                .seed(seed)
                .intra_step_pieces(8)
                .build();
            sim.step(); // warm-up outside the counted window
            sim
        })
        .collect();

    let worst = std::sync::Mutex::new(0u64);
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| {
            sims.into_par_iter().for_each(|mut sim| {
                // Uncounted rounds let this thread's pool queues reach steady-state
                // capacity before the measured window opens.
                for _ in 0..3 {
                    sim.step();
                }
                let (allocations, ()) = counted(|| {
                    for _ in 0..ROUNDS {
                        sim.step();
                    }
                });
                let mut worst = worst.lock().unwrap();
                *worst = (*worst).max(allocations);
            });
        });
    let worst = worst.into_inner().unwrap();
    worst.div_ceil(ROUNDS)
}

#[test]
fn round_loop_dispatch_on_pool_workers_is_bounded_and_size_independent() {
    // The scenario runner executes whole trials on pool workers; since the
    // work-stealing rewrite the engine's nested par_* calls *fan out* from there
    // (tokens go onto the worker's own deque, idle workers steal them), and each
    // nested drive allocates its dispatch record on the driving thread. The
    // per-item hot loops are still allocation-free — all per-round scratch lives in
    // RoundBuffers — so the count per round must be (a) small and (b) flat in `n`:
    // every piece count involved is either the forced plan (8) or the pool's cap
    // (64), never proportional to clients or balls. A 4x bigger instance therefore
    // must not dispatch measurably more. (Zero-allocation execution is still pinned
    // — for the sequential path — by the two install(1) tests above.)
    let small = worker_allocations_per_round(256);
    let large = worker_allocations_per_round(1024);
    assert!(
        small > 0,
        "nested drives are expected to dispatch real pool jobs from workers now"
    );
    assert!(
        small <= 256,
        "per-round dispatch cost exploded: {small} allocations per round"
    );
    assert!(
        large <= small * 2,
        "dispatch allocations must not scale with instance size: \
         {small}/round at n=256 vs {large}/round at n=1024"
    );
}
