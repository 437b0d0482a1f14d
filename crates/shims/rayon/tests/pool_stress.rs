//! Stress and semantics suite for the persistent worker pool behind the
//! rayon shim.
//!
//! Everything here must hold at **any** pool size: CI runs this suite
//! under `QCEMU_THREADS=4` (oversubscribed on a single-core runner —
//! deliberately, to exercise parking, condvar handoff and straggler
//! rebalancing) and again under `QCEMU_THREADS=1` (fully serial). The
//! pool size is decided once per process from the environment, so the
//! tests assert invariants, not specific interleavings.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn full_coverage_under_repeated_dispatch() {
    // Many back-to-back jobs through the same pool: every index covered
    // exactly once per job, no cross-job leakage.
    for len in [2usize, 3, 64, 1000, 1 << 14] {
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        (0..len).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} of len {len}");
        }
    }
}

#[test]
fn concurrent_top_level_dispatches() {
    // Daemon shape: several OS threads each dispatching jobs into the
    // one process-wide pool at the same time. Every job must complete
    // with full coverage regardless of queue interleaving.
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..50 {
                    let local = AtomicUsize::new(0);
                    (0..512).into_par_iter().for_each(|_| {
                        local.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(local.load(Ordering::Relaxed), 512);
                    total.fetch_add(512, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 512);
}

#[test]
fn nested_join_inside_par_iter_divides_budget() {
    // A join inside a parallel body sees the divided budget, and the
    // division nests: with B outer threads each body gets ⌈B/workers⌉,
    // and each join arm half of that — never more than the install cap.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let max_seen = AtomicUsize::new(0);
    let sum = AtomicUsize::new(0);
    pool.install(|| {
        (0..8).into_par_iter().for_each(|i| {
            let body_budget = rayon::current_num_threads();
            assert!(
                body_budget <= 4,
                "body budget {body_budget} exceeds install cap"
            );
            let (a, b) = rayon::join(
                || {
                    max_seen.fetch_max(rayon::current_num_threads(), Ordering::Relaxed);
                    i
                },
                || {
                    max_seen.fetch_max(rayon::current_num_threads(), Ordering::Relaxed);
                    i * 2
                },
            );
            sum.fetch_add(a + b, Ordering::Relaxed);
        });
    });
    assert_eq!(sum.load(Ordering::Relaxed), (0..8).map(|i| 3 * i).sum());
    // 8 participants under a 4-thread install → budget 1 per body; join
    // arms inherit ≤ 1. (With fewer live workers the budget can only be
    // coarser, never above the cap.)
    assert!(max_seen.load(Ordering::Relaxed) <= 4);
}

#[test]
fn install_scopes_are_observed_inside_parallel_bodies() {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let seen = Mutex::new(Vec::new());
    one.install(|| {
        (0..16).into_par_iter().for_each(|_| {
            seen.lock().unwrap().push(rayon::current_num_threads());
        });
    });
    assert!(
        seen.lock().unwrap().iter().all(|&t| t == 1),
        "a 1-thread install must run every body serially"
    );
    // And the scope ends with the install.
    assert!(rayon::current_num_threads() >= 1);
}

#[test]
fn panic_in_one_block_propagates_and_pool_is_reusable() {
    for round in 0..3 {
        let caught = std::panic::catch_unwind(|| {
            (0..4096).into_par_iter().for_each(|i| {
                if i == 2048 + round {
                    panic!("round {round}");
                }
            });
        });
        let payload = caught.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, format!("round {round}"), "payload must survive");
        // Immediately reuse the pool: no poisoned lock, full coverage.
        let count = AtomicUsize::new(0);
        (0..4096).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4096);
    }
}

#[test]
fn mutable_adapters_preserve_disjoint_block_contract() {
    // par_iter_mut / par_chunks_mut reconstruct &mut sub-slices from raw
    // parts; verify every element is written once with its own value,
    // under enough load for multi-worker claims to interleave.
    let mut v = vec![0u64; 1 << 14];
    v.par_iter_mut().enumerate().for_each(|(i, x)| {
        assert_eq!(*x, 0);
        *x = i as u64 + 1;
    });
    assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));

    let mut w = vec![0u64; 1 << 14];
    w.par_chunks_mut(97).enumerate().for_each(|(ci, chunk)| {
        for x in chunk.iter_mut() {
            assert_eq!(*x, 0);
            *x = ci as u64 + 1;
        }
    });
    for (i, &x) in w.iter().enumerate() {
        assert_eq!(x, (i / 97) as u64 + 1, "element {i}");
    }
}

#[test]
fn map_collect_is_ordered_under_load() {
    for _ in 0..20 {
        let v: Vec<u64> = (0..10_000)
            .into_par_iter()
            .map(|i| (i * i) as u64)
            .collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i * i) as u64));
    }
}

#[test]
fn stats_count_dispatches_and_stay_monotonic() {
    let before = rayon::pool::stats();
    // At least one of these goes through the dispatch path whenever the
    // pool has workers; with QCEMU_THREADS=1 the counters legitimately
    // stay flat — monotonicity is the invariant, not growth.
    for _ in 0..10 {
        (0..4096).into_par_iter().for_each(|i| {
            std::hint::black_box(i);
        });
    }
    let after = rayon::pool::stats();
    assert!(after.tasks_dispatched >= before.tasks_dispatched);
    assert!(after.blocks_stolen >= before.blocks_stolen);
    assert!(after.parks >= before.parks);
    assert!(after.wakeups >= before.wakeups);
    assert!(after.peak_workers >= before.peak_workers);
    assert!(after.threads >= 1);
    if after.threads > 1 {
        assert!(
            after.tasks_dispatched > before.tasks_dispatched,
            "a multi-thread pool must dispatch these jobs"
        );
    }
}

#[test]
fn serial_equivalence_any_thread_count() {
    // The parallel adapters must compute exactly what the serial loop
    // computes — at QCEMU_THREADS=1 this pins the fully-serial path,
    // at higher counts it is the correctness oracle for handoff.
    let serial: u64 = (0..100_000u64).map(|i| i.wrapping_mul(2654435761)).sum();
    let total = std::sync::atomic::AtomicU64::new(0);
    (0..100_000).into_par_iter().for_each(|i| {
        total.fetch_add((i as u64).wrapping_mul(2654435761), Ordering::Relaxed);
    });
    assert_eq!(total.load(Ordering::Relaxed), serial);
}
