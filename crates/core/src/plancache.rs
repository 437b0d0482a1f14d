//! Shared, bounded plan cache: one lowering per circuit structure.
//!
//! An [`ExecutionPlan`] is a function of a program's structure, the
//! [`CostModel`] and the [`SimConfig`] — it holds nothing built from a
//! closure — so there is one rule, for the solo executor, the batch
//! executor and the daemon alike: a plan is looked up by those three and
//! serves every program of that structure. [`SharedPlanCache`] is:
//!
//! * **keyed on [`structure_hash`](crate::program::QuantumProgram::structure_hash)** —
//!   programs that differ only in closure-carried parameters (rotation
//!   angles, classical map bodies) share one lowering, so planning,
//!   cost-model evaluation, and gate fusion are paid once per shape;
//! * **bounded, LRU-evicted** — a long-lived daemon serving thousands of
//!   distinct shapes stays at a fixed memory footprint (each entry
//!   carries the fused streams of its raw gate runs, which are not
//!   small);
//! * **single-flight** — when several threads miss on the same key
//!   simultaneously, exactly one lowers the plan while the rest block on
//!   a condition variable and then share the result. This is what makes
//!   "exactly one plan-cache miss across N concurrent same-structure
//!   requests" a guarantee rather than a race;
//! * **observable** — hit/miss/eviction counters back the daemon's
//!   served statistics and the repo's cache tests.
//!
//! Entries record the [`CostModel`] and [`SimConfig`] that produced them;
//! a lookup under a different model or config is a miss (and the fresh
//! lowering replaces the stale entry — same key, new validity).
//! Clones of a `SharedPlanCache` are handles to the same cache.

use crate::crossover::CostModel;
use crate::planner::ExecutionPlan;
use qcemu_sim::SimConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Default number of distinct structures a cache retains.
///
/// Plans carry the fused block streams of their raw gate runs, so an
/// entry for a deep circuit can reach megabytes; 32 shapes comfortably
/// covers a serving mix while bounding worst-case footprint.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

/// A bounded, structure-keyed, thread-shared cache of
/// [`ExecutionPlan`]s. See the [module docs](self) for semantics.
#[derive(Clone, Debug)]
pub struct SharedPlanCache {
    shared: Arc<CacheShared>,
}

#[derive(Debug)]
struct CacheShared {
    state: Mutex<CacheState>,
    /// Signalled when an in-flight lowering completes (or is abandoned),
    /// waking threads that blocked on the same key.
    done: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

#[derive(Debug)]
struct CacheState {
    capacity: usize,
    /// Monotone recency clock; bumped on every touch.
    tick: u64,
    entries: HashMap<u64, CacheEntry>,
    /// Keys currently being lowered by some thread (single-flight latch).
    in_flight: Vec<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    model: CostModel,
    config: SimConfig,
    plan: Arc<ExecutionPlan>,
    last_used: u64,
}

impl CacheEntry {
    fn valid_for(&self, model: &CostModel, config: &SimConfig) -> bool {
        self.model == *model && self.config == *config
    }
}

/// Removes the in-flight marker and wakes waiters even if the lowering
/// closure panics — otherwise every thread waiting on the key would hang.
struct InFlightGuard<'a> {
    shared: &'a CacheShared,
    key: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.in_flight.retain(|&k| k != self.key);
        drop(state);
        self.shared.done.notify_all();
    }
}

impl Default for SharedPlanCache {
    fn default() -> SharedPlanCache {
        SharedPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl SharedPlanCache {
    /// Cache retaining up to `capacity` distinct structures (floored at 1).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            shared: Arc::new(CacheShared {
                state: Mutex::new(CacheState {
                    capacity: capacity.max(1),
                    tick: 0,
                    entries: HashMap::new(),
                    in_flight: Vec::new(),
                }),
                done: Condvar::new(),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
                evictions: AtomicUsize::new(0),
            }),
        }
    }

    /// Maximum number of retained structures.
    pub fn capacity(&self) -> usize {
        self.shared.state.lock().unwrap().capacity
    }

    /// Number of structures currently cached.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to lower a plan from scratch.
    pub fn misses(&self) -> usize {
        self.shared.misses.load(Ordering::Relaxed)
    }

    /// Entries displaced by the capacity bound.
    pub fn evictions(&self) -> usize {
        self.shared.evictions.load(Ordering::Relaxed)
    }

    /// Drops every entry (counters are retained).
    pub fn clear(&self) {
        self.shared.state.lock().unwrap().entries.clear();
    }

    /// The cached plan for `structure_hash` under `model`/`config`, if
    /// present — without counting a hit or a miss, and without waiting on
    /// in-flight lowerings.
    pub fn peek(
        &self,
        structure_hash: u64,
        model: &CostModel,
        config: &SimConfig,
    ) -> Option<Arc<ExecutionPlan>> {
        let state = self.shared.state.lock().unwrap();
        state
            .entries
            .get(&structure_hash)
            .filter(|e| e.valid_for(model, config))
            .map(|e| Arc::clone(&e.plan))
    }

    /// Returns the cached plan for `structure_hash`, lowering it with
    /// `lower` on a miss (single-flight: concurrent misses on the same
    /// key run `lower` exactly once and share the result), and whether
    /// the lookup was counted as a hit. A thread that waited on another's
    /// lowering is a hit: it shares that plan and lowered nothing.
    pub fn get_or_plan(
        &self,
        structure_hash: u64,
        model: &CostModel,
        config: &SimConfig,
        lower: impl FnOnce() -> ExecutionPlan,
    ) -> (Arc<ExecutionPlan>, bool) {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if let Some(entry) = state.entries.get_mut(&structure_hash) {
                if entry.valid_for(model, config) {
                    state.tick += 1;
                    let tick = state.tick;
                    let entry = state.entries.get_mut(&structure_hash).unwrap();
                    entry.last_used = tick;
                    let plan = Arc::clone(&entry.plan);
                    self.shared.hits.fetch_add(1, Ordering::Relaxed);
                    return (plan, true);
                }
                // Present but lowered under another model/config: fall
                // through and re-plan; the insert below replaces the
                // entry in place.
            }
            if state.in_flight.contains(&structure_hash) {
                // Someone else is lowering this key: wait and re-check.
                state = self.shared.done.wait(state).unwrap();
                continue;
            }
            state.in_flight.push(structure_hash);
            break;
        }
        drop(state);

        let guard = InFlightGuard {
            shared: &self.shared,
            key: structure_hash,
        };
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(lower());
        self.insert(structure_hash, model, config, &plan);
        drop(guard);
        (plan, false)
    }

    /// Upserts an entry, evicting the least-recently-used other entry if
    /// the capacity bound is exceeded.
    fn insert(
        &self,
        structure_hash: u64,
        model: &CostModel,
        config: &SimConfig,
        plan: &Arc<ExecutionPlan>,
    ) {
        let mut state = self.shared.state.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(
            structure_hash,
            CacheEntry {
                model: *model,
                config: *config,
                plan: Arc::clone(plan),
                last_used: tick,
            },
        );
        while state.entries.len() > state.capacity {
            let victim = state
                .entries
                .iter()
                .filter(|(&k, _)| k != structure_hash)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    state.entries.remove(&k);
                    self.shared.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, Policy};
    use crate::program::{ProgramBuilder, QuantumProgram};

    fn qft_program(m: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        pb.hadamard_all(a);
        pb.qft(a);
        pb.build().unwrap()
    }

    fn lower(p: &QuantumProgram) -> ExecutionPlan {
        plan(
            p,
            &CostModel::default(),
            &SimConfig::fused(4),
            Policy::Cheapest,
        )
    }

    fn get(cache: &SharedPlanCache, p: &QuantumProgram) -> (Arc<ExecutionPlan>, bool) {
        cache.get_or_plan(
            p.structure_hash(),
            &CostModel::default(),
            &SimConfig::fused(4),
            || lower(p),
        )
    }

    #[test]
    fn same_structure_plans_once() {
        let cache = SharedPlanCache::new(4);
        let a = qft_program(3);
        let b = qft_program(3); // fresh instance, same structure
        let (plan_a, hit_a) = get(&cache, &a);
        let (plan_b, hit_b) = get(&cache, &b);
        assert!(Arc::ptr_eq(&plan_a, &plan_b));
        assert_eq!((hit_a, hit_b), (false, true));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = SharedPlanCache::new(2);
        let p3 = qft_program(3);
        let p4 = qft_program(4);
        let p5 = qft_program(5);
        get(&cache, &p3);
        get(&cache, &p4);
        get(&cache, &p3); // touch p3: p4 becomes the LRU victim
        get(&cache, &p5);
        assert_eq!(cache.evictions(), 1);
        let model = CostModel::default();
        let config = SimConfig::fused(4);
        assert!(cache.peek(p3.structure_hash(), &model, &config).is_some());
        assert!(cache.peek(p4.structure_hash(), &model, &config).is_none());
        assert!(cache.peek(p5.structure_hash(), &model, &config).is_some());
        // The lookup itself says the evicted structure is lowered afresh.
        assert!(!get(&cache, &p4).1);
    }

    #[test]
    fn model_or_config_change_is_a_miss_that_replaces() {
        let cache = SharedPlanCache::new(4);
        let p = qft_program(3);
        get(&cache, &p);
        let other_config = SimConfig::fused(3);
        let (plan, hit) = cache.get_or_plan(
            p.structure_hash(),
            &CostModel::default(),
            &other_config,
            || plan(&p, &CostModel::default(), &other_config, Policy::Cheapest),
        );
        assert!(!hit);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1, "same key: replaced, not duplicated");
        // The replacement is what peek now sees under the new config.
        let seen = cache
            .peek(p.structure_hash(), &CostModel::default(), &other_config)
            .unwrap();
        assert!(Arc::ptr_eq(&plan, &seen));
    }

    #[test]
    fn concurrent_same_structure_misses_collapse_to_one_lowering() {
        use std::sync::atomic::AtomicUsize;
        let cache = SharedPlanCache::new(4);
        let lowered = Arc::new(AtomicUsize::new(0));
        let reported_hits = Arc::new(AtomicUsize::new(0));
        let programs: Vec<QuantumProgram> = (0..8).map(|_| qft_program(4)).collect();
        std::thread::scope(|scope| {
            for p in &programs {
                let cache = cache.clone();
                let lowered = Arc::clone(&lowered);
                let reported_hits = Arc::clone(&reported_hits);
                scope.spawn(move || {
                    let (_, hit) = cache.get_or_plan(
                        p.structure_hash(),
                        &CostModel::default(),
                        &SimConfig::fused(4),
                        || {
                            lowered.fetch_add(1, Ordering::SeqCst);
                            lower(p)
                        },
                    );
                    reported_hits.fetch_add(usize::from(hit), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(lowered.load(Ordering::SeqCst), 1, "single-flight");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(
            reported_hits.load(Ordering::SeqCst),
            7,
            "each lookup reports its own count"
        );
    }

    #[test]
    fn clones_are_handles_to_the_same_cache() {
        let cache = SharedPlanCache::new(4);
        let other = cache.clone();
        let p = qft_program(3);
        get(&cache, &p);
        assert_eq!(other.len(), 1);
        assert_eq!(other.misses(), 1);
        other.clear();
        assert!(cache.is_empty());
    }
}
