//! Shared, thread-safe granularity-resolution cache.
//!
//! Resolving an instant to its tick ([`covering_tick`]), materializing a
//! tick's instant set ([`tick_intervals`]) and converting ticks across
//! granularities ([`convert_tick`]) all bottom out in calendar arithmetic
//! that the matcher, the mining pipeline and constraint propagation repeat
//! for the *same* arguments thousands of times per run. Every [`Gran`]
//! handle owns one `ResolutionCache`, shared by all clones of the handle
//! (clones share the inner `Arc`), so a calendar lookup warmed by one layer
//! accelerates every other layer.
//!
//! The cache is keyed per operation on the raw argument (tick or second)
//! plus, for conversions, the target granularity's unique
//! [instance id](crate::Gran::instance_id) — ids are process-unique and
//! never reused, so two distinct granularities that merely share a name
//! (e.g. `business-day` with different holiday sets) can never collide.
//!
//! Hit/miss counters aggregate both per-granularity (see
//! [`Gran::cache_stats`](crate::Gran::cache_stats)) and process-wide
//! ([`global_stats`]). The whole layer can be switched off with
//! [`set_enabled`] for ablation experiments; resolution results are
//! identical either way (the differential property tests assert this).
//!
//! [`covering_tick`]: crate::Granularity::covering_tick
//! [`tick_intervals`]: crate::Granularity::tick_intervals
//! [`convert_tick`]: crate::convert_tick
//! [`Gran`]: crate::Gran

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::granularity::{Second, Tick};
use crate::interval::IntervalSet;

/// Multiply-rotate hasher for the memo keys (ticks, seconds, instance
/// ids). The default SipHash costs about as much as the periodic-calendar
/// arithmetic the memo replaces; integer keys need no DoS resistance here.
/// Public so other layers' integer-keyed memos (constraint propagation's
/// conversion memo) share it.
#[derive(Default)]
pub struct FastIntHasher(u64);

impl Hasher for FastIntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` hashed by [`FastIntHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastIntHasher>>;

/// Process-wide switch for the resolution cache (default: on).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide hit/miss aggregates across every granularity's cache.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Monotonic source of process-unique granularity instance ids.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// Each per-operation map is cleared when it reaches this many entries; a
/// backstop against unbounded growth on adversarial tick streams, far above
/// what the bench workloads touch.
const MAX_ENTRIES: usize = 1 << 16;

/// Enables or disables the resolution cache process-wide.
///
/// Disabling does not clear existing entries; it bypasses lookups and
/// insertions (counters stop moving too). Intended for cache-on/off
/// ablations and differential tests.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the resolution cache is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Hit/miss counters for a resolution cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to calendar arithmetic.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

/// Process-wide counters aggregated across every granularity's cache.
pub fn global_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide counters (per-granularity counters are
/// unaffected). Useful around a measured region in benchmarks.
pub fn reset_global_stats() {
    GLOBAL_HITS.store(0, Ordering::Relaxed);
    GLOBAL_MISSES.store(0, Ordering::Relaxed);
}

pub(crate) fn next_instance_id() -> u64 {
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Per-granularity memo for `covering_tick`, `tick_intervals` and
/// `convert_tick`, shared by all clones of a [`Gran`](crate::Gran) handle.
pub(crate) struct ResolutionCache {
    covering: Mutex<FastMap<Second, Option<Tick>>>,
    intervals: Mutex<FastMap<Tick, Option<IntervalSet>>>,
    /// Keyed by (target instance id, source tick).
    convert: Mutex<FastMap<(u64, Tick), Option<Tick>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResolutionCache {
    pub(crate) fn new() -> Self {
        ResolutionCache {
            covering: Mutex::new(FastMap::default()),
            intervals: Mutex::new(FastMap::default()),
            convert: Mutex::new(FastMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    fn memo<K, V>(
        &self,
        map: &Mutex<FastMap<K, V>>,
        key: K,
        compute: impl FnOnce() -> V,
    ) -> V
    where
        K: std::hash::Hash + Eq,
        V: Clone,
    {
        if !enabled() {
            return compute();
        }
        if let Some(v) = map.lock().get(&key) {
            self.hit();
            return v.clone();
        }
        self.miss();
        let v = compute();
        let mut guard = map.lock();
        if guard.len() >= MAX_ENTRIES {
            guard.clear();
        }
        guard.insert(key, v.clone());
        v
    }

    pub(crate) fn covering_tick(
        &self,
        t: Second,
        compute: impl FnOnce() -> Option<Tick>,
    ) -> Option<Tick> {
        self.memo(&self.covering, t, compute)
    }

    pub(crate) fn tick_intervals(
        &self,
        z: Tick,
        compute: impl FnOnce() -> Option<IntervalSet>,
    ) -> Option<IntervalSet> {
        self.memo(&self.intervals, z, compute)
    }

    pub(crate) fn convert_tick(
        &self,
        target_id: u64,
        z: Tick,
        compute: impl FnOnce() -> Option<Tick>,
    ) -> Option<Tick> {
        self.memo(&self.convert, (target_id, z), compute)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn clear(&self) {
        self.covering.lock().clear();
        self.intervals.lock().clear();
        self.convert.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or toggle the process-wide enable flag
    /// (the default harness runs tests concurrently in one process).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn memo_counts_hits_and_misses() {
        let _guard = TEST_LOCK.lock();
        let c = ResolutionCache::new();
        let mut computed = 0;
        for _ in 0..3 {
            let v = c.covering_tick(42, || {
                computed += 1;
                Some(7)
            });
            assert_eq!(v, Some(7));
        }
        assert_eq!(computed, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_cache_bypasses_and_stops_counting() {
        let _guard = TEST_LOCK.lock();
        let c = ResolutionCache::new();
        c.covering_tick(1, || Some(1));
        set_enabled(false);
        let mut computed = 0;
        for _ in 0..2 {
            c.covering_tick(1, || {
                computed += 1;
                Some(1)
            });
        }
        set_enabled(true);
        assert_eq!(computed, 2, "disabled cache must recompute every call");
        assert_eq!(c.stats().lookups(), 1, "disabled lookups are not counted");
    }

    #[test]
    fn convert_keys_are_per_target() {
        let _guard = TEST_LOCK.lock();
        let c = ResolutionCache::new();
        assert_eq!(c.convert_tick(1, 5, || Some(10)), Some(10));
        assert_eq!(c.convert_tick(2, 5, || Some(20)), Some(20));
        assert_eq!(c.convert_tick(1, 5, || unreachable!("cached")), Some(10));
    }

    #[test]
    fn capped_maps_reset_instead_of_growing() {
        let _guard = TEST_LOCK.lock();
        let c = ResolutionCache::new();
        for t in 0..(MAX_ENTRIES as i64 + 10) {
            c.covering_tick(t, || Some(t));
        }
        assert!(c.covering.lock().len() <= MAX_ENTRIES);
    }

    #[test]
    fn instance_ids_are_unique() {
        let a = next_instance_id();
        let b = next_instance_id();
        assert_ne!(a, b);
    }
}
