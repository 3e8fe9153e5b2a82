//! Epoch-tagged query-result LRU cache for the concurrent serving engine.
//!
//! Keys are 128-bit content fingerprints of `(query, options)`; every
//! entry is tagged with the corpus epoch it was computed against. A lookup
//! only hits when the entry's epoch equals the reader's current snapshot
//! epoch, so a publish invalidates the whole cache *logically* at the
//! instant it lands (the writer additionally prunes stale entries eagerly
//! after each publish to release memory).
//!
//! The cache is guarded by a plain mutex held for map operations only —
//! O(1) hash probes plus an O(capacity) LRU eviction scan — never across
//! extraction, encoding or scoring. Capacity is small (hundreds of
//! entries), so the mutex hold time is nanoseconds; readers that lose the
//! race simply recompute.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::types::{Query, SearchOptions, SearchResponse};

/// Default entry capacity of a [`QueryCache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Counters exposed by [`QueryCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache at the current epoch.
    pub hits: u64,
    /// Lookups that missed (absent, stale epoch, or capacity 0).
    pub misses: u64,
    /// Entries evicted by the LRU policy or epoch pruning.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

struct Entry {
    epoch: u64,
    last_used: u64,
    resp: Arc<SearchResponse>,
}

struct Inner {
    map: HashMap<u128, Entry>,
    tick: u64,
}

/// A bounded, epoch-aware LRU over successful search responses.
pub struct QueryCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// True when the cache can ever hold an entry. Callers use this to
    /// skip fingerprinting (an O(query bytes) hash) when caching is off.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Creates a cache holding at most `capacity` responses (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` at `epoch`. A stale entry (older epoch) is treated
    /// as absent and dropped on the spot.
    pub fn get(&self, key: u128, epoch: u64) -> Option<Arc<SearchResponse>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Relaxed);
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                let resp = Arc::clone(&entry.resp);
                drop(inner);
                self.hits.fetch_add(1, Relaxed);
                Some(resp)
            }
            Some(entry) if entry.epoch < epoch => {
                // Older epoch: genuinely stale, drop on the spot.
                inner.map.remove(&key);
                drop(inner);
                self.evictions.fetch_add(1, Relaxed);
                self.misses.fetch_add(1, Relaxed);
                None
            }
            Some(_) => {
                // Entry is *newer* than the caller's pinned snapshot (a
                // batch straddling a publish, or `search_at` on an old
                // epoch). A miss for this reader — but live-epoch readers
                // must keep their entry.
                drop(inner);
                self.misses.fetch_add(1, Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Stores a response computed at `epoch`, evicting the least recently
    /// used entry when full. Never downgrades: a resident entry from a
    /// newer epoch wins over the caller's (a pinned-snapshot reader must
    /// not wipe the live epoch's cache).
    pub fn put(&self, key: u128, epoch: u64, resp: Arc<SearchResponse>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.get(&key).is_some_and(|e| e.epoch > epoch) {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            // O(capacity) scan; capacity is small by construction, and this
            // runs with the map lock held for a single pass.
            if let Some(&lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&lru);
                self.evictions.fetch_add(1, Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                epoch,
                last_used: tick,
                resp,
            },
        );
    }

    /// Drops every entry not computed at `current_epoch` (the writer calls
    /// this after each publish so stale responses free their memory without
    /// waiting to be probed).
    pub fn prune_stale(&self, current_epoch: u64) {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|_, e| e.epoch == current_epoch);
        let dropped = (before - inner.map.len()) as u64;
        drop(inner);
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            len: self.lock().map.len(),
        }
    }
}

// ---- fingerprinting ------------------------------------------------------

/// Two independent word-at-a-time mixing streams = one 128-bit content
/// fingerprint. Queries carry full-resolution line images, so the hash
/// absorbs 64 bits per step (multiply + xor-shift avalanche, splitmix64
/// flavour) instead of byte-wise FNV — fingerprinting must stay a
/// negligible fraction of a cache *hit*. Collisions at 128 bits are
/// negligible for a cache keyed by at most a few hundred live entries;
/// a false miss merely recomputes.
struct Fp {
    a: u64,
    b: u64,
}

#[inline]
fn mix(mut z: u64, m: u64) -> u64 {
    z = z.wrapping_mul(m);
    z ^ (z >> 31)
}

impl Fp {
    fn new() -> Self {
        Fp {
            a: 0xcbf29ce484222325,
            b: 0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15,
        }
    }

    #[inline]
    fn u64(&mut self, x: u64) {
        self.a = mix(self.a ^ x, 0xff51afd7ed558ccd);
        // The second stream rotates before absorbing so the two halves
        // never collapse onto each other.
        self.b = mix(self.b.rotate_left(23) ^ x, 0xc4ceb9fe1a85ec53);
    }

    fn byte(&mut self, x: u8) {
        self.u64(x as u64 | 0x0100); // tag so byte(0) != u64(0)
    }

    fn bytes(&mut self, xs: &[u8]) {
        let mut chunks = xs.chunks_exact(8);
        for c in chunks.by_ref() {
            self.u64(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8 | 0x80; // length tag disambiguates padding
        self.u64(u64::from_le_bytes(tail));
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn f32(&mut self, x: f32) {
        self.u64(x.to_bits() as u64);
    }

    fn f32s(&mut self, xs: &[f32]) {
        // Pack pixel pairs into one word per step.
        let mut chunks = xs.chunks_exact(2);
        for c in chunks.by_ref() {
            self.u64((c[0].to_bits() as u64) << 32 | c[1].to_bits() as u64);
        }
        if let [last] = chunks.remainder() {
            self.f32(*last);
        }
    }

    fn done(self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// Content fingerprint of a `(query, options)` pair. Covers everything the
/// search pipeline consumes: series values and names, raw image pixels,
/// extracted line images / traces / values and the decoded y range, plus
/// `k`, strategy, `min_score` and `rerank`. Decoded tick metadata is deliberately
/// excluded — scoring reads only `y_range` from it.
///
/// Public because it is also the gateway's request-coalescing identity:
/// two in-flight wire requests with equal fingerprints are provably the
/// same computation, so the batcher scores one and fans the response out.
pub fn query_fingerprint(query: &Query, opts: &SearchOptions) -> u128 {
    let mut fp = Fp::new();
    match query {
        Query::Series(data) => {
            fp.byte(1);
            fp.u64(data.series.len() as u64);
            for s in &data.series {
                fp.u64(s.name.len() as u64);
                fp.bytes(s.name.as_bytes());
                fp.u64(s.ys.len() as u64);
                for &y in &s.ys {
                    fp.f64(y);
                }
            }
        }
        Query::Chart(image) => {
            fp.byte(2);
            fp.u64(image.width() as u64);
            fp.u64(image.height() as u64);
            // Pack 8 channel bytes per mix step (raw images are the
            // largest payload this hash ever sees).
            let (mut acc, mut n) = (0u64, 0u32);
            for px in image.pixels() {
                for c in [px.0, px.1, px.2] {
                    acc |= (c as u64) << (8 * n);
                    n += 1;
                    if n == 8 {
                        fp.u64(acc);
                        (acc, n) = (0, 0);
                    }
                }
            }
            if n > 0 {
                // n < 8, so the top byte is free for a remainder tag.
                fp.u64(acc | (0x80 | n as u64) << 56);
            }
        }
        Query::Extracted(e) => {
            fp.byte(3);
            match e.y_range {
                Some((lo, hi)) => {
                    fp.byte(1);
                    fp.f64(lo);
                    fp.f64(hi);
                }
                None => fp.byte(0),
            }
            fp.u64(e.lines.len() as u64);
            for line in &e.lines {
                fp.u64(line.image.width() as u64);
                fp.u64(line.image.height() as u64);
                fp.f32s(line.image.pixels());
                fp.u64(line.trace_rows.len() as u64);
                for &r in &line.trace_rows {
                    fp.f64(r);
                }
                fp.u64(line.values.len() as u64);
                for &v in &line.values {
                    fp.f64(v);
                }
            }
        }
    }
    fp.u64(opts.k as u64);
    fp.byte(match opts.strategy {
        lcdd_index::IndexStrategy::NoIndex => 0,
        lcdd_index::IndexStrategy::IntervalOnly => 1,
        lcdd_index::IndexStrategy::LshOnly => 2,
        lcdd_index::IndexStrategy::Hybrid => 3,
    });
    match opts.min_score {
        Some(m) => {
            fp.byte(1);
            fp.f32(m);
        }
        None => fp.byte(0),
    }
    match opts.rerank {
        Some(r) => {
            fp.byte(1);
            fp.u64(r as u64);
        }
        None => fp.byte(0),
    }
    fp.done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{StageCounts, StageTimings};
    use lcdd_index::IndexStrategy;

    fn resp(epoch: u64) -> Arc<SearchResponse> {
        Arc::new(SearchResponse {
            hits: Vec::new(),
            counts: StageCounts::default(),
            timings: StageTimings::default(),
            strategy: IndexStrategy::Hybrid,
            epoch,
            cached: false,
        })
    }

    #[test]
    fn hit_only_at_matching_epoch() {
        let cache = QueryCache::new(4);
        cache.put(42, 7, resp(7));
        assert!(cache.get(42, 7).is_some());
        assert!(cache.get(42, 8).is_none(), "stale epoch must miss");
        assert!(cache.get(42, 7).is_none(), "stale probe evicts the entry");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn pinned_snapshot_readers_cannot_thrash_live_entries() {
        // A reader still on epoch 6 (pinned snapshot / mid-batch straddle)
        // must neither evict nor overwrite the live epoch-7 entry.
        let cache = QueryCache::new(4);
        cache.put(42, 7, resp(7));
        assert!(
            cache.get(42, 6).is_none(),
            "older-epoch probe misses for that reader"
        );
        cache.put(42, 6, resp(6));
        let live = cache.get(42, 7).expect("live entry must survive");
        assert_eq!(live.epoch, 7, "newer entry must not be downgraded");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.put(1, 0, resp(0));
        cache.put(2, 0, resp(0));
        assert!(cache.get(1, 0).is_some()); // 2 is now LRU
        cache.put(3, 0, resp(0));
        assert!(cache.get(2, 0).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1, 0).is_some());
        assert!(cache.get(3, 0).is_some());
    }

    #[test]
    fn prune_stale_clears_old_epochs() {
        let cache = QueryCache::new(8);
        cache.put(1, 0, resp(0));
        cache.put(2, 1, resp(1));
        cache.prune_stale(1);
        assert_eq!(cache.stats().len, 1);
        assert!(cache.get(2, 1).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        cache.put(1, 0, resp(0));
        assert!(cache.get(1, 0).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn fingerprints_separate_queries_and_options() {
        let q1 = Query::from_series(vec![vec![1.0, 2.0, 3.0]]);
        let q2 = Query::from_series(vec![vec![1.0, 2.0, 4.0]]);
        let o1 = SearchOptions::top_k(5);
        let o2 = SearchOptions::top_k(6);
        assert_ne!(query_fingerprint(&q1, &o1), query_fingerprint(&q2, &o1));
        assert_ne!(query_fingerprint(&q1, &o1), query_fingerprint(&q1, &o2));
        assert_eq!(query_fingerprint(&q1, &o1), query_fingerprint(&q1, &o1));
        // NaN payloads fingerprint deterministically (bit pattern, not ==).
        let qn = Query::from_series(vec![vec![f64::NAN]]);
        assert_eq!(query_fingerprint(&qn, &o1), query_fingerprint(&qn, &o1));
    }
}
