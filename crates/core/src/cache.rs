//! The front-end's key-lookup cache.
//!
//! The paper's related work (Reynolds & Vahdat \[15\], Suel et al. \[17\])
//! lists caching among the standard techniques "to reduce search costs for
//! multi-term queries"; the HDK model makes it unusually cheap because
//! every cached posting list is bounded by `DFmax` — a capacity in keys
//! *is* a capacity in bytes — and keys repeat heavily across queries
//! (popular terms and term pairs). Sarshar & Roychowdhury (PAPERS.md) is
//! the argument that a small cache in front of a DHT is where a Zipf
//! workload's lookups go, and that its replacement rule need not be exact
//! LRU to get there.
//!
//! [`QueryCache`] maps a [`Key`] to its [`KeyLookup`] response at the
//! *querying* side: `serve::http` owns one for all of its connection
//! threads (a lookup's answer does not depend on who asks, only its
//! metering does). A hit skips the DHT round trip entirely — no messages,
//! no postings on the wire. Cached postings are the same encoded block the
//! index stores and the wire carried (the underlying `Bytes` buffer is
//! refcounted), so a hit is zero-copy and the cache's memory cost is the
//! block, not a decoded list.
//!
//! ## One writer, epoch invalidation
//!
//! Every entry remembers the index *epoch* it was fetched under. The
//! epoch is the engine's growth counter: the one `IndexService` behind a
//! `QueryService` bumps it on `add_documents`, joins, departures, failures
//! and restarts, under the index write lock and only after the change is
//! fully resident. Every entry dies on the first index change, so a stale
//! posting is never served. Stripes expire lazily: a caller carrying a
//! newer epoch clears a stripe when it next locks it. A caller
//! still carrying an *older* epoch than a stripe's (its query overlapped a
//! growth publication) bypasses that stripe: its peeks miss and its
//! commits are counted but never stored.
//!
//! This holds for **one writer**: the process that owns the cache also
//! owns the only `IndexService` writing the index. A second writer in
//! another process would need the epoch on the wire; out of scope.
//!
//! ## Striping and O(1) replacement
//!
//! The capacity is split over up to [`NUM_CACHE_STRIPES`] lock-striped
//! shards selected by key-hash bits (small caches use fewer, so every
//! stripe holds at least `MIN_STRIPE_KEYS` = 64 keys). Each stripe is a slab
//! of entries under a CLOCK hand: a hit sets the entry's second-chance
//! bit; an insert into a full stripe advances the hand, clearing set bits,
//! and replaces the first entry it finds unset. Finding a victim therefore
//! costs amortised constant work at any capacity (every entry the hand
//! passes over was paid for by a hit), a key hit since the hand last
//! passed outlives one that was not, and for a single caller the victim is
//! a deterministic function of the access sequence. What is given up is
//! *global* LRU order: a stripe evicts among its own keys only.
//!
//! ## Level-batched access
//!
//! The executor resolves one lattice level at a time, so the cache is
//! driven in two phases per level: [`QueryCache::peek_level`] classifies
//! the level's candidate keys into hits and misses (read-only — the
//! executor then probes only the misses), and [`QueryCache::commit_level`]
//! applies second-chance bits, insertions, evictions and statistics in
//! canonical key order. Each phase takes each touched stripe's lock once.
//! No lock is held between the phases, so concurrent callers may both
//! miss a cold key and probe it twice (correct results, a duplicated
//! probe); they never see a stale entry, and never a degraded one — the
//! executor does not commit a level answered during a transport error.

use crate::global_index::KeyLookup;
use crate::key::Key;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Most lock stripes a cache is split into (a power of two: stripe
/// selection is a mask over the key's well-mixed DHT hash, exactly like
/// the DHT's own striping).
pub const NUM_CACHE_STRIPES: usize = 16;

/// Fewest keys a stripe is given: below `2 * MIN_STRIPE_KEYS` a cache is
/// one stripe, and replacement is CLOCK over all of its keys.
const MIN_STRIPE_KEYS: usize = 64;

/// Counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered locally.
    pub hits: u64,
    /// Lookups that went to the network.
    pub misses: u64,
    /// Entries replaced because their stripe was full.
    pub evictions: u64,
    /// Postings that did *not* travel thanks to hits.
    pub postings_saved: u64,
    /// Payload bytes that did *not* travel thanks to hits (the cached
    /// blocks' exact wire sizes).
    pub bytes_saved: u64,
}

/// Result of peeking one plan node in [`QueryCache::peek_level`].
#[derive(Debug, Clone)]
pub enum CachePeek {
    /// The key is cached (possibly as a negative entry): no probe needed.
    Hit(Option<KeyLookup>),
    /// Not cached: the executor must probe the DHT.
    Miss,
}

impl CachePeek {
    /// True for [`CachePeek::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CachePeek::Hit(_))
    }
}

/// One cached response: the value (`None` caches *absence*) and CLOCK's
/// second-chance bit — set by a hit, cleared when the hand passes.
#[derive(Debug)]
struct Slot {
    key: Key,
    value: Option<KeyLookup>,
    referenced: bool,
}

#[derive(Debug)]
struct Stripe {
    /// Where each cached key sits in `slots`.
    index: HashMap<Key, usize>,
    slots: Vec<Slot>,
    /// Most keys this stripe holds.
    capacity: usize,
    /// The next slot eviction examines.
    hand: usize,
    /// The newest index epoch a caller locked this stripe under: every
    /// entry was fetched under it.
    epoch: u64,
    stats: CacheStats,
}

impl Stripe {
    /// Clears the stripe and takes the newer `epoch`: the index changed
    /// since every entry was fetched.
    fn expire(&mut self, epoch: u64) {
        self.slots.clear();
        self.index.clear();
        self.hand = 0;
        self.epoch = epoch;
    }

    /// Stores `key`'s response, fetched at the stripe's epoch. In a full
    /// stripe the hand takes the second chance from every entry it passes
    /// and replaces the first that has none left; a new entry starts
    /// without one, so a run of misses examines one entry each.
    fn insert(&mut self, key: Key, value: Option<KeyLookup>) {
        if let Some(&at) = self.index.get(&key) {
            // A concurrent caller probed the same cold key first.
            self.slots[at].value = value;
            return;
        }
        let slot = Slot {
            key,
            value,
            referenced: false,
        };
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
            return;
        }
        loop {
            let at = self.hand;
            self.hand = (at + 1) % self.slots.len();
            #[cfg(test)]
            tests::EXAMINED.with(|n| n.set(n.get() + 1));
            let victim = &mut self.slots[at];
            if victim.referenced {
                victim.referenced = false;
                continue;
            }
            self.index.remove(&victim.key);
            self.index.insert(key, at);
            *victim = slot;
            self.stats.evictions += 1;
            return;
        }
    }
}

/// A bounded cache of key-lookup responses: lock-striped, CLOCK
/// replacement per stripe, entries invalidated by index epoch.
#[derive(Debug)]
pub struct QueryCache {
    /// A power of two of them; their capacities sum to the cache's.
    stripes: Vec<Mutex<Stripe>>,
}

impl QueryCache {
    /// Cache holding at most `capacity` keys (across all stripes); entries
    /// die on the first index change.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        let wanted = (capacity / MIN_STRIPE_KEYS).clamp(1, NUM_CACHE_STRIPES);
        let stripes = 1 << wanted.ilog2();
        Self {
            stripes: (0..stripes)
                .map(|i| {
                    Mutex::new(Stripe {
                        index: HashMap::new(),
                        slots: Vec::new(),
                        capacity: capacity / stripes + usize::from(i < capacity % stripes),
                        hand: 0,
                        epoch: 0,
                        stats: CacheStats::default(),
                    })
                })
                .collect(),
        }
    }

    /// Calls `visit(stripe, at)` for every position `at` of `keys`,
    /// grouped by stripe: each touched stripe is locked once, expired if
    /// `epoch` is newer than the one it was last locked under, and sees
    /// its positions in ascending (canonical) order. A stripe already
    /// *ahead* of `epoch` is handed over as it is — the caller is a
    /// straggler that overlapped a growth publication and must check
    /// `stripe.epoch == epoch` before reading or storing entries: serving
    /// it newer entries would answer for an index state it never
    /// observed, storing its responses would plant pre-growth data.
    fn by_stripe<'k>(
        &self,
        epoch: u64,
        keys: impl Iterator<Item = &'k Key>,
        mut visit: impl FnMut(&mut Stripe, usize),
    ) {
        let mask = self.stripes.len() - 1;
        let mut order: Vec<(usize, usize)> = keys
            .enumerate()
            .map(|(at, key)| (key.dht_hash().0 as usize & mask, at))
            .collect();
        order.sort_unstable();
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let mut stripe = self.stripes[group[0].0].lock();
            if stripe.epoch < epoch {
                stripe.expire(epoch);
            }
            for &(_, at) in group {
                visit(&mut stripe, at);
            }
        }
    }

    /// Phase one of a level-batched lookup: classifies every candidate key
    /// of one plan level as a hit (returning the cached response) or a
    /// miss. Read-only with respect to second-chance bits and statistics —
    /// those are applied by [`QueryCache::commit_level`] once the misses
    /// have been resolved, so bookkeeping happens in canonical key order
    /// rather than probe-completion order.
    pub fn peek_level(&self, epoch: u64, keys: &[Key]) -> Vec<CachePeek> {
        let mut peeks = vec![CachePeek::Miss; keys.len()];
        self.by_stripe(epoch, keys.iter(), |stripe, at| {
            if stripe.epoch == epoch {
                if let Some(&slot) = stripe.index.get(&keys[at]) {
                    peeks[at] = CachePeek::Hit(stripe.slots[slot].value.clone());
                }
            }
        });
        peeks
    }

    /// Phase two of a level-batched lookup: applies the level's
    /// bookkeeping, per stripe in the order given (the executor passes
    /// canonical key order). For each `(key, resolved, was_hit)` triple: a
    /// hit counts, with what it saved, and gives its entry a second
    /// chance; a miss counts and stores the freshly fetched response,
    /// replacing the hand's victim when the stripe is full. A key peeked
    /// as a hit stays a hit even if its entry is gone by now (an earlier
    /// miss of the same level, or another caller, evicted it): the
    /// response was served locally, the entry is not restored.
    pub fn commit_level(&self, epoch: u64, entries: &[(Key, Option<KeyLookup>, bool)]) {
        self.by_stripe(epoch, entries.iter().map(|e| &e.0), |stripe, at| {
            let (key, resolved, was_hit) = &entries[at];
            let current = stripe.epoch == epoch;
            if *was_hit {
                stripe.stats.hits += 1;
                if let Some(lookup) = resolved {
                    stripe.stats.postings_saved += lookup.postings.len() as u64;
                    stripe.stats.bytes_saved += lookup.postings.encoded_len() as u64;
                }
                if current {
                    if let Some(&slot) = stripe.index.get(key) {
                        stripe.slots[slot].referenced = true;
                    }
                }
            } else {
                stripe.stats.misses += 1;
                if current {
                    stripe.insert(*key, resolved.clone());
                }
            }
        });
    }

    /// Current counters, summed over the stripes.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in &self.stripes {
            let stats = stripe.lock().stats;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.postings_saved += stats.postings_saved;
            total.bytes_saved += stats.bytes_saved;
        }
        total
    }

    /// Number of cached keys, never above the capacity (entries of an
    /// older epoch count until a caller next locks their stripe).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().slots.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_corpus::DocId;
    use hdk_ir::{Posting, PostingList};
    use hdk_text::TermId;

    thread_local! {
        /// Entries the calling thread's evictions have examined.
        pub(super) static EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn lookup(df: u32) -> KeyLookup {
        KeyLookup {
            postings: hdk_ir::CompressedPostings::from_list(&PostingList::from_sorted(vec![
                Posting {
                    doc: DocId(df),
                    tf: 1,
                    doc_len: 10,
                },
            ])),
            df,
            is_ndk: false,
        }
    }

    fn key(t: u32) -> Key {
        Key::single(TermId(t))
    }

    /// One level through both phases, as the executor drives them: a
    /// missed key `t` "fetches" `fetch(t)`. Returns each key's response
    /// and whether it was a hit.
    fn level(
        cache: &QueryCache,
        epoch: u64,
        terms: &[u32],
        fetch: impl Fn(u32) -> Option<KeyLookup>,
    ) -> Vec<(Option<KeyLookup>, bool)> {
        let keys: Vec<Key> = terms.iter().map(|&t| key(t)).collect();
        let commits: Vec<(Key, Option<KeyLookup>, bool)> = keys
            .iter()
            .zip(terms)
            .zip(cache.peek_level(epoch, &keys))
            .map(|((&k, &t), peek)| match peek {
                CachePeek::Hit(cached) => (k, cached, true),
                CachePeek::Miss => (k, fetch(t), false),
            })
            .collect();
        cache.commit_level(epoch, &commits);
        commits.into_iter().map(|(_, r, hit)| (r, hit)).collect()
    }

    /// One key through both phases: `(df of the response, was a hit)`.
    fn get(cache: &QueryCache, epoch: u64, t: u32, fetched: Option<u32>) -> (Option<u32>, bool) {
        let (response, hit) = level(cache, epoch, &[t], |_| fetched.map(lookup)).remove(0);
        (response.map(|l| l.df), hit)
    }

    fn is_cached(cache: &QueryCache, epoch: u64, t: u32) -> bool {
        cache.peek_level(epoch, &[key(t)])[0].is_hit()
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = QueryCache::new(8);
        assert_eq!(get(&cache, 0, 1, Some(5)), (Some(5), false));
        for _ in 0..2 {
            assert_eq!(get(&cache, 0, 1, Some(9)), (Some(5), true));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 0));
        assert_eq!(s.postings_saved, 2);
        assert_eq!(
            s.bytes_saved,
            2 * lookup(5).postings.encoded_len() as u64,
            "hits save the blocks' exact wire bytes"
        );
    }

    #[test]
    fn negative_results_are_cached_too() {
        // Absence is epoch-stable (any index change expires it), so
        // repeated probes of a missing key stay local...
        let cache = QueryCache::new(8);
        assert_eq!(get(&cache, 0, 2, None), (None, false));
        assert_eq!(get(&cache, 0, 2, Some(7)), (None, true));
        // ...until the epoch moves.
        assert_eq!(get(&cache, 1, 2, Some(7)), (Some(7), false));
    }

    #[test]
    fn a_hit_key_outlives_an_untouched_one() {
        let cache = QueryCache::new(2);
        get(&cache, 0, 1, Some(1));
        get(&cache, 0, 2, Some(2));
        // Key 1 earns a second chance; the hand passes it and takes key 2.
        assert!(get(&cache, 0, 1, None).1);
        get(&cache, 0, 3, Some(3));
        assert_eq!(cache.len(), 2);
        assert!(is_cached(&cache, 0, 1), "the hit key survived");
        assert!(!is_cached(&cache, 0, 2), "the untouched key was the victim");
        assert!(is_cached(&cache, 0, 3));
        // The chance is spent: untouched since, key 1 goes next.
        get(&cache, 0, 4, Some(4));
        assert!(!is_cached(&cache, 0, 1));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn epoch_change_invalidates() {
        let cache = QueryCache::new(4);
        get(&cache, 0, 1, Some(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            get(&cache, 1, 1, Some(9)),
            (Some(9), false),
            "epoch bump must clear the cache"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = QueryCache::new(0);
    }

    #[test]
    fn stale_epoch_callers_neither_sweep_nor_pollute() {
        // A straggler still carrying a pre-growth epoch (it overlapped the
        // growth publication) must not roll the cache back: no sweep of
        // the fresh entries, no reads of them, no insertion of its own
        // pre-growth responses.
        let cache = QueryCache::new(8);
        get(&cache, 1, 1, Some(1));
        assert_eq!(
            get(&cache, 0, 1, Some(99)),
            (Some(99), false),
            "stale caller must not be served newer entries"
        );
        assert_eq!(cache.len(), 1, "stale fetch must not be cached");
        cache.commit_level(0, &[(key(2), Some(lookup(2)), false)]);
        assert_eq!(cache.len(), 1, "stale commit must not plant entries");
        assert!(!is_cached(&cache, 1, 2));
        // The current-epoch view is untouched throughout.
        assert_eq!(get(&cache, 1, 1, None), (Some(1), true));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 3),
            "peeks never count, stale ops do"
        );
    }

    #[test]
    fn a_level_is_batched_per_stripe_in_canonical_order() {
        // 16 stripes; a level wider than any of them. Responses come back
        // in the level's order whatever the stripe grouping, and a repeat
        // of the level is all hits.
        let cache = QueryCache::new(NUM_CACHE_STRIPES * MIN_STRIPE_KEYS);
        let terms: Vec<u32> = (0..40).rev().collect();
        let first = level(&cache, 0, &terms, |t| (t % 3 != 0).then(|| lookup(t)));
        let again = level(&cache, 0, &terms, |_| unreachable!("all cached"));
        for ((&t, (fetched, hit)), (cached, hit_again)) in terms.iter().zip(&first).zip(&again) {
            assert!(!hit && *hit_again);
            let want = (t % 3 != 0).then_some(t);
            assert_eq!(fetched.as_ref().map(|l| l.df), want);
            assert_eq!(cached.as_ref().map(|l| l.df), want);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, cache.len()), (40, 40, 40));
    }

    #[test]
    fn the_victim_is_a_function_of_the_access_sequence() {
        // Two caches fed the same trace agree on every hit, every counter
        // and every survivor; and no commit leaves more than `capacity`
        // keys behind, at capacities below, at and above the striping
        // thresholds.
        let trace: Vec<Vec<u32>> = (0..400u32)
            .map(|i| (0..1 + i % 7).map(|j| (i * 7 + j * j * 13) % 500).collect())
            .collect();
        for capacity in [1, 3, 16, 127, 128, 300] {
            let (a, b) = (QueryCache::new(capacity), QueryCache::new(capacity));
            for terms in &trace {
                let hits = |cache: &QueryCache| -> Vec<bool> {
                    let out = level(cache, 4, terms, |t| Some(lookup(t)));
                    out.into_iter().map(|(_, hit)| hit).collect()
                };
                assert_eq!(hits(&a), hits(&b));
                assert!(a.len() <= capacity, "{} > {capacity}", a.len());
            }
            assert_eq!(a.stats(), b.stats());
            assert!(a.stats().evictions > 0);
            assert_eq!(a.len(), capacity, "the stripes' shares sum to it");
            for t in 0..500 {
                assert_eq!(is_cached(&a, 4, t), is_cached(&b, 4, t));
            }
        }
    }

    #[test]
    fn eviction_examines_a_constant_number_of_entries() {
        // Fill every stripe of a front-end-sized cache, then commit
        // 10 000 misses: a new entry starts without a second chance, so
        // each miss examines exactly one entry — not the 65 536 a scan
        // for the globally oldest stamp did.
        let capacity = 65_536;
        let cache = QueryCache::new(capacity);
        let commit = |range: std::ops::Range<u32>, hit: bool| {
            for chunk in range.collect::<Vec<_>>().chunks(32) {
                let entries: Vec<_> = chunk.iter().map(|&t| (key(t), None, hit)).collect();
                cache.commit_level(0, &entries);
            }
        };
        commit(0..90_000, false);
        assert_eq!(cache.len(), capacity, "every stripe is full");
        EXAMINED.with(|n| n.set(0));
        commit(90_000..100_000, false);
        assert_eq!(EXAMINED.with(|n| n.get()), 10_000);
        // A hit buys its entry one pass of the hand: give every old entry
        // one, and 20 000 more misses examine at most one entry each plus
        // one per chance taken away — amortised constant.
        commit(0..90_000, true);
        EXAMINED.with(|n| n.set(0));
        commit(100_000..120_000, false);
        let examined = EXAMINED.with(|n| n.get());
        assert!(examined > 20_000 && examined <= 20_000 + capacity as u64);
        assert_eq!(cache.len(), capacity);
    }

    #[test]
    fn intra_level_eviction_keeps_peeked_hits() {
        // Capacity 1, pre-seeded with key 2; the level probes [1, 2] (key
        // order). Key 1's miss-insert evicts key 2 mid-level, but key 2
        // was already peeked as a hit and its response served locally:
        // commit counts the hit and what it saved, and stays bounded.
        let cache = QueryCache::new(1);
        get(&cache, 0, 2, Some(2));
        let out = level(&cache, 0, &[1, 2], |t| Some(lookup(t)));
        assert!(!out[0].1 && out[1].1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 1));
        assert_eq!(s.postings_saved, 1, "the peeked hit still saved traffic");
        assert_eq!(cache.len(), 1, "capacity bound holds");
    }

    #[test]
    fn peek_level_is_read_only() {
        let cache = QueryCache::new(4);
        get(&cache, 0, 1, Some(1));
        let stats = cache.stats();
        let peeks = cache.peek_level(0, &[key(1), key(2)]);
        assert!(peeks[0].is_hit());
        assert!(!peeks[1].is_hit());
        assert_eq!(cache.stats(), stats, "peek must not touch counters");
    }

    #[test]
    fn concurrent_callers_hit_disjoint_stripes_safely() {
        // One cache for all of a front-end's threads: hammer it and check
        // the accounting. Capacity covers the working set, so every op is
        // exactly one hit or one miss and nothing is evicted.
        let cache = QueryCache::new(NUM_CACHE_STRIPES * MIN_STRIPE_KEYS);
        let threads = 4;
        let per_thread = 500;
        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..per_thread {
                        // 64 distinct keys shared across threads.
                        let t = (t * per_thread + i) % 64;
                        assert_eq!(get(cache, 0, t, Some(t)).0, Some(t));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64);
        assert_eq!(cache.len(), 64, "every distinct key cached exactly once");
        // Each key fetched at most once per thread racing on it, at least
        // once overall.
        assert!(stats.misses >= 64 && stats.misses <= (threads * 64) as u64);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn eviction_under_concurrency_respects_capacity() {
        for capacity in [8, 130] {
            let cache = QueryCache::new(capacity);
            std::thread::scope(|s| {
                for t in 0..4u32 {
                    let cache = &cache;
                    s.spawn(move || {
                        for i in 0..200u32 {
                            get(cache, 3, t * 1_000 + i, Some(i));
                            assert!(cache.len() <= capacity);
                        }
                    });
                }
            });
            assert_eq!(cache.len(), capacity);
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, 800);
            assert_eq!(stats.evictions, 800 - capacity as u64);
        }
    }

    #[test]
    fn commit_level_syncs_epoch() {
        let cache = QueryCache::new(4);
        get(&cache, 0, 1, Some(1));
        // A new epoch clears before committing the level.
        cache.commit_level(1, &[(key(2), Some(lookup(2)), false)]);
        assert_eq!(cache.len(), 1);
        assert!(!is_cached(&cache, 1, 1));
        assert!(is_cached(&cache, 1, 2));
    }
}
