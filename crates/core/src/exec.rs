//! Query execution: resolving a [`QueryPlan`] against the distributed
//! index, one lattice level at a time, with intra-query parallel fan-out.
//!
//! The executor is the runtime half of the plan/execute pipeline
//! (planning lives in [`crate::plan`]). Per level it
//!
//! 1. asks the plan for the level's candidate keys (pure, canonical key
//!    order);
//! 2. consults the optional [`QueryCache`] (the HTTP front-end's) —
//!    partial hits skip their probes entirely;
//! 3. resolves the remaining probes through
//!    [`GlobalIndex::lookup_many`](crate::global_index::GlobalIndex::lookup_many),
//!    which fans out rayon-parallel over the DHT's lock stripes, taking
//!    each stripe's read lock once per level instead of once per key;
//! 4. accounts lookups/postings and streams every found block into the
//!    [`ScoreAccumulator`] in canonical `(level, key)` order — so
//!    [`QueryOutcome`], traffic counters and top-k score bits are
//!    identical at any `RAYON_NUM_THREADS`, and identical to the retired
//!    sequential walk;
//! 5. feeds the observed [`NodeOutcome`]s back into the plan's next
//!    expansion (an HDK hit or an absent key terminates its branch).
//!
//! Parallelism only reorders the *probing*; every observable effect is
//! applied in plan order, which is what `tests/thread_invariance.rs` and
//! `tests/golden_report.rs` pin down.
//!
//! Under churn the plan resolution *fails over per key*, transparently:
//! every `lookup_many` probe is served by the first live replica holding
//! the key along the deterministic failover walk (`hdk_p2p::replica`), so
//! a query during the degradation window between a crash and its repair
//! sweep still returns bit-identical results as long as some replica of
//! each probed key survives — the failure surfaces only as extra hops and
//! (simulated) dead-peer timeouts in the traffic meters.

use crate::cache::{CachePeek, QueryCache};
use crate::engine::{HdkNetwork, QueryService};
use crate::global_index::{GlobalIndex, KeyLookup};
use crate::key::Key;
use crate::plan::{self, NodeOutcome, QueryPlan};
use crate::stats::{LevelProfile, QueryProfile};
use hdk_ir::{ScoreAccumulator, SearchResult};
use hdk_p2p::{hash_u64s, PeerId};
use hdk_text::TermId;
use rayon::prelude::*;
use std::time::Instant;

/// Outcome of one query: ranked results plus the traffic it cost.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-k documents, descending BM25-family score.
    pub results: Vec<SearchResult>,
    /// Key lookups issued (`nk` of Section 4.2). Cache hits issue none.
    pub lookups: u32,
    /// Postings transferred to the querying peer (Figure 6's y-axis).
    pub postings_fetched: u64,
}

/// One resolved plan node: the lookup response (if the key is indexed)
/// and whether resolving it cost a DHT probe (`false` for cache hits).
struct Resolved {
    lookup: Option<KeyLookup>,
    probed: bool,
}

impl Resolved {
    fn outcome(&self) -> NodeOutcome {
        match &self.lookup {
            None => NodeOutcome::Absent,
            Some(l) if l.is_ndk => NodeOutcome::Ndk,
            Some(_) => NodeOutcome::Hdk,
        }
    }
}

/// Derives the replica-spread attribute of one query: a pure hash of the
/// querying peer, the query terms, and a caller-chosen `salt` (0 for
/// standalone queries; the batch position in [`QueryService::query_batch`],
/// so Zipf-repeated queries in one log spread across replicas). Being a
/// function of message attributes only, the id — and therefore every
/// replica pick it drives — is identical at any thread count.
pub fn derive_query_id(from: PeerId, terms: &[TermId], salt: u64) -> u64 {
    let mut attrs: Vec<u64> = Vec::with_capacity(terms.len() + 2);
    attrs.push(from.0);
    attrs.push(salt);
    attrs.extend(terms.iter().map(|t| u64::from(t.0)));
    hash_u64s(&attrs)
}

/// Executes [`QueryPlan`]s for one querying peer against one network's
/// [`QueryService`], optionally through a [`QueryCache`].
pub struct QueryExecutor<'a> {
    service: &'a QueryService,
    from: PeerId,
    query_id: u64,
    cache: Option<&'a QueryCache>,
}

impl<'a> QueryExecutor<'a> {
    /// Executor probing the DHT directly. `query_id` is the replica-spread
    /// attribute every probe carries (see [`derive_query_id`]).
    pub fn new(service: &'a QueryService, from: PeerId, query_id: u64) -> Self {
        Self {
            service,
            from,
            query_id,
            cache: None,
        }
    }

    /// Executor consulting `cache` before every probe. Hits cost no
    /// messages and no postings; only misses appear in the
    /// [`QueryOutcome`] and the traffic meters.
    pub fn with_cache(
        service: &'a QueryService,
        from: PeerId,
        query_id: u64,
        cache: &'a QueryCache,
    ) -> Self {
        Self {
            service,
            from,
            query_id,
            cache: Some(cache),
        }
    }

    /// Runs `plan`, returning the top `k` documents, the query's cost, and
    /// its per-level execution profile.
    ///
    /// The index read lock is acquired first and held for the query's
    /// duration: a concurrent peer join (write lock) waits, and since
    /// growth publishes its statistics + epoch under the write lock *after*
    /// its indexing session completes, the epoch and collection statistics
    /// read below are mutually consistent — a query never ranks with
    /// document counts ahead of the postings it can actually fetch, and a
    /// cache commit under a pre-growth epoch is swept once the growth
    /// publishes. (Postings of an in-flight `add_documents` session may be
    /// transiently visible — the DHT is live — but they are never counted
    /// in the statistics and never cacheable under the new epoch.)
    pub fn run(&self, plan: &QueryPlan, k: usize) -> (QueryOutcome, QueryProfile) {
        let core = self.service.core();
        let index = core.index.read();
        let epoch = core.epoch();
        let mut acc = ScoreAccumulator::new(core.num_docs(), core.avg_doc_len());
        let mut lookups = 0u32;
        let mut postings_fetched = 0u64;
        let mut profile = QueryProfile::default();

        // Feedback threaded between levels: the live frontier (NDK keys of
        // the previous level, canonical order) and the query terms whose
        // singles resolved NDK (the only admissible extension terms).
        let mut frontier: Vec<Key> = Vec::new();
        let mut ndk_terms: Vec<TermId> = Vec::new();

        for level in 1..=plan.max_level() {
            let started = Instant::now();
            let nodes = if level == 1 {
                plan.level_one()
            } else {
                plan.expand(&frontier, &ndk_terms)
            };
            if nodes.is_empty() {
                break;
            }
            let resolved = self.resolve_level(&index, epoch, &nodes);

            // Deterministic (level, key)-ordered accounting: parallelism
            // above only reordered the probing, never the bookkeeping.
            let mut stats = LevelProfile {
                level,
                planned: nodes.len() as u32,
                ..LevelProfile::default()
            };
            let mut next_frontier: Vec<Key> = Vec::new();
            for (key, r) in nodes.iter().zip(&resolved) {
                if r.probed {
                    stats.probes += 1;
                    lookups += 1;
                } else {
                    stats.cache_hits += 1;
                }
                if let Some(l) = &r.lookup {
                    stats.found += 1;
                    if r.probed {
                        let n = l.postings.len() as u64;
                        stats.postings += n;
                        postings_fetched += n;
                    }
                    acc.accumulate_block(l.df, &l.postings);
                }
                // HDK hits and absent keys terminate their lattice branch
                // (the plan's early-termination rule); only NDKs expand.
                if !r.outcome().is_terminal() {
                    stats.expanded += 1;
                    next_frontier.push(*key);
                    if level == 1 {
                        ndk_terms.push(key.terms().next().expect("singles have one term"));
                    }
                }
            }
            stats.nanos = started.elapsed().as_nanos() as u64;
            profile.levels.push(stats);
            frontier = next_frontier;
            if frontier.is_empty() {
                break;
            }
        }

        let results = acc.into_top_k(k);
        (
            QueryOutcome {
                results,
                lookups,
                postings_fetched,
            },
            profile,
        )
    }

    /// Resolves one level's candidate keys: cache hits answered locally,
    /// misses fanned out through one batched `LookupMany` message set
    /// (stripe-parallel at the DHT). Results come back in the candidates'
    /// (canonical) order.
    ///
    /// A level during which the transport's error counter advanced is
    /// returned but **not committed**: a probe that came back `None`
    /// because a peer process was unreachable must not be cached as an
    /// absent key. Another thread's error also skips this commit, which
    /// only costs a re-probe.
    fn resolve_level(&self, index: &GlobalIndex, epoch: u64, nodes: &[Key]) -> Vec<Resolved> {
        let Some(cache) = self.cache else {
            return index
                .lookup_many(self.from, self.query_id, nodes)
                .into_iter()
                .map(|lookup| Resolved {
                    lookup,
                    probed: true,
                })
                .collect();
        };
        let peeks = cache.peek_level(epoch, nodes);
        let miss_keys: Vec<Key> = nodes
            .iter()
            .zip(&peeks)
            .filter(|(_, p)| !p.is_hit())
            .map(|(&k, _)| k)
            .collect();
        let errors_before = index.transport_errors();
        let mut fetched = if miss_keys.is_empty() {
            Vec::new()
        } else {
            index.lookup_many(self.from, self.query_id, &miss_keys)
        }
        .into_iter();
        let commits: Vec<(Key, Option<KeyLookup>, bool)> = nodes
            .iter()
            .zip(peeks)
            .map(|(&key, peek)| match peek {
                CachePeek::Hit(cached) => (key, cached, true),
                CachePeek::Miss => (key, fetched.next().expect("one response per miss"), false),
            })
            .collect();
        if index.transport_errors() == errors_before {
            cache.commit_level(epoch, &commits);
        }
        commits
            .into_iter()
            .map(|(_, lookup, was_hit)| Resolved {
                lookup,
                probed: !was_hit,
            })
            .collect()
    }
}

impl QueryService {
    /// Executes `query` from peer `from`, returning the top `k` documents
    /// and the query's cost. Plans the lattice walk once, then resolves it
    /// level by level with parallel probe fan-out (see [`QueryExecutor`]).
    pub fn query(&self, from: PeerId, query: &[TermId], k: usize) -> QueryOutcome {
        self.query_profiled(from, query, k).0
    }

    /// Like [`QueryService::query`] but also returns the per-level
    /// execution profile (fan-out widths, probe counts, level latencies).
    pub fn query_profiled(
        &self,
        from: PeerId,
        query: &[TermId],
        k: usize,
    ) -> (QueryOutcome, QueryProfile) {
        self.query_salted(from, query, k, 0)
    }

    /// [`QueryService::query_profiled`] with an explicit spread salt (the
    /// batch position in [`QueryService::query_batch`]): at `R > 1`,
    /// distinct salts let *identical* repeated queries land on distinct
    /// replicas. At `R = 1` the salt is unobservable, so the salted and
    /// plain paths agree bit for bit.
    fn query_salted(
        &self,
        from: PeerId,
        query: &[TermId],
        k: usize,
        salt: u64,
    ) -> (QueryOutcome, QueryProfile) {
        let plan = QueryPlan::new(query, self.config().smax);
        let query_id = derive_query_id(from, query, salt);
        QueryExecutor::new(self, from, query_id).run(&plan, k)
    }

    /// Evaluates a batch of independent queries in parallel over the rayon
    /// pool — the workhorse of the experiment harness, where thousands of
    /// log queries hit a built network back to back.
    ///
    /// Each query runs the exact plan/execute pipeline of
    /// [`QueryService::query`] (queries never mutate the index, and
    /// lookups route over the thread-safe metered DHT), so results are
    /// identical to the sequential loop and independent of thread count;
    /// the traffic meters advance by the same totals because counters are
    /// sums of per-lookup contributions. Outcomes come back in input
    /// order.
    ///
    /// Terms are generic over `AsRef<[TermId]>` so call sites can pass
    /// borrowed slices (`&q.terms`) without cloning every query.
    ///
    /// Each query's spread salt is its batch position — a pure positional
    /// attribute, so the replica picks are identical at any thread count,
    /// yet Zipf-repeated queries in one log rotate over the replica set
    /// instead of pinning one holder.
    pub fn query_batch<Q: AsRef<[TermId]> + Sync>(
        &self,
        queries: &[(PeerId, Q)],
        k: usize,
    ) -> Vec<QueryOutcome> {
        (0..queries.len())
            .into_par_iter()
            .map(|i| {
                let (from, terms) = &queries[i];
                self.query_salted(*from, terms.as_ref(), k, i as u64).0
            })
            .collect()
    }

    /// [`QueryService::query_batch`] with per-query execution profiles —
    /// the harness uses this to report per-level fan-out widths.
    pub fn query_batch_profiled<Q: AsRef<[TermId]> + Sync>(
        &self,
        queries: &[(PeerId, Q)],
        k: usize,
    ) -> Vec<(QueryOutcome, QueryProfile)> {
        (0..queries.len())
            .into_par_iter()
            .map(|i| {
                let (from, terms) = &queries[i];
                self.query_salted(*from, terms.as_ref(), k, i as u64)
            })
            .collect()
    }

    /// Like [`QueryService::query`] but consults a [`QueryCache`] first,
    /// one plan level at a time: the level's cache hits skip their probes
    /// entirely and only the misses fan out to the DHT. Cache hits cost no
    /// messages and no postings; only misses appear in the returned
    /// [`QueryOutcome`] and in the traffic meters. Entries die when the
    /// index epoch changes (growth, joins, churn), and a level answered
    /// while the transport reported an error is not cached at all.
    ///
    /// Callers may share one cache (the HTTP front-end's threads do): no
    /// lock is held between a level's peek and commit, so two of them may
    /// both probe a cold key — duplicated work, never a wrong answer. The
    /// results always equal [`QueryService::query`]'s on the index state
    /// the query observed; this is the serving path, `query` the one that
    /// reproduces the paper's per-query traffic.
    pub fn query_cached(
        &self,
        from: PeerId,
        query: &[TermId],
        k: usize,
        cache: &crate::cache::QueryCache,
    ) -> QueryOutcome {
        let plan = QueryPlan::new(query, self.config().smax);
        let query_id = derive_query_id(from, query, 0);
        QueryExecutor::with_cache(self, from, query_id, cache)
            .run(&plan, k)
            .0
    }

    /// The worst-case number of key lookups for a query of `q_len` distinct
    /// terms (Section 4.2): `2^|q| - 1` when `|q| <= smax`, otherwise
    /// `Σ_{s=1..smax} C(|q|, s)`. Saturates instead of overflowing for
    /// degenerate `q_len`.
    pub fn max_lookups(&self, q_len: usize) -> u64 {
        plan::max_lookups(q_len, self.config().smax)
    }
}

impl HdkNetwork {
    /// See [`QueryService::query`].
    pub fn query(&self, from: PeerId, query: &[TermId], k: usize) -> QueryOutcome {
        self.query_service_ref().query(from, query, k)
    }

    /// See [`QueryService::query_profiled`].
    pub fn query_profiled(
        &self,
        from: PeerId,
        query: &[TermId],
        k: usize,
    ) -> (QueryOutcome, QueryProfile) {
        self.query_service_ref().query_profiled(from, query, k)
    }

    /// See [`QueryService::query_batch`].
    pub fn query_batch<Q: AsRef<[TermId]> + Sync>(
        &self,
        queries: &[(PeerId, Q)],
        k: usize,
    ) -> Vec<QueryOutcome> {
        self.query_service_ref().query_batch(queries, k)
    }

    /// See [`QueryService::query_cached`].
    pub fn query_cached(
        &self,
        from: PeerId,
        query: &[TermId],
        k: usize,
        cache: &crate::cache::QueryCache,
    ) -> QueryOutcome {
        self.query_service_ref().query_cached(from, query, k, cache)
    }

    /// See [`QueryService::max_lookups`].
    pub fn max_lookups(&self, q_len: usize) -> u64 {
        self.query_service_ref().max_lookups(q_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdkConfig;
    use hdk_corpus::{
        partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
    };

    fn network(dfmax: u32) -> (hdk_corpus::Collection, HdkNetwork) {
        let c = CollectionGenerator::new(GeneratorConfig {
            num_docs: 500,
            vocab_size: 3_000,
            avg_doc_len: 60,
            num_topics: 40,
            topic_vocab: 60,
            ..GeneratorConfig::default()
        })
        .generate();
        let parts = partition_documents(c.len(), 4, 11);
        let n = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax,
                ff: 3_000,
                ..HdkConfig::default()
            },
        );
        (c, n)
    }

    #[test]
    fn queries_return_ranked_results() {
        let (c, n) = network(25);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 40,
                ..QueryLogConfig::default()
            },
        );
        let mut nonempty = 0;
        for q in &log.queries {
            let out = n.query(PeerId(0), &q.terms, 20);
            if !out.results.is_empty() {
                nonempty += 1;
                for w in out.results.windows(2) {
                    assert!(w[0].score >= w[1].score);
                }
            }
        }
        // Queries are sampled from document windows, so they match.
        assert!(nonempty >= 38, "only {nonempty}/40 queries had results");
    }

    #[test]
    fn lookups_bounded_by_lattice_size() {
        let (c, n) = network(25);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 60,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let out = n.query(PeerId(1), &q.terms, 20);
            assert!(
                u64::from(out.lookups) <= n.max_lookups(q.terms.len()),
                "query of {} terms used {} lookups > bound {}",
                q.terms.len(),
                out.lookups,
                n.max_lookups(q.terms.len())
            );
        }
    }

    #[test]
    fn per_key_transfer_bounded_by_dfmax_for_ndks() {
        // Total fetched <= lookups * max(DFmax, largest HDK list); since
        // every HDK list is also <= DFmax by definition, the bound is
        // lookups * DFmax (Section 4.2's nk * DFmax).
        let (c, n) = network(25);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 60,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let out = n.query(PeerId(2), &q.terms, 20);
            assert!(
                out.postings_fetched <= u64::from(out.lookups) * u64::from(n.config().dfmax),
                "fetched {} > nk*DFmax {}",
                out.postings_fetched,
                u64::from(out.lookups) * u64::from(n.config().dfmax)
            );
        }
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let (_, n) = network(25);
        let out = n.query(PeerId(0), &[TermId(2_999_999)], 10);
        assert!(out.results.is_empty());
        assert_eq!(out.postings_fetched, 0);
        assert_eq!(out.lookups, 1, "the single is still probed");
    }

    #[test]
    fn duplicate_query_terms_collapse() {
        let (c, n) = network(25);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 5,
                ..QueryLogConfig::default()
            },
        );
        let q = &log.queries[0].terms;
        let mut doubled = q.clone();
        doubled.extend(q.iter().copied());
        let a = n.query(PeerId(0), q, 10);
        let b = n.query(PeerId(0), &doubled, 10);
        assert_eq!(a.results, b.results);
        assert_eq!(a.lookups, b.lookups);
    }

    #[test]
    fn profile_agrees_with_outcome() {
        let (c, n) = network(25);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 30,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let (out, profile) = n.query_profiled(PeerId(0), &q.terms, 20);
            // Without a cache every planned node is probed.
            assert_eq!(profile.total_probes(), out.lookups);
            let planned: u32 = profile.levels.iter().map(|l| l.planned).sum();
            assert_eq!(planned, out.lookups);
            let postings: u64 = profile.levels.iter().map(|l| l.postings).sum();
            assert_eq!(postings, out.postings_fetched);
            // Levels are consecutive sizes starting at 1, within smax.
            for (i, l) in profile.levels.iter().enumerate() {
                assert_eq!(l.level, i + 1);
                assert!(l.level <= n.config().smax);
                assert_eq!(l.cache_hits, 0);
                assert!(l.found >= l.expanded);
                assert!(l.planned >= l.found);
            }
            // A level only exists because the previous one expanded.
            for w in profile.levels.windows(2) {
                assert!(w[0].expanded > 0);
            }
        }
    }

    #[test]
    fn profiled_and_plain_query_agree() {
        let (c, n) = network(30);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 10,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let plain = n.query(PeerId(1), &q.terms, 20);
            let (profiled, _) = n.query_profiled(PeerId(1), &q.terms, 20);
            assert_eq!(plain.results, profiled.results);
            assert_eq!(plain.lookups, profiled.lookups);
            assert_eq!(plain.postings_fetched, profiled.postings_fetched);
        }
    }
}
