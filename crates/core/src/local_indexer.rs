//! Per-peer local indexing state and round computation.
//!
//! Each peer `P_i` indexes its fraction `D(P_i)` "in several iterations,
//! starting by computing single-term keys, then 2-term keys, ..., and
//! finally smax-term keys" (Section 3.1). Between iterations the peer
//! learns, via notifications from the global index, which of its inserted
//! keys became globally non-discriminative; only those are expanded. This
//! is the locality property the paper highlights: computing local size-`s`
//! HDKs "only requires knowledge about the global document frequencies of
//! the local size 1 and size (s-1) NDKs".
//!
//! The peer also supports *incremental* sessions (documents added after the
//! initial build — the paper's growth scenario, executed without a rebuild):
//! new documents generate against all known NDKs, while previously indexed
//! documents only generate combinations that involve a *newly*
//! non-discriminative key, so nothing is ever inserted twice.

use crate::config::HdkConfig;
use crate::key::{Key, MAX_KEY_SIZE};
use crate::window_keys::{KeyLists, KeyRuns, RunBuilder};
use hdk_corpus::DocId;
use hdk_p2p::{IdHashSet, PeerId};
use hdk_text::TermId;
use std::collections::HashSet;

/// A peer's local indexing state.
#[derive(Debug)]
pub struct LocalPeer {
    /// The peer's network identity.
    pub id: PeerId,
    /// Indexed documents, ascending by id (so local posting lists come out
    /// sorted).
    docs: Vec<(DocId, Vec<TermId>)>,
    /// Documents added but not yet indexed (current incremental session).
    pending: Vec<(DocId, Vec<TermId>)>,
    /// All known globally non-discriminative keys this peer contributed,
    /// by size (slot `s-1`). Cumulative across sessions.
    ///
    /// These four sets hold ids the engine assigned and are probed once
    /// per token of every round, so they hash with the cheap
    /// [`hdk_p2p::IdHasher`]. Only membership is ever asked of them.
    ndk_by_size: [IdHashSet<Key>; MAX_KEY_SIZE],
    /// Term view of the size-1 NDK set (hot path of candidate generation).
    ndk1_terms: IdHashSet<TermId>,
    /// Keys that became non-discriminative in the *current* session, by
    /// size — the novelty sets driving re-generation over old documents.
    newly_by_size: [IdHashSet<Key>; MAX_KEY_SIZE],
    /// Newly non-discriminative single terms (term view).
    newly1_terms: IdHashSet<TermId>,
}

impl LocalPeer {
    /// Creates the peer with its initial document fraction (any order;
    /// sorted internally). The documents count as *pending* until the first
    /// indexing session runs.
    pub fn new(id: PeerId, mut docs: Vec<(DocId, Vec<TermId>)>) -> Self {
        docs.sort_unstable_by_key(|(d, _)| *d);
        Self {
            id,
            docs: Vec::new(),
            pending: docs,
            ndk_by_size: Default::default(),
            ndk1_terms: IdHashSet::default(),
            newly_by_size: Default::default(),
            newly1_terms: IdHashSet::default(),
        }
    }

    /// Queues additional documents for the next indexing session.
    ///
    /// # Panics
    /// Panics if a document id is already indexed or already pending, or
    /// appears twice in `docs`.
    pub fn add_documents(&mut self, docs: Vec<(DocId, Vec<TermId>)>) {
        for (d, _) in &docs {
            assert!(!self.knows(*d), "document {d} already known to {}", self.id);
        }
        let mut ids: Vec<DocId> = docs.iter().map(|(d, _)| *d).collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("document {} added twice to {}", pair[0], self.id);
        }
        self.pending.extend(docs);
        self.pending.sort_unstable_by_key(|(d, _)| *d);
    }

    /// Whether `doc` is indexed or pending at this peer.
    pub(crate) fn knows(&self, doc: DocId) -> bool {
        self.docs.binary_search_by_key(&doc, |(x, _)| *x).is_ok()
            || self.pending.binary_search_by_key(&doc, |(x, _)| *x).is_ok()
    }

    /// Number of indexed + pending documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len() + self.pending.len()
    }

    /// Local sample size `l` (term occurrences, indexed + pending).
    pub fn sample_size(&self) -> u64 {
        self.docs
            .iter()
            .chain(&self.pending)
            .map(|(_, t)| t.len() as u64)
            .sum()
    }

    /// Computes the peer's key postings for `round` (1-based key size) of
    /// the current session, as the sorted runs its insert batch ships.
    ///
    /// * Round 1: every non-very-frequent term of the *pending* documents.
    /// * Round `s >= 2`: candidates from expanding size-(s-1) NDKs with
    ///   co-occurring NDK terms inside windows — over pending documents
    ///   with the full NDK knowledge, plus over already-indexed documents
    ///   restricted to combinations involving a newly-NDK key. The two
    ///   document sets are disjoint, so one sort of both passes' output is
    ///   their union.
    pub fn compute_runs(
        &self,
        round: usize,
        config: &HdkConfig,
        excluded: &HashSet<TermId>,
    ) -> KeyRuns {
        let mut runs = RunBuilder::default();
        let pending = self.pending.iter().map(|(d, t)| (*d, t.as_slice()));
        if round == 1 {
            runs.add_singles(pending, excluded);
            return runs.finish();
        }
        let ndk_prev = &self.ndk_by_size[round - 2];
        if ndk_prev.is_empty() {
            return KeyRuns::default();
        }
        // New documents: everything the current knowledge admits.
        runs.add_candidates(
            pending,
            config.window,
            round,
            &self.ndk1_terms,
            ndk_prev,
            config.exact_intrinsic,
            None,
        );
        // Old documents: only novel combinations (empty novelty sets make
        // this a no-op, e.g. in steady-state sessions).
        let newly_prev = &self.newly_by_size[round - 2];
        if !self.docs.is_empty() && (!newly_prev.is_empty() || !self.newly1_terms.is_empty()) {
            runs.add_candidates(
                self.docs.iter().map(|(d, t)| (*d, t.as_slice())),
                config.window,
                round,
                &self.ndk1_terms,
                ndk_prev,
                config.exact_intrinsic,
                Some((&self.newly1_terms, newly_prev)),
            );
        }
        runs.finish()
    }

    /// [`LocalPeer::compute_runs`], decoded into one posting list per key
    /// (inspection, tests, probes).
    pub fn compute_round(
        &self,
        round: usize,
        config: &HdkConfig,
        excluded: &HashSet<TermId>,
    ) -> KeyLists {
        self.compute_runs(round, config, excluded).into_lists()
    }

    /// Delivers the end-of-round notifications: the keys of size `round`
    /// this peer contributed that are globally non-discriminative (newly
    /// transitioned ones from the sweep plus already-NDK feedback from the
    /// peer's own inserts). Updates the cumulative and novelty sets.
    pub fn receive_notifications(&mut self, round: usize, keys: &[Key]) {
        debug_assert!(keys.iter().all(|k| k.size() == round));
        let slot = round - 1;
        if round == 1 {
            self.newly1_terms.clear();
        }
        self.newly_by_size[slot].clear();
        for &k in keys {
            if self.ndk_by_size[slot].insert(k) {
                self.newly_by_size[slot].insert(k);
                if round == 1 {
                    let t = k.terms().next().expect("size-1 key has a term");
                    self.ndk1_terms.insert(t);
                    self.newly1_terms.insert(t);
                }
            }
        }
    }

    /// Absorbs a departing (or crashed) peer's document custody: its
    /// indexed and pending documents — and the cumulative NDK knowledge
    /// future candidate generation over those documents depends on —
    /// merge into this peer's state. Document sets are disjoint by the
    /// engine's id-uniqueness invariant, and the merged NDK sets are
    /// exactly what one peer owning both document fractions would have
    /// accumulated, so the network keeps converging to the
    /// partition-independent global index.
    pub fn absorb(&mut self, other: LocalPeer) {
        self.docs.extend(other.docs);
        self.docs.sort_unstable_by_key(|(d, _)| *d);
        self.pending.extend(other.pending);
        self.pending.sort_unstable_by_key(|(d, _)| *d);
        for (mine, theirs) in self.ndk_by_size.iter_mut().zip(other.ndk_by_size) {
            mine.extend(theirs);
        }
        self.ndk1_terms.extend(other.ndk1_terms);
        for (mine, theirs) in self.newly_by_size.iter_mut().zip(other.newly_by_size) {
            mine.extend(theirs);
        }
        self.newly1_terms.extend(other.newly1_terms);
    }

    /// Ends the indexing session: pending documents become indexed and the
    /// novelty sets reset.
    pub fn finish_session(&mut self) {
        self.docs.append(&mut self.pending);
        self.docs.sort_unstable_by_key(|(d, _)| *d);
        for s in &mut self.newly_by_size {
            s.clear();
        }
        self.newly1_terms.clear();
    }

    /// The peer's current NDK single-term set (for inspection/tests).
    pub fn ndk_singles(&self) -> &IdHashSet<TermId> {
        &self.ndk1_terms
    }

    /// All known NDK keys of a given size (for inspection/tests).
    pub fn ndk_keys(&self, size: usize) -> &IdHashSet<Key> {
        &self.ndk_by_size[size - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn peer(docs: Vec<(u32, Vec<u32>)>) -> LocalPeer {
        LocalPeer::new(
            PeerId(0),
            docs.into_iter()
                .map(|(d, toks)| (DocId(d), toks.into_iter().map(TermId).collect()))
                .collect(),
        )
    }

    #[test]
    fn round1_emits_all_terms() {
        let p = peer(vec![(0, vec![1, 2]), (1, vec![2, 3])]);
        let batch = p.compute_round(1, &HdkConfig::default(), &HashSet::new());
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[&Key::single(t(2))].len(), 2);
    }

    #[test]
    fn round2_without_notifications_is_empty() {
        let p = peer(vec![(0, vec![1, 2])]);
        let batch = p.compute_round(2, &HdkConfig::default(), &HashSet::new());
        assert!(batch.is_empty());
    }

    #[test]
    fn round2_expands_notified_ndks() {
        let mut p = peer(vec![(0, vec![1, 2, 3]), (1, vec![1, 2])]);
        p.receive_notifications(1, &[Key::single(t(1)), Key::single(t(2))]);
        let batch = p.compute_round(2, &HdkConfig::default(), &HashSet::new());
        // Only the NDK pair {1,2}; 3 is discriminative.
        assert_eq!(batch.len(), 1);
        let pair = Key::from_terms(&[t(1), t(2)]).unwrap();
        assert_eq!(batch[&pair].len(), 2);
    }

    #[test]
    fn round3_uses_cumulative_knowledge() {
        let mut p = peer(vec![(0, vec![1, 2, 3])]);
        p.receive_notifications(
            1,
            &[Key::single(t(1)), Key::single(t(2)), Key::single(t(3))],
        );
        let pair = Key::from_terms(&[t(1), t(2)]).unwrap();
        p.receive_notifications(2, &[pair]);
        assert_eq!(p.ndk_singles().len(), 3);
        assert_eq!(p.ndk_keys(2).len(), 1);
        let batch = p.compute_round(3, &HdkConfig::default(), &HashSet::new());
        assert_eq!(batch.len(), 1);
        assert!(batch.contains_key(&Key::from_terms(&[t(1), t(2), t(3)]).unwrap()));
    }

    #[test]
    fn docs_sorted_so_postings_sorted() {
        let p = peer(vec![(9, vec![5]), (2, vec![5]), (4, vec![5])]);
        let batch = p.compute_round(1, &HdkConfig::default(), &HashSet::new());
        let docs: Vec<u32> = batch[&Key::single(t(5))].docs().map(|d| d.0).collect();
        assert_eq!(docs, [2, 4, 9]);
    }

    #[test]
    fn sample_size_counts_tokens() {
        let p = peer(vec![(0, vec![1, 2, 3]), (1, vec![1])]);
        assert_eq!(p.sample_size(), 4);
        assert_eq!(p.num_docs(), 2);
    }

    #[test]
    fn incremental_session_only_indexes_new_docs_at_round1() {
        let mut p = peer(vec![(0, vec![1, 2])]);
        p.receive_notifications(1, &[Key::single(t(1))]);
        p.finish_session();
        p.add_documents(vec![(DocId(1), vec![t(1), t(3)])]);
        let batch = p.compute_round(1, &HdkConfig::default(), &HashSet::new());
        // Only the new document's terms are (re)inserted.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[&Key::single(t(1))].len(), 1);
        assert_eq!(batch[&Key::single(t(1))].docs().next().unwrap(), DocId(1));
    }

    #[test]
    fn incremental_round2_covers_old_docs_for_new_ndks() {
        // Old doc has terms 1,2; only 1 was NDK in session one, so pair
        // {1,2} was never generated. When 2 becomes NDK in session two, the
        // old document must produce the pair.
        let mut p = peer(vec![(0, vec![1, 2])]);
        p.receive_notifications(1, &[Key::single(t(1))]);
        p.finish_session();
        p.add_documents(vec![(DocId(1), vec![t(2), t(9)])]);
        p.receive_notifications(1, &[Key::single(t(1)), Key::single(t(2))]);
        let batch = p.compute_round(2, &HdkConfig::default(), &HashSet::new());
        let pair = Key::from_terms(&[t(1), t(2)]).unwrap();
        assert!(batch.contains_key(&pair), "old doc pair missing");
        let docs: Vec<u32> = batch[&pair].docs().map(|d| d.0).collect();
        assert_eq!(docs, [0]);
    }

    #[test]
    fn incremental_round2_does_not_reinsert_old_combinations() {
        // Both 1 and 2 were already NDK in session one, so pair {1,2} was
        // generated for doc 0 then. Session two must not re-generate it
        // for doc 0 — only for the new doc 1.
        let mut p = peer(vec![(0, vec![1, 2])]);
        p.receive_notifications(1, &[Key::single(t(1)), Key::single(t(2))]);
        p.finish_session();
        p.add_documents(vec![(DocId(1), vec![t(1), t(2)])]);
        p.receive_notifications(1, &[Key::single(t(1)), Key::single(t(2))]);
        let batch = p.compute_round(2, &HdkConfig::default(), &HashSet::new());
        let pair = Key::from_terms(&[t(1), t(2)]).unwrap();
        let docs: Vec<u32> = batch[&pair].docs().map(|d| d.0).collect();
        assert_eq!(docs, [1], "old doc must not be re-inserted");
    }

    #[test]
    #[should_panic(expected = "already known")]
    fn duplicate_document_rejected() {
        let mut p = peer(vec![(0, vec![1])]);
        p.finish_session();
        p.add_documents(vec![(DocId(0), vec![t(2)])]);
    }
}
