//! Local key-candidate generation from document windows.
//!
//! Implements the per-peer, per-iteration candidate computation of
//! Section 3.1: size-1 keys are all (non-very-frequent) terms; size-`s`
//! candidates are built by extending a locally present, globally
//! non-discriminative key of size `s-1` with a non-discriminative term
//! co-occurring in the same window of size `w` (proximity filtering).
//!
//! The generation scans each document once, visiting every *context event*
//! — a new right-most token plus the up-to-`w-1` tokens preceding it — the
//! same incremental counting used in the paper's proof of Theorem 3, so no
//! co-occurrence is counted twice.
//!
//! There is one generator, [`RunBuilder`], and it works on flat sorted runs
//! rather than maps: what a document emits is sorted and run-length counted
//! into `(key, posting)` pairs, a peer's pairs are sorted once, and the
//! result is a [`KeyRuns`] already in the order the peer's insert batch
//! ships it. Set membership is probed once per token (into per-document flag
//! bytes the events then read), sub-keys live on the stack, and nothing is
//! allocated per event, per probed subset or per key. [`KeyLists`] — one
//! decoded `PostingList` per key — is the view of the same runs that tests,
//! studies and probes read through [`single_term_postings`] and
//! [`candidate_postings`].

use crate::key::{Key, MAX_KEY_SIZE};
use hdk_corpus::DocId;
use hdk_ir::{Posting, PostingList};
use hdk_p2p::IdHashSet;
use hdk_text::TermId;
use std::collections::HashSet;
use std::hash::BuildHasher;

/// A peer's key postings of one round: keys strictly ascending, each with
/// the end offset of its run in `postings`, every run ascending by document
/// — one allocation per column whatever the number of keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRuns {
    keys: Vec<(Key, u32)>,
    postings: Vec<Posting>,
}

impl KeyRuns {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the round emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, ascending, each with its (non-empty, doc-ascending) run.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[Posting])> + '_ {
        let mut start = 0;
        self.keys.iter().map(move |&(key, end)| {
            let run = &self.postings[start..end as usize];
            start = end as usize;
            (key, run)
        })
    }

    /// Decodes every run into its own posting list.
    pub fn into_lists(self) -> KeyLists {
        KeyLists(
            self.iter()
                .map(|(key, run)| (key, PostingList::from_sorted(run.to_vec())))
                .collect(),
        )
    }
}

/// The decoded view of a [`KeyRuns`]: `(key, posting list)` ascending by
/// key, read like a map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyLists(Vec<(Key, PostingList)>);

impl KeyLists {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there is no key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The posting list of `key`.
    pub fn get(&self, key: &Key) -> Option<&PostingList> {
        let at = self.0.binary_search_by_key(key, |(k, _)| *k).ok()?;
        Some(&self.0[at].1)
    }

    /// Is `key` present?
    pub fn contains_key(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// The posting lists, in key order.
    pub fn values(&self) -> impl Iterator<Item = &PostingList> + '_ {
        self.0.iter().map(|(_, list)| list)
    }
}

impl std::ops::Index<&Key> for KeyLists {
    type Output = PostingList;

    fn index(&self, key: &Key) -> &PostingList {
        self.get(key).expect("key is present")
    }
}

impl IntoIterator for KeyLists {
    type Item = (Key, PostingList);
    type IntoIter = std::vec::IntoIter<(Key, PostingList)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// What became non-discriminative since a peer's last session: the single
/// terms, and the keys of the size being expanded.
pub type Novelty<'a, S1, S2> = (&'a HashSet<TermId, S1>, &'a HashSet<Key, S2>);

/// The token is a globally non-discriminative term (`ndk1`).
const NDK: u8 = 1;
/// The token's term became non-discriminative in this session.
const NEW: u8 = 2;
/// The token's term occurs in a key that became non-discriminative in this
/// session (for `s = 2`: *is* such a key).
const NOVEL: u8 = 4;
/// `s = 2` only: the token's single-term key is in `ndk_prev`.
const PREV: u8 = 8;

/// The sorted-run generator: collects `(key, posting)` pairs from any
/// number of passes over documents, then sorts them once into [`KeyRuns`].
///
/// Feeding the same document to two passes adds its frequencies up, as
/// [`PostingList::from_unsorted`] would.
#[derive(Debug, Default)]
pub struct RunBuilder {
    /// One pair per (key, document), in generation order.
    pairs: Vec<(Key, Posting)>,
    // Per-document scratch, reused from document to document.
    /// The document's terms, sorted (size-1 pass).
    terms: Vec<u32>,
    /// One flag byte per token.
    flags: Vec<u8>,
    /// `novel_before[i]`: tokens before position `i` flagged [`NOVEL`].
    novel_before: Vec<u32>,
    /// The distinct admissible terms of one event's prefix, ascending.
    prefix: Vec<u32>,
    /// Every candidate occurrence of the document.
    emitted: Vec<Key>,
}

impl RunBuilder {
    /// Adds the size-1 keys of `docs`: one per distinct non-excluded term,
    /// postings `(doc, tf, doc_len)`.
    ///
    /// `excluded` is the very-frequent-term set (`f_D(t) > Ff`), which never
    /// enters the key vocabulary (Section 4.1).
    pub fn add_singles<'a, I>(&mut self, docs: I, excluded: &HashSet<TermId>)
    where
        I: IntoIterator<Item = (DocId, &'a [TermId])>,
    {
        for (doc, tokens) in docs {
            let doc_len = tokens.len() as u32;
            self.terms.clear();
            self.terms.extend(tokens.iter().map(|t| t.0));
            self.terms.sort_unstable();
            for run in self.terms.chunk_by(|a, b| a == b) {
                let term = TermId(run[0]);
                if !excluded.contains(&term) {
                    let tf = run.len() as u32;
                    self.pairs
                        .push((Key::single(term), Posting { doc, tf, doc_len }));
                }
            }
        }
    }

    /// Adds the size-`s` candidates (`s >= 2`) of `docs`.
    ///
    /// For every context event `(prefix, t)` with `t` a globally
    /// non-discriminative term (`ndk1`), every `(s-1)`-subset `S` of the
    /// distinct non-discriminative terms in `prefix` such that `Key(S)` is a
    /// known NDK of size `s-1` (`ndk_prev`) yields the candidate `S ∪ {t}`.
    ///
    /// When `exact_intrinsic` is set, Definition 5 is enforced verbatim:
    /// every other immediate sub-key (the ones containing `t`) must also be
    /// in `ndk_prev`. The default (paper variant) only requires the
    /// generating sub-key to be non-discriminative.
    ///
    /// Key `tf` in a document counts context events, the positional-index
    /// counting of Theorem 3.
    ///
    /// `novelty` restricts generation to *novel* combinations. Incremental
    /// indexing (documents added after an initial build) must not re-insert
    /// postings the peer already published, so for previously indexed
    /// documents only combinations that were impossible before are
    /// generated: the new term or the generating sub-key must come from
    /// `novelty` (the terms / keys of size `s-1` that became
    /// non-discriminative since the last run). `None` generates everything
    /// (new documents).
    ///
    /// An event of an old document whose term is old can only emit from a
    /// sub-key made of terms that occur in novel keys; a running count of
    /// such positions skips the event outright when its window holds none,
    /// and otherwise only those terms are combined. Both drop nothing but
    /// combinations the membership tests reject one by one.
    #[allow(clippy::too_many_arguments)]
    pub fn add_candidates<'a, I, S1, S2>(
        &mut self,
        docs: I,
        window: usize,
        s: usize,
        ndk1: &HashSet<TermId, S1>,
        ndk_prev: &HashSet<Key, S2>,
        exact_intrinsic: bool,
        novelty: Option<Novelty<'_, S1, S2>>,
    ) where
        I: IntoIterator<Item = (DocId, &'a [TermId])>,
        S1: BuildHasher,
        S2: BuildHasher,
    {
        assert!(s >= 2, "candidate generation starts at size 2");
        assert!(window >= 2, "window size must be >= 2, got {window}");
        if s > MAX_KEY_SIZE {
            return;
        }
        // Above size 2 a sub-key is novel as a whole; its terms are what a
        // single token can be tested for.
        let novel_terms: Option<IdHashSet<TermId>> = novelty
            .filter(|_| s > 2)
            .map(|(_, new_prev)| new_prev.iter().flat_map(Key::terms).collect());
        let flags_of = |t: TermId| {
            // Only non-discriminative terms take part, as an event's term
            // or in its prefix.
            if !ndk1.contains(&t) {
                return 0;
            }
            let mut flags = NDK;
            if let Some((new1, new_prev)) = novelty {
                if new1.contains(&t) {
                    flags |= NEW;
                }
                if match &novel_terms {
                    Some(terms) => terms.contains(&t),
                    None => new_prev.contains(&Key::single(t)),
                } {
                    flags |= NOVEL;
                }
            }
            if s == 2 && ndk_prev.contains(&Key::single(t)) {
                flags |= PREV;
            }
            flags
        };
        for (doc, tokens) in docs {
            self.flags.clear();
            self.flags.extend(tokens.iter().map(|&t| flags_of(t)));
            if novelty.is_some() {
                if self.flags.iter().all(|f| f & (NEW | NOVEL) == 0) {
                    continue;
                }
                self.novel_before.clear();
                self.novel_before.push(0);
                let mut count = 0;
                for &f in &self.flags {
                    count += u32::from(f & NOVEL != 0);
                    self.novel_before.push(count);
                }
            }
            for (i, &t) in tokens.iter().enumerate() {
                if self.flags[i] & NDK == 0 {
                    continue;
                }
                let lo = i.saturating_sub(window - 1);
                let old_term = novelty.is_some() && self.flags[i] & NEW == 0;
                if old_term && self.novel_before[i] == self.novel_before[lo] {
                    continue;
                }
                // What a prefix token needs to enter a sub-key. At size 2
                // the token *is* the sub-key, so the flags decide for it.
                let mut need = NDK;
                if old_term {
                    need |= NOVEL;
                }
                if s == 2 {
                    need |= PREV;
                }
                self.prefix.clear();
                for (&p, &flags) in tokens[lo..i].iter().zip(&self.flags[lo..i]) {
                    if flags & need != need || p == t {
                        continue;
                    }
                    let at = self.prefix.partition_point(|&x| x < p.0);
                    if self.prefix.get(at) != Some(&p.0) {
                        self.prefix.insert(at, p.0);
                    }
                }
                let emitted = &mut self.emitted;
                for_each_combination(&self.prefix, s - 1, |subset| {
                    let sub_key = Key::from_ascending(subset);
                    if s > 2 {
                        if let (true, Some((_, new_prev))) = (old_term, novelty) {
                            if !new_prev.contains(&sub_key) {
                                return;
                            }
                        }
                        if !ndk_prev.contains(&sub_key) {
                            return;
                        }
                    }
                    let Some(candidate) = sub_key.extend(t) else {
                        return;
                    };
                    if exact_intrinsic
                        && !candidate
                            .immediate_sub_keys()
                            .all(|sub| ndk_prev.contains(&sub))
                    {
                        return;
                    }
                    emitted.push(candidate);
                });
            }
            let doc_len = tokens.len() as u32;
            self.emitted.sort_unstable();
            for run in self.emitted.chunk_by(|a, b| a == b) {
                let tf = run.len() as u32;
                self.pairs.push((run[0], Posting { doc, tf, doc_len }));
            }
            self.emitted.clear();
        }
    }

    /// Sorts everything added by `(key, doc)` and lays it out as runs.
    pub fn finish(mut self) -> KeyRuns {
        assert!(
            u32::try_from(self.pairs.len()).is_ok(),
            "a round's postings are counted in a u32"
        );
        self.pairs
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.doc.cmp(&b.1.doc)));
        let mut keys: Vec<(Key, u32)> = Vec::new();
        let mut postings: Vec<Posting> = Vec::with_capacity(self.pairs.len());
        for (key, posting) in self.pairs {
            match (keys.last_mut(), postings.last_mut()) {
                (Some((last, _)), Some(prev)) if *last == key && prev.doc == posting.doc => {
                    prev.tf = prev.tf.saturating_add(posting.tf);
                }
                (Some((last, end)), _) if *last == key => {
                    postings.push(posting);
                    *end += 1;
                }
                _ => {
                    postings.push(posting);
                    keys.push((key, postings.len() as u32));
                }
            }
        }
        KeyRuns { keys, postings }
    }
}

/// Computes the local size-1 key postings of a peer, decoded (see
/// [`RunBuilder::add_singles`]).
pub fn single_term_postings<'a, I>(docs: I, excluded: &HashSet<TermId>) -> KeyLists
where
    I: IntoIterator<Item = (DocId, &'a [TermId])>,
{
    let mut runs = RunBuilder::default();
    runs.add_singles(docs, excluded);
    runs.finish().into_lists()
}

/// Computes local size-`s` candidates (`s >= 2`) over new documents,
/// decoded (see [`RunBuilder::add_candidates`]).
pub fn candidate_postings<'a, I, S1, S2>(
    docs: I,
    window: usize,
    s: usize,
    ndk1: &HashSet<TermId, S1>,
    ndk_prev: &HashSet<Key, S2>,
    exact_intrinsic: bool,
) -> KeyLists
where
    I: IntoIterator<Item = (DocId, &'a [TermId])>,
    S1: BuildHasher,
    S2: BuildHasher,
{
    let mut runs = RunBuilder::default();
    runs.add_candidates(docs, window, s, ndk1, ndk_prev, exact_intrinsic, None);
    runs.finish().into_lists()
}

/// Visits every `k`-subset of `items` (ascending and distinct, so every
/// subset arrives ascending). `k` is below [`MAX_KEY_SIZE`]: a sub-key
/// leaves room for the term that extends it.
fn for_each_combination<F: FnMut(&[u32])>(items: &[u32], k: usize, mut f: F) {
    const _: () = assert!(MAX_KEY_SIZE == 4, "one loop nest per sub-key size");
    let n = items.len();
    match k {
        1 => {
            for &a in items {
                f(&[a]);
            }
        }
        2 => {
            for i in 0..n {
                for j in i + 1..n {
                    f(&[items[i], items[j]]);
                }
            }
        }
        3 => {
            for i in 0..n {
                for j in i + 1..n {
                    for l in j + 1..n {
                        f(&[items[i], items[j], items[l]]);
                    }
                }
            }
        }
        _ => unreachable!("sub-keys have 1..{MAX_KEY_SIZE} terms, got {k}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn doc(id: u32, tokens: &[u32]) -> (DocId, Vec<TermId>) {
        (DocId(id), tokens.iter().map(|&x| TermId(x)).collect())
    }

    fn run_singles(docs: &[(DocId, Vec<TermId>)], excluded: &[u32]) -> KeyLists {
        let ex: HashSet<TermId> = excluded.iter().map(|&x| TermId(x)).collect();
        single_term_postings(docs.iter().map(|(d, v)| (*d, v.as_slice())), &ex)
    }

    #[test]
    fn singles_count_tf_and_len() {
        let docs = vec![doc(0, &[1, 2, 1]), doc(1, &[2])];
        let map = run_singles(&docs, &[]);
        let k1 = &map[&Key::single(t(1))];
        assert_eq!(k1.len(), 1);
        assert_eq!(k1.postings()[0].tf, 2);
        assert_eq!(k1.postings()[0].doc_len, 3);
        let k2 = &map[&Key::single(t(2))];
        assert_eq!(k2.len(), 2);
    }

    #[test]
    fn singles_respect_exclusion() {
        let docs = vec![doc(0, &[1, 2])];
        let map = run_singles(&docs, &[2]);
        assert!(map.contains_key(&Key::single(t(1))));
        assert!(!map.contains_key(&Key::single(t(2))));
    }

    fn run_pairs(docs: &[(DocId, Vec<TermId>)], w: usize, ndk: &[u32]) -> KeyLists {
        let ndk1: HashSet<TermId> = ndk.iter().map(|&x| TermId(x)).collect();
        let ndk_prev: HashSet<Key> = ndk1.iter().map(|&x| Key::single(x)).collect();
        candidate_postings(
            docs.iter().map(|(d, v)| (*d, v.as_slice())),
            w,
            2,
            &ndk1,
            &ndk_prev,
            false,
        )
    }

    #[test]
    fn pairs_need_window_cooccurrence() {
        // 1 and 2 are 4 positions apart: in window 5 yes, window 3 no.
        let docs = vec![doc(0, &[1, 9, 9, 9, 2])];
        let wide = run_pairs(&docs, 5, &[1, 2]);
        assert!(wide.contains_key(&Key::from_terms(&[t(1), t(2)]).unwrap()));
        let narrow = run_pairs(&docs, 3, &[1, 2]);
        assert!(narrow.is_empty());
    }

    #[test]
    fn pairs_only_from_ndk_terms() {
        let docs = vec![doc(0, &[1, 2, 3])];
        let map = run_pairs(&docs, 10, &[1, 2]);
        // Pair {1,2} allowed; pairs with 3 are not (3 is discriminative).
        assert_eq!(map.len(), 1);
        assert!(map.contains_key(&Key::from_terms(&[t(1), t(2)]).unwrap()));
    }

    #[test]
    fn pair_tf_counts_context_events() {
        // "1 2 1 2": events: (1,2)@pos1, (2,1)@pos2 -> {1,2} again,
        // (1,2)@pos3 and (?)... prefix windows: pos1 prefix [1] -> {1,2};
        // pos2 prefix [1,2] -> {2,1}={1,2}; pos3 prefix [2,1]... t=2,
        // prefix distinct NDK excl t = [1] -> {1,2}. Total tf = 3... but
        // pos2: t=1, prefix [1,2] minus t -> [2] -> {1,2}. So 3 events.
        let docs = vec![doc(0, &[1, 2, 1, 2])];
        let map = run_pairs(&docs, 4, &[1, 2]);
        let pl = &map[&Key::from_terms(&[t(1), t(2)]).unwrap()];
        assert_eq!(pl.postings()[0].tf, 3);
    }

    #[test]
    fn triples_extend_ndk_pairs_only() {
        let docs = [doc(0, &[1, 2, 3]), doc(1, &[1, 2, 3])];
        let ndk1: HashSet<TermId> = [t(1), t(2), t(3)].into_iter().collect();
        // Only {1,2} is a known NDK pair; {1,3}/{2,3} are (say) HDKs.
        let ndk_prev: HashSet<Key> = [Key::from_terms(&[t(1), t(2)]).unwrap()]
            .into_iter()
            .collect();
        let map = candidate_postings(
            docs.iter().map(|(d, v)| (*d, v.as_slice())),
            10,
            3,
            &ndk1,
            &ndk_prev,
            false,
        );
        // Candidate {1,2,3} generated from NDK pair {1,2} + new term 3.
        assert_eq!(map.len(), 1);
        let key = Key::from_terms(&[t(1), t(2), t(3)]).unwrap();
        assert_eq!(map[&key].len(), 2);
    }

    #[test]
    fn exact_intrinsic_requires_all_subkeys_ndk() {
        let docs = [doc(0, &[1, 2, 3])];
        let ndk1: HashSet<TermId> = [t(1), t(2), t(3)].into_iter().collect();
        let only_12: HashSet<Key> = [Key::from_terms(&[t(1), t(2)]).unwrap()]
            .into_iter()
            .collect();
        // Practical variant generates {1,2,3}; exact mode must refuse it
        // because {1,3} and {2,3} are not NDKs.
        let strict = candidate_postings(
            docs.iter().map(|(d, v)| (*d, v.as_slice())),
            10,
            3,
            &ndk1,
            &only_12,
            true,
        );
        assert!(strict.is_empty());
        // With all three pairs NDK, exact mode accepts.
        let all_pairs: HashSet<Key> = [
            Key::from_terms(&[t(1), t(2)]).unwrap(),
            Key::from_terms(&[t(1), t(3)]).unwrap(),
            Key::from_terms(&[t(2), t(3)]).unwrap(),
        ]
        .into_iter()
        .collect();
        let ok = candidate_postings(
            docs.iter().map(|(d, v)| (*d, v.as_slice())),
            10,
            3,
            &ndk1,
            &all_pairs,
            true,
        );
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn combinations_enumerate_exactly() {
        let items: Vec<u32> = (0..5).collect();
        for (k, expected) in [(1, 5), (2, 10), (3, 10)] {
            let mut count = 0;
            for_each_combination(&items, k, |s| {
                assert_eq!(s.len(), k);
                assert!(s.windows(2).all(|w| w[0] < w[1]));
                count += 1;
            });
            assert_eq!(count, expected, "{k}-subsets of 5");
        }
        let mut count = 0;
        for_each_combination(&items[..2], 3, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn duplicate_prefix_terms_counted_once_per_event() {
        // Prefix [1,1] for new token 2: subset {1} considered once.
        let docs = vec![doc(0, &[1, 1, 2])];
        let map = run_pairs(&docs, 5, &[1, 2]);
        let pl = &map[&Key::from_terms(&[t(1), t(2)]).unwrap()];
        // Event at pos2 only (pos1: t=1 prefix [1] -> p==t skipped).
        assert_eq!(pl.postings()[0].tf, 1);
    }
}
