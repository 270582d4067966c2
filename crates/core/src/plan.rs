//! Query planning: the pure, deterministic half of the retrieval pipeline.
//!
//! The paper treats a query "as a document collection consisting of a
//! unique document" and walks, "in the lattice of query term combinations,
//! the term sets corresponding to global HDKs or NDKs" (Section 3.2). A
//! [`QueryPlan`] captures that walk as data: the canonical term set
//! (sorted, duplicates collapsed), the level count (`smax`), and the
//! level-by-level candidate enumeration rule. It performs no lookups and
//! touches no network state — given the same query and the same per-level
//! feedback it always enumerates the same candidate keys in the same
//! order, which is what lets the executor resolve a whole level in
//! parallel while staying bit-deterministic.
//!
//! The pruning rules of the lattice walk are encoded in
//! [`NodeOutcome`]: a probed key is *terminal* — its supersets are never
//! enumerated — unless it resolved non-discriminative:
//!
//! * a **discriminative** subset prunes all its supersets (their answer
//!   sets are contained in the subset's list — redundancy, Definition 5);
//! * an **absent** subset (never co-occurring within any window, or
//!   outside the key vocabulary) prunes its supersets too (proximity
//!   filtering is monotone);
//! * only **non-discriminative** subsets are expanded, exactly like the
//!   indexing-side candidate generation — so every key that *could* be in
//!   the index is probed and nothing else.
//!
//! Worst case (every subset present and non-discriminative) the plan
//! enumerates `nk = Σ_s C(|q|, s)` probes for `s ≤ smax` — the bound of
//! Section 4.2, exposed as [`max_lookups`]; in practice pruning keeps the
//! fan-out far lower.

use crate::key::Key;
use hdk_text::TermId;

/// How one plan node resolved, as observed by the executor. Determines
/// whether the node is expanded at the next level or terminates its branch
/// of the lattice (the early-termination marker of the plan IR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// The key is not in the global index: nothing to fetch, and (by
    /// monotonicity of proximity filtering) no superset can be indexed
    /// either. Terminal.
    Absent,
    /// The key is indexed and highly discriminative: its posting list is
    /// complete, so every superset's answer set is contained in it
    /// (redundancy, Definition 5). Terminal.
    Hdk,
    /// The key is indexed but non-discriminative (truncated list): its
    /// supersets may carry better evidence. Expanded at the next level.
    Ndk,
}

impl NodeOutcome {
    /// True when the node's branch of the lattice ends here (an HDK hit or
    /// an absent key makes every deeper subset redundant).
    pub fn is_terminal(self) -> bool {
        !matches!(self, NodeOutcome::Ndk)
    }
}

/// A deterministic enumeration of the candidate keys a query probes,
/// level by level (level = key size).
///
/// The plan is *pure*: building it costs no lookups, and
/// [`QueryPlan::expand`] is a function of the previous level's feedback
/// only. The executor owns the runtime side — resolving each level's
/// candidates against the DHT (in parallel) and feeding the observed
/// [`NodeOutcome`]s back into the next expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Canonical query term set: sorted ascending, duplicates collapsed.
    terms: Vec<TermId>,
    /// Deepest lattice level to enumerate (`smax` of the model).
    smax: usize,
}

impl QueryPlan {
    /// Plans `query` against a lattice bounded by `smax`. Duplicate terms
    /// collapse and the term order is canonicalized, so equivalent queries
    /// produce identical plans.
    pub fn new(query: &[TermId], smax: usize) -> Self {
        let mut terms: Vec<TermId> = query.to_vec();
        terms.sort_unstable();
        terms.dedup();
        Self { terms, smax }
    }

    /// The canonical (sorted, distinct) query terms.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Number of distinct query terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The deepest level the plan enumerates.
    pub fn max_level(&self) -> usize {
        self.smax.min(self.terms.len())
    }

    /// Level-1 candidates: one single-term key per distinct query term, in
    /// ascending term order (which *is* ascending [`Key`] order for
    /// singles — the canonical probe order the executor accounts in).
    pub fn level_one(&self) -> Vec<Key> {
        self.terms.iter().map(|&t| Key::single(t)).collect()
    }

    /// Candidates for the next level, given the previous level's live
    /// `frontier` (keys that resolved [`NodeOutcome::Ndk`]) and the query
    /// terms whose singles resolved non-discriminative (`ndk_terms`).
    ///
    /// Mirrors the indexing-side generation exactly: a size-`s` NDK is
    /// extended by every non-discriminative single not already a member.
    /// Candidates are deduplicated (the same key is reachable from several
    /// sub-keys) and returned in ascending key order — the canonical probe
    /// and accounting order.
    pub fn expand(&self, frontier: &[Key], ndk_terms: &[TermId]) -> Vec<Key> {
        let mut candidates: Vec<Key> = frontier
            .iter()
            .flat_map(|key| ndk_terms.iter().filter_map(|&t| key.extend(t)))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// The worst-case number of key lookups this plan can issue
    /// (Section 4.2): `2^|q| - 1` when `|q| <= smax`, otherwise
    /// `Σ_{s=1..smax} C(|q|, s)`. Saturates at `u64::MAX` for degenerate
    /// `|q|` instead of overflowing.
    pub fn max_lookups(&self) -> u64 {
        max_lookups(self.terms.len(), self.smax)
    }
}

/// The worst-case lattice fan-out for a query of `q_len` distinct terms
/// under size bound `smax` (Section 4.2). Saturating: for `q_len` large
/// enough to overflow the binomial sum the bound clamps to `u64::MAX`
/// rather than panicking in debug builds.
pub fn max_lookups(q_len: usize, smax: usize) -> u64 {
    let smax = smax.min(q_len);
    (1..=smax).fold(0u64, |acc, s| acc.saturating_add(binomial(q_len, s)))
}

/// Binomial coefficient, saturating at `u64::MAX` on overflow (web queries
/// keep `|q| <= 8`, but the bound must stay total for any input).
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // Multiply-then-divide keeps every step exact (acc * (n - i) is
    // divisible by i + 1 after the previous divisions); the accumulator is
    // u128 so the intermediate product cannot overflow while acc still
    // fits u64. C(n, i) grows monotonically for i <= n/2 (and k is
    // reflected below n/2), so once a prefix exceeds u64 the result does
    // too and the bound saturates.
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i as u128 + 1);
        if acc > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn plan_canonicalizes_terms() {
        let a = QueryPlan::new(&[t(5), t(1), t(5), t(3)], 3);
        let b = QueryPlan::new(&[t(3), t(1), t(5)], 3);
        assert_eq!(a, b);
        assert_eq!(a.terms(), &[t(1), t(3), t(5)]);
        assert_eq!(a.num_terms(), 3);
    }

    #[test]
    fn level_one_is_sorted_singles() {
        let plan = QueryPlan::new(&[t(9), t(2), t(4)], 3);
        let singles = plan.level_one();
        assert_eq!(
            singles,
            vec![Key::single(t(2)), Key::single(t(4)), Key::single(t(9))]
        );
        let mut sorted = singles.clone();
        sorted.sort_unstable();
        assert_eq!(singles, sorted, "term order must equal key order");
    }

    #[test]
    fn expand_dedups_and_sorts() {
        let plan = QueryPlan::new(&[t(1), t(2), t(3)], 3);
        let frontier = vec![Key::single(t(1)), Key::single(t(2)), Key::single(t(3))];
        let ndk_terms = vec![t(1), t(2), t(3)];
        let next = plan.expand(&frontier, &ndk_terms);
        // {1,2} is reachable from both {1} and {2} but appears once.
        let expected = vec![
            Key::from_terms(&[t(1), t(2)]).unwrap(),
            Key::from_terms(&[t(1), t(3)]).unwrap(),
            Key::from_terms(&[t(2), t(3)]).unwrap(),
        ];
        assert_eq!(next, expected);
    }

    #[test]
    fn expand_only_extends_by_ndk_terms() {
        let plan = QueryPlan::new(&[t(1), t(2), t(3)], 3);
        let frontier = vec![Key::single(t(1))];
        let next = plan.expand(&frontier, &[t(1), t(3)]);
        assert_eq!(next, vec![Key::from_terms(&[t(1), t(3)]).unwrap()]);
    }

    #[test]
    fn terminal_outcomes() {
        assert!(NodeOutcome::Absent.is_terminal());
        assert!(NodeOutcome::Hdk.is_terminal());
        assert!(!NodeOutcome::Ndk.is_terminal());
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(8, 3), 56);
        assert_eq!(binomial(8, 1), 8);
        assert_eq!(binomial(3, 3), 1);
        assert_eq!(binomial(2, 3), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
    }

    #[test]
    fn binomial_saturates_instead_of_overflowing() {
        // C(68, 34) > u64::MAX: the exact chain overflows, so it clamps.
        assert_eq!(binomial(68, 34), u64::MAX);
        assert_eq!(binomial(usize::MAX, 4), u64::MAX);
    }

    #[test]
    fn max_lookups_matches_paper_formulas() {
        // smax = 3: |q| = 2 -> 2^2 - 1 = 3; |q| = 3 -> 2^3 - 1 = 7;
        // |q| = 8 -> C(8,1)+C(8,2)+C(8,3) = 8+28+56 = 92.
        assert_eq!(max_lookups(2, 3), 3);
        assert_eq!(max_lookups(3, 3), 7);
        assert_eq!(max_lookups(8, 3), 92);
        assert_eq!(QueryPlan::new(&[t(1), t(2), t(3)], 3).max_lookups(), 7);
    }

    #[test]
    fn max_lookups_saturates_for_degenerate_queries() {
        // Regression: these used to overflow the u64 binomial in debug
        // builds; the bound must saturate, not panic.
        assert_eq!(max_lookups(usize::MAX, 4), u64::MAX);
        assert_eq!(max_lookups(1 << 40, 3), u64::MAX);
        // Still exact when the sum fits.
        assert_eq!(max_lookups(100, 2), 100 + 4950);
    }
}
