//! Indexing keys: canonical term sets of bounded size.
//!
//! Definition 1 of the paper: "A key `k` is defined as any set of terms
//! `{t1, ..., ts}`". Keys are stored inline (no heap) as a sorted,
//! duplicate-free array of up to [`MAX_KEY_SIZE`] term ids, so equality,
//! hashing and subset tests are branch-cheap — keys are *the* hot data type
//! of the whole engine.

use hdk_p2p::{hash_u64s, KeyHash};
use hdk_text::TermId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Hard upper bound on key size. The paper uses `smax = 3`; 4 leaves room
/// for the `smax`-sensitivity ablation while keeping `Key` at 20 bytes.
pub const MAX_KEY_SIZE: usize = 4;

/// A canonical term set: sorted ascending, no duplicates, `1..=MAX_KEY_SIZE`
/// terms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    terms: [u32; MAX_KEY_SIZE],
    len: u8,
}

/// Two words cover the four term slots; unused slots hold `u32::MAX`, so
/// `len` adds nothing a term array does not already say (keys that differ
/// only in `len` would need a term with id `u32::MAX`, and still compare
/// unequal).
impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.terms.map(u64::from);
        state.write_u64(a | b << 32);
        state.write_u64(c | d << 32);
    }
}

impl Key {
    /// Single-term key.
    pub fn single(t: TermId) -> Self {
        let mut terms = [u32::MAX; MAX_KEY_SIZE];
        terms[0] = t.0;
        Self { terms, len: 1 }
    }

    /// Builds a key from arbitrary terms: sorts, deduplicates. Returns
    /// `None` when empty or when more than [`MAX_KEY_SIZE`] distinct terms
    /// remain.
    ///
    /// Insertion into the inline array: no heap, whatever the input length.
    pub fn from_terms(terms: &[TermId]) -> Option<Self> {
        let mut arr = [u32::MAX; MAX_KEY_SIZE];
        let mut len = 0;
        for t in terms {
            let pos = arr[..len].partition_point(|&x| x < t.0);
            if pos < len && arr[pos] == t.0 {
                continue;
            }
            if len == MAX_KEY_SIZE {
                return None;
            }
            arr.copy_within(pos..len, pos + 1);
            arr[pos] = t.0;
            len += 1;
        }
        (len > 0).then_some(Self {
            terms: arr,
            len: len as u8,
        })
    }

    /// A key from terms already strictly ascending (the generator's sorted
    /// window prefixes).
    pub(crate) fn from_ascending(terms: &[u32]) -> Self {
        debug_assert!((1..=MAX_KEY_SIZE).contains(&terms.len()));
        debug_assert!(terms.windows(2).all(|w| w[0] < w[1]));
        let mut arr = [u32::MAX; MAX_KEY_SIZE];
        arr[..terms.len()].copy_from_slice(terms);
        Self {
            terms: arr,
            len: terms.len() as u8,
        }
    }

    /// Returns `self ∪ {t}`, or `None` if `t` is already a member or the
    /// key is full. The result stays canonical.
    pub fn extend(&self, t: TermId) -> Option<Self> {
        let n = self.size();
        if n == MAX_KEY_SIZE || self.contains(t) {
            return None;
        }
        let mut arr = [u32::MAX; MAX_KEY_SIZE];
        let pos = self.terms[..n].partition_point(|&x| x < t.0);
        arr[..pos].copy_from_slice(&self.terms[..pos]);
        arr[pos] = t.0;
        arr[pos + 1..=n].copy_from_slice(&self.terms[pos..n]);
        Some(Self {
            terms: arr,
            len: self.len + 1,
        })
    }

    /// Key size `s` (number of terms).
    #[inline]
    pub fn size(&self) -> usize {
        usize::from(self.len)
    }

    /// The member terms, ascending.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.terms[..self.size()].iter().map(|&t| TermId(t))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: TermId) -> bool {
        self.terms[..self.size()].binary_search(&t.0).is_ok()
    }

    /// Is every term of `self` a member of `other`? (Subset, not strict.)
    pub fn is_subset_of(&self, other: &Key) -> bool {
        self.terms().all(|t| other.contains(t))
    }

    /// The strict sub-keys of size `s - 1` (each obtained by dropping one
    /// term). By the subsumption property, checking *these* suffices to
    /// decide intrinsic discriminativeness: if some smaller sub-key were
    /// discriminative, every (s-1)-superset of it inside `self` would be
    /// discriminative too (supersets of DKs are DKs), so a violation always
    /// shows up one level down.
    pub fn immediate_sub_keys(&self) -> impl Iterator<Item = Key> + '_ {
        let n = self.size();
        (0..n).filter_map(move |drop| {
            if n <= 1 {
                return None;
            }
            let mut arr = [u32::MAX; MAX_KEY_SIZE];
            let mut j = 0;
            for i in 0..n {
                if i != drop {
                    arr[j] = self.terms[i];
                    j += 1;
                }
            }
            Some(Key {
                terms: arr,
                len: self.len - 1,
            })
        })
    }

    /// DHT position of the key: hash over `(size, terms...)`.
    pub fn dht_hash(&self) -> KeyHash {
        let mut words = [0u64; MAX_KEY_SIZE + 1];
        words[0] = self.len as u64;
        for (i, t) in self.terms[..self.size()].iter().enumerate() {
            words[i + 1] = u64::from(*t);
        }
        KeyHash(hash_u64s(&words[..=self.size()]))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key{{")?;
        for (i, t) in self.terms().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn canonicalization_sorts_and_dedups() {
        let a = Key::from_terms(&[t(5), t(1), t(5), t(3)]).unwrap();
        let b = Key::from_terms(&[t(3), t(5), t(1)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.size(), 3);
        let terms: Vec<u32> = a.terms().map(|x| x.0).collect();
        assert_eq!(terms, [1, 3, 5]);
    }

    #[test]
    fn from_terms_rejects_empty_and_oversize() {
        assert!(Key::from_terms(&[]).is_none());
        let five: Vec<TermId> = (0..5).map(t).collect();
        assert!(Key::from_terms(&five).is_none());
        // But 5 terms with duplicates collapsing to <= 4 are fine.
        let dup = [t(1), t(1), t(2), t(3), t(4)];
        assert_eq!(Key::from_terms(&dup).unwrap().size(), 4);
    }

    #[test]
    fn extend_keeps_canonical_form() {
        let k = Key::from_terms(&[t(10), t(30)]).unwrap();
        let e = k.extend(t(20)).unwrap();
        let terms: Vec<u32> = e.terms().map(|x| x.0).collect();
        assert_eq!(terms, [10, 20, 30]);
        assert_eq!(e, Key::from_terms(&[t(30), t(20), t(10)]).unwrap());
    }

    #[test]
    fn extend_rejects_member_and_overflow() {
        let k = Key::from_terms(&[t(1), t(2)]).unwrap();
        assert!(k.extend(t(1)).is_none());
        let full = Key::from_terms(&[t(1), t(2), t(3), t(4)]).unwrap();
        assert!(full.extend(t(9)).is_none());
    }

    #[test]
    fn contains_and_subset() {
        let big = Key::from_terms(&[t(1), t(2), t(3)]).unwrap();
        let small = Key::from_terms(&[t(1), t(3)]).unwrap();
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(big.contains(t(2)));
        assert!(!big.contains(t(4)));
        assert!(big.is_subset_of(&big));
    }

    #[test]
    fn immediate_sub_keys_of_triple() {
        let k = Key::from_terms(&[t(1), t(2), t(3)]).unwrap();
        let subs: Vec<Key> = k.immediate_sub_keys().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&Key::from_terms(&[t(2), t(3)]).unwrap()));
        assert!(subs.contains(&Key::from_terms(&[t(1), t(3)]).unwrap()));
        assert!(subs.contains(&Key::from_terms(&[t(1), t(2)]).unwrap()));
    }

    #[test]
    fn single_key_has_no_sub_keys() {
        let k = Key::single(t(7));
        assert_eq!(k.immediate_sub_keys().count(), 0);
    }

    #[test]
    fn dht_hash_distinguishes_keys() {
        let a = Key::from_terms(&[t(1), t(2)]).unwrap();
        let b = Key::from_terms(&[t(1), t(3)]).unwrap();
        let c = Key::single(t(1));
        assert_ne!(a.dht_hash(), b.dht_hash());
        assert_ne!(a.dht_hash(), c.dht_hash());
        // Order-independence follows from canonical form.
        assert_eq!(
            a.dht_hash(),
            Key::from_terms(&[t(2), t(1)]).unwrap().dht_hash()
        );
    }

    #[test]
    fn key_is_small() {
        assert_eq!(std::mem::size_of::<Key>(), 20);
    }

    #[test]
    fn debug_format() {
        let k = Key::from_terms(&[t(2), t(1)]).unwrap();
        assert_eq!(format!("{k:?}"), "Key{t1,t2}");
    }
}
