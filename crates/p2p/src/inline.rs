//! A short sequence stored inline, spilling to the heap only when long.
//!
//! Every stored index entry carries two small sets — the peers holding a
//! copy (`R ≤ 3` is the norm) and the peers that contributed postings (one
//! or two for most keys). As `Vec`s each was a 24-byte header plus a
//! 32-byte heap chunk per entry; [`InlineVec`] keeps up to `N` items in
//! the header's own bytes and allocates one exactly-sized boxed slice only
//! for the rare longer set.

use crate::wire::{Wire, WireReader, WireResult};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` `Copy` items inline, more in one exactly-sized heap slice.
///
/// Reads and in-place edits go through the slice (`Deref`/`DerefMut`);
/// growth is [`InlineVec::push`], shrinkage [`InlineVec::retain`]. A
/// spilled set that shrinks back to `N` items or fewer moves inline and
/// frees its slice, so the representation is a function of the length.
/// Pushing onto a spilled set reallocates — fine for sets that grow a
/// handful of times in their life, wrong for a general-purpose buffer.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Spilled(Box<[T]>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty set (no allocation).
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline capacity exceeds u8") };
        Self(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// A copy of `items`, inline when it fits.
    fn from_slice(items: &[T]) -> Self {
        if items.len() <= N {
            let mut inline = [T::default(); N];
            inline[..items.len()].copy_from_slice(items);
            Self(Repr::Inline {
                len: items.len() as u8,
                items: inline,
            })
        } else {
            Self(Repr::Spilled(items.into()))
        }
    }

    /// The items, in order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }

    /// The items, in order, for in-place edits (sorting, overwriting).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spilled(items) => items,
        }
    }

    /// Appends `item`. Spills (or re-spills one longer) past `N` items.
    pub fn push(&mut self, item: T) {
        if let Repr::Inline { len, items } = &mut self.0 {
            if (*len as usize) < N {
                items[*len as usize] = item;
                *len += 1;
                return;
            }
        }
        let mut grown = Vec::with_capacity(self.len() + 1);
        grown.extend_from_slice(self.as_slice());
        grown.push(item);
        self.0 = Repr::Spilled(grown.into_boxed_slice());
    }

    /// Keeps the items for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(items) => {
                let kept: Vec<T> = items.iter().copied().filter(|x| keep(x)).collect();
                if kept.len() != items.len() {
                    *self = Self::from(kept);
                }
            }
        }
    }

    /// Heap bytes the set occupies beyond its inline header (0 unless
    /// spilled).
    pub fn spilled_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Spilled(items) => std::mem::size_of_val::<[T]>(items),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(items: Vec<T>) -> Self {
        if items.len() <= N {
            Self::from_slice(&items)
        } else {
            Self(Repr::Spilled(items.into_boxed_slice()))
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Byte-identical to the `Vec<T>` encoding: `[count: u32][items]`.
impl<T: Wire + Copy + Default, const N: usize> Wire for InlineVec<T, N> {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        assert!(
            self.len() <= u32::MAX as usize,
            "sequence exceeds u32 length"
        );
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    /// Decodes in place: no intermediate `Vec`, a heap slice only past
    /// `N` items.
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.seq_len(T::MIN_BYTES)?;
        if n <= N {
            let mut items = [T::default(); N];
            for slot in &mut items[..n] {
                *slot = T::get(r)?;
            }
            return Ok(Self(Repr::Inline {
                len: n as u8,
                items,
            }));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(Self(Repr::Spilled(items.into_boxed_slice())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Small = InlineVec<u32, 3>;

    #[test]
    fn stays_inline_up_to_n_and_spills_past_it() {
        let mut v = Small::new();
        for i in 0..3 {
            v.push(i);
        }
        assert_eq!(v.spilled_bytes(), 0);
        v.push(3);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.spilled_bytes(), 16);
        v.retain(|&x| x != 1);
        assert_eq!(v.as_slice(), &[0, 2, 3]);
        assert_eq!(v.spilled_bytes(), 0, "back inline at N items");
        v.retain(|&x| x == 2);
        assert_eq!(v.as_slice(), &[2]);
        assert_eq!(v, Small::from(vec![2]));
    }

    #[test]
    fn header_is_no_larger_than_a_vec() {
        assert!(std::mem::size_of::<InlineVec<u32, 5>>() <= std::mem::size_of::<Vec<u32>>());
        assert!(std::mem::size_of::<InlineVec<u64, 2>>() <= std::mem::size_of::<Vec<u64>>());
    }

    #[test]
    fn wire_bytes_match_the_vec_encoding() {
        for len in 0..8u32 {
            let items: Vec<u32> = (0..len).map(|i| i * 7 + 1).collect();
            let small = Small::from(items.clone());
            let bytes = crate::wire::encode(&small);
            assert_eq!(bytes, crate::wire::encode(&items));
            let back: Small = crate::wire::decode(&bytes).expect("round trip");
            assert_eq!(back.as_slice(), items.as_slice());
            assert_eq!(back.spilled_bytes() > 0, len > 3);
        }
    }
}
