//! Property tests for the text substrate: tokenizer and stemmer totality,
//! window invariants, vocabulary round-trips.

use hdk_text::{stem, tokenize, window, TermId, Vocabulary, Windows};
use proptest::prelude::*;

proptest! {
    #[test]
    fn tokenizer_output_is_always_valid(text in ".{0,400}") {
        for tok in tokenize(&text) {
            let chars = tok.chars().count();
            prop_assert!((2..=40).contains(&chars), "token {tok:?} length {chars}");
            prop_assert!(tok.chars().all(char::is_alphanumeric), "token {tok:?}");
            prop_assert_eq!(&tok.to_lowercase(), &tok, "token not lowercase");
        }
    }

    #[test]
    fn tokenizer_is_deterministic(text in ".{0,200}") {
        let a: Vec<String> = tokenize(&text).collect();
        let b: Vec<String> = tokenize(&text).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn stemmer_never_panics_and_never_grows(word in "[a-z]{0,30}") {
        let s = stem(&word);
        prop_assert!(s.len() <= word.len().max(1) + 1, "{word} -> {s}");
        prop_assert!(!s.is_empty() || word.is_empty());
        prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase() || word.is_empty()));
    }

    #[test]
    fn stemmer_never_panics_on_short_words(word in "[a-z]{0,12}") {
        let s = stem(&word);
        prop_assert!(s.len() <= word.len().max(1) + 1, "{word} -> {s}");
    }

    #[test]
    fn stemmer_never_panics_around_its_own_suffixes(
        head in "[a-z]{0,3}",
        suffix in 0usize..24,
        tail in "[a-z]{0,1}",
    ) {
        // Random letters almost never spell a rule's suffix; these do, with
        // stems from empty up to three letters.
        const SUFFIXES: [&str; 24] = [
            "sses", "ies", "eed", "ed", "ing", "ational", "logi", "ization", "biliti", "ness",
            "icate", "ful", "ement", "ion", "ous", "ize", "able", "alli", "ousli", "iveness",
            "ical", "ent", "ate", "y",
        ];
        let word = format!("{head}{}{tail}", SUFFIXES[suffix]);
        let s = stem(&word);
        prop_assert!(!s.is_empty() && s.len() <= word.len() + 1, "{word} -> {s}");
    }

    #[test]
    fn stemmer_total_on_arbitrary_strings(word in ".{0,40}") {
        // Non-ASCII-lowercase inputs pass through unchanged.
        let s = stem(&word);
        if !word.bytes().all(|b| b.is_ascii_lowercase()) || word.len() <= 2 {
            prop_assert_eq!(s, word);
        }
    }

    #[test]
    fn windows_cover_all_positions(
        tokens in prop::collection::vec(0u32..50, 0..60),
        w in 2usize..12,
    ) {
        let ids: Vec<TermId> = tokens.iter().map(|&t| TermId(t)).collect();
        let wins: Vec<&[TermId]> = Windows::new(&ids, w).collect();
        if ids.is_empty() {
            prop_assert!(wins.is_empty());
        } else if ids.len() <= w {
            prop_assert_eq!(wins.len(), 1);
            prop_assert_eq!(wins[0].len(), ids.len());
        } else {
            prop_assert_eq!(wins.len(), ids.len() - w + 1);
            for win in &wins {
                prop_assert_eq!(win.len(), w);
            }
        }
    }

    #[test]
    fn contexts_enumerate_each_near_pair_once(
        tokens in prop::collection::vec(0u32..30, 0..40),
        w in 2usize..8,
    ) {
        let ids: Vec<TermId> = tokens.iter().map(|&t| TermId(t)).collect();
        // Count (i, j) position pairs via contexts...
        let mut events = 0usize;
        window::for_each_context(&ids, w, |prefix, _| events += prefix.len());
        // ...and by definition: pairs of positions at distance < w.
        let mut expected = 0usize;
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                if j - i < w {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(events, expected);
    }

    #[test]
    fn vocabulary_roundtrip(words in prop::collection::vec("[a-z]{1,12}", 1..80)) {
        let mut v = Vocabulary::new();
        let ids: Vec<TermId> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.term(*id), w.as_str());
            prop_assert_eq!(v.get(w), Some(*id));
            prop_assert_eq!(v.intern(w), *id, "intern must be stable");
        }
        let distinct: std::collections::HashSet<&String> = words.iter().collect();
        prop_assert_eq!(v.len(), distinct.len());
    }
}
