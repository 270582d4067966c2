//! The Porter stemming algorithm (M.F. Porter, *An algorithm for suffix
//! stripping*, Program 14(3), 1980).
//!
//! A complete, dependency-free implementation of the classic five-step
//! algorithm, following the structure of Porter's reference implementation
//! (including the later `BLI -> BLE` and `LOGI -> LOG` revisions that every
//! production stemmer, Terrier included, ships with). The paper's prototype
//! applies this stemmer to every token after stop-word removal.

/// Stems `word` and returns the stem.
///
/// Input is expected to be lowercase. Words shorter than three characters and
/// words containing non-ASCII-alphabetic characters are returned unchanged
/// (the classic algorithm is defined over ASCII letters only).
///
/// ```
/// assert_eq!(hdk_text::stem("relational"), "relat");
/// assert_eq!(hdk_text::stem("retrieval"), "retriev");
/// assert_eq!(hdk_text::stem("ponies"), "poni");
/// ```
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_owned();
    }
    let mut s = Stemmer {
        b: word.as_bytes().to_vec(),
        k: word.len() - 1,
        j: word.len(),
    };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    s.b.truncate(s.k + 1);
    // Safety of from_utf8: we only ever write ASCII bytes.
    String::from_utf8(s.b).expect("stemmer output is ASCII")
}

/// Working state: `b[0..=k]` is the current word, `b[..j]` the stem left of
/// a matched suffix (set by [`Stemmer::ends`]). `j` is a length, not a last
/// index: a word that *is* one of the suffixes ("logi", "ing", "ness")
/// leaves the empty stem, whose measure is 0 and which holds no vowel.
struct Stemmer {
    b: Vec<u8>,
    k: usize,
    j: usize,
}

impl Stemmer {
    /// Is `b[i]` a consonant?
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// Measure of the stem `b[..j]`: the number of consonant-vowel-consonant
    /// transitions `[C](VC)^m[V]`.
    fn m(&self) -> usize {
        let mut n = 0;
        let mut i = 0;
        let j = self.j;
        loop {
            if i >= j {
                return n;
            }
            if !self.cons(i) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            loop {
                if i >= j {
                    return n;
                }
                if self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            loop {
                if i >= j {
                    return n;
                }
                if !self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// `*v*` — the stem contains a vowel.
    fn vowel_in_stem(&self) -> bool {
        (0..self.j).any(|i| !self.cons(i))
    }

    /// `*d` — the word ends with a double consonant at `i`.
    fn double_cons(&self, i: usize) -> bool {
        i >= 1 && self.b[i] == self.b[i - 1] && self.cons(i)
    }

    /// `*o` — the word ends consonant-vowel-consonant where the final
    /// consonant is not `w`, `x` or `y` (signals a short syllable, e.g.
    /// `hop` in `hopping`).
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// Does the word end with `s`? If so, set `j` to the stem's length.
    fn ends(&mut self, s: &str) -> bool {
        let s = s.as_bytes();
        let len = s.len();
        if len > self.k + 1 || self.b[self.k + 1 - len..=self.k] != *s {
            return false;
        }
        self.j = self.k + 1 - len;
        true
    }

    /// Replace the suffix `b[j..=k]` with `s` and adjust `k`. Stem and `s`
    /// are never both empty: the rules that delete a suffix outright are
    /// guarded by a positive measure.
    fn set_to(&mut self, s: &str) {
        let s = s.as_bytes();
        self.b.truncate(self.j);
        self.b.extend_from_slice(s);
        self.k = self.j + s.len() - 1;
    }

    /// `set_to` guarded by `m() > 0`.
    fn r(&mut self, s: &str) {
        if self.m() > 0 {
            self.set_to(s);
        }
    }

    /// Step 1ab: plurals and -ed / -ing.
    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends("sses") {
                self.k -= 2;
            } else if self.ends("ies") {
                self.set_to("i");
            } else if self.b[self.k - 1] != b's' {
                self.k -= 1;
            }
        }
        if self.ends("eed") {
            if self.m() > 0 {
                self.k -= 1;
            }
        } else if (self.ends("ed") || self.ends("ing")) && self.vowel_in_stem() {
            self.k = self.j - 1;
            if self.ends("at") {
                self.set_to("ate");
            } else if self.ends("bl") {
                self.set_to("ble");
            } else if self.ends("iz") {
                self.set_to("ize");
            } else if self.double_cons(self.k) {
                self.k -= 1;
                if matches!(self.b[self.k], b'l' | b's' | b'z') {
                    self.k += 1;
                }
            } else if self.m() == 1 && self.cvc(self.k) {
                self.j = self.k + 1;
                self.set_to("e");
            }
        }
    }

    /// Step 1c: terminal `y` to `i` when there is another vowel in the stem.
    fn step1c(&mut self) {
        if self.ends("y") && self.vowel_in_stem() {
            self.b[self.k] = b'i';
        }
    }

    /// Step 2: double suffices to single ones, guarded by `m() > 0`.
    // The match-on-penultimate-letter dispatch with single-armed `if`s
    // mirrors Porter's published reference implementation; collapsing the
    // arms would obscure the 1:1 correspondence with the paper.
    #[allow(clippy::collapsible_match, clippy::if_same_then_else)]
    fn step2(&mut self) {
        if self.k == 0 {
            return;
        }
        match self.b[self.k - 1] {
            b'a' => {
                if self.ends("ational") {
                    self.r("ate");
                } else if self.ends("tional") {
                    self.r("tion");
                }
            }
            b'c' => {
                if self.ends("enci") {
                    self.r("ence");
                } else if self.ends("anci") {
                    self.r("ance");
                }
            }
            b'e' => {
                if self.ends("izer") {
                    self.r("ize");
                }
            }
            b'l' => {
                if self.ends("bli") {
                    self.r("ble"); // Porter's revision of `abli -> able`.
                } else if self.ends("alli") {
                    self.r("al");
                } else if self.ends("entli") {
                    self.r("ent");
                } else if self.ends("eli") {
                    self.r("e");
                } else if self.ends("ousli") {
                    self.r("ous");
                }
            }
            b'o' => {
                if self.ends("ization") {
                    self.r("ize");
                } else if self.ends("ation") {
                    self.r("ate");
                } else if self.ends("ator") {
                    self.r("ate");
                }
            }
            b's' => {
                if self.ends("alism") {
                    self.r("al");
                } else if self.ends("iveness") {
                    self.r("ive");
                } else if self.ends("fulness") {
                    self.r("ful");
                } else if self.ends("ousness") {
                    self.r("ous");
                }
            }
            b't' => {
                if self.ends("aliti") {
                    self.r("al");
                } else if self.ends("iviti") {
                    self.r("ive");
                } else if self.ends("biliti") {
                    self.r("ble");
                }
            }
            b'g' => {
                if self.ends("logi") {
                    self.r("log"); // Porter's revision.
                }
            }
            _ => {}
        }
    }

    /// Step 3: -ic-, -full, -ness etc., guarded by `m() > 0`.
    #[allow(clippy::collapsible_match)]
    fn step3(&mut self) {
        match self.b[self.k] {
            b'e' => {
                if self.ends("icate") {
                    self.r("ic");
                } else if self.ends("ative") {
                    self.r("");
                } else if self.ends("alize") {
                    self.r("al");
                }
            }
            b'i' => {
                if self.ends("iciti") {
                    self.r("ic");
                }
            }
            b'l' => {
                if self.ends("ical") {
                    self.r("ic");
                } else if self.ends("ful") {
                    self.r("");
                }
            }
            b's' => {
                if self.ends("ness") {
                    self.r("");
                }
            }
            _ => {}
        }
    }

    /// Step 4: strip -ant, -ence etc. when `m() > 1`.
    fn step4(&mut self) {
        if self.k == 0 {
            return;
        }
        let matched = match self.b[self.k - 1] {
            b'a' => self.ends("al"),
            b'c' => self.ends("ance") || self.ends("ence"),
            b'e' => self.ends("er"),
            b'i' => self.ends("ic"),
            b'l' => self.ends("able") || self.ends("ible"),
            b'n' => self.ends("ant") || self.ends("ement") || self.ends("ment") || self.ends("ent"),
            b'o' => {
                (self.ends("ion") && self.j > 1 && matches!(self.b[self.j - 1], b's' | b't'))
                    || self.ends("ou")
            }
            b's' => self.ends("ism"),
            b't' => self.ends("ate") || self.ends("iti"),
            b'u' => self.ends("ous"),
            b'v' => self.ends("ive"),
            b'z' => self.ends("ize"),
            _ => false,
        };
        if matched && self.m() > 1 {
            self.k = self.j - 1;
        }
    }

    /// Step 5: remove final `e` and collapse terminal double `l`.
    fn step5(&mut self) {
        self.j = self.k + 1;
        if self.b[self.k] == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && !self.cvc(self.k - 1)) {
                self.k -= 1;
            }
        }
        if self.b[self.k] == b'l' && self.double_cons(self.k) && self.m() > 1 {
            self.k -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical pairs from Porter's published step examples.
    #[test]
    fn step1_examples() {
        for (w, s) in [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
        ] {
            assert_eq!(stem(w), s, "stem({w})");
        }
    }

    #[test]
    fn step2_examples() {
        for (w, s) in [
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
        ] {
            assert_eq!(stem(w), s, "stem({w})");
        }
    }

    #[test]
    fn step3_to_5_examples() {
        for (w, s) in [
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ] {
            assert_eq!(stem(w), s, "stem({w})");
        }
    }

    #[test]
    fn retrieval_domain_words() {
        assert_eq!(stem("retrieval"), "retriev");
        assert_eq!(stem("indexing"), "index");
        assert_eq!(stem("queries"), "queri");
        assert_eq!(stem("discriminative"), "discrimin");
        assert_eq!(stem("networks"), "network");
        assert_eq!(stem("scalability"), "scalabl");
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem(""), "");
    }

    /// Every suffix the rules test for, as a word of its own: the stem left
    /// of the match is empty. (`logi` used to index out of bounds, and so
    /// did most of the others.)
    #[test]
    fn a_word_that_is_a_suffix_has_an_empty_stem() {
        // Unconditional rules rewrite even an empty stem ...
        assert_eq!(stem("sses"), "ss");
        assert_eq!(stem("ies"), "i");
        // ... rules guarded by the measure or a vowel leave the word alone.
        for w in ["logi", "eed", "ing", "ness", "ful", "ment"] {
            assert_eq!(stem(w), w);
        }
        // The rest may still lose a shorter suffix of their own ("ational"
        // -> "ation"); what they must not do is panic.
        for w in [
            "ational", "tional", "enci", "anci", "izer", "bli", "alli", "entli", "eli", "ousli",
            "ization", "ation", "ator", "alism", "iveness", "fulness", "ousness", "aliti", "iviti",
            "biliti", "icate", "ative", "alize", "iciti", "ical", "ance", "ence", "able", "ible",
            "ant", "ement", "ent", "ion", "ism", "ate", "iti", "ive", "ous", "ize",
        ] {
            assert!(!stem(w).is_empty());
        }
    }

    #[test]
    fn non_ascii_unchanged() {
        assert_eq!(stem("zürich"), "zürich");
        assert_eq!(stem("bm25"), "bm25");
    }

    #[test]
    fn output_never_longer_than_input() {
        // The algorithm only shrinks or rewrites suffixes of equal length.
        for w in ["generalization", "oscillators", "traditional", "abilities"] {
            assert!(stem(w).len() <= w.len());
        }
    }

    #[test]
    fn plural_and_singular_conflate() {
        for (a, b) in [
            ("network", "networks"),
            ("peer", "peers"),
            ("index", "indexes"),
            ("document", "documents"),
        ] {
            assert_eq!(stem(a), stem(b), "{a} vs {b}");
        }
    }
}
