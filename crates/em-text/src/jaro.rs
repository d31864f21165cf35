//! Jaro and Jaro-Winkler similarity.
//!
//! Both measures are one implementation over `&[char]` that keeps its
//! per-character match flags in caller-owned [`JaroScratch`], so a caller
//! comparing many tokens (the prepared scoring kernel, DESIGN.md §11)
//! decodes each token once and allocates nothing per pair. The `&str`
//! entry points decode into per-thread buffers and call the same core.

use std::cell::RefCell;

/// Reusable working memory for [`jaro_winkler_chars`]: one match flag per
/// character of each input.
#[derive(Debug, Default)]
pub struct JaroScratch {
    a_matched: Vec<bool>,
    b_matched: Vec<bool>,
}

/// Jaro similarity in `[0, 1]`.
///
/// Two empty strings are defined to have similarity 1; one empty string
/// against a non-empty one has similarity 0.
pub fn jaro(a: &str, b: &str) -> f64 {
    with_chars(a, b, jaro_chars)
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and
/// a prefix cap of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    with_chars(a, b, jaro_winkler_chars)
}

/// [`jaro`] over decoded characters.
fn jaro_chars(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let JaroScratch {
        a_matched,
        b_matched,
    } = scratch;
    a_matched.clear();
    a_matched.resize(a.len(), false);
    b_matched.clear();
    b_matched.resize(b.len(), false);
    let mut m = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_matched[i] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Transpositions: the k-th matched character of `a` against the k-th
    // matched character of `b`, each in its own string's order.
    let transpositions = flagged(a, a_matched)
        .zip(flagged(b, b_matched))
        .filter(|(x, y)| x != y)
        .count();
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// The characters of `s` whose flag is set, in order.
fn flagged<'s>(s: &'s [char], flags: &'s [bool]) -> impl Iterator<Item = &'s char> {
    s.iter().zip(flags).filter_map(|(c, &f)| f.then_some(c))
}

/// [`jaro_winkler`] over decoded characters.
pub fn jaro_winkler_chars(a: &[char], b: &[char], scratch: &mut JaroScratch) -> f64 {
    let j = jaro_chars(a, b, scratch);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Decodes `a` and `b` into this thread's reusable buffers and runs
/// `measure` on them, so the `&str` entry points allocate only while the
/// buffers grow.
fn with_chars(a: &str, b: &str, measure: fn(&[char], &[char], &mut JaroScratch) -> f64) -> f64 {
    thread_local! {
        static BUFFERS: RefCell<(Vec<char>, Vec<char>, JaroScratch)> = RefCell::default();
    }
    BUFFERS.with(|buffers| {
        let (a_chars, b_chars, scratch) = &mut *buffers.borrow_mut();
        a_chars.clear();
        a_chars.extend(a.chars());
        b_chars.clear();
        b_chars.extend(b.chars());
        measure(a_chars, b_chars, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating implementation the char core replaced, kept as the
    /// reference the core must equal bit for bit.
    fn reference_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_matched = vec![false; b.len()];
        let mut a_matches: Vec<char> = Vec::new();
        let mut matches_in_b: Vec<usize> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == ca {
                    b_matched[j] = true;
                    a_matches.push(ca);
                    matches_in_b.push(j);
                    break;
                }
            }
        }
        let m = a_matches.len();
        if m == 0 {
            return 0.0;
        }
        let mut b_in_order: Vec<usize> = matches_in_b.clone();
        b_in_order.sort_unstable();
        let mut transpositions = 0;
        for (&ja, &jb) in matches_in_b.iter().zip(&b_in_order) {
            if b[ja] != b[jb] {
                transpositions += 1;
            }
        }
        let t = transpositions as f64 / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    fn reference_jaro_winkler(a: &str, b: &str) -> f64 {
        let j = reference_jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    /// Short strings over a five-letter alphabet with multi-byte letters,
    /// so characters repeat and byte and char offsets differ.
    fn text() -> impl Strategy<Value = String> {
        "[abcé漢]{0,12}"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The char core, its `&str` wrappers, and one scratch reused
        /// across inputs of different lengths all equal the reference.
        /// Every Jaro-Winkler value is also finite, at most 1.0 and has its
        /// sign bit clear (never -0.0): the prepared kernel's Monge-Elkan
        /// relies on that to take maxima in any order and to add an unkept
        /// position as `value * 0.0`.
        #[test]
        fn char_core_equals_the_reference(a in text(), b in text(), c in "[a-z]{0,30}") {
            let chars = |s: &str| s.chars().collect::<Vec<char>>();
            let mut scratch = JaroScratch::default();
            for (x, y) in [(&a, &b), (&c, &a), (&b, &c), (&a, &a)] {
                let (xc, yc) = (chars(x), chars(y));
                let jaro_bits = reference_jaro(x, y).to_bits();
                let winkler_bits = reference_jaro_winkler(x, y).to_bits();
                prop_assert_eq!(jaro_chars(&xc, &yc, &mut scratch).to_bits(), jaro_bits);
                prop_assert_eq!(jaro_winkler_chars(&xc, &yc, &mut scratch).to_bits(), winkler_bits);
                prop_assert_eq!(jaro(x, y).to_bits(), jaro_bits);
                let w = jaro_winkler(x, y);
                prop_assert_eq!(w.to_bits(), winkler_bits);
                prop_assert!(w.is_finite() && w <= 1.0 && w.is_sign_positive(), "{}", w);
            }
        }

        /// The prepared scoring kernel reads one Jaro-Winkler matrix in
        /// both Monge-Elkan directions, so it needs exact symmetry.
        #[test]
        fn jaro_winkler_is_bitwise_symmetric(a in text(), b in text()) {
            prop_assert_eq!(jaro(&a, &b).to_bits(), jaro(&b, &a).to_bits());
            prop_assert_eq!(jaro_winkler(&a, &b).to_bits(), jaro_winkler(&b, &a).to_bits());
        }

        /// The kernel gives equal tokens 1.0 without computing it.
        #[test]
        fn jaro_winkler_of_a_string_with_itself_is_one(a in text()) {
            prop_assert_eq!(jaro_winkler(&a, &a).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn identical_strings_are_one() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert_eq!(jaro_winkler("martha", "martha"), 1.0);
    }

    #[test]
    fn classic_martha_marhta() {
        assert!((jaro("martha", "marhta") - 0.944_444).abs() < 1e-5);
        assert!((jaro_winkler("martha", "marhta") - 0.961_111).abs() < 1e-5);
    }

    #[test]
    fn classic_dixon_dicksonx() {
        assert!((jaro("dixon", "dicksonx") - 0.766_667).abs() < 1e-5);
        assert!((jaro_winkler("dixon", "dicksonx") - 0.813_333).abs() < 1e-5);
    }

    #[test]
    fn empty_string_conventions() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro("abc", ""), 0.0);
    }

    #[test]
    fn disjoint_strings_are_zero() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn winkler_boosts_common_prefix() {
        let a = jaro("prefixaa", "prefixbb");
        let w = jaro_winkler("prefixaa", "prefixbb");
        assert!(w > a);
    }

    #[test]
    fn symmetric() {
        let (a, b) = ("crate", "trace");
        assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
    }

    #[test]
    fn bounded_in_unit_interval() {
        for (a, b) in [
            ("a", "b"),
            ("sony", "song"),
            ("walmart", "amazon"),
            ("x", "xxxxxxx"),
        ] {
            let j = jaro(a, b);
            let w = jaro_winkler(a, b);
            // The range check alone would accept -0.0.
            assert!((0.0..=1.0).contains(&j) && j.is_sign_positive());
            assert!((0.0..=1.0).contains(&w) && w.is_sign_positive());
            assert!(w >= j);
        }
    }
}
