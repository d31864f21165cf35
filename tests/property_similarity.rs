//! Property-based tests for the string-similarity substrate: bounds,
//! symmetry, and identity laws that every measure must satisfy.

use landmark_explanation::text::monge_elkan::monge_elkan_symmetric;
use landmark_explanation::text::{
    jaccard, jaro, jaro_winkler, levenshtein, levenshtein_similarity,
};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    "[a-z0-9]{0,10}".prop_map(|s| s)
}

fn words() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z0-9]{1,6}", 0..6)
}

proptest! {
    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        // identity
        prop_assert_eq!(levenshtein(&a, &a), 0);
        // symmetry
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // triangle inequality
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // bounded by the longer string
        prop_assert!(levenshtein(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn char_similarities_are_bounded_and_symmetric(a in word(), b in word()) {
        for f in [levenshtein_similarity, jaro, jaro_winkler] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{s}");
            prop_assert!((s - f(&b, &a)).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_gives_similarity_one(a in word()) {
        prop_assert_eq!(levenshtein_similarity(&a, &a), 1.0);
        prop_assert_eq!(jaro(&a, &a), 1.0);
    }

    #[test]
    fn winkler_never_decreases_jaro(a in word(), b in word()) {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn set_similarities_bounded_symmetric(a in words(), b in words()) {
        let ar: Vec<&str> = a.iter().map(String::as_str).collect();
        let br: Vec<&str> = b.iter().map(String::as_str).collect();
        let s = jaccard(&ar, &br);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((s - jaccard(&br, &ar)).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_symmetric_is_bounded(a in words(), b in words()) {
        let ar: Vec<&str> = a.iter().map(String::as_str).collect();
        let br: Vec<&str> = b.iter().map(String::as_str).collect();
        let s = monge_elkan_symmetric(&ar, &br, jaro_winkler);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        let t = monge_elkan_symmetric(&br, &ar, jaro_winkler);
        prop_assert!((s - t).abs() < 1e-12);
    }

    #[test]
    fn jaccard_of_identical_lists_is_one(a in prop::collection::vec("[a-z]{1,5}", 1..6)) {
        let ar: Vec<&str> = a.iter().map(String::as_str).collect();
        prop_assert_eq!(jaccard(&ar, &ar), 1.0);
    }
}
