//! Set-based similarities over token collections.

#[expect(
    clippy::disallowed_types,
    reason = "membership only: `jaccard` counts an intersection and a union, which no iteration order changes"
)]
fn to_set<'a>(tokens: &'a [&'a str]) -> std::collections::HashSet<&'a str> {
    tokens.iter().copied().collect()
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`; two empty sets are similarity 1.
pub fn jaccard(a: &[&str], b: &[&str]) -> f64 {
    let sa = to_set(a);
    let sb = to_set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_identical() {
        assert_eq!(jaccard(&["a", "b"], &["b", "a"]), 1.0);
    }

    #[test]
    fn jaccard_disjoint() {
        assert_eq!(jaccard(&["a"], &["b"]), 0.0);
    }

    #[test]
    fn jaccard_partial() {
        assert!((jaccard(&["a", "b", "c"], &["b", "c", "d"]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_duplicates_collapse() {
        assert_eq!(jaccard(&["a", "a", "b"], &["a", "b", "b"]), 1.0);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[], &["a"]), 0.0);
    }

    #[test]
    fn jaccard_symmetric() {
        let a = ["x", "y", "z"];
        let b = ["y", "q"];
        assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
    }
}
