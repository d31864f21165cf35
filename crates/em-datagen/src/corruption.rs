//! Noise operators: match-variant edits and dirty-schema corruption.

use em_entity::schema::AttributeKind;
use em_entity::{Entity, Schema};
use rand::rngs::StdRng;
use rand::Rng;

/// Noise levels for producing the second description of a matching pair.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// Probability of dropping each token (at least one token always
    /// survives per non-empty attribute).
    pub drop_prob: f64,
    /// Probability of swapping a pair of adjacent tokens per attribute.
    pub swap_prob: f64,
    /// Probability of introducing one typo (adjacent-char transposition)
    /// per attribute.
    pub typo_prob: f64,
    /// Relative jitter applied to numeric attributes (e.g. 0.02 = ±2%).
    pub numeric_jitter: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            drop_prob: 0.18,
            swap_prob: 0.25,
            typo_prob: 0.08,
            numeric_jitter: 0.02,
        }
    }
}

/// Derives a noisy variant of `entity` — the "other source's description"
/// of the same real-world entity, as in a Magellan matching pair.
pub fn make_variant(
    entity: &Entity,
    schema: &Schema,
    noise: &NoiseConfig,
    rng: &mut StdRng,
) -> Entity {
    let mut out = Entity::empty(schema.len());
    for idx in 0..schema.len() {
        let value = entity.value(idx);
        let new_value = match schema.attribute(idx).kind {
            AttributeKind::Numeric => jitter_numeric(value, noise.numeric_jitter, rng),
            AttributeKind::Code => {
                // Codes are copied verbatim (sources agree on identifiers) —
                // except for an occasional typo.
                if rng.gen_bool(noise.typo_prob) {
                    typo(value, rng)
                } else {
                    value.to_string()
                }
            }
            _ => noisy_text(value, noise, rng),
        };
        out.set_value(idx, new_value);
    }
    out
}

fn noisy_text(value: &str, noise: &NoiseConfig, rng: &mut StdRng) -> String {
    let mut tokens: Vec<String> = value.split_whitespace().map(str::to_string).collect();
    if tokens.is_empty() {
        return String::new();
    }
    // Drop tokens, keeping at least one.
    let mut kept: Vec<String> = Vec::with_capacity(tokens.len());
    for t in tokens.drain(..) {
        if !rng.gen_bool(noise.drop_prob) {
            kept.push(t);
        }
    }
    if kept.is_empty() {
        kept.push(
            value
                .split_whitespace()
                .next()
                .expect("non-empty")
                .to_string(),
        );
    }
    // Swap an adjacent pair.
    if kept.len() >= 2 && rng.gen_bool(noise.swap_prob) {
        let i = rng.gen_range(0..kept.len() - 1);
        kept.swap(i, i + 1);
    }
    // Typo in one token.
    if rng.gen_bool(noise.typo_prob) {
        let i = rng.gen_range(0..kept.len());
        kept[i] = typo(&kept[i], rng);
    }
    kept.join(" ")
}

/// Transposes two adjacent characters of a token (identity for len < 2).
fn typo(token: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = token.chars().collect();
    if chars.len() < 2 {
        return token.to_string();
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars.clone();
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// Applies relative jitter to a numeric string; non-numeric values pass
/// through unchanged.
fn jitter_numeric(value: &str, jitter: f64, rng: &mut StdRng) -> String {
    match value.parse::<f64>() {
        Ok(v) => {
            let factor = 1.0 + rng.gen_range(-jitter..=jitter);
            // Preserve the number of decimals of the input.
            let decimals = value.split('.').nth(1).map_or(0, str::len);
            format!("{:.*}", decimals, v * factor)
        }
        Err(_) => value.to_string(),
    }
}

/// Dirty-schema corruption, constructed the way the DeepMatcher /
/// Magellan *Dirty* datasets were: for each attribute other than the
/// first (the title-like attribute), its value is moved — appended to the
/// first attribute, leaving the original empty — with probability
/// `move_prob`. The first attribute itself is never displaced.
pub fn make_dirty(entity: &Entity, schema: &Schema, move_prob: f64, rng: &mut StdRng) -> Entity {
    let n = schema.len();
    if n < 2 {
        return entity.clone();
    }
    let mut out = entity.clone();
    for idx in 1..n {
        if out.value(idx).is_empty() || !rng.gen_bool(move_prob) {
            continue;
        }
        let moved = out.value(idx).to_string();
        let existing = out.value(0).to_string();
        let combined = if existing.is_empty() {
            moved
        } else {
            format!("{existing} {moved}")
        };
        out.set_value(0, combined);
        out.set_value(idx, "");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schema() -> Schema {
        use em_entity::schema::Attribute;
        Schema::new(vec![
            Attribute {
                name: "name".into(),
                kind: AttributeKind::Name,
            },
            Attribute {
                name: "price".into(),
                kind: AttributeKind::Numeric,
            },
            Attribute {
                name: "code".into(),
                kind: AttributeKind::Code,
            },
        ])
    }

    fn entity() -> Entity {
        Entity::new(vec!["hoppy golden imperial ipa", "849.99", "dslra200w"])
    }

    #[test]
    fn variant_preserves_schema_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let v = make_variant(&entity(), &schema(), &NoiseConfig::default(), &mut rng);
        assert!(v.conforms_to(&schema()));
    }

    #[test]
    fn variant_keeps_at_least_one_token_per_attribute() {
        let mut rng = StdRng::seed_from_u64(1);
        let heavy = NoiseConfig {
            drop_prob: 0.95,
            ..Default::default()
        };
        for _ in 0..50 {
            let v = make_variant(&entity(), &schema(), &heavy, &mut rng);
            assert!(!v.value(0).is_empty());
        }
    }

    #[test]
    fn variant_shares_tokens_with_original() {
        let mut rng = StdRng::seed_from_u64(2);
        let original = entity();
        let v = make_variant(&original, &schema(), &NoiseConfig::default(), &mut rng);
        let orig: std::collections::BTreeSet<&str> = entity_tokens(&original);
        let var: std::collections::BTreeSet<&str> = v.value(0).split_whitespace().collect();
        // Typos may alter tokens, but most should survive verbatim.
        let shared = var.iter().filter(|t| orig.contains(*t)).count();
        assert!(shared >= 1);
    }

    fn entity_tokens(e: &Entity) -> std::collections::BTreeSet<&str> {
        e.value(0).split_whitespace().collect()
    }

    #[test]
    fn numeric_jitter_stays_close() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = make_variant(&entity(), &schema(), &NoiseConfig::default(), &mut rng);
            let p: f64 = v.value(1).parse().unwrap();
            assert!((p - 849.99).abs() / 849.99 <= 0.021, "{p}");
        }
    }

    #[test]
    fn zero_noise_is_identity_for_text_and_numeric_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let none = NoiseConfig {
            drop_prob: 0.0,
            swap_prob: 0.0,
            typo_prob: 0.0,
            numeric_jitter: 0.0,
        };
        let v = make_variant(&entity(), &schema(), &none, &mut rng);
        assert_eq!(v, entity());
    }

    #[test]
    fn typo_transposes_adjacent_chars() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = typo("sony", &mut rng);
        assert_eq!(t.len(), 4);
        assert_ne!(t, "sony");
        let mut sorted_a: Vec<char> = t.chars().collect();
        let mut sorted_b: Vec<char> = "sony".chars().collect();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b);
    }

    #[test]
    fn typo_on_short_token_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(typo("a", &mut rng), "a");
        assert_eq!(typo("", &mut rng), "");
    }

    #[test]
    fn dirty_moves_values_into_the_first_attribute() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = make_dirty(&entity(), &schema(), 1.0, &mut rng);
        // With move_prob=1 every non-title value is appended to the title.
        assert_eq!(d.value(1), "");
        assert_eq!(d.value(2), "");
        assert_eq!(d.value(0), "hoppy golden imperial ipa 849.99 dslra200w");
        // Token multiset is preserved (nothing lost).
        let all = |e: &Entity| {
            let mut v: Vec<String> = e
                .values()
                .flat_map(|s| s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
                .collect();
            v.sort();
            v
        };
        assert_eq!(all(&d), all(&entity()));
    }

    #[test]
    fn dirty_never_displaces_the_first_attribute() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let d = make_dirty(&entity(), &schema(), 0.5, &mut rng);
            assert!(d.value(0).starts_with("hoppy golden imperial ipa"));
        }
    }

    #[test]
    fn dirty_zero_prob_is_identity() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(make_dirty(&entity(), &schema(), 0.0, &mut rng), entity());
    }

    #[test]
    fn dirty_single_attribute_schema_is_identity() {
        let s = Schema::from_names(vec!["only"]);
        let e = Entity::new(vec!["a b c"]);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(make_dirty(&e, &s, 1.0, &mut rng), e);
    }
}
