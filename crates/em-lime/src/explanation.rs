//! The explanation result type shared by every explainer in the workspace.

use em_entity::{EntitySide, Schema, Token};

/// The weight an explanation assigns to one token of the record.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenWeight {
    /// Which entity the token belongs to.
    pub side: EntitySide,
    /// The token (attribute, occurrence, text).
    pub token: Token,
    /// Surrogate-model coefficient. Positive pushes towards *match*,
    /// negative towards *non-match*.
    pub weight: f64,
}

/// A local explanation of one EM record: a linear model over the record's
/// tokens approximating the black-box model around the record.
#[derive(Debug, Clone)]
pub struct PairExplanation {
    /// Per-token coefficients.
    pub token_weights: Vec<TokenWeight>,
    /// Surrogate intercept.
    pub intercept: f64,
    /// Black-box probability on the unperturbed record.
    pub model_prediction: f64,
    /// Surrogate prediction on the unperturbed record (all features on).
    pub surrogate_prediction: f64,
    /// Weighted R² of the surrogate on the perturbation dataset.
    pub surrogate_r2: f64,
}

impl PairExplanation {
    /// Token weights sorted by decreasing `|weight|`.
    ///
    /// Uses [`f64::total_cmp`] so a NaN coefficient (a degenerate surrogate
    /// fit) ranks last instead of aborting — an online serving layer must
    /// never panic on a weight it did not compute itself.
    pub fn ranked(&self) -> Vec<&TokenWeight> {
        let mut v: Vec<&TokenWeight> = self.token_weights.iter().collect();
        v.sort_by(|a, b| b.weight.abs().total_cmp(&a.weight.abs()));
        v
    }

    /// Number of token weights.
    pub fn len(&self) -> usize {
        self.token_weights.len()
    }

    /// Whether the explanation covers no tokens at all.
    pub fn is_empty(&self) -> bool {
        self.token_weights.is_empty()
    }

    /// Iterates the token weights in their stored (tokenization) order —
    /// the flattened view a JSON encoder walks.
    pub fn iter(&self) -> impl Iterator<Item = &TokenWeight> {
        self.token_weights.iter()
    }

    /// Whether every coefficient (and the intercept) is finite — the
    /// serving layer reports this so clients can spot degenerate fits.
    pub fn all_finite(&self) -> bool {
        self.intercept.is_finite() && self.token_weights.iter().all(|t| t.weight.is_finite())
    }

    /// The `k` tokens with the largest absolute weight.
    pub fn top_k(&self, k: usize) -> Vec<&TokenWeight> {
        self.ranked().into_iter().take(k).collect()
    }

    /// Sum of `|token weight|` per attribute — the quantity the paper's
    /// attribute-based evaluation (Table 3) compares against the EM model's
    /// own attribute weights.
    pub fn attribute_importance(&self, schema: &Schema) -> Vec<f64> {
        let mut out = vec![0.0; schema.len()];
        for tw in &self.token_weights {
            out[tw.token.attribute] += tw.weight.abs();
        }
        out
    }

    /// Sum of the weights of the given subset of tokens (used by the
    /// token-removal evaluations of Section 4.2.1 / 4.3).
    pub fn weight_sum<'a, I: IntoIterator<Item = &'a TokenWeight>>(tokens: I) -> f64 {
        tokens.into_iter().map(|t| t.weight).sum()
    }

    /// Renders the top-k tokens as `attr/text:+0.123` lines for display.
    pub fn render_top_k(&self, schema: &Schema, k: usize) -> String {
        self.top_k(k)
            .into_iter()
            .map(|tw| {
                format!(
                    "{}_{}/{}: {:+.4}",
                    tw.side.prefix(),
                    schema.name(tw.token.attribute),
                    tw.token.text,
                    tw.weight
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explanation() -> PairExplanation {
        PairExplanation {
            token_weights: vec![
                TokenWeight {
                    side: EntitySide::Left,
                    token: Token::new(0, 0, "sony"),
                    weight: 0.5,
                },
                TokenWeight {
                    side: EntitySide::Left,
                    token: Token::new(1, 0, "lens"),
                    weight: -0.8,
                },
                TokenWeight {
                    side: EntitySide::Right,
                    token: Token::new(0, 0, "nikon"),
                    weight: 0.1,
                },
                TokenWeight {
                    side: EntitySide::Right,
                    token: Token::new(1, 1, "case"),
                    weight: -0.2,
                },
            ],
            intercept: 0.3,
            model_prediction: 0.12,
            surrogate_prediction: 0.15,
            surrogate_r2: 0.9,
        }
    }

    #[test]
    fn ranked_sorts_by_absolute_weight() {
        let e = explanation();
        let r = e.ranked();
        assert_eq!(r[0].token.text, "lens");
        assert_eq!(r[1].token.text, "sony");
        assert_eq!(r[3].token.text, "nikon");
    }

    #[test]
    fn ranked_handles_nan_weights_without_panicking() {
        // Regression: `partial_cmp(...).expect("weights are finite")`
        // aborted here on a NaN coefficient. With total_cmp the sort is
        // total: no panic, and the finite entries keep their order.
        let mut e = explanation();
        e.token_weights.push(TokenWeight {
            side: EntitySide::Left,
            token: Token::new(0, 1, "nan"),
            weight: f64::NAN,
        });
        let r = e.ranked();
        assert_eq!(r.len(), 5);
        // The finite entries keep their relative order.
        let finite: Vec<&str> = r
            .iter()
            .filter(|t| t.weight.is_finite())
            .map(|t| t.token.text.as_str())
            .collect();
        assert_eq!(finite, vec!["lens", "sony", "case", "nikon"]);
        assert!(!e.all_finite());
        assert!(explanation().all_finite());
    }

    #[test]
    fn len_and_iter_walk_stored_order() {
        let e = explanation();
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        let texts: Vec<&str> = e.iter().map(|t| t.token.text.as_str()).collect();
        assert_eq!(texts, vec!["sony", "lens", "nikon", "case"]);
    }

    #[test]
    fn top_k_truncates() {
        let e = explanation();
        assert_eq!(e.top_k(2).len(), 2);
        assert_eq!(e.top_k(100).len(), 4);
    }

    #[test]
    fn attribute_importance_sums_absolute_weights() {
        let e = explanation();
        let schema = Schema::from_names(vec!["name", "description"]);
        let imp = e.attribute_importance(&schema);
        assert!((imp[0] - 0.6).abs() < 1e-12);
        assert!((imp[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_sum_adds_up() {
        let e = explanation();
        let s = PairExplanation::weight_sum(e.iter().filter(|t| t.weight > 0.0));
        assert!((s - 0.6).abs() < 1e-12);
    }

    #[test]
    fn render_contains_sides_and_weights() {
        let e = explanation();
        let schema = Schema::from_names(vec!["name", "description"]);
        let s = e.render_top_k(&schema, 2);
        assert!(s.contains("left_description/lens"));
        assert!(s.contains("-0.8"));
    }
}
