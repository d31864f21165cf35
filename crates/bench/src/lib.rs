//! Shared plumbing for the table-regenerating binaries.
//!
//! Every binary reads three environment variables so the paper-scale runs
//! and quick smoke runs share one code path:
//!
//! * `SCALE` — benchmark size multiplier in `(0, 1]` (default `0.25`);
//! * `RECORDS` — records sampled per label (default `100`, the paper's
//!   setting);
//! * `SAMPLES` — perturbation samples per explanation (default `500`);
//! * `DATASETS` — comma-separated short names (e.g. `S-BR,S-IA`) to
//!   restrict the run (default: all twelve);
//! * `THREADS` — worker threads for per-record explanation (`0` = one per
//!   core, `1` = serial; default `0`). Results are identical for any value.

#![forbid(unsafe_code)]

use em_datagen::DatasetId;
use em_eval::{EvalConfig, ParallelismConfig};
use em_lime::PairExplanation;
use landmark_core::DualExplanation;

/// Reads an environment variable with a fallback parse.
fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the experiment configuration from the environment.
pub fn config_from_env() -> EvalConfig {
    EvalConfig {
        scale: env_or("SCALE", 0.25f64).clamp(0.001, 1.0),
        n_records_per_label: env_or("RECORDS", 100usize),
        n_samples: env_or("SAMPLES", 500usize),
        parallelism: ParallelismConfig::with_threads(env_or("THREADS", 0usize)),
        ..Default::default()
    }
}

/// The datasets selected by the `DATASETS` environment variable (all
/// twelve when unset or unparseable).
pub fn datasets_from_env() -> Vec<DatasetId> {
    match std::env::var("DATASETS") {
        Ok(list) => {
            let chosen: Vec<DatasetId> = list
                .split(',')
                .filter_map(|name| DatasetId::from_short_name(name.trim()))
                .collect();
            if chosen.is_empty() {
                DatasetId::all().to_vec()
            } else {
                chosen
            }
        }
        Err(_) => DatasetId::all().to_vec(),
    }
}

/// Prints the banner every binary shows before running.
pub fn print_banner(table: &str, config: &EvalConfig, datasets: &[DatasetId]) {
    println!(
        "# {table} — scale={}, records/label={}, samples/explanation={}, datasets={}",
        config.scale,
        config.n_records_per_label,
        config.n_samples,
        datasets
            .iter()
            .map(|d| d.short_name())
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("# (set SCALE=1.0 RECORDS=100 SAMPLES=500 for the full paper-scale run)\n");
}

/// Whether two explanations of one record are the same bits: in both
/// views, the same tokens in the same order, and every float (each token
/// weight, the intercept, the model and surrogate predictions and the
/// surrogate's R²) equal by `to_bits`, so +0.0 and -0.0 differ.
pub fn bit_identical(a: &DualExplanation, b: &DualExplanation) -> bool {
    let floats = |e: &PairExplanation| {
        [
            e.intercept,
            e.model_prediction,
            e.surrogate_prediction,
            e.surrogate_r2,
        ]
        .map(f64::to_bits)
    };
    a.both().iter().zip(b.both()).all(|(x, y)| {
        let (x, y) = (&x.explanation, &y.explanation);
        floats(x) == floats(y)
            && x.token_weights.len() == y.token_weights.len()
            && x.token_weights.iter().zip(&y.token_weights).all(|(s, t)| {
                s.side == t.side && s.token == t.token && s.weight.to_bits() == t.weight.to_bits()
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::{EntitySide, Token};
    use em_lime::TokenWeight;
    use landmark_core::strategy::ResolvedStrategy;
    use landmark_core::LandmarkExplanation;

    fn dual(weight: f64, surrogate_r2: f64) -> DualExplanation {
        let view = |landmark: EntitySide| LandmarkExplanation {
            landmark,
            varying: landmark.other(),
            strategy: ResolvedStrategy::SingleEntity,
            explanation: PairExplanation {
                token_weights: vec![TokenWeight {
                    side: landmark.other(),
                    token: Token::new(0, 0, "sony"),
                    weight,
                }],
                intercept: 0.25,
                model_prediction: 0.75,
                surrogate_prediction: 0.5,
                surrogate_r2,
            },
            injected: vec![false],
        };
        DualExplanation {
            left_landmark: view(EntitySide::Left),
            right_landmark: view(EntitySide::Right),
        }
    }

    #[test]
    fn bit_identity_compares_every_float_by_its_bits() {
        assert!(bit_identical(&dual(0.0, 0.5), &dual(0.0, 0.5)));
        // Equal by `==`, different bits.
        assert!(!bit_identical(&dual(0.0, 0.5), &dual(-0.0, 0.5)));
        // Token weights and intercept equal; only the fit quality moved.
        assert!(!bit_identical(&dual(0.0, 0.5), &dual(0.0, 0.25)));
    }

    #[test]
    fn default_config_is_sane() {
        let c = config_from_env();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
        assert!(c.n_samples > 0);
    }

    #[test]
    fn dataset_filter_falls_back_to_all() {
        // No env var set in tests -> all twelve.
        assert_eq!(datasets_from_env().len(), 12);
    }
}
