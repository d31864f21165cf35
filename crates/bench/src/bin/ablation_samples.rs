//! Ablation: surrogate fidelity vs. perturbation budget.
//!
//! DESIGN.md §5(2): how many perturbation samples does the surrogate need
//! before the token-based MAE stops improving? Sweeps the budget and
//! reports accuracy / MAE per technique on one dataset.
//!
//! Run with: `cargo run --release -p bench --bin ablation_samples`

use em_eval::{EvalConfig, Evaluator};
use landmark_core::ExplainerKind;

fn main() {
    let base = bench::config_from_env();
    // Without DATASETS this is the first of `DatasetId::all()`, S-BR: the
    // smallest dataset, which keeps the sweep fast.
    let id = bench::datasets_from_env()[0];
    bench::outln!(
        "# Ablation: perturbation budget (dataset {})\n",
        id.short_name()
    );
    bench::outln!(
        "{:<8} {:<12} {:>12} {:>8} {:>8} {:>8}",
        "samples",
        "technique",
        "label",
        "acc",
        "mae",
        "interest"
    );

    for n_samples in [50usize, 100, 250, 500, 1000] {
        let evaluator = Evaluator::new(EvalConfig { n_samples, ..base });
        let r = evaluator.evaluate_dataset(id);
        for lr in [&r.matching, &r.non_matching] {
            for t in &lr.techniques {
                if t.technique == ExplainerKind::MojitoCopy && lr.label {
                    continue; // the paper reports Copy on non-matching only
                }
                bench::outln!(
                    "{:<8} {:<12} {:>12} {:>8.3} {:>8.3} {:>8.3}",
                    n_samples,
                    t.technique.label(),
                    if lr.label { "match" } else { "non-match" },
                    t.token.accuracy,
                    t.token.mae,
                    t.interest
                );
            }
        }
        bench::outln!();
    }
    bench::outln!("Expected: MAE decreases and stabilizes with budget; beyond ~500 samples");
    bench::outln!("(the paper's LIME default) additional perturbations buy little fidelity.");
}
