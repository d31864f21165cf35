//! The paper's Section 4.2.1 / 4.3 threshold note: with the decision
//! threshold moved from 0.5 to 0.4, Landmark Explanation's token-based
//! accuracy and interest improve relative to LIME.
//!
//! Sweeps the threshold over {0.3, 0.4, 0.5, 0.6} on a subset of datasets
//! and prints accuracy / interest per technique.
//!
//! Run with: `cargo run --release -p bench --bin threshold_sweep`

use em_eval::{EvalConfig, Evaluator};

fn main() {
    let base = bench::config_from_env();
    let datasets = bench::datasets_from_env();
    bench::print_banner("Threshold sweep (Sections 4.2.1, 4.3)", &base, &datasets);

    for threshold in [0.3, 0.4, 0.5, 0.6] {
        bench::outln!("== threshold {threshold} ==");
        let evaluator = Evaluator::new(EvalConfig { threshold, ..base });
        for &id in &datasets {
            let r = evaluator.evaluate_dataset(id);
            bench::out!("{:<7}", r.dataset);
            for lr in [&r.matching, &r.non_matching] {
                let tag = if lr.label { "M" } else { "N" };
                for t in &lr.techniques {
                    bench::out!(
                        "  {tag}/{}: acc={:.2} int={:.2}",
                        t.technique.label().chars().next().unwrap_or('?'),
                        t.token.accuracy,
                        t.interest
                    );
                }
            }
            bench::outln!();
        }
        bench::outln!();
    }
}
