//! One-pass reproduction report: evaluates every dataset once and prints
//! Tables 1-4 together, each followed by the shape the paper reports.
//! The explanations are shared across the three evaluations:
//!
//! * Table 2, token-based reliability: remove 25% of the explained
//!   tokens and compare the black-box probability shift with the
//!   surrogate's coefficient sum (accuracy on the predicted class and
//!   MAE), for Single / Double / LIME, plus Mojito Copy on the
//!   non-matching label;
//! * Table 3, attribute-based reliability: weighted Kendall tau between
//!   the logistic-regression model's attribute ranking (|coefficient|
//!   per attribute) and the surrogate's (sum of |token weights| per
//!   attribute);
//! * Table 4, interest: remove all positive tokens (matching label) or
//!   all negative tokens (non-matching label) and measure the fraction
//!   of records whose predicted class flips.
//!
//! `table1` prints Table 1 alone without running any explainer.
//!
//! Run with: `cargo run --release -p bench --bin report`
//! Paper-scale: `SCALE=1.0 RECORDS=100 SAMPLES=500 cargo run --release -p bench --bin report`

use em_datagen::MagellanBenchmark;
use em_eval::tables::{format_table1, format_table2, format_table3, format_table4};
use em_eval::Evaluator;

fn main() {
    let config = bench::config_from_env();
    let datasets = bench::datasets_from_env();
    bench::print_banner("Full reproduction report (Tables 1-4)", &config, &datasets);

    let benchmark = MagellanBenchmark {
        scale: config.scale,
        ..Default::default()
    };
    let rows: Vec<_> = datasets
        .iter()
        .map(|&id| {
            let d = benchmark.generate(id);
            (id, d.len(), d.match_percentage())
        })
        .collect();
    println!("{}", format_table1(&rows));

    let evaluator = Evaluator::new(config);
    let mut results = Vec::new();
    for id in &datasets {
        eprintln!("evaluating {} ...", id.short_name());
        let r = evaluator.evaluate_dataset(*id);
        eprintln!(
            "  matcher F1 = {:.3} ({} match / {} non-match records explained)",
            r.matcher_f1, r.matching.n_records, r.non_matching.n_records
        );
        results.push(r);
    }

    println!("{}", format_table2(&results, true));
    println!("{}", format_table2(&results, false));
    println!("Expected shape (paper): on matching records Single beats LIME on accuracy");
    println!("everywhere and on MAE in 11/12 datasets; on non-matching records Double has");
    println!("the lowest MAE in most datasets and Mojito Copy collapses (accuracy ~0).\n");

    println!("{}", format_table3(&results, true));
    println!("{}", format_table3(&results, false));
    println!("Expected shape (paper): Landmark (especially Double on matching records)");
    println!("correlates with the EM model's attribute ranking at least as well as LIME;");
    println!("Mojito Copy is not consistently better despite being designed for non-matches.\n");

    println!("{}", format_table4(&results, true));
    println!("{}", format_table4(&results, false));
    println!("Expected shape (paper): on non-matching records Double far exceeds");
    println!("LIME/Mojito Drop and Mojito Copy; on matching records LIME is slightly ahead.\n");

    println!("Matcher F1 per dataset (diagnostic, not a paper table):");
    for r in &results {
        println!("  {:<7} F1 = {:.3}", r.dataset, r.matcher_f1);
    }
}
