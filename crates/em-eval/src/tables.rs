//! Plain-text rendering of the paper's tables.

use em_datagen::DatasetId;
use landmark_core::ExplainerKind;

use crate::runner::{DatasetEvaluation, LabelResults, TechniqueResult};
use crate::technique::TECHNIQUES;

/// Renders Table 1 (the benchmark inventory) from generated datasets.
pub fn format_table1(rows: &[(DatasetId, usize, f64)]) -> String {
    let mut out = String::from(
        "Table 1: Magellan Benchmark (synthetic reproduction)\n\
         Dataset | Type       | Source              | Size   | % Match\n\
         --------+------------+---------------------+--------+--------\n",
    );
    for &(id, size, pct) in rows {
        out.push_str(&format!(
            "{:<7} | {:<10} | {:<19} | {:>6} | {:>6.2}\n",
            id.short_name(),
            id.dataset_type(),
            id.source_name(),
            size,
            pct
        ));
    }
    out
}

fn technique_result(label: &LabelResults, technique: ExplainerKind) -> &TechniqueResult {
    label
        .techniques
        .iter()
        .find(|t| t.technique == technique)
        .expect("all techniques evaluated")
}

/// Columns shown for a label in Tables 2 and 4: the paper reports Mojito
/// Copy (the last technique) only for the non-matching label.
fn columns_for(label_is_match: bool) -> &'static [ExplainerKind] {
    if label_is_match {
        &TECHNIQUES[..3]
    } else {
        &TECHNIQUES
    }
}

/// Renders one sub-table of Table 2 (token-based evaluation).
pub fn format_table2(results: &[DatasetEvaluation], label_is_match: bool) -> String {
    let techniques = columns_for(label_is_match);
    let mut out = format!(
        "Table 2{}: Token-based evaluation — {} label\n",
        if label_is_match { "a" } else { "b" },
        if label_is_match {
            "matching"
        } else {
            "non-matching"
        }
    );
    out.push_str("Dataset");
    for t in techniques {
        out.push_str(&format!(" | {:>11} Acc  MAE ", t.label()));
    }
    out.push('\n');
    for r in results {
        let lr = if label_is_match {
            &r.matching
        } else {
            &r.non_matching
        };
        out.push_str(&format!("{:<7}", r.dataset));
        for t in techniques {
            let tr = technique_result(lr, *t);
            out.push_str(&format!(
                " | {:>10} {:.3} {:.3}",
                "", tr.token.accuracy, tr.token.mae
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders one sub-table of Table 3 (attribute-based evaluation).
pub fn format_table3(results: &[DatasetEvaluation], label_is_match: bool) -> String {
    let techniques = columns_for(label_is_match);
    let mut out = format!(
        "Table 3{}: Attribute-based evaluation (weighted Kendall tau) — {} label\n",
        if label_is_match { "a" } else { "b" },
        if label_is_match {
            "matching"
        } else {
            "non-matching"
        }
    );
    out.push_str("Dataset");
    for t in techniques {
        out.push_str(&format!(" | {:>11}", t.label()));
    }
    out.push('\n');
    for r in results {
        let lr = if label_is_match {
            &r.matching
        } else {
            &r.non_matching
        };
        out.push_str(&format!("{:<7}", r.dataset));
        for t in techniques {
            out.push_str(&format!(" | {:>11.3}", technique_result(lr, *t).attr_tau));
        }
        out.push('\n');
    }
    out
}

/// Renders one sub-table of Table 4 (interest evaluation).
pub fn format_table4(results: &[DatasetEvaluation], label_is_match: bool) -> String {
    let techniques = columns_for(label_is_match);
    let mut out = format!(
        "Table 4{}: Interest of the explanations — {} label\n",
        if label_is_match { "a" } else { "b" },
        if label_is_match {
            "matching"
        } else {
            "non-matching"
        }
    );
    out.push_str("Dataset");
    for t in techniques {
        out.push_str(&format!(" | {:>11}", t.label()));
    }
    out.push('\n');
    for r in results {
        let lr = if label_is_match {
            &r.matching
        } else {
            &r.non_matching
        };
        out.push_str(&format!("{:<7}", r.dataset));
        for t in techniques {
            out.push_str(&format!(" | {:>11.3}", technique_result(lr, *t).interest));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_eval::TokenEvalResult;

    fn fake_eval(name: &str) -> DatasetEvaluation {
        let mk_label = |label: bool| LabelResults {
            label,
            n_records: 10,
            techniques: TECHNIQUES
                .into_iter()
                .map(|technique| TechniqueResult {
                    technique,
                    token: TokenEvalResult {
                        accuracy: 0.9,
                        mae: 0.05,
                        n: 10,
                    },
                    attr_tau: 0.8,
                    interest: 0.6,
                })
                .collect(),
        };
        DatasetEvaluation {
            dataset: name.to_string(),
            size: 100,
            match_pct: 15.0,
            matcher_f1: 0.9,
            matching: mk_label(true),
            non_matching: mk_label(false),
        }
    }

    #[test]
    fn table1_contains_all_rows() {
        let rows: Vec<(DatasetId, usize, f64)> = DatasetId::all()
            .iter()
            .map(|&id| (id, id.spec().size, id.spec().match_pct))
            .collect();
        let s = format_table1(&rows);
        for id in DatasetId::all() {
            assert!(s.contains(id.short_name()), "{s}");
        }
        assert!(
            s.contains("28707")
                || s.contains(" 28707")
                || s.contains("28,707")
                || s.contains("28707")
        );
    }

    #[test]
    fn table2_matching_omits_mojito_copy() {
        let s = format_table2(&[fake_eval("S-BR")], true);
        assert!(!s.contains("Mojito Copy"));
        assert!(s.contains("Single"));
        assert!(s.contains("0.900"));
    }

    #[test]
    fn table2_non_matching_includes_mojito_copy() {
        let s = format_table2(&[fake_eval("S-BR")], false);
        assert!(s.contains("Mojito Copy"));
    }

    #[test]
    fn table3_and_table4_render_values() {
        let evals = [fake_eval("S-IA")];
        let t3 = format_table3(&evals, false);
        assert!(t3.contains("0.800"));
        let t4 = format_table4(&evals, true);
        assert!(t4.contains("0.600"));
        assert!(t4.contains("S-IA"));
    }
}
