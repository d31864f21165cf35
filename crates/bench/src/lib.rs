//! Shared plumbing for the table-regenerating binaries and the
//! performance reports.
//!
//! Every binary reads these environment variables so the paper-scale runs
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
//!
//! A value that does not parse, a `SCALE` outside `(0, 1]`, a `RECORDS`
//! or `SAMPLES` of 0 or an unknown dataset name exits with status 2
//! naming the variable, so a typo never measures another input.
//!
//! The speedup reports share [`median`], and `perf_gate` checks with
//! [`same_input`] that a fresh report and its baseline measured the same
//! input.
//!
//! Every binary prints its report with [`outln!`] and [`out!`], which
//! write through [`write_report`]: when the reader closes the pipe early
//! (`report | head -1`) the binary ends quietly with status 0, and any
//! other failure to write still panics.

#![forbid(unsafe_code)]

use std::fmt;
use std::io::{ErrorKind, Write};

use em_codec::Value;
use em_datagen::DatasetId;
use em_eval::EvalConfig;

/// The reader of a report went away: its standard output is a pipe whose
/// other end closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderGone;

/// Writes `args` to `sink`: [`ReaderGone`] when the write fails with
/// [`ErrorKind::BrokenPipe`], and a panic naming any other failure, as
/// `println!` gives.
pub fn write_report<W: Write + ?Sized>(
    sink: &mut W,
    args: fmt::Arguments<'_>,
) -> Result<(), ReaderGone> {
    match sink.write_fmt(args) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ReaderGone),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Writes `args` to standard output through [`write_report`], and ends
/// the process with status 0 and no message once the reader is gone:
/// nothing is left to report to.
pub fn print_report(args: fmt::Arguments<'_>) {
    if write_report(&mut std::io::stdout().lock(), args).is_err() {
        std::process::exit(0);
    }
}

/// `print!` for reports, through [`print_report`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::print_report(format_args!($($arg)*))
    };
}

/// `println!` for reports, through [`print_report`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_report(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::print_report(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One environment variable's value, `None` when it is unset.
#[expect(
    clippy::disallowed_methods,
    reason = "bench binaries are configured from the environment; the values choose what to measure, never an explanation byte"
)]
fn env(key: &str) -> Option<String> {
    std::env::var(key).ok()
}

/// Exits with status 2 on a malformed variable, naming it.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Parses variable `key`: `default` when it is unset, an error naming
/// the variable and its value when it does not parse.
fn parse_var<T: std::str::FromStr>(
    lookup: &dyn Fn(&str) -> Option<String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match lookup(key) {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|_| format!("{key}={value:?} does not parse")),
    }
}

/// The experiment configuration the variables `lookup` gives select (see
/// the crate docs); the error names the first malformed variable.
fn parse_config(lookup: &dyn Fn(&str) -> Option<String>) -> Result<EvalConfig, String> {
    let scale = parse_var(lookup, "SCALE", 0.25f64)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("SCALE={scale} is outside (0, 1]"));
    }
    // No record or no sample leaves nothing to measure.
    let count = |key: &str, default: usize| match parse_var(lookup, key, default)? {
        0 => Err(format!("{key}=0 is below 1")),
        n => Ok(n),
    };
    Ok(EvalConfig {
        scale,
        n_records_per_label: count("RECORDS", 100)?,
        n_samples: count("SAMPLES", 500)?,
        threads: parse_var(lookup, "THREADS", 0usize)?,
        ..Default::default()
    })
}

/// Builds the experiment configuration from the environment. Exits with
/// status 2 on a malformed variable.
pub fn config_from_env() -> EvalConfig {
    or_exit(parse_config(&env))
}

/// Parses a comma-separated list of dataset short names. Empty entries
/// are skipped and an empty list selects all twelve; the error holds
/// [`DatasetId::parse`]'s message for every entry that is not a short
/// name, one per line.
pub fn parse_datasets(list: &str) -> Result<Vec<DatasetId>, String> {
    let mut chosen = Vec::new();
    let mut unknown = Vec::new();
    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        match DatasetId::parse(name) {
            Ok(id) => chosen.push(id),
            Err(msg) => unknown.push(msg),
        }
    }
    if !unknown.is_empty() {
        return Err(unknown.join("\n"));
    }
    if chosen.is_empty() {
        chosen = DatasetId::all().to_vec();
    }
    Ok(chosen)
}

/// The datasets selected by the `DATASETS` environment variable (all
/// twelve when unset). Exits with status 2 on an unknown name, so a typo
/// never measures another dataset.
pub fn datasets_from_env() -> Vec<DatasetId> {
    match env("DATASETS") {
        Some(list) => or_exit(parse_datasets(&list).map_err(|msg| format!("DATASETS: {msg}"))),
        None => DatasetId::all().to_vec(),
    }
}

/// Prints the banner every binary shows before running.
pub fn print_banner(table: &str, config: &EvalConfig, datasets: &[DatasetId]) {
    outln!(
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
    outln!("# (set SCALE=1.0 RECORDS=100 SAMPLES=500 for the full paper-scale run)\n");
}

/// The median of `xs` (the upper one for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The report fields that name a speedup report's input.
const INPUT_FIELDS: [&str; 3] = ["dataset", "records", "samples"];

/// Whether two speedup reports measured the same input: equal `dataset`,
/// `records` and `samples`. The error names every field that differs or
/// is missing, so a report is never gated against another input's
/// baseline.
pub fn same_input(baseline: &Value, current: &Value) -> Result<(), String> {
    let show = |v: Option<&Value>| v.map_or_else(|| "missing".to_string(), Value::to_json);
    let differing: Vec<String> = INPUT_FIELDS
        .iter()
        .filter_map(|&key| {
            let (b, c) = (baseline.get(key), current.get(key));
            match (b, c) {
                (Some(b), Some(c)) if b == c => None,
                _ => Some(format!("{key} {} vs {}", show(b), show(c))),
            }
        })
        .collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(differing.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose every write fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(self.0, "sink failed"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_report_line_reaches_a_working_sink() {
        let mut sink = Vec::new();
        assert_eq!(
            write_report(&mut sink, format_args!("{} {}\n", "speedup", 1.5)),
            Ok(())
        );
        assert_eq!(sink, b"speedup 1.5\n");
    }

    #[test]
    fn a_closed_pipe_means_the_reader_is_gone() {
        let mut sink = Failing(ErrorKind::BrokenPipe);
        assert_eq!(
            write_report(&mut sink, format_args!("line\n")),
            Err(ReaderGone)
        );
    }

    #[test]
    #[should_panic(expected = "failed printing to stdout")]
    fn any_other_write_failure_panics() {
        let mut sink = Failing(ErrorKind::PermissionDenied);
        let _ = write_report(&mut sink, format_args!("line\n"));
    }
    #[test]
    fn default_config_is_sane() {
        let c = config_from_env();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
        assert!(c.n_samples > 0);
    }

    /// Parses the config from fixed `KEY=value` pairs; the process
    /// environment is shared by every test, so it is never touched.
    fn config_of(vars: &[(&str, &str)]) -> Result<EvalConfig, String> {
        let lookup = |key: &str| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        parse_config(&lookup)
    }

    #[test]
    fn unset_variables_take_their_defaults() {
        let c = config_of(&[]).unwrap();
        assert_eq!(
            (c.scale, c.n_records_per_label, c.n_samples, c.threads),
            (0.25, 100, 500, 0)
        );
        let c = config_of(&[("SCALE", "1"), ("RECORDS", "3"), ("THREADS", "1")]).unwrap();
        assert_eq!(
            (c.scale, c.n_records_per_label, c.n_samples, c.threads),
            (1.0, 3, 500, 1)
        );
    }

    #[test]
    fn malformed_variables_are_named_not_replaced() {
        for (vars, expected) in [
            (vec![("SCALE", "0,05")], r#"SCALE="0,05" does not parse"#),
            (vec![("SAMPLES", "5OO")], r#"SAMPLES="5OO" does not parse"#),
            (vec![("RECORDS", "-1")], r#"RECORDS="-1" does not parse"#),
            (vec![("THREADS", "")], r#"THREADS="" does not parse"#),
            (vec![("SCALE", "0")], "SCALE=0 is outside (0, 1]"),
            (vec![("SCALE", "7")], "SCALE=7 is outside (0, 1]"),
            (vec![("SCALE", "NaN")], "SCALE=NaN is outside (0, 1]"),
            (vec![("RECORDS", "0")], "RECORDS=0 is below 1"),
            (vec![("SAMPLES", "0")], "SAMPLES=0 is below 1"),
        ] {
            assert_eq!(config_of(&vars).unwrap_err(), expected, "{vars:?}");
        }
    }

    #[test]
    fn dataset_filter_falls_back_to_all() {
        // No env var set in tests -> all twelve.
        assert_eq!(datasets_from_env().len(), 12);
        assert_eq!(parse_datasets("").unwrap().len(), 12);
    }

    #[test]
    fn dataset_filter_names_every_unknown_name() {
        assert_eq!(
            parse_datasets(" S-BR,T-AB,").unwrap(),
            vec![DatasetId::SBr, DatasetId::TAb]
        );
        let err = parse_datasets("S-FZZ,S-BR,T-AB.csv").unwrap_err();
        assert!(
            err.contains("\"S-FZZ\"") && err.contains("\"T-AB.csv\""),
            "{err}"
        );
        assert!(!err.contains("\"S-BR\""), "{err}");
    }

    fn report(dataset: &str, records: usize, samples: usize) -> Value {
        Value::object(vec![
            ("dataset", Value::string(dataset)),
            ("records", records.into()),
            ("samples", samples.into()),
            ("speedup", 20.0.into()),
        ])
    }

    #[test]
    fn reports_of_the_same_input_compare() {
        assert_eq!(
            same_input(&report("S-FZ", 12, 200), &report("S-FZ", 12, 200)),
            Ok(())
        );
    }

    #[test]
    fn reports_of_different_inputs_are_refused() {
        let base = report("S-FZ", 12, 200);
        let err = same_input(&base, &report("T-AB.csv", 12, 200)).unwrap_err();
        assert_eq!(err, "dataset \"S-FZ\" vs \"T-AB.csv\"");
        let err = same_input(&base, &report("S-FZ", 4, 80)).unwrap_err();
        assert_eq!(err, "records 12 vs 4, samples 200 vs 80");
        let err = same_input(&base, &Value::Object(Vec::new())).unwrap_err();
        assert!(err.contains("dataset \"S-FZ\" vs missing"), "{err}");
    }

    #[test]
    fn medians_pick_the_upper_middle_rank() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
