//! CSV import / export for EM datasets — no external dependencies.
//!
//! The Magellan benchmark ships records as CSV with paired columns
//! (`left_<attr>`, `right_<attr>`) plus a `label` column. This module
//! parses that layout so the library can run on the *real* datasets when
//! they are available, not only on the synthetic benchmark:
//!
//! ```text
//! label,left_name,left_price,right_name,right_price
//! 0,"sony camera",849.99,"nikon case",7.99
//! ```
//!
//! The parser implements RFC-4180-style quoting: fields may be wrapped in
//! double quotes, quoted fields may contain commas and newlines, and `""`
//! inside a quoted field is an escaped quote. [`dataset_from_reader`] is
//! the one import path: text in memory reads through `text.as_bytes()`.

use crate::dataset::EmDataset;
use crate::entity::Entity;
use crate::pair::{EntityPair, LabeledPair};
use crate::schema::Schema;
use std::io::BufRead;

/// Errors from CSV import.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// The header lacks a `label` column.
    MissingLabel,
    /// A `left_x` column has no `right_x` partner (or vice versa).
    UnpairedColumn(String),
    /// No paired attribute columns were found at all.
    NoAttributes,
    /// A data row has the wrong number of fields.
    RowWidth {
        /// 1-based row number (header = row 1).
        row: usize,
        /// Expected field count.
        expected: usize,
        /// Actual field count.
        actual: usize,
    },
    /// A label value was not parseable as a boolean.
    BadLabel {
        /// 1-based row number.
        row: usize,
        /// The offending value.
        value: String,
    },
    /// A quoted field was never closed.
    UnterminatedQuote,
    /// The underlying reader failed (streaming import only).
    Io(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "missing header row"),
            CsvError::MissingLabel => write!(f, "missing 'label' column"),
            CsvError::UnpairedColumn(c) => write!(f, "column {c:?} has no left/right partner"),
            CsvError::NoAttributes => write!(f, "no left_/right_ attribute columns found"),
            CsvError::RowWidth {
                row,
                expected,
                actual,
            } => {
                write!(f, "row {row}: expected {expected} fields, got {actual}")
            }
            CsvError::BadLabel { row, value } => write!(f, "row {row}: bad label {value:?}"),
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits CSV text into records of fields, honoring quotes.
fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Swallow; \r\n handled by the \n branch.
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Streaming iterator over CSV records read from any [`BufRead`] source.
///
/// Yields one `Vec<String>` of fields per record without ever holding the
/// whole input in memory at once. Physical lines are accumulated until the
/// running count of `"` characters is even — an odd count means a quoted
/// field spans the newline — then the completed record is parsed with the
/// quoting rules above, CRLF endings and a final record with no trailing
/// newline included.
pub struct CsvRecords<R: BufRead> {
    reader: R,
    done: bool,
}

impl<R: BufRead> std::fmt::Debug for CsvRecords<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvRecords")
            .field("done", &self.done)
            .finish()
    }
}

impl<R: BufRead> CsvRecords<R> {
    /// Wraps a buffered reader for record-by-record iteration.
    pub fn new(reader: R) -> Self {
        CsvRecords {
            reader,
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for CsvRecords<R> {
    type Item = Result<Vec<String>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut buf = String::new();
        let mut quotes = 0usize;
        loop {
            let before = buf.len();
            match self.reader.read_line(&mut buf) {
                Ok(0) => {
                    self.done = true;
                    if buf.is_empty() {
                        return None;
                    }
                    if quotes % 2 == 1 {
                        return Some(Err(CsvError::UnterminatedQuote));
                    }
                    break;
                }
                Ok(_) => {
                    quotes += buf[before..].bytes().filter(|&b| b == b'"').count();
                    if quotes.is_multiple_of(2) {
                        break;
                    }
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(CsvError::Io(e.to_string())));
                }
            }
        }
        match parse_csv(&buf) {
            // `buf` is non-empty with balanced quotes, so the state machine
            // always produces exactly one record.
            Ok(mut rows) => rows.pop().map(Ok),
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Quotes a field if needed and appends it to `out`.
fn write_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Parses an EM dataset from a buffered reader, streaming record by record.
///
/// Requirements: a header row containing a `label` column and pairs of
/// `left_<attr>` / `right_<attr>` columns. Column order is free; extra
/// columns (e.g. `id`) are ignored. Labels accept `0/1`, `true/false`
/// (any case). Every attribute is a Name attribute
/// ([`Schema::from_names`]). Reader failures (including invalid UTF-8)
/// surface as [`CsvError::Io`].
pub fn dataset_from_reader<R: BufRead>(name: &str, reader: R) -> Result<EmDataset, CsvError> {
    let rows = CsvRecords::new(reader).collect::<Result<Vec<_>, _>>()?;
    let Some((header, data)) = rows.split_first() else {
        return Err(CsvError::MissingHeader);
    };

    let label_idx = header
        .iter()
        .position(|h| h.trim().eq_ignore_ascii_case("label"))
        .ok_or(CsvError::MissingLabel)?;

    // Collect attributes in left-column order.
    let mut attrs: Vec<(String, usize, usize)> = Vec::new(); // (name, left idx, right idx)
    for (i, h) in header.iter().enumerate() {
        let h = h.trim();
        if let Some(attr) = h.strip_prefix("left_") {
            let right = header
                .iter()
                .position(|o| o.trim() == format!("right_{attr}"))
                .ok_or_else(|| CsvError::UnpairedColumn(h.to_string()))?;
            attrs.push((attr.to_string(), i, right));
        }
    }
    // Any right_ column without a partner?
    for h in header.iter() {
        let h = h.trim();
        if let Some(attr) = h.strip_prefix("right_") {
            if !attrs.iter().any(|(a, _, _)| a == attr) {
                return Err(CsvError::UnpairedColumn(h.to_string()));
            }
        }
    }
    if attrs.is_empty() {
        return Err(CsvError::NoAttributes);
    }

    let schema = Schema::from_names(attrs.iter().map(|(a, _, _)| a.clone()).collect());
    let mut records = Vec::with_capacity(data.len());
    for (row_no, row) in data.iter().enumerate() {
        if row.len() == 1 && row[0].trim().is_empty() {
            continue; // trailing blank line
        }
        if row.len() != header.len() {
            return Err(CsvError::RowWidth {
                row: row_no + 2,
                expected: header.len(),
                actual: row.len(),
            });
        }
        let label = match row[label_idx].trim().to_ascii_lowercase().as_str() {
            "1" | "true" => true,
            "0" | "false" => false,
            other => {
                return Err(CsvError::BadLabel {
                    row: row_no + 2,
                    value: other.to_string(),
                })
            }
        };
        let left = Entity::new(
            attrs
                .iter()
                .map(|&(_, l, _)| row[l].clone())
                .collect::<Vec<_>>(),
        );
        let right = Entity::new(
            attrs
                .iter()
                .map(|&(_, _, r)| row[r].clone())
                .collect::<Vec<_>>(),
        );
        records.push(LabeledPair::new(EntityPair::new(left, right), label));
    }
    Ok(EmDataset::new(name, schema, records))
}

/// Serializes a dataset to CSV text in the layout [`dataset_from_reader`]
/// reads (`label` first, then `left_*` columns, then `right_*` columns).
pub fn dataset_to_csv(dataset: &EmDataset) -> String {
    let schema = dataset.schema();
    let mut out = String::from("label");
    for side in ["left", "right"] {
        for i in 0..schema.len() {
            out.push(',');
            out.push_str(&format!("{side}_{}", schema.name(i)));
        }
    }
    out.push('\n');
    for r in dataset.records() {
        out.push_str(if r.label { "1" } else { "0" });
        for entity in [&r.pair.left, &r.pair.right] {
            for i in 0..schema.len() {
                out.push(',');
                write_field(&mut out, entity.value(i));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "label,left_name,left_price,right_name,right_price\n\
                          0,sony camera,849.99,nikon case,7.99\n\
                          1,\"alpha, deluxe\",10,alpha deluxe,10\n";

    #[test]
    fn parses_simple_dataset() {
        let d = dataset_from_reader("t", SIMPLE.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.schema().len(), 2);
        assert_eq!(d.schema().name(0), "name");
        assert_eq!(d.records()[0].pair.left.value(0), "sony camera");
        assert!(!d.records()[0].label);
        assert!(d.records()[1].label);
    }

    #[test]
    fn quoted_fields_keep_commas_and_quotes() {
        let d = dataset_from_reader("t", SIMPLE.as_bytes()).unwrap();
        assert_eq!(d.records()[1].pair.left.value(0), "alpha, deluxe");
        let csv = "label,left_a,right_a\n0,\"he said \"\"hi\"\"\",x\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.records()[0].pair.left.value(0), "he said \"hi\"");
    }

    #[test]
    fn quoted_newlines_survive() {
        let csv = "label,left_a,right_a\n0,\"line1\nline2\",x\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.records()[0].pair.left.value(0), "line1\nline2");
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let csv = "label,left_a,right_a\r\n1,x,y\r\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.records()[0].label);
    }

    #[test]
    fn extra_columns_are_ignored() {
        let csv = "id,label,left_a,right_a\n42,0,x,y\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.schema().len(), 1);
        assert_eq!(d.records()[0].pair.right.value(0), "y");
    }

    #[test]
    fn missing_label_column_errors() {
        let csv = "left_a,right_a\nx,y\n";
        assert_eq!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::MissingLabel
        );
    }

    #[test]
    fn unpaired_columns_error() {
        let csv = "label,left_a,right_b\n0,x,y\n";
        assert!(matches!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::UnpairedColumn(_)
        ));
    }

    #[test]
    fn no_attributes_errors() {
        let csv = "label,id\n0,1\n";
        assert_eq!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::NoAttributes
        );
    }

    #[test]
    fn bad_row_width_errors_with_row_number() {
        let csv = "label,left_a,right_a\n0,x\n";
        assert_eq!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::RowWidth {
                row: 2,
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn bad_label_errors() {
        let csv = "label,left_a,right_a\nmaybe,x,y\n";
        assert!(matches!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::BadLabel { .. }
        ));
    }

    #[test]
    fn unterminated_quote_errors() {
        assert_eq!(parse_csv("a,\"b").unwrap_err(), CsvError::UnterminatedQuote);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            dataset_from_reader("t", "".as_bytes()).unwrap_err(),
            CsvError::MissingHeader
        );
    }

    #[test]
    fn true_false_labels_accepted() {
        let csv = "label,left_a,right_a\nTRUE,x,y\nFalse,u,v\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert!(d.records()[0].label);
        assert!(!d.records()[1].label);
    }

    #[test]
    fn reader_matches_in_memory_parse() {
        // A one-byte buffer splits every line and quoted field across
        // reads; the whole text in memory splits none.
        let small = std::io::BufReader::with_capacity(1, SIMPLE.as_bytes());
        let d = dataset_from_reader("t", small).unwrap();
        let e = dataset_from_reader("t", SIMPLE.as_bytes()).unwrap();
        assert_eq!(d.records(), e.records());
        assert_eq!(d.schema(), e.schema());
    }

    #[test]
    fn reader_handles_crlf_line_endings() {
        let csv = "label,left_a,right_a\r\n1,x,y\r\n0,u,v\r\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.records()[0].label);
        assert_eq!(d.records()[1].pair.right.value(0), "v");
    }

    #[test]
    fn reader_handles_final_record_without_trailing_newline() {
        let csv = "label,left_a,right_a\n1,x,y\n0,last,field";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.records()[1].pair.left.value(0), "last");
        assert_eq!(d.records()[1].pair.right.value(0), "field");
    }

    #[test]
    fn reader_streams_quoted_newlines_across_lines() {
        let csv = "label,left_a,right_a\n0,\"line1\nline2\",x\n";
        let d = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.records()[0].pair.left.value(0), "line1\nline2");
    }

    #[test]
    fn reader_reports_unterminated_quote_at_eof() {
        let csv = "label,left_a,right_a\n0,\"open,x";
        assert_eq!(
            dataset_from_reader("t", csv.as_bytes()).unwrap_err(),
            CsvError::UnterminatedQuote
        );
    }

    #[test]
    fn reader_surfaces_io_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let reader = std::io::BufReader::new(Failing);
        assert!(matches!(
            dataset_from_reader("t", reader).unwrap_err(),
            CsvError::Io(_)
        ));
    }

    #[test]
    fn csv_records_iterates_raw_records() {
        let csv = "a,b\n\"x\ny\",z";
        let recs: Vec<_> = CsvRecords::new(csv.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["x\ny", "z"]]);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = dataset_from_reader("t", SIMPLE.as_bytes()).unwrap();
        let csv = dataset_to_csv(&d);
        let back = dataset_from_reader("t", csv.as_bytes()).unwrap();
        assert_eq!(d.records(), back.records());
        assert_eq!(d.schema(), back.schema());
    }

    #[test]
    fn roundtrip_with_tricky_values() {
        let schema = Schema::from_names(vec!["a"]);
        let pair = EntityPair::new(
            Entity::new(vec!["comma, \"quote\"\nnewline"]),
            Entity::new(vec![""]),
        );
        let d = EmDataset::new("t", schema, vec![LabeledPair::new(pair, true)]);
        let back = dataset_from_reader("t", dataset_to_csv(&d).as_bytes()).unwrap();
        assert_eq!(back.records(), d.records());
    }
}
