//! Plain-text serialization of trained logistic matchers.
//!
//! A production EM service trains once and scores many times; this module
//! persists the model parameters (not the TF-IDF corpus statistics, which
//! are refit from data) in a simple line-oriented format with no external
//! dependencies:
//!
//! ```text
//! landmark-logistic-matcher v1
//! intercept <f64>
//! coefficient <attr-name> <f64>
//! ...
//! ```

use em_entity::Schema;
use em_linalg::logistic::LogisticModel;

/// Errors from model deserialization.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line did not parse.
    BadLine(usize),
    /// The serialized attributes do not match the schema.
    SchemaMismatch {
        /// What the file listed.
        found: Vec<String>,
        /// What the schema expects.
        expected: Vec<String>,
    },
    /// No intercept line.
    MissingIntercept,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "bad or missing header"),
            PersistError::BadLine(n) => write!(f, "unparseable line {n}"),
            PersistError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "schema mismatch: file has {found:?}, expected {expected:?}"
                )
            }
            PersistError::MissingIntercept => write!(f, "missing intercept line"),
        }
    }
}

impl std::error::Error for PersistError {}

const HEADER: &str = "landmark-logistic-matcher v1";

/// Serializes logistic-model parameters against a schema.
pub fn serialize_logistic(model: &LogisticModel, schema: &Schema) -> String {
    assert_eq!(
        model.coefficients.len(),
        schema.len(),
        "one coefficient per attribute"
    );
    let mut out = String::from(HEADER);
    out.push('\n');
    out.push_str(&format!("intercept {}\n", model.intercept));
    for (i, c) in model.coefficients.iter().enumerate() {
        out.push_str(&format!("coefficient {} {}\n", schema.name(i), c));
    }
    out
}

/// Deserializes logistic-model parameters, validating attribute names
/// against `schema` (order-sensitive).
pub fn deserialize_logistic(text: &str, schema: &Schema) -> Result<LogisticModel, PersistError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(PersistError::BadHeader),
    }
    let mut intercept: Option<f64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut coefficients: Vec<f64> = Vec::new();
    for (n, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("intercept") => {
                let v = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(PersistError::BadLine(n + 1))?;
                intercept = Some(v);
            }
            Some("coefficient") => {
                let name = parts.next().ok_or(PersistError::BadLine(n + 1))?;
                let v: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(PersistError::BadLine(n + 1))?;
                names.push(name.to_string());
                coefficients.push(v);
            }
            _ => return Err(PersistError::BadLine(n + 1)),
        }
    }
    let expected: Vec<String> = schema.iter().map(|a| a.name.clone()).collect();
    if names != expected {
        return Err(PersistError::SchemaMismatch {
            found: names,
            expected,
        });
    }
    Ok(LogisticModel {
        intercept: intercept.ok_or(PersistError::MissingIntercept)?,
        coefficients,
        iterations: 0,
    })
}

/// Errors from loading a model file: I/O or parse.
#[derive(Debug)]
pub enum PersistFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file contents did not deserialize.
    Parse(PersistError),
}

impl std::fmt::Display for PersistFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistFileError::Io(e) => write!(f, "model file i/o: {e}"),
            PersistFileError::Parse(e) => write!(f, "model file parse: {e}"),
        }
    }
}

impl std::error::Error for PersistFileError {}

/// Writes the serialized model parameters to `path`.
pub fn save_logistic_file(
    path: &std::path::Path,
    model: &LogisticModel,
    schema: &Schema,
) -> Result<(), PersistFileError> {
    std::fs::write(path, serialize_logistic(model, schema)).map_err(PersistFileError::Io)
}

/// Reads and deserializes model parameters from `path`, validating against
/// `schema`. This is how the `em-serve` binary loads a pre-trained matcher
/// instead of training at startup.
pub fn load_logistic_file(
    path: &std::path::Path,
    schema: &Schema,
) -> Result<LogisticModel, PersistFileError> {
    let text = std::fs::read_to_string(path).map_err(PersistFileError::Io)?;
    deserialize_logistic(&text, schema).map_err(PersistFileError::Parse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_names(vec!["name", "price"])
    }

    fn model() -> LogisticModel {
        LogisticModel {
            intercept: -1.25,
            coefficients: vec![3.5, 0.75],
            iterations: 42,
        }
    }

    #[test]
    fn roundtrip_preserves_parameters() {
        let text = serialize_logistic(&model(), &schema());
        let back = deserialize_logistic(&text, &schema()).unwrap();
        assert_eq!(back.intercept, -1.25);
        assert_eq!(back.coefficients, vec![3.5, 0.75]);
    }

    #[test]
    fn roundtrip_preserves_extreme_values() {
        let m = LogisticModel {
            intercept: 1e-300,
            coefficients: vec![-1e10, std::f64::consts::PI],
            iterations: 0,
        };
        let back = deserialize_logistic(&serialize_logistic(&m, &schema()), &schema()).unwrap();
        assert_eq!(back.intercept, 1e-300);
        assert_eq!(back.coefficients, m.coefficients);
    }

    #[test]
    fn bad_header_is_rejected() {
        assert_eq!(
            deserialize_logistic("something else\n", &schema()).unwrap_err(),
            PersistError::BadHeader
        );
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = serialize_logistic(&model(), &schema());
        let other = Schema::from_names(vec!["title", "price"]);
        assert!(matches!(
            deserialize_logistic(&text, &other).unwrap_err(),
            PersistError::SchemaMismatch { .. }
        ));
    }

    #[test]
    fn reordered_coefficients_are_rejected() {
        let text = format!("{HEADER}\nintercept 0\ncoefficient price 1\ncoefficient name 2\n");
        assert!(matches!(
            deserialize_logistic(&text, &schema()).unwrap_err(),
            PersistError::SchemaMismatch { .. }
        ));
    }

    #[test]
    fn garbage_line_is_rejected_with_its_number() {
        let text = format!("{HEADER}\nintercept 0\nwat\n");
        assert_eq!(
            deserialize_logistic(&text, &schema()).unwrap_err(),
            PersistError::BadLine(3)
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory: the path never reaches an output byte"
    )]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join("em-matchers-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save_logistic_file(&path, &model(), &schema()).unwrap();
        let back = load_logistic_file(&path, &schema()).unwrap();
        assert_eq!(back.coefficients, model().coefficients);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_logistic_file(&path, &schema()).unwrap_err(),
            PersistFileError::Io(_)
        ));
    }

    #[test]
    fn missing_intercept_is_rejected() {
        let text = format!("{HEADER}\ncoefficient name 1\ncoefficient price 2\n");
        assert_eq!(
            deserialize_logistic(&text, &schema()).unwrap_err(),
            PersistError::MissingIntercept
        );
    }
}
