//! String similarity and text utilities for entity matching.
//!
//! Entity-matching models compare attribute values across two entities;
//! this crate provides the classic similarity measures used to build such
//! models, all implemented from scratch:
//!
//! * character-based: [Levenshtein](mod@levenshtein), [Jaro / Jaro-Winkler](mod@jaro);
//! * token-set based: [Jaccard](token_sets);
//! * corpus-weighted: [TF-IDF vectorizer + cosine](tfidf);
//! * hybrid: [Monge-Elkan](mod@monge_elkan);
//! * [numeric similarity](numeric) for price-like attributes;
//! * [basic tokenization / normalization](tokens).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod intern;
pub mod jaro;
pub mod levenshtein;
pub mod monge_elkan;
pub mod numeric;
pub mod tfidf;
pub mod token_sets;
pub mod tokens;

pub use intern::Interner;
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_similarity};
pub use monge_elkan::monge_elkan;
pub use numeric::{numeric_similarity, numeric_value_similarity, parse_number};
pub use tfidf::{cosine_prepared, PreparedDoc, TfIdfVectorizer, TfIdfVectorizerBuilder};
pub use token_sets::jaccard;
pub use tokens::{normalize, whitespace_tokens};
