//! The entity-matching data model.
//!
//! An EM dataset record describes a **pair** of entities with a shared
//! schema: each logical attribute (e.g. `name`) appears twice, once per
//! entity (`left_name`, `right_name`). This crate provides:
//!
//! * [`Schema`] — the logical attribute list shared by both entities;
//! * [`Entity`] — one entity's attribute values;
//! * [`EntityPair`] / [`LabeledPair`] — the record to classify / explain;
//! * [`EmDataset`] — a labeled collection with split / sampling helpers;
//! * [`Masks`] — a record's perturbation masks as one flat `n × d` matrix;
//! * the [prefix tokenizer](tokenizer) of the paper (Section 3.1): one token
//!   per space-separated term, prefixed with the attribute and an
//!   occurrence index so that duplicate words stay distinguishable;
//! * the [`MatchModel`] trait implemented by every EM model in the
//!   workspace and consumed by every explainer.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod csv;
pub mod dataset;
pub mod entity;
pub mod masks;
pub mod model;
pub mod pair;
pub mod prepared;
pub mod schema;
pub mod tokenizer;

pub use csv::{dataset_from_csv, dataset_from_reader, dataset_to_csv, CsvError, CsvRecords};
pub use dataset::EmDataset;
pub use entity::{Entity, UnknownAttribute};
pub use masks::Masks;
pub use model::{MatchModel, MATCH_THRESHOLD};
pub use pair::{EntityPair, EntitySide, LabeledPair};
pub use prepared::{
    FallbackRecord, FallbackScorer, PerturbSpec, PreparedRecord, PreparedScorer, SideSpec,
};
pub use schema::Schema;
pub use tokenizer::{detokenize, tokenize_entity, tokenize_pair, Token};
