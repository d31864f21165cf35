//! The prepared-record scoring kernel for the feature-based matchers
//! (DESIGN.md §11).
//!
//! Perturbation explainers score hundreds of masked variants of one
//! record. The naive path pays full price per mask: rebuild an
//! `EntityPair`, re-split and re-normalize every attribute value, rebuild
//! TF-IDF maps, recompute every Jaro-Winkler distance. But almost all of
//! that work is mask-invariant: the token set is fixed (masks only toggle
//! membership), the landmark side never changes, and every pairwise
//! Jaro-Winkler value is drawn from a fixed matrix. This module hoists the
//! mask-invariant work into preparation and scores each mask with integer
//! id merges over reusable buffers.
//!
//! Preparation has two levels. A [`MatcherRecord`] holds the state that
//! depends on the record alone — its interned tokens, their IDF values
//! and characters, each value's ids, and per Name attribute one
//! Jaro-Winkler value per distinct pair of its tokens — built once on
//! first use and shared by the record's own
//! prediction and every perturbation family of it: every token a family
//! perturbs is a token of the record. Each family's scorer then builds
//! only its own layout on top: per-side state, the Name probes and the
//! memo tables.
//!
//! Each attribute's similarity reads only the mask bits of that
//! attribute's own tokens, so a scorer also memoizes it per distinct
//! sub-mask of those bits: a view's hundreds of masks compute each
//! similarity at most 2^t times for an attribute with t varying tokens
//! (up to `MEMO_MAX_BITS`). A memo hit returns the `f64` an earlier
//! miss computed from the same bits, so it cannot change a result.
//!
//! **Bit-identity.** Every per-mask computation here replays the *exact*
//! floating-point operation sequence of
//! [`FeatureExtractor::extract`](crate::FeatureExtractor) on the
//! reconstructed pair:
//!
//! * interned token ids ascend in byte-lexicographic string order
//!   ([`Interner`]), so sorted-id merges visit (and sum) entries in the
//!   same order as the sorted-string merges of the naive TF-IDF path;
//! * Jaccard counts are integers either way; the final division uses the
//!   same two casts;
//! * Monge-Elkan gives each kept position its best Jaro-Winkler match:
//!   a maximum stored at prepare time when the other side is fixed, or an
//!   elementwise max over the other side's kept vectors of the
//!   precomputed matrix (`NameProbe`). Either is the value the naive
//!   `f64::max` fold returns, and positions are summed in the same token
//!   order, an unkept one adding +0.0. A value read from the record's
//!   memo has the bits of the one computed for those two positions,
//!   because Jaro-Winkler is deterministic and bitwise symmetric;
//! * numeric parsing per token is equivalent to parsing the joined string
//!   (a space always flushes the current number fragment), and the blend /
//!   fallback helpers are shared functions, not re-implementations.
//!
//! The record's prediction is the family with both sides fixed, scored on
//! its one, empty, mask: reconstructing that family returns the pair
//! itself, and a fixed side reads the original values.
//!
//! The property suite (`tests/property_kernel.rs`) and the
//! `kernel_speedup` bench assert the resulting probabilities equal the
//! naive path's bit for bit.

use std::cell::{Cell, OnceCell};

use em_entity::prepared::{FallbackScorer, PerturbSpec, PreparedRecord, PreparedScorer, SideSpec};
use em_entity::schema::AttributeKind;
use em_entity::{EntityPair, EntitySide, MatchModel, Schema};
use em_text::intern::Interner;
use em_text::jaro::{jaro_winkler_chars, JaroScratch};
use em_text::tfidf::{cosine_prepared, PreparedDoc};
use em_text::tokens::{normalize, normalized_tokens};
use em_text::{levenshtein_similarity, numeric_value_similarity, parse_number};

use crate::features::{code_similarity_norm, combine_name, combine_text, FeatureExtractor};
use crate::logistic_matcher::LogisticMatcher;
use crate::naive_bayes::NaiveBayesMatcher;

/// Most mask bits one attribute's similarity may read and still get a
/// memo table. A table has a slot per sub-mask, 2^t for t bits, and is
/// allocated whole when the scorer is prepared, so the cap bounds it at
/// 16 KiB per attribute whatever the input. 2^10 slots are already about
/// twice a default view's 500 masks; past that most slots would be
/// allocated and never filled.
const MEMO_MAX_BITS: usize = 10;

/// Mask-invariant state for one side of one attribute.
#[derive(Debug)]
enum SideState<'a> {
    /// Frozen side: every value below is computed once and valid for all
    /// masks.
    Fixed {
        /// The original attribute value, exactly as `predict_proba` sees it.
        raw: &'a str,
        /// Normalized token ids, sorted ascending (Jaccard / TF-IDF form).
        sorted_ids: Vec<u32>,
        /// Prepared TF-IDF document.
        doc: PreparedDoc,
        /// `parse_number(raw)`.
        parsed: Option<f64>,
        /// `raw.trim().to_lowercase()` (Code-kind comparison form).
        code_norm: String,
    },
    /// Mask-varying side: per-token state, filtered by the mask per call.
    Varying {
        /// Global mask-bit index of each of this attribute's tokens, in
        /// token order.
        feat_idx: Vec<usize>,
        /// Raw token texts, in token order (joining kept texts with `' '`
        /// reproduces the detokenized attribute value).
        raw: Vec<&'a str>,
        /// `(local token index, normalized id)` for tokens whose
        /// normalization is non-empty, in token order — the Monge-Elkan
        /// sequence.
        norm_pos: Vec<(usize, u32)>,
        /// `parse_number(token)` per token, in token order.
        parsed: Vec<Option<f64>>,
        /// Lowercased token texts, in token order (Code-kind form).
        lower: Vec<String>,
    },
}

impl SideState<'_> {
    /// The global mask bits this side reads: none when fixed.
    fn bits(&self) -> &[usize] {
        match self {
            SideState::Fixed { .. } => &[],
            SideState::Varying { feat_idx, .. } => feat_idx,
        }
    }

    /// Collects the interned ids of the mask-surviving normalized tokens,
    /// sorted ascending (duplicates preserved).
    fn gather_norm(&self, mask: &[bool], ids: &mut Vec<u32>) {
        ids.clear();
        match self {
            SideState::Fixed { sorted_ids, .. } => {
                ids.extend_from_slice(sorted_ids);
            }
            SideState::Varying {
                feat_idx, norm_pos, ..
            } => {
                for (local, id) in norm_pos {
                    if mask[feat_idx[*local]] {
                        ids.push(*id);
                    }
                }
                ids.sort_unstable();
            }
        }
    }

    /// The global mask bit of each position of this side's Monge-Elkan
    /// sequence, or `None` for a fixed side.
    fn norm_bits(&self) -> Option<Vec<usize>> {
        match self {
            SideState::Fixed { .. } => None,
            SideState::Varying {
                feat_idx, norm_pos, ..
            } => Some(norm_pos.iter().map(|&(local, _)| feat_idx[local]).collect()),
        }
    }

    /// The prepared TF-IDF document for the mask-surviving tokens whose
    /// sorted ids are `sorted_ids` (from [`SideState::gather_norm`]).
    fn doc<'s>(
        &'s self,
        sorted_ids: &[u32],
        buf: &'s mut PreparedDoc,
        idf_by_id: &[f64],
    ) -> &'s PreparedDoc {
        match self {
            SideState::Fixed { doc, .. } => doc,
            SideState::Varying { .. } => {
                buf.rebuild_from_sorted_ids(sorted_ids, idf_by_id);
                buf
            }
        }
    }

    /// The numeric value `parse_number` would find in the reconstructed
    /// attribute value (equivalent per token because a space always
    /// flushes the current number fragment).
    fn numeric_value(&self, mask: &[bool]) -> Option<f64> {
        match self {
            SideState::Fixed { parsed, .. } => *parsed,
            SideState::Varying {
                feat_idx, parsed, ..
            } => {
                for (local, p) in parsed.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if let Some(v) = p {
                            return Some(*v);
                        }
                    }
                }
                None
            }
        }
    }

    /// The reconstructed raw attribute value (kept tokens joined by a
    /// space; the fixed side returns the original value by reference).
    fn raw_value<'s>(&'s self, mask: &[bool], buf: &'s mut String) -> &'s str {
        match self {
            SideState::Fixed { raw, .. } => raw,
            SideState::Varying { feat_idx, raw, .. } => {
                buf.clear();
                for (local, text) in raw.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if !buf.is_empty() {
                            buf.push(' ');
                        }
                        buf.push_str(text);
                    }
                }
                buf
            }
        }
    }

    /// The Code-kind comparison form of the reconstructed value
    /// (trimmed + lowercased; per-token lowercasing composes because
    /// `to_lowercase` maps code points independently and the joined value
    /// has no edge whitespace).
    fn code_value<'s>(&'s self, mask: &[bool], buf: &'s mut String) -> &'s str {
        match self {
            SideState::Fixed { code_norm, .. } => code_norm,
            SideState::Varying {
                feat_idx, lower, ..
            } => {
                buf.clear();
                for (local, text) in lower.iter().enumerate() {
                    if mask[feat_idx[local]] {
                        if !buf.is_empty() {
                            buf.push(' ');
                        }
                        buf.push_str(text);
                    }
                }
                buf
            }
        }
    }
}

/// Mask-invariant state for one attribute.
#[derive(Debug)]
struct AttrState<'a> {
    kind: AttributeKind,
    left: SideState<'a>,
    right: SideState<'a>,
    /// Name-kind only: the Jaro-Winkler state and Jaccard's id groups.
    /// Empty for other kinds.
    probe: NameProbe,
}

impl AttrState<'_> {
    /// Number of mask bits the similarity reads (both sides).
    fn n_bits(&self) -> usize {
        self.left.bits().len() + self.right.bits().len()
    }

    /// Whether the similarity reads few enough mask bits for a memo table
    /// ([`MEMO_MAX_BITS`]). Otherwise it is computed for every mask.
    fn memoized(&self) -> bool {
        self.n_bits() <= MEMO_MAX_BITS
    }

    /// The bits the similarity reads, packed into a memo slot index
    /// (left side's bits lowest, each side in token order).
    fn memo_index(&self, mask: &[bool]) -> usize {
        self.left
            .bits()
            .iter()
            .chain(self.right.bits())
            .enumerate()
            .fold(0, |index, (k, &bit)| index | usize::from(mask[bit]) << k)
    }

    /// The attribute's similarity on the reconstructed pair. It reads only
    /// the mask bits its sides' [`SideState::bits`] name, and `bufs` holds
    /// intermediates only, so it is a pure function of those bits.
    fn similarity(&self, mask: &[bool], bufs: &mut MaskBuffers, idf_by_id: &[f64]) -> f64 {
        match self.kind {
            AttributeKind::Name => {
                let jac = self.probe.jaccard(mask);
                let me = self.probe.monge_elkan(mask, bufs);
                combine_name(jac, me)
            }
            AttributeKind::Text => {
                self.left.gather_norm(mask, &mut bufs.l_ids);
                self.right.gather_norm(mask, &mut bufs.r_ids);
                let ld = self.left.doc(&bufs.l_ids, &mut bufs.l_doc, idf_by_id);
                let rd = self.right.doc(&bufs.r_ids, &mut bufs.r_doc, idf_by_id);
                let tfidf = cosine_prepared(ld, rd);
                let jac = jaccard_ids(&bufs.l_ids, &bufs.r_ids);
                combine_text(tfidf, jac)
            }
            AttributeKind::Numeric => {
                match (
                    self.left.numeric_value(mask),
                    self.right.numeric_value(mask),
                ) {
                    (Some(x), Some(y)) => numeric_value_similarity(x, y),
                    _ => {
                        let l = self.left.raw_value(mask, &mut bufs.l_str);
                        let r = self.right.raw_value(mask, &mut bufs.r_str);
                        levenshtein_similarity(l, r)
                    }
                }
            }
            AttributeKind::Code => {
                let l = self.left.code_value(mask, &mut bufs.l_str);
                let r = self.right.code_value(mask, &mut bufs.r_str);
                code_similarity_norm(l, r)
            }
        }
    }
}

/// Reusable buffers for one similarity computation.
#[derive(Debug, Default)]
struct MaskBuffers {
    /// Name only: the left side's kept position indices.
    l_idx: Vec<usize>,
    /// Name only: the right side's kept position indices.
    r_idx: Vec<usize>,
    /// Name only: the best matches of one side's positions.
    best: Vec<f64>,
    l_ids: Vec<u32>,
    r_ids: Vec<u32>,
    l_doc: PreparedDoc,
    r_doc: PreparedDoc,
    l_str: String,
    r_str: String,
}

/// Per-scorer mutable state: one allocation set, reused for every mask
/// the scorer scores.
#[derive(Debug, Default)]
struct Scratch {
    bufs: MaskBuffers,
    /// Token-drop only: per attribute, one slot per sub-mask of its bits
    /// (indexed by [`AttrState::memo_index`]), filled on first use; empty
    /// for an attribute over [`MEMO_MAX_BITS`].
    memo: Vec<Vec<Option<f64>>>,
    features: Vec<f64>,
}

/// Record-level state: everything the record's prediction and each of its
/// perturbation families read that depends on the record alone. Every
/// token a family perturbs is a token of the record, so one state serves
/// them all.
#[derive(Debug)]
struct RecordState {
    /// Every normalized token of both entities, over all attributes.
    interner: Interner,
    /// Each interned id's IDF.
    idf_by_id: Vec<f64>,
    /// Each interned id's characters, decoded once.
    chars: TokenChars,
    /// Per side (left, right) and attribute, the value's normalized ids in
    /// token order: what a fixed side scores.
    value_ids: [Vec<Vec<u32>>; 2],
    /// Per attribute, the Jaro-Winkler values between its tokens; empty
    /// for an attribute that is not Name.
    jaro: Vec<AttrJaro>,
}

impl RecordState {
    fn new(extractor: &FeatureExtractor, schema: &Schema, pair: &EntityPair) -> Self {
        let norms = |side: EntitySide| -> Vec<Vec<String>> {
            (0..schema.len())
                .map(|i| normalized_tokens(pair.entity(side).value(i)))
                .collect()
        };
        let norms = [norms(EntitySide::Left), norms(EntitySide::Right)];
        let interner = Interner::from_tokens(norms.iter().flatten().flatten());
        let value_ids = norms.map(|values| {
            values
                .iter()
                .map(|tokens| {
                    tokens
                        .iter()
                        .map(|t| interner.id(t).expect("every value's tokens were interned"))
                        .collect()
                })
                .collect::<Vec<Vec<u32>>>()
        });
        let jaro = (0..schema.len())
            .map(|i| {
                if schema.attribute(i).kind == AttributeKind::Name {
                    AttrJaro::new([&value_ids[0][i], &value_ids[1][i]])
                } else {
                    AttrJaro::default()
                }
            })
            .collect();
        RecordState {
            idf_by_id: extractor.vectorizer().idf_by_id(&interner),
            chars: TokenChars::new(&interner),
            value_ids,
            jaro,
            interner,
        }
    }

    /// The normalized ids of `side`'s value of attribute `attr`.
    fn value_ids(&self, side: EntitySide, attr: usize) -> &[u32] {
        let side = match side {
            EntitySide::Left => 0,
            EntitySide::Right => 1,
        };
        &self.value_ids[side][attr]
    }

    /// Jaro-Winkler of attribute `attr`'s tokens at indices `p` and `q`
    /// of its [`AttrJaro::ids`]. Equal ids are exactly 1.0 (em-text's
    /// `jaro_winkler_of_a_string_with_itself_is_one`); any other pair is
    /// computed on its first read, lower id first, and read back after
    /// that. Jaro-Winkler is deterministic and bitwise symmetric (both
    /// property-tested in em-text), so the value has the bits of one
    /// computed for the two tokens in either order.
    fn jaro_winkler(&self, attr: usize, p: usize, q: usize, scratch: &mut JaroScratch) -> f64 {
        if p == q {
            return 1.0;
        }
        let memo = &self.jaro[attr];
        // Ids ascend with their indices, so `j`'s is the lower id.
        let (j, i) = (p.min(q), p.max(q));
        let cell = &memo.values[i * (i - 1) / 2 + j];
        if cell.get().is_nan() {
            let (lo, hi) = (memo.ids[j], memo.ids[i]);
            cell.set(jaro_winkler_chars(
                self.chars.get(lo),
                self.chars.get(hi),
                scratch,
            ));
        }
        cell.get()
    }
}

/// One Name attribute's Jaro-Winkler memo: a slot per distinct unordered
/// pair of the ids its two values hold, filled on first read, so a family
/// computes no pair it never reads and no family recomputes one another
/// has read. Every family of the record reads the same table: a varying
/// side holds the attribute's own tokens and, under double-entity
/// generation, the landmark's tokens of that attribute.
///
/// The slots are `Cell`s: a prepared record is read on the one thread
/// that runs its explanation.
#[derive(Debug, Default)]
struct AttrJaro {
    /// The distinct ids of both values, ascending.
    ids: Vec<u32>,
    /// The lower triangle over indices into `ids`: the pair `i > j` at
    /// `i·(i − 1)/2 + j`. NaN marks a slot not computed yet; Jaro-Winkler
    /// is never NaN.
    values: Vec<Cell<f64>>,
}

impl AttrJaro {
    /// The memo over the ids of the attribute's two values.
    fn new(values: [&[u32]; 2]) -> Self {
        let mut ids: Vec<u32> = values.concat();
        ids.sort_unstable();
        ids.dedup();
        let slots = ids.len() * ids.len().saturating_sub(1) / 2;
        AttrJaro {
            ids,
            values: vec![Cell::new(f64::NAN); slots],
        }
    }

    /// The index of each id in `ids`, or `None` when the attribute's
    /// values do not hold one of them.
    fn indices(&self, ids: &[u32]) -> Option<Vec<usize>> {
        ids.iter()
            .map(|id| self.ids.binary_search(id).ok())
            .collect()
    }
}

/// Prepared state for one token-drop perturbation family of a record.
#[derive(Debug)]
struct PreparedTokenDrop<'a> {
    mask_len: usize,
    attrs: Vec<AttrState<'a>>,
    state: &'a RecordState,
}

impl<'a> PreparedTokenDrop<'a> {
    /// The family's state over the record's, or `None` when a varying
    /// token is not one the record holds — a normalized form it never
    /// interned, or a Name token that neither value of its attribute
    /// holds.
    fn new(
        state: &'a RecordState,
        schema: &Schema,
        pair: &'a EntityPair,
        left: &SideSpec<'a>,
        right: &SideSpec<'a>,
    ) -> Option<Self> {
        for spec in [left, right] {
            if let SideSpec::Varying(tokens) = spec {
                for t in tokens.iter() {
                    // Same rejection the naive path gets from `detokenize`.
                    assert!(
                        t.attribute < schema.len(),
                        "token attribute {} out of range for {} attributes",
                        t.attribute,
                        schema.len()
                    );
                }
            }
        }
        let mut jaro = JaroScratch::default();
        let left_offset = 0;
        let right_offset = left.token_count();
        let mut attrs = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let kind = schema.attribute(i).kind;
            let (l_state, l_norm_ids) =
                build_side(pair, EntitySide::Left, left, i, left_offset, state)?;
            let (r_state, r_norm_ids) =
                build_side(pair, EntitySide::Right, right, i, right_offset, state)?;
            // The Jaro-Winkler matrix is only consulted for Name
            // attributes; skip the quadratic work everywhere else.
            let probe = if kind == AttributeKind::Name {
                let rows = state.jaro[i].indices(&l_norm_ids)?;
                let cols = state.jaro[i].indices(&r_norm_ids)?;
                let mut jw = Vec::with_capacity(rows.len() * cols.len());
                for &p in &rows {
                    for &q in &cols {
                        jw.push(state.jaro_winkler(i, p, q, &mut jaro));
                    }
                }
                NameProbe::new(
                    &jw,
                    (&l_norm_ids, l_state.norm_bits()),
                    (&r_norm_ids, r_state.norm_bits()),
                )
            } else {
                NameProbe::default()
            };
            attrs.push(AttrState {
                kind,
                left: l_state,
                right: r_state,
                probe,
            });
        }
        Some(PreparedTokenDrop {
            mask_len: left.token_count() + right.token_count(),
            attrs,
            state,
        })
    }

    /// Scratch for this family, with an unfilled memo table for every
    /// attribute within [`MEMO_MAX_BITS`].
    fn scratch(&self) -> Scratch {
        let memo = self
            .attrs
            .iter()
            .map(|attr| {
                if attr.memoized() {
                    vec![None; 1 << attr.n_bits()]
                } else {
                    Vec::new()
                }
            })
            .collect();
        Scratch {
            memo,
            ..Scratch::default()
        }
    }

    /// Computes the feature vector for one mask into `scratch.features`,
    /// bit-identical to extracting from the reconstructed pair.
    fn features<'s>(&self, mask: &[bool], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            mask.len(),
            self.mask_len,
            "perturbation mask length must equal the spec's mask length"
        );
        let Scratch {
            bufs,
            memo,
            features,
        } = scratch;
        features.clear();
        let idf_by_id = &self.state.idf_by_id;
        for (a, attr) in self.attrs.iter().enumerate() {
            let table = &mut memo[a];
            let value = if table.is_empty() {
                attr.similarity(mask, bufs, idf_by_id)
            } else {
                *table[attr.memo_index(mask)]
                    .get_or_insert_with(|| attr.similarity(mask, bufs, idf_by_id))
            };
            features.push(value);
        }
        features
    }
}

/// Builds one side of one attribute; also returns the side's full
/// normalized-id sequence (in token order) for the Jaro-Winkler matrix.
/// `None` when a varying token normalizes to a form the record never
/// interned.
fn build_side<'a>(
    pair: &'a EntityPair,
    side: EntitySide,
    spec: &SideSpec<'a>,
    attr: usize,
    offset: usize,
    state: &RecordState,
) -> Option<(SideState<'a>, Vec<u32>)> {
    match spec {
        SideSpec::Fixed => {
            let raw = pair.entity(side).value(attr);
            let norm_ids = state.value_ids(side, attr).to_vec();
            let mut sorted_ids = norm_ids.clone();
            sorted_ids.sort_unstable();
            let mut doc = PreparedDoc::default();
            doc.rebuild_from_sorted_ids(&sorted_ids, &state.idf_by_id);
            let fixed = SideState::Fixed {
                raw,
                sorted_ids,
                doc,
                parsed: parse_number(raw),
                code_norm: raw.trim().to_lowercase(),
            };
            Some((fixed, norm_ids))
        }
        SideSpec::Varying(tokens) => {
            let mut feat_idx = Vec::new();
            let mut raw: Vec<&'a str> = Vec::new();
            let mut norm_pos = Vec::new();
            let mut parsed = Vec::new();
            let mut lower = Vec::new();
            let mut norm_ids = Vec::new();
            for (global, token) in tokens.iter().enumerate() {
                if token.attribute != attr {
                    continue;
                }
                let local = raw.len();
                feat_idx.push(offset + global);
                raw.push(token.text.as_str());
                parsed.push(parse_number(&token.text));
                lower.push(token.text.to_lowercase());
                let norm = normalize(&token.text);
                if !norm.is_empty() {
                    let id = state.interner.id(&norm)?;
                    norm_pos.push((local, id));
                    norm_ids.push(id);
                }
            }
            let varying = SideState::Varying {
                feat_idx,
                raw,
                norm_pos,
                parsed,
                lower,
            };
            Some((varying, norm_ids))
        }
    }
}

/// Jaccard over sorted id multisets: one merge counts the distinct ids
/// of the union and of the overlap. The counts are integers and the final
/// division is `em_text::jaccard`'s, so the result is bit-identical.
fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut union, mut inter) = (0, 0, 0usize, 0usize);
    while let Some(&next) = a.get(i).into_iter().chain(b.get(j)).min() {
        let (i0, j0) = (i, j);
        while a.get(i) == Some(&next) {
            i += 1;
        }
        while b.get(j) == Some(&next) {
            j += 1;
        }
        union += 1;
        inter += usize::from(i > i0 && j > j0);
    }
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Every interned token's characters, decoded once per prepared record:
/// id `i`'s are `chars[starts[i]..starts[i + 1]]`.
#[derive(Debug)]
struct TokenChars {
    chars: Vec<char>,
    starts: Vec<usize>,
}

impl TokenChars {
    fn new(interner: &Interner) -> Self {
        let mut chars = Vec::new();
        let mut starts = vec![0];
        for id in 0..interner.len() {
            chars.extend(interner.get(id as u32).chars());
            starts.push(chars.len());
        }
        TokenChars { chars, starts }
    }

    fn get(&self, id: u32) -> &[char] {
        let id = id as usize;
        &self.chars[self.starts[id]..self.starts[id + 1]]
    }
}

/// A Name attribute's mask-invariant Monge-Elkan and Jaccard state
/// (DESIGN.md §11 "Name path and the Jaro core"). Scoring a mask with it
/// is straight-line work over the attribute's positions: no sort, no
/// search, and no branch on a mask bit.
///
/// Monge-Elkan gives each kept position of one side its best
/// Jaro-Winkler match among the other side's kept positions. Against a
/// fixed side that is a maximum stored here; against a varying side it is
/// an elementwise max over the kept positions' vectors. Jaro-Winkler
/// values are finite and at least +0.0, so either equals the naive
/// `fold(0.0, f64::max)` over the kept entries. Positions are summed in
/// sequence order, and an unkept one adds `best · 0.0 = +0.0`, which
/// leaves the sum's bits as they were: the result is bit-identical.
#[derive(Debug, Default)]
struct NameProbe {
    /// The left side: the matrix's rows.
    left: NameSide,
    /// The right side: the matrix's columns.
    right: NameSide,
    /// Jaccard's state: one group per distinct normalized id of either
    /// side.
    groups: Vec<IdGroup>,
    /// Every group's mask bits, group by group: its varying left
    /// positions', then its varying right positions'.
    group_bits: Vec<usize>,
}

/// One side of a Name attribute's Monge-Elkan sequence, and the best
/// matches it offers the other side's positions.
#[derive(Debug)]
enum NameSide {
    /// A fixed side: every position is always kept.
    Fixed {
        /// Number of positions.
        len: usize,
        /// For each position of the other side, its best Jaro-Winkler
        /// match over all of this side's positions.
        best: Vec<f64>,
    },
    /// A varying side.
    Varying {
        /// The mask bit of each position, in sequence order.
        bits: Vec<usize>,
        /// Each position's Jaro-Winkler values against every position of
        /// the other side, one vector per position, back to back.
        vectors: Vec<f64>,
    },
}

impl Default for NameSide {
    fn default() -> Self {
        NameSide::Fixed {
            len: 0,
            best: Vec::new(),
        }
    }
}

impl NameSide {
    /// A side with `len` positions, `bits` as from
    /// [`SideState::norm_bits`], against `other_len` positions; `at(p, q)`
    /// is the Jaro-Winkler value of this side's position `p` and the
    /// other side's position `q`.
    fn new(
        bits: Option<Vec<usize>>,
        len: usize,
        other_len: usize,
        at: impl Fn(usize, usize) -> f64,
    ) -> Self {
        match bits {
            None => NameSide::Fixed {
                len,
                best: (0..other_len)
                    .map(|q| (0..len).map(|p| at(p, q)).fold(0.0, f64::max))
                    .collect(),
            },
            Some(bits) => NameSide::Varying {
                vectors: (0..len)
                    .flat_map(|p| (0..other_len).map(move |q| (p, q)))
                    .map(|(p, q)| at(p, q))
                    .collect(),
                bits,
            },
        }
    }

    fn len(&self) -> usize {
        match self {
            NameSide::Fixed { len, .. } => *len,
            NameSide::Varying { bits, .. } => bits.len(),
        }
    }

    /// How many positions `mask` keeps, and the kept indices ascending,
    /// compacted into `idx`, of a varying side (a fixed side keeps all of
    /// its positions and lists none).
    fn kept<'i>(&self, mask: &[bool], idx: &'i mut Vec<usize>) -> (usize, &'i [usize]) {
        match self {
            NameSide::Fixed { len, .. } => (*len, &[]),
            NameSide::Varying { bits, .. } => {
                if idx.len() < bits.len() {
                    idx.resize(bits.len(), 0);
                }
                let mut n = 0;
                for (k, &bit) in bits.iter().enumerate() {
                    idx[n] = k;
                    n += usize::from(mask[bit]);
                }
                (n, &idx[..n])
            }
        }
    }

    /// Each of the other side's `other_len` positions' best match among
    /// this side's kept positions, listed in `kept` when this side varies.
    fn best_matches<'s>(
        &'s self,
        kept: &[usize],
        other_len: usize,
        best: &'s mut Vec<f64>,
    ) -> &'s [f64] {
        match self {
            NameSide::Fixed { best, .. } => best,
            NameSide::Varying { vectors, .. } => {
                best.clear();
                best.resize(other_len, 0.0);
                for &k in kept {
                    let vector = &vectors[k * other_len..(k + 1) * other_len];
                    for (b, &v) in best.iter_mut().zip(vector) {
                        // `f64::max` on values that are never NaN or -0.0,
                        // without its NaN handling.
                        *b = if v > *b { v } else { *b };
                    }
                }
                best
            }
        }
    }

    /// The sum, in sequence order, of `best` over this side's kept
    /// positions.
    fn sum_kept(&self, mask: &[bool], best: &[f64]) -> f64 {
        match self {
            NameSide::Fixed { .. } => best.iter().fold(0.0, |sum, &b| sum + b),
            NameSide::Varying { bits, .. } => bits.iter().zip(best).fold(0.0, |sum, (&bit, &b)| {
                sum + b * f64::from(u8::from(mask[bit]))
            }),
        }
    }
}

/// One distinct normalized id of a Name attribute, for Jaccard.
#[derive(Debug)]
struct IdGroup {
    /// Whether the left and the right side are fixed and hold the id.
    held: [bool; 2],
    /// Where the group's left and right mask bits end in
    /// [`NameProbe::group_bits`].
    ends: [usize; 2],
}

impl NameProbe {
    /// `jw` is the row-major Jaro-Winkler matrix between the left side's
    /// normalized-id sequence (rows) and the right side's (columns); each
    /// side comes with its [`SideState::norm_bits`].
    fn new(
        jw: &[f64],
        (l_ids, l_bits): (&[u32], Option<Vec<usize>>),
        (r_ids, r_bits): (&[u32], Option<Vec<usize>>),
    ) -> Self {
        // `(id, side, mask bit)` of every position, a fixed side's with no
        // bit, sorted so each id's positions are one run, left ones first.
        let mut entries: Vec<(u32, usize, Option<usize>)> = Vec::new();
        for (side, (ids, bits)) in [(l_ids, &l_bits), (r_ids, &r_bits)].into_iter().enumerate() {
            for (p, &id) in ids.iter().enumerate() {
                entries.push((id, side, bits.as_ref().map(|bits| bits[p])));
            }
        }
        entries.sort_unstable();
        let mut groups = Vec::new();
        let mut group_bits = Vec::new();
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let mut held = [false; 2];
            let mut ends = [0; 2];
            for side in 0..2 {
                for &(_, _, bit) in run.iter().filter(|entry| entry.1 == side) {
                    match bit {
                        Some(bit) => group_bits.push(bit),
                        None => held[side] = true,
                    }
                }
                ends[side] = group_bits.len();
            }
            groups.push(IdGroup { held, ends });
        }
        let (nrows, ncols) = (l_ids.len(), r_ids.len());
        NameProbe {
            left: NameSide::new(l_bits, nrows, ncols, |i, j| jw[i * ncols + j]),
            right: NameSide::new(r_bits, ncols, nrows, |j, i| jw[i * ncols + j]),
            groups,
            group_bits,
        }
    }

    /// Jaccard of the kept ids: an id is present on a side that is fixed
    /// and holds it, or that keeps any of its positions. The counts are
    /// integers and the division is `em_text::jaccard`'s, so the result
    /// is bit-identical.
    fn jaccard(&self, mask: &[bool]) -> f64 {
        let any_kept = |bits: &[usize]| bits.iter().fold(false, |any, &bit| any | mask[bit]);
        let (mut start, mut union, mut inter) = (0, 0usize, 0usize);
        for group in &self.groups {
            let [l_end, r_end] = group.ends;
            let left = group.held[0] | any_kept(&self.group_bits[start..l_end]);
            let right = group.held[1] | any_kept(&self.group_bits[l_end..r_end]);
            union += usize::from(left | right);
            inter += usize::from(left & right);
            start = r_end;
        }
        if union == 0 {
            return 1.0;
        }
        inter as f64 / union as f64
    }

    /// Symmetric Monge-Elkan on the kept positions, with
    /// `monge_elkan_symmetric`'s empty-list conventions.
    fn monge_elkan(&self, mask: &[bool], bufs: &mut MaskBuffers) -> f64 {
        let (n_l, l_kept) = self.left.kept(mask, &mut bufs.l_idx);
        let (n_r, r_kept) = self.right.kept(mask, &mut bufs.r_idx);
        if n_l == 0 && n_r == 0 {
            return 1.0;
        }
        if n_l == 0 || n_r == 0 {
            return 0.0;
        }
        let (l_len, r_len) = (self.left.len(), self.right.len());
        let fwd = self
            .left
            .sum_kept(mask, self.right.best_matches(r_kept, l_len, &mut bufs.best));
        let bwd = self
            .right
            .sum_kept(mask, self.left.best_matches(l_kept, r_len, &mut bufs.best));
        (fwd / n_l as f64 + bwd / n_r as f64) / 2.0
    }
}

/// Prepared state for an attribute-copy (Mojito copy) family: every
/// attribute can only take two values — its original similarity or its
/// fully-copied similarity — so scoring a mask is pure selection.
#[derive(Debug)]
struct PreparedAttrCopy {
    kept: Vec<f64>,
    copied: Vec<f64>,
}

impl PreparedAttrCopy {
    fn new(
        extractor: &FeatureExtractor,
        schema: &Schema,
        pair: &EntityPair,
        copy_into: EntitySide,
    ) -> Self {
        let kept: Vec<f64> = (0..schema.len())
            .map(|i| extractor.attribute_similarity(schema, pair, i))
            .collect();
        let mut copied_pair = pair.clone();
        let source = copy_into.other();
        for i in 0..schema.len() {
            let value = pair.entity(source).value(i).to_string();
            copied_pair.entity_mut(copy_into).set_value(i, value);
        }
        let copied: Vec<f64> = (0..schema.len())
            .map(|i| extractor.attribute_similarity(schema, &copied_pair, i))
            .collect();
        PreparedAttrCopy { kept, copied }
    }

    fn features<'s>(&self, mask: &[bool], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            mask.len(),
            self.kept.len(),
            "perturbation mask length must equal the spec's mask length"
        );
        scratch.features.clear();
        for (i, &keep) in mask.iter().enumerate() {
            scratch
                .features
                .push(if keep { self.kept[i] } else { self.copied[i] });
        }
        &scratch.features
    }
}

/// Prepared feature computation for any [`PerturbSpec`], shared by both
/// matcher kernels.
#[derive(Debug)]
enum PreparedFamily<'a> {
    TokenDrop(PreparedTokenDrop<'a>),
    AttrCopy(PreparedAttrCopy),
}

/// Feature-level prepared state + scratch: computes the per-mask feature
/// vector that `FeatureExtractor::extract` would produce on the
/// reconstructed pair, bit for bit.
#[derive(Debug)]
struct PreparedFeatures<'a> {
    family: PreparedFamily<'a>,
    scratch: Scratch,
}

impl<'a> PreparedFeatures<'a> {
    fn new(family: PreparedFamily<'a>) -> Self {
        let scratch = match &family {
            PreparedFamily::TokenDrop(td) => td.scratch(),
            PreparedFamily::AttrCopy(_) => Scratch::default(),
        };
        PreparedFeatures { family, scratch }
    }

    /// The feature vector for one mask (borrowed from internal scratch).
    fn compute(&mut self, mask: &[bool]) -> &[f64] {
        match &self.family {
            PreparedFamily::TokenDrop(td) => td.features(mask, &mut self.scratch),
            PreparedFamily::AttrCopy(ac) => ac.features(mask, &mut self.scratch),
        }
    }
}

/// A matcher that scores a record from its feature vector: what the
/// [`LogisticMatcher`] and [`NaiveBayesMatcher`] kernels share.
pub(crate) trait FeatureModel: MatchModel {
    /// The fitted feature extractor.
    fn feature_extractor(&self) -> &FeatureExtractor;

    /// The match probability of one feature vector: the operations
    /// `predict_proba` runs after extraction.
    fn proba_of_features(&self, features: &[f64]) -> f64;
}

impl FeatureModel for LogisticMatcher {
    fn feature_extractor(&self) -> &FeatureExtractor {
        self.extractor()
    }

    fn proba_of_features(&self, features: &[f64]) -> f64 {
        self.model().predict_proba(features)
    }
}

impl FeatureModel for NaiveBayesMatcher {
    fn feature_extractor(&self) -> &FeatureExtractor {
        self.extractor()
    }

    fn proba_of_features(&self, features: &[f64]) -> f64 {
        self.posterior_from_features(features)
    }
}

/// A feature-based matcher's prepared record: the record-level state,
/// built on first use, shared by the prediction and every family's scorer.
///
/// Building it lazily puts its cost in whichever scoring stage first
/// needs it — the prediction for a landmark explanation, the one view of
/// LIME — and Mojito Copy's attribute-copy family, which needs none of
/// it, never builds it.
#[derive(Debug)]
pub(crate) struct MatcherRecord<'a, M> {
    model: &'a M,
    schema: &'a Schema,
    pair: &'a EntityPair,
    state: OnceCell<RecordState>,
}

impl<'a, M: FeatureModel> MatcherRecord<'a, M> {
    pub(crate) fn new(model: &'a M, schema: &'a Schema, pair: &'a EntityPair) -> Self {
        MatcherRecord {
            model,
            schema,
            pair,
            state: OnceCell::new(),
        }
    }

    fn state(&self) -> &RecordState {
        self.state.get_or_init(|| {
            RecordState::new(self.model.feature_extractor(), self.schema, self.pair)
        })
    }

    /// The prepared features of one family of this record, or `None` when
    /// a varying token is not one of the record's own.
    fn features<'s>(&'s self, spec: &'s PerturbSpec<'s>) -> Option<PreparedFeatures<'s>> {
        let family = match spec {
            PerturbSpec::TokenDrop { pair, left, right } => PreparedFamily::TokenDrop(
                PreparedTokenDrop::new(self.state(), self.schema, pair, left, right)?,
            ),
            PerturbSpec::AttrCopy { pair, copy_into } => {
                PreparedFamily::AttrCopy(PreparedAttrCopy::new(
                    self.model.feature_extractor(),
                    self.schema,
                    pair,
                    *copy_into,
                ))
            }
        };
        Some(PreparedFeatures::new(family))
    }
}

impl<M: FeatureModel> PreparedRecord for MatcherRecord<'_, M> {
    fn predict(&self) -> f64 {
        let spec = PerturbSpec::TokenDrop {
            pair: self.pair,
            left: SideSpec::Fixed,
            right: SideSpec::Fixed,
        };
        let mut scorer = self.scorer(&spec);
        scorer.score_mask(&[])
    }

    fn scorer<'s>(&'s self, spec: &'s PerturbSpec<'s>) -> Box<dyn PreparedScorer + 's> {
        spec.assert_perturbs(self.pair);
        match self.features(spec) {
            Some(features) => Box::new(MatcherScorer {
                features,
                model: self.model,
            }),
            // A token the record does not hold has no id in its state:
            // the family is scored the naive way.
            None => Box::new(FallbackScorer::new(self.model, self.schema, spec)),
        }
    }
}

/// One family's kernel: prepared features and the matcher's head.
#[derive(Debug)]
struct MatcherScorer<'a, M> {
    features: PreparedFeatures<'a>,
    model: &'a M,
}

impl<M: FeatureModel> PreparedScorer for MatcherScorer<'_, M> {
    fn score_mask(&mut self, mask: &[bool]) -> f64 {
        let features = self.features.compute(mask);
        self.model.proba_of_features(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_entity::prepared::FallbackScorer;
    use em_entity::schema::Attribute;
    use em_entity::tokenizer::{tokenize_entity, Token};
    use em_entity::{EmDataset, Entity, LabeledPair, MatchModel};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute {
                name: "name".into(),
                kind: AttributeKind::Name,
            },
            Attribute {
                name: "description".into(),
                kind: AttributeKind::Text,
            },
            Attribute {
                name: "price".into(),
                kind: AttributeKind::Numeric,
            },
            Attribute {
                name: "model".into(),
                kind: AttributeKind::Code,
            },
        ])
    }

    fn dataset() -> EmDataset {
        let mk = |l: [&str; 4], r: [&str; 4], label| {
            LabeledPair::new(
                EntityPair::new(Entity::new(l.to_vec()), Entity::new(r.to_vec())),
                label,
            )
        };
        EmDataset::new(
            "toy",
            schema(),
            vec![
                mk(
                    [
                        "sony alpha camera",
                        "digital slr camera with lens and kit",
                        "849.99",
                        "DSLRA200W",
                    ],
                    ["sony camera", "slr camera lens kit", "$850.00", "dslra200w"],
                    true,
                ),
                mk(
                    ["nikon coolpix", "compact zoom camera", "329.00", "CP-950"],
                    [
                        "leather case",
                        "black leather case for cameras",
                        "7.99",
                        "5811",
                    ],
                    false,
                ),
                mk(
                    ["canon eos body", "professional slr body", "1299", "EOS-5D"],
                    ["canon eos", "pro slr camera body", "1250.00", "eos-5d"],
                    true,
                ),
                mk(
                    ["dell xps laptop", "thin light laptop", "999.99", "XPS13"],
                    ["kitchen towel", "cotton towel set", "9.99", "KT-2"],
                    false,
                ),
            ],
        )
    }

    /// All masks for small n, plus a deterministic pseudo-random batch for
    /// larger n.
    fn masks_for(n: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        if n <= 10 {
            for bits in 0..(1u32 << n) {
                out.push((0..n).map(|i| bits >> i & 1 == 1).collect());
            }
        } else {
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            out.push(vec![true; n]);
            out.push(vec![false; n]);
            for _ in 0..200 {
                out.push(
                    (0..n)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state & 1 == 1
                        })
                        .collect(),
                );
            }
        }
        out
    }

    /// Every assignment of the mask bits at `bits`, the other bits kept:
    /// one attribute over all of its sub-masks.
    fn sub_masks(n: usize, bits: &[usize]) -> Vec<Vec<bool>> {
        (0..1usize << bits.len())
            .map(|sub| {
                let mut mask = vec![true; n];
                for (k, &bit) in bits.iter().enumerate() {
                    mask[bit] = sub >> k & 1 == 1;
                }
                mask
            })
            .collect()
    }

    /// Mask bits of attribute `attr`'s tokens in a varying side whose
    /// first token is mask bit `offset`.
    fn attr_bits(tokens: &[Token], attr: usize, offset: usize) -> Vec<usize> {
        (0..tokens.len())
            .filter(|&i| tokens[i].attribute == attr)
            .map(|i| offset + i)
            .collect()
    }

    /// `n` words cycled from a small vocabulary (with repeats), starting
    /// at word `start`.
    fn words(start: usize, n: usize) -> String {
        const VOCAB: [&str; 7] = ["sony", "alpha", "slr", "camera", "lens", "kit", "a200"];
        (start..start + n)
            .map(|i| VOCAB[i % VOCAB.len()])
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Memo table sizes, per attribute, of a logistic scorer for `spec`.
    fn memo_slots(m: &LogisticMatcher, s: &Schema, spec: &PerturbSpec<'_>) -> Vec<usize> {
        let record = MatcherRecord::new(m, s, spec.pair());
        let features = record.features(spec).expect("the record's own tokens");
        features.scratch.memo.iter().map(Vec::len).collect()
    }

    fn assert_kernel_matches_fallback<M: MatchModel>(model: &M, s: &Schema, spec: PerturbSpec<'_>) {
        let masks = masks_for(spec.mask_len(s.len()));
        assert_kernel_matches_fallback_on(model, s, spec, &masks);
    }

    /// Checks the record's prediction and every mask against the
    /// fallback, then scores the masks again in reverse through the same
    /// scorer: memo tables filled in one order must give the same bits in
    /// the other.
    fn assert_kernel_matches_fallback_on<M: MatchModel>(
        model: &M,
        s: &Schema,
        spec: PerturbSpec<'_>,
        masks: &[Vec<bool>],
    ) {
        let record = model.prepare_record(s, spec.pair());
        assert_eq!(
            record.predict().to_bits(),
            model.predict_proba(s, spec.pair()).to_bits()
        );
        let mut kernel = record.scorer(&spec);
        let mut naive = FallbackScorer::new(model, s, &spec);
        let forwards: Vec<u64> = masks
            .iter()
            .map(|mask| {
                let k = kernel.score_mask(mask);
                let n = naive.score_mask(mask);
                assert_eq!(
                    k.to_bits(),
                    n.to_bits(),
                    "kernel {k} != naive {n} for mask {mask:?}"
                );
                k.to_bits()
            })
            .collect();
        for (mask, bits) in masks.iter().zip(&forwards).rev() {
            assert_eq!(
                kernel.score_mask(mask).to_bits(),
                *bits,
                "scoring in reverse order changed mask {mask:?}"
            );
        }
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_landmark_specs() {
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        for record in d.records() {
            for varying in [EntitySide::Left, EntitySide::Right] {
                let tokens = tokenize_entity(record.pair.entity(varying));
                let (left, right) = match varying {
                    EntitySide::Left => (SideSpec::Varying(&tokens[..]), SideSpec::Fixed),
                    EntitySide::Right => (SideSpec::Fixed, SideSpec::Varying(&tokens[..])),
                };
                let spec = PerturbSpec::TokenDrop {
                    pair: &record.pair,
                    left,
                    right,
                };
                assert_kernel_matches_fallback(&m, s, spec);
            }
        }
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_both_sides_varying() {
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = &d.records()[0].pair;
        let lt = tokenize_entity(&pair.left);
        let rt = tokenize_entity(&pair.right);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&lt[..]),
            right: SideSpec::Varying(&rt[..]),
        };
        assert_kernel_matches_fallback(&m, s, spec);
    }

    #[test]
    fn logistic_kernel_is_bit_identical_for_attr_copy() {
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        for record in d.records() {
            for side in [EntitySide::Left, EntitySide::Right] {
                let spec = PerturbSpec::AttrCopy {
                    pair: &record.pair,
                    copy_into: side,
                };
                assert_kernel_matches_fallback(&m, s, spec);
            }
        }
    }

    #[test]
    fn naive_bayes_kernel_is_bit_identical() {
        let d = dataset();
        let m = NaiveBayesMatcher::train(&d);
        let s = d.schema();
        let pair = &d.records()[1].pair;
        let tokens = tokenize_entity(&pair.right);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(&tokens[..]),
        };
        assert_kernel_matches_fallback(&m, s, spec);
        let copy = PerturbSpec::AttrCopy {
            pair,
            copy_into: EntitySide::Left,
        };
        assert_kernel_matches_fallback(&m, s, copy);
    }

    #[test]
    fn kernel_handles_empty_and_unparseable_values() {
        // Attribute values that stress edge conventions: empty strings,
        // punctuation-only tokens (normalize to empty), unparseable
        // numerics falling back to Levenshtein on the raw join.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = EntityPair::new(
            Entity::new(vec!["!!! ---", "", "around 12.50 ish", "  MIXed Case  "]),
            Entity::new(vec!["sony", "some words here", "n/a", ""]),
        );
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        assert_kernel_matches_fallback(&m, s, spec);
    }

    #[test]
    fn memo_cap_boundary_is_bit_identical_on_every_sub_mask() {
        // The name has exactly MEMO_MAX_BITS varying tokens and gets a
        // table; the description has one more and is computed per mask.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = EntityPair::new(
            Entity::new(vec![
                words(0, MEMO_MAX_BITS),
                words(2, MEMO_MAX_BITS + 1),
                "849.99".into(),
                "DSLRA200W".into(),
            ]),
            d.records()[0].pair.right.clone(),
        );
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        assert_eq!(memo_slots(&m, s, &spec), [1 << MEMO_MAX_BITS, 0, 2, 2]);
        for attr in [0, 1] {
            let masks = sub_masks(tokens.len(), &attr_bits(&tokens, attr, 0));
            assert_kernel_matches_fallback_on(&m, s, spec, &masks);
        }
        // Every sub-mask of the name was scored, so its table is full.
        let record = MatcherRecord::new(&m, s, &pair);
        let mut features = record.features(&spec).expect("the record's own tokens");
        for mask in sub_masks(tokens.len(), &attr_bits(&tokens, 0, 0)) {
            features.compute(&mask);
        }
        assert!(features.scratch.memo[0].iter().all(Option::is_some));
    }

    #[test]
    fn memo_cap_counts_both_varying_sides() {
        // LIME varies both sides: each name side is under the cap, but the
        // similarity reads both, and together they cross it.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let half = MEMO_MAX_BITS / 2 + 1;
        let pair = EntityPair::new(
            Entity::new(vec![
                words(0, half),
                "slr camera".into(),
                "849.99".into(),
                "A200".into(),
            ]),
            Entity::new(vec![
                words(3, half),
                "camera kit".into(),
                "$850".into(),
                "a200".into(),
            ]),
        );
        let lt = tokenize_entity(&pair.left);
        let rt = tokenize_entity(&pair.right);
        let spec = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&lt[..]),
            right: SideSpec::Varying(&rt[..]),
        };
        assert_eq!(memo_slots(&m, s, &spec), [0, 1 << 4, 1 << 2, 1 << 2]);
        let mut name_bits = attr_bits(&lt, 0, 0);
        name_bits.extend(attr_bits(&rt, 0, lt.len()));
        let masks = sub_masks(lt.len() + rt.len(), &name_bits);
        assert_kernel_matches_fallback_on(&m, s, spec, &masks);
        assert_kernel_matches_fallback(&m, s, spec);
    }

    #[test]
    fn memo_covers_attributes_that_read_no_mask_bit() {
        // The blank name and description read no mask bit: one slot each,
        // filled by the first mask and reused by every other.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = EntityPair::new(
            Entity::new(vec!["", "   ", "around 12.50", "DSLRA200W"]),
            d.records()[0].pair.right.clone(),
        );
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        assert_eq!(memo_slots(&m, s, &spec), [1, 1, 1 << 2, 1 << 1]);
        assert_kernel_matches_fallback(&m, s, spec);
        // With both sides fixed no attribute reads a bit, and the one mask
        // is empty.
        let fixed = PerturbSpec::TokenDrop {
            pair: &d.records()[0].pair,
            left: SideSpec::Fixed,
            right: SideSpec::Fixed,
        };
        assert_eq!(fixed.mask_len(s.len()), 0);
        assert_eq!(memo_slots(&m, s, &fixed), [1; 4]);
        assert_kernel_matches_fallback_on(&m, s, fixed, &[Vec::new()]);
    }

    /// A token-drop spec for `pair` varying the left side, the right side
    /// fixed, over the toy schema.
    fn left_varying<'a>(pair: &'a EntityPair, tokens: &'a [Token]) -> PerturbSpec<'a> {
        PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(tokens),
            right: SideSpec::Fixed,
        }
    }

    #[test]
    fn over_cap_name_keeping_none_one_or_all_varying_tokens() {
        // Keeping exactly one name token sweeps a single vector: a row
        // when the left side varies, a column when the right side does.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let long = Entity::new(vec![
            words(0, MEMO_MAX_BITS + 5),
            "slr camera".into(),
            "849.99".into(),
            "DSLRA200W".into(),
        ]);
        let other = d.records()[0].pair.right.clone();
        for varying in [EntitySide::Left, EntitySide::Right] {
            let pair = match varying {
                EntitySide::Left => EntityPair::new(long.clone(), other.clone()),
                EntitySide::Right => EntityPair::new(other.clone(), long.clone()),
            };
            let tokens = tokenize_entity(pair.entity(varying));
            let spec = match varying {
                EntitySide::Left => left_varying(&pair, &tokens),
                EntitySide::Right => PerturbSpec::TokenDrop {
                    pair: &pair,
                    left: SideSpec::Fixed,
                    right: SideSpec::Varying(&tokens[..]),
                },
            };
            assert_eq!(memo_slots(&m, s, &spec)[0], 0);
            let name_bits = attr_bits(&tokens, 0, 0);
            let name_kept = |kept: bool| -> Vec<bool> {
                (0..tokens.len())
                    .map(|i| name_bits.contains(&i) == kept)
                    .collect()
            };
            let mut masks = vec![name_kept(false), name_kept(true), vec![false; tokens.len()]];
            masks.extend(name_bits.iter().map(|&bit| {
                let mut mask = name_kept(false);
                mask[bit] = true;
                mask
            }));
            assert_kernel_matches_fallback_on(&m, s, spec, &masks);
            assert_kernel_matches_fallback(&m, s, spec);
        }
    }

    #[test]
    fn over_cap_name_against_an_empty_side() {
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let long = Entity::new(vec![
            words(1, MEMO_MAX_BITS + 3),
            "slr camera".into(),
            "849.99".into(),
            "DSLRA200W".into(),
        ]);
        let blank = Entity::new(vec!["", "", "", ""]);
        let pair = EntityPair::new(long.clone(), blank.clone());
        let tokens = tokenize_entity(&pair.left);
        let spec = left_varying(&pair, &tokens);
        assert_eq!(memo_slots(&m, s, &spec)[0], 0);
        assert_kernel_matches_fallback(&m, s, spec);
        // LIME varies both sides; the blank one has no position, so every
        // bit the name reads is on the other side.
        for pair in [pair.clone(), EntityPair::new(blank, long)] {
            let lt = tokenize_entity(&pair.left);
            let rt = tokenize_entity(&pair.right);
            let lime = PerturbSpec::TokenDrop {
                pair: &pair,
                left: SideSpec::Varying(&lt[..]),
                right: SideSpec::Varying(&rt[..]),
            };
            assert_eq!(memo_slots(&m, s, &lime)[0], 0);
            let n = lt.len() + rt.len();
            let mut masks = masks_for(n);
            masks.extend((0..n).map(|bit| {
                let mut mask = vec![false; n];
                mask[bit] = true;
                mask
            }));
            assert_kernel_matches_fallback_on(&m, s, lime, &masks);
        }
    }

    #[test]
    fn over_cap_name_with_duplicate_tokens_on_both_sides() {
        // Repeated ids give tied Jaro-Winkler rows and columns and
        // repeated entries in both Jaccard id lists.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = EntityPair::new(
            Entity::new(vec![
                "sony sony alpha sony kit kit alpha sony lens sony kit alpha",
                "slr camera",
                "849.99",
                "DSLRA200W",
            ]),
            Entity::new(vec![
                "sony alpha alpha kit sony sony a200 kit kit",
                "camera kit",
                "$850",
                "a200",
            ]),
        );
        let lt = tokenize_entity(&pair.left);
        let rt = tokenize_entity(&pair.right);
        let one_side = left_varying(&pair, &lt);
        assert_eq!(memo_slots(&m, s, &one_side)[0], 0);
        assert_kernel_matches_fallback(&m, s, one_side);
        let fixed_left = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Fixed,
            right: SideSpec::Varying(&rt[..]),
        };
        assert_kernel_matches_fallback(&m, s, fixed_left);
        let both = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&lt[..]),
            right: SideSpec::Varying(&rt[..]),
        };
        let mut name_bits = attr_bits(&lt, 0, 0);
        name_bits.extend(attr_bits(&rt, 0, lt.len()));
        let n = lt.len() + rt.len();
        let masks: Vec<Vec<bool>> = masks_for(n)
            .into_iter()
            .chain(name_bits.iter().map(|&bit| {
                let mut mask = vec![true; n];
                mask[bit] = false;
                mask
            }))
            .collect();
        assert_kernel_matches_fallback_on(&m, s, both, &masks);
    }

    #[test]
    fn over_cap_name_whose_every_jaro_winkler_value_is_zero() {
        // Digits share no character with letters: every matrix entry, and
        // so every stored maximum and swept best match, is 0.0.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let digits = (0..MEMO_MAX_BITS + 2)
            .map(|i| (i * 37 % 100).to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let pair = EntityPair::new(
            Entity::new(vec![digits.as_str(), "slr camera", "849.99", "DSLRA200W"]),
            Entity::new(vec!["sony alpha camera", "camera kit", "$850", "a200"]),
        );
        let lt = tokenize_entity(&pair.left);
        let spec = left_varying(&pair, &lt);
        assert_eq!(memo_slots(&m, s, &spec)[0], 0);
        assert_kernel_matches_fallback_on(&m, s, spec, &masks_for(lt.len()));
        let rt = tokenize_entity(&pair.right);
        let both = PerturbSpec::TokenDrop {
            pair: &pair,
            left: SideSpec::Varying(&lt[..]),
            right: SideSpec::Varying(&rt[..]),
        };
        assert_kernel_matches_fallback_on(&m, s, both, &masks_for(lt.len() + rt.len()));
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn kernel_rejects_short_masks() {
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let pair = &d.records()[0].pair;
        let tokens = tokenize_entity(&pair.left);
        let spec = PerturbSpec::TokenDrop {
            pair,
            left: SideSpec::Varying(&tokens[..]),
            right: SideSpec::Fixed,
        };
        let record = m.prepare_record(d.schema(), pair);
        let mut scorer = record.scorer(&spec);
        let short = vec![true; tokens.len() - 1];
        scorer.score_mask(&short);
    }

    #[test]
    #[should_panic(expected = "its own pair")]
    fn a_record_refuses_a_family_of_another_pair() {
        // Equal values, another pair: its family must not read this
        // record's ids.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let pair = &d.records()[0].pair;
        let copy = pair.clone();
        let tokens = tokenize_entity(&copy.left);
        let record = m.prepare_record(d.schema(), pair);
        let _ = record.scorer(&left_varying(&copy, &tokens));
    }

    #[test]
    fn views_and_prediction_of_one_record_share_its_jaro_winkler_values() {
        // Both landmark views of a non-match (double-entity, so each
        // varying side also holds the landmark's tokens) and the
        // prediction, all through one record: every value they filled is
        // the one the `&str` entry computes for those two tokens, and the
        // scores equal the fallback's.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = &d.records()[1].pair;
        let record = MatcherRecord::new(&m, s, pair);
        assert_eq!(
            record.predict().to_bits(),
            m.predict_proba(s, pair).to_bits()
        );
        let (lt, rt) = em_entity::tokenize_pair(pair);
        let left_view: Vec<Token> = lt.iter().chain(&rt).cloned().collect();
        let right_view: Vec<Token> = rt.iter().chain(&lt).cloned().collect();
        let specs = [
            left_varying(pair, &left_view),
            PerturbSpec::TokenDrop {
                pair,
                left: SideSpec::Fixed,
                right: SideSpec::Varying(&right_view),
            },
        ];
        for spec in &specs {
            let mut kernel = record.scorer(spec);
            let mut naive = FallbackScorer::new(&m, s, spec);
            for mask in masks_for(spec.mask_len(s.len())) {
                assert_eq!(
                    kernel.score_mask(&mask).to_bits(),
                    naive.score_mask(&mask).to_bits()
                );
            }
        }
        let state = record.state.get().expect("built by the prediction");
        let mut jaro = JaroScratch::default();
        let mut filled = 0;
        for (attr, memo) in state.jaro.iter().enumerate() {
            for i in 0..memo.ids.len() {
                for j in 0..i {
                    if memo.values[i * (i - 1) / 2 + j].get().is_nan() {
                        continue;
                    }
                    filled += 1;
                    let direct = em_text::jaro_winkler(
                        state.interner.get(memo.ids[j]),
                        state.interner.get(memo.ids[i]),
                    );
                    assert_eq!(
                        state.jaro_winkler(attr, i, j, &mut jaro).to_bits(),
                        direct.to_bits()
                    );
                }
            }
        }
        assert!(filled > 0);
    }

    #[test]
    fn a_family_of_tokens_the_record_does_not_hold_is_scored_the_naive_way() {
        // "tripod" is in no attribute of the record, and "kit" is only in
        // the Text attribute, so the name's memo has no slots for it: both
        // families are scored bit-identically all the same.
        let d = dataset();
        let m = LogisticMatcher::train(&d);
        let s = d.schema();
        let pair = &d.records()[0].pair;
        let record = m.prepare_record(s, pair);
        for foreign in [Token::new(0, 0, "tripod"), Token::new(0, 0, "kit")] {
            let tokens = vec![Token::new(0, 0, "sony"), foreign];
            let spec = left_varying(pair, &tokens);
            let mut kernel = record.scorer(&spec);
            let mut naive = FallbackScorer::new(&m, s, &spec);
            for mask in masks_for(tokens.len()) {
                assert_eq!(
                    kernel.score_mask(&mask).to_bits(),
                    naive.score_mask(&mask).to_bits()
                );
            }
        }
    }
}
