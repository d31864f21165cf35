//! Entity pairs — the records an EM model classifies.

use crate::entity::Entity;
use crate::schema::Schema;

/// Which entity of a pair is being referenced. Ordered `Left < Right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntitySide {
    /// The left entity (first dataset).
    Left,
    /// The right entity (second dataset).
    Right,
}

impl EntitySide {
    /// The column-name prefix for this side (`left` / `right`).
    pub fn prefix(self) -> &'static str {
        match self {
            EntitySide::Left => "left",
            EntitySide::Right => "right",
        }
    }

    /// Parses the prefix form back into a side (`"left"` / `"right"`),
    /// e.g. from a decoded JSON field.
    pub fn parse(s: &str) -> Option<EntitySide> {
        match s {
            "left" => Some(EntitySide::Left),
            "right" => Some(EntitySide::Right),
            _ => None,
        }
    }

    /// The opposite side.
    pub fn other(self) -> EntitySide {
        match self {
            EntitySide::Left => EntitySide::Right,
            EntitySide::Right => EntitySide::Left,
        }
    }

    /// Both sides, in `[Left, Right]` order.
    pub fn both() -> [EntitySide; 2] {
        [EntitySide::Left, EntitySide::Right]
    }
}

// Written by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's `disallowed_methods` refuses in this workspace (DESIGN.md §9).
impl Ord for EntitySide {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let rank = |side: &EntitySide| match side {
            EntitySide::Left => 0u8,
            EntitySide::Right => 1,
        };
        rank(self).cmp(&rank(other))
    }
}

impl PartialOrd for EntitySide {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for EntitySide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A pair of entities sharing one schema — the unit of EM classification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntityPair {
    /// Left entity.
    pub left: Entity,
    /// Right entity.
    pub right: Entity,
}

impl EntityPair {
    /// Builds a pair.
    pub fn new(left: Entity, right: Entity) -> Self {
        EntityPair { left, right }
    }

    /// Builds a pair from two `(attribute name, value)` lists, aligning
    /// both sides to `schema` order — the constructor the serving layer
    /// uses for records decoded from client JSON. See
    /// [`Entity::from_named_values`] for the alignment rules.
    pub fn from_named_values<'a, L, R>(
        schema: &Schema,
        left: L,
        right: R,
    ) -> Result<Self, crate::entity::UnknownAttribute>
    where
        L: IntoIterator<Item = (&'a str, &'a str)>,
        R: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Ok(EntityPair {
            left: Entity::from_named_values(schema, left)?,
            right: Entity::from_named_values(schema, right)?,
        })
    }

    /// The entity on `side`.
    pub fn entity(&self, side: EntitySide) -> &Entity {
        match side {
            EntitySide::Left => &self.left,
            EntitySide::Right => &self.right,
        }
    }

    /// Mutable access to the entity on `side`.
    pub fn entity_mut(&mut self, side: EntitySide) -> &mut Entity {
        match side {
            EntitySide::Left => &mut self.left,
            EntitySide::Right => &mut self.right,
        }
    }

    /// Replaces the entity on `side`, returning the new pair.
    pub fn with_entity(&self, side: EntitySide, entity: Entity) -> EntityPair {
        let mut p = self.clone();
        *p.entity_mut(side) = entity;
        p
    }

    /// Checks both entities conform to the schema.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.left.conforms_to(schema) && self.right.conforms_to(schema)
    }

    /// Renders the record as the paper's Figure 1 table layout, one
    /// `left_x | right_x` column pair per attribute.
    pub fn display_with(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for i in 0..schema.len() {
            out.push_str(&format!(
                "{}: {:?} | {}: {:?}\n",
                schema.side_column(EntitySide::Left, i),
                self.left.value(i),
                schema.side_column(EntitySide::Right, i),
                self.right.value(i),
            ));
        }
        out
    }
}

/// A pair plus its ground-truth match label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledPair {
    /// The record.
    pub pair: EntityPair,
    /// `true` = the two entities refer to the same real-world entity.
    pub label: bool,
}

impl LabeledPair {
    /// Builds a labeled pair.
    pub fn new(pair: EntityPair, label: bool) -> Self {
        LabeledPair { pair, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> EntityPair {
        EntityPair::new(
            Entity::new(vec!["sony camera"]),
            Entity::new(vec!["nikon case"]),
        )
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test pins `partial_cmp` itself against `cmp`"
    )]
    fn side_order_is_left_before_right() {
        use std::cmp::Ordering;
        assert!(EntitySide::Left < EntitySide::Right);
        assert_eq!(EntitySide::Left.cmp(&EntitySide::Right), Ordering::Less);
        assert_eq!(EntitySide::Right.cmp(&EntitySide::Left), Ordering::Greater);
        for a in EntitySide::both() {
            assert_eq!(a.cmp(&a), Ordering::Equal);
            for b in EntitySide::both() {
                assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            }
        }
    }

    #[test]
    fn side_prefix_and_other() {
        assert_eq!(EntitySide::Left.prefix(), "left");
        assert_eq!(EntitySide::Right.other(), EntitySide::Left);
        assert_eq!(EntitySide::both(), [EntitySide::Left, EntitySide::Right]);
    }

    #[test]
    fn side_parse_inverts_prefix() {
        for side in EntitySide::both() {
            assert_eq!(EntitySide::parse(side.prefix()), Some(side));
        }
        assert_eq!(EntitySide::parse("middle"), None);
    }

    #[test]
    fn from_named_values_builds_both_sides() {
        let s = Schema::from_names(vec!["name", "price"]);
        let p = EntityPair::from_named_values(
            &s,
            [("name", "sony camera"), ("price", "849.99")],
            [("price", "7.99")],
        )
        .unwrap();
        assert_eq!(p.left.value(0), "sony camera");
        assert_eq!(p.right.value(0), "");
        assert_eq!(p.right.value(1), "7.99");
        assert!(EntityPair::from_named_values(&s, [("bogus", "x")], []).is_err());
    }

    #[test]
    fn entity_accessors() {
        let p = pair();
        assert_eq!(p.entity(EntitySide::Left).value(0), "sony camera");
        assert_eq!(p.entity(EntitySide::Right).value(0), "nikon case");
    }

    #[test]
    fn with_entity_replaces_one_side() {
        let p = pair().with_entity(EntitySide::Right, Entity::new(vec!["sony camera"]));
        assert_eq!(p.left, p.right);
    }

    #[test]
    fn entity_mut_mutates() {
        let mut p = pair();
        p.entity_mut(EntitySide::Left).set_value(0, "x");
        assert_eq!(p.left.value(0), "x");
    }

    #[test]
    fn conforms_checks_both_sides() {
        let s = Schema::from_names(vec!["name"]);
        assert!(pair().conforms_to(&s));
        let bad = EntityPair::new(Entity::new(vec!["a", "b"]), Entity::new(vec!["a"]));
        assert!(!bad.conforms_to(&s));
    }

    #[test]
    fn display_contains_side_columns() {
        let s = Schema::from_names(vec!["name"]);
        let d = pair().display_with(&s);
        assert!(d.contains("left_name"));
        assert!(d.contains("right_name"));
    }

    #[test]
    fn labeled_pair_holds_label() {
        let lp = LabeledPair::new(pair(), true);
        assert!(lp.label);
    }
}
