//! Derived access paths over entries: the key map and the durable
//! secondary indexes over entry fields.
//!
//! A [`KeyMap`] maps each entry key to the node
//! [`CuratedDatabase::entry_node`] answers with, so keyed reads and
//! writes probe a hash map instead of scanning the root's children.
//! Like index postings it is derived state: never serialized, rebuilt
//! from the tree on open, carried by snapshots and 2PC backups, and
//! reconciled by the same per-commit hook
//! ([`CuratedDatabase::reconcile_touched`]).
//!
//! A [`FieldIndex`] maps each value of one entry field to the set of
//! entry keys holding it — the curated-database analogue of
//! `cdb_relalg`'s column index, keyed by entry instead of row offset
//! because entries move (merge, split, delete) while a curated database
//! evolves. [`CuratedDatabase::create_index`] registers one; the
//! registration is written to the WAL as an `AUX` frame (tag
//! [`crate::durable::AUX_INDEX`]), carried by every checkpoint, and
//! replayed on recovery, where the postings are rebuilt from the
//! recovered tree — postings themselves are derived state and are never
//! serialized. Every committing curation operation reconciles the
//! touched keys, so postings are transactionally consistent with the
//! tree (2PC rollback restores them via the transaction backup).
//!
//! The planner-facing view: [`CuratedDatabase::relalg_index_set`]
//! converts postings to row offsets of the entries relation, and
//! [`CuratedDatabase::planner_stats`] derives row counts and per-field
//! distinct counts without scanning — the durable engine's answer to
//! `DbStats::analyze`.
//!
//! [`CuratedDatabase::entry_node`]: crate::db::CuratedDatabase::entry_node
//! [`CuratedDatabase::reconcile_touched`]: crate::db::CuratedDatabase::reconcile_touched
//! [`CuratedDatabase::create_index`]: crate::db::CuratedDatabase::create_index
//! [`CuratedDatabase::relalg_index_set`]: crate::db::CuratedDatabase::relalg_index_set
//! [`CuratedDatabase::planner_stats`]: crate::db::CuratedDatabase::planner_stats

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use cdb_curation::NodeId;
use cdb_model::Atom;

/// Entry key → entry node, for every keyed entry (a root child whose
/// first key-field child holds a string).
///
/// Keys are unique through the curation API, but editing an entry's
/// key field can make two entries share one. Lookups then answer the
/// first in child order — what a scan of the root's children would
/// find. Entries are appended to the root and never move, so child
/// order is node-id order and the first holder is the lowest id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyMap {
    /// Key → its first holder. Hashed, not ordered: a probe then
    /// touches one bucket instead of a comparison per tree level, each
    /// a pointer chase into a key string.
    first: HashMap<Arc<str>, NodeId>,
    /// Entry node → key, for every keyed entry (shadowed holders too).
    /// The two maps share each key, so the copy every published
    /// snapshot takes bumps reference counts instead of copying strings.
    keys: BTreeMap<NodeId, Arc<str>>,
}

impl KeyMap {
    /// The node of the entry with `key`.
    pub fn get(&self, key: &str) -> Option<NodeId> {
        self.first.get(key).copied()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// Whether no entry is keyed.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// `(key, node)` lookups, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.first.iter().map(|(k, n)| (&**k, *n))
    }

    /// Every keyed entry as `(node, key)`, in child order, shadowed
    /// duplicates included.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.keys.iter().map(|(n, k)| (*n, &**k))
    }

    /// Files `node` under `key` (`None`: no longer a keyed entry) and
    /// returns the key it was filed under before.
    pub(crate) fn refile(&mut self, node: NodeId, key: Option<&str>) -> Option<Arc<str>> {
        let shadowed = self.keys.len() > self.first.len();
        let key: Option<Arc<str>> = key.map(|k| match self.first.get_key_value(k) {
            Some((shared, _)) => shared.clone(),
            None => k.into(),
        });
        let old = match &key {
            Some(k) if self.keys.get(&node) == Some(k) => return key,
            Some(k) => self.keys.insert(node, k.clone()),
            None => self.keys.remove(&node),
        };
        if let Some(o) = &old {
            if self.first.get(o) == Some(&node) {
                // The next holder takes over. Only a map that already
                // had shadowed holders can have one, so the scan runs
                // only after a key-field edit made a duplicate.
                let next = shadowed
                    .then(|| self.keys.iter().find(|(_, k)| *k == o).map(|(n, _)| *n))
                    .flatten();
                match next {
                    Some(n) => self.first.insert(o.clone(), n),
                    None => self.first.remove(o),
                };
            }
        }
        if let Some(k) = key {
            let f = self.first.entry(k).or_insert(node);
            *f = (*f).min(node);
        }
        old
    }
}

/// A secondary index over one entry field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndex {
    field: String,
    /// Value → keys of the entries holding it.
    by_value: BTreeMap<Atom, BTreeSet<String>>,
    /// Key → the value currently indexed for it (the reverse map that
    /// makes reconciliation O(log n) instead of a full-index sweep).
    by_key: BTreeMap<String, Atom>,
}

impl FieldIndex {
    pub(crate) fn new(field: impl Into<String>) -> FieldIndex {
        FieldIndex {
            field: field.into(),
            ..FieldIndex::default()
        }
    }

    /// The indexed field name.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Keys of the entries whose field equals `value`, in key order.
    pub fn lookup(&self, value: &Atom) -> Vec<String> {
        self.by_value
            .get(value)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> u64 {
        self.by_value.len() as u64
    }

    /// Number of entries indexed.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Iterates `(value, keys)` postings in value order.
    pub fn postings(&self) -> impl Iterator<Item = (&Atom, &BTreeSet<String>)> {
        self.by_value.iter()
    }

    /// Points `key` at `value`, unlinking any previous value.
    pub(crate) fn set(&mut self, key: &str, value: Atom) {
        self.remove(key);
        self.by_value
            .entry(value.clone())
            .or_default()
            .insert(key.to_owned());
        self.by_key.insert(key.to_owned(), value);
    }

    /// Unlinks `key` entirely (entry deleted or absorbed).
    pub(crate) fn remove(&mut self, key: &str) {
        if let Some(old) = self.by_key.remove(key) {
            if let Some(set) = self.by_value.get_mut(&old) {
                set.remove(key);
                if set.is_empty() {
                    self.by_value.remove(&old);
                }
            }
        }
    }
}

/// The registered secondary indexes of a curated database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndexes {
    map: BTreeMap<String, FieldIndex>,
}

impl FieldIndexes {
    /// The index on `field`, if registered.
    pub fn get(&self, field: &str) -> Option<&FieldIndex> {
        self.map.get(field)
    }

    /// The registered field names, in order.
    pub fn fields(&self) -> Vec<String> {
        self.map.keys().cloned().collect()
    }

    /// Iterates the registered indexes in field order.
    pub fn iter(&self) -> impl Iterator<Item = &FieldIndex> {
        self.map.values()
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no indexes are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Registers an empty index; `false` if one already existed.
    pub(crate) fn register(&mut self, field: &str) -> bool {
        if self.map.contains_key(field) {
            return false;
        }
        self.map.insert(field.to_owned(), FieldIndex::new(field));
        true
    }

    /// Drops an index; `false` if none was registered.
    pub(crate) fn unregister(&mut self, field: &str) -> bool {
        self.map.remove(field).is_some()
    }

    /// Mutable access for reconciliation.
    pub(crate) fn get_mut(&mut self, field: &str) -> Option<&mut FieldIndex> {
        self.map.get_mut(field)
    }

    /// Unlinks a key from every index.
    pub(crate) fn remove_key(&mut self, key: &str) {
        for idx in self.map.values_mut() {
            idx.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_moves_postings_between_values() {
        let mut idx = FieldIndex::new("tm");
        idx.set("P1", Atom::Int(7));
        idx.set("P2", Atom::Int(7));
        assert_eq!(idx.lookup(&Atom::Int(7)), ["P1", "P2"]);
        idx.set("P1", Atom::Int(9));
        assert_eq!(idx.lookup(&Atom::Int(7)), ["P2"]);
        assert_eq!(idx.lookup(&Atom::Int(9)), ["P1"]);
        assert_eq!(idx.distinct(), 2);
        idx.remove("P2");
        assert!(idx.lookup(&Atom::Int(7)).is_empty());
        assert_eq!(idx.distinct(), 1, "empty postings are pruned");
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn registry_registers_once() {
        let mut set = FieldIndexes::default();
        assert!(set.register("tm"));
        assert!(!set.register("tm"));
        assert_eq!(set.fields(), ["tm"]);
        assert!(set.unregister("tm"));
        assert!(!set.unregister("tm"));
        assert!(set.is_empty());
    }
}
