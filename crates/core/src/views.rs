//! Relational views over a curated database, with annotation
//! propagation in both directions (§2).
//!
//! Users see curated data through *views* — here, flat relations over
//! entry fields. Annotations made on a view must be carried **back** to
//! the source (reverse propagation, §2.2) and **forward** to other
//! views. [`annotate_through_view`] implements the full loop: find a
//! side-effect-free placement for the view annotation (via
//! `cdb-annotation`), and attach the note to the placed source field.

use std::collections::BTreeMap;

use cdb_annotation::colored::{ColoredRelation, ColoredTuple, Scheme};
use cdb_annotation::reverse::{find_placements, Target};
use cdb_curation::NodeId;
use cdb_model::Atom;
use cdb_relalg::{
    ColumnIndex, Database, IndexSet, PlanOp, RaExpr, RelalgError, Relation, Schema, Tuple,
};

use crate::db::{CuratedDatabase, DbError};

/// The flat relation of all entries over the given fields: schema is
/// `[key_field, fields…]`, one row per key in child order; entries
/// missing a field get `Unit`.
pub fn entry_relation(db: &CuratedDatabase, fields: &[&str]) -> Result<Relation, DbError> {
    entry_rows(db, fields).map(|(rel, _)| rel)
}

fn entry_schema(db: &CuratedDatabase, fields: &[&str]) -> Result<Schema, DbError> {
    let mut attrs = vec![db.key_field().to_owned()];
    attrs.extend(fields.iter().map(|f| (*f).to_owned()));
    Schema::new(attrs).map_err(relalg_to_db)
}

/// The row of one entry: its key, then each field's value (`Unit`
/// when absent).
fn entry_row(
    db: &CuratedDatabase,
    node: NodeId,
    key: &str,
    fields: &[&str],
) -> Result<Tuple, DbError> {
    let tree = &db.curated.tree;
    let mut row: Tuple = Vec::with_capacity(fields.len() + 1);
    row.push(Atom::Str(key.to_owned()));
    for f in fields {
        let cell = match tree.child_by_label(node, f)? {
            Some(c) => tree.value(c)?.cloned().unwrap_or(Atom::Unit),
            None => Atom::Unit,
        };
        row.push(cell);
    }
    Ok(row)
}

/// [`entry_relation`] plus the entry node behind each row — one pass
/// over the root's children. An entry whose key an earlier entry
/// already holds (possible only after a key-field edit) is skipped:
/// the key resolves to the first holder, so its row would repeat the
/// first holder's.
fn entry_rows(db: &CuratedDatabase, fields: &[&str]) -> Result<(Relation, Vec<NodeId>), DbError> {
    let mut span = cdb_obs::SpanGuard::enter("core.view.materialize");
    let mut rel = Relation::empty(entry_schema(db, fields)?);
    let mut nodes = Vec::new();
    for (node, key) in db.keyed_children() {
        if db.key_map().get(key) == Some(node) {
            rel.insert(entry_row(db, node, key, fields)?)
                .map_err(relalg_to_db)?;
            nodes.push(node);
        }
    }
    span.set_attr(nodes.len() as u64);
    Ok((rel, nodes))
}

/// Plans and runs a query over the entries relation with the cost-based
/// planner. The plan needs no rows: statistics come from
/// [`CuratedDatabase::planner_stats`] (the key map's size and
/// per-indexed-field distincts) and the planner asks the registered
/// durable indexes only whether a column is indexed. Then:
///
/// - a plan that reads `entries` only through index lookups gets just
///   the rows those lookups can return, found through the durable
///   postings and the key map — a point query never walks the tree;
/// - any other plan gets the whole relation from one pass over the
///   entries and, when it also probes an index, the postings mapped to
///   that pass's row offsets (as [`CuratedDatabase::relalg_index_set`]
///   would).
///
/// Returns the canonical result plus the physical plan and its
/// per-operator actuals, so callers (cdbsh `explain`) can show
/// estimates against reality.
///
/// The query sees one relation named `entries` with schema
/// `[key_field, fields…]`, exactly as [`entry_relation`] builds it.
///
/// [`CuratedDatabase::planner_stats`]: crate::db::CuratedDatabase::planner_stats
/// [`CuratedDatabase::relalg_index_set`]: crate::db::CuratedDatabase::relalg_index_set
pub fn query_entries_planned(
    db: &CuratedDatabase,
    fields: &[&str],
    q: &RaExpr,
) -> Result<(Relation, cdb_relalg::PhysPlan, Vec<cdb_relalg::PlanRun>), DbError> {
    let schema = entry_schema(db, fields)?;
    let mut indexed = IndexSet::new();
    for (col, idx) in db.view_indexes(fields) {
        indexed.add(ColumnIndex::from_postings("entries", idx.field(), col, []));
    }
    let stats = db.planner_stats(fields);
    let shape = Database::new().with("entries", Relation::empty(schema.clone()));
    let plan = cdb_relalg::plan::plan(&shape, &stats, &indexed, q);
    let (rel, indexes) = match lookup_rows(db, &plan) {
        Some(nodes) => {
            let mut rel = Relation::empty(schema);
            for (node, key) in nodes {
                rel.insert(entry_row(db, node, &key, fields)?)
                    .map_err(relalg_to_db)?;
            }
            let mut indexes = IndexSet::new();
            for idx in indexed.iter() {
                indexes.add(ColumnIndex::build("entries", &rel, &idx.col).map_err(relalg_to_db)?);
            }
            (rel, indexes)
        }
        None => {
            let (rel, rows) = entry_rows(db, fields)?;
            // Postings become row offsets only for a plan that probes them.
            let probes = plan
                .ops()
                .iter()
                .any(|op| matches!(op, PlanOp::IndexLookup { .. }));
            let indexes = if probes {
                db.index_set_over(fields, &rows)
            } else {
                IndexSet::new()
            };
            (rel, indexes)
        }
    };
    let rdb = Database::new().with("entries", rel);
    let (out, runs) =
        cdb_relalg::plan::eval_plan(&rdb, &plan, &indexes, &cdb_relalg::ExecConfig::default())
            .map_err(relalg_to_db)?;
    Ok((out, plan, runs))
}

/// When `plan` reads `entries` only through index lookups: the
/// entries those lookups can return, as entry node → key in child
/// order. `None` when any part of the plan scans the relation.
fn lookup_rows(
    db: &CuratedDatabase,
    plan: &cdb_relalg::PhysPlan,
) -> Option<BTreeMap<NodeId, String>> {
    let mut nodes = BTreeMap::new();
    for op in plan.ops() {
        match op {
            PlanOp::IndexLookup { col, key, .. } => {
                for k in db.field_index(col)?.lookup(key) {
                    nodes.extend(db.key_map().get(&k).map(|n| (n, k)));
                }
            }
            PlanOp::Scan { .. } | PlanOp::ScanAs { .. } | PlanOp::Naive { .. } => return None,
            _ => {}
        }
    }
    Some(nodes)
}

/// The same relation with every cell distinctly colored `key/field`, so
/// view outputs carry readable where-provenance.
pub fn colored_entry_relation(
    db: &CuratedDatabase,
    fields: &[&str],
) -> Result<ColoredRelation, DbError> {
    let plain = entry_relation(db, fields)?;
    let key_field = db.key_field().to_owned();
    let mut out = ColoredRelation::empty(plain.schema().clone());
    for row in plain.tuples() {
        let key = match &row[0] {
            Atom::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let colors: Vec<String> = std::iter::once(format!("{key}/{key_field}"))
            .chain(fields.iter().map(|f| format!("{key}/{f}")))
            .collect();
        out.insert(ColoredTuple::with_colors(row.clone(), colors))
            .map_err(relalg_to_db)?;
    }
    Ok(out)
}

/// The result of annotating through a view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewAnnotation {
    /// The annotation was placed on this source `(entry key, field)`.
    Placed {
        /// The entry the note landed on.
        key: String,
        /// The field the note landed on.
        field: String,
    },
    /// No side-effect-free placement exists (§2.2's hard case); the note
    /// was not attached.
    NoCleanPlacement,
    /// Multiple equally-valid placements; the note was attached to all.
    PlacedMultiple(Vec<(String, String)>),
}

/// Annotates a cell of the view `q(entries)`: finds side-effect-free
/// source placements by reverse propagation and attaches the note to the
/// placed source field(s).
///
/// The view `q` must reference the entry relation by the name
/// `"entries"` with schema `[key_field, fields…]`.
pub fn annotate_through_view(
    db: &mut CuratedDatabase,
    fields: &[&str],
    q: &RaExpr,
    target: &Target,
    author: &str,
    text: &str,
    time: u64,
) -> Result<ViewAnnotation, DbError> {
    let rel = entry_relation(db, fields)?;
    let rdb = Database::new().with("entries", rel.clone());
    let (placements, _stats) = find_placements(&rdb, q, target).map_err(relalg_to_db)?;
    if placements.is_empty() {
        return Ok(ViewAnnotation::NoCleanPlacement);
    }
    let mut placed = Vec::new();
    for p in &placements {
        // Recover (key, field) from the placement tuple.
        let key = match &p.tuple[0] {
            Atom::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let field = p.attr.clone();
        if field == db.key_field() {
            db.annotate(&key, None, author, text, time)?;
            placed.push((key, "<entry>".to_owned()));
        } else {
            db.annotate(&key, Some(&field), author, text, time)?;
            placed.push((key, field));
        }
    }
    Ok(match placed.len() {
        1 => {
            let (key, field) = placed.remove(0);
            ViewAnnotation::Placed { key, field }
        }
        _ => ViewAnnotation::PlacedMultiple(placed),
    })
}

/// Evaluates a view over the colored entry relation so the output cells
/// carry `key/field` where-provenance.
pub fn colored_view(
    db: &CuratedDatabase,
    fields: &[&str],
    q: &RaExpr,
    scheme: &Scheme,
) -> Result<ColoredRelation, DbError> {
    let colored = colored_entry_relation(db, fields)?;
    let mut cdb = cdb_annotation::colored::ColoredDatabase::new();
    cdb.insert("entries", colored);
    cdb_annotation::colored::eval_colored(&cdb, q, scheme).map_err(relalg_to_db)
}

fn relalg_to_db(e: RelalgError) -> DbError {
    DbError::NoSuchEntry(format!("relational view error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_relalg::Pred;

    fn sample() -> CuratedDatabase {
        let mut db = CuratedDatabase::new("iuphar", "name");
        db.add_entry(
            "GABA-A",
            1,
            "GABA-A",
            &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db.add_entry(
            "alice",
            2,
            "5-HT3",
            &[("kind", Atom::Str("channel".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db
    }

    #[test]
    fn entry_relation_flattens_entries() {
        let db = sample();
        let rel = entry_relation(&db, &["kind", "tm"]).unwrap();
        assert_eq!(rel.schema().attrs(), ["name", "kind", "tm"]);
        assert_eq!(rel.len(), 2);
        // Missing fields come out as Unit.
        let rel2 = entry_relation(&db, &["nope"]).unwrap();
        assert!(rel2.tuples().iter().all(|t| t[1] == Atom::Unit));
    }

    #[test]
    fn colored_view_carries_readable_provenance() {
        let db = sample();
        let q = RaExpr::scan("entries")
            .select(Pred::col_eq_const("kind", "receptor"))
            .project_cols(["tm"]);
        let out = colored_view(&db, &["kind", "tm"], &q, &Scheme::Default).unwrap();
        let cs = out.cell_colors(&vec![Atom::Int(4)], "tm").unwrap();
        assert_eq!(
            cs.iter().cloned().collect::<Vec<_>>(),
            vec!["GABA-A/tm".to_string()],
            "the 4 came from GABA-A's tm field, not 5-HT3's"
        );
    }

    #[test]
    fn annotating_through_a_selection_view_lands_on_the_source() {
        let mut db = sample();
        let q = RaExpr::scan("entries").select(Pred::col_eq_const("name", "GABA-A"));
        let target = Target {
            tuple: vec![
                Atom::Str("GABA-A".into()),
                Atom::Str("receptor".into()),
                Atom::Int(4),
            ],
            attr: "kind".into(),
        };
        let r = annotate_through_view(
            &mut db,
            &["kind", "tm"],
            &q,
            &target,
            "carol",
            "check this",
            9,
        )
        .unwrap();
        assert_eq!(
            r,
            ViewAnnotation::Placed {
                key: "GABA-A".into(),
                field: "kind".into()
            }
        );
        assert_eq!(db.notes_on("GABA-A", Some("kind")).len(), 1);
        assert_eq!(db.notes_on("5-HT3", Some("kind")).len(), 0);
    }

    #[test]
    fn annotation_with_spread_reports_no_clean_placement() {
        let mut db = sample();
        // π_tm merges the two entries' equal tm values: annotating the
        // merged output cell cannot be placed side-effect-free on one
        // source… actually placing on either source colors the single
        // merged cell exactly — both placements are clean. Force a
        // spread instead: a product duplicating a cell.
        let q = RaExpr::ScanAs("entries".into(), "a".into())
            .product(RaExpr::ScanAs("entries".into(), "b".into()))
            .project(vec![
                cdb_relalg::ProjItem::col("a.name", "name"),
                cdb_relalg::ProjItem::col("b.tm", "tm"),
            ]);
        // Output tuple (GABA-A, 4): its name cell is copied into rows
        // paired with both b-tuples, but projection merges them…
        // target the name cell of a *specific* row.
        let target = Target {
            tuple: vec![Atom::Str("GABA-A".into()), Atom::Int(4)],
            attr: "name".into(),
        };
        let r = annotate_through_view(&mut db, &["tm"], &q, &target, "x", "y", 1).unwrap();
        // GABA-A's name colors the (GABA-A, 4) row's name cell only —
        // both b-rows have tm = 4, so the projection merges to a single
        // output tuple and the placement is clean.
        assert!(matches!(r, ViewAnnotation::Placed { .. }));
        // Now make the tm values differ so the spread is real.
        db.edit_field("e", 2, "5-HT3", "tm", Atom::Int(9)).unwrap();
        let target2 = Target {
            tuple: vec![Atom::Str("GABA-A".into()), Atom::Int(4)],
            attr: "name".into(),
        };
        let r2 = annotate_through_view(&mut db, &["tm"], &q, &target2, "x", "y", 1).unwrap();
        assert_eq!(
            r2,
            ViewAnnotation::NoCleanPlacement,
            "GABA-A's name now spreads to (GABA-A,4) and (GABA-A,9)"
        );
    }

    #[test]
    fn union_merge_annotates_all_sources() {
        let mut db = sample();
        // π_tm over both entries with equal tm: both placements clean.
        let q = RaExpr::scan("entries").project_cols(["tm"]);
        let target = Target {
            tuple: vec![Atom::Int(4)],
            attr: "tm".into(),
        };
        let r = annotate_through_view(&mut db, &["tm"], &q, &target, "x", "note", 1).unwrap();
        match r {
            ViewAnnotation::PlacedMultiple(ps) => {
                assert_eq!(ps.len(), 2);
            }
            other => panic!("expected multiple placements, got {other:?}"),
        }
        assert_eq!(db.notes_on("GABA-A", Some("tm")).len(), 1);
        assert_eq!(db.notes_on("5-HT3", Some("tm")).len(), 1);
    }
}
