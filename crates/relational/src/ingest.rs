//! Streaming ingest: batched inserts/deletes against a registered relation.
//!
//! Reptile's factorised representation exists so that aggregates and models
//! can be *maintained* rather than recomputed as the analyst drills down
//! (Section 4.3); the same machinery lets the base relation change under a
//! live feed. An [`IngestBatch`] is the unit of change: a bag of inserted
//! tuples plus a bag of deleted tuples, applied atomically by
//! [`Relation::apply`]. The result is a **new snapshot** that shares the
//! original's lineage identity ([`Relation::ident`]) and bumps its
//! [`Relation::version`] — views computed before the batch keep their old
//! snapshot alive through their own `Arc`, so serving and ingest can overlap
//! without locks at this layer.
//!
//! Deletes use bag semantics: each delete tuple removes exactly one matching
//! row (the earliest not already claimed by the batch), and a tuple with no
//! match fails the whole batch with [`RelationalError::NoSuchRow`] — nothing
//! is applied partially.
//!
//! A snapshot is built on codes, never on [`Value`] cells: each successor
//! column is the kept code segments plus the encoded inserts, over the
//! predecessor's `Arc`-shared dictionary (copied only when an insert carries
//! an unseen value), with the run and zone tables carried up to the first
//! changed row. An append costs about one copy of the `u32` columns.

use crate::dict::code_or_append;
use crate::error::RelationalError;
use crate::relation::Relation;
use crate::scan::CodeColumn;
use crate::schema::AttrId;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// A batch of row-level changes to apply to a [`Relation`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBatch {
    inserts: Vec<Vec<Value>>,
    deletes: Vec<Vec<Value>>,
}

impl IngestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        IngestBatch::default()
    }

    /// Add an inserted row (builder style).
    pub fn insert<I, V>(mut self, row: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.push_insert(row.into_iter().map(Into::into).collect());
        self
    }

    /// Add a deleted row (builder style). The tuple must match an existing
    /// row exactly (all attributes, including the measure).
    pub fn delete<I, V>(mut self, row: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.push_delete(row.into_iter().map(Into::into).collect());
        self
    }

    /// Append an inserted row in place.
    pub fn push_insert(&mut self, row: Vec<Value>) {
        self.inserts.push(row);
    }

    /// Append a deleted row in place.
    pub fn push_delete(&mut self, row: Vec<Value>) {
        self.deletes.push(row);
    }

    /// The rows this batch inserts.
    pub fn inserts(&self) -> &[Vec<Value>] {
        &self.inserts
    }

    /// The rows this batch deletes.
    pub fn deletes(&self) -> &[Vec<Value>] {
        &self.deletes
    }

    /// Total number of row changes (inserts plus deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Every changed tuple — inserts then deletes. This is the row set that
    /// cache-invalidation rules match predicates against: a cached view is
    /// stale if and only if at least one changed tuple satisfies its
    /// predicate.
    pub fn changed_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.inserts
            .iter()
            .chain(self.deletes.iter())
            .map(Vec::as_slice)
    }
}

impl Relation {
    /// Apply `batch` and return the next snapshot of this relation's
    /// lineage: same [`Relation::ident`], [`Relation::version`] plus one.
    ///
    /// The batch is validated up front (row arities, every delete tuple
    /// matched against a distinct row) and applied all-or-nothing. Deleted
    /// rows are removed, then inserts are appended in batch order. The
    /// receiver is untouched — callers holding an `Arc` of the old snapshot
    /// keep a consistent pre-ingest view of the data. The successor records
    /// the deleted rows and where the inserts start, so views over the
    /// receiver can [advance](crate::View::advance) to it by the batch. See
    /// the [module docs](self) for how the successor's columns are built.
    pub fn apply(&self, batch: &IngestBatch) -> Result<Relation> {
        let arity = self.schema().arity();
        for row in batch.inserts().iter().chain(batch.deletes()) {
            if row.len() != arity {
                return Err(RelationalError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
        }
        let columns: Vec<Arc<CodeColumn>> =
            (0..arity).map(|a| self.code_column(AttrId(a))).collect();
        let deleted = self.claim_deletes(&columns, batch.deletes())?;
        let first_changed = deleted.first().copied().unwrap_or(self.len());
        let next = columns
            .iter()
            .enumerate()
            .map(|(a, col)| {
                let mut dict = col.dict().clone();
                let mut codes =
                    Vec::with_capacity(self.len() - deleted.len() + batch.inserts().len());
                let mut kept = 0;
                for row in deleted.iter().copied().chain([self.len()]) {
                    codes.extend_from_slice(&col.codes()[kept..row]);
                    kept = row + 1;
                }
                codes.extend(
                    batch
                        .inserts()
                        .iter()
                        .map(|row| code_or_append(&mut dict, &row[a])),
                );
                col.successor(dict, codes, first_changed)
            })
            .collect();
        let kept = self.len() - deleted.len();
        Ok(Relation::from_code_columns(
            self.schema().clone(),
            self.ident(),
            self.version() + 1,
            next,
        )
        .with_delta(self, deleted, kept))
    }

    /// Resolve every delete tuple to a distinct row, earliest first, by one
    /// scan of the codes that allocates nothing per row (a value missing
    /// from a dictionary matches no row; a row is looked up by its code
    /// tuple only if each of its codes occurs in some delete tuple).
    fn claim_deletes(
        &self,
        columns: &[Arc<CodeColumn>],
        deletes: &[Vec<Value>],
    ) -> Result<Vec<usize>> {
        let no_such_row = |tuple: &[Value]| {
            let shown: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
            RelationalError::NoSuchRow(format!("({})", shown.join(", ")))
        };
        let mut wanted: Vec<Vec<bool>> = columns
            .iter()
            .map(|c| vec![false; c.dict().len()])
            .collect();
        let encode = |tuple: &[Value]| -> Option<Vec<u32>> {
            let codes = tuple.iter().zip(columns);
            codes
                .map(|(value, col)| col.dict().code_of(value))
                .collect()
        };
        let mut remaining: HashMap<Vec<u32>, usize> = HashMap::new();
        for tuple in deletes {
            let codes = encode(tuple).ok_or_else(|| no_such_row(tuple))?;
            for (wanted, &code) in wanted.iter_mut().zip(&codes) {
                wanted[code as usize] = true;
            }
            *remaining.entry(codes).or_insert(0) += 1;
        }
        let cols: Vec<&[u32]> = columns.iter().map(|c| c.codes()).collect();
        let mut claimed = Vec::with_capacity(deletes.len());
        let mut key = Vec::with_capacity(cols.len());
        for row in 0..self.len() {
            if claimed.len() == deletes.len() {
                break;
            }
            if !cols
                .iter()
                .zip(&wanted)
                .all(|(col, wanted)| wanted[col[row] as usize])
            {
                continue;
            }
            key.clear();
            key.extend(cols.iter().map(|col| col[row]));
            if let Some(n) = remaining.get_mut(key.as_slice()).filter(|n| **n > 0) {
                *n -= 1;
                claimed.push(row);
            }
        }
        match deletes
            .iter()
            .find(|t| remaining[&encode(t).expect("encoded above")] > 0)
        {
            Some(unresolved) => Err(no_such_row(unresolved)),
            None => Ok(claimed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        )
    }

    fn base() -> Relation {
        Relation::builder(schema())
            .row(["Ofla", "Adishim", "1986", "8"])
            .unwrap()
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .build()
    }

    fn row(d: &str, v: &str, y: &str, s: &str) -> Vec<Value> {
        vec![Value::str(d), Value::str(v), Value::str(y), Value::str(s)]
    }

    #[test]
    fn insert_and_delete_apply_atomically() {
        let rel = base();
        let batch = IngestBatch::new()
            .insert(["Raya", "Zata", "1986", "9"])
            .delete(["Ofla", "Darube", "1986", "2"]);
        let next = rel.apply(&batch).unwrap();
        assert_eq!(next.len(), 3);
        assert_eq!(rel.len(), 3, "old snapshot untouched");
        assert_eq!(next.ident(), rel.ident(), "same lineage");
        assert_eq!(next.version(), rel.version() + 1);
        // one of the duplicate Darube rows survives
        let darube =
            next.filter_indices(|r| next.value(r, crate::AttrId(1)) == &Value::str("Darube"));
        assert_eq!(darube.len(), 1);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.changed_rows().count(), 2);
    }

    #[test]
    fn duplicate_deletes_claim_distinct_rows() {
        let rel = base();
        let batch = IngestBatch::new()
            .delete(["Ofla", "Darube", "1986", "2"])
            .delete(["Ofla", "Darube", "1986", "2"]);
        let next = rel.apply(&batch).unwrap();
        assert_eq!(next.len(), 1);
    }

    #[test]
    fn missing_delete_tuple_fails_whole_batch() {
        let rel = base();
        let batch = IngestBatch::new()
            .insert(["Raya", "Zata", "1986", "9"])
            .delete(["Bora", "Nowhere", "1986", "1"]);
        let err = rel.apply(&batch).unwrap_err();
        assert!(matches!(err, RelationalError::NoSuchRow(_)), "{err}");
    }

    #[test]
    fn arity_is_validated() {
        let rel = base();
        let batch = IngestBatch::new().insert(["just-one"]);
        assert!(matches!(
            rel.apply(&batch),
            Err(RelationalError::ArityMismatch {
                expected: 4,
                got: 1
            })
        ));
        let mut batch = IngestBatch::new();
        batch.push_delete(row("Ofla", "Adishim", "1986", "8")[..2].to_vec());
        assert!(rel.apply(&batch).is_err());
    }

    #[test]
    fn code_columns_carry_across_apply() {
        let rel = base();
        let before = rel.code_column(crate::AttrId(1));
        assert_eq!(before.dict().len(), 2); // Adishim, Darube
        let _ = before.run_starts(); // derive the tables, so apply carries them
        let batch = IngestBatch::new()
            .insert(["Raya", "Zata", "1986", "9"])
            .insert(["Ofla", "Aaa", "1986", "1"])
            .delete(["Ofla", "Darube", "1986", "2"]);
        let next = rel.apply(&batch).unwrap();
        let after = next.code_column(crate::AttrId(1));
        // Kept rows keep their codes (stable extension), inserts append —
        // "Zata" and "Aaa" get codes 2 and 3 even though "Aaa" sorts first.
        for v in [Value::str("Adishim"), Value::str("Darube")] {
            assert_eq!(after.dict().code_of(&v), before.dict().code_of(&v));
        }
        assert_eq!(after.dict().code_of(&Value::str("Zata")), Some(2));
        assert_eq!(after.dict().code_of(&Value::str("Aaa")), Some(3));
        // The successor column decodes back to the successor's rows, and its
        // carried tables equal a fresh derivation over the same codes.
        assert_eq!(after.len(), next.len());
        for row in 0..next.len() {
            assert_eq!(
                after.dict().value(after.code(row)),
                next.value(row, crate::AttrId(1))
            );
        }
        let fresh = CodeColumn::from_parts(after.dict().clone(), after.codes().to_vec());
        assert_eq!(after.run_starts(), fresh.run_starts());
        assert_eq!(after.zones(), fresh.zones());
        // A dictionary no insert extends ("1986" only) is shared, not copied.
        assert!(Arc::ptr_eq(
            rel.code_column(crate::AttrId(2)).dict(),
            next.code_column(crate::AttrId(2)).dict()
        ));
        // A compiled select over the successor equals the reference, also
        // when the predecessor never derived its tables.
        let p = crate::Predicate::eq(crate::AttrId(1), Value::str("Zata"));
        let reference: Vec<usize> = (0..next.len()).filter(|&r| p.matches(&next, r)).collect();
        assert_eq!(p.select(&next), reference);
        let underived = base().apply(&batch).unwrap();
        assert_eq!(p.select(&underived), reference);
    }

    #[test]
    fn delete_of_a_value_only_deleted_rows_carried_is_no_such_row() {
        let rel = base();
        let gone = rel
            .apply(&IngestBatch::new().delete(["Ofla", "Adishim", "1986", "8"]))
            .unwrap();
        // "Adishim" survives in the dictionary, but no row carries it.
        let village = gone.code_column(crate::AttrId(1));
        assert!(village.dict().code_of(&Value::str("Adishim")).is_some());
        let batch = IngestBatch::new()
            .insert(["Raya", "Zata", "1986", "9"])
            .delete(["Ofla", "Darube", "1986", "2"])
            .delete(["Ofla", "Adishim", "1986", "8"]);
        let err = gone.apply(&batch).unwrap_err();
        assert!(
            matches!(err, RelationalError::NoSuchRow(ref t) if t.contains("Adishim")),
            "{err}"
        );
        // A value no dictionary has ever seen fails the same way.
        let batch = IngestBatch::new()
            .insert(["Raya", "Zata", "1986", "9"])
            .delete(["Ofla", "Darube", "1986", "2"])
            .delete(["Ofla", "Nowhere", "1986", "2"]);
        let err = gone.apply(&batch).unwrap_err();
        assert!(
            matches!(err, RelationalError::NoSuchRow(ref t) if t.contains("Nowhere")),
            "{err}"
        );
        // Neither failed batch applied anything.
        assert_eq!(gone.len(), 2);
        assert_eq!(gone.version(), rel.version() + 1);
    }

    #[test]
    fn duplicate_deletes_claim_the_earliest_rows() {
        let rel = Relation::builder(schema())
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .row(["Ofla", "Adishim", "1986", "8"])
            .unwrap()
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .row(["Bora", "Zata", "1987", "5"])
            .unwrap()
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .build();
        let darube = row("Ofla", "Darube", "1986", "2");
        let batch = IngestBatch::new()
            .delete(darube.clone())
            .delete(darube.clone());
        let next = rel.apply(&batch).unwrap();
        let rows: Vec<Vec<Value>> = (0..next.len()).map(|r| next.row(r)).collect();
        assert_eq!(
            rows,
            vec![
                row("Ofla", "Adishim", "1986", "8"),
                row("Bora", "Zata", "1987", "5"),
                darube,
            ]
        );
    }

    #[test]
    fn distinct_omits_a_value_once_its_last_row_is_deleted() {
        let rel = base();
        let village = crate::AttrId(1);
        assert_eq!(rel.distinct(village).len(), 2);
        let next = rel
            .apply(&IngestBatch::new().delete(["Ofla", "Adishim", "1986", "8"]))
            .unwrap();
        assert_eq!(next.distinct(village), vec![Value::str("Darube")]);
        let empty = next
            .apply(
                &IngestBatch::new()
                    .delete(["Ofla", "Darube", "1986", "2"])
                    .delete(["Ofla", "Darube", "1986", "2"]),
            )
            .unwrap();
        assert!(empty.is_empty());
        assert!(empty.distinct(village).is_empty());
        assert_eq!(empty.code_column(village).dict().len(), 2);
    }

    #[test]
    fn empty_batch_still_advances_the_version() {
        let rel = base();
        let next = rel.apply(&IngestBatch::new()).unwrap();
        assert_eq!(next.len(), rel.len());
        assert_eq!(next.version(), rel.version() + 1);
    }
}
