//! Shipping relations and view scatter payloads as bytes.
//!
//! Three payload families, all on the [`crate::codec`] primitives:
//!
//! * **Partitions** ([`encode_partition`]/[`decode_partition`]): one
//!   worker's contiguous row range of a relation. Crucially, each attribute
//!   ships the coordinator's **full dictionary in code order** with only the
//!   partition's code slice — the shared-dictionary contract over the wire.
//!   A code means the same value on every worker and on the coordinator, so
//!   code-keyed partial tables merge code-wise with no translation, exactly
//!   like in-process shards. Dictionaries are shipped in *code* order (not
//!   re-sorted) so post-ingest appended codes survive the round trip.
//! * **View plans** ([`encode_view_plan`]): the predicate terms, group-by
//!   list, and measure of one view scan, plus the `(ident, version)` of the
//!   snapshot it must run against — a worker holding a stale epoch answers
//!   with a typed error instead of a wrong-but-plausible partial.
//! * **View partials** ([`answer_view_scan`]/[`decode_view_partial`]): the
//!   code-tuple keyed group table a worker scanned out of its partition —
//!   per group, the measure values *in row order*, so the coordinator can
//!   replay the serial accumulation bit-exactly in worker order. A reply is
//!   `8 + Σ_groups (4·arity + 4 + 8·n_values)` bytes: it carries no row
//!   indices (provenance is a scan the coordinator runs on demand).

use crate::codec::{put_str, put_u32, put_u64, put_value, CodecError, Reader};
use crate::dict::ValueDict;
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::scan::{scan_partial, CodeColumn, CompiledPredicate, Grouped, MeasureColumn};
use crate::schema::{AttrId, Schema};
use std::sync::Arc;

/// A relation partition decoded off the wire: the reassembled relation
/// (coordinator lineage, coordinator code space) plus the global row offset
/// of its first row.
pub struct ShippedPartition {
    /// The partition as a self-contained relation.
    pub relation: Arc<Relation>,
    /// Global index of the partition's first row in the coordinator's
    /// relation.
    pub row_offset: usize,
}

fn encode_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.hierarchies().len() as u32);
    for h in schema.hierarchies() {
        put_str(buf, &h.name);
        put_u32(buf, h.levels.len() as u32);
        for &level in &h.levels {
            put_str(buf, schema.name(level));
        }
    }
    let measures = schema.measures();
    put_u32(buf, measures.len() as u32);
    for m in measures {
        put_str(buf, schema.name(m));
    }
}

fn decode_schema(r: &mut Reader<'_>) -> Result<Schema, CodecError> {
    let mut builder = Schema::builder();
    let hierarchies = r.count(1)?;
    for _ in 0..hierarchies {
        let name = r.str()?.to_string();
        let levels = r.count(1)?;
        let mut names = Vec::with_capacity(levels);
        for _ in 0..levels {
            names.push(r.str()?.to_string());
        }
        builder = builder.hierarchy(name, names);
    }
    let measures = r.count(1)?;
    for _ in 0..measures {
        builder = builder.measure(r.str()?.to_string());
    }
    builder
        .build()
        .map_err(|e| CodecError::Invalid(format!("shipped schema: {e}")))
}

/// Encode rows `start..start + len` of `relation` as one worker partition.
pub fn encode_partition(relation: &Relation, start: usize, len: usize) -> Vec<u8> {
    assert!(start + len <= relation.len(), "partition out of range");
    let mut buf = Vec::new();
    encode_schema(&mut buf, relation.schema());
    put_u64(&mut buf, relation.ident());
    put_u64(&mut buf, relation.version());
    put_u64(&mut buf, start as u64);
    put_u64(&mut buf, len as u64);
    for attr in 0..relation.schema().arity() {
        let col = relation.code_column(AttrId(attr));
        let dict = col.dict();
        put_u32(&mut buf, dict.len() as u32);
        for value in dict.values() {
            put_value(&mut buf, value);
        }
        for &code in &col.codes()[start..start + len] {
            put_u32(&mut buf, code);
        }
    }
    buf
}

/// Decode one worker partition, rebuilding hot [`CodeColumn`]s (run tables
/// and zone maps are derived locally from the shipped codes).
pub fn decode_partition(bytes: &[u8]) -> Result<ShippedPartition, CodecError> {
    let mut r = Reader::new(bytes);
    let schema = Arc::new(decode_schema(&mut r)?);
    let ident = r.u64()?;
    let version = r.u64()?;
    let row_offset = r.u64()? as usize;
    let len64 = r.u64()?;
    // Every row costs at least 4 bytes (one code) per attribute; reject a
    // hostile row count before any allocation is sized from it.
    if len64.saturating_mul(4) > r.remaining() as u64 {
        return Err(CodecError::CountOverflow {
            count: len64,
            remaining: r.remaining(),
        });
    }
    let len = len64 as usize;
    let mut code_columns = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        let dict_len = r.count(1)?;
        let mut values = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            values.push(r.value()?);
        }
        let dict = ValueDict::from_code_order(values);
        let mut codes = Vec::with_capacity(len);
        for _ in 0..len {
            let code = r.u32()?;
            if code as usize >= dict.len() {
                return Err(CodecError::Invalid(format!(
                    "code {code} out of dictionary range {}",
                    dict.len()
                )));
            }
            codes.push(code);
        }
        code_columns.push(CodeColumn::from_parts(dict, codes));
    }
    r.finish()?;
    let relation = Arc::new(Relation::from_shipped_parts(
        schema,
        ident,
        version,
        code_columns,
    ));
    Ok(ShippedPartition {
        relation,
        row_offset,
    })
}

/// Encode one view scan plan against snapshot `(ident, version)`.
pub fn encode_view_plan(
    ident: u64,
    version: u64,
    predicate: &Predicate,
    group_by: &[AttrId],
    measure: AttrId,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, ident);
    put_u64(&mut buf, version);
    put_u32(&mut buf, predicate.terms().len() as u32);
    for (attr, value) in predicate.terms() {
        put_u32(&mut buf, attr.index() as u32);
        put_value(&mut buf, value);
    }
    put_u32(&mut buf, group_by.len() as u32);
    for attr in group_by {
        put_u32(&mut buf, attr.index() as u32);
    }
    put_u32(&mut buf, measure.index() as u32);
    buf
}

/// A decoded view plan.
pub struct ViewPlan {
    /// Lineage ident of the snapshot the plan targets.
    pub ident: u64,
    /// Version of the snapshot the plan targets.
    pub version: u64,
    /// The provenance predicate.
    pub predicate: Predicate,
    /// Group-by attributes, in order.
    pub group_by: Vec<AttrId>,
    /// Measure attribute.
    pub measure: AttrId,
}

/// Decode a view scan plan.
pub fn decode_view_plan(bytes: &[u8]) -> Result<ViewPlan, CodecError> {
    let mut r = Reader::new(bytes);
    let ident = r.u64()?;
    let version = r.u64()?;
    let terms = r.count(5)?;
    let mut predicate = Predicate::all();
    for _ in 0..terms {
        let attr = AttrId(r.u32()? as usize);
        let value = r.value()?;
        predicate = predicate.and_eq(attr, value);
    }
    let group_len = r.count(4)?;
    let mut group_by = Vec::with_capacity(group_len);
    for _ in 0..group_len {
        group_by.push(AttrId(r.u32()? as usize));
    }
    let measure = AttrId(r.u32()? as usize);
    r.finish()?;
    Ok(ViewPlan {
        ident,
        version,
        predicate,
        group_by,
        measure,
    })
}

/// One group of a decoded view partial: the code tuple and the group's
/// measure values in row order.
pub type PartialGroup = (Vec<u32>, Vec<f64>);

/// Worker side of [`OP_VIEW_SCAN`](crate::exec::OP_VIEW_SCAN): run `plan`
/// against the local partition and encode the code-keyed partial table.
/// The partition's epoch must match the plan's — a stale snapshot answers
/// with an error, never a wrong partial.
pub fn answer_view_scan(partition: &ShippedPartition, plan: &[u8]) -> Result<Vec<u8>, CodecError> {
    let plan = decode_view_plan(plan)?;
    let relation = &partition.relation;
    if plan.ident != relation.ident() || plan.version != relation.version() {
        return Err(CodecError::Invalid(format!(
            "plan targets snapshot ({}, v{}) but partition holds ({}, v{})",
            plan.ident,
            plan.version,
            relation.ident(),
            relation.version()
        )));
    }
    let arity = relation.schema().arity();
    for &attr in plan.group_by.iter().chain(std::iter::once(&plan.measure)) {
        if attr.index() >= arity {
            return Err(CodecError::Invalid(format!(
                "attribute {} out of range (arity {arity})",
                attr.index()
            )));
        }
    }
    let compiled = CompiledPredicate::compile(&plan.predicate, relation);
    let key_cols: Vec<Arc<CodeColumn>> = plan
        .group_by
        .iter()
        .map(|a| relation.code_column(*a))
        .collect();
    let groups = if compiled.is_unsatisfiable() {
        Grouped::empty(key_cols.len())
    } else {
        let measure_col = MeasureColumn::resolve(relation, plan.measure)
            .map_err(|e| CodecError::Invalid(e.to_string()))?;
        scan_partial(&compiled, &key_cols, &measure_col, (0, relation.len()))
    };
    // The kernel's first-appearance order depends on where the partition
    // was cut; the reply is emitted in code order, which does not.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_unstable_by(|&a, &b| groups.codes(a).cmp(groups.codes(b)));
    let mut buf = Vec::new();
    put_u32(&mut buf, plan.group_by.len() as u32);
    put_u32(&mut buf, groups.len() as u32);
    for slot in order {
        for &code in groups.codes(slot) {
            put_u32(&mut buf, code);
        }
        let values = groups.group(slot);
        put_u32(&mut buf, values.len() as u32);
        for v in values {
            crate::codec::put_f64(&mut buf, *v);
        }
    }
    Ok(buf)
}

/// Decode a view partial. `expect_key_len` is the coordinator's group-by
/// arity; a mismatched partial is rejected whole. Groups come back in the
/// worker's (deterministic, code-ordered) emit order.
pub fn decode_view_partial(
    bytes: &[u8],
    expect_key_len: usize,
) -> Result<Vec<PartialGroup>, CodecError> {
    let mut r = Reader::new(bytes);
    let key_len = r.u32()? as usize;
    if key_len != expect_key_len {
        return Err(CodecError::Invalid(format!(
            "partial key arity {key_len} != plan arity {expect_key_len}"
        )));
    }
    // Each group carries its key codes (4 bytes each) and its value count
    // (4 bytes): the tight floor of a group with no values.
    let group_count = r.count(key_len * 4 + 4)?;
    let mut out = Vec::with_capacity(group_count);
    for _ in 0..group_count {
        let mut key = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            key.push(r.u32()?);
        }
        let n = r.count(8)?; // one f64 each
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.f64()?);
        }
        out.push((key, values));
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestBatch;
    use crate::value::Value;

    fn sample() -> Arc<Relation> {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let rows: Vec<(&str, &str, i64, f64)> = vec![
            ("Ofla", "Adishim", 1986, 8.0),
            ("Ofla", "Adishim", 1986, 8.2),
            ("Ofla", "Darube", 1986, 2.0),
            ("Raya", "Zata", 1986, 9.0),
            ("Raya", "Zata", 1987, 4.0),
        ];
        let mut b = Relation::builder(schema);
        for (d, v, y, s) in rows {
            b = b
                .row([Value::str(d), Value::str(v), Value::int(y), Value::float(s)])
                .unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn partition_round_trips_schema_lineage_and_codes() {
        let rel = sample();
        let bytes = encode_partition(&rel, 2, 3);
        let part = decode_partition(&bytes).unwrap();
        assert_eq!(part.row_offset, 2);
        assert_eq!(part.relation.len(), 3);
        assert_eq!(part.relation.ident(), rel.ident());
        assert_eq!(part.relation.version(), rel.version());
        assert_eq!(part.relation.schema().as_ref(), rel.schema().as_ref());
        for attr in 0..rel.schema().arity() {
            let full = rel.code_column(AttrId(attr));
            let local = part.relation.code_column(AttrId(attr));
            // Same dictionary (code space), sliced codes.
            assert_eq!(full.dict(), local.dict());
            assert_eq!(&full.codes()[2..5], local.codes());
            // Values decode identically.
            for row in 0..3 {
                assert_eq!(
                    rel.value(row + 2, AttrId(attr)),
                    part.relation.value(row, AttrId(attr))
                );
            }
        }
    }

    #[test]
    fn post_ingest_dictionary_order_survives_round_trip() {
        // Appended dictionary values sit out of sorted order; the shipped
        // dictionary must keep code order, not re-sort.
        let rel = sample();
        let batch = IngestBatch::new().insert([
            Value::str("Alaje"), // sorts before existing districts
            Value::str("Bora"),
            Value::int(1985),
            Value::float(1.5),
        ]);
        let next = Arc::new(rel.apply(&batch).unwrap());
        let bytes = encode_partition(&next, 0, next.len());
        let part = decode_partition(&bytes).unwrap();
        for attr in 0..next.schema().arity() {
            let full = next.code_column(AttrId(attr));
            let local = part.relation.code_column(AttrId(attr));
            assert_eq!(full.dict(), local.dict(), "attr {attr}");
            assert_eq!(full.codes(), local.codes(), "attr {attr}");
        }
        assert_eq!(part.relation.version(), 1);
    }

    #[test]
    fn worker_scan_equals_local_range_scan() {
        let rel = sample();
        let schema = rel.schema().clone();
        let gb = vec![schema.attr("district").unwrap()];
        let measure = schema.attr("severity").unwrap();
        let plan = encode_view_plan(rel.ident(), rel.version(), &Predicate::all(), &gb, measure);
        let part = decode_partition(&encode_partition(&rel, 1, 3)).unwrap();
        let partial_bytes = answer_view_scan(&part, &plan).unwrap();
        let partial = decode_view_partial(&partial_bytes, 1).unwrap();
        // Rows 1..4: Ofla(8.2), Ofla(2.0), Raya(9.0).
        let district = rel.code_column(gb[0]);
        let ofla = district.dict().code_of(&Value::str("Ofla")).unwrap();
        let raya = district.dict().code_of(&Value::str("Raya")).unwrap();
        assert_eq!(
            partial,
            vec![(vec![ofla], vec![8.2, 2.0]), (vec![raya], vec![9.0])]
        );
    }

    /// The byte oracle of a worker's reply: a row-at-a-time group-by (one
    /// `BTreeMap<Vec<u32>, _>` update per matching row), emitted in map
    /// (code) order in the reply layout — codes, value count, values.
    fn row_at_a_time_reply(partition: &ShippedPartition, plan: &ViewPlan) -> Vec<u8> {
        use std::collections::BTreeMap;
        let relation = &partition.relation;
        let key_cols: Vec<Arc<CodeColumn>> = plan
            .group_by
            .iter()
            .map(|a| relation.code_column(*a))
            .collect();
        let mut groups: BTreeMap<Vec<u32>, Vec<f64>> = BTreeMap::new();
        for row in 0..relation.len() {
            if !plan.predicate.matches(relation, row) {
                continue;
            }
            let key: Vec<u32> = key_cols.iter().map(|c| c.code(row)).collect();
            let value = relation.numeric(row, plan.measure).unwrap();
            groups.entry(key).or_default().push(value.unwrap_or(0.0));
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, plan.group_by.len() as u32);
        put_u32(&mut buf, groups.len() as u32);
        for (key, values) in groups {
            for code in key {
                put_u32(&mut buf, code);
            }
            put_u32(&mut buf, values.len() as u32);
            for v in values {
                crate::codec::put_f64(&mut buf, v);
            }
        }
        buf
    }

    #[test]
    fn worker_reply_bytes_equal_the_row_at_a_time_loop() {
        // Keys recur out of code order and after gaps, a dictionary value is
        // appended out of value order, and the partition starts mid-relation:
        // first-appearance order differs from code order on every count.
        let schema = sample().schema().clone();
        let mut b = Relation::builder(schema.clone());
        for i in 0..120usize {
            b = b
                .row([
                    Value::str(format!("D{}", (i / 7) % 4)),
                    Value::str(format!("V{}", (i * 5) % 9)),
                    Value::int(1990 - (i % 3) as i64),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::float(i as f64 * 0.37 - 9.0)
                    },
                ])
                .unwrap();
        }
        let rel = Arc::new(b.build());
        for attr in 0..schema.arity() {
            let _ = rel.code_column(AttrId(attr));
        }
        let batch = IngestBatch::new().insert([
            Value::str("Aaa"), // sorts first, coded last
            Value::str("V3"),
            Value::int(1989),
            Value::float(2.5),
        ]);
        let rel = Arc::new(rel.apply(&batch).unwrap());
        let [district, village, year, measure] =
            ["district", "village", "year", "severity"].map(|n| schema.attr(n).unwrap());
        let part = decode_partition(&encode_partition(&rel, 13, rel.len() - 13)).unwrap();
        for predicate in [
            Predicate::all(),
            Predicate::eq(year, Value::int(1989)),
            Predicate::eq(district, Value::str("D2")).and_eq(year, Value::int(1990)),
            Predicate::eq(district, Value::str("nowhere")),
        ] {
            for group_by in [
                vec![district],
                vec![year, district],
                vec![village, district, year],
                vec![],
            ] {
                let bytes =
                    encode_view_plan(rel.ident(), rel.version(), &predicate, &group_by, measure);
                let plan = decode_view_plan(&bytes).unwrap();
                assert_eq!(
                    answer_view_scan(&part, &bytes).unwrap(),
                    row_at_a_time_reply(&part, &plan),
                    "{predicate:?} by {group_by:?}"
                );
            }
        }
    }

    #[test]
    fn stale_epoch_is_a_typed_error() {
        let rel = sample();
        let schema = rel.schema().clone();
        let plan = encode_view_plan(
            rel.ident(),
            rel.version() + 1,
            &Predicate::all(),
            &[schema.attr("district").unwrap()],
            schema.attr("severity").unwrap(),
        );
        let part = decode_partition(&encode_partition(&rel, 0, rel.len())).unwrap();
        assert!(matches!(
            answer_view_scan(&part, &plan),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn hostile_partition_bytes_never_panic() {
        let rel = sample();
        let bytes = encode_partition(&rel, 0, rel.len());
        for cut in 0..bytes.len() {
            let _ = decode_partition(&bytes[..cut]);
        }
        // Flipping each byte either decodes to *something* or errors; it
        // must never panic or loop.
        for i in 0..bytes.len().min(256) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            let _ = decode_partition(&corrupted);
        }
    }

    #[test]
    fn hostile_partial_bytes_never_panic() {
        let rel = sample();
        let schema = rel.schema().clone();
        let gb = vec![schema.attr("district").unwrap()];
        let plan = encode_view_plan(
            rel.ident(),
            rel.version(),
            &Predicate::all(),
            &gb,
            schema.attr("severity").unwrap(),
        );
        let part = decode_partition(&encode_partition(&rel, 0, rel.len())).unwrap();
        let bytes = answer_view_scan(&part, &plan).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_view_partial(&bytes[..cut], 1).is_err());
        }
        assert!(decode_view_partial(&bytes, 2).is_err());
    }
}
