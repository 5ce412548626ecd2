//! What a view scan costs on the reply side of the wire.
//!
//! One test, alone in its binary: [`Counter::RemoteBytesReceived`] is
//! process-global, and pinning an exact delta needs no neighbour bumping it.

use reptile_obs::{counter_value, Counter};
use reptile_relational::codec::Frame;
use reptile_relational::{Exec, Parallelism, Predicate, Relation, Remote, Schema, Value, View};
use reptile_wire::frame::KIND_RESULT;
use reptile_wire::testing::LoopbackWorkers;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A worker's view reply is O(groups) of framing plus its matching values —
/// `8 + Σ_groups (4·arity + 4 + 8·n_values)` bytes and not a byte of row
/// indices — and every reply frame is counted as it is read.
#[test]
fn view_scan_reply_bytes_are_groups_plus_values() {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "site"])
            .hierarchy("time", ["day"])
            .measure("kwh")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for i in 0..700usize {
        b = b
            .row([
                Value::str(format!("r{}", i / 180)),
                Value::str(format!("r{}-s{}", i / 180, i % 7)),
                Value::int((i % 5) as i64),
                Value::float(i as f64 * 0.5),
            ])
            .unwrap();
    }
    let rel = Arc::new(b.build());
    let [region, site, day, kwh] =
        ["region", "site", "day", "kwh"].map(|n| schema.attr(n).unwrap());
    let workers = 3;
    let remote = Exec::Remote(Remote::new(Arc::new(LoopbackWorkers::undelayed(workers))));
    // Ship the partitions first: their acks are replies too.
    View::compute(rel.clone(), Predicate::all(), vec![], kwh, &remote).unwrap();
    let ranges = Parallelism::shard_ranges(rel.len(), workers);
    for (predicate, group_by) in [
        (Predicate::all(), vec![region, day]),
        (Predicate::eq(day, Value::int(3)), vec![site]),
        (Predicate::all(), vec![day, site, region]),
    ] {
        let mut want = 0usize;
        for &(start, len) in &ranges {
            let matching: Vec<usize> = (start..start + len)
                .filter(|&row| predicate.matches(&rel, row))
                .collect();
            let groups: BTreeSet<Vec<&Value>> = matching
                .iter()
                .map(|&row| group_by.iter().map(|a| rel.value(row, *a)).collect())
                .collect();
            let body = 8 + groups.len() * (4 * group_by.len() + 4) + 8 * matching.len();
            want += Frame::new(KIND_RESULT, 0, vec![0; body]).wire_len();
        }
        let before = counter_value(Counter::RemoteBytesReceived);
        let view = View::compute(
            rel.clone(),
            predicate.clone(),
            group_by.clone(),
            kwh,
            &remote,
        );
        assert_eq!(
            counter_value(Counter::RemoteBytesReceived) - before,
            want as u64,
            "{predicate:?} by {group_by:?}"
        );
        let serial = View::compute(rel.clone(), predicate, group_by, kwh, &Exec::Serial);
        assert_eq!(view.unwrap(), serial.unwrap());
    }
}
