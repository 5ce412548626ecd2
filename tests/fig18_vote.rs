//! Figure 18 (Appendix N) as a gate: the election case study. Per county of
//! one state, the *margin gain* is how far the state's statistic moves when
//! the county is repaired to the model's expectation.
//!
//! The printed table has the figure's columns:
//! - model 1: the 2020 share (MEAN) with the default features only;
//! - model 2: the same with the county's 2016 share as an auxiliary feature;
//! - missing records: the total votes (SUM) with the county's 2016 total as
//!   the auxiliary feature, before and after two counties lose half their
//!   records ([`VoteDataset::with_missing_totals`]).
//!
//! Missing records halve a county's `total_votes` and leave its share
//! unchanged, so the missing-records columns are computed on the statistic
//! the injection changes. The gate asserts the figure's claim: the two
//! counties that lost records are exactly the two whose gain moved most.
//!
//! ```sh
//! cargo test --release -p reptile --test fig18_vote -- --nocapture
//! ```

use reptile_datasets::vote::{VoteConfig, VoteDataset};
use reptile_model::{DesignBuilder, ExtraFeature, FeaturePlan, MultilevelModel};
use reptile_relational::{AggregateKind, Exec, Predicate, Relation, Value, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one margin-gain column is computed on.
struct Statistic<'a> {
    measure: &'a str,
    kind: AggregateKind,
    /// Optional per-county auxiliary feature `(name, values)`.
    aux: Option<(&'a str, &'a BTreeMap<Value, f64>)>,
}

/// Margin gain per county of `state`: the state's statistic after repairing
/// the county to the model's expectation, minus the statistic as observed.
fn margin_gains(
    data: &VoteDataset,
    relation: &Arc<Relation>,
    state: &Value,
    stat: &Statistic,
) -> BTreeMap<Value, f64> {
    let schema = &data.schema;
    let group_by = vec![
        schema.attr("state").unwrap(),
        schema.attr("county").unwrap(),
    ];
    let measure = schema.attr(stat.measure).unwrap();
    let view = |predicate: Predicate| {
        View::compute(
            relation.clone(),
            predicate,
            group_by.clone(),
            measure,
            &Exec::Serial,
        )
        .unwrap()
    };
    let training_view = view(Predicate::all());
    let mut builder = DesignBuilder::new(&training_view, schema, stat.kind);
    if let Some((name, values)) = stat.aux {
        builder = builder.with_plan(FeaturePlan::none().with_extra(ExtraFeature::new(
            name,
            schema.attr("county").unwrap(),
            values.clone(),
        )));
    }
    let design = builder.build().unwrap();
    let model = MultilevelModel::fit(&design, Default::default()).unwrap();
    let preds = model.predict_all(&design);

    let state_view = view(Predicate::eq(schema.attr("state").unwrap(), state.clone()));
    let original = state_view.total().value(stat.kind);
    let mut gains = BTreeMap::new();
    for (key, agg) in state_view.groups() {
        let Some(row) = design.row_of_key(key) else {
            continue;
        };
        let repaired = agg.repaired_to(stat.kind, preds[row]);
        let new_total = state_view.total_with_replacement(key, &repaired).unwrap();
        gains.insert(
            key.values()[1].clone(),
            new_total.value(stat.kind) - original,
        );
    }
    gains
}

#[test]
fn missing_records_move_the_gains_of_exactly_the_affected_counties() {
    let data = VoteDataset::generate(VoteConfig::default());
    let state = Value::str("State00");
    let share = |aux| Statistic {
        measure: "share_2020",
        kind: AggregateKind::Mean,
        aux,
    };
    let totals = Statistic {
        measure: "total_votes",
        kind: AggregateKind::Sum,
        aux: Some(("total_2016", &data.totals_2016)),
    };
    let model_1 = margin_gains(&data, &data.relation, &state, &share(None));
    let model_2 = margin_gains(
        &data,
        &data.relation,
        &state,
        &share(Some(("share_2016", &data.share_2016))),
    );
    let clean = margin_gains(&data, &data.relation, &state, &totals);

    // Two counties of the state lose half their records.
    let victims: Vec<Value> = model_2.keys().take(2).cloned().collect();
    let corrupted = data.with_missing_totals(&victims);
    let missing = margin_gains(&data, &corrupted, &state, &totals);

    println!("== Figure 18 — margin gain after repair, counties of {state} ==");
    println!(
        "{:<10} {:>8} {:>16} {:>14} {:>14} {:>8}",
        "county", "model 1", "model 2 (+2016)", "votes, clean", "votes, missing", "removed"
    );
    let mut moved: Vec<(f64, &Value)> = Vec::new();
    for (county, g1) in &model_1 {
        let (g2, before, after) = (model_2[county], clean[county], missing[county]);
        let removed = victims.contains(county);
        println!(
            "{county:<10} {g1:>+8.3} {g2:>+16.3} {before:>+14.0} {after:>+14.0} {:>8}",
            if removed { "yes" } else { "-" }
        );
        moved.push(((after - before).abs(), county));
    }
    moved.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<&Value> = moved.iter().take(2).map(|(_, c)| *c).collect();
    assert!(
        victims.iter().all(|v| top.contains(&v)) && moved[1].0 > moved[2].0,
        "the two largest |Δgain| must be the two counties that lost records \
         {victims:?}; largest three: {:?}",
        &moved[..3]
    );
}
