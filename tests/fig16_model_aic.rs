//! Figure 16 (Appendix K) as a gate: model quality (ΔAIC) of Linear,
//! Linear-f, Multi-level and Multi-level-f on the simulated FIST and Vote
//! datasets, where `-f` adds the dataset's auxiliary feature (village
//! rainfall for FIST, the county's 2016 share for Vote).
//!
//! The gate asserts the figure's auxiliary-feature claim: on both datasets
//! each `-f` model beats its plain version by ΔAIC > 10.
//!
//! The figure's other comparison, plain Multi-level against plain Linear,
//! is printed but not asserted: on these simulators the multi-level model
//! does not win by 10 (it trails Linear by ≈ 8.9 on FIST and ≈ 4.5 on Vote).
//! That gap is a property of the simulated data and the fit, and it must
//! not be hidden by choosing another seed.

use reptile_datasets::fist::{FistCaseStudy, FistConfig};
use reptile_datasets::vote::{VoteConfig, VoteDataset};
use reptile_model::aic::{aic_linear, aic_multilevel, delta_aic, SUBSTANTIALLY_BETTER_DELTA};
use reptile_model::{
    DesignBuilder, ExtraFeature, FeaturePlan, LinearModel, MultilevelConfig, MultilevelModel,
    TrainingDesign,
};
use reptile_relational::{AggregateKind, AttrId, Exec, Predicate, Relation, Schema, Value, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Plain and auxiliary-feature designs of the mean `measure` per `group_by`.
fn designs(
    relation: &Arc<Relation>,
    schema: &Arc<Schema>,
    group_by: &[&str],
    measure: &str,
    aux: (&str, AttrId, &BTreeMap<Value, f64>),
) -> (TrainingDesign, TrainingDesign) {
    let view = View::compute(
        relation.clone(),
        Predicate::all(),
        group_by.iter().map(|a| schema.attr(a).unwrap()).collect(),
        schema.attr(measure).unwrap(),
        &Exec::Serial,
    )
    .unwrap();
    let plain = DesignBuilder::new(&view, schema, AggregateKind::Mean)
        .build()
        .unwrap();
    let (name, level, values) = aux;
    let with_aux = DesignBuilder::new(&view, schema, AggregateKind::Mean)
        .with_plan(FeaturePlan::none().with_extra(ExtraFeature::new(name, level, values.clone())))
        .build()
        .unwrap();
    (plain, with_aux)
}

/// AIC of (Linear, Linear-f, Multi-level, Multi-level-f), printed as ΔAIC
/// against the best of the four.
fn aics(dataset: &str, plain: &TrainingDesign, with_aux: &TrainingDesign) -> [f64; 4] {
    let em = MultilevelConfig::default();
    let aics = [
        aic_linear(&LinearModel::fit(plain).unwrap()),
        aic_linear(&LinearModel::fit(with_aux).unwrap()),
        aic_multilevel(&MultilevelModel::fit(plain, em).unwrap()),
        aic_multilevel(&MultilevelModel::fit(with_aux, em).unwrap()),
    ];
    println!("== Figure 16 — {dataset}: ΔAIC against the best model ==");
    for (model, delta) in ["Linear", "Linear-f", "Multi-level", "Multi-level-f"]
        .iter()
        .zip(delta_aic(&aics))
    {
        println!("{model:<14} {delta:>10.1}");
    }
    aics
}

/// Assert that each `-f` model beats its plain version by more than
/// [`SUBSTANTIALLY_BETTER_DELTA`].
fn assert_auxiliary_features_win(dataset: &str, [linear, linear_f, multi, multi_f]: [f64; 4]) {
    assert!(
        linear - linear_f > SUBSTANTIALLY_BETTER_DELTA,
        "{dataset}: Linear-f wins by ΔAIC {} only",
        linear - linear_f
    );
    assert!(
        multi - multi_f > SUBSTANTIALLY_BETTER_DELTA,
        "{dataset}: Multi-level-f wins by ΔAIC {} only",
        multi - multi_f
    );
}

/// FIST: mean severity per (year, district, village), rainfall per village.
#[test]
fn rainfall_lowers_aic_on_fist() {
    let fist = FistCaseStudy::generate(FistConfig::default());
    let schema = fist.schema.clone();
    let (plain, with_aux) = designs(
        &fist.clean,
        &schema,
        &["year", "district", "village"],
        "severity",
        ("rainfall", schema.attr("village").unwrap(), &fist.rainfall),
    );
    assert_auxiliary_features_win("FIST", aics("FIST", &plain, &with_aux));
}

/// Vote: mean 2020 share per (state, county), the 2016 share per county.
#[test]
fn the_2016_share_lowers_aic_on_vote() {
    let vote = VoteDataset::generate(VoteConfig::default());
    let schema = vote.schema.clone();
    let (plain, with_aux) = designs(
        &vote.relation,
        &schema,
        &["state", "county"],
        "share_2020",
        (
            "share_2016",
            schema.attr("county").unwrap(),
            &vote.share_2016,
        ),
    );
    assert_auxiliary_features_win("Vote", aics("Vote", &plain, &with_aux));
}
