//! What a mid-run overload onset costs in fairness. A host reads the SIC
//! table the coordinator sends it only once it has shed, so a host whose
//! overload begins mid-run makes its first shed decisions on an empty
//! table, until the next round's update reaches it. This pins what those
//! decisions cost after the onset: the same deployment with its overload
//! present from the start is the reference.

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

/// The cohort arrives here, overloading the hosts.
const ONSET: TimeDelta = TimeDelta::from_secs(6);

/// The STW: a query's samples settle one window after its arrival.
const STW: TimeDelta = TimeDelta::from_secs(2);

/// Table-1 templates (AVG and two-fragment chains) on four nodes: a
/// resident half from the start, a cohort of the same mix arriving at
/// `cohort_at`. Each node's capacity is its demand with both halves over
/// 1.5, so the residents alone run at about 0.75 of it.
fn scenario(cohort_at: TimeDelta) -> Scenario {
    let build = |capacities: Vec<u32>| {
        let profile = SourceProfile::emulab(Dataset::Uniform);
        let mut b = ScenarioBuilder::new("mid-run-onset", 41)
            .nodes(4)
            .node_capacities(capacities)
            .duration(TimeDelta::from_secs(14))
            .warmup(TimeDelta::from_secs(2))
            .stw_window(STW);
        for (start, end) in [(TimeDelta::ZERO, None), (cohort_at, None)] {
            b = b
                .add_queries_with_lifetime(Template::Avg, 4, profile, start, end)
                .add_queries_with_lifetime(Template::Cov { fragments: 2 }, 4, profile, start, end)
                .add_queries_with_lifetime(Template::Top5 { fragments: 2 }, 2, profile, start, end);
        }
        b.build().expect("valid scenario")
    };
    let demand = build(vec![u32::MAX; 4]).demand_per_node_tps();
    build(demand.iter().map(|d| (d / 1.5) as u32).collect())
}

/// One run with the cohort arriving at `cohort_at`: `(Jain, mean)` over
/// the per-query mean SIC from the settled onset (`ONSET + STW`) to the
/// end, and the run's shed fraction. A query not yet arrived is charted
/// at 0 before its arrival, so only the queries that have samples in
/// that span count.
fn post_onset(cohort_at: TimeDelta) -> (f64, f64, f64) {
    let config = SimConfig {
        record_series: true,
        ..SimConfig::default()
    };
    let report = run_scenario(scenario(cohort_at), config);
    let from = Timestamp::ZERO + ONSET + STW;
    let means: Vec<f64> = report
        .sic_series
        .values()
        .map(|series| {
            let after: Vec<f64> = series
                .iter()
                .filter(|&&(at, _)| at >= from)
                .map(|&(_, sic)| sic)
                .collect();
            assert!(after.len() >= 7, "{} samples", after.len());
            after.iter().sum::<f64>() / after.len() as f64
        })
        .collect();
    assert_eq!(means.len(), 20, "every query charted");
    let mean = means.iter().sum::<f64>() / means.len() as f64;
    (jain_index(&means), mean, report.shed_fraction())
}

/// The residents alone shed nothing, so the hosts' overload begins at
/// the cohort's arrival; after it settles, Jain's index and the mean SIC
/// sit within a pinned distance of the run whose cohort was there from
/// the start. Measured: Jain 0.9831 against 0.9921 (−0.0090), mean
/// 0.6956 against 0.7132 (−0.0176); the bounds allow about twice that. A
/// simulator that never fed a host first marked after its first tick
/// read Jain 0.9503 (−0.0418) and mean 0.7781 (+0.0649): unfed hosts
/// shed more evenly per node and less fairly per query.
#[test]
fn a_mid_run_onset_costs_little_fairness() {
    // A cohort arriving after the end never comes.
    let residents = run_scenario(scenario(TimeDelta::from_secs(60)), SimConfig::default());
    assert_eq!(residents.shed_fraction(), 0.0, "the residents alone shed");
    let (late_jain, late_mean, late_shed) = post_onset(ONSET);
    let (early_jain, early_mean, early_shed) = post_onset(TimeDelta::ZERO);
    assert!(
        late_shed > 0.1 && early_shed > late_shed,
        "{late_shed} {early_shed}"
    );
    assert!(
        late_jain >= early_jain - 0.02,
        "Jain {late_jain} after a mid-run onset, {early_jain} with overload from the start"
    );
    assert!(
        (late_mean - early_mean).abs() <= 0.035,
        "mean SIC {late_mean} after a mid-run onset, {early_mean} with overload from the start"
    );
}
