//! Heterogeneous clusters: the Libra family on nodes of unequal speed.
//!
//! The computational-economy scheduling literature (Libra included) targets
//! clusters whose nodes differ in speed. This example compares a
//! homogeneous 128 × 1.0 cluster against heterogeneous mixes of identical
//! *aggregate* capacity, showing how tight-deadline jobs migrate to the
//! fast nodes and what that does to the four objectives.
//!
//! ```sh
//! cargo run --release -p ccs-experiments --example heterogeneous_cluster
//! ```

use ccs_economy::EconomicModel;
use ccs_policies::{LibraPolicy, LibraVariant};
use ccs_simsvc::{Run, RunConfig};
use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model};

fn main() {
    let base = SdscSp2Model {
        jobs: 1200,
        ..Default::default()
    }
    .generate(17);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 17);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::BidBased,
    };

    let mixes: Vec<(&str, Vec<f64>)> = vec![
        ("homogeneous 128 x 1.0", vec![1.0; 128]),
        ("64 x 0.5 + 64 x 1.5", {
            let mut r = vec![0.5; 64];
            r.extend(vec![1.5; 64]);
            r
        }),
        ("96 x 0.75 + 32 x 1.75", {
            let mut r = vec![0.75; 96];
            r.extend(vec![1.75; 32]);
            r
        }),
    ];

    println!(
        "{:<24} {:>9} {:>8} {:>13} {:>10}",
        "cluster", "accepted", "SLA %", "reliability %", "profit %"
    );
    for (label, ratings) in mixes {
        let aggregate: f64 = ratings.iter().sum();
        assert!((aggregate - 128.0).abs() < 1e-9, "same total capacity");
        let policy = LibraPolicy::with_ratings(LibraVariant::Plain, cfg.econ, ratings);
        let res = Run::with_policy(&jobs, Box::new(policy), &cfg)
            .execute()
            .expect("the workload is sorted by submit time")
            .result;
        println!(
            "{:<24} {:>9} {:>8.1} {:>13.1} {:>10.1}",
            label,
            res.metrics.accepted,
            res.metrics.sla_pct(),
            res.metrics.reliability_pct(),
            res.metrics.profitability_pct()
        );
    }
    println!(
        "\nEqual aggregate capacity is not equal service: slow nodes cannot \
         host tight-deadline jobs at all (est > deadline x rating), so \
         heterogeneity concentrates urgent work on the fast nodes."
    );
}
