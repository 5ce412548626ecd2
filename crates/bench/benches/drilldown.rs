//! Benchmark behind Figure 9: Static vs Dynamic vs Cache+Dynamic maintenance
//! of the decomposed aggregates across successive drill-downs.

use reptile_bench::{print_bench_table, run_bench};
use reptile_datasets::hiergen::synthetic_hierarchy;
use reptile_factor::{DrilldownMode, DrilldownSession, EncodedFactorization, Factorization};

/// The encoded factors of one Reptile invocation sequence: hierarchy A
/// drilled from depth 3 to 6 while hierarchy B stays at depth `b_depth`.
fn sequence(b_depth: usize, width: usize) -> Vec<EncodedFactorization> {
    (3..=6)
        .map(|a_depth| {
            EncodedFactorization::encode(&Factorization::new(vec![
                synthetic_hierarchy("B", 100, b_depth, width, 2),
                synthetic_hierarchy("A", 0, a_depth, width, 2),
            ]))
        })
        .collect()
}

/// Serve one invocation sequence through a fresh session.
fn run_sequence(mode: DrilldownMode, invocations: &[EncodedFactorization]) {
    let mut session = DrilldownSession::new(mode);
    for factors in invocations {
        let _ = session.encoded(factors.factors().to_vec());
    }
}

fn main() {
    let mut stats = Vec::new();
    for b_depth in [3usize, 4, 5] {
        let invocations = sequence(b_depth, 512);
        stats.push(run_bench(&format!("static/{b_depth}"), || {
            run_sequence(DrilldownMode::Static, &invocations)
        }));
        stats.push(run_bench(&format!("dynamic/{b_depth}"), || {
            run_sequence(DrilldownMode::Dynamic, &invocations)
        }));
        stats.push(run_bench(&format!("cache_dynamic/{b_depth}"), || {
            run_sequence(DrilldownMode::CachedDynamic, &invocations)
        }));
    }
    print_bench_table("fig9_drilldown", &stats);
}
