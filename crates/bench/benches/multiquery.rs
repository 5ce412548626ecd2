//! Benchmark behind Figure 8: the work-sharing / independence optimised
//! decomposed-aggregate batch vs the LMFAO-style serial baseline, as the
//! attribute cardinality grows.

use reptile_bench::{print_bench_table, run_bench};
use reptile_datasets::hiergen::synthetic_factorization_with_fanout;
use reptile_factor::{lmfao, EncodedAggregates, EncodedFactorization, Exec};

fn main() {
    let mut stats = Vec::new();
    for w in [32usize, 128, 256] {
        let (fact, _) = synthetic_factorization_with_fanout(3, 3, w, 2);
        let enc = EncodedFactorization::encode(&fact);
        stats.push(run_bench(&format!("reptile_shared/{w}"), || {
            EncodedAggregates::compute(&enc, &Exec::Serial)
        }));
        stats.push(run_bench(&format!("lmfao_serial/{w}"), || {
            lmfao::compute_serial(&fact)
        }));
    }
    print_bench_table("fig8_multiquery", &stats);
}
