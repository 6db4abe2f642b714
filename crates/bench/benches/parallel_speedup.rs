//! Parallelization ablation: Algorithm 1's height-by-height parallel
//! schedule and parallel input building vs their sequential counterparts
//! (an extension over the paper, whose implementation is single-threaded).
//!
//! Balanced trees split evenly whatever the schedule; the unbalanced
//! preset (three subtrees of 104, 64 and 532 leaves, the shape of the case
//! C platform) is the one where splitting the root's children into
//! contiguous slabs would leave one worker with most of the tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelotl::core::{aggregate, AggregationInput, DpConfig};
use ocelotl::trace::synthetic::{random_model, SplitMix64};
use ocelotl::trace::{HierarchyBuilder, MicroModel, StateRegistry, TimeGrid};
use std::hint::black_box;

/// Three clusters of 4-leaf machines, 104, 64 and 532 leaves, with random
/// state proportions.
fn unbalanced_model(n_slices: usize, n_states: usize, seed: u64) -> MicroModel {
    let mut b = HierarchyBuilder::new("root", "root");
    for (c, leaves) in [104usize, 64, 532].into_iter().enumerate() {
        let cluster = b.add_child(b.root(), &format!("c{c}"), "cluster");
        for m in 0..leaves / 4 {
            let machine = b.add_child(cluster, &format!("c{c}m{m}"), "machine");
            for core in 0..4 {
                b.add_child(machine, &format!("c{c}m{m}p{core}"), "core");
            }
        }
    }
    let hierarchy = b.build().expect("valid hierarchy");
    let states =
        StateRegistry::from_names((0..n_states).map(|i| format!("st{i}")).collect::<Vec<_>>());
    let mut rng = SplitMix64(seed);
    let mut rho = vec![0.0f64; hierarchy.n_leaves() * n_states * n_slices];
    for cell in rho.iter_mut() {
        *cell = rng.next_f64() / n_states as f64;
    }
    let grid = TimeGrid::new(0.0, n_slices as f64, n_slices);
    MicroModel::from_proportions(hierarchy, states, grid, rho)
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_speedup");
    g.sample_size(10);
    let presets = [
        ("S1024_T30", random_model(&[8, 128], 30, 4, 5)),
        ("S256_T60", random_model(&[16, 16], 60, 4, 5)),
        ("S700_unbalanced_T60", unbalanced_model(60, 4, 5)),
    ];
    for (label, m) in presets {
        let input = AggregationInput::build(&m);
        for parallel in [false, true] {
            let cfg = DpConfig {
                parallel,
                ..Default::default()
            };
            let id = BenchmarkId::new(if parallel { "parallel" } else { "sequential" }, label);
            g.bench_with_input(id, &input, |b, input| {
                b.iter(|| black_box(aggregate(input, 0.5, &cfg)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
