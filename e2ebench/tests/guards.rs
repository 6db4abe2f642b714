//! Guards against the ways a benchmark's numbers stop meaning anything:
//! tails without samples beyond them, one name with two meanings, open-loop
//! latencies leaking into the closed-loop reads, runs that stop on the
//! clock, and counts that do not repeat.

use ocelotl::format::Json;
use ocelotl_e2ebench::metrics::{self, END_TO_END, EXACT, PER_LAYER};
use ocelotl_e2ebench::plan::{Plan, Workload, BASE_SECONDS};
use ocelotl_e2ebench::run::{run_plan, Args, Outcome};
use ocelotl_e2ebench::stats::{MIN_TAIL_SAMPLES, TAIL_BEYOND};
use std::collections::BTreeSet;

fn tiny_run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let args = Args {
        workload,
        seed,
        seconds: 1,
        trace,
    };
    run_plan(&args, Plan::tiny()).expect("tiny run")
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

fn samples(o: &Outcome, kind: &str) -> usize {
    o.samples.iter().find(|(k, _)| *k == kind).expect("kind").1
}

#[test]
fn every_tail_has_ten_samples_beyond_it() {
    for w in Workload::ALL {
        for seconds in [1, BASE_SECONDS, 60] {
            let plan = Plan::new(w, seconds);
            for (what, n) in [
                ("warm reopens", plan.warm_opens()),
                ("slider moves", plan.moves),
                ("served reads", plan.serve_reads),
            ] {
                assert!(
                    n >= MIN_TAIL_SAMPLES,
                    "{} at {seconds}s: {n} {what} cannot carry a tail",
                    w.name()
                );
            }
        }
    }
    let o = tiny_run(Workload::Slider, 11, false);
    for m in o.metrics.iter().filter(|m| m.name.ends_with("_tail_ms")) {
        let pct = m.percentile.expect("a tail states its percentile");
        let beyond = m.samples as f64 * (1.0 - pct / 100.0);
        assert!(
            (beyond - TAIL_BEYOND as f64).abs() < 1e-6,
            "{} has {beyond} samples beyond it",
            m.name
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> BTreeSet<(String, String)> {
    let Json::Arr(items) = list else {
        panic!("expected a list")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit"),
        })
        .collect()
}

#[test]
fn every_metric_name_has_one_meaning() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(seen.insert(d.name), "{} is registered twice", d.name);
        assert!(!d.meaning.is_empty(), "{} has no stated meaning", d.name);
    }
    for name in EXACT {
        assert!(
            metrics::find(name).is_some(),
            "exact count {name} is unregistered"
        );
    }
    let registry = |defs: &[metrics::Def]| -> BTreeSet<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    let bench = benchmark_json();
    assert_eq!(
        names_and_units(bench.get("end_to_end").expect("end_to_end")),
        registry(END_TO_END)
    );
    assert_eq!(
        names_and_units(bench.get("per_layer").expect("per_layer")),
        registry(PER_LAYER)
    );
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("workloads")
    };
    let listed: Vec<_> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Some(Json::Str(n)) => n.clone(),
            _ => panic!("workload without a name"),
        })
        .collect();
    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, known);
}

#[test]
fn emitted_metrics_match_the_registry_in_both_modes() {
    let plain = tiny_run(Workload::Serve, 12, false);
    let names: Vec<_> = plain.metrics.iter().map(|m| m.name).collect();
    let want: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    assert!(
        plain.correct,
        "{} of {} failed",
        plain.failed, plain.attempted
    );

    let traced = tiny_run(Workload::Serve, 12, true);
    let names: BTreeSet<_> = traced.metrics.iter().map(|m| m.name).collect();
    let want: BTreeSet<_> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    assert_eq!(
        traced.metrics.len(),
        PER_LAYER.len(),
        "a metric was emitted twice"
    );
    assert!(
        traced.correct,
        "{} of {} failed",
        traced.failed, traced.attempted
    );
}

#[test]
fn open_loop_latencies_never_enter_the_reads() {
    let o = tiny_run(Workload::Serve, 13, false);
    assert_eq!(samples(&o, "serve_read"), o.plan.serve_reads);
    assert_eq!(samples(&o, "serve_miss"), o.plan.serve_misses);
    let read = o
        .metrics
        .iter()
        .find(|m| m.name == "serve_read_p50_ms")
        .expect("read median");
    assert_eq!(read.samples, o.plan.serve_reads);
}

#[test]
fn runs_perform_a_fixed_number_of_operations() {
    for w in Workload::ALL {
        assert_eq!(Plan::new(w, BASE_SECONDS), Plan::new(w, BASE_SECONDS));
        assert!(
            Plan::new(w, 2 * BASE_SECONDS).operations() > Plan::new(w, BASE_SECONDS).operations()
        );
    }
    let o = tiny_run(Workload::Open, 14, false);
    assert_eq!(o.attempted, o.plan.operations());
    assert_eq!(o.failed, 0);
    assert_eq!(samples(&o, "cold_open"), o.plan.cycles);
    assert_eq!(samples(&o, "warm_open"), o.plan.warm_opens());
    assert_eq!(samples(&o, "slider_move"), o.plan.moves);
    assert_eq!(samples(&o, "levels"), o.plan.level_searches);
}

#[test]
fn exact_counts_repeat_across_runs_of_one_seed() {
    let a = tiny_run(Workload::Slider, 15, true);
    let b = tiny_run(Workload::Slider, 15, true);
    for name in EXACT {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{name} differs between runs"
        );
    }
    assert_eq!(value(&a, "serve.busy"), 0.0);
    assert_eq!(value(&a, "serve.builds_started"), 1.0);
}
