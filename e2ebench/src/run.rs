//! One benchmark run: generate the trace, set up, run the three phases,
//! and turn samples and spans into the metrics of `BENCHMARK.json`.

use crate::affinity::{self, Placement, Tid};
use crate::metrics::{self, Value};
use crate::pipeline::{config, reply_ok, timed, Samples, Tally};
use crate::plan::{Plan, Workload};
use crate::serve::{wire, Conn};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, tail};
use crate::{alloc, open, serve, slider};
use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::DEFAULT_CACHE_KEEP;
use ocelotl::format::Json;
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::trace::MicroModel;
use ocelotl_cli::commands::serve::{spawn_tcp, ServeOptions, ServerHandle};
use ocelotl_cli::helpers::build_session;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Run length the operation counts are sized for.
    pub seconds: u64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
}

/// Parse `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, crate::plan::BASE_SECONDS, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// What every phase reads.
pub struct Cx<'a> {
    /// The run's plan.
    pub plan: &'a Plan,
    /// `--seed`.
    pub seed: u64,
    /// The generated trace.
    pub trace_path: &'a Path,
    /// Its size in bytes.
    pub trace_bytes: u64,
    /// Scratch directory of this run.
    pub work: &'a Path,
    /// Executor threads the run pinned.
    pub threads: usize,
    /// Present in a traced run.
    pub tracer: Option<&'a Tracer>,
    /// The trace ingested at `|T|=30`: the input of every level search,
    /// and the hierarchy partitions are validated against.
    pub model30: &'a MicroModel,
    /// Content fingerprint of the trace.
    pub fingerprint: u64,
}

impl Cx<'_> {
    /// The tracer, if the `i`-th operation of a kind is traced: every
    /// other one in a traced run, none otherwise.
    pub fn traced(&self, i: usize) -> Option<&Tracer> {
        self.tracer.filter(|_| i.is_multiple_of(2))
    }
}

/// What the set-up builds and the phases use.
pub struct Setup {
    /// Warm `|T|=60` engine of the slider phase.
    pub slider: QueryEngine,
    /// The in-process server, its session warm.
    pub server: ServerHandle,
    /// Connection R, the closed loop of reads.
    pub conn: Conn,
    /// Connection S, the open loop of fresh-`p` aggregates.
    pub misses: Conn,
    /// The process's threads before R connected and after R's first
    /// replies.
    snapshots: [Vec<Tid>; 2],
    /// Where the serve phase runs, once pinned.
    pub placement: Option<Placement>,
}

impl Setup {
    /// The program's own warm-up: the slider engine ingests and builds its
    /// cube; the server comes up, cold-builds its session and memoizes the
    /// `p` values connection R reads.
    fn build(cx: &Cx) -> Result<Setup, String> {
        let plan = cx.plan;
        let mut slider = QueryEngine::new(build_session(
            cx.trace_path,
            config(plan.slider_slices),
            None,
        ));
        slider.warm_up().map_err(|e| e.to_string())?;

        let opts = ServeOptions {
            max_sessions: 2,
            workers: cx.threads,
            cache: None,
            cache_keep: DEFAULT_CACHE_KEEP,
        };
        let server = spawn_tcp("127.0.0.1:0", opts).map_err(|e| format!("spawn server: {e}"))?;
        let address = server.address();
        // The server starts one thread per connection: the long-lived
        // thread that appears between the two snapshots reads R (its first
        // reply proves it has started).
        let idle = affinity::threads();
        let mut conn = Conn::connect(&address).map_err(|e| format!("connect R: {e}"))?;
        let warm = std::iter::once(AnalysisRequest::Describe)
            .chain(plan.memo_ps.iter().map(|&p| crate::pipeline::aggregate(p)));
        for request in warm {
            reply_ok(conn.roundtrip(&wire(cx, &request))?)?;
        }
        let with_r = affinity::threads();
        let misses = Conn::connect(&address).map_err(|e| format!("connect S: {e}"))?;
        Ok(Setup {
            slider,
            server,
            conn,
            misses,
            snapshots: [idle, with_r],
            placement: None,
        })
    }

    /// Pin connection R's server thread (see [`affinity`]). The server
    /// answers each request on a thread of its own, spawned by the
    /// connection's thread; those of the set-up's replies may take a
    /// moment to exit, so wait up to a second for them.
    fn pin_serve(&mut self) {
        let [idle, with_r] = &self.snapshots;
        for _ in 0..1000 {
            if let Some(r) = affinity::new_thread(idle, with_r, &affinity::threads()) {
                self.placement = Placement::pin_server(r);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Close both connections and stop the server.
    fn close(self) {
        drop(self.conn);
        drop(self.misses);
        self.server.stop();
    }
}

/// The result line's content, plus what the line before it records.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation succeeded and matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// The emitted metrics.
    pub metrics: Vec<Value>,
    /// Settings that qualify the numbers.
    pub settings: Vec<(&'static str, Json)>,
    /// Samples per end-to-end operation kind.
    pub samples: Vec<(&'static str, usize)>,
    /// The run's plan.
    pub plan: Plan,
}

/// Where runs keep their scratch files and traced runs their spans.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Run the benchmark.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_plan(args, Plan::new(args.workload, args.seconds))
}

/// Run the benchmark with an explicit plan.
pub fn run_plan(args: &Args, plan: Plan) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    rayon::set_max_threads(threads);

    let root = work_dir();
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let work = root.join(format!(
        "{}-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = measure(args, &plan, &work, nproc, threads);
    let _ = std::fs::remove_dir_all(&work);
    let (outcome, spans) = result?;
    if let Some(spans) = spans {
        let file = root.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&file, spans::to_jsonl(&spans))
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        eprintln!("spans written to {}", file.display());
    }
    Ok(outcome)
}

fn measure(
    args: &Args,
    plan: &Plan,
    work: &Path,
    nproc: usize,
    threads: usize,
) -> Result<(Outcome, Option<Vec<Span>>), String> {
    let trace_path = work.join("trace.btf");
    let sim = scenario(CaseId::C, plan.scale)
        .run_to_file(&trace_path, args.seed)
        .map_err(|e| format!("generating the trace: {e}"))?;
    let trace_bytes = std::fs::metadata(&trace_path).map_or(0, |m| m.len());
    let events = 2 * sim.intervals as u64;

    // The harness's own state, built outside every clock and before the
    // heap's high-water mark restarts: the reference engine, the model
    // the level searches start from, and the reference replies.
    let mut reference = QueryEngine::new(build_session(&trace_path, config(plan.slices), None));
    let session = reference.session_mut();
    let err = |e: ocelotl::core::SessionError| e.to_string();
    let fingerprint = session
        .ingest_stats()
        .map_err(err)?
        .map(|st| st.fingerprint)
        .ok_or("the file source reported no fingerprint")?;
    let model30 = session.model().map_err(err)?.clone();
    let tracer = args.trace.then(Tracer::new);
    let cx = Cx {
        plan,
        seed: args.seed,
        trace_path: &trace_path,
        trace_bytes,
        work,
        threads,
        tracer: tracer.as_ref(),
        model30: &model30,
        fingerprint,
    };
    let mut serve = serve::Serve::new(&cx, &mut reference)?;
    let mut slider = slider::Slider::new(&cx, &mut reference)?;
    // A traced run also answers its traced reads in process; an untraced
    // run drops the engine before the high-water mark restarts.
    serve.reference = args.trace.then_some(reference);
    let harness_bytes = alloc::live_bytes();
    alloc::reset_peak();

    let mut s = Samples::default();
    let mut tally = Tally::default();
    let mut kept: Option<Setup> = None;
    for _ in 0..plan.setups.max(1) {
        if let Some(old) = kept.take() {
            old.close();
        }
        let (built, ms) = timed(|| Setup::build(&cx));
        s.push("setup", ms / 1e3);
        kept = Some(built?);
    }
    let mut setup = kept.ok_or("no set-up ran")?;
    setup.pin_serve();
    let nodes = model30.hierarchy().len();

    let mut open = open::Open::new(&cx);
    let part = |n: usize, r: usize| n * r / plan.rounds..n * (r + 1) / plan.rounds;
    for round in 0..plan.rounds {
        for cycle in part(plan.cycles, round) {
            open.cycle(&cx, cycle, &mut s, &mut tally)?;
        }
        slider.moves(&cx, &mut setup, part(plan.moves, round), &mut s, &mut tally);
        let (reads, misses) = (
            part(plan.serve_reads, round),
            part(plan.serve_misses, round),
        );
        serve.burst(&cx, &mut setup, reads, misses, &mut s, &mut tally)?;
    }
    serve.finish(&setup, &mut s);
    let r_cpu = setup.placement.as_ref().map(|p| p.r_cpu);
    setup.close();
    let peak_mb = alloc::peak_bytes().saturating_sub(harness_bytes) as f64 / 1e6;

    let spans = tracer.map(|t| t.spans());
    let metrics = match &spans {
        None => end_to_end(&s, plan, peak_mb)?,
        Some(spans) => per_layer(&s, spans, plan, events, nodes)?,
    };
    let int = |n: u64| Json::Int(n as i64);
    let settings = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", int(args.seed)),
        ("seconds", int(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("nproc", int(nproc as u64)),
        ("threads_pinned", int(threads as u64)),
        ("connections", int(2)),
        ("trace_scale", Json::Float(plan.scale)),
        ("trace_bytes", int(trace_bytes)),
        ("trace_events", int(events)),
        ("hierarchy_nodes", int(nodes as u64)),
        ("slices_open_levels_serve", int(plan.slices as u64)),
        ("slices_slider", int(plan.slider_slices as u64)),
        ("miss_period_ms", int(plan.miss_period_ms)),
        (
            "serve_r_cpu",
            r_cpu.map_or(Json::Null, |cpu| int(cpu as u64)),
        ),
        ("harness_heap_mb", Json::Float(harness_bytes as f64 / 1e6)),
    ];
    let samples = [
        "setup",
        "cold_open",
        "warm_open",
        "slider_move",
        "levels",
        "serve_read",
        "serve_miss",
    ]
    .into_iter()
    .map(|k| (k, s.get(k).len()))
    .collect();
    let outcome = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        settings,
        samples,
        plan: plan.clone(),
    };
    Ok((outcome, spans))
}

fn registered(name: &str) -> Result<&'static str, String> {
    metrics::find(name)
        .map(|d| d.name)
        .ok_or(format!("{name} is not a registered metric"))
}

fn value(name: &str, v: Option<f64>, samples: usize) -> Result<Value, String> {
    let name = registered(name)?;
    match v {
        Some(value) if value.is_finite() => Ok(Value {
            name,
            value,
            samples,
            percentile: None,
        }),
        _ => Err(format!("{name}: no measurement")),
    }
}

fn med(name: &'static str, xs: &[f64]) -> Result<Value, String> {
    value(name, median(xs), xs.len())
}

fn tail_of(name: &'static str, xs: &[f64]) -> Result<Value, String> {
    let (v, pct) = tail(xs).ok_or(format!("{name}: {} samples carry no tail", xs.len()))?;
    Ok(Value {
        percentile: Some(pct),
        ..value(name, Some(v), xs.len())?
    })
}

fn end_to_end(s: &Samples, plan: &Plan, peak_mb: f64) -> Result<Vec<Value>, String> {
    let r_wall: f64 = s.get("serve_r_wall_s").iter().sum();
    Ok(vec![
        med("setup_s", s.get("setup"))?,
        value("peak_heap_mb", Some(peak_mb), 1)?,
        med("cold_open_p50_ms", s.get("cold_open"))?,
        med("warm_open_p50_ms", s.get("warm_open"))?,
        tail_of("warm_open_tail_ms", s.get("warm_open"))?,
        med("slider_p50_ms", s.get("slider_move"))?,
        tail_of("slider_tail_ms", s.get("slider_move"))?,
        med("levels_p50_ms", s.get("levels"))?,
        med("serve_read_p50_ms", s.get("serve_read"))?,
        tail_of("serve_read_tail_ms", s.get("serve_read"))?,
        value(
            "serve_reads_per_s",
            Some(plan.serve_reads as f64 / r_wall),
            plan.serve_reads,
        )?,
        med("serve_miss_p50_ms", s.get("serve_miss"))?,
    ])
}

/// Temporal-cut candidates one DP examines: every node, every slice
/// interval `[i, j]`, every cut `i <= k < j`.
pub fn dp_candidates(nodes: usize, slices: usize) -> u64 {
    let t = slices as u64;
    nodes as u64 * (t + 1) * t * (t.saturating_sub(1)) / 6
}

fn per_layer(
    s: &Samples,
    spans: &[Span],
    plan: &Plan,
    events: u64,
    nodes: usize,
) -> Result<Vec<Value>, String> {
    let layer = |name: &'static str, kind: &str, span: &str| {
        med(name, &spans::per_op_sum(spans, kind, span))
    };
    let mut out = vec![
        layer("io.hash_ms", "cold_open", "io.hash")?,
        layer("io.ingest_ms", "cold_open", "io.ingest")?,
        med(
            "io.decode_slowest_shard_ms",
            s.get("io.decode_slowest_shard_ms"),
        )?,
        med("io.merge_ms", s.get("io.merge_ms"))?,
        med("io.shards", s.get("io.shards"))?,
        med("io.read_amplification", s.get("io.read_amplification"))?,
    ];
    let ingest_ms = spans::per_op_sum(spans, "cold_open", "io.ingest");
    let rates: Vec<f64> = ingest_ms
        .iter()
        .map(|ms| events as f64 / (ms / 1e3))
        .collect();
    out.push(med("io.events_per_s", &rates)?);
    out.extend([
        layer("store.save_ms", "cold_open", "store.save")?,
        layer("store.load_ms", "warm_open", "store.load")?,
        med("store.artifact_mb", s.get("store.artifact_mb"))?,
        layer("hires.derive_ms", "cold_open", "hires.derive")?,
        layer("cube.build_ms", "cold_open", "cube.build")?,
        med("cube.resident_mb", s.get("cube.resident_mb"))?,
    ]);
    let dp = layer("dp.solve_ms", "slider_move", "dp.solve")?;
    let candidates = dp_candidates(nodes, plan.slider_slices);
    out.push(value("dp.candidates", Some(candidates as f64), 1)?);
    out.push(value(
        "dp.ns_per_candidate",
        Some(dp.value * 1e6 / candidates as f64),
        dp.samples,
    )?);
    out.push(dp);
    let search = layer("pvalues.search_ms", "levels", "pvalues.search")?;
    let levels = med("pvalues.levels", s.get("pvalues.levels"))?;
    out.push(value(
        "pvalues.ms_per_level",
        Some(search.value / levels.value),
        search.samples,
    )?);
    out.extend([search, levels]);
    out.extend([
        layer("partition.extract_ms", "slider_move", "partition.extract")?,
        layer("quality.ms", "slider_move", "quality")?,
        layer("visual.ms", "serve_read", "visual")?,
        layer("query.aggregate_ms", "slider_move", "query.aggregate")?,
        layer("query.significant_ms", "levels", "query.significant")?,
        layer(
            "json.encode_ms.aggregate",
            "slider_move",
            "json.encode.aggregate",
        )?,
        layer(
            "json.encode_ms.significant",
            "levels",
            "json.encode.significant",
        )?,
    ]);
    for kind in ["describe", "stats", "inspect", "render-overview"] {
        let query = registered(&format!("query.{kind}_ms"))?;
        out.push(layer(query, "serve_read", &format!("query.{kind}"))?);
        let encode = registered(&format!("json.encode_ms.{kind}"))?;
        out.push(layer(encode, "serve_read", &format!("json.encode.{kind}"))?);
    }
    for kind in [
        "aggregate",
        "significant",
        "describe",
        "stats",
        "inspect",
        "render-overview",
    ] {
        let name = registered(&format!("json.reply_kb.{kind}"))?;
        out.push(med(name, s.get(name))?);
    }
    let decode_us: Vec<f64> = spans::per_op_sum(spans, "serve_read", "json.decode")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.push(med("json.decode_us", &decode_us)?);
    let handle = spans::per_op_sum(spans, "serve_read", "serve.handle");
    let round = spans::per_op_sum(spans, "serve_read", "serve.roundtrip");
    let wire: Vec<f64> = round.iter().zip(&handle).map(|(r, h)| r - h).collect();
    out.push(med("serve.handle_ms", &handle)?);
    out.push(med("serve.wire_ms", &wire)?);
    out.push(med("serve.busy", s.get("serve.busy"))?);
    out.push(med("serve.builds_started", s.get("serve.builds_started"))?);
    out.push(med("serve.miss_late_ms", s.get("serve.miss_late_ms"))?);
    for kind in [
        "cold_open",
        "warm_open",
        "slider_move",
        "levels",
        "serve_read",
    ] {
        let unattributed = registered(&format!("unattributed_ms.{kind}"))?;
        out.push(med(unattributed, &spans::op_self_ms(spans, kind))?);
        let overhead = registered(&format!("trace_overhead_ms.{kind}"))?;
        let traced = spans::op_ms(spans, kind);
        let untraced = s.get(kind);
        let diff = median(&traced).zip(median(untraced)).map(|(a, b)| a - b);
        out.push(value(overhead, diff, traced.len().min(untraced.len()))?);
    }
    Ok(out)
}
