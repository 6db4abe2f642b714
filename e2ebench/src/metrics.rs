//! Every metric the benchmark can emit, each with exactly one meaning.

/// One metric name, its unit and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Emitted name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What the number is, in one line.
    pub meaning: &'static str,
}

const fn def(name: &'static str, unit: &'static str, meaning: &'static str) -> Def {
    Def {
        name,
        unit,
        meaning,
    }
}

/// Emitted by a run with `--trace 0`. A `_tail` is the highest order
/// statistic with ten samples beyond it; every other timing is a median.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "median of the run's set-ups: slider engine warm-up plus server spawn, cold build and p memoization"),
    def("peak_heap_mb", "MB", "highest live heap after input generation, counting allocator"),
    def("cold_open_p50_ms", "ms", "fresh session on an empty artifact store: aggregate at p=0.5, |T|=30, encoded"),
    def("warm_open_p50_ms", "ms", "fresh session on the cold open's store: aggregate at p=0.5, |T|=30, encoded"),
    def("warm_open_tail_ms", "ms", "tail of the warm reopens"),
    def("slider_p50_ms", "ms", "aggregate at a p the warm |T|=60 engine has not seen, encoded"),
    def("slider_tail_ms", "ms", "tail of the slider moves"),
    def("levels_p50_ms", "ms", "Significant{0.05} at |T|=30 on a fresh session over the ingested model, encoded"),
    def("serve_read_p50_ms", "ms", "round trip of a warm read on connection R"),
    def("serve_read_tail_ms", "ms", "tail of the connection R round trips"),
    def("serve_reads_per_s", "1/s", "connection R reads divided by its closed loop's wall time"),
    def("serve_miss_p50_ms", "ms", "connection S fresh-p aggregate, from its due time to its reply"),
];

/// Emitted by a run with `--trace 1`: medians over the calls each layer
/// received, taken from the spans of the traced operations.
pub const PER_LAYER: &[Def] = &[
    def("io.hash_ms", "ms", "cold open: hash_trace_input"),
    def(
        "io.ingest_ms",
        "ms",
        "cold open: read_hi_res_with (sharded decode and merge)",
    ),
    def(
        "io.decode_slowest_shard_ms",
        "ms",
        "cold open: slowest shard decode, take_last_ingest_timing",
    ),
    def(
        "io.merge_ms",
        "ms",
        "cold open: partial-model merge, take_last_ingest_timing",
    ),
    def("io.shards", "count", "shards of the ingest plan"),
    def(
        "io.read_amplification",
        "ratio",
        "ingest bytes read divided by the trace file size",
    ),
    def(
        "io.events_per_s",
        "1/s",
        "trace events divided by io.ingest_ms",
    ),
    def(
        "store.save_ms",
        "ms",
        "cold open: DiskStore saves of .omicro, .ocube and .opart",
    ),
    def(
        "store.load_ms",
        "ms",
        "warm reopen: DiskStore loads of .ocube and .opart",
    ),
    def(
        "store.artifact_mb",
        "MB",
        "artifact bytes on disk after a cold open",
    ),
    def(
        "hires.derive_ms",
        "ms",
        "cold open: HiResModel::derive to |T|=30",
    ),
    def(
        "cube.build_ms",
        "ms",
        "cold open: CubeCore::build plus CubeBackend::from_core",
    ),
    def(
        "cube.resident_mb",
        "MB",
        "cold open: resident bytes of the |T|=30 cube",
    ),
    def(
        "dp.solve_ms",
        "ms",
        "slider move: aggregate (Algorithm 1) at |T|=60",
    ),
    def(
        "dp.candidates",
        "count",
        "temporal-cut candidates of one |T|=60 DP: nodes x C(|T|+1, 3)",
    ),
    def(
        "dp.ns_per_candidate",
        "ns",
        "dp.solve_ms divided by dp.candidates",
    ),
    def(
        "pvalues.search_ms",
        "ms",
        "level search: AnalysisSession::significant at |T|=30",
    ),
    def(
        "pvalues.levels",
        "count",
        "significant levels found by one search",
    ),
    def(
        "pvalues.ms_per_level",
        "ms",
        "pvalues.search_ms divided by pvalues.levels",
    ),
    def(
        "partition.extract_ms",
        "ms",
        "slider move: CutTree::partition",
    ),
    def("quality.ms", "ms", "slider move: quality of the partition"),
    def("visual.ms", "ms", "served overview: visually_aggregate"),
    def(
        "query.aggregate_ms",
        "ms",
        "slider move: QueryEngine::execute on a memoized p",
    ),
    def(
        "query.significant_ms",
        "ms",
        "level search: QueryEngine::execute on the memoized levels",
    ),
    def(
        "query.describe_ms",
        "ms",
        "served describe: QueryEngine::execute in-process",
    ),
    def(
        "query.stats_ms",
        "ms",
        "served stats: QueryEngine::execute in-process",
    ),
    def(
        "query.inspect_ms",
        "ms",
        "served inspect: QueryEngine::execute in-process",
    ),
    def(
        "query.render-overview_ms",
        "ms",
        "served overview: QueryEngine::execute in-process",
    ),
    def(
        "json.encode_ms.aggregate",
        "ms",
        "slider move: encode_reply",
    ),
    def(
        "json.encode_ms.significant",
        "ms",
        "level search: encode_reply",
    ),
    def(
        "json.encode_ms.describe",
        "ms",
        "served describe: encode_reply",
    ),
    def("json.encode_ms.stats", "ms", "served stats: encode_reply"),
    def(
        "json.encode_ms.inspect",
        "ms",
        "served inspect: encode_reply",
    ),
    def(
        "json.encode_ms.render-overview",
        "ms",
        "served overview: encode_reply",
    ),
    def("json.reply_kb.aggregate", "KB", "slider move reply size"),
    def("json.reply_kb.significant", "KB", "level search reply size"),
    def("json.reply_kb.describe", "KB", "served describe reply size"),
    def("json.reply_kb.stats", "KB", "served stats reply size"),
    def("json.reply_kb.inspect", "KB", "served inspect reply size"),
    def(
        "json.reply_kb.render-overview",
        "KB",
        "served overview reply size",
    ),
    def(
        "json.decode_us",
        "us",
        "served inspect: decode_reply of the wire reply",
    ),
    def(
        "serve.handle_ms",
        "ms",
        "served read: ServerState::handle_line in-process",
    ),
    def(
        "serve.wire_ms",
        "ms",
        "served read: round trip minus serve.handle_ms",
    ),
    def("serve.busy", "count", "busy refusals the server counted"),
    def(
        "serve.builds_started",
        "count",
        "cold session builds the server started",
    ),
    def(
        "serve.miss_late_ms",
        "ms",
        "how late connection S sent after its due time",
    ),
    def(
        "unattributed_ms.cold_open",
        "ms",
        "cold open span minus its layer spans",
    ),
    def(
        "unattributed_ms.warm_open",
        "ms",
        "warm reopen span minus its layer spans",
    ),
    def(
        "unattributed_ms.slider_move",
        "ms",
        "slider move span minus its layer spans",
    ),
    def(
        "unattributed_ms.levels",
        "ms",
        "level search span minus its layer spans",
    ),
    def(
        "unattributed_ms.serve_read",
        "ms",
        "served read span minus its layer spans",
    ),
    def(
        "trace_overhead_ms.cold_open",
        "ms",
        "traced cold open p50 minus untraced p50, same run",
    ),
    def(
        "trace_overhead_ms.warm_open",
        "ms",
        "traced warm reopen p50 minus untraced p50, same run",
    ),
    def(
        "trace_overhead_ms.slider_move",
        "ms",
        "traced slider move p50 minus untraced p50, same run",
    ),
    def(
        "trace_overhead_ms.levels",
        "ms",
        "traced level search p50 minus untraced p50, same run",
    ),
    def(
        "trace_overhead_ms.serve_read",
        "ms",
        "traced served read p50 minus untraced p50, same run",
    ),
];

/// Per-layer metrics that are exact counts: two runs of one seed must
/// report the same values.
pub const EXACT: &[&str] = &[
    "io.shards",
    "io.read_amplification",
    "store.artifact_mb",
    "cube.resident_mb",
    "dp.candidates",
    "pvalues.levels",
    "json.reply_kb.aggregate",
    "json.reply_kb.significant",
    "json.reply_kb.describe",
    "json.reply_kb.stats",
    "json.reply_kb.inspect",
    "json.reply_kb.render-overview",
    "serve.busy",
    "serve.builds_started",
];

/// The definition of `name`, if the benchmark emits it.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Registry name.
    pub name: &'static str,
    /// The number, with all its digits.
    pub value: f64,
    /// Samples the value summarizes (1 for a single count).
    pub samples: usize,
    /// For a `_tail`: the percentile its order statistic sits at.
    pub percentile: Option<f64>,
}
