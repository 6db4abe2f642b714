//! The open phase: per cycle, one cold open on an empty artifact store,
//! then warm reopens on the store it filled.

use crate::pipeline::{
    aggregate, check_aggregate, config, memoized, primed_reply, same, timed, Samples, Tally,
};
use crate::run::Cx;
use crate::spans::{Ctx, Tracer};
use ocelotl::core::query::{AnalysisReply, QueryEngine, QueryError};
use ocelotl::core::{
    aggregate as solve, ArtifactStore, CubeBackend, CubeCore, DpConfig, HiResModel, Partition,
    PartitionTable, PointEntry, QualityCube, SessionConfig,
};
use ocelotl::format::{
    encode_reply, hash_trace_input, read_hi_res_with, take_last_ingest_timing, DiskStore,
    IngestOptions, ShardMode,
};
use ocelotl_cli::helpers::build_session;
use std::path::{Path, PathBuf};

type Reply = Result<AnalysisReply, QueryError>;

/// A traced open's reply, its bytes, and the partition it answers with.
type Traced = Result<(Reply, String, Partition), String>;

/// A fresh session through the CLI's construction path, answering the
/// `aggregate` default request, encoded.
fn open(path: &Path, cache: &Path, cfg: SessionConfig, p: f64) -> (Reply, String, QueryEngine) {
    let mut engine = QueryEngine::new(build_session(path, cfg, Some(cache)));
    let reply = engine.execute(&aggregate(p));
    let bytes = encode_reply(&reply);
    (reply, bytes, engine)
}

/// Run one open, traced or not, and check its typed reply and partition.
fn one(
    cx: &Cx,
    tracer: Option<&Tracer>,
    kind: &'static str,
    s: &mut Samples,
    traced: impl FnOnce(&Tracer, Ctx, &mut Samples) -> Traced,
    cache: &Path,
    cfg: SessionConfig,
) -> Result<String, String> {
    let p = cx.plan.open_p;
    let (reply, bytes, partition) = match tracer {
        Some(t) => t.op(kind, |ctx| traced(t, ctx, s))?,
        None => {
            let ((reply, bytes, mut engine), ms) = timed(|| open(cx.trace_path, cache, cfg, p));
            s.push(kind, ms);
            let partition = memoized(engine.session_mut(), p)?;
            // Freed after the clock stops: a CLI process exits instead.
            drop(engine);
            (reply, bytes, partition)
        }
    };
    check_aggregate(&reply, p, &partition, cx.model30.hierarchy(), cfg.n_slices)?;
    Ok(bytes)
}

fn empty_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The cold open, one span per layer call, in the order the session makes
/// them: hash, ingest, hi-res save, derive, cube, cube save, DP, partition,
/// table save, reply, encode.
fn traced_cold(
    t: &Tracer,
    ctx: Ctx,
    cx: &Cx,
    cache: &Path,
    cfg: SessionConfig,
    s: &mut Samples,
) -> Traced {
    let path = cx.trace_path;
    let p = cx.plan.open_p;
    let fp = t
        .span(ctx, "io.hash", |_| hash_trace_input(path))
        .map_err(|e| format!("hash: {e}"))?;
    let opts = IngestOptions {
        shards: ShardMode::Auto,
        max_workers: cx.threads,
        predicate: None,
    };
    let report = t
        .span(ctx, "io.ingest", |_| {
            read_hi_res_with(path, cfg.n_slices, cfg.metric.model_kind(), &opts)
        })
        .map_err(|e| format!("ingest: {e}"))?;
    if let Some(timing) = take_last_ingest_timing() {
        let slowest = timing.shard_nanos.iter().copied().max().unwrap_or(0);
        s.push("io.decode_slowest_shard_ms", slowest as f64 / 1e6);
        s.push("io.merge_ms", timing.merge_nanos as f64 / 1e6);
    }
    s.push("io.shards", report.shards.len() as f64);
    s.push(
        "io.read_amplification",
        report.bytes_read as f64 / cx.trace_bytes as f64,
    );
    let key = cfg.key(fp);
    let store = DiskStore::for_input(path, Some(cache));
    let hi = HiResModel::new(cfg.metric, report.model);
    t.span(ctx, "store.save", |_| store.store_hi_res(key, &hi));
    let model = t
        .span(ctx, "hires.derive", |_| hi.derive(cfg.n_slices))
        .ok_or("the hi-res grid does not serve the open's |T|")?;
    let core = t.span(ctx, "cube.build", |_| CubeCore::build(&model));
    t.span(ctx, "store.save", |_| store.store_cube(key, &core));
    let primed = core.clone();
    let cube = t.span(ctx, "cube.build", |_| {
        CubeBackend::from_core(core, cfg.memory)
    });
    s.push("cube.resident_mb", cube.memory_bytes() as f64 / 1e6);
    let tree = t.span(ctx, "dp.solve", |_| solve(&cube, p, &DpConfig::default()));
    let partition = t.span(ctx, "partition.extract", |_| tree.partition(&cube));
    let table = PartitionTable {
        significant: None,
        points: vec![PointEntry {
            p,
            coarse: false,
            partition: partition.clone(),
        }],
    };
    t.span(ctx, "store.save", |_| store.store_partitions(key, &table));
    let reply = t.span(ctx, "query.aggregate", |_| {
        primed_reply(fp, cfg, primed, table, &aggregate(p))
    });
    let bytes = t.span(ctx, "json.encode.aggregate", |_| encode_reply(&reply));
    Ok((reply, bytes, partition))
}

/// The warm reopen, one span per layer call: hash, artifact loads, reply,
/// encode.
fn traced_warm(t: &Tracer, ctx: Ctx, cx: &Cx, cache: &Path, cfg: SessionConfig) -> Traced {
    let path = cx.trace_path;
    let fp = t
        .span(ctx, "io.hash", |_| hash_trace_input(path))
        .map_err(|e| format!("hash: {e}"))?;
    let key = cfg.key(fp);
    let store = DiskStore::for_input(path, Some(cache));
    let (table, core) = t.span(ctx, "store.load", |_| {
        (store.load_partitions(key), store.load_cube(key))
    });
    let (Some(table), Some(core)) = (table, core) else {
        return Err("warm reopen found no artifacts".into());
    };
    let p = cx.plan.open_p;
    let partition = table
        .lookup(p, false)
        .cloned()
        .ok_or("the loaded table lacks the open's p")?;
    let reply = t.span(ctx, "query.aggregate", |_| {
        primed_reply(fp, cfg, core, table, &aggregate(p))
    });
    let bytes = t.span(ctx, "json.encode.aggregate", |_| encode_reply(&reply));
    Ok((reply, bytes, partition))
}

/// The open phase's state across rounds. Every cycle starts from an
/// empty artifact store; every cold reply must equal the first one.
pub struct Open {
    cfg: SessionConfig,
    cache: PathBuf,
    first: Option<String>,
    warm_index: usize,
}

impl Open {
    /// Prepare the phase.
    pub fn new(cx: &Cx) -> Open {
        Open {
            cfg: config(cx.plan.slices),
            cache: cx.work.join("store"),
            first: None,
            warm_index: 0,
        }
    }

    /// Run cycle `cycle`: one cold open, then `warm_per_cycle` warm
    /// reopens. In a traced run every other operation of each kind is
    /// traced; the rest stay untraced for the overhead comparison.
    pub fn cycle(
        &mut self,
        cx: &Cx,
        cycle: usize,
        s: &mut Samples,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (cfg, cache) = (self.cfg, self.cache.as_path());
        empty_dir(cache)?;
        let traced = |t: &Tracer, ctx: Ctx, s: &mut Samples| traced_cold(t, ctx, cx, cache, cfg, s);
        let cold = match one(cx, cx.traced(cycle), "cold_open", s, traced, cache, cfg) {
            Ok(bytes) => bytes,
            Err(why) => {
                tally.check(Err(format!("cold open {cycle}: {why}")));
                return Ok(());
            }
        };
        let reference = self.first.get_or_insert_with(|| cold.clone());
        tally.check(same(&format!("cold open {cycle}"), &cold, reference));
        s.push("store.artifact_mb", dir_bytes(cache) as f64 / 1e6);
        for _ in 0..cx.plan.warm_per_cycle {
            let traced =
                |t: &Tracer, ctx: Ctx, _: &mut Samples| traced_warm(t, ctx, cx, cache, cfg);
            let warm = one(
                cx,
                cx.traced(self.warm_index),
                "warm_open",
                s,
                traced,
                cache,
                cfg,
            );
            self.warm_index += 1;
            tally.check(
                warm.and_then(|b| same(&format!("warm reopen in cycle {cycle}"), &b, &cold)),
            );
        }
        Ok(())
    }
}
