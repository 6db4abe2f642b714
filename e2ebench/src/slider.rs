//! The slider phase: a warm `|T|=60` engine answers a seeded sequence of
//! `p` values it has never seen, interleaved with significant-level
//! searches on fresh `|T|=30` sessions over the already-ingested model.

use crate::pipeline::{aggregate, check_aggregate, config, memoized, same, timed, Samples, Tally};
use crate::run::{Cx, Setup};
use crate::spans::{Ctx, Tracer};
use crate::stats::Rng;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest, QueryEngine, QueryError};
use ocelotl::core::{aggregate as solve, quality, AnalysisSession, DpConfig, OwnedSource};
use ocelotl::format::encode_reply;

type Reply = Result<AnalysisReply, QueryError>;

/// Execute and encode, the way a client-facing host answers.
fn answer(engine: &mut QueryEngine, request: &AnalysisRequest) -> (Reply, String) {
    let reply = engine.execute(request);
    let bytes = encode_reply(&reply);
    (reply, bytes)
}

/// One move, one span per layer call: DP, partition extraction and
/// quality straight on the engine's resident cube, then the session's own
/// DP entry point (which memoizes the result), the reply from the memo,
/// and the encode.
fn traced_move(
    t: &Tracer,
    ctx: Ctx,
    engine: &mut QueryEngine,
    p: f64,
) -> Result<(Reply, String), String> {
    {
        let session = engine.session();
        let cube = session
            .cube_if_built()
            .ok_or("the slider engine lost its cube")?;
        let tree = t.span(ctx, "dp.solve", |_| solve(cube, p, &DpConfig::default()));
        let partition = t.span(ctx, "partition.extract", |_| tree.partition(cube));
        t.span(ctx, "quality", |_| quality(cube, &partition));
        t.span(ctx, "session.partition", |_| {
            session.partition_shared(p, false)
        })
        .map_err(|e| e.to_string())?;
    }
    let reply = t.span(ctx, "query.aggregate", |_| engine.execute(&aggregate(p)));
    let bytes = t.span(ctx, "json.encode.aggregate", |_| encode_reply(&reply));
    Ok((reply, bytes))
}

/// A fresh session over the ingested `|T|=30` model.
fn level_engine(cx: &Cx) -> QueryEngine {
    let source = OwnedSource::new(cx.model30.clone(), cx.fingerprint);
    QueryEngine::new(AnalysisSession::new(source, config(cx.plan.slices)))
}

/// One level search, one span per layer call: cube build, the search,
/// the reply from the memoized levels, the encode.
fn traced_levels(
    t: &Tracer,
    ctx: Ctx,
    engine: &mut QueryEngine,
    resolution: f64,
) -> Result<(Reply, String), String> {
    let session = engine.session_mut();
    t.span(ctx, "cube.build", |_| session.cube().map(|_| ()))
        .map_err(|e| e.to_string())?;
    t.span(ctx, "pvalues.search", |_| session.significant(resolution))
        .map_err(|e| e.to_string())?;
    let reply = t.span(ctx, "query.significant", |_| {
        engine.execute(&AnalysisRequest::Significant { resolution })
    });
    let bytes = t.span(ctx, "json.encode.significant", |_| encode_reply(&reply));
    Ok((reply, bytes))
}

fn check_levels(reply: &Reply, s: &mut Samples) -> Result<(), String> {
    match reply {
        Ok(AnalysisReply::Significant(r)) if !r.levels.is_empty() => {
            s.push("pvalues.levels", r.levels.len() as f64);
            Ok(())
        }
        Ok(AnalysisReply::Significant(_)) => Err("the level search found no level".into()),
        Ok(other) => Err(format!(
            "expected a significant reply, got {}",
            other.kind()
        )),
        Err(e) => Err(format!("{} reply: {}", e.kind(), e.message())),
    }
}

/// The slider phase's state across rounds.
pub struct Slider {
    ps: Vec<f64>,
    refs: Vec<String>,
    every: usize,
    searches: usize,
    first_levels: Option<String>,
}

impl Slider {
    /// Draw the `p` sequence and build the reference replies of its first
    /// moves on `reference`, an independent engine over the same trace,
    /// re-sliced to the slider's `|T|` and back (not timed).
    pub fn new(cx: &Cx, reference: &mut QueryEngine) -> Result<Slider, String> {
        let plan = cx.plan;
        let ps = Rng::new(cx.seed, 2).stratified_ps(plan.moves, 0.0, 1.0);
        let reslice = |engine: &mut QueryEngine, n| {
            engine
                .session_mut()
                .reslice(n, None)
                .map_err(|e| format!("re-slicing the reference engine: {e}"))
        };
        reslice(reference, plan.slider_slices)?;
        let refs = ps
            .iter()
            .take(plan.reference_moves)
            .map(|&p| encode_reply(&reference.execute(&aggregate(p))))
            .collect();
        reslice(reference, plan.slices)?;
        Ok(Slider {
            ps,
            refs,
            every: (plan.moves / plan.level_searches.max(1)).max(1),
            searches: 0,
            first_levels: None,
        })
    }

    /// Run moves `range`, with a level search after every `every`-th move.
    pub fn moves(
        &mut self,
        cx: &Cx,
        setup: &mut Setup,
        range: std::ops::Range<usize>,
        s: &mut Samples,
        tally: &mut Tally,
    ) {
        for i in range {
            let p = self.ps[i];
            let answered = match cx.traced(i) {
                Some(t) => t.op("slider_move", |ctx| {
                    traced_move(t, ctx, &mut setup.slider, p)
                }),
                None => {
                    let (answered, ms) = timed(|| answer(&mut setup.slider, &aggregate(p)));
                    s.push("slider_move", ms);
                    Ok(answered)
                }
            };
            tally.check(answered.and_then(|(reply, b)| {
                s.push("json.reply_kb.aggregate", b.len() as f64 / 1e3);
                let partition = memoized(setup.slider.session_mut(), p)?;
                let hierarchy = cx.model30.hierarchy();
                check_aggregate(&reply, p, &partition, hierarchy, cx.plan.slider_slices)?;
                match self.refs.get(i) {
                    Some(r) => same(&format!("slider move at p={p}"), &b, r),
                    None => Ok(()),
                }
            }));
            if (i + 1) % self.every == 0 && self.searches < cx.plan.level_searches {
                self.search(cx, s, tally);
            }
        }
    }

    fn search(&mut self, cx: &Cx, s: &mut Samples, tally: &mut Tally) {
        let resolution = cx.plan.level_resolution;
        let request = AnalysisRequest::Significant { resolution };
        // Built before the clock starts in both branches: the model clone
        // is the harness's doing, not the search's.
        let mut engine = level_engine(cx);
        let answered = match cx.traced(self.searches) {
            Some(t) => t.op("levels", |ctx| {
                traced_levels(t, ctx, &mut engine, resolution)
            }),
            None => {
                let (answered, ms) = timed(|| answer(&mut engine, &request));
                s.push("levels", ms);
                Ok(answered)
            }
        };
        self.searches += 1;
        tally.check(answered.and_then(|(reply, b)| {
            s.push("json.reply_kb.significant", b.len() as f64 / 1e3);
            check_levels(&reply, s)?;
            let first = self.first_levels.get_or_insert_with(|| b.clone());
            same("level search", &b, first)
        }));
    }
}
