//! The serve phase: an in-process `ocelotl serve` answers connection R's
//! closed loop of warm reads, then connection S's fresh-`p` aggregates,
//! sent on an open-loop schedule.

use crate::metrics;
use crate::pipeline::{
    aggregate, check_aggregate, config, decode_ok, memoized, same, timed, Samples, Tally,
};
use crate::run::{Cx, Setup};
use crate::spans::{Ctx, Tracer};
use crate::stats::Rng;
use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::visually_aggregate;
use ocelotl::format::{encode_reply, encode_wire_request};
use ocelotl_cli::commands::serve::ServerState;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One client connection speaking the line protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The last reply line. Reused, so that receiving a stream of large
    /// replies does not allocate and fault in a fresh buffer each time,
    /// inside the measured latency.
    line: String,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // Aggregate replies run to hundreds of KB: a buffer that holds a
        // whole one drains the socket in a few reads instead of one read
        // per 8 KiB, which keeps the client's own wake-ups out of the
        // measured latency.
        let reader = BufReader::with_capacity(4 << 20, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Send one request and wait for its reply; the reply stays readable
    /// through [`Conn::last`] until the next round trip.
    pub fn roundtrip(&mut self, line: &str) -> Result<&str, String> {
        // One write: a separate newline would go out as a second segment.
        send_line(&mut self.writer, line).map_err(|e| format!("send: {e}"))?;
        recv_line(&mut self.reader, &mut self.line).map_err(|e| format!("receive: {e}"))?;
        Ok(&self.line)
    }

    /// The last reply line, without its newline.
    pub fn last(&self) -> &str {
        &self.line
    }

    /// The write half, the read half and the reply buffer, for an open
    /// loop.
    fn halves(&mut self) -> (&mut TcpStream, &mut BufReader<TcpStream>, &mut String) {
        (&mut self.writer, &mut self.reader, &mut self.line)
    }
}

fn send_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(format!("{line}\n").as_bytes())
}

/// Read one line into `buf`, replacing its content, without the newline.
fn recv_line(reader: &mut BufReader<TcpStream>, buf: &mut String) -> std::io::Result<()> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    buf.truncate(buf.trim_end_matches(['\r', '\n']).len());
    Ok(())
}

/// The wire line of `request` on the phase's trace at `|T|`.
pub fn wire(cx: &Cx, request: &AnalysisRequest) -> String {
    let trace = cx.trace_path.to_string_lossy();
    encode_wire_request(&trace, &config(cx.plan.slices), request)
}

/// Connection R's reads: per ten, one each of describe, stats, inspect
/// and render-overview, and six aggregates at `read_p`, shuffled. The
/// aggregates are the costliest read and fill the middle of the latency
/// distribution, so the median sits inside one kind of read instead of
/// on the boundary between two.
fn reads(cx: &Cx) -> Vec<AnalysisRequest> {
    let n_leaves = cx.model30.n_leaves();
    let mut rng = Rng::new(cx.seed, 4);
    let ps = &cx.plan.memo_ps;
    let mut out = Vec::with_capacity(cx.plan.serve_reads);
    for k in 0..cx.plan.serve_reads / 10 {
        let p = ps[k % ps.len()];
        out.extend([
            AnalysisRequest::Describe,
            AnalysisRequest::Stats,
            AnalysisRequest::Inspect {
                leaf: rng.below(n_leaves),
                slice: rng.below(cx.plan.slices),
                p,
                coarse: false,
            },
            AnalysisRequest::RenderOverview {
                p,
                coarse: false,
                min_rows: cx.plan.min_rows,
                level_resolution: None,
            },
        ]);
        out.extend(std::iter::repeat_n(aggregate(cx.plan.read_p), 6));
    }
    rng.shuffle(&mut out);
    out
}

/// One read, one span per layer call: the round trip, then in process
/// the server's own handler on the same line, the query and the encode
/// on a reference engine, the visual pass of an overview, and the client
/// decode of an inspect reply (a small one: see `DECODE_LIMIT`).
fn traced_read(
    t: &Tracer,
    ctx: Ctx,
    conn: &mut Conn,
    state: &ServerState,
    engine: &mut QueryEngine,
    request: &AnalysisRequest,
    line: &str,
) -> Result<(), String> {
    let start = Instant::now();
    conn.roundtrip(line)?;
    t.record(ctx, "serve.roundtrip", start, Instant::now());
    t.span(ctx, "serve.handle", |_| state.handle_line(line));
    let kind = request.kind();
    let result = t.span(ctx, &format!("query.{kind}"), |_| engine.execute(request));
    t.span(ctx, &format!("json.encode.{kind}"), |_| {
        encode_reply(&result)
    });
    if let AnalysisRequest::RenderOverview { p, min_rows, .. } = request {
        let partition = engine
            .session_mut()
            .partition_at(*p, false)
            .map_err(|e| e.to_string())?;
        let cube = engine
            .session()
            .cube_if_built()
            .ok_or("reference engine lost its cube")?;
        t.span(ctx, "visual", |_| {
            visually_aggregate(cube, &partition, *min_rows)
        });
    }
    if let AnalysisRequest::Inspect { .. } = request {
        t.span(ctx, "json.decode", |_| decode_ok(conn.last()))?;
    }
    Ok(())
}

/// The serve phase's state across rounds.
pub struct Serve {
    requests: Vec<AnalysisRequest>,
    lines: Vec<String>,
    expected: BTreeMap<String, String>,
    miss_ps: Vec<f64>,
    miss_lines: Vec<String>,
    miss_expected: Vec<String>,
    /// The reference engine, set in a traced run only: traced reads are
    /// also answered in process on it.
    pub reference: Option<QueryEngine>,
    /// Reads of each kind so far: every other one of each kind is traced.
    seen: BTreeMap<&'static str, usize>,
}

impl Serve {
    /// Draw the request sequences and build one reference reply per
    /// distinct read and per miss on `reference`, an in-process engine over
    /// the same trace at the served `|T|` (not timed). Each miss's
    /// partition is validated there.
    pub fn new(cx: &Cx, reference: &mut QueryEngine) -> Result<Serve, String> {
        let requests = reads(cx);
        let lines: Vec<String> = requests.iter().map(|r| wire(cx, r)).collect();
        let mut expected = BTreeMap::new();
        for (line, request) in lines.iter().zip(&requests) {
            if !expected.contains_key(line) {
                let reply = reference.execute(request);
                if let Err(e) = &reply {
                    return Err(format!("reference {}: {}", request.kind(), e.message()));
                }
                expected.insert(line.clone(), encode_reply(&reply));
            }
        }
        let miss_ps = Rng::new(cx.seed, 5).stratified_ps(cx.plan.serve_misses, 0.6, 1.0);
        let miss_lines = miss_ps.iter().map(|&p| wire(cx, &aggregate(p))).collect();
        let mut miss_expected = Vec::with_capacity(miss_ps.len());
        for &p in &miss_ps {
            let want = reference.execute(&aggregate(p));
            let partition = memoized(reference.session_mut(), p)?;
            check_aggregate(&want, p, &partition, cx.model30.hierarchy(), cx.plan.slices)
                .map_err(|e| format!("reference miss: {e}"))?;
            miss_expected.push(encode_reply(&want));
        }
        Ok(Serve {
            requests,
            lines,
            expected,
            miss_ps,
            miss_lines,
            miss_expected,
            reference: None,
            seen: BTreeMap::new(),
        })
    }

    /// One burst: connection R reads `reads` in a closed loop, its client
    /// and server thread on one core, then connection S sends `misses` on
    /// a schedule. The two never overlap: on a 2-core VM a DP beside the
    /// reads measures how the host shares its cores (see the README).
    pub fn burst(
        &mut self,
        cx: &Cx,
        setup: &mut Setup,
        reads: Range<usize>,
        misses: Range<usize>,
        s: &mut Samples,
        tally: &mut Tally,
    ) -> Result<(), String> {
        if let Some(p) = &setup.placement {
            p.enter_r();
        }
        let r_start = Instant::now();
        for i in reads {
            let (request, line) = (&self.requests[i], &self.lines[i]);
            let nth = self.seen.entry(request.kind()).or_default();
            let traced = cx.traced(*nth);
            *nth += 1;
            let conn = &mut setup.conn;
            let done = match (traced, self.reference.as_mut()) {
                (Some(t), Some(engine)) => t.op("serve_read", |ctx| {
                    traced_read(t, ctx, conn, &setup.server.state, engine, request, line)
                }),
                _ => {
                    let (done, ms) = timed(|| conn.roundtrip(line).map(|_| ()));
                    s.push("serve_read", ms);
                    done
                }
            };
            tally.check(done.and_then(|()| {
                let b = conn.last();
                if let Some(d) = metrics::find(&format!("json.reply_kb.{}", request.kind())) {
                    s.push(d.name, b.len() as f64 / 1e3);
                }
                same(
                    &format!("served {}", request.kind()),
                    b,
                    &self.expected[line],
                )
            }));
        }
        s.push("serve_r_wall_s", r_start.elapsed().as_secs_f64());
        if let Some(p) = &setup.placement {
            p.leave_r();
        }
        self.misses(cx, setup, misses, s, tally)
    }

    /// Connection S's open loop: a sender thread sends each request at its
    /// due time while this thread receives and checks the replies.
    fn misses(
        &self,
        cx: &Cx,
        setup: &mut Setup,
        misses: Range<usize>,
        s: &mut Samples,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let period = Duration::from_millis(cx.plan.miss_period_ms);
        let miss_lines = &self.miss_lines[misses.clone()];
        let miss_ps = &self.miss_ps[misses.clone()];
        let miss_expected = &self.miss_expected[misses];
        let (s_writer, s_reader, s_buf) = setup.misses.halves();
        let start = Instant::now();
        let due = move |i: usize| start + period * i as u32;
        let (sent, replies) = std::thread::scope(|scope| -> Result<_, String> {
            let sender = scope.spawn(move || -> Result<Vec<Instant>, String> {
                let mut sent = Vec::with_capacity(miss_lines.len());
                for (i, line) in miss_lines.iter().enumerate() {
                    if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    sent.push(Instant::now());
                    if let Err(e) = send_line(s_writer, line) {
                        // Wake the receiver, which waits for a reply.
                        let _ = s_writer.shutdown(std::net::Shutdown::Both);
                        return Err(format!("send S: {e}"));
                    }
                }
                Ok(sent)
            });
            let mut replies = Vec::with_capacity(miss_lines.len());
            for (p, want) in miss_ps.iter().zip(miss_expected) {
                if let Err(e) = recv_line(s_reader, s_buf) {
                    return Err(match sender.join() {
                        Ok(Err(send)) => send,
                        _ => format!("S reply at p={p}: {e}"),
                    });
                }
                let at = Instant::now();
                replies.push((at, same(&format!("served miss at p={p}"), s_buf, want)));
            }
            let sent = sender
                .join()
                .map_err(|_| "S sender panicked".to_string())??;
            Ok((sent, replies))
        })?;
        for (i, (&at, (replied, checked))) in sent.iter().zip(replies).enumerate() {
            // How late the sender ran, and the latency from the due time.
            s.push(
                "serve.miss_late_ms",
                at.duration_since(due(i)).as_secs_f64() * 1e3,
            );
            s.push(
                "serve_miss",
                replied.duration_since(due(i)).as_secs_f64() * 1e3,
            );
            tally.check(checked);
        }
        Ok(())
    }

    /// Record the server's counters.
    pub fn finish(&self, setup: &Setup, s: &mut Samples) {
        let state = &setup.server.state;
        s.push("serve.busy", state.busy_rejections() as f64);
        s.push("serve.builds_started", state.builds_started() as f64);
    }
}
