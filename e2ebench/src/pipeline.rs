//! Shared pieces of the phases: requests, reply checks, timing, and the
//! primed session the traced run builds replies with.

use ocelotl::core::query::{AnalysisReply, AnalysisRequest, QueryEngine, QueryError};
use ocelotl::core::{
    AnalysisSession, ArtifactStore, CubeCore, Metric, ModelSource, Partition, PartitionTable,
    SessionConfig, SessionError,
};
use ocelotl::trace::{Hierarchy, MicroModel};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Named samples a run collects (end-to-end latencies and the layer
/// numbers that do not come from spans).
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Append one sample to `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Every sample of `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Operations attempted and failed; a failure is an error reply, a
/// mismatch with the reference, or a refusal. Nothing is retried.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
}

impl Tally {
    /// Count one operation; report and count it as failed unless `ok`.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            eprintln!("failed operation: {why}");
        }
    }
}

/// Run `f`, returning its result and its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// `SessionConfig` at `n_slices`, everything else at the CLI defaults.
pub fn config(n_slices: usize) -> SessionConfig {
    SessionConfig {
        n_slices,
        ..SessionConfig::default()
    }
}

/// The `aggregate` request at `p` with the CLI defaults.
pub fn aggregate(p: f64) -> AnalysisRequest {
    AnalysisRequest::Aggregate {
        p,
        coarse: false,
        compare: false,
        diff_p: None,
    }
}

/// Replies up to this size are decoded to check them. `decode_reply`
/// runs in time quadratic in the reply size (each string character
/// re-validates the rest of the line as UTF-8), so a multi-megabyte reply
/// takes seconds to decode: larger replies are checked in typed form
/// before encoding, or by bytes against a reference.
pub const DECODE_LIMIT: usize = 64 * 1024;

/// Decode a reply line, requiring a successful reply.
pub fn decode_ok(line: &str) -> Result<AnalysisReply, String> {
    match ocelotl::format::decode_reply(line) {
        Ok(Ok(reply)) => Ok(reply),
        Ok(Err(e)) => Err(format!("{} reply: {}", e.kind(), e.message())),
        Err(e) => Err(format!("undecodable reply: {e}")),
    }
}

/// A reply line is a successful reply: decoded when small, otherwise
/// recognized by the envelope the encoder writes first.
pub fn reply_ok(line: &str) -> Result<(), String> {
    if line.len() <= DECODE_LIMIT {
        return decode_ok(line).map(|_| ());
    }
    let head = format!("{{\"v\":{},\"reply\":", ocelotl::core::PROTOCOL_VERSION);
    if line.starts_with(&head) {
        Ok(())
    } else {
        Err(format!(
            "{}-byte line is not a successful reply",
            line.len()
        ))
    }
}

/// A typed result is a successful aggregate reply at `p`, and `partition`,
/// the one the session memoized for it, covers every cell of the
/// `hierarchy` × `n_slices` grid exactly once.
pub fn check_aggregate(
    result: &Result<AnalysisReply, QueryError>,
    p: f64,
    partition: &Partition,
    hierarchy: &Hierarchy,
    n_slices: usize,
) -> Result<(), String> {
    let a = match result {
        Ok(AnalysisReply::Aggregate(a)) => a,
        Ok(other) => return Err(format!("expected an aggregate reply, got {}", other.kind())),
        Err(e) => return Err(format!("{} reply: {}", e.kind(), e.message())),
    };
    if a.p.to_bits() != p.to_bits() {
        return Err(format!("reply answers p={} instead of p={p}", a.p));
    }
    if a.areas.len() != partition.areas().len() || a.summary.n_areas != a.areas.len() {
        return Err(format!(
            "reply at p={p} has {} areas, its partition {}",
            a.areas.len(),
            partition.areas().len()
        ));
    }
    partition
        .validate(hierarchy, n_slices)
        .map_err(|e| format!("partition at p={p}: {e}"))
}

/// The partition `session` memoized at `p`, read back after the clock
/// stopped (a memo hit: no DP runs).
pub fn memoized(session: &mut AnalysisSession, p: f64) -> Result<Partition, String> {
    session
        .partition_at(p, false)
        .map_err(|e| format!("memoized partition at p={p}: {e}"))
}

/// Byte equality with a reference reply.
pub fn same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} reply bytes differ from the {}-byte reference",
            got.len(),
            want.len()
        ))
    }
}

/// A source that knows the trace's fingerprint and nothing else: a
/// session over it answers only from its artifact store.
pub struct KnownSource(pub u64);

impl ModelSource for KnownSource {
    fn fingerprint(&self) -> Result<u64, SessionError> {
        Ok(self.0)
    }

    fn model(&self, _n_slices: usize, _metric: Metric) -> Result<MicroModel, SessionError> {
        Err(SessionError::source(
            "the primed session has no trace to read",
        ))
    }
}

/// A store holding one cube and one partition table, handed over once.
pub struct Primed {
    core: Mutex<Option<CubeCore>>,
    table: Mutex<Option<PartitionTable>>,
}

impl ArtifactStore for Primed {
    fn load_cube(&self, _key: u64) -> Option<CubeCore> {
        self.core.lock().ok()?.take()
    }
    fn store_cube(&self, _key: u64, _core: &CubeCore) -> bool {
        false
    }
    fn load_partitions(&self, _key: u64) -> Option<PartitionTable> {
        self.table.lock().ok()?.take()
    }
    fn store_partitions(&self, _key: u64, _table: &PartitionTable) -> bool {
        false
    }
}

/// Answer `request` through the query layer from stages the traced run
/// already built: the session loads them from a primed store, so no stage
/// is computed twice.
pub fn primed_reply(
    fingerprint: u64,
    config: SessionConfig,
    core: CubeCore,
    table: PartitionTable,
    request: &AnalysisRequest,
) -> Result<AnalysisReply, QueryError> {
    let store = Primed {
        core: Mutex::new(Some(core)),
        table: Mutex::new(Some(table)),
    };
    let session = AnalysisSession::new(KnownSource(fingerprint), config).with_store(store);
    QueryEngine::new(session).execute(request)
}
