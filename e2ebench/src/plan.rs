//! The workloads and the fixed operation counts of one run.
//!
//! Every run performs all three phases (open, slider, serve) so that each
//! workload reports every end-to-end metric; a workload picks the trace
//! and gives most of the run to the phase it is named after. Counts are a
//! pure function of the workload and `--seconds`: a run never stops on the
//! clock, so two runs of one seed attempt the same operations.

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold opens and warm reopens of a 48 MB, 2-shard trace.
    Open,
    /// Fresh-`p` moves on a warm engine, plus significant-level searches.
    Slider,
    /// Warm reads over TCP, each round's followed by open-loop fresh-`p`
    /// DPs.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Open, Workload::Slider, Workload::Serve];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Open => "open",
            Workload::Slider => "slider",
            Workload::Serve => "serve",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Seconds the base counts below were sized for (a 2-core x86-64 box);
/// `--seconds` scales every count linearly from these.
pub const BASE_SECONDS: u64 = 25;

/// Everything one run does, fixed before it starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Case C scale of the generated trace.
    pub scale: f64,
    /// `|T|` of opens, level searches and served requests.
    pub slices: usize,
    /// `|T|` of the slider engine.
    pub slider_slices: usize,
    /// Trade-off of every open (the `aggregate` default).
    pub open_p: f64,
    /// Dichotomy resolution of the level searches.
    pub level_resolution: f64,
    /// Visual-aggregation threshold of served overviews, in leaf rows.
    pub min_rows: f64,
    /// Set-ups timed for `setup_s` (the last one is kept).
    pub setups: usize,
    /// Rounds the operations are spread over: each round runs its share
    /// of every phase, so a burst of outside load lands on all metrics
    /// alike instead of on the one phase running at the time. Many short
    /// rounds sample the host's speed at many moments of the run, where a
    /// few long ones catch a few of its slow stretches whole.
    pub rounds: usize,
    /// Cold opens (one per cycle).
    pub cycles: usize,
    /// Warm reopens after each cold open.
    pub warm_per_cycle: usize,
    /// Fresh-`p` slider moves.
    pub moves: usize,
    /// Significant-level searches, spread evenly among the moves.
    pub level_searches: usize,
    /// Moves byte-compared with a reference engine.
    pub reference_moves: usize,
    /// `p` values the server memoizes during set-up and connection R
    /// reads at. Fixed, so every seed reads the same mix of reply sizes.
    pub memo_ps: Vec<f64>,
    /// The memoized `p` of connection R's aggregate reads.
    pub read_p: f64,
    /// Closed-loop reads on connection R (a multiple of 10).
    pub serve_reads: usize,
    /// Open-loop fresh-`p` requests on connection S.
    pub serve_misses: usize,
    /// Interval between two S requests' due times.
    pub miss_period_ms: u64,
}

use crate::stats::MIN_TAIL_SAMPLES;

fn scaled(base: usize, seconds: u64, floor: usize) -> usize {
    ((base as f64 * seconds as f64 / BASE_SECONDS as f64).round() as usize).max(floor)
}

impl Plan {
    /// The plan of `workload` for a run of about `seconds` seconds.
    pub fn new(workload: Workload, seconds: u64) -> Plan {
        // (scale, cycles, warm per cycle, moves, level searches, reads, misses)
        let (scale, cycles, warm, moves, levels, reads, misses) = match workload {
            Workload::Open => (0.02, 10, 5, 44, 10, 800, 40),
            Workload::Slider => (0.014, 5, 12, 80, 10, 800, 40),
            Workload::Serve => (0.014, 5, 12, 44, 10, 960, 48),
        };
        let cycles = scaled(cycles, seconds, 2);
        Plan {
            scale,
            slices: 30,
            slider_slices: 60,
            open_p: 0.5,
            level_resolution: 0.05,
            min_rows: 2.0,
            setups: 3,
            rounds: 80,
            cycles,
            warm_per_cycle: warm.max(MIN_TAIL_SAMPLES.div_ceil(cycles)),
            moves: scaled(moves, seconds, 2 * MIN_TAIL_SAMPLES),
            level_searches: scaled(levels, seconds, 3),
            reference_moves: 3,
            memo_ps: vec![0.4, 0.5, 0.6, 0.7],
            read_p: 0.4,
            serve_reads: scaled(reads, seconds, 4 * MIN_TAIL_SAMPLES).div_ceil(10) * 10,
            serve_misses: scaled(misses, seconds, 10),
            miss_period_ms: 60,
        }
    }

    /// A plan small enough for the benchmark's own tests in a debug build.
    pub fn tiny() -> Plan {
        Plan {
            scale: 0.002,
            slices: 6,
            slider_slices: 8,
            open_p: 0.5,
            level_resolution: 0.25,
            min_rows: 2.0,
            setups: 2,
            rounds: 2,
            cycles: 2,
            warm_per_cycle: 11,
            moves: 22,
            level_searches: 2,
            reference_moves: 2,
            memo_ps: vec![0.3, 0.6],
            read_p: 0.6,
            serve_reads: 30,
            serve_misses: 4,
            miss_period_ms: 5,
        }
    }

    /// Warm reopens in the whole run.
    pub fn warm_opens(&self) -> usize {
        self.cycles * self.warm_per_cycle
    }

    /// Every measured operation of the run.
    pub fn operations(&self) -> usize {
        self.cycles
            + self.warm_opens()
            + self.moves
            + self.level_searches
            + self.serve_reads
            + self.serve_misses
    }
}
