//! The in-process engine workloads, and what the benchmark
//! observes of each request.
//!
//! Every latency comes from a timestamp the benchmark takes itself: one
//! `Instant` right after each `drain_events` that follows a `tick`, so
//! tokens produced by one tick (a burst of speculated tokens) share one
//! timestamp and count as gaps of 0.

use std::time::{Duration, Instant};

use mant_serve::{EngineEvent, GenRequest, ServeEngine};

use crate::stats::percentile;

/// What the benchmark saw of one request.
#[derive(Clone, Debug)]
pub struct Obs {
    /// Index of the request in its workload's distinct request set (the
    /// reference stream to compare with).
    pub ref_idx: usize,
    /// When the request's clock starts: its submission, or the write of
    /// its HTTP request.
    pub start: Instant,
    /// Tokens received, in order.
    pub tokens: Vec<usize>,
    /// When each token was observed.
    pub token_times: Vec<Instant>,
    /// `Finished` events (or SSE `done` events) seen.
    pub finished: u32,
    /// Any other terminal event seen (expired, cancelled, poisoned,
    /// error, rejected, truncated).
    pub other_terminal: u32,
    /// When the terminal event was observed.
    pub end: Option<Instant>,
}

impl Obs {
    /// A request whose clock starts at `start`.
    pub fn new(ref_idx: usize, start: Instant) -> Obs {
        Obs {
            ref_idx,
            start,
            tokens: Vec::new(),
            token_times: Vec::new(),
            finished: 0,
            other_terminal: 0,
            end: None,
        }
    }

    /// Whether the request ended exactly once, normally, with `want`
    /// tokens.
    pub fn complete(&self, want: usize) -> bool {
        self.finished == 1 && self.other_terminal == 0 && self.tokens.len() == want
    }

    /// Groups of tokens observed at the same instant, i.e. produced by
    /// one engine tick: a plain step yields 1, a speculative round 1 to
    /// `draft_k`.
    pub fn bursts(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (i, t) in self.token_times.iter().enumerate() {
            if i > 0 && *t == self.token_times[i - 1] {
                *out.last_mut().expect("i > 0") += 1;
            } else {
                out.push(1);
            }
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The latency figures of a set of completed requests, all in ms, all
/// from exact samples.
pub struct Latency {
    pub ttft: Vec<f64>,
    pub tpot: Vec<f64>,
    pub itl: Vec<f64>,
    pub e2e: Vec<f64>,
}

impl Latency {
    /// Collects samples from every request that completed.
    pub fn of(obs: &[Obs]) -> Latency {
        let mut l = Latency {
            ttft: Vec::new(),
            tpot: Vec::new(),
            itl: Vec::new(),
            e2e: Vec::new(),
        };
        for o in obs {
            let (Some(first), Some(end)) = (o.token_times.first(), o.end) else {
                continue;
            };
            let ttft = ms(*first - o.start);
            let e2e = ms(end - o.start);
            l.ttft.push(ttft);
            l.e2e.push(e2e);
            if o.tokens.len() > 1 {
                l.tpot.push((e2e - ttft) / (o.tokens.len() - 1) as f64);
            }
            l.itl
                .extend(o.token_times.windows(2).map(|w| ms(w[1] - w[0])));
        }
        l
    }

    /// `(name, value)` for every latency metric the benchmark reports.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
        vec![
            ("ttft_p50_ms", p(&self.ttft, 0.5)),
            ("ttft_p90_ms", p(&self.ttft, 0.9)),
            ("tpot_p50_ms", p(&self.tpot, 0.5)),
            ("tpot_p90_ms", p(&self.tpot, 0.9)),
            ("itl_p90_ms", p(&self.itl, 0.9)),
            ("e2e_p50_ms", p(&self.e2e, 0.5)),
            ("e2e_p90_ms", p(&self.e2e, 0.9)),
        ]
    }
}

/// The outcome of one timed phase: rounds of the same requests.
pub struct Run {
    /// One entry per request attempted, in submission order.
    pub obs: Vec<Obs>,
    /// Wall time of each round.
    pub rounds: Vec<Duration>,
    /// Duration of every `tick` call the benchmark made, in ms (it
    /// ticks only when work is ready, so every one is a busy tick).
    pub tick_ms: Vec<f64>,
    /// Failed property checks, one line each.
    pub violations: Vec<String>,
}

impl Run {
    /// Wall seconds of all rounds together.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(Duration::as_secs_f64).sum()
    }

    /// Tokens generated per second of wall time.
    pub fn output_tok_s(&self) -> f64 {
        let tokens: usize = self.obs.iter().map(|o| o.tokens.len()).sum();
        tokens as f64 / self.wall_s()
    }
}

/// How often the engine loop calls back between ticks (the traced run drains
/// the per-thread trace rings there, well before one can overflow).
const TICKS_PER_CALLBACK: usize = 32;

/// Ticks the engine once and routes the drained events into `obs`
/// (indexed by request id). Returns the tick's duration.
fn tick_and_observe(engine: &mut ServeEngine<'_>, obs: &mut [Obs]) -> Duration {
    let t0 = Instant::now();
    {
        let _s = mant_trace::span("bench.tick");
        engine.tick();
    }
    let took = t0.elapsed();
    let events = {
        let _s = mant_trace::span("bench.drain_events");
        engine.drain_events()
    };
    let now = Instant::now();
    for ev in events {
        match ev {
            EngineEvent::Token { id, token } => {
                let o = &mut obs[id as usize];
                o.tokens.push(token);
                o.token_times.push(now);
            }
            EngineEvent::Finished { id } => {
                let o = &mut obs[id as usize];
                o.finished += 1;
                o.end = Some(now);
            }
            EngineEvent::Expired { id }
            | EngineEvent::Cancelled { id }
            | EngineEvent::Poisoned { id } => {
                let o = &mut obs[id as usize];
                o.other_terminal += 1;
                o.end = Some(now);
            }
        }
    }
    took
}

/// Submits one request and starts its clock at `start`.
fn submit(
    engine: &mut ServeEngine<'_>,
    obs: &mut Vec<Obs>,
    template: &GenRequest,
    ref_idx: usize,
    start: Instant,
) {
    let id = obs.len() as u64;
    obs.push(Obs::new(ref_idx, start));
    let req = GenRequest {
        id,
        prompt: template.prompt.clone(),
        max_new_tokens: template.max_new_tokens,
        arrival_iter: engine.iterations(),
        deadline_iter: None,
    };
    let _s = mant_trace::span("bench.submit");
    engine.submit(req);
}

/// Checks that the pools hold nothing once every request has ended.
fn check_drained(engine: &ServeEngine<'_>, pool_blocks: usize, violations: &mut Vec<String>) {
    if engine.free_blocks() != pool_blocks {
        violations.push(format!(
            "pool not drained: {} of {pool_blocks} blocks free",
            engine.free_blocks()
        ));
    }
    if let Some(free) = engine.draft_free_blocks() {
        if free != pool_blocks {
            violations.push(format!(
                "draft pool not drained: {free} of {pool_blocks} blocks free"
            ));
        }
    }
}

/// A closed batch: each round submits the whole request set at once and
/// ticks until every request has ended. Rounds repeat until `seconds`
/// have passed and at least `min_rounds` ran.
pub fn closed_rounds(
    engine: &mut ServeEngine<'_>,
    set: &[GenRequest],
    pool_blocks: usize,
    seconds: f64,
    min_rounds: usize,
    on_ticks: &mut dyn FnMut(),
) -> Run {
    engine.enable_events();
    let mut run = Run {
        obs: Vec::new(),
        rounds: Vec::new(),
        tick_ms: Vec::new(),
        violations: Vec::new(),
    };
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || run.rounds.len() < min_rounds {
        let start = Instant::now();
        for (i, r) in set.iter().enumerate() {
            submit(engine, &mut run.obs, r, i, start);
        }
        while engine.pending() > 0 {
            run.tick_ms.push(ms(tick_and_observe(engine, &mut run.obs)));
            if run.tick_ms.len().is_multiple_of(TICKS_PER_CALLBACK) {
                on_ticks();
            }
        }
        run.rounds.push(start.elapsed());
        check_drained(engine, pool_blocks, &mut run.violations);
    }
    run
}
