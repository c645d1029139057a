//! `servebench`: the end-to-end and per-layer serving benchmark of the
//! M-ANT stack.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It sets up (several times, reporting
//! the median), measures for `--seconds`, checks every stream against
//! the one-request-at-a-time runner outside the timed phase, and prints
//! as its last line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the per-layer ones, from a traced run that also
//! writes a Chrome trace. See `README.md` for the workloads and metrics.

mod gateway;
mod host;
mod layers;
mod serving;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mant_gateway::{GatewayConfig, GatewayReport};
use mant_serve::{sequential_generate, GenRequest, ServeEngine, ServeReport};
use mant_trace::{Collector, Hist, ThreadEvents};

use host::HostFacts;
use serving::{Latency, Run};
use stats::{mean, median, percentile};
use workloads::{Kind, Models, SetupTimes, Shape};

/// Set-up repetitions per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests every timed phase carries at least, so each p90 has at
/// least ten samples beyond it.
const MIN_REQUESTS: usize = 100;
/// Cap on raw events kept for the Chrome trace (aggregates see all).
const TRACE_LOG_CAP: usize = 200_000;
/// Where the traced run writes its Chrome trace, relative to the
/// working directory.
const TRACE_DIR: &str = "servebench/out";

/// A reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// A small seeded generator (splitmix64): the benchmark's inputs come
/// from `--seed` through this alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match kv.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// A fresh engine over the workload's models.
fn engine<'m>(shape: &Shape, m: &'m Models) -> ServeEngine<'m> {
    match &m.draft {
        Some((d, dp)) => ServeEngine::new_with_draft(&m.target, &m.packed, d, dp, shape.serve),
        None => ServeEngine::new(&m.target, &m.packed, shape.serve),
    }
}

/// The gateway's configuration for this workload.
fn gateway_config(shape: &Shape, trace: bool) -> GatewayConfig {
    let mut cfg = GatewayConfig::new(shape.serve);
    cfg.trace = trace;
    cfg
}

/// Constructs the engine (or starts the gateway) and sends the warm-up
/// requests through it, so allocator, caches and lazy state are warm.
fn warm_up(shape: &Shape, m: &Models, set: &[GenRequest]) {
    if shape.kind == Kind::GatewayChat {
        let cfg = gateway_config(shape, false);
        gateway::run(&m.target, &m.packed, cfg, set, shape.warmup, 1, None, 0)
            .expect("gateway warm-up");
        return;
    }
    let mut e = engine(shape, m);
    for r in &set[..shape.warmup] {
        e.submit(r.clone());
    }
    e.run_to_completion();
}

/// One timed phase and what the program reported about it.
struct Phase {
    run: Run,
    serve: ServeReport,
    gateway: Option<GatewayReport>,
    /// Warm-up streams of the gateway run, by index into the set.
    warmup: Vec<(usize, Vec<usize>)>,
    /// Client-observed TTFT of the gateway's warm-up requests, ms.
    warmup_ttft_ms: Vec<f64>,
}

/// Runs the workload's timed phase. `on_ticks` is called every few
/// dozen ticks on the in-process workloads.
fn timed_phase(
    shape: &Shape,
    m: &Models,
    set: &[GenRequest],
    seconds: f64,
    trace: bool,
    on_ticks: &mut dyn FnMut(),
) -> Phase {
    let pool = shape.serve.pool_blocks;
    let min_rounds = MIN_REQUESTS.div_ceil(set.len());
    match shape.kind {
        Kind::DecodeBatch | Kind::SpecDecode => {
            let mut e = engine(shape, m);
            let run = serving::closed_rounds(&mut e, set, pool, seconds, min_rounds, on_ticks);
            let serve = e.report(run.wall_s());
            Phase {
                run,
                serve,
                gateway: None,
                warmup: Vec::new(),
                warmup_ttft_ms: Vec::new(),
            }
        }
        Kind::GatewayChat => {
            let g = gateway::run(
                &m.target,
                &m.packed,
                gateway_config(shape, trace),
                set,
                shape.warmup,
                workloads::GATEWAY_CLIENTS,
                Some(seconds),
                min_rounds,
            )
            .expect("gateway run");
            Phase {
                run: g.run,
                serve: g.report.serve.clone(),
                warmup: g.warmup,
                warmup_ttft_ms: g.warmup_ttft_ms,
                gateway: Some(g.report),
            }
        }
    }
}

/// The one-request-at-a-time streams of the set (on the target model).
fn reference(shape: &Shape, m: &Models, set: &[GenRequest]) -> Vec<Vec<usize>> {
    let cfg = &shape.serve;
    sequential_generate(&m.target, &m.packed, cfg.act, cfg.kv, set).0
}

/// The outcome of the correctness checks of one phase.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    /// Requests that did not end normally with all their tokens.
    failed: Vec<String>,
    /// Wrong outputs and broken invariants.
    problems: Vec<String>,
}

/// Checks a phase against the reference streams and the engine's
/// invariants. Runs outside the timed phase.
fn check(shape: &Shape, set: &[GenRequest], refs: &[Vec<usize>], p: &Phase, v: &mut Verdict) {
    let obs = &p.run.obs;
    v.attempted += obs.len();
    v.problems.extend(p.run.violations.iter().cloned());
    for (n, o) in obs.iter().enumerate() {
        if !o.complete(set[o.ref_idx].max_new_tokens) {
            v.failed.push(format!(
                "request {n}: {} tokens, {} done and {} other terminal events",
                o.tokens.len(),
                o.finished,
                o.other_terminal
            ));
        } else if o.tokens != refs[o.ref_idx] {
            v.problems.push(format!(
                "request {n}: stream differs from sequential_generate"
            ));
        }
    }
    for (i, tokens) in &p.warmup {
        if *tokens != refs[*i] {
            v.problems.push(format!(
                "warm-up request {i}: stream differs from sequential_generate"
            ));
        }
    }
    let s = &p.serve;
    let expected_completions = obs.len() + p.gateway.as_ref().map_or(0, |_| shape.warmup);
    if s.completions.len() != expected_completions {
        v.problems.push(format!(
            "{} completions for {expected_completions} requests",
            s.completions.len()
        ));
    }
    let nonzero = [
        ("preemptions", s.preemptions),
        ("recomputed tokens", s.recomputed_tokens),
        ("expired requests", s.expired_requests),
        ("cancelled requests", s.cancelled_requests),
        ("poisoned requests", s.poisoned_requests),
        ("step rollbacks", s.step_rollbacks),
        ("rejected requests", s.rejected_requests),
    ];
    for (what, n) in nonzero {
        if n != 0 {
            v.problems.push(format!("{n} {what}"));
        }
    }
    if s.degradation.ever_engaged() {
        v.problems.push("the degradation ladder engaged".to_owned());
    }
    if let Some(spec) = &s.speculation {
        let (rounds, emitted) = spec_observed(set, obs, &mut v.problems);
        // Each round emits its accepted candidates plus, when one was
        // rejected, the target's correction. A round that accepts all
        // of its candidates emits no extra token, so `emitted` lies
        // between `accepted` and `accepted + rounds`.
        if rounds != spec.rounds || emitted < spec.accepted || emitted > spec.accepted + spec.rounds
        {
            v.problems.push(format!(
                "speculation counters disagree with the streams: observed {rounds} rounds \
                 emitting {emitted}, engine counted {} rounds with {} accepted",
                spec.rounds, spec.accepted
            ));
        }
        println!(
            "info {{\"spec_rounds\": {rounds}, \"spec_emitted_observed\": {emitted}, \
             \"spec_emitted_tokens_reported\": {}}}",
            spec.emitted_tokens()
        );
    }
    if let Some(g) = &p.gateway {
        let expected = (obs.len() + shape.warmup) as u64;
        if g.accepted != expected {
            v.problems
                .push(format!("gateway accepted {} of {expected}", g.accepted));
        }
        // With prefix sharing, only the system-prompt snapshots may hold
        // blocks once every stream has ended.
        let held = g.metrics.gauges.get("pool.used_blocks").map(|g| g.value);
        let want = (workloads::GATEWAY_SYSTEM_PROMPTS
            * shape.model.layers
            * workloads::GATEWAY_SYSTEM_BLOCKS) as u64;
        if held != Some(want) {
            v.problems.push(format!(
                "pool not drained: {held:?} blocks held at the end, prefix snapshots hold {want}"
            ));
        }
    }
}

/// Speculative rounds and the tokens they emitted, as the benchmark saw
/// them tick by tick: a request's first token comes from a plain step,
/// and so does a last token taken with one token left; every other
/// tick's burst is one draft-and-verify round.
fn spec_observed(
    set: &[GenRequest],
    obs: &[serving::Obs],
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let (mut rounds, mut emitted) = (0u64, 0u64);
    for o in obs {
        let want = set[o.ref_idx].max_new_tokens;
        let mut seen = 0usize;
        for (i, b) in o.bursts().into_iter().enumerate() {
            if i > 0 && want - seen >= 2 {
                rounds += 1;
                emitted += b as u64;
            } else if b != 1 {
                problems.push(format!("a plain step emitted {b} tokens at once"));
            }
            seen += b;
        }
    }
    (rounds, emitted)
}

fn ms(h: &Hist) -> f64 {
    h.sum as f64 / 1e6
}

fn mean_ms(h: Option<&Hist>) -> f64 {
    h.and_then(Hist::mean).unwrap_or(0.0) / 1e6
}

/// Mean TTFT the gateway's clients saw, in ms, over the same requests
/// the engine's `breakdown.ttft` covers: the warm-up and the timed phase.
fn client_ttft_mean_ms(p: &Phase) -> f64 {
    let mut ttft = Latency::of(&p.run.obs).ttft;
    ttft.extend(p.warmup_ttft_ms.iter().copied());
    mean(&ttft).unwrap_or(0.0)
}

/// Span events labelled `label`, as durations in ms.
fn span_ms(threads: &[ThreadEvents], label: &str) -> Vec<f64> {
    threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == mant_trace::EventKind::Span && e.label == label)
        .map(|e| e.value as f64 / 1e6)
        .collect()
}

/// The per-layer metrics of a traced phase (`traced`), the untraced
/// phase before it (`base`) and the set-up repetitions.
fn per_layer(
    set: &[GenRequest],
    setup: &[SetupTimes],
    base: &Phase,
    traced: &Phase,
    agg: &mant_trace::Aggregate,
    threads: &[ThreadEvents],
    direct: Vec<Metric>,
) -> Vec<Metric> {
    let med =
        |f: fn(&SetupTimes) -> f64| median(&setup.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let s = &traced.serve;
    let b = &s.breakdown;
    let tick_ms = if traced.gateway.is_some() {
        span_ms(threads, "tick")
    } else {
        traced.run.tick_ms.clone()
    };
    let phases = [&b.expire, &b.admit, &b.compose, &b.step, &b.advance];
    let phase_sum: f64 = phases.iter().map(|h| ms(h)).sum();
    let hist = |label: &str| agg.hists.get(label);
    let kernel = |label: &str| hist(label).map_or(0.0, ms);
    let kernels = [
        "kernel.gemm",
        "kernel.attn",
        "kernel.kv_quant",
        "kernel.gemv",
    ];
    let spec = s.speculation.clone().unwrap_or_default();
    let (accepted, rejected, ttft_overhead) = match &traced.gateway {
        Some(g) => (
            g.accepted as f64,
            (g.rejected_busy + g.rejected_shutdown + g.rejected_parse + g.rejected_submit) as f64,
            client_ttft_mean_ms(traced) - mean_ms(Some(&b.ttft)),
        ),
        None => (0.0, 0.0, 0.0),
    };
    let mut out = vec![
        ("setup.synthesize_s", "s", med(|t| t.synthesize)),
        ("setup.pack_s", "s", med(|t| t.pack)),
        ("setup.kv_calibrate_s", "s", med(|t| t.kv_calibrate)),
        (
            "serve.tick_ms_p50",
            "ms",
            percentile(&tick_ms, 0.5).unwrap_or(0.0),
        ),
        (
            "serve.tick_ms_p90",
            "ms",
            percentile(&tick_ms, 0.9).unwrap_or(0.0),
        ),
        ("serve.busy_ticks", "count", s.busy_iterations as f64),
        ("serve.batch_occupancy", "seqs", s.mean_batch_occupancy),
        ("serve.phase_ms.expire", "ms", ms(&b.expire)),
        ("serve.phase_ms.admit", "ms", ms(&b.admit)),
        ("serve.phase_ms.compose", "ms", ms(&b.compose)),
        ("serve.phase_ms.step", "ms", ms(&b.step)),
        ("serve.phase_ms.advance", "ms", ms(&b.advance)),
        (
            "serve.unattributed_ms",
            "ms",
            tick_ms.iter().sum::<f64>() - phase_sum,
        ),
        (
            "serve.queue_wait_ms_mean",
            "ms",
            mean_ms(Some(&b.queue_wait)),
        ),
        ("serve.prefix_hit_rate", "ratio", s.prefix_hit_rate()),
        (
            "serve.prefix_cached_tokens",
            "count",
            s.prefix_cached_tokens as f64,
        ),
        ("serve.preemptions", "count", s.preemptions as f64),
        (
            "serve.recomputed_tokens",
            "count",
            s.recomputed_tokens as f64,
        ),
        ("serve.peak_used_blocks", "count", s.peak_used_blocks as f64),
        ("spec.acceptance_rate", "ratio", spec.acceptance_rate()),
        (
            "spec.tokens_per_round",
            "tok/round",
            if spec.rounds == 0 {
                0.0
            } else {
                spec_observed(set, &traced.run.obs, &mut Vec::new()).1 as f64 / spec.rounds as f64
            },
        ),
        ("spec.rounds", "count", spec.rounds as f64),
        ("spec.draft_ms_mean", "ms", mean_ms(Some(&spec.draft_ns))),
        ("spec.verify_ms_mean", "ms", mean_ms(Some(&spec.verify_ns))),
        (
            "spec.rollback_ms_mean",
            "ms",
            mean_ms(Some(&spec.rollback_ns)),
        ),
        ("model.gemm_ms", "ms", kernel("kernel.gemm")),
        ("model.attn_ms", "ms", kernel("kernel.attn")),
        ("model.kv_quant_ms", "ms", kernel("kernel.kv_quant")),
        ("model.lm_head_ms", "ms", kernel("kernel.gemv")),
        (
            "model.step_unattributed_ms",
            "ms",
            ms(&b.step) - kernels.iter().map(|k| kernel(k)).sum::<f64>(),
        ),
    ];
    out.extend(direct);
    out.extend([
        (
            "gateway.parse_us_mean",
            "us",
            mean_ms(hist("request.parse")) * 1e3,
        ),
        (
            "gateway.queue_wait_ms_mean",
            "ms",
            mean_ms(hist("request.queue_wait")),
        ),
        (
            "gateway.stream_ms_mean",
            "ms",
            mean_ms(hist("request.stream")),
        ),
        ("gateway.ttft_overhead_ms", "ms", ttft_overhead),
        ("gateway.accepted", "count", accepted),
        ("gateway.rejected", "count", rejected),
        (
            "trace.overhead_ratio",
            "ratio",
            base.run.output_tok_s() / traced.run.output_tok_s(),
        ),
    ]);
    out
}

/// Formats the result line.
fn result_json(correct: bool, v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.attempted,
        v.failed.len(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <decode-batch|spec-decode|gateway-chat> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::probe();
    println!("host {}", host.json());

    let shape = Shape::of(args.kind);
    let set = workloads::request_set(&shape, args.seed);

    // Set-up, repeated; the last repetition's models are measured.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut models = None;
    for _ in 0..SETUP_REPS {
        drop(models.take());
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let m = workloads::build_models(&shape, &mut times);
        warm_up(&shape, &m, &set);
        times.total = t0.elapsed().as_secs_f64();
        setup.push(times);
        models = Some(m);
    }
    let m = models.expect("SETUP_REPS > 0");
    let setup_s = median(&setup.iter().map(|t| t.total).collect::<Vec<_>>()).expect("reps");
    println!(
        "info {{\"workload\": \"{}\", \"seed\": {}, \"setup_reps_s\": [{}], \
         \"synthesize_pack_calibrate_s\": [{:.3}, {:.3}, {:.3}], \"process_start_to_timed_s\": {:.3}}}",
        args.kind.name(),
        args.seed,
        setup
            .iter()
            .map(|t| format!("{:.3}", t.total))
            .collect::<Vec<_>>()
            .join(", "),
        setup[0].synthesize,
        setup[0].pack,
        setup[0].kv_calibrate,
        process_start.elapsed().as_secs_f64()
    );

    let mut verdict = Verdict::default();
    let metrics: Vec<Metric> = if !args.trace {
        let phase = timed_phase(&shape, &m, &set, args.seconds, false, &mut || {});
        let refs = reference(&shape, &m, &set);
        check(&shape, &set, &refs, &phase, &mut verdict);
        let walls: Vec<String> = phase
            .run
            .rounds
            .iter()
            .map(|w| format!("{:.3}", w.as_secs_f64()))
            .collect();
        println!("info {{\"round_s\": [{}]}}", walls.join(", "));
        let lat = Latency::of(&phase.run.obs);
        let mut out = vec![
            ("setup_s", "s", setup_s),
            ("output_tok_s", "tok/s", phase.run.output_tok_s()),
        ];
        out.extend(lat.metrics().into_iter().map(|(n, v)| (n, "ms", v)));
        out.push(("peak_rss_mib", "MiB", host::peak_rss_mib().unwrap_or(0.0)));
        out
    } else {
        // Untraced first (the base of the overhead ratio), then traced.
        let base = timed_phase(&shape, &m, &set, args.seconds, false, &mut || {});
        mant_trace::set_enabled(true);
        let mut collector = Collector::new(true).with_log_cap(TRACE_LOG_CAP);
        let traced = timed_phase(&shape, &m, &set, args.seconds, true, &mut || {
            collector.collect()
        });
        mant_trace::set_enabled(false);
        collector.collect();
        let (agg, mut threads) = match &traced.gateway {
            Some(g) => (g.metrics.clone(), g.trace_events.clone()),
            None => (
                collector.agg.clone(),
                std::mem::take(&mut collector.threads),
            ),
        };
        let dropped = agg.dropped;
        // Direct calls into single layers, traced into their own spans.
        let mut direct_events = Collector::new(true).with_log_cap(TRACE_LOG_CAP);
        mant_trace::set_enabled(true);
        let mut rng = Rng::new(args.seed ^ 0xd1_2ec7);
        let direct = layers::measure(
            &m.target,
            &m.packed,
            shape.serve.kv,
            shape.serve.block_tokens,
            &mut rng,
            &mut || direct_events.collect(),
        );
        mant_trace::set_enabled(false);
        direct_events.collect();
        let dropped = dropped + direct_events.agg.dropped;
        threads.extend(direct_events.threads);

        let refs = reference(&shape, &m, &set);
        check(&shape, &set, &refs, &base, &mut verdict);
        check(&shape, &set, &refs, &traced, &mut verdict);
        match mant_trace::validate_spans(&threads) {
            Ok(n) => {
                let path = format!(
                    "{TRACE_DIR}/{}-seed{}.trace.json",
                    args.kind.name(),
                    args.seed
                );
                let written = std::fs::create_dir_all(TRACE_DIR)
                    .and_then(|()| std::fs::write(&path, mant_trace::chrome_trace_json(&threads)));
                match written {
                    Ok(()) => println!(
                        "info {{\"chrome_trace\": \"{path}\", \"spans\": {n}, \"dropped_events\": {dropped}}}"
                    ),
                    Err(e) => verdict.problems.push(format!("could not write {path}: {e}")),
                }
            }
            Err(e) => verdict.problems.push(format!("invalid Chrome trace: {e}")),
        }
        if dropped > 0 {
            verdict
                .problems
                .push(format!("{dropped} trace events dropped on ring overflow"));
        }
        per_layer(&set, &setup, &base, &traced, &agg, &threads, direct)
    };

    for p in verdict.problems.iter().chain(&verdict.failed).take(20) {
        eprintln!("servebench: check failed: {p}");
    }
    let correct = verdict.problems.is_empty();
    println!("{}", result_json(correct, &verdict, &metrics));
    if correct && verdict.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
