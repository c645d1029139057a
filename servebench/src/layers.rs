//! Direct calls into single layers, timed by the benchmark on the
//! workload's own model and shapes: the `BatchRunner` forward pass, the
//! packed GEMV/GEMM kernels, paged attention, and the f32 LM head.
//!
//! Each figure is the median over repeated calls after a warm-up, so
//! one preempted call does not move it.

use std::hint::black_box;
use std::time::Instant;

use mant_model::{ActMode, KvMode, PackedWeights, SessionId, TransformerModel};
use mant_quant::search::CandidateSet;
use mant_quant::{
    attention_incremental_paged, mant_gemv, mant_gemv_batch, quantize_vector_int8, KvCachePool,
    PagedKvCache, PoolConfig, VarianceMap,
};
use mant_tensor::matvec_batch;

use crate::stats::median;
use crate::{Metric, Rng};

/// Context length the decode-step figures are taken at.
const DECODE_CONTEXT: usize = 128;
/// Prompt length of the prefill figures.
const PREFILL_TOKENS: usize = 128;
/// Context length of the attention figure.
const ATTN_CONTEXT: usize = 256;
/// Repetitions per kernel figure (after one warm-up call).
const REPS: usize = 31;

/// Median wall microseconds of `f` over [`REPS`] calls, after a warm-up
/// call. Each call runs inside a span named `label`; `between` runs
/// after each call, untimed.
fn time_us(label: &'static str, between: &mut dyn FnMut(), mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            {
                let _s = mant_trace::span(label);
                f();
            }
            let us = t0.elapsed().as_secs_f64() * 1e6;
            between();
            us
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// Every direct-call per-layer metric, measured on `model`/`packed`
/// with the workload's KV mode and pool geometry. `between` runs between
/// timed calls (the traced run drains the trace rings there).
pub fn measure(
    model: &TransformerModel,
    packed: &PackedWeights,
    kv: KvMode,
    block_tokens: usize,
    rng: &mut Rng,
    between: &mut dyn FnMut(),
) -> Vec<Metric> {
    let cfg = &model.config;
    let vocab = cfg.vocab;
    let mut out = Vec::new();

    // BatchRunner decode steps at a fixed context: 8 sessions are
    // prefilled to DECODE_CONTEXT, then each timed step feeds one token
    // to the first `b` of them and is truncated back afterwards
    // (untimed), so every step sees the same context.
    let per_seq = cfg.layers * (DECODE_CONTEXT + 1).div_ceil(block_tokens);
    let mut br = model.batch_runner(packed, ActMode::None, kv, 8 * per_seq + 8, block_tokens);
    let ids: Vec<SessionId> = (0..8).map(|_| br.create_session()).collect();
    for _ in 0..DECODE_CONTEXT {
        let step: Vec<(SessionId, usize)> = ids.iter().map(|&id| (id, rng.below(vocab))).collect();
        br.step(&step);
    }
    for (b, name) in [
        (1usize, "model.decode_step_us.b1"),
        (2, "model.decode_step_us.b2"),
        (4, "model.decode_step_us.b4"),
        (8, "model.decode_step_us.b8"),
    ] {
        let step: Vec<(SessionId, usize)> =
            ids[..b].iter().map(|&id| (id, rng.below(vocab))).collect();
        let mut samples = Vec::with_capacity(REPS);
        for rep in 0..=REPS {
            let t0 = Instant::now();
            {
                let _s = mant_trace::span("bench.batch_step");
                black_box(br.step(&step));
            }
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if rep > 0 {
                samples.push(us);
            }
            for &(id, _) in &step {
                br.truncate_session(id, DECODE_CONTEXT);
            }
            between();
        }
        out.push((name, "us", median(&samples).expect("REPS > 0")));
    }
    for id in ids {
        br.end_session(id);
    }

    // Prefill of one prompt: one `step` per token against one
    // `step_multi` over the whole prompt.
    let prompt: Vec<usize> = (0..PREFILL_TOKENS).map(|_| rng.below(vocab)).collect();
    let per_token = |us: f64| us / PREFILL_TOKENS as f64;
    let mut br = model.batch_runner(packed, ActMode::None, kv, per_seq * 2 + 8, block_tokens);
    let by_step = time_us("bench.prefill_step", between, || {
        let id = br.create_session();
        for &t in &prompt {
            black_box(br.step(&[(id, t)]));
        }
        br.end_session(id);
    });
    let by_multi = time_us("bench.prefill_step_multi", between, || {
        let id = br.create_session();
        black_box(br.step_multi(id, &prompt));
        br.end_session(id);
    });
    out.push((
        "model.prefill_us_per_token.step",
        "us/tok",
        per_token(by_step),
    ));
    out.push((
        "model.prefill_us_per_token.step_multi",
        "us/tok",
        per_token(by_multi),
    ));

    // Packed kernels on the FFN up projection, the widest decode GEMM.
    let w = packed.layers()[0].w_up.packed();
    let g = packed.group_size();
    let xs: Vec<_> = (0..8)
        .map(|_| {
            let x: Vec<f32> = (0..w.cols()).map(|_| rng.normal()).collect();
            quantize_vector_int8(&x, g).expect("hidden is a multiple of the group")
        })
        .collect();
    let gemv = time_us("bench.mant_gemv", between, || {
        black_box(mant_gemv(&xs[0], w).expect("shapes match"));
    });
    let gemm = time_us("bench.mant_gemv_batch", between, || {
        black_box(mant_gemv_batch(&xs, w).expect("shapes match"));
    });
    // Computed, not measured: the packed bytes one GEMM call streams
    // (codes, scales and metadata, read once for the whole batch).
    let packed_bytes = w.storage_bits() as f64 / 8.0;
    out.push(("quant.gemv_us", "us", gemv));
    out.push(("quant.gemm_us.b8", "us", gemm));
    out.push((
        "quant.gemm_gbps.b8",
        "GB/s",
        packed_bytes / (gemm * 1e-6) / 1e9,
    ));

    // Paged attention of one query over ATTN_CONTEXT cached tokens.
    let kv_group = match kv {
        KvMode::Int4 { group } | KvMode::Mant4 { group } => group,
        KvMode::Fp16 => unreachable!("the serving workloads quantize their KV caches"),
    };
    let map = VarianceMap::analytic(&CandidateSet::paper()).expect("paper set is non-empty");
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: cfg.kv_dim(),
        group_size: kv_group,
        block_tokens,
        blocks: ATTN_CONTEXT.div_ceil(block_tokens) + 1,
    })
    .expect("valid pool geometry");
    let mut cache = PagedKvCache::new(&pool, map.clone(), map);
    for _ in 0..ATTN_CONTEXT {
        let k: Vec<f32> = (0..cfg.kv_dim()).map(|_| rng.normal()).collect();
        let v: Vec<f32> = (0..cfg.kv_dim()).map(|_| rng.normal()).collect();
        cache
            .push(&mut pool, &k, &v)
            .expect("pool sized for the context");
    }
    let q: Vec<f32> = (0..cfg.hidden).map(|_| rng.normal()).collect();
    let attn = time_us("bench.attention_paged", between, || {
        black_box(attention_incremental_paged(
            &q,
            &cache,
            &pool,
            cfg.heads,
            cfg.kv_heads,
            cfg.head_dim(),
        ));
    });
    out.push(("quant.attn_us.ctx256", "us", attn));

    // The f32 LM head over a batch of 8 final hidden states.
    let hs: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..cfg.hidden).map(|_| rng.normal()).collect())
        .collect();
    let refs: Vec<&[f32]> = hs.iter().map(Vec::as_slice).collect();
    let lm = time_us("bench.lm_head", between, || {
        black_box(matvec_batch(&model.weights.lm_head, &refs));
    });
    out.push(("tensor.lm_head_us.b8", "us", lm));
    out
}
