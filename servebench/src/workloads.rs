//! The workloads: their models, engine shapes and request sets.
//!
//! A workload's inputs come from `--seed` alone. Prompt and output
//! lengths are fixed multisets that the seed shuffles, so every seed offers the same amount of work
//! in a different order with different token contents; the seed-to-seed
//! spread then measures the system, not the draw.

use mant_model::{
    synthesize_speculative_pair, ActMode, DraftConfig, FfnKind, KvMode, ModelConfig, PackedWeights,
    TransformerModel,
};
use mant_serve::{AdmissionPolicy, GenRequest, ServeConfig, SpeculativeConfig};

use crate::Rng;

/// Weight and activation group size; also the KV group and pool block.
pub const GROUP: usize = 64;
/// Seed of the synthetic model weights (fixed: the model is part of the
/// system under test, not of its inputs).
const MODEL_SEED: u64 = 4200;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DecodeBatch,
    SpecDecode,
    GatewayChat,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "decode-batch" => Kind::DecodeBatch,
            "spec-decode" => Kind::SpecDecode,
            "gateway-chat" => Kind::GatewayChat,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DecodeBatch => "decode-batch",
            Kind::SpecDecode => "spec-decode",
            Kind::GatewayChat => "gateway-chat",
        }
    }
}

/// Speculation settings of `spec-decode`.
pub const SPEC_TARGET_LAYERS: usize = 4;
pub const SPEC_DRAFT_LAYERS: usize = 1;
pub const SPEC_TAIL_RATIO: f32 = 0.25;
pub const SPEC_DRAFT_K: usize = 4;

/// `gateway-chat`: shared system prompts, each `GATEWAY_SYSTEM_BLOCKS`
/// pool blocks long, so the prefix cache holds exactly
/// `GATEWAY_SYSTEM_PROMPTS × layers × GATEWAY_SYSTEM_BLOCKS` blocks once
/// every request has ended.
pub const GATEWAY_SYSTEM_PROMPTS: usize = 4;
pub const GATEWAY_SYSTEM_BLOCKS: usize = 2;
/// Client connections of `gateway-chat`.
pub const GATEWAY_CLIENTS: usize = 2;

/// Everything about a workload that does not depend on the seed.
pub struct Shape {
    pub kind: Kind,
    pub model: ModelConfig,
    pub serve: ServeConfig,
    /// Distinct requests per round.
    pub set_size: usize,
    /// Requests of the set sent during warm-up.
    pub warmup: usize,
}

fn sim_llama_layers(layers: usize) -> ModelConfig {
    ModelConfig {
        name: format!("sim-llama-{layers}l"),
        hidden: 256,
        heads: 4,
        kv_heads: 4,
        layers,
        ffn: 512,
        vocab: 512,
        ffn_kind: FfnKind::GatedSilu,
    }
}

impl Shape {
    pub fn of(kind: Kind) -> Shape {
        let serve = |max_batch, pool_blocks, prefix_sharing, speculative| ServeConfig {
            max_batch,
            pool_blocks,
            block_tokens: GROUP,
            act: ActMode::None,
            kv: KvMode::Mant4 { group: GROUP },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 16,
            },
            prefix_sharing,
            speculative,
        };
        match kind {
            Kind::DecodeBatch => Shape {
                kind,
                model: ModelConfig::sim_llama(),
                serve: serve(8, 256, false, None),
                // Five waves of `max_batch`: the p50 and p90 requests then
                // sit inside the third and fifth waves, not on a boundary
                // between two waves' latencies.
                set_size: 40,
                warmup: 8,
            },
            Kind::SpecDecode => Shape {
                kind,
                model: sim_llama_layers(SPEC_TARGET_LAYERS),
                serve: serve(
                    8,
                    512,
                    false,
                    Some(SpeculativeConfig {
                        draft_k: SPEC_DRAFT_K,
                    }),
                ),
                // One wave of `max_batch` requests per round: with two
                // waves, admission order splits TPOT and ITL into two
                // populations and their percentiles jump between them.
                set_size: 8,
                warmup: 8,
            },
            Kind::GatewayChat => Shape {
                kind,
                model: ModelConfig::sim_llama(),
                serve: serve(8, 256, true, None),
                set_size: 16,
                warmup: GATEWAY_SYSTEM_PROMPTS,
            },
        }
    }
}

/// `n` values spread evenly over `lo..=hi`, shuffled by `rng`.
fn spread(n: usize, lo: usize, hi: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
        .collect();
    rng.shuffle(&mut v);
    v
}

/// The workload's distinct request set for `seed`.
pub fn request_set(shape: &Shape, seed: u64) -> Vec<GenRequest> {
    let mut rng = Rng::new(seed ^ 0x5e7_5e7);
    let vocab = shape.model.vocab;
    let n = shape.set_size;
    let tokens =
        |len: usize, rng: &mut Rng| -> Vec<usize> { (0..len).map(|_| rng.below(vocab)).collect() };
    let (prompts, outputs): (Vec<Vec<usize>>, Vec<usize>) = match shape.kind {
        Kind::DecodeBatch => {
            // One prompt length: every wave of `max_batch` then starts and
            // ends together, so all waves run at the same occupancy.
            let prompts = (0..n).map(|_| tokens(32, &mut rng)).collect();
            (prompts, vec![128; n])
        }
        Kind::SpecDecode => {
            // One prompt length, as on `decode-batch`: with eight distinct
            // lengths each request of a wave is its own population, and
            // every p50 sits on the boundary between the fourth and the
            // fifth of them.
            let prompts = (0..n).map(|_| tokens(32, &mut rng)).collect();
            (prompts, vec![48; n])
        }
        Kind::GatewayChat => {
            let systems: Vec<Vec<usize>> = (0..GATEWAY_SYSTEM_PROMPTS)
                .map(|_| tokens(GATEWAY_SYSTEM_BLOCKS * GROUP, &mut rng))
                .collect();
            // Suffixes stay shorter than a block, so the only block
            // boundaries a prompt crosses lie inside its system prompt.
            let suffixes = spread(n, 8, 40, &mut rng);
            let prompts = suffixes
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let mut p = systems[i % GATEWAY_SYSTEM_PROMPTS].clone();
                    p.extend(tokens(l, &mut rng));
                    p
                })
                .collect();
            (prompts, spread(n, 24, 40, &mut rng))
        }
    };
    prompts
        .into_iter()
        .zip(outputs)
        .enumerate()
        .map(|(i, (prompt, max_new_tokens))| GenRequest {
            id: i as u64,
            prompt,
            max_new_tokens,
            arrival_iter: 0,
            deadline_iter: None,
        })
        .collect()
}

/// A workload's models: the target, and the draft for speculation.
pub struct Models {
    pub target: TransformerModel,
    pub packed: PackedWeights,
    pub draft: Option<(TransformerModel, PackedWeights)>,
}

/// Set-up times of one repetition, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub synthesize: f64,
    pub pack: f64,
    pub kv_calibrate: f64,
    pub total: f64,
}

/// Synthesizes and packs the workload's models and runs the KV
/// variance-map calibration (which the first `batch_runner` on a fresh
/// model performs), timing each part.
pub fn build_models(shape: &Shape, times: &mut SetupTimes) -> Models {
    let t0 = std::time::Instant::now();
    let (target, draft) = match shape.kind {
        Kind::SpecDecode => {
            let (t, d) = synthesize_speculative_pair(
                &shape.model,
                MODEL_SEED,
                &DraftConfig {
                    layers: SPEC_DRAFT_LAYERS,
                    tail_block_ratio: SPEC_TAIL_RATIO,
                },
            );
            (t, Some(d))
        }
        _ => (TransformerModel::synthesize(&shape.model, MODEL_SEED), None),
    };
    let t1 = std::time::Instant::now();
    let packed = target.pack_weights(GROUP).expect("sim shapes pack");
    let draft = draft.map(|d| {
        let p = d.pack_weights(GROUP).expect("sim shapes pack");
        (d, p)
    });
    let t2 = std::time::Instant::now();
    let cfg = &shape.serve;
    drop(target.batch_runner(&packed, cfg.act, cfg.kv, 1, cfg.block_tokens));
    if let Some((d, p)) = &draft {
        drop(d.batch_runner(p, cfg.act, cfg.kv, 1, cfg.block_tokens));
    }
    let t3 = std::time::Instant::now();
    times.synthesize = (t1 - t0).as_secs_f64();
    times.pack = (t2 - t1).as_secs_f64();
    times.kv_calibrate = (t3 - t2).as_secs_f64();
    Models {
        target,
        packed,
        draft,
    }
}
