//! The gateway workload: a closed loop of client connections
//! to `mant_gateway::serve` over loopback HTTP/SSE. Each client sends
//! its next request when its stream ends, and timestamps every SSE line
//! it reads.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mant_gateway::{client, GatewayConfig, GatewayReport, Json};
use mant_model::{PackedWeights, TransformerModel};
use mant_serve::GenRequest;

use crate::serving::{Obs, Run};

/// The JSON body of a generate request.
fn body(req: &GenRequest) -> String {
    let prompt: Vec<String> = req.prompt.iter().map(usize::to_string).collect();
    format!(
        "{{\"prompt\": [{}], \"max_new_tokens\": {}}}",
        prompt.join(","),
        req.max_new_tokens
    )
}

/// POSTs one generate request and reads its SSE stream to the end,
/// timestamping each token line. The request's clock starts just before
/// the request is written.
fn generate_timed(addr: SocketAddr, req: &GenRequest, ref_idx: usize) -> std::io::Result<Obs> {
    let _s = mant_trace::span("bench.generate");
    let body = body(req);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut obs = Obs::new(ref_idx, Instant::now());
    write!(
        stream,
        "POST /v1/generate HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut event: Option<String> = None;
    let mut streaming = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let now = Instant::now();
        let l = line.trim_end();
        if !streaming {
            // Status line and headers: a stream announces itself with
            // its content type; anything else is a refusal.
            if l.to_ascii_lowercase()
                .starts_with("content-type: text/event-stream")
            {
                streaming = true;
            } else if l.is_empty() {
                break;
            }
            continue;
        }
        if let Some(name) = l.strip_prefix("event: ") {
            event = Some(name.to_owned());
        } else if let Some(data) = l.strip_prefix("data: ") {
            match event.take().as_deref() {
                None => {
                    let token = Json::parse(data)
                        .ok()
                        .and_then(|d| d.get("token")?.as_usize());
                    if let Some(t) = token {
                        obs.tokens.push(t);
                        obs.token_times.push(now);
                    }
                }
                Some("done") => {
                    obs.finished += 1;
                    obs.end = Some(now);
                }
                Some(_) => {
                    obs.other_terminal += 1;
                    obs.end = Some(now);
                }
            }
        }
    }
    if obs.end.is_none() {
        // Refused, or closed without a terminal event.
        obs.other_terminal += 1;
        obs.end = Some(Instant::now());
    }
    Ok(obs)
}

/// What one gateway run produced.
pub struct GatewayRun {
    /// The timed phase (empty when only warming up).
    pub run: Run,
    /// The gateway's own report.
    pub report: GatewayReport,
    /// Streams of the warm-up requests, by index into the request set.
    pub warmup: Vec<(usize, Vec<usize>)>,
    /// TTFT of each warm-up request as its client saw it, ms.
    pub warmup_ttft_ms: Vec<f64>,
}

/// Runs one gateway: warms it up with `warmup` requests of the set
/// (through `mant_gateway::client::generate`), then, unless `seconds` is
/// `None`, runs rounds until `seconds` have passed and at least
/// `min_rounds` ran. In each round `clients` connections each send their
/// share of the set (every `clients`-th request) one after another, each
/// request as soon as the previous stream has ended; the round ends when
/// every client is through its share.
///
/// With `config.trace` on, a scraper thread reads `/metrics` every 50 ms
/// while the clients run, which drains the per-thread trace rings into
/// the gateway's collector before they can overflow.
#[allow(clippy::too_many_arguments)]
pub fn run(
    model: &TransformerModel,
    packed: &PackedWeights,
    config: GatewayConfig,
    set: &[GenRequest],
    warmup: usize,
    clients: usize,
    seconds: Option<f64>,
    min_rounds: usize,
) -> std::io::Result<GatewayRun> {
    let traced = config.trace;
    let ((warm, run), report) = mant_gateway::serve(model, packed, config, |gw| {
        let addr = gw.addr();
        let warm: Vec<(usize, client::StreamOutcome)> = (0..warmup.min(set.len()))
            .map(|i| {
                let _s = mant_trace::span("bench.client_generate");
                (
                    i,
                    client::generate(addr, &body(&set[i])).expect("warm-up request"),
                )
            })
            .collect();
        let run = seconds.map(|seconds| rounds(addr, set, clients, seconds, min_rounds, traced));
        (warm, run)
    })?;
    let warmup_ttft_ms = warm
        .iter()
        .filter_map(|(_, o)| o.ttft.map(|t| t.as_secs_f64() * 1e3))
        .collect();
    Ok(GatewayRun {
        run: run.unwrap_or(Run {
            obs: Vec::new(),
            rounds: Vec::new(),
            tick_ms: Vec::new(),
            violations: Vec::new(),
        }),
        report,
        warmup: warm.into_iter().map(|(i, o)| (i, o.tokens)).collect(),
        warmup_ttft_ms,
    })
}

/// The timed rounds of [`run`]. The clients and this thread meet at a
/// barrier before and after every round; this thread decides before each
/// round whether it is the last.
fn rounds(
    addr: SocketAddr,
    set: &[GenRequest],
    clients: usize,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> Run {
    let barrier = Barrier::new(clients + 1);
    let stop = AtomicBool::new(false);
    let mut run = Run {
        obs: Vec::new(),
        rounds: Vec::new(),
        tick_ms: Vec::new(),
        violations: Vec::new(),
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut mine: Vec<Vec<Obs>> = Vec::new();
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return mine;
                        }
                        let pass = (c..set.len())
                            .step_by(clients)
                            .map(|i| generate_timed(addr, &set[i], i).expect("loopback I/O"))
                            .collect();
                        mine.push(pass);
                        barrier.wait();
                    }
                })
            })
            .collect();
        let scraper = traced.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _ = client::get(addr, "/metrics");
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        });
        let t0 = Instant::now();
        let mut walls = Vec::new();
        loop {
            let last = t0.elapsed().as_secs_f64() >= seconds && walls.len() >= min_rounds;
            stop.store(last, Ordering::SeqCst);
            barrier.wait();
            if last {
                break;
            }
            let start = Instant::now();
            barrier.wait();
            walls.push(start.elapsed());
        }
        let mut per_client: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread").into_iter())
            .collect();
        if let Some(s) = scraper {
            s.join().expect("scraper thread");
        }
        for _ in &walls {
            for passes in &mut per_client {
                run.obs
                    .extend(passes.next().expect("every client runs every round"));
            }
        }
        run.rounds = walls;
    });
    run
}
