//! `serve-steady`: request in to response out, against an in-process
//! server whose ranking has converged.
//!
//! The run starts the server a few times (each start is one set-up sample,
//! and the wait until its ranking converges one solve sample), keeps the
//! last one, and drives it with an open-loop Poisson stream from two
//! sender threads: a request is sent when it is due, or as soon as a sender
//! is free, and its latency counts from when it was due.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mixen_algos::top_k;
use mixen_core::Json;
use mixen_graph::Graph;
use mixen_serve::{ServeOpts, Server, ServerHandle};

use crate::check::SCORE_TOL;
use crate::metrics::{Outcome, Values};
use crate::rng::{poisson_schedule, Planned};
use crate::stats::{median, quantile, samples_needed, tail};
use crate::trace::Tracer;
use crate::{peak_rss_mb, read_f32, Inputs, Meta, RunSpec};

/// Requests per second of the open-loop stream: far below saturation, yet
/// enough requests within the run for ten beyond p99. A sender is busy about
/// 2 ms per request, so about 1.5% of requests are due while both are busy
/// and go out late; `loadgen.busy_frac` reports that share.
const RATE: f64 = 80.0;
/// Timed requests a run collects at least: a quarter above the 1000 that
/// p99 needs to have ten samples beyond it.
const MIN_TIMED: f64 = 1250.0;
/// Share of `/score` requests; the rest are `/rank/top?k=10`.
const SCORE_SHARE: f64 = 0.75;
/// Sender threads, so at most this many requests are in flight.
const SENDERS: usize = 2;
/// Leading seconds of the stream that are sent and checked but not timed.
const WARMUP_S: f64 = 1.0;
/// Server starts per run at most; the first is a discarded warm-up.
const STARTS: usize = 8;
/// Server starts per run at least, so that two set-up samples remain.
const MIN_STARTS: usize = 3;
/// The p99 latency limit recorded with the workload.
const P99_LIMIT_MS: f64 = 25.0;
/// Top-k size of `/rank/top`.
const K: usize = 10;
/// How long a started server may take to publish its converged snapshot.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP exchange with its timestamps (what `mixen_serve::http_request`
/// does, timed step by step).
struct Exchange {
    started: Instant,
    connected: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
    status: u16,
    body: String,
}

fn exchange(t: &mut Tracer, addr: SocketAddr, path: &str) -> std::io::Result<Exchange> {
    let started = Instant::now();
    let mut stream = t.span("serve.connect", |_| TcpStream::connect(addr))?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    t.span("serve.write", |_| stream.write_all(request.as_bytes()))?;
    let written = Instant::now();
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let got = t.span("serve.first_byte", |_| stream.read(&mut buf))?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&buf[..got]);
    t.span("serve.read", |_| -> std::io::Result<()> {
        if got > 0 {
            stream.read_to_end(&mut raw)?;
        }
        Ok(())
    })?;
    let done = Instant::now();
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Exchange {
        started,
        connected,
        written,
        first_byte,
        done,
        status,
        body,
    })
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let ex =
        exchange(&mut Tracer::new(false), addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if ex.status != 200 {
        return Err(format!("GET {path}: status {}", ex.status));
    }
    Json::parse(&ex.body).map_err(|e| format!("GET {path}: {e}"))
}

/// Starts the server once on `g` and polls `/healthz` until it reports its
/// ranking converged. Returns the `iterations` and `snapshot_version` it
/// reports then: the reference is computed at those iterations, and each
/// run waits for that version.
pub fn converged_snapshot(g: Arc<Graph>) -> Result<(usize, u64), String> {
    let handle =
        Server::start(g, ServeOpts::default()).map_err(|e| format!("server start: {e}"))?;
    let started = Instant::now();
    let found = loop {
        let health = match get_json(handle.addr(), "/healthz") {
            Ok(health) => health,
            Err(e) => break Err(e),
        };
        if health.get("converged") == Some(&Json::Bool(true)) {
            let num = |key: &str| health.get(key).and_then(Json::as_u64);
            break match (num("iterations"), num("snapshot_version")) {
                (Some(iters), Some(version)) => Ok((iters as usize, version)),
                _ => Err("/healthz lacks iterations or snapshot_version".into()),
            };
        }
        if started.elapsed() > CONVERGE_TIMEOUT {
            break Err(format!(
                "ranking did not converge within {CONVERGE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    handle.shutdown_and_join();
    found
}

fn counter(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// One request of the stream, as sent.
struct Sample {
    plan: Planned,
    due: Instant,
    traced: bool,
    inflight: usize,
    result: std::io::Result<Exchange>,
}

/// Sends `plan` open-loop from `SENDERS` threads. Requests are taken in
/// order; each waits for its due time, or is sent late if both senders
/// were busy.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    traced: bool,
    origin: Instant,
) -> (Vec<Sample>, Tracer) {
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let per_sender: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|_| {
                let (next, inflight) = (&next, &inflight);
                scope.spawn(move || {
                    let mut t = Tracer::with_origin(false, origin);
                    let mut out = Vec::new();
                    loop {
                        // ordering: a work index; no other data is published.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&p) = plan.get(i) else { break };
                        let due = start + Duration::from_secs_f64(p.due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        // Every other request is traced in a traced run;
                        // the rest measure the overhead.
                        let traced = traced && i % 2 == 0;
                        t.set_enabled(traced);
                        // ordering: a statistic.
                        let level = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                        let path = match p.score_node {
                            Some(node) => format!("/score?node={node}"),
                            None => format!("/rank/top?k={K}"),
                        };
                        let result = t.span("loadgen.request", |t| exchange(t, addr, &path));
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        out.push(Sample {
                            plan: p,
                            due,
                            traced,
                            inflight: level,
                            result,
                        });
                    }
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(plan.len());
    let mut tracer = Tracer::with_origin(false, origin);
    for (s, t) in per_sender {
        samples.extend(s);
        tracer.absorb(t);
    }
    samples.sort_by(|a, b| a.plan.due_s.total_cmp(&b.plan.due_s));
    (samples, tracer)
}

/// Checks one response body against the reference ranking.
fn check_body(
    body: &str,
    plan: &Planned,
    version: u64,
    meta: &Meta,
    reference: &[f32],
    ref_top: &[usize],
) -> Result<(), String> {
    let json = Json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    let num = |key: &str| json.get(key).and_then(Json::as_u64);
    if num("snapshot_version") != Some(version) {
        return Err(format!(
            "answered from snapshot {:?}, expected {version}",
            num("snapshot_version")
        ));
    }
    if num("iterations") != Some(meta.iters as u64)
        || json.get("converged") != Some(&Json::Bool(true))
    {
        return Err(format!("snapshot not the converged one: {body}"));
    }
    let score_ok = |node: u64, score: Option<f64>| -> Result<(), String> {
        let want = reference
            .get(usize::try_from(node).unwrap_or(usize::MAX))
            .ok_or_else(|| format!("node {node} out of range"))?;
        match score {
            Some(got) if SCORE_TOL.accepts(got, f64::from(*want)) => Ok(()),
            _ => Err(format!("node {node}: score {score:?}, reference {want:e}")),
        }
    };
    match plan.score_node {
        Some(node) => {
            if num("node") != Some(node) {
                return Err(format!("asked for node {node}, got {:?}", num("node")));
            }
            score_ok(node, json.get("score").and_then(Json::as_f64))
        }
        None => {
            let Some(Json::Arr(nodes)) = json.get("nodes") else {
                return Err("rank/top without a nodes array".into());
            };
            let mut ids = Vec::with_capacity(nodes.len());
            for entry in nodes {
                let node = entry
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or("entry without node")?;
                score_ok(node, entry.get("score").and_then(Json::as_f64))?;
                ids.push(node as usize);
            }
            if !crate::check::same_set(&ids, ref_top) {
                return Err(format!(
                    "top-{K} {ids:?} differs from reference {ref_top:?}"
                ));
            }
            Ok(())
        }
    }
}

/// One server start: load the file, start the server, wait until its
/// ranking has published the converged snapshot.
struct Started {
    handle: ServerHandle,
    load_s: f64,
    start_s: f64,
    converge_s: f64,
}

fn start_server(t: &mut Tracer, inputs: &Inputs, target_version: u64) -> Result<Started, String> {
    let path = inputs.graph();
    let (handle, load_s, start_s) = t.span("setup", |t| -> Result<_, String> {
        let t0 = Instant::now();
        let g = t
            .span("graph.io.load", |_| mixen_graph::io::load(&path))
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let t1 = Instant::now();
        let handle = t
            .span("serve.start", |_| {
                Server::start(Arc::new(g), ServeOpts::default())
            })
            .map_err(|e| format!("server start: {e}"))?;
        Ok((handle, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64()))
    })?;
    let started = Instant::now();
    while handle.snapshot_version() < target_version {
        if started.elapsed() > CONVERGE_TIMEOUT {
            handle.shutdown_and_join();
            return Err(format!(
                "ranking did not reach snapshot {target_version} within {CONVERGE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Started {
        handle,
        load_s,
        start_s,
        converge_s: started.elapsed().as_secs_f64(),
    })
}

/// The p99 latency limit: while the p99 of `lat_ms` stays within
/// `limit_ms` no request breaks it; once the p99 does not, every request
/// over the limit does. Returns, per request, whether it broke the limit.
fn over_limit(lat_ms: &[f64], limit_ms: f64) -> Vec<bool> {
    let broken = quantile(lat_ms, 0.99) > limit_ms;
    lat_ms.iter().map(|&ms| broken && ms > limit_ms).collect()
}

pub fn run(spec: &RunSpec, inputs: &Inputs) -> Result<(Outcome, Values), String> {
    let meta = Meta::read(&inputs.meta())?;
    let reference = read_f32(&inputs.reference())?;
    let ref_top = top_k(&reference, K);
    let target_version = meta.version;
    let origin = Instant::now();
    let mut t = Tracer::with_origin(false, origin);
    let mut outcome = Outcome::default();

    // Set-up samples: every start but the first; the last server stays up.
    // Starts stop early when one more would leave the request window less
    // than the time its MIN_TIMED requests take.
    let start_budget_s = spec.seconds - WARMUP_S - MIN_TIMED / RATE;
    let (mut setups, mut converges, mut loads, mut starts) = (vec![], vec![], vec![], vec![]);
    let mut server = None;
    for i in 0..STARTS {
        let elapsed = origin.elapsed().as_secs_f64();
        if i >= MIN_STARTS && elapsed + elapsed / i as f64 > start_budget_s {
            break;
        }
        if let Some(Started { handle, .. }) = server.take() {
            handle.shutdown_and_join();
        }
        t.set_enabled(spec.traced);
        let s = start_server(&mut t, inputs, target_version)?;
        outcome.record(Ok(()));
        if i > 0 {
            setups.push(s.load_s + s.start_s);
            converges.push(s.converge_s);
            loads.push(s.load_s);
            starts.push(s.start_s);
        }
        server = Some(s);
    }
    t.set_enabled(false);
    let Started { handle, .. } = server.expect("at least one start");
    let addr = handle.addr();

    let n = reference.len() as u64;
    let before = get_json(addr, "/metrics")?;
    let health = get_json(addr, "/healthz")?;
    if health.get("converged") != Some(&Json::Bool(true)) {
        handle.shutdown_and_join();
        return Err(format!("server not converged at snapshot {target_version}"));
    }
    // The starts count towards the budget and the window gets the rest. It
    // outlasts the budget only when even MIN_STARTS starts overran theirs,
    // since p99 needs its MIN_TIMED requests.
    let window_s = (spec.seconds - origin.elapsed().as_secs_f64() - WARMUP_S).max(MIN_TIMED / RATE);
    let plan = poisson_schedule(spec.seed, RATE, WARMUP_S + window_s, SCORE_SHARE, n);
    let (samples, request_trace) = drive(addr, &plan, spec.traced, origin);
    let after = get_json(addr, "/metrics")?;
    handle.shutdown_and_join();
    t.absorb(request_trace);

    let swaps = counter(&after, "snapshot_swaps") - counter(&before, "snapshot_swaps");
    if swaps != 0.0 {
        return Err(format!("{swaps} snapshot swaps inside the timed window"));
    }

    // Latency from due time to last byte; a failed request counts as
    // infinitely late, so it misses every limit. `lat_of[j]` is the sample
    // whose latency is `lat_ms[j]`.
    let (mut verdicts, mut lat_ms, mut lat_of) = (vec![], vec![], vec![]);
    let (mut lat_traced, mut lat_plain, mut lag_ms) = (vec![], vec![], vec![]);
    let (mut connect_ms, mut ttfb_ms, mut score_ms, mut top_ms) = (vec![], vec![], vec![], vec![]);
    let (mut inflight_max, mut busy) = (0usize, 0usize);
    for (i, s) in samples.iter().enumerate() {
        let timed = s.plan.due_s >= WARMUP_S;
        let verdict = match &s.result {
            Err(e) => Err(format!("request failed: {e}")),
            Ok(ex) if ex.status != 200 => Err(format!("status {}", ex.status)),
            Ok(ex) => check_body(
                &ex.body,
                &s.plan,
                target_version,
                &meta,
                &reference,
                &ref_top,
            ),
        };
        let ok = verdict.is_ok();
        verdicts.push(verdict);
        if !timed {
            continue;
        }
        inflight_max = inflight_max.max(s.inflight);
        // Requests still in flight when this one fell due (the stream is
        // sorted by due time, and none is sent before it is due).
        let in_flight = samples[..i]
            .iter()
            .filter(|p| {
                p.result
                    .as_ref()
                    .is_ok_and(|ex| ex.started <= s.due && ex.done > s.due)
            })
            .count();
        if in_flight >= SENDERS {
            busy += 1;
        }
        lat_of.push(i);
        let Ok(ex) = &s.result else {
            lat_ms.push(f64::INFINITY);
            continue;
        };
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        let op = if ok {
            ms(s.due, ex.done)
        } else {
            f64::INFINITY
        };
        lat_ms.push(op);
        if s.traced {
            lat_traced.push(op)
        } else {
            lat_plain.push(op)
        }
        lag_ms.push(ms(s.due, ex.started));
        connect_ms.push(ms(ex.started, ex.connected));
        ttfb_ms.push(ms(ex.written, ex.first_byte));
        if s.plan.score_node.is_some() {
            score_ms.push(op)
        } else {
            top_ms.push(op)
        }
    }
    let need = samples_needed(99);
    if lat_ms.len() < need {
        return Err(format!("{} timed requests, p99 needs {need}", lat_ms.len()));
    }
    let p99_ms = quantile(&lat_ms, 0.99);
    for (j, over) in over_limit(&lat_ms, P99_LIMIT_MS).into_iter().enumerate() {
        let verdict = &mut verdicts[lat_of[j]];
        if over && verdict.is_ok() {
            *verdict = Err(format!(
                "{:.3} ms, over the {P99_LIMIT_MS} ms limit that p99 ({p99_ms:.3} ms) broke",
                lat_ms[j]
            ));
        }
    }
    for verdict in verdicts {
        outcome.record(verdict);
    }
    eprintln!(
        "[run] serve-steady: {} requests ({} timed) over {:.1}s, converged at {} iterations",
        samples.len(),
        lat_ms.len(),
        WARMUP_S + window_s,
        meta.iters
    );

    eprintln!(
        "[run] op p50 {:.3} ms, p99 {:.3} ms (limit {P99_LIMIT_MS} ms); lag p90 {:.3} ms, \
         p99 {:.3} ms; {:.2}% due with both senders busy",
        median(&lat_ms),
        p99_ms,
        quantile(&lag_ms, 0.9),
        quantile(&lag_ms, 0.99),
        busy as f64 * 100.0 / lat_ms.len() as f64
    );
    let mut v = Values::default();
    if !spec.traced {
        v.set("setup_s", median(&setups));
        v.set("solve_s", median(&converges));
        v.set("op_p50_ms", median(&lat_ms));
        v.set("op_tail_ms", tail(&lat_ms));
        v.set("peak_rss_mb", peak_rss_mb()?);
        return Ok((outcome, v));
    }
    let own = t.self_seconds();
    let span = |name: &str| own.get(name).map_or(&[][..], Vec::as_slice);
    let file_mb = std::fs::metadata(inputs.graph())
        .map_err(|e| e.to_string())?
        .len() as f64
        / 1e6;
    v.set("graph.io.load_s", median(&loads));
    v.set("graph.io.load_s.spread", crate::stats::spread(&loads));
    v.set("graph.io.load_mbps", file_mb / median(&loads));
    v.set("serve.start_s", median(&starts));
    v.set("serve.connect_ms", median(&connect_ms));
    v.set("serve.ttfb_p50_ms", median(&ttfb_ms));
    v.set("serve.ttfb_p99_ms", quantile(&ttfb_ms, 0.99));
    v.set("serve.score_p50_ms", median(&score_ms));
    v.set("serve.top_p50_ms", median(&top_ms));
    v.set(
        "serve.request_batches",
        counter(&after, "request_batches") - counter(&before, "request_batches"),
    );
    v.set("serve.max_batch_size", counter(&after, "max_batch_size"));
    v.set(
        "serve.requests_rejected",
        counter(&after, "requests_rejected") - counter(&before, "requests_rejected"),
    );
    v.set("serve.snapshot_swaps", swaps);
    v.set("serve.op_p99_ms", p99_ms);
    v.set("serve.p99_limit_ms", P99_LIMIT_MS);
    v.set("loadgen.lag_p99_ms", quantile(&lag_ms, 0.99));
    v.set("loadgen.inflight_max", inflight_max as f64);
    v.set("loadgen.busy_frac", busy as f64 / lat_ms.len() as f64);
    v.set("loadgen.rate_per_s", lat_ms.len() as f64 / window_s);
    v.set("loadgen.samples", lat_ms.len() as f64);
    v.set(
        "trace.overhead_frac",
        median(&lat_traced) / median(&lat_plain) - 1.0,
    );
    v.set("trace.self.setup_s", median(span("setup")));
    v.set("fail_frac", outcome.fail_frac());
    // The per-request top-k selection on its own, over the served scores.
    let mut top_s = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        std::hint::black_box(top_k(std::hint::black_box(&reference), K));
        top_s.push(t0.elapsed().as_secs_f64());
    }
    v.set("algos.top_k_ms", median(&top_s) * 1e3);
    v.set(
        "trace.spans",
        own.values().map(Vec::len).sum::<usize>() as f64,
    );
    std::fs::write(&spec.trace_out, t.to_json_lines()).map_err(|e| e.to_string())?;
    Ok((outcome, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_fail_the_limit_only_once_p99_breaks_it() {
        // 1000 requests, 9 of them over the limit: p99 stays within it.
        let mut lat_ms = vec![2.0; 1000];
        for ms in &mut lat_ms[..9] {
            *ms = 40.0;
        }
        assert!(over_limit(&lat_ms, 25.0).iter().all(|&over| !over));
        // 20 over the limit: p99 breaks it, and each of the 20 fails.
        for ms in &mut lat_ms[..20] {
            *ms = 40.0;
        }
        let over = over_limit(&lat_ms, 25.0);
        assert_eq!(over.iter().filter(|&&o| o).count(), 20);
        assert!(over[..20].iter().all(|&o| o));
    }

    #[test]
    fn failed_requests_count_as_over_the_limit() {
        let mut lat_ms = vec![2.0; 100];
        lat_ms[7] = f64::INFINITY;
        lat_ms[8] = f64::INFINITY;
        let over = over_limit(&lat_ms, 25.0);
        assert_eq!(over.iter().filter(|&&o| o).count(), 2);
        assert!(over[7] && over[8]);
    }
}
