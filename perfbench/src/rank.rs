//! The ranking workloads: an MXG2 file on disk to scores and the top 10.
//!
//! A run repeats rounds until its time budget is spent. Each round sets up
//! once (load, then build) and solves a few times on what it set up; the
//! first round is a discarded warm-up. In a traced run every other round
//! records spans, so the untraced rounds beside them measure the tracing
//! overhead, and traced rounds also call the build's stages, the checkpoint
//! format and (on `rank-seedheavy`) the supervised runner one by one.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mixen_algos::{pagerank, pagerank_supervised, pagerank_supervised_resume, top_k, PageRankOpts};
use mixen_core::{
    BlockedSubgraph, FilteredGraph, MixenEngine, MixenOpts, PerfModel, RobustRunner, RunnerOpts,
};
use mixen_graph::io::graph_checksum;
use mixen_graph::{nid, Checkpoint, Classification, Graph, NodeId};

use crate::check::{bit_identical, compare, same_set, SCORE_TOL};
use crate::metrics::{Outcome, Values};
use crate::stats::{median, quantile, spread, tail, tail_pct};
use crate::trace::Tracer;
use crate::{peak_rss_mb, read_f32, Inputs, Meta, RunSpec, Workload};

/// Measured rounds a run makes at least, whatever its time budget.
const MIN_ROUNDS: usize = 3;
/// Bounds on solves per round: a round's mean averages at least three.
const MIN_SOLVES_PER_ROUND: usize = 3;
const MAX_SOLVES_PER_ROUND: usize = 32;
/// Top-k size every ranking reports.
const K: usize = 10;
/// Iterations the supervised probe checkpoints before it stops and resumes.
const CKPT_SPLIT: usize = 10;

/// Per-run samples, keyed by metric or span name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, key: &'static str, v: f64) {
        self.0.entry(key).or_default().push(v);
    }

    fn all(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn median(&self, key: &str) -> f64 {
        median(self.all(key))
    }
}

fn runner_opts(checkpoint: Option<&Path>) -> RunnerOpts {
    RunnerOpts {
        checkpoint_path: checkpoint.map(Path::to_path_buf),
        checkpoint_every: 1,
        fingerprint_extra: mixen_algos::pagerank_fingerprint_extra(&PageRankOpts::default()),
        ..RunnerOpts::default()
    }
}

/// Scores of an uninterrupted supervised run: what the supervised probe's
/// resumed run must reproduce bit for bit.
fn uninterrupted_supervised(g: &Graph, iters: usize) -> Result<Vec<f32>, String> {
    let runner = RobustRunner::new(runner_opts(None));
    pagerank_supervised(g, &runner, PageRankOpts::default(), iters)
        .map(|(scores, _)| scores)
        .map_err(|f| format!("supervised reference run failed: {}", f.error))
}

/// What one solve hands back for checking and per-layer accounting.
struct Solved {
    scores: Vec<f32>,
    top: Vec<usize>,
}

/// PageRank on a built engine, as `pagerank` computes it, but through
/// `iterate_with_stats` so the phase split is visible. Used by traced
/// rounds only.
fn pagerank_with_stats(
    g: &Graph,
    engine: &MixenEngine,
    iters: usize,
) -> (Vec<f32>, mixen_core::PhaseStats) {
    let opts = PageRankOpts::default();
    let n = g.n().max(1) as f32;
    let d = opts.damping;
    let base = (1.0 - d) / n;
    let out_deg: Vec<u32> = (0..nid(g.n()))
        .map(|v| nid(g.out_degree(v).max(1)))
        .collect();
    let in_zero: Vec<bool> = (0..nid(g.n())).map(|v| g.in_degree(v) == 0).collect();
    let init = |v: NodeId| {
        let rank0 = if in_zero[v as usize] { base } else { 1.0 / n };
        rank0 / out_deg[v as usize] as f32
    };
    let apply = |v: NodeId, sum: f32| (base + d * sum) / out_deg[v as usize] as f32;
    let (vals, stats) = engine.iterate_with_stats::<f32, _, _>(init, apply, iters);
    let scores = vals
        .iter()
        .zip(&out_deg)
        .map(|(&p, &odeg)| p * odeg as f32)
        .collect();
    (scores, stats)
}

/// One engine solve: PageRank for `iters` iterations, then the top 10.
fn solve(t: &mut Tracer, g: &Graph, engine: &MixenEngine, iters: usize, s: &mut Samples) -> Solved {
    let pool0 = mixen_pool::stats();
    let bins0 = engine.metrics().bin_bytes_streamed.get();
    let scores = if t.enabled() {
        let t0 = Instant::now();
        let (scores, phases) = t.span("core.engine.iterate", |_| {
            pagerank_with_stats(g, engine, iters)
        });
        // What the PageRank driver spends outside the engine's phases:
        // degree arrays, seed flags and the final score scaling.
        s.push(
            "driver",
            t0.elapsed().as_secs_f64()
                - phases.main_seconds()
                - phases.pre_seconds
                - phases.post_seconds,
        );
        s.push("pre", phases.pre_seconds);
        s.push("scatter", phases.scatter_seconds);
        s.push("gather", phases.gather_seconds);
        s.push("post", phases.post_seconds);
        scores
    } else {
        pagerank(g, engine, PageRankOpts::default(), iters)
    };
    let top = t.span("algos.top_k", |_| top_k(&scores, K));
    if t.enabled() {
        let pool1 = mixen_pool::stats();
        s.push(
            "pool.tasks",
            (pool1.tasks_executed - pool0.tasks_executed) as f64,
        );
        s.push("pool.steals", (pool1.steals - pool0.steals) as f64);
        let bins = engine.metrics().bin_bytes_streamed.get() - bins0;
        s.push("bins.bytes_per_iter", bins as f64 / iters.max(1) as f64);
    }
    Solved { scores, top }
}

/// The supervised runner on the round's graph: checkpoint after every
/// iteration up to `CKPT_SPLIT`, then resume from the last checkpoint up to
/// `iters`, then the top 10. The resumed scores must equal `want` bit for
/// bit.
fn supervised_probe(
    t: &mut Tracer,
    g: &Graph,
    ckpt: &Path,
    iters: usize,
    want: &[f32],
    s: &mut Samples,
) -> Result<(), String> {
    let _ = std::fs::remove_file(ckpt);
    let runner = RobustRunner::new(runner_opts(Some(ckpt)));
    let opts = PageRankOpts::default();
    let t0 = Instant::now();
    let (first, resumed, scores) = t.span("core.runner.solve", |t| {
        let (_, first) = t.span("core.runner.run", |_| {
            pagerank_supervised(g, &runner, opts, CKPT_SPLIT)
                .map_err(|f| format!("supervised run failed: {}", f.error))
        })?;
        let (scores, resumed) = t.span("core.runner.resume", |_| {
            pagerank_supervised_resume(g, &runner, opts, iters)
                .map_err(|f| format!("resume failed: {}", f.error))
        })?;
        std::hint::black_box(top_k(&scores, K));
        Ok::<_, String>((first, resumed, scores))
    })?;
    s.push("runner.solve", t0.elapsed().as_secs_f64());
    let _ = std::fs::remove_file(ckpt);
    let both = [&first, &resumed];
    let sum = |f: &dyn Fn(&mixen_core::RunReport) -> f64| both.iter().map(|r| f(r)).sum::<f64>();
    s.push("reentries", sum(&|r| r.batch_reentries as f64));
    s.push(
        "reentry_s",
        sum(&|r| r.reentry_pre_seconds + r.reentry_post_seconds),
    );
    s.push(
        "ckpts",
        sum(&|r| r.metrics.get("checkpoints_written") as f64),
    );
    s.push(
        "ckpt_bytes",
        sum(&|r| r.metrics.get("checkpoint_bytes") as f64),
    );
    if !bit_identical(&scores, want) {
        return Err("resumed scores differ from the uninterrupted supervised run".into());
    }
    Ok(())
}

/// What a round set up.
struct Built {
    g: Graph,
    engine: MixenEngine,
}

fn setup(t: &mut Tracer, path: &Path) -> Result<Built, String> {
    t.span("setup", |t| {
        let g = t
            .span("graph.io.load", |_| mixen_graph::io::load(path))
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let engine = t.span("core.engine.build", |_| {
            MixenEngine::new(&g, MixenOpts::default())
        });
        Ok(Built { g, engine })
    })
}

/// The engine build's stages, called one by one through their public
/// functions so each has its own span (traced rounds only; outside the
/// timed setup).
fn stage_probes(t: &mut Tracer, g: &Graph) {
    let opts = MixenOpts::default();
    t.span("stages", |t| {
        let class = t.span("graph.classify", |_| Classification::of(g));
        let filtered = t.span("core.filter.relabel", |_| {
            FilteredGraph::from_classification(g, &class, opts.ordering)
        });
        let blocked = t.span("core.block.partition", |_| {
            BlockedSubgraph::with_hub_domain(
                filtered.reg_csr(),
                &opts,
                mixen_pool::current_num_threads(),
                filtered.num_hub(),
            )
        });
        std::hint::black_box(blocked.nnz());
    });
}

/// Checkpoint save and load on the workload's score vector.
fn checkpoint_probes(t: &mut Tracer, scores: &[f32], path: &Path) -> Result<u64, String> {
    let ck = Checkpoint::from_values(CKPT_SPLIT as u64, 0.0, 0, 0, scores);
    t.span("graph.ckpt.save", |_| ck.save_atomic(path))
        .map_err(|e| format!("checkpoint save: {e}"))?;
    let back = t
        .span("graph.ckpt.load", |_| Checkpoint::load(path))
        .map_err(|e| format!("checkpoint load: {e}"))?;
    if back.values::<f32>().map_err(|e| e.to_string())? != scores {
        return Err("checkpoint round trip changed the scores".into());
    }
    Ok(ck.encoded_len())
}

/// What a run's rounds collected.
struct Measured {
    tracer: Tracer,
    outcome: Outcome,
    /// Untraced samples: the end-to-end metrics, and the untraced side of
    /// the tracing overhead.
    plain: Samples,
    /// Samples of traced rounds: the per-layer metrics.
    traced: Samples,
    facts: Option<EngineFacts>,
    ckpt_bytes: u64,
    /// Scores of an uninterrupted supervised run, once the supervised
    /// probe has needed them.
    uninterrupted: Option<Vec<f32>>,
}

/// The reference a ranking is checked against.
struct References {
    scores: Vec<f32>,
    top: Vec<usize>,
}

impl References {
    /// Checks a solve's scores and top 10 against the reference.
    fn check(&self, solved: &Solved) -> Result<(), String> {
        compare(&solved.scores, &self.scores, SCORE_TOL)?;
        if !same_set(&solved.top, &self.top) {
            return Err(format!(
                "top-{K} {:?} differs from reference {:?}",
                solved.top, self.top
            ));
        }
        Ok(())
    }
}

/// Repeats rounds (one set-up, then a few solves on it) until the budget
/// is spent. Round 0 is a discarded warm-up; in a traced run odd rounds
/// are traced and even ones are not.
fn measure(
    spec: &RunSpec,
    inputs: &Inputs,
    iters: usize,
    refs: &References,
) -> Result<Measured, String> {
    let path = inputs.graph();
    let ckpt = inputs.scratch("run.ckpt");
    let probe_ckpt = inputs.scratch("probe.ckpt");
    let mut m = Measured {
        tracer: Tracer::new(false),
        outcome: Outcome::default(),
        plain: Samples::default(),
        traced: Samples::default(),
        facts: None,
        ckpt_bytes: 0,
        uninterrupted: None,
    };
    let t = &mut m.tracer;
    let need = if spec.traced {
        MIN_ROUNDS + 1
    } else {
        MIN_ROUNDS
    };
    let mut solves_per_round = 1;
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        let warmup = round == 0;
        let tracing = spec.traced && round % 2 == 1;
        t.set_enabled(tracing);
        let t0 = Instant::now();
        let built = setup(t, &path)?;
        let setup_s = t0.elapsed().as_secs_f64();
        m.outcome.record(Ok(()));
        let s = if tracing { &mut m.traced } else { &mut m.plain };
        if !warmup {
            s.push("setup", setup_s);
        }
        let (mut last_scores, mut solve_sum_s) = (Vec::new(), 0.0);
        for _ in 0..solves_per_round {
            let t1 = Instant::now();
            let solved = t.span("solve", |t| solve(t, &built.g, &built.engine, iters, s));
            solve_sum_s += t1.elapsed().as_secs_f64();
            m.outcome.record(refs.check(&solved));
            last_scores = solved.scores;
        }
        // A solve sample is the mean over the round's solves: single solves
        // are bimodal on two lanes (an engine build or relabel takes either
        // about 0.1 s or about 0.3 s), and a median of single solves jumps
        // between the modes from run to run.
        let solve_s = solve_sum_s / solves_per_round as f64;
        if warmup {
            // Spend about three times as long solving as setting up.
            solves_per_round = ((3.0 * setup_s / solve_s.max(1e-3)).ceil() as usize)
                .clamp(MIN_SOLVES_PER_ROUND, MAX_SOLVES_PER_ROUND);
        } else {
            s.push("solve", solve_s);
        }
        if tracing {
            stage_probes(t, &built.g);
            m.facts = Some(EngineFacts::of(&built.engine));
            m.ckpt_bytes = checkpoint_probes(t, &last_scores, &probe_ckpt)?;
            t.span("graph.io.checksum", |_| graph_checksum(&built.g));
            if spec.workload == Workload::RankSeedheavy {
                if m.uninterrupted.is_none() {
                    m.uninterrupted = Some(uninterrupted_supervised(&built.g, iters)?);
                }
                let want = m.uninterrupted.as_deref().unwrap_or_default();
                let verdict = supervised_probe(t, &built.g, &ckpt, iters, want, &mut m.traced);
                m.outcome.record(verdict);
            }
        }
        drop(built);
        round += 1;
        // Stop once the minimum is met and another round of the average
        // length would overrun the budget (the warm-up counts towards it).
        let elapsed = started.elapsed().as_secs_f64();
        if round > need && elapsed + elapsed / round as f64 > spec.seconds {
            break;
        }
    }
    let _ = std::fs::remove_file(&probe_ckpt);
    eprintln!(
        "[run] {:?}: {} measured rounds x {solves_per_round} solves in {:.1}s; \
         tail is p{} of the untraced round means",
        spec.workload,
        round - 1,
        started.elapsed().as_secs_f64(),
        tail_pct(m.plain.all("solve").len())
    );
    for key in ["setup", "solve"] {
        let xs = m.plain.all(key);
        eprintln!(
            "[run] untraced {key} s over rounds: min {:.4} p25 {:.4} median {:.4} p75 {:.4} max {:.4}",
            quantile(xs, 0.0),
            quantile(xs, 0.25),
            quantile(xs, 0.5),
            quantile(xs, 0.75),
            quantile(xs, 1.0)
        );
    }
    Ok(m)
}

pub fn run(spec: &RunSpec, inputs: &Inputs) -> Result<(Outcome, Values), String> {
    let meta = Meta::read(&inputs.meta())?;
    if meta.lanes != mixen_pool::current_num_threads() {
        return Err(format!(
            "references were computed at {} lanes, this run has {}",
            meta.lanes,
            mixen_pool::current_num_threads()
        ));
    }
    let scores = read_f32(&inputs.reference())?;
    let refs = References {
        top: top_k(&scores, K),
        scores,
    };
    let m = measure(spec, inputs, meta.iters, &refs)?;
    let mut v = Values::default();
    if spec.traced {
        per_layer(spec, inputs, &meta, &m, &mut v)?;
        std::fs::write(&spec.trace_out, m.tracer.to_json_lines())
            .map_err(|e| format!("write {}: {e}", spec.trace_out.display()))?;
    } else {
        let solves = m.plain.all("solve");
        v.set("setup_s", m.plain.median("setup"));
        v.set("solve_s", median(solves));
        v.set("op_p50_ms", median(solves) * 1e3);
        v.set("op_tail_ms", tail(solves) * 1e3);
        v.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok((m.outcome, v))
}

/// Per-layer metrics from a traced run: span self times, phase splits and
/// counters, and how much of `setup_s` and `solve_s` they account for.
fn per_layer(
    spec: &RunSpec,
    inputs: &Inputs,
    meta: &Meta,
    m: &Measured,
    v: &mut Values,
) -> Result<(), String> {
    let (workload, iters) = (spec.workload, meta.iters as f64);
    let (plain, traced) = (&m.plain, &m.traced);
    let own = m.tracer.self_seconds();
    let span = |name: &str| own.get(name).map_or(&[][..], Vec::as_slice);
    let med = |name: &str| median(span(name));
    for (metric, name) in [
        ("graph.io.load_s", "graph.io.load"),
        ("graph.classify_s", "graph.classify"),
        ("core.filter.relabel_s", "core.filter.relabel"),
        ("core.block.partition_s", "core.block.partition"),
        ("core.engine.build_s", "core.engine.build"),
    ] {
        v.set(metric, med(name));
    }
    for (metric, name) in [
        ("graph.io.load_s.spread", "graph.io.load"),
        ("core.filter.relabel_s.spread", "core.filter.relabel"),
        ("core.block.partition_s.spread", "core.block.partition"),
        ("core.engine.build_s.spread", "core.engine.build"),
    ] {
        v.set(metric, spread(span(name)));
    }
    let file_mb = std::fs::metadata(inputs.graph())
        .map_err(|e| e.to_string())?
        .len() as f64
        / 1e6;
    v.set("graph.io.load_mbps", file_mb / med("graph.io.load"));
    v.set("graph.io.checksum_ms", med("graph.io.checksum") * 1e3);

    let phases = ["pre", "scatter", "gather", "post"].map(|p| traced.median(p));
    let main_s = phases[1] + phases[2];
    v.set("core.engine.pre_s", phases[0]);
    v.set("core.engine.scatter_s", phases[1]);
    v.set("core.engine.gather_s", phases[2]);
    v.set("core.engine.post_s", phases[3]);
    v.set("core.engine.iter_ms", main_s / iters * 1e3);
    v.set("core.engine.driver_s", traced.median("driver"));
    v.set(
        "core.bins.bytes_per_iter",
        traced.median("bins.bytes_per_iter"),
    );
    if let Some(f) = m.facts {
        v.set("core.filter.alpha", f.alpha);
        v.set("core.filter.beta", f.beta);
        v.set("core.block.tasks_split", f.tasks_split as f64);
        v.set("core.block.max_task_nnz", f.max_task_nnz as f64);
        v.set("core.model.bytes_per_iter", f.model_bytes_per_iter);
        v.set(
            "core.bins.gbps",
            f.model_bytes_per_iter * iters / main_s / 1e9,
        );
    }
    v.set("pool.tasks", traced.median("pool.tasks"));
    v.set("pool.steals", traced.median("pool.steals"));
    v.set("algos.top_k_ms", med("algos.top_k") * 1e3);
    v.set("baselines.pull_1lane_solve_s", meta.pull_solve_s);
    v.set(
        "core.engine.speedup_vs_pull",
        meta.pull_solve_s / plain.median("solve"),
    );
    v.set("graph.ckpt.save_ms", med("graph.ckpt.save") * 1e3);
    v.set("graph.ckpt.load_ms", med("graph.ckpt.load") * 1e3);
    v.set("graph.ckpt.bytes", m.ckpt_bytes as f64);

    if workload == Workload::RankSeedheavy {
        v.set("core.runner.solve_s", traced.median("runner.solve"));
        v.set("core.runner.reentries", traced.median("reentries"));
        v.set("core.runner.reentry_s", traced.median("reentry_s"));
        v.set("graph.ckpt.checkpoints_written", traced.median("ckpts"));
        v.set("graph.ckpt.checkpoint_bytes", traced.median("ckpt_bytes"));
    }
    let setup_parts = [
        "graph.io.load",
        "graph.classify",
        "core.filter.relabel",
        "core.block.partition",
    ]
    .iter()
    .map(|n| med(n))
    .sum::<f64>();
    let solve_parts = phases.iter().sum::<f64>() + med("algos.top_k");
    v.set(
        "trace.setup_accounted_frac",
        setup_parts / plain.median("setup"),
    );
    v.set(
        "trace.solve_accounted_frac",
        solve_parts / plain.median("solve"),
    );
    let e2e = |s: &Samples| s.median("setup") + s.median("solve");
    v.set("trace.overhead_frac", e2e(traced) / e2e(plain) - 1.0);
    v.set("trace.self.setup_s", med("setup"));
    v.set("trace.self.solve_s", med("solve"));
    v.set(
        "trace.spans",
        own.values().map(Vec::len).sum::<usize>() as f64,
    );
    v.set("fail_frac", m.outcome.fail_frac());
    Ok(())
}

/// Shape facts of a built engine.
#[derive(Clone, Copy)]
struct EngineFacts {
    alpha: f64,
    beta: f64,
    tasks_split: u64,
    max_task_nnz: u64,
    model_bytes_per_iter: f64,
}

impl EngineFacts {
    fn of(engine: &MixenEngine) -> Self {
        let f = engine.filtered();
        let split = engine.blocked().split_stats();
        Self {
            alpha: f.alpha(),
            beta: f.beta(),
            tasks_split: split.tasks_split(),
            max_task_nnz: split.max_task_nnz(),
            model_bytes_per_iter: PerfModel::from_filtered(f, engine.blocked().block_side())
                .mixen_traffic_bytes(4),
        }
    }
}
