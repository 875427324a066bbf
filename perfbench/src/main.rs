//! File-to-ranks and request-to-response benchmark for the Mixen crates.
//!
//! Two subcommands, each run in its own process (so the workload's peak RSS
//! excludes input generation):
//!
//! ```text
//! mixen-perfbench prepare --workload W --seed N --dir D
//! mixen-perfbench run     --workload W --seed N --seconds S --trace 0|1 --dir D
//!                         [--trace-out FILE]
//! ```
//!
//! `prepare` generates the workload's graph from the seed, writes it as an
//! MXG2 file, and computes the references the run checks against. `run`
//! measures for about `S` seconds and prints one JSON result line last on
//! stdout. `perfbench/run.py` builds this binary and drives both steps.

mod check;
mod metrics;
mod rank;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mixen_algos::{pagerank, PageRankOpts};
use mixen_baselines::PullEngine;
use mixen_graph::{Dataset, Graph, Scale};

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// weibo at `Scale::Large`, 20 iterations: filtering removes 99% of the
    /// nodes, so ingest, relabel and the Pre/Post phases dominate. Its traced
    /// runs also drive the supervised runner with checkpoints.
    RankSeedheavy,
    /// GAP R-MAT at `Scale::Large`, 100 iterations: Main-Phase
    /// scatter/gather dominates.
    RankRegular,
    /// wiki at `Scale::Medium` behind an in-process server, under an
    /// open-loop Poisson request stream once the ranking has converged.
    ServeSteady,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "rank-seedheavy" => Self::RankSeedheavy,
            "rank-regular" => Self::RankRegular,
            "serve-steady" => Self::ServeSteady,
            _ => return None,
        })
    }

    fn input(self) -> (Dataset, Scale) {
        match self {
            Self::RankSeedheavy => (Dataset::Weibo, Scale::Large),
            Self::RankRegular => (Dataset::Rmat, Scale::Large),
            Self::ServeSteady => (Dataset::Wiki, Scale::Medium),
        }
    }

    /// Fixed PageRank iteration count of a ranking workload (the paper's
    /// protocol; see README.md for why time-to-tolerance is not timed).
    /// `None` where the server's convergence test sets it instead.
    fn iters(self) -> Option<usize> {
        match self {
            Self::RankSeedheavy => Some(20),
            Self::RankRegular => Some(100),
            Self::ServeSteady => None,
        }
    }
}

/// Where a workload's prepared inputs live.
pub struct Inputs {
    dir: PathBuf,
}

impl Inputs {
    pub fn graph(&self) -> PathBuf {
        self.dir.join("graph.mxg")
    }

    /// Single-lane pull-engine scores at the workload's iteration count.
    pub fn reference(&self) -> PathBuf {
        self.dir.join("ref.f32")
    }

    pub fn meta(&self) -> PathBuf {
        self.dir.join("meta.txt")
    }

    /// Scratch path for checkpoints written during the run.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Facts `prepare` hands to `run`.
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    /// Lanes of the global pool when the references were computed.
    pub lanes: usize,
    /// Iterations the reference was computed at.
    pub iters: usize,
    /// `serve-steady`: the snapshot version at which the server reported
    /// its ranking converged (0 on the ranking workloads).
    pub version: u64,
    /// Seconds the single-lane pull engine took for those iterations.
    pub pull_solve_s: f64,
}

impl Meta {
    fn write(&self, path: &Path) -> Result<(), String> {
        let text = format!(
            "lanes {}\niters {}\nversion {}\npull_solve_s {}\n",
            self.lanes, self.iters, self.version, self.pull_solve_s
        );
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let field = |key: &str| -> Result<f64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{} lacks {key}", path.display()))
        };
        Ok(Self {
            lanes: field("lanes")? as usize,
            iters: field("iters")? as usize,
            version: field("version")? as u64,
            pull_solve_s: field("pull_solve_s")?,
        })
    }
}

fn write_f32(path: &Path, values: &[f32]) -> Result<(), String> {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    sync(path)
}

pub fn read_f32(path: &Path) -> Result<Vec<f32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Single-lane pull-engine PageRank, the correctness reference; returns the
/// scores and the seconds the solve took.
pub fn pull_reference(g: &Graph, iters: usize) -> (Vec<f32>, f64) {
    mixen_pool::with_threads(1, || {
        let engine = PullEngine::new(g);
        let t = Instant::now();
        let scores = pagerank(g, &engine, PageRankOpts::default(), iters);
        (scores, t.elapsed().as_secs_f64())
    })
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn prepare(workload: Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    let (dataset, scale) = workload.input();
    let t = Instant::now();
    let g = Arc::new(dataset.generate(scale, seed));
    mixen_graph::io::save(&g, inputs.graph())
        .map_err(|e| format!("write {}: {e}", inputs.graph().display()))?;
    sync(&inputs.graph())?;
    eprintln!(
        "[prepare] {} {:?} seed {seed}: n = {}, m = {} ({:.2}s)",
        dataset.name(),
        scale,
        g.n(),
        g.m(),
        t.elapsed().as_secs_f64()
    );
    let (iters, version) = match workload.iters() {
        Some(iters) => (iters, 0),
        None => serve::converged_snapshot(Arc::clone(&g))?,
    };
    let (reference, pull_solve_s) = pull_reference(&g, iters);
    write_f32(&inputs.reference(), &reference)?;
    Meta {
        lanes: mixen_pool::current_num_threads(),
        iters,
        version,
        pull_solve_s,
    }
    .write(&inputs.meta())?;
    sync(&inputs.meta())?;
    sync(&inputs.dir)
}

/// Flushes a prepared file (or directory entry) to disk, so its writeback
/// does not compete with the measured run's own I/O.
fn sync(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: mixen-perfbench prepare --workload W --seed N --dir D\n       \
         mixen-perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D \
         [--trace-out FILE]\n\
         workloads: rank-seedheavy rank-regular serve-steady"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage("missing subcommand"));
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    let (mut dir, mut trace_out) = (None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be a positive number"))
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = seed.unwrap_or_else(|| usage("--seed is required"));
    let inputs = Inputs {
        dir: dir.unwrap_or_else(|| usage("--dir is required")),
    };
    let result = match command.as_str() {
        "prepare" => prepare(workload, seed, &inputs).map(|()| None),
        "run" => {
            let spec = RunSpec {
                workload,
                seed,
                seconds,
                traced,
                trace_out: trace_out.unwrap_or_else(|| inputs.dir.join("trace.jsonl")),
            };
            let measured = match workload {
                Workload::ServeSteady => serve::run(&spec, &inputs),
                _ => rank::run(&spec, &inputs),
            };
            measured.and_then(|(outcome, values)| {
                metrics::result_line(&outcome, traced, &values).map(Some)
            })
        }
        other => usage(&format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What one `run` measures.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Where a traced run writes its spans, one JSON object per line.
    pub trace_out: PathBuf,
}
