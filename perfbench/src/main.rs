//! The repository's benchmark: runs one named workload from a seed, checks
//! its outputs, and prints every end-to-end metric (or, with `--trace 1`,
//! every per-layer metric) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `README.md` for the workloads, metrics and reference figures.

mod alloc;
mod checks;
mod dsgd;
mod grid;
mod layers;
mod lossy;
mod paper;
mod pin;
mod stats;
mod steal;
mod trace;
mod wide;

use grid::{RoundOut, Workload};
use stats::{json_string, median, quantile, Metric};
use std::path::PathBuf;
use std::time::Instant;
use steal::{available_ns, Steal};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper-sweep", "wide-aggregate", "lossy-net", "dsgd-mlp"];

/// Batches of set-ups timed per processor and run (see [`timed_setup`]).
const SETUP_BATCHES: usize = 5;
/// Most processors the set-up is timed on.
const SETUP_MAX_CPUS: usize = 4;
/// Wall time one batch of set-ups lasts, about: a single `paper-sweep`
/// set-up takes a few milliseconds, too short against the machine's
/// stalls to time one at a time.
const SETUP_BATCH_S: f64 = 0.2;
/// Most set-ups in one batch.
const SETUP_MAX_PER_BATCH: usize = 64;

/// Knobs the program reads from the environment. The benchmark pins them
/// itself and refuses to run while any is set.
const PINNED_ENV: [&str; 3] = [
    "ABFT_AGGREGATION_THREADS",
    "ABFT_FLEET_WORKERS",
    "ABFT_TELEMETRY",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; workloads: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Builds workload `name` from `seed`; `trace` installs the wrappers.
pub fn setup(
    name: &str,
    seed: u64,
    trace: bool,
    id_base: u32,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-sweep" => Box::new(paper::PaperSweep::setup(seed, trace, id_base, false)?),
        "wide-aggregate" => Box::new(wide::WideAggregate::setup(seed, trace, id_base, false)?),
        "lossy-net" => Box::new(lossy::LossyNet::setup(seed, trace, id_base, false)?),
        "dsgd-mlp" => Box::new(dsgd::DsgdMlp::setup(
            seed,
            trace,
            id_base,
            dsgd::ITERATIONS,
        )?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Runs whole rounds until `seconds` have passed (at least one), handing
/// each to `on_round` as it ends, with the steal during it; rounds are
/// not kept, so the
/// benchmark's own memory does not grow with the run. With `checked`, the
/// first round is checked against the benchmark's own computations and
/// every later round against the first; the first error is returned.
pub fn measure(
    workload: &mut dyn Workload,
    seconds: u64,
    checked: bool,
    steal: &Steal,
    mut on_round: impl FnMut(&RoundOut),
) -> Result<(), String> {
    let round = |workload: &mut dyn Workload, keep: bool| {
        let before = steal.snapshot();
        let mut out = workload.round(keep);
        out.steal_ns = steal::lost_ns(&before, &steal.snapshot(), out.wall_ns, workload.spread());
        out
    };
    let started = Instant::now();
    let first = round(workload, true);
    on_round(&first);
    let mut check = if checked {
        workload.check(&first)
    } else {
        Ok(())
    };
    let mut r = 1;
    while started.elapsed().as_secs_f64() < seconds as f64 {
        let next = round(workload, false);
        on_round(&next);
        if checked && check.is_ok() {
            check = workload
                .check_round(&first, &next)
                .map_err(|e| format!("round {r}: {e}"));
        }
        r += 1;
    }
    check
}

/// End-to-end samples, on the wall clock less steal. A round's rates are
/// its counts over its wall time (until its last suite worker finishes)
/// less the steal during it, reported as the median over the run's
/// rounds, so a short stall on the machine moves one round, not the
/// result. Operation times are scaled by the same share of the round the
/// processors were available (an operation is too short to read steal
/// over) and feed the run's quantiles, kept as `f32` so the benchmark's
/// own memory barely grows with the run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    scenarios_per_s: Vec<f64>,
    rounds_per_s: Vec<f64>,
    messages_per_s: Vec<f64>,
    op_ms: Vec<f32>,
    targets_s: Vec<f64>,
    wall_ns: u64,
    steal_ns: u64,
}

impl Tally {
    fn add(&mut self, round: &RoundOut) {
        let available_ns = available_ns(round.wall_ns, round.steal_ns);
        let time_s = available_ns as f64 / 1e9;
        let share = available_ns as f64 / round.wall_ns.max(1) as f64;
        self.wall_ns += round.wall_ns;
        self.steal_ns += round.steal_ns;
        let sum = |f: fn(&grid::OpOut) -> u64| round.ops.iter().map(|op| f(op) as f64).sum::<f64>();
        self.op_ms.extend(
            round
                .ops
                .iter()
                .map(|op| (op.ns as f64 * share / 1e6) as f32),
        );

        self.attempted += round.ops.len();
        self.failed += round.ops.iter().filter(|op| op.error.is_some()).count();
        self.scenarios_per_s.push(round.ops.len() as f64 / time_s);
        self.rounds_per_s.push(sum(|op| op.rounds) / time_s);
        self.messages_per_s.push(sum(|op| op.messages) / time_s);
        match &round.targets_ns {
            Some(targets) => self
                .targets_s
                .extend(targets.iter().map(|&ns| ns as f64 * share / 1e9)),
            None => self.targets_s.push(time_s),
        }
    }

    fn metrics(&self, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
        let op_ms: Vec<f64> = self.op_ms.iter().map(|&ms| f64::from(ms)).collect();
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "scenarios_per_s",
                median(&self.scenarios_per_s),
                "scenarios/s",
            ),
            Metric::new("rounds_per_s", median(&self.rounds_per_s), "rounds/s"),
            Metric::new("scenario_p50_ms", quantile(&op_ms, 0.5), "ms"),
            Metric::new("scenario_p90_ms", quantile(&op_ms, 0.9), "ms"),
            Metric::new("messages_per_s", median(&self.messages_per_s), "messages/s"),
            Metric::new("time_to_target_s", median(&self.targets_s), "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        ]
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seed, commit, machine and compiler of a result.
fn provenance(seed: u64) -> String {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest.parent().map(PathBuf::from).unwrap_or_default();
    let commit = if repo.join(".git").exists() {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    } else {
        "unknown (not a git checkout)".into()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"seed\": {seed}, \"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}}}",
        json_string(&commit),
        grid::nproc(),
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

/// Where results and span files go: untracked, inside the benchmark's
/// own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Outcome {
    pub check: Result<(), String>,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Builds the workload over and over, dropping each build before the
/// next, and returns `setup_s`: the mean over processors of the median
/// over that processor's batches of one build's mean time in the batch,
/// on the wall clock less the processor's steal. Batches go round the
/// processors in turn (at most [`SETUP_MAX_CPUS`] of them), each with the
/// thread pinned to one; the first build sizes the batches to about
/// [`SETUP_BATCH_S`] each. The build that is returned is made last,
/// unpinned, and is not timed, so the threads it starts may run on every
/// processor.
fn timed_setup(args: &Args, steal: &Steal) -> Result<(Box<dyn Workload>, f64), String> {
    let build = || -> Result<u64, String> {
        let started = Instant::now();
        let workload = setup(&args.workload, args.seed, false, 0)?;
        let ns = started.elapsed().as_nanos() as u64;
        drop(workload);
        Ok(ns)
    };
    let first_s = build()? as f64 / 1e9;
    let per_batch = ((SETUP_BATCH_S / first_s).ceil() as usize).clamp(1, SETUP_MAX_PER_BATCH);
    let original = pin::Mask::current();
    let mut cpus: Vec<Option<usize>> = match &original {
        Some(mask) => {
            let all = mask.cpus();
            let step = all.len().div_ceil(SETUP_MAX_CPUS).max(1);
            all.into_iter().step_by(step).map(Some).collect()
        }
        None => vec![None],
    };
    if cpus.is_empty() {
        cpus.push(None);
    }
    let stolen = |cpu: Option<usize>| cpu.map_or(0, |c| steal.cpu_ns(c));
    let mut batches = vec![Vec::with_capacity(SETUP_BATCHES); cpus.len()];
    for _ in 0..SETUP_BATCHES {
        for (slot, &cpu) in batches.iter_mut().zip(&cpus) {
            if let Some(cpu) = cpu {
                pin::Mask::only(cpu).apply();
            }
            let stolen_before = stolen(cpu);
            let mut total_ns = 0;
            for _ in 0..per_batch {
                total_ns += build()?;
            }
            let total_ns = available_ns(total_ns, stolen(cpu) - stolen_before);
            slot.push(total_ns as f64 / 1e9 / per_batch as f64);
        }
    }
    if let Some(mask) = &original {
        if !mask.apply() {
            return Err("could not restore the processor affinity".into());
        }
    }
    let per_cpu: Vec<f64> = batches.iter().map(|b| median(b)).collect();
    let setup_s = per_cpu.iter().sum::<f64>() / per_cpu.len() as f64;
    Ok((setup(&args.workload, args.seed, false, 0)?, setup_s))
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let steal = Steal::new();
    let (mut workload, setup_s) = timed_setup(args, &steal)?;
    let mut tally = Tally::default();
    let check = measure(workload.as_mut(), args.seconds, true, &steal, |round| {
        tally.add(round)
    });
    println!(
        "steal: {:.1}% of the measured rounds' wall time",
        100.0 * tally.steal_ns as f64 / tally.wall_ns.max(1) as f64
    );
    Ok(Outcome {
        check,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: tally.metrics(setup_s, peak_rss_mib()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set — the benchmark pins aggregation \
             threads, fleet workers and telemetry itself; unset it and rerun"
        );
        std::process::exit(2);
    }
    let provenance = provenance(args.seed);
    println!("provenance: {provenance}");
    let outcome = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds)
    } else {
        untraced(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let correct = outcome.check.is_ok();
    if let Err(e) = &outcome.check {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = stats::metrics_json(&outcome.metrics);
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {provenance}, \
         \"check\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(outcome.check.as_ref().err().map_or("ok", String::as_str)),
        outcome.attempted,
        outcome.failed,
    );
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
}
