//! The traced run: per-layer metrics from spans, counters and replay
//! loops, with the outputs checked bit for bit against an untraced twin.

use crate::grid::{self, CellInfo, Kind, OpOut, RoundOut, Workload};
use crate::stats::{median, Metric};
use crate::trace::{self, covered_ns, Span, SpanName};
use crate::{alloc, dsgd, lossy, paper, wide, Outcome};
use abft_attacks::{attack_by_name, AttackContext, ATTACK_NAMES};
use abft_filters::{by_name, filter_names};
use abft_linalg::{GradientBatch, Vector, WorkerPool};
use abft_scenario::{Backend, InProcess, Recording, SuiteWorkspace};
use abft_telemetry::TelemetryConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const SPAN_CAPACITY: usize = 1 << 19;
/// Iterations of the D-SGD probe curves.
const PROBE_ITERATIONS: usize = 10;

/// Cells and measured rounds of one traced workload or probe.
struct Source {
    infos: Vec<CellInfo>,
    rounds: Vec<RoundOut>,
}

impl Source {
    fn ops(&self) -> impl Iterator<Item = (&CellInfo, &OpOut)> {
        self.rounds
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|op| op.error.is_none())
            .map(|op| (&self.infos[op.index], op))
    }
}

/// Runs workload `name` traced for `seconds`, after an untraced twin of
/// it, and reports every per-layer metric.
pub fn traced(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    trace::init_store(SPAN_CAPACITY);
    let mut plain = crate::setup(name, seed, false, 0)?;
    let mut traced = crate::setup(name, seed, true, 0)?;
    let (setup_spans, _) = trace::snapshot();
    trace::reset_store();
    let infos = traced.cells();
    reset_counts(&infos);

    let mut reference = Vec::new();
    let steal = crate::steal::Steal::new();
    let mut check = crate::measure(
        plain.as_mut(),
        (seconds / 4).max(1),
        true,
        &steal,
        |round| reference.push(round.clone()),
    );
    // One worker runs operations one at a time and counts process-wide;
    // side-by-side workers count per thread (see `grid::run_cell`).
    let one_worker = reference.first().is_some_and(|r| r.workers == 1);
    alloc::set_counting(true, one_worker);
    let mut rounds = Vec::new();
    crate::measure(traced.as_mut(), seconds, false, &steal, |round| {
        rounds.push(round.clone())
    })?;
    alloc::set_counting(false, false);
    for (r, (a, b)) in reference.iter().zip(&rounds).enumerate() {
        let same = a.ops.len() == b.ops.len()
            && a.ops.iter().zip(&b.ops).all(|(x, y)| x.digest == y.digest);
        if !same && check.is_ok() {
            check = Err(format!(
                "round {r}: traced outputs differ from untraced ones"
            ));
        }
    }
    let overhead = median(&walls(&rounds)) / median(&walls(&reference));
    let attempted = rounds.iter().map(|r| r.ops.len()).sum();
    let failed = rounds
        .iter()
        .flat_map(|r| &r.ops)
        .filter(|op| op.error.is_some())
        .count();
    let own = Source { infos, rounds };
    let probes = run_probes(&own, seed)?;
    let (spans, dropped) = trace::snapshot();
    write_spans(name, seed, &setup_spans, &spans, dropped);

    let units = Units::replay(seed)?;
    let mut metrics = Vec::new();
    scenario_metrics(&own, &setup_spans, &spans, &mut metrics);
    runtime_metrics(&own, &probes, &spans, &units, &mut metrics);
    metrics.extend(units.metrics.iter().cloned());
    ml_metrics(&own, &probes, &spans, &mut metrics);
    alloc_metrics(&own, &mut metrics);
    metrics.push(Metric::new("trace.overhead_ratio", overhead, "ratio"));
    Ok(Outcome {
        check,
        attempted,
        failed,
        metrics,
    })
}

fn walls(rounds: &[RoundOut]) -> Vec<f64> {
    rounds.iter().map(|r| r.wall_ns as f64).collect()
}

fn reset_counts(infos: &[CellInfo]) {
    for info in infos {
        if let Some(counts) = &info.counts {
            counts.reset();
        }
    }
}

/// One traced round of a small cell set from another workload, for every
/// driver kind the measured workload does not run itself.
fn run_probes(own: &Source, seed: u64) -> Result<Vec<Source>, String> {
    let kinds: BTreeSet<Kind> = own.infos.iter().map(|i| i.meta.kind).collect();
    let missing = |wanted: &[Kind]| wanted.iter().any(|k| !kinds.contains(k));
    let mut probes: Vec<Box<dyn Workload>> = Vec::new();
    if missing(&[Kind::InProcess, Kind::Threaded]) {
        probes.push(Box::new(paper::PaperSweep::setup(
            seed, true, 1_000_000, true,
        )?));
    }
    if missing(&[Kind::Fleet]) {
        probes.push(Box::new(wide::WideAggregate::setup(
            seed, true, 2_000_000, true,
        )?));
    }
    if missing(&[Kind::SimServer, Kind::SimAsync, Kind::P2p]) {
        probes.push(Box::new(lossy::LossyNet::setup(
            seed, true, 3_000_000, true,
        )?));
    }
    if missing(&[Kind::Curve]) {
        probes.push(Box::new(dsgd::DsgdMlp::setup(
            seed,
            true,
            4_000_000,
            PROBE_ITERATIONS,
        )?));
    }
    Ok(probes
        .into_iter()
        .map(|mut probe| {
            let infos = probe.cells();
            reset_counts(&infos);
            let rounds = vec![probe.round(false)];
            Source { infos, rounds }
        })
        .collect())
}

/// The sources to read driver kind `kind` from: the workload itself when
/// it runs that kind, otherwise the probes.
fn sources_for<'a>(kind: Kind, own: &'a Source, probes: &'a [Source]) -> Vec<&'a Source> {
    if own.infos.iter().any(|i| i.meta.kind == kind) {
        vec![own]
    } else {
        probes
            .iter()
            .filter(|p| p.infos.iter().any(|i| i.meta.kind == kind))
            .collect()
    }
}

fn spans_by_cell(spans: &[Span]) -> BTreeMap<u32, Vec<Span>> {
    let mut map: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for span in spans {
        map.entry(span.cell).or_default().push(*span);
    }
    map
}

/// Nanoseconds of a cell's `Run` spans covered by its child spans.
fn covered_children(cell_spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = cell_spans
        .iter()
        .filter(|s| s.name != SpanName::Run)
        .map(|s| (s.start, s.end))
        .collect();
    cell_spans
        .iter()
        .filter(|s| s.name == SpanName::Run)
        .map(|run| covered_ns(run.start, run.end, &mut children))
        .sum()
}

/// Bulk-replayed unit costs of the calls too short to time one by one,
/// and the replay-only per-layer metrics.
struct Units {
    gradient_ns: f64,
    filter_ns: BTreeMap<&'static str, f64>,
    attack_ns: BTreeMap<&'static str, f64>,
    observe_ns_per_round: f64,
    metrics: Vec<Metric>,
}

/// Median nanoseconds per call over `batches` batches, each long enough
/// (about `batch_ns`) for the clock to resolve.
fn per_call_ns(mut call: impl FnMut(), batch_ns: u64, batches: usize) -> f64 {
    let mut k: u64 = 1;
    loop {
        let started = Instant::now();
        for _ in 0..k {
            call();
        }
        if started.elapsed().as_nanos() as u64 >= batch_ns / 4 || k >= 1 << 24 {
            break;
        }
        k *= 2;
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..k {
                call();
            }
            started.elapsed().as_nanos() as f64 / k as f64
        })
        .collect();
    median(&samples)
}

fn batch_of_rows(rows: &[Vec<f64>], pool: Option<Arc<WorkerPool>>) -> GradientBatch {
    let mut batch = GradientBatch::with_capacity(rows.len(), rows[0].len());
    for row in rows {
        batch.push_row(row);
    }
    batch.set_worker_pool(pool);
    batch
}

impl Units {
    fn replay(seed: u64) -> Result<Units, String> {
        let mut metrics = Vec::new();
        let threads = grid::nproc();

        // Paper shape (n = 9, d = 2): gradient fill, filters, attacks.
        let inst = paper::Instance::generate(paper::instance_seed(seed, 0))?;
        let x0 = Vector::from(paper::X0.to_vec());
        let xs = [x0.clone(), Vector::from(inst.x_h.to_vec())];
        let mut row = [0.0; 2];
        let mut turn = 0usize;
        let gradient_ns = per_call_ns(
            || {
                turn += 1;
                for cost in &inst.costs {
                    cost.gradient_into(black_box(&xs[turn % 2]), &mut row);
                }
                black_box(&row);
            },
            2_000_000,
            7,
        ) / paper::N as f64;
        metrics.push(Metric::new(
            "problems.gradient_ns_per_row",
            gradient_ns,
            "ns",
        ));

        let rows: Vec<Vec<f64>> = inst
            .costs
            .iter()
            .enumerate()
            .map(|(i, cost)| {
                let g = cost.gradient(&x0);
                let sign = if i == 0 { -1.0 } else { 1.0 };
                g.iter().map(|v| sign * v).collect()
            })
            .collect();
        let batch = batch_of_rows(&rows, None);
        let mut filter_ns = BTreeMap::new();
        for &name in filter_names() {
            let filter = by_name(name).map_err(|e| e.to_string())?;
            let mut out = Vector::zeros(2);
            let ns = per_call_ns(
                || {
                    let _ = black_box(filter.aggregate_into(black_box(&batch), paper::F, &mut out));
                },
                2_000_000,
                5,
            );
            filter_ns.insert(name, ns);
        }
        let paper_mean = filter_ns.values().sum::<f64>() / filter_ns.len() as f64;
        metrics.push(Metric::new(
            "filters.paper_shape.aggregate_ns",
            paper_mean,
            "ns",
        ));

        let true_gradient = inst.costs[0].gradient(&x0);
        let honest: Vec<usize> = (1..paper::N).collect();
        let mut attack_ns = BTreeMap::new();
        for &name in &ATTACK_NAMES {
            let mut attack = attack_by_name(name, seed).map_err(|e| e.to_string())?;
            let ctx = if attack.is_omniscient() {
                AttackContext::omniscient_rows(0, &true_gradient, &x0, &batch, &honest)
            } else {
                AttackContext::new(0, &true_gradient, &x0)
            };
            let mut out = [0.0; 2];
            let ns = per_call_ns(
                || {
                    attack.corrupt_into(black_box(&ctx), &mut out);
                    black_box(&out);
                },
                2_000_000,
                5,
            );
            attack_ns.insert(name, ns);
            metrics.push(Metric::new(format!("attacks.{name}.corrupt_ns"), ns, "ns"));
        }

        // Wide shape (n = 20, d = 10 000): serial and `nproc`-thread
        // aggregation per filter, and the omniscient attack.
        let centres = wide::centres(seed, wide::N, wide::D);
        let wide_rows: Vec<Vec<f64>> = centres
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let sign = if i < wide::F { 2.0 } else { -2.0 };
                c.iter().map(|v| sign * v).collect()
            })
            .collect();
        let pool = Arc::new(WorkerPool::new(threads));
        let serial = batch_of_rows(&wide_rows, None);
        let parallel = batch_of_rows(&wide_rows, Some(pool.clone()));
        for &name in filter_names() {
            let filter = by_name(name).map_err(|e| e.to_string())?;
            let mut out = Vector::zeros(wide::D);
            let mut time = |batch: &GradientBatch| {
                per_call_ns(
                    || {
                        let _ =
                            black_box(filter.aggregate_into(black_box(batch), wide::F, &mut out));
                    },
                    20_000_000,
                    3,
                )
            };
            let serial_ns = time(&serial);
            let parallel_ns = time(&parallel);
            metrics.push(Metric::new(
                format!("filters.{name}.aggregate_us"),
                parallel_ns / 1e3,
                "us",
            ));
            metrics.push(Metric::new(
                format!("linalg.pool.{name}.speedup"),
                serial_ns / parallel_ns,
                "ratio",
            ));
        }
        let wide_gradient = Vector::from(wide_rows[0].clone());
        let wide_x = Vector::zeros(wide::D);
        let wide_honest: Vec<usize> = (wide::F..wide::N).collect();
        let mut lie = attack_by_name("little-is-enough", seed).map_err(|e| e.to_string())?;
        let ctx = AttackContext::omniscient_rows(0, &wide_gradient, &wide_x, &serial, &wide_honest);
        let mut out = vec![0.0; wide::D];
        let lie_ns = per_call_ns(
            || {
                lie.corrupt_into(black_box(&ctx), &mut out);
                black_box(&out);
            },
            5_000_000,
            5,
        );
        metrics.push(Metric::new(
            "attacks.little-is-enough.corrupt_us",
            lie_ns / 1e3,
            "us",
        ));

        // D-SGD shape (n = 10, d = 2 410): the two robust curves' filters.
        let dim = dsgd::LAYERS
            .windows(2)
            .map(|w| w[0] * w[1] + w[1])
            .sum::<usize>();
        let mut state = grid::mix(seed, 500);
        let dsgd_rows: Vec<Vec<f64>> = (0..dsgd::N)
            .map(|_| {
                (0..dim)
                    .map(|_| 0.01 * wide::gaussian(&mut state))
                    .collect()
            })
            .collect();
        let dsgd_batch = batch_of_rows(&dsgd_rows, None);
        let mut dsgd_ns = Vec::new();
        for name in ["cge-avg", "cwtm"] {
            let filter = by_name(name).map_err(|e| e.to_string())?;
            let mut out = Vector::zeros(dim);
            dsgd_ns.push(per_call_ns(
                || {
                    let _ = black_box(filter.aggregate_into(
                        black_box(&dsgd_batch),
                        dsgd::FAULTY.len(),
                        &mut out,
                    ));
                },
                5_000_000,
                5,
            ));
        }
        let dsgd_mean = dsgd_ns.iter().sum::<f64>() / dsgd_ns.len() as f64;
        metrics.push(Metric::new(
            "filters.dsgd_shape.aggregate_us",
            dsgd_mean / 1e3,
            "us",
        ));

        // A trivial dispatch on the `nproc`-thread pool.
        let dispatch_ns = per_call_ns(
            || {
                pool.run(threads, &|range| {
                    black_box(range);
                })
            },
            5_000_000,
            5,
        );
        metrics.push(Metric::new(
            "linalg.pool.dispatch_us",
            dispatch_ns / 1e3,
            "us",
        ));

        // Observation and telemetry: one paper-sweep cell, in-process,
        // dense vs summary-only recording and telemetry on vs off.
        let build = |recording: Recording, telemetry: TelemetryConfig| {
            let mut options =
                grid::pinned_options(x0.clone(), Vector::from(inst.x_h.to_vec()), paper::T, 1, 1);
            options.telemetry = telemetry;
            grid::Recipe {
                costs: &inst.costs,
                f: paper::F,
                filter: "cge",
                attacks: vec![(0, "gradient-reverse", 0)],
                net_faults: Vec::new(),
                options,
                recording,
            }
            .build(u32::MAX, None)
        };
        let variants = [
            build(Recording::Full, TelemetryConfig::Off)?,
            build(Recording::SummaryOnly, TelemetryConfig::Off)?,
            build(Recording::Full, TelemetryConfig::On)?,
        ];
        let mut workspace = SuiteWorkspace::new();
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..31 {
            for (scenario, times) in variants.iter().zip(samples.iter_mut()) {
                let started = Instant::now();
                InProcess
                    .run_with_workspace(scenario, &mut workspace)
                    .map_err(|e| e.to_string())?;
                times.push(started.elapsed().as_nanos() as f64);
            }
        }
        let [full, summary, telemetry_on] = samples.map(|s| median(&s));
        let rounds = (paper::T + 1) as f64;
        let observe_ns_per_round = (full - summary) / rounds;
        metrics.push(Metric::new(
            "core.observe_us_per_round",
            observe_ns_per_round / 1e3,
            "us",
        ));
        metrics.push(Metric::new(
            "telemetry.on_off_ratio",
            telemetry_on / full,
            "ratio",
        ));

        // The lossy workload's traffic through `SimulatedNetwork`.
        let model = lossy::lossy_network(grid::mix(seed, 300), 0.1);
        let mut net = model.build::<u64>(6);
        let mut iteration = 0usize;
        let per_round = per_call_ns(
            || {
                use abft_net::MessageBus;
                net.begin_iteration(iteration);
                for from in 0..6 {
                    for to in 0..6 {
                        if from != to {
                            net.send(from, to, iteration as u64);
                        }
                    }
                }
                black_box(net.end_round());
                iteration += 1;
            },
            5_000_000,
            5,
        );
        metrics.push(Metric::new("net.ns_per_message", per_round / 30.0, "ns"));

        Ok(Units {
            gradient_ns,
            filter_ns,
            attack_ns,
            observe_ns_per_round,
            metrics,
        })
    }

    /// Estimated nanoseconds of the calls a count-only cell made.
    fn estimate(&self, info: &CellInfo, rounds: u64) -> f64 {
        let mut ns = 0.0;
        if let Some(counts) = info.counts.as_ref().filter(|c| !c.timed) {
            ns += counts.problems.calls() as f64 * self.gradient_ns;
            ns += counts.filters.calls() as f64
                * self.filter_ns.get(info.meta.filter).copied().unwrap_or(0.0);
            let attack = info
                .meta
                .attack
                .and_then(|a| self.attack_ns.get(a))
                .copied();
            ns += counts.attacks.calls() as f64 * attack.unwrap_or(0.0);
        }
        if info.meta.observed {
            ns += rounds as f64 * self.observe_ns_per_round;
        }
        ns
    }
}

/// Driver self time per round of `kind`: its cells' time minus their
/// child spans and the replay estimate of their count-only calls.
fn self_ns_per_round(
    kind: Kind,
    own: &Source,
    probes: &[Source],
    by_cell: &BTreeMap<u32, Vec<Span>>,
    units: &Units,
) -> f64 {
    let mut total = 0.0;
    let mut rounds = 0u64;
    for source in sources_for(kind, own, probes) {
        let mut per_cell: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for (_, op) in source.ops().filter(|(i, _)| i.meta.kind == kind) {
            let entry = per_cell.entry(op.index).or_default();
            entry.0 += op.ns;
            entry.1 += op.rounds;
        }
        for (index, (ns, cell_rounds)) in per_cell {
            let info = &source.infos[index];
            let covered = by_cell.get(&info.id).map_or(0, |s| covered_children(s));
            total += ns as f64 - covered as f64 - units.estimate(info, cell_rounds);
            rounds += cell_rounds;
        }
    }
    total / rounds.max(1) as f64
}

fn scenario_metrics(own: &Source, setup_spans: &[Span], spans: &[Span], metrics: &mut Vec<Metric>) {
    let ids: BTreeSet<u32> = own.infos.iter().map(|i| i.id).collect();
    let builds: Vec<f64> = setup_spans
        .iter()
        .chain(spans)
        .filter(|s| s.name == SpanName::Build && ids.contains(&s.cell))
        .map(|s| (s.end - s.start) as f64)
        .collect();
    let build_mean = builds.iter().sum::<f64>() / builds.len().max(1) as f64;
    metrics.push(Metric::new("scenario.build_us", build_mean / 1e3, "us"));
    let run: Vec<f64> = own.ops().map(|(_, op)| op.ns as f64).collect();
    let run_mean = run.iter().sum::<f64>() / run.len().max(1) as f64;
    metrics.push(Metric::new("scenario.run_ms", run_mean / 1e6, "ms"));
    let idle: Vec<f64> = own
        .rounds
        .iter()
        .map(|r| {
            let busy: u64 = r.ops.iter().map(|op| op.ns).sum();
            (r.workers as f64 * r.wall_ns as f64 - busy as f64).max(0.0)
        })
        .collect();
    let idle_mean = idle.iter().sum::<f64>() / idle.len().max(1) as f64;
    metrics.push(Metric::new(
        "scenario.worker_idle_ms",
        idle_mean / 1e6,
        "ms",
    ));
}

fn runtime_metrics(
    own: &Source,
    probes: &[Source],
    spans: &[Span],
    units: &Units,
    metrics: &mut Vec<Metric>,
) {
    let by_cell = spans_by_cell(spans);
    let us = |kind| self_ns_per_round(kind, own, probes, &by_cell, units) / 1e3;
    metrics.push(Metric::new(
        "dgd.self_us_per_round",
        us(Kind::InProcess),
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.threaded.self_us_per_round",
        us(Kind::Threaded),
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.fleet.self_us_per_round",
        us(Kind::Fleet),
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.sim_server.self_us_per_round",
        us(Kind::SimServer),
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.async.self_us_per_step",
        us(Kind::SimAsync),
        "us",
    ));
    metrics.push(Metric::new(
        "runtime.p2p.self_us_per_round",
        us(Kind::P2p),
        "us",
    ));

    let sum_ops = |kinds: &[Kind], f: fn(&OpOut) -> u64| -> (f64, f64, f64) {
        let (mut value, mut rounds, mut runs) = (0.0f64, 0.0f64, 0.0f64);
        for &kind in kinds {
            for source in sources_for(kind, own, probes) {
                for (_, op) in source.ops().filter(|(i, _)| i.meta.kind == kind) {
                    value += f(op) as f64;
                    rounds += op.rounds as f64;
                    runs += 1.0;
                }
            }
        }
        (value, rounds.max(1.0), runs.max(1.0))
    };
    let (hits, _, runs) = sum_ops(&[Kind::Threaded, Kind::Fleet], |op| op.reuse_hits);
    metrics.push(Metric::new(
        "runtime.fleet.reuse_per_run",
        hits / runs,
        "ratio",
    ));
    let (eig, rounds, _) = sum_ops(&[Kind::P2p], |op| op.eig_messages);
    metrics.push(Metric::new(
        "runtime.eig_messages_per_round",
        eig / rounds,
        "count",
    ));
    let net_kinds = [Kind::P2p, Kind::SimServer, Kind::SimAsync];
    type Field = fn(&OpOut) -> u64;
    let fields: [(&str, Field); 4] = [
        ("net.sent_per_round", |op| op.net.sent),
        ("net.delivered_per_round", |op| op.net.delivered),
        ("net.dropped_per_round", |op| op.net.dropped),
        ("net.late_per_round", |op| op.net.late),
    ];
    for (name, field) in fields {
        let (value, rounds, _) = sum_ops(&net_kinds, field);
        metrics.push(Metric::new(name, value / rounds, "count"));
    }
}

fn ml_metrics(own: &Source, probes: &[Source], spans: &[Span], metrics: &mut Vec<Metric>) {
    let by_cell = spans_by_cell(spans);
    let (mut curve_ns, mut rounds, mut gradient_ns, mut covered) = (0.0, 0.0, 0.0, 0.0);
    let mut evals = Vec::new();
    for source in sources_for(Kind::Curve, own, probes) {
        for (_, op) in source.ops() {
            curve_ns += op.ns as f64;
            rounds += op.rounds as f64;
        }
        for info in &source.infos {
            let Some(cell_spans) = by_cell.get(&info.id) else {
                continue;
            };
            covered += covered_children(cell_spans) as f64;
            for span in cell_spans {
                let ns = (span.end - span.start) as f64;
                match span.name {
                    SpanName::MlGradient => gradient_ns += ns,
                    SpanName::MlEval => evals.push(ns),
                    _ => {}
                }
            }
        }
    }
    let rounds = rounds.max(1.0);
    let per_round = gradient_ns / rounds;
    metrics.push(Metric::new(
        "ml.gradient_ms_per_round",
        per_round / 1e6,
        "ms",
    ));
    metrics.push(Metric::new(
        "ml.gflops",
        dsgd::flops_per_round() / per_round.max(1.0),
        "GFLOP/s",
    ));
    let eval_mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
    metrics.push(Metric::new("ml.eval_ms", eval_mean / 1e6, "ms"));
    metrics.push(Metric::new(
        "ml.self_ms_per_round",
        (curve_ns - covered) / rounds / 1e6,
        "ms",
    ));
}

fn alloc_metrics(own: &Source, metrics: &mut Vec<Metric>) {
    let rounds: u64 = own.ops().map(|(_, op)| op.rounds).sum::<u64>().max(1);
    let total: u64 = own.ops().map(|(_, op)| op.allocs).sum();
    let mut layer = [0u64; 4];
    for info in &own.infos {
        if let Some(c) = &info.counts {
            for (slot, count) in layer
                .iter_mut()
                .zip([&c.problems, &c.filters, &c.attacks, &c.ml])
            {
                *slot += count.allocs();
            }
        }
    }
    for (name, count) in ["problems", "filters", "attacks", "ml"].iter().zip(layer) {
        metrics.push(Metric::new(
            format!("{name}.allocs_per_round"),
            count as f64 / rounds as f64,
            "count",
        ));
    }
    metrics.push(Metric::new(
        "allocs_per_round",
        total as f64 / rounds as f64,
        "count",
    ));
}

/// Writes every span as CSV (`index,name,cell,parent,start_ns,end_ns`;
/// `parent` is the index of the cell's enclosing `Run` span, or -1).
fn write_spans(name: &str, seed: u64, setup: &[Span], spans: &[Span], dropped: u64) {
    let dir = crate::out_dir();
    let path = dir.join(format!("spans-{name}-seed{seed}.csv"));
    let all: Vec<&Span> = setup.iter().chain(spans).collect();
    let mut runs: BTreeMap<u32, Vec<(u64, u64, usize)>> = BTreeMap::new();
    for (i, s) in all.iter().enumerate() {
        if s.name == SpanName::Run {
            runs.entry(s.cell).or_default().push((s.start, s.end, i));
        }
    }
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "# dropped spans: {dropped}")?;
        writeln!(out, "index,name,cell,parent,start_ns,end_ns")?;
        for (i, s) in all.iter().enumerate() {
            let parent = if s.name == SpanName::Run {
                -1
            } else {
                runs.get(&s.cell)
                    .and_then(|r| r.iter().find(|(a, b, _)| *a <= s.start && s.start < *b))
                    .map_or(-1, |(_, _, p)| *p as i64)
            };
            writeln!(
                out,
                "{i},{},{},{parent},{},{}",
                s.name.label(),
                s.cell,
                s.start,
                s.end
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
