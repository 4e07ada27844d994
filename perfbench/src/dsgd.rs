//! `dsgd-mlp`: Figure 4's task — robust D-SGD on the synthetic-MNIST
//! substitute (the data set `abft-experiments fig4` trains on), `n = 10`,
//! `f = 3`, MLP 64-32-10, batch 128, η = 0.5. A round trains three
//! full curves — fault-free mean, averaged CGE under label flip, CWTM
//! under gradient reverse — and [`TARGET_RUNS`] more averaged-CGE
//! label-flip trainings that stop once the test accuracy reaches
//! [`TARGET_ACCURACY`]; their wall time to get there is `time_to_target_s`.
//!
//! Each round draws its shards, model initialisations and mini-batch
//! streams from its own sub-seeds of the workload seed, so a run's median
//! time to target is taken over several independent trainings: the
//! iteration at which one training crosses the target varies by about
//! ±15% from seed to seed.

use crate::checks;
use crate::grid::{self, CellInfo, CellMeta, Kind, OpOut, RoundOut, Workload};
use crate::trace::{self, CellCounts, SpanName, Tap, TracedFilter, TracedModel};
use abft_core::observe::{ControlFlow, NullObserver, Probe, RoundView, RunObserver};
use abft_filters::{by_name, GradientFilter};
use abft_linalg::Vector;
use abft_ml::{
    train_distributed_observed, Dataset, DatasetSpec, DsgdConfig, DsgdFaults, MlFault, Mlp, Model,
};
use abft_telemetry::TelemetryConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const N: usize = 10;
pub const FAULTY: [usize; 3] = [0, 4, 7];
pub const LAYERS: [usize; 3] = [64, 32, 10];
pub const BATCH: usize = 128;
pub const LEARNING_RATE_MILLI: usize = 500;
/// The data-set seed `abft-experiments fig4` uses.
pub const FIG4_DATA_SEED: u64 = 2024;
pub const ITERATIONS: usize = 100;
/// Evaluation interval of the full curves.
pub const EVAL_EVERY: usize = 10;
/// The accuracy the target runs train to (`time_to_target_s`).
pub const TARGET_ACCURACY: f64 = 0.80;
/// Target runs per round.
pub const TARGET_RUNS: usize = 4;
/// Robust curves must end within this of the round's fault-free curve.
pub const ACCURACY_MARGIN: f64 = 0.10;

/// Floating-point operations of one D-SGD round's gradient passes,
/// computed from the layer sizes: per sample and dense layer `2·in·out`
/// forward and `4·in·out` backward (input and weight gradients).
pub fn flops_per_round() -> f64 {
    let per_sample: usize = LAYERS.windows(2).map(|w| 6 * w[0] * w[1]).sum();
    (per_sample * BATCH * N) as f64
}

struct Curve {
    meta: CellMeta,
    fault: MlFault,
    faulty: &'static [usize],
    /// Which of the round's sub-seed streams the curve draws from.
    stream: usize,
    /// Whether the curve stops at the target accuracy.
    to_target: bool,
    filter: Arc<dyn GradientFilter>,
    counts: Option<Arc<CellCounts>>,
    tap: Option<Tap>,
    id: u32,
}

/// Evaluates the test accuracy of every observed round's parameters and
/// halts training at the first that reaches the target, noting the wall
/// time spent until then.
struct TargetWatch<'a> {
    model: Mlp,
    test: &'a Dataset,
    started: Instant,
    hit_ns: Option<u64>,
}

impl RunObserver for TargetWatch<'_> {
    fn probe(&self) -> Probe {
        Probe::NONE
    }

    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        self.model
            .set_params(&Vector::from(view.estimate().to_vec()));
        if self.model.accuracy(self.test) >= TARGET_ACCURACY {
            self.hit_ns = Some(self.started.elapsed().as_nanos() as u64);
            ControlFlow::Halt
        } else {
            ControlFlow::Continue
        }
    }
}

pub struct DsgdMlp {
    train: Dataset,
    test: Dataset,
    seed: u64,
    iterations: usize,
    next_round: u64,
    curves: Vec<Curve>,
    problems: Vec<String>,
}

impl DsgdMlp {
    /// `iterations` shortens the curves for per-layer probes.
    pub fn setup(seed: u64, trace: bool, id_base: u32, iterations: usize) -> Result<Self, String> {
        let (train, test) = DatasetSpec::synthetic_mnist().generate(FIG4_DATA_SEED);
        type Plan = (String, &'static str, MlFault, &'static [usize], usize, bool);
        let mut plan: Vec<Plan> = vec![
            ("fault-free".into(), "mean", MlFault::None, &[], 0, false),
            (
                "cge-lf".into(),
                "cge-avg",
                MlFault::LabelFlip,
                &FAULTY,
                0,
                false,
            ),
            (
                "cwtm-gr".into(),
                "cwtm",
                MlFault::GradientReverse,
                &FAULTY,
                0,
                false,
            ),
        ];
        for k in 1..=TARGET_RUNS {
            plan.push((
                format!("cge-lf-target-{k}"),
                "cge-avg",
                MlFault::LabelFlip,
                &FAULTY,
                k,
                true,
            ));
        }
        let mut curves = Vec::new();
        for (i, (label, filter, fault, faulty, stream, to_target)) in plan.into_iter().enumerate() {
            let id = id_base + i as u32;
            let taps = grid::taps(trace, id, true);
            let inner = by_name(filter).map_err(|e| e.to_string())?;
            let filter: Arc<dyn GradientFilter> = match &taps {
                Some((tap, _)) => Arc::new(TracedFilter::new(inner, tap.clone())),
                None => Arc::from(inner),
            };
            curves.push(Curve {
                meta: CellMeta {
                    label,
                    kind: Kind::Curve,
                    filter: filter.name(),
                    attack: None,
                    group: i,
                    observed: false,
                },
                fault,
                faulty,
                stream,
                to_target,
                filter,
                counts: taps.as_ref().map(|t| t.1.clone()),
                tap: taps.map(|t| t.0),
                id,
            });
        }
        Ok(DsgdMlp {
            train,
            test,
            seed,
            iterations,
            next_round: 0,
            curves,
            problems: Vec::new(),
        })
    }

    /// Trains one curve; returns its outcome and, for a target run, the
    /// wall time until it reached the target.
    fn run_curve(
        &self,
        index: usize,
        shards: &[Dataset],
        sub_seed: u64,
        keep: bool,
    ) -> (OpOut, Option<u64>) {
        let curve = &self.curves[index];
        let config = DsgdConfig {
            batch_size: BATCH,
            learning_rate_milli: LEARNING_RATE_MILLI,
            iterations: self.iterations,
            eval_every: if curve.to_target {
                self.iterations
            } else {
                EVAL_EVERY
            },
            seed: grid::mix(sub_seed, 3),
            aggregation_threads: 1,
            telemetry: TelemetryConfig::Off,
        };
        let start_ns = trace::now_ns();
        let started = Instant::now();
        let build = Mlp::new(&LAYERS, grid::mix(sub_seed, 2));
        if curve.tap.is_some() {
            trace::record(SpanName::Build, curve.id, start_ns, trace::now_ns());
        }
        let mut model = match build {
            Ok(model) => model,
            Err(e) => return (OpOut::failed(index, Kind::Curve, e.to_string(), 0), None),
        };
        let mut watch = TargetWatch {
            model: model.clone(),
            test: &self.test,
            started,
            hit_ns: None,
        };
        let mut null = NullObserver;
        let observer: &mut dyn RunObserver = if curve.to_target {
            &mut watch
        } else {
            &mut null
        };
        let faults = DsgdFaults::new(curve.faulty, curve.fault);
        let filter = curve.filter.as_ref();
        let outcome = match &curve.tap {
            None => train_distributed_observed(
                &mut model, shards, faults, filter, &self.test, &config, observer,
            ),
            Some(tap) => {
                let mut traced = TracedModel::new(model.clone(), tap.clone());
                let outcome = train_distributed_observed(
                    &mut traced,
                    shards,
                    faults,
                    filter,
                    &self.test,
                    &config,
                    observer,
                );
                model.set_params(&traced.params());
                outcome
            }
        };
        let ns = started.elapsed().as_nanos() as u64;
        if curve.tap.is_some() {
            trace::record(SpanName::Run, curve.id, start_ns, start_ns + ns);
        }
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                let message = format!("{}: {e}", curve.meta.label);
                return (OpOut::failed(index, Kind::Curve, message, ns), None);
            }
        };
        let params = model.params();
        let rounds = outcome.summary.rounds as u64;
        let op = OpOut {
            ns,
            rounds,
            // The gradient replies the server receives: `n` per round, as
            // the program's own telemetry counts them (`Counter::Replies`).
            messages: rounds * N as u64,
            digest: checks::digest(params.as_slice()),
            quality: outcome.records.last().map_or(f64::NAN, |r| r.accuracy),
            estimate: keep.then(|| params.as_slice().to_vec()),
            ..OpOut::new(index, Kind::Curve)
        };
        (op, watch.hit_ns)
    }
}

impl Workload for DsgdMlp {
    /// Trains every curve once across `nproc` suite workers pulling from
    /// a shared queue (the full curves come first, so the short target
    /// trainings fill the tail). Outcomes come back in curve order.
    fn round(&mut self, keep: bool) -> RoundOut {
        let started = Instant::now();
        let round = self.next_round;
        self.next_round += 1;
        let streams = 1 + TARGET_RUNS as u64;
        let sub_seeds: Vec<u64> = (0..streams)
            .map(|s| grid::mix(self.seed, 1000 + streams * round + s))
            .collect();
        let workers = grid::nproc();
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(OpOut, Option<u64>)>> = Mutex::new(Vec::new());
        let this = &*self;
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (next, done, sub_seeds) = (&next, &done, &sub_seeds);
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(curve) = this.curves.get(index) else {
                        break;
                    };
                    let sub_seed = sub_seeds[curve.stream];
                    let allocs_before = crate::alloc::thread_count();
                    let (mut op, hit) = match this.train.shard(N, grid::mix(sub_seed, 1)) {
                        Ok(shards) => this.run_curve(index, &shards, sub_seed, keep),
                        Err(e) => (OpOut::failed(index, Kind::Curve, e.to_string(), 0), None),
                    };
                    op.allocs = crate::alloc::thread_count() - allocs_before;
                    op.worker = worker;
                    done.lock().expect("no worker panicked").push((op, hit));
                });
            }
        });
        let mut outcomes = done.into_inner().expect("no worker panicked");
        outcomes.sort_by_key(|(op, _)| op.index);
        let mut ops = Vec::with_capacity(outcomes.len());
        let mut targets_ns = Vec::new();
        for (op, hit) in outcomes {
            let curve = &self.curves[op.index];
            if curve.to_target && op.error.is_none() {
                match hit {
                    Some(ns) => targets_ns.push(ns),
                    None => self.problems.push(format!(
                        "round {round}: {} never reached accuracy {TARGET_ACCURACY}",
                        curve.meta.label
                    )),
                }
            }
            ops.push(op);
        }
        RoundOut {
            ops,
            wall_ns: started.elapsed().as_nanos() as u64,
            steal_ns: 0,
            workers,
            targets_ns: Some(targets_ns),
        }
    }

    fn check(&mut self, first: &RoundOut) -> Result<(), String> {
        self.check_round(first, first)
    }

    /// Rounds draw different sub-seeds, so each is checked on its own.
    fn check_round(&mut self, _first: &RoundOut, round: &RoundOut) -> Result<(), String> {
        grid::no_failures(round)?;
        let fault_free = round.ops[0].quality;
        for op in round
            .ops
            .iter()
            .filter(|op| !self.curves[op.index].to_target)
            .skip(1)
        {
            let label = &self.curves[op.index].meta.label;
            checks::accuracy_margin(label, op.quality, fault_free, ACCURACY_MARGIN)?;
        }
        match self.problems.first() {
            Some(problem) => Err(problem.clone()),
            None => Ok(()),
        }
    }

    fn cells(&self) -> Vec<CellInfo> {
        self.curves
            .iter()
            .map(|c| CellInfo {
                id: c.id,
                meta: c.meta.clone(),
                counts: c.counts.clone(),
            })
            .collect()
    }
}
