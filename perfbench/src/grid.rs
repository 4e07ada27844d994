//! Running a grid of scenario cells across suite workers, one timed
//! `Backend::run_with_workspace` call per cell.

use crate::alloc;
use crate::checks::digest;
use crate::steal::Spread;
use crate::trace::{self, CellCounts, SpanName, Tap, TracedAttack, TracedCost, TracedFilter};
use abft_attacks::attack_by_name;
use abft_dgd::{ProjectionSet, RunOptions, StepSchedule};
use abft_filters::by_name;
use abft_linalg::Vector;
use abft_net::{NetFault, NetMetrics};
use abft_problems::SharedCost;
use abft_scenario::{Backend, Recording, RunReport, Scenario, SuiteWorkspace};
use abft_telemetry::TelemetryConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which driver a cell runs on; per-layer self times are grouped by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `InProcess` (the `dgd` round loop).
    InProcess,
    /// `Threaded` with one fleet worker.
    Threaded,
    /// `Threaded` with `nproc` fleet workers.
    Fleet,
    /// `Simulated` server topology.
    SimServer,
    /// `Simulated` asynchronous server.
    SimAsync,
    /// `Simulated` peer-to-peer (EIG).
    P2p,
    /// One robust D-SGD training curve.
    Curve,
}

/// What a cell is, for checks and per-layer grouping.
#[derive(Debug, Clone)]
pub struct CellMeta {
    pub label: String,
    pub kind: Kind,
    pub filter: &'static str,
    pub attack: Option<&'static str>,
    /// Workload-specific group: instance index, topology, …
    pub group: usize,
    /// Whether the cell records every round (`Recording::Full`), so its
    /// driver time includes the per-round honest-cost observation.
    pub observed: bool,
}

/// One runnable cell.
pub struct Cell {
    /// Identifier carried by the cell's spans (unique within a process).
    pub id: u32,
    pub meta: CellMeta,
    pub backend: Box<dyn Backend>,
    pub scenario: Scenario,
    /// Per-layer counters, present in traced runs.
    pub counts: Option<Arc<CellCounts>>,
}

/// The traced-run taps for cell `id`, or `None` untraced. `timed` asks
/// for one span per wrapped call.
pub fn taps(trace: bool, id: u32, timed: bool) -> Option<(Tap, Arc<CellCounts>)> {
    trace.then(|| {
        let counts = Arc::new(CellCounts {
            timed,
            ..CellCounts::default()
        });
        (Tap::new(id, timed, counts.clone()), counts)
    })
}

/// The outcome of one operation (a cell run or a D-SGD curve).
#[derive(Debug, Clone)]
pub struct OpOut {
    pub index: usize,
    pub kind: Kind,
    /// The suite worker that ran the operation.
    pub worker: usize,
    pub error: Option<String>,
    /// Wall time.
    pub ns: u64,
    pub rounds: u64,
    pub messages: u64,
    pub digest: u64,
    /// Final accuracy of a D-SGD curve; final distance to the reference
    /// point of a scenario cell.
    pub quality: f64,
    /// The final estimate, kept on the rounds that get checked.
    pub estimate: Option<Vec<f64>>,
    pub net: NetMetrics,
    pub reuse_hits: u64,
    pub eig_messages: u64,
    pub allocs: u64,
}

impl OpOut {
    /// An operation with every count zero and no error yet.
    pub fn new(index: usize, kind: Kind) -> Self {
        OpOut {
            index,
            kind,
            worker: 0,
            error: None,
            ns: 0,
            rounds: 0,
            messages: 0,
            digest: 0,
            quality: f64::NAN,
            estimate: None,
            net: NetMetrics::default(),
            reuse_hits: 0,
            eig_messages: 0,
            allocs: 0,
        }
    }

    pub fn failed(index: usize, kind: Kind, error: String, ns: u64) -> Self {
        OpOut {
            error: Some(error),
            ns,
            ..OpOut::new(index, kind)
        }
    }

    fn from_report(index: usize, kind: Kind, report: &RunReport, keep: bool) -> Self {
        let estimate = report.final_estimate.as_slice();
        let m = &report.metrics;
        let messages = match kind {
            Kind::InProcess | Kind::Curve => 0,
            Kind::Threaded | Kind::Fleet => (m.broadcasts_sent + m.replies_received) as u64,
            Kind::SimServer | Kind::SimAsync | Kind::P2p => m.net.sent,
        };
        OpOut {
            rounds: report.summary.rounds as u64,
            messages,
            digest: digest(estimate),
            quality: report.final_distance(),
            estimate: keep.then(|| estimate.to_vec()),
            net: m.net,
            reuse_hits: m.fleet_reuse_hits as u64,
            eig_messages: m.eig_messages as u64,
            ..OpOut::new(index, kind)
        }
    }
}

/// One whole round of a workload's operations.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    pub ops: Vec<OpOut>,
    pub wall_ns: u64,
    /// Wall time the round lost to steal ([`crate::steal`]); set by
    /// [`crate::measure`].
    pub steal_ns: u64,
    pub workers: usize,
    /// Wall times until the round's quality targets were met; `None` when
    /// the target is the whole round (the complete, checked grid).
    pub targets_ns: Option<Vec<u64>>,
}

/// Runs one cell on a workspace, timed on the wall clock, counting the
/// allocations the running thread makes (`thread_allocs`) or the whole
/// process makes.
pub fn run_cell(
    index: usize,
    cell: &Cell,
    workspace: &mut SuiteWorkspace,
    keep: bool,
    thread_allocs: bool,
) -> OpOut {
    let allocs = || {
        if thread_allocs {
            alloc::thread_count()
        } else {
            alloc::total_count()
        }
    };
    let allocs_before = allocs();
    let start_ns = trace::now_ns();
    let started = Instant::now();
    let result = cell.backend.run_with_workspace(&cell.scenario, workspace);
    let ns = started.elapsed().as_nanos() as u64;
    if cell.counts.is_some() {
        trace::record(SpanName::Run, cell.id, start_ns, start_ns + ns);
    }
    let allocs = allocs() - allocs_before;
    let mut out = match result {
        Ok(report) => OpOut::from_report(index, cell.meta.kind, &report, keep),
        Err(err) => OpOut::failed(
            index,
            cell.meta.kind,
            format!("{}: {err}", cell.meta.label),
            0,
        ),
    };
    out.ns = ns;
    out.allocs = allocs;
    out
}

/// Runs every cell once across `workspaces.len()` suite workers pulling
/// from a shared queue. Outcomes come back in cell order.
pub fn run_cells(cells: &[Cell], workspaces: &mut [SuiteWorkspace], keep: bool) -> RoundOut {
    let workers = workspaces.len().max(1);
    let started = Instant::now();
    let ops = if workers == 1 {
        let workspace = &mut workspaces[0];
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| run_cell(i, cell, workspace, keep, false))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<OpOut>> = Mutex::new(Vec::with_capacity(cells.len()));
        std::thread::scope(|scope| {
            for (worker, workspace) in workspaces.iter_mut().enumerate() {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let mut op = run_cell(i, cell, workspace, keep, true);
                        op.worker = worker;
                        mine.push(op);
                    }
                    done.lock().expect("no worker panicked").extend(mine);
                });
            }
        });
        let mut ops = done.into_inner().expect("no worker panicked");
        ops.sort_by_key(|op| op.index);
        ops
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    RoundOut {
        ops,
        wall_ns,
        steal_ns: 0,
        workers,
        targets_ns: None,
    }
}

/// Warms every workspace with one run of the first cell of each kind, so
/// fleets, pools and batches are built before timing starts.
pub fn warm_up(cells: &[Cell], workspaces: &mut [SuiteWorkspace]) -> Result<(), String> {
    let mut seen: Vec<Kind> = Vec::new();
    for cell in cells {
        if seen.contains(&cell.meta.kind) {
            continue;
        }
        seen.push(cell.meta.kind);
        for workspace in workspaces.iter_mut() {
            cell.backend
                .run_with_workspace(&cell.scenario, workspace)
                .map_err(|e| format!("warm-up {}: {e}", cell.meta.label))?;
        }
    }
    Ok(())
}

/// How to assemble one scenario: the program's registry names, resolved
/// by `ScenarioBuilder::build`, or — in traced runs — the same objects
/// behind the benchmark's forwarding wrappers.
pub struct Recipe<'a> {
    pub costs: &'a [SharedCost],
    pub f: usize,
    pub filter: &'static str,
    /// `(agent, attack name, attack seed)`.
    pub attacks: Vec<(usize, &'static str, u64)>,
    pub net_faults: Vec<(usize, NetFault)>,
    pub options: RunOptions,
    pub recording: Recording,
}

impl Recipe<'_> {
    /// Builds the scenario, recording a `Build` span when traced.
    pub fn build(self, id: u32, tap: Option<&Tap>) -> Result<Scenario, String> {
        let mut builder = Scenario::builder().faults(self.f);
        builder = match tap {
            None => builder.problem(self.costs.to_vec()).filter(self.filter),
            Some(tap) => {
                let costs: Vec<SharedCost> = self
                    .costs
                    .iter()
                    .map(|c| TracedCost::shared(c.clone(), tap.clone()))
                    .collect();
                let inner = by_name(self.filter).map_err(|e| e.to_string())?;
                builder
                    .problem(costs)
                    .filter_instance(TracedFilter::new(inner, tap.clone()))
            }
        };
        for (agent, name, seed) in self.attacks {
            builder = match tap {
                None => builder.attack_seeded(agent, name, seed),
                Some(tap) => {
                    attack_by_name(name, seed).map_err(|e| e.to_string())?;
                    let tap = tap.clone();
                    builder.attack_with(agent, name, move || {
                        let inner = attack_by_name(name, seed).expect("resolved at build time");
                        Box::new(TracedAttack::new(inner, tap.clone()))
                    })
                }
            };
        }
        for (agent, fault) in self.net_faults {
            builder = builder.net_fault(agent, fault);
        }
        let builder = builder.options(self.options).record(self.recording);
        let start = trace::now_ns();
        let built = builder.build().map_err(|e| e.to_string());
        if tap.is_some() {
            trace::record(SpanName::Build, id, start, trace::now_ns());
        }
        built
    }
}

/// Run options with every knob the benchmark pins set explicitly — the
/// `ABFT_*` environment defaults are never consulted.
pub fn pinned_options(
    x0: Vector,
    reference: Vector,
    iterations: usize,
    aggregation_threads: usize,
    fleet_workers: usize,
) -> RunOptions {
    RunOptions {
        x0,
        iterations,
        schedule: StepSchedule::paper(),
        projection: ProjectionSet::paper(),
        reference,
        aggregation_threads,
        fleet_workers,
        telemetry: TelemetryConfig::Off,
        staleness_ns: None,
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A cell's identity as per-layer analysis needs it.
#[derive(Clone)]
pub struct CellInfo {
    pub id: u32,
    pub meta: CellMeta,
    pub counts: Option<Arc<CellCounts>>,
}

/// One benchmark workload: a fixed set of operations run in whole rounds.
pub trait Workload {
    /// Runs every operation once. `keep` keeps final estimates for checks.
    fn round(&mut self, keep: bool) -> RoundOut;

    /// Checks the first round's outputs (it keeps its estimates) against
    /// the benchmark's own computations; may run extra, untimed
    /// operations.
    fn check(&mut self, first: &RoundOut) -> Result<(), String>;

    /// Checks a later round. Workloads whose rounds repeat the same
    /// inputs require the same outputs as the first round.
    fn check_round(&mut self, first: &RoundOut, round: &RoundOut) -> Result<(), String> {
        same_outputs(first, round)
    }

    /// The operations, index-aligned with [`RoundOut::ops`].
    fn cells(&self) -> Vec<CellInfo>;

    /// How a round's work is laid over the processors.
    fn spread(&self) -> Spread {
        Spread::Independent
    }
}

/// The [`CellInfo`]s of a grid.
pub fn infos(cells: &[Cell]) -> Vec<CellInfo> {
    cells
        .iter()
        .map(|c| CellInfo {
            id: c.id,
            meta: c.meta.clone(),
            counts: c.counts.clone(),
        })
        .collect()
}

/// `Err` listing every failed operation of a round.
pub fn no_failures(round: &RoundOut) -> Result<(), String> {
    let errors: Vec<&str> = round
        .ops
        .iter()
        .filter_map(|op| op.error.as_deref())
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("{} failed: {}", errors.len(), errors.join("; ")))
    }
}

/// `Err` on a failed operation or on an output that differs from the
/// first round's.
pub fn same_outputs(first: &RoundOut, round: &RoundOut) -> Result<(), String> {
    no_failures(round)?;
    match first
        .ops
        .iter()
        .zip(&round.ops)
        .find(|(a, b)| a.digest != b.digest)
    {
        Some((a, _)) => Err(format!("op {} changed its output between rounds", a.index)),
        None => Ok(()),
    }
}

/// The kept final estimate of op `i`.
pub fn estimate(round: &RoundOut, i: usize) -> Result<&[f64], String> {
    round.ops[i]
        .estimate
        .as_deref()
        .ok_or_else(|| format!("op {i} kept no estimate"))
}
