//! `paper-sweep`: the Section-5 regression sweep at paper scale — every
//! registered filter against every attack, plus one fault-free cell, on
//! fan instances with `n = 9, f = 1, d = 2`, `T = 500`, dense recording,
//! on the in-process and threaded backends.

use crate::checks::{self, Theorem5};
use crate::grid::{self, Cell, CellInfo, CellMeta, Kind, Recipe, RoundOut, Workload};
use abft_attacks::ATTACK_NAMES;
use abft_core::SystemConfig;
use abft_filters::filter_names;
use abft_linalg::Vector;
use abft_problems::{RegressionProblem, SharedCost};
use abft_scenario::{Backend, InProcess, Recording, SuiteWorkspace, Threaded};

pub const N: usize = 9;
pub const F: usize = 1;
pub const T: usize = 500;
pub const INSTANCES: usize = 8;
/// Fan spread in degrees (the paper's six rows are a 150° fan).
pub const SPREAD: f64 = 150.0;
/// Observation noise standard deviation.
pub const NOISE: f64 = 0.05;
/// The attacks the message-passing backends can run (the omniscient ones
/// need the in-process driver).
pub const OBSERVABLE: [&str; 4] = ["gradient-reverse", "random", "scaled-reverse", "zero"];
/// The paper's Section-5 starting point.
pub const X0: [f64; 2] = [-0.0085, -0.5643];
/// Fault-free cells must end this close to `x_H` after `T` rounds.
pub const FAULT_FREE_TOLERANCE: f64 = 0.05;

/// One seeded fan instance and its reference quantities.
pub struct Instance {
    pub costs: Vec<SharedCost>,
    /// Minimizer over the honest agents `1..n`.
    pub x_h: [f64; 2],
    /// Minimizer over all agents (the fault-free cells' target).
    pub x_all: [f64; 2],
    pub theorem5: Theorem5,
}

impl Instance {
    /// The fan instance for `seed`, with the benchmark's own references.
    pub fn generate(seed: u64) -> Result<Instance, String> {
        let config = SystemConfig::new(N, F).map_err(|e| e.to_string())?;
        let problem =
            RegressionProblem::fan(config, SPREAD, NOISE, seed).map_err(|e| e.to_string())?;
        let rows: Vec<[f64; 2]> = (0..N)
            .map(|i| {
                let row = problem.matrix().row_vector(i);
                [row[0], row[1]]
            })
            .collect();
        let obs = problem.observations().as_slice().to_vec();
        let honest: Vec<usize> = (1..N).collect();
        let all: Vec<usize> = (0..N).collect();
        let x_h = checks::lstsq2(&rows, &obs, &honest).ok_or("rank-deficient honest stack")?;
        let x_all = checks::lstsq2(&rows, &obs, &all).ok_or("rank-deficient stack")?;
        let theorem5 = checks::theorem5_regression(&rows, &obs, F).ok_or("degenerate subset")?;
        Ok(Instance {
            costs: problem.costs(),
            x_h,
            x_all,
            theorem5,
        })
    }
}

pub struct PaperSweep {
    pub instances: Vec<Instance>,
    cells: Vec<Cell>,
    workspaces: Vec<SuiteWorkspace>,
}

/// The seed of instance `i`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    grid::mix(seed, 100 + i as u64)
}

impl PaperSweep {
    /// `probe` builds one instance with a handful of cells, for the
    /// per-layer probes of other workloads' traced runs.
    pub fn setup(seed: u64, trace: bool, id_base: u32, probe: bool) -> Result<Self, String> {
        let (instance_count, filters, attacks): (usize, Vec<&'static str>, Vec<&'static str>) =
            if probe {
                (1, vec!["cge", "cwtm"], vec!["gradient-reverse"])
            } else {
                (INSTANCES, filter_names().to_vec(), ATTACK_NAMES.to_vec())
            };
        let instances = (0..instance_count)
            .map(|i| Instance::generate(instance_seed(seed, i)))
            .collect::<Result<Vec<_>, _>>()?;
        let attack_seed = grid::mix(seed, 7);
        let mut cells = Vec::new();
        for (g, inst) in instances.iter().enumerate() {
            for kind in [Kind::InProcess, Kind::Threaded] {
                let mut specs: Vec<(&'static str, Option<&'static str>)> = vec![("mean", None)];
                for &filter in &filters {
                    for &attack in &attacks {
                        if kind == Kind::InProcess || OBSERVABLE.contains(&attack) {
                            specs.push((filter, Some(attack)));
                        }
                    }
                }
                for (filter, attack) in specs {
                    let id = id_base + cells.len() as u32;
                    let reference = if attack.is_some() {
                        inst.x_h
                    } else {
                        inst.x_all
                    };
                    let options = grid::pinned_options(
                        Vector::from(X0.to_vec()),
                        Vector::from(reference.to_vec()),
                        T,
                        1,
                        1,
                    );
                    let taps = grid::taps(trace, id, false);
                    let scenario = Recipe {
                        costs: &inst.costs,
                        f: F,
                        filter,
                        attacks: attack.map(|a| (0, a, attack_seed)).into_iter().collect(),
                        net_faults: Vec::new(),
                        options,
                        recording: Recording::Full,
                    }
                    .build(id, taps.as_ref().map(|t| &t.0))?;
                    let backend: Box<dyn Backend> = match kind {
                        Kind::InProcess => Box::new(InProcess),
                        _ => Box::new(Threaded),
                    };
                    cells.push(Cell {
                        id,
                        meta: CellMeta {
                            label: format!("{}/{}", scenario.label(), backend.name()),
                            kind,
                            filter,
                            attack,
                            group: g,
                            observed: true,
                        },
                        backend,
                        scenario,
                        counts: taps.map(|t| t.1),
                    });
                }
            }
        }
        let workers = if probe { 1 } else { grid::nproc() };
        let mut workspaces: Vec<SuiteWorkspace> =
            (0..workers).map(|_| SuiteWorkspace::new()).collect();
        grid::warm_up(&cells, &mut workspaces)?;
        Ok(PaperSweep {
            instances,
            cells,
            workspaces,
        })
    }
}

impl Workload for PaperSweep {
    fn round(&mut self, keep: bool) -> RoundOut {
        grid::run_cells(&self.cells, &mut self.workspaces, keep)
    }

    fn check(&mut self, first: &RoundOut) -> Result<(), String> {
        grid::no_failures(first)?;
        for (i, cell) in self.cells.iter().enumerate() {
            let estimate = grid::estimate(first, i)?;
            let inst = &self.instances[cell.meta.group];
            let label = &cell.meta.label;
            match (cell.meta.attack, cell.meta.filter) {
                (None, _) => checks::within(label, estimate, &inst.x_all, FAULT_FREE_TOLERANCE)?,
                (Some(_), "cge") => {
                    checks::within(label, estimate, &inst.x_h, inst.theorem5.radius)?
                }
                _ => {}
            }
            if cell.meta.kind == Kind::Threaded {
                // The in-process twin: same instance, filter and attack.
                let twin = self
                    .cells
                    .iter()
                    .position(|c| {
                        c.meta.kind == Kind::InProcess
                            && c.meta.group == cell.meta.group
                            && c.meta.filter == cell.meta.filter
                            && c.meta.attack == cell.meta.attack
                    })
                    .ok_or_else(|| format!("{label}: no in-process twin"))?;
                let a: Vec<u64> = estimate.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = grid::estimate(first, twin)?
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                if a != b {
                    return Err(format!(
                        "{label}: threaded estimate differs from in-process bits"
                    ));
                }
            }
        }
        Ok(())
    }

    fn cells(&self) -> Vec<CellInfo> {
        grid::infos(&self.cells)
    }
}
