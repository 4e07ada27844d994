//! `wide-aggregate`: `d = 10 000` with tens of agents, where filter
//! kernels, the `linalg` worker pool and the fleet's multi-worker
//! dispatch do the work. Costs are isotropic quadratics `‖x − c_i‖²`
//! around seeded clustered centres, with an `O(d)` gradient.

use crate::checks::{self, Theorem5};
use crate::grid::{self, Cell, CellInfo, CellMeta, Kind, Recipe, RoundOut, Workload};
use crate::paper::OBSERVABLE;
use crate::steal::Spread;
use abft_dgd::StepSchedule;
use abft_filters::filter_names;
use abft_linalg::Vector;
use abft_problems::{CostFunction, SharedCost};
use abft_scenario::{Backend, InProcess, Recording, SuiteWorkspace, Threaded};
use std::sync::Arc;

pub const N: usize = 20;
pub const F: usize = 1;
pub const D: usize = 10_000;
pub const T: usize = 6;
/// Spread of the centres around their cluster mean (per coordinate).
pub const CLUSTER_SPREAD: f64 = 0.05;
/// Fault-free cells must end this close to the mean of the centres.
pub const FAULT_FREE_TOLERANCE: f64 = 1e-6;
/// The omniscient attacks, which run in-process.
pub const OMNISCIENT: [&str; 2] = ["little-is-enough", "inner-product"];

/// `Q(x) = ‖x − c‖²`, gradient `2(x − c)` in `O(d)`.
pub struct IsotropicCost {
    centre: Vector,
}

impl CostFunction for IsotropicCost {
    fn dim(&self) -> usize {
        self.centre.dim()
    }

    fn value(&self, x: &Vector) -> f64 {
        x.iter()
            .zip(self.centre.iter())
            .map(|(a, c)| (a - c) * (a - c))
            .sum()
    }

    fn gradient(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.dim());
        self.gradient_into(x, out.as_mut_slice());
        out
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        for ((slot, a), c) in out.iter_mut().zip(x.iter()).zip(self.centre.iter()) {
            *slot = 2.0 * (a - c);
        }
    }
}

/// The step schedule of a cell: the paper's `1.5/(t+1)`, divided by
/// `n − f` for CGE, which sums (rather than averages) the `n − f`
/// gradients it keeps — without the rescaling its first steps overshoot
/// by a factor of about `3(n − f)` and a `T`-round cell ends on the
/// projection box instead of near `x_H`.
pub fn schedule(filter: &str) -> StepSchedule {
    let numerator = if filter == "cge" {
        1.5 / (N - F) as f64
    } else {
        1.5
    };
    StepSchedule::Harmonic { numerator }
}

/// A standard normal draw from a SplitMix64 stream (Box–Muller).
pub fn gaussian(state: &mut u64) -> f64 {
    let mut uniform = || {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (grid::mix(*state, 0) >> 11) as f64 / (1u64 << 53) as f64
    };
    let u1 = uniform().max(f64::MIN_POSITIVE);
    let u2 = uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `n` centres clustered around one seeded mean.
pub fn centres(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = grid::mix(seed, 200);
    let mean: Vec<f64> = (0..d).map(|_| gaussian(&mut state)).collect();
    (0..n)
        .map(|_| {
            mean.iter()
                .map(|m| m + CLUSTER_SPREAD * gaussian(&mut state))
                .collect()
        })
        .collect()
}

pub struct WideAggregate {
    costs: Vec<SharedCost>,
    x_h: Vec<f64>,
    x_all: Vec<f64>,
    theorem5: Theorem5,
    attack_seed: u64,
    cells: Vec<Cell>,
    workspaces: Vec<SuiteWorkspace>,
}

impl WideAggregate {
    /// `probe` builds a single fleet cell and a single in-process cell.
    pub fn setup(seed: u64, trace: bool, id_base: u32, probe: bool) -> Result<Self, String> {
        let centres = centres(seed, N, D);
        let costs: Vec<SharedCost> = centres
            .iter()
            .map(|c| {
                Arc::new(IsotropicCost {
                    centre: Vector::from(c.clone()),
                }) as SharedCost
            })
            .collect();
        let honest: Vec<usize> = (F..N).collect();
        let all: Vec<usize> = (0..N).collect();
        let x_h = checks::mean_of(&centres, &honest);
        let x_all = checks::mean_of(&centres, &all);
        let theorem5 = checks::theorem5_isotropic(&centres, F);
        let attack_seed = grid::mix(seed, 9);
        let threads = grid::nproc();

        let mut specs: Vec<(Kind, &'static str, Option<&'static str>)> =
            vec![(Kind::Fleet, "mean", None)];
        let filters: Vec<&'static str> = if probe {
            vec!["cge"]
        } else {
            filter_names().to_vec()
        };
        for &filter in &filters {
            for attack in OBSERVABLE {
                specs.push((Kind::Fleet, filter, Some(attack)));
            }
            for attack in OMNISCIENT {
                specs.push((Kind::InProcess, filter, Some(attack)));
            }
        }
        if probe {
            specs.retain(|s| s.2 == Some("gradient-reverse") || s.2 == Some("little-is-enough"));
        }
        let mut cells = Vec::new();
        for (kind, filter, attack) in specs {
            let id = id_base + cells.len() as u32;
            let reference = if attack.is_some() { &x_h } else { &x_all };
            let fleet_workers = if kind == Kind::Fleet { threads } else { 1 };
            let mut options = grid::pinned_options(
                Vector::zeros(D),
                Vector::from(reference.clone()),
                T,
                threads,
                fleet_workers,
            );
            options.schedule = schedule(filter);
            let taps = grid::taps(trace, id, true);
            let scenario = Recipe {
                costs: &costs,
                f: F,
                filter,
                attacks: attack
                    .map(|a| {
                        (0..F)
                            .map(|agent| (agent, a, attack_seed + agent as u64))
                            .collect()
                    })
                    .unwrap_or_default(),
                net_faults: Vec::new(),
                options,
                recording: Recording::SummaryOnly,
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
                    group: 0,
                    observed: false,
                },
                backend,
                scenario,
                counts: taps.map(|t| t.1),
            });
        }
        let mut workspaces = vec![SuiteWorkspace::new()];
        grid::warm_up(&cells, &mut workspaces)?;
        Ok(WideAggregate {
            costs,
            x_h,
            x_all,
            theorem5,
            attack_seed,
            cells,
            workspaces,
        })
    }

    /// Reruns the CGE gradient-reverse cell with serial aggregation and
    /// one fleet worker; its estimate must equal the parallel one bit for
    /// bit.
    fn serial_rerun(&self, first: &RoundOut) -> Result<(), String> {
        let index = self
            .cells
            .iter()
            .position(|c| c.meta.filter == "cge" && c.meta.attack == Some("gradient-reverse"))
            .ok_or("no cge/gradient-reverse cell")?;
        let mut options =
            grid::pinned_options(Vector::zeros(D), Vector::from(self.x_h.clone()), T, 1, 1);
        options.schedule = schedule("cge");
        let scenario = Recipe {
            costs: &self.costs,
            f: F,
            filter: "cge",
            attacks: (0..F)
                .map(|agent| (agent, "gradient-reverse", self.attack_seed + agent as u64))
                .collect(),
            net_faults: Vec::new(),
            options,
            recording: Recording::SummaryOnly,
        }
        .build(u32::MAX, None)?;
        let serial = Threaded.run(&scenario).map_err(|e| e.to_string())?;
        let parallel = grid::estimate(first, index)?;
        let same = serial
            .final_estimate
            .iter()
            .zip(parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if same && serial.final_estimate.dim() == parallel.len() {
            Ok(())
        } else {
            Err("serial rerun of cge/gradient-reverse differs from the parallel run".into())
        }
    }
}

impl Workload for WideAggregate {
    fn round(&mut self, keep: bool) -> RoundOut {
        grid::run_cells(&self.cells, &mut self.workspaces, keep)
    }

    fn check(&mut self, first: &RoundOut) -> Result<(), String> {
        grid::no_failures(first)?;
        for (i, cell) in self.cells.iter().enumerate() {
            let estimate = grid::estimate(first, i)?;
            let label = &cell.meta.label;
            match (cell.meta.attack, cell.meta.filter) {
                (None, _) => checks::within(label, estimate, &self.x_all, FAULT_FREE_TOLERANCE)?,
                (Some(_), "cge") => {
                    checks::within(label, estimate, &self.x_h, self.theorem5.radius)?
                }
                _ => {}
            }
        }
        self.serial_rerun(first)
    }

    /// Fleet rounds and parallel aggregation wait for every worker.
    fn spread(&self) -> Spread {
        Spread::Lockstep
    }

    fn cells(&self) -> Vec<CellInfo> {
        grid::infos(&self.cells)
    }
}
