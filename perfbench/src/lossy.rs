//! `lossy-net`: the paper's instance (`n = 6, f = 1`) on the three
//! simulated topologies — peer-to-peer over EIG, server, and asynchronous
//! server with jittered clocks and a finite staleness bound — over links
//! with delay, a reorder window, drop rates {0, 0.05, 0.1, 0.2} and one
//! scheduled partition. Each topology also has an ideal-links anchor cell.

use crate::checks;
use crate::grid::{self, Cell, CellInfo, CellMeta, Kind, Recipe, RoundOut, Workload};
use crate::paper;
use abft_linalg::Vector;
use abft_problems::{RegressionProblem, SharedCost};
use abft_scenario::{
    AsyncConfig, Backend, InProcess, LinkModel, NetFault, NetworkModel, Partition, Recording,
    Simulated, SuiteWorkspace,
};

pub const T: usize = 150;
pub const DROPS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
pub const FILTERS: [&str; 2] = ["cge", "cwtm"];
/// The drop rate of the peer-to-peer column that adds equivocation. One
/// column, not one per drop rate: the long peer-to-peer cells then stay
/// well short of half the round, so `scenario_p50_ms` falls inside the
/// short cells' times rather than on the step up to the long ones.
pub const EQUIVOCATE_DROP: f64 = 0.1;
pub const LINK_DELAY_NS: u64 = 200_000;
pub const LINK_REORDER_NS: u64 = 850_000;
/// Agent 5 is cut off for iterations 40..50.
pub const PARTITION: (usize, usize, usize) = (5, 40, 50);
pub const ASYNC_JITTER_NS: u64 = 300_000;
/// τ = two aggregation steps.
pub const ASYNC_STALENESS_NS: u64 = 2 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;

/// The link model of a lossy cell with drop probability `drop`.
pub fn lossy_network(seed: u64, drop: f64) -> NetworkModel {
    let (agent, from, until) = PARTITION;
    NetworkModel::seeded(seed)
        .with_default_link(
            LinkModel::ideal()
                .with_delay_ns(LINK_DELAY_NS)
                .with_reorder_ns(LINK_REORDER_NS)
                .with_drop(drop),
        )
        .with_partition(Partition::isolate(vec![agent], from, until))
}

/// The jittered, τ-bounded clocks of the asynchronous cells.
pub fn lossy_async(seed: u64) -> AsyncConfig {
    AsyncConfig::new()
        .with_compute_jitter_ns(ASYNC_JITTER_NS)
        .with_clock_seed(seed)
        .with_staleness_ns(ASYNC_STALENESS_NS)
}

/// Cell groups.
const LOSSY: usize = 0;
const EQUIVOCATE: usize = 1;
const ANCHOR: usize = 2;

pub struct LossyNet {
    costs: Vec<SharedCost>,
    x_h: Vector,
    cells: Vec<Cell>,
    workspaces: Vec<SuiteWorkspace>,
}

impl LossyNet {
    /// `probe` builds one lossy cell per topology and nothing else.
    pub fn setup(seed: u64, trace: bool, id_base: u32, probe: bool) -> Result<Self, String> {
        let problem = RegressionProblem::paper_instance();
        let costs = problem.costs();
        let x_h = problem
            .subset_minimizer(&[1, 2, 3, 4, 5])
            .map_err(|e| e.to_string())?;
        let net_seed = grid::mix(seed, 300);
        let clock_seed = grid::mix(seed, 301);
        let drops: Vec<f64> = if probe { vec![0.1] } else { DROPS.to_vec() };
        let filters: Vec<&'static str> = if probe { vec!["cge"] } else { FILTERS.to_vec() };

        let mut specs: Vec<(Kind, usize, f64, &'static str)> = Vec::new();
        for kind in [Kind::P2p, Kind::SimServer, Kind::SimAsync] {
            for &drop in &drops {
                for &filter in &filters {
                    specs.push((kind, LOSSY, drop, filter));
                }
            }
        }
        if !probe {
            for &filter in &filters {
                specs.push((Kind::P2p, EQUIVOCATE, EQUIVOCATE_DROP, filter));
            }
            for kind in [Kind::P2p, Kind::SimServer, Kind::SimAsync] {
                specs.push((kind, ANCHOR, 0.0, "cge"));
            }
        }

        let mut cells = Vec::new();
        for (kind, group, drop, filter) in specs {
            let id = id_base + cells.len() as u32;
            let network = if group == ANCHOR {
                NetworkModel::seeded(net_seed)
            } else {
                lossy_network(net_seed, drop)
            };
            let backend = match kind {
                Kind::P2p => Simulated::peer_to_peer(network),
                Kind::SimServer => Simulated::server(network),
                _ if group == ANCHOR => Simulated::async_server(network, AsyncConfig::new()),
                _ => Simulated::async_server(network, lossy_async(clock_seed)),
            };
            let net_faults = if group == EQUIVOCATE {
                vec![(0, NetFault::EquivocateSplit { boundary: 3 })]
            } else {
                Vec::new()
            };
            let taps = grid::taps(trace, id, false);
            let scenario = Recipe {
                costs: &costs,
                f: 1,
                filter,
                attacks: vec![(0, "gradient-reverse", 0)],
                net_faults,
                options: grid::pinned_options(
                    Vector::from(paper::X0.to_vec()),
                    x_h.clone(),
                    T,
                    1,
                    1,
                ),
                recording: Recording::SummaryOnly,
            }
            .build(id, taps.as_ref().map(|t| &t.0))?;
            cells.push(Cell {
                id,
                meta: CellMeta {
                    label: format!("{}/{:?}/drop={drop}/group={group}", scenario.label(), kind),
                    kind,
                    filter,
                    attack: Some("gradient-reverse"),
                    group,
                    observed: false,
                },
                backend: Box::new(backend),
                scenario,
                counts: taps.map(|t| t.1),
            });
        }
        // `nproc` suite workers: the long peer-to-peer cells make the
        // tail of each round, which `scenario.worker_idle_ms` measures.
        let workers = if probe { 1 } else { grid::nproc() };
        let mut workspaces: Vec<SuiteWorkspace> =
            (0..workers).map(|_| SuiteWorkspace::new()).collect();
        grid::warm_up(&cells, &mut workspaces)?;
        Ok(LossyNet {
            costs,
            x_h,
            cells,
            workspaces,
        })
    }
}

impl Workload for LossyNet {
    fn round(&mut self, keep: bool) -> RoundOut {
        grid::run_cells(&self.cells, &mut self.workspaces, keep)
    }

    fn check(&mut self, first: &RoundOut) -> Result<(), String> {
        grid::no_failures(first)?;
        for (cell, op) in self.cells.iter().zip(&first.ops) {
            let net = &op.net;
            checks::conserved(
                &cell.meta.label,
                net.sent,
                net.delivered,
                net.dropped,
                net.late,
            )?;
        }
        // Determinism: a lossy peer-to-peer cell at the highest drop
        // rate, run again, reproduces its schedule digest and estimate.
        let highest = format!("/drop={}/", DROPS[DROPS.len() - 1]);
        let (index, cell) = self
            .cells
            .iter()
            .enumerate()
            .find(|(_, c)| {
                c.meta.kind == Kind::P2p && c.meta.group == LOSSY && c.meta.label.contains(&highest)
            })
            .ok_or("no lossy peer-to-peer cell at the highest drop rate")?;
        let again = cell
            .backend
            .run(&cell.scenario)
            .map_err(|e| e.to_string())?;
        let before = &first.ops[index];
        if again.metrics.net.schedule_digest != before.net.schedule_digest
            || checks::digest(again.final_estimate.as_slice()) != before.digest
        {
            return Err(format!(
                "{}: rerun changed the schedule or estimate",
                cell.meta.label
            ));
        }
        // Ideal-links anchors equal the in-process estimate bit for bit.
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.meta.group != ANCHOR {
                continue;
            }
            let reference = Recipe {
                costs: &self.costs,
                f: 1,
                filter: cell.meta.filter,
                attacks: vec![(0, "gradient-reverse", 0)],
                net_faults: Vec::new(),
                options: grid::pinned_options(
                    Vector::from(paper::X0.to_vec()),
                    self.x_h.clone(),
                    T,
                    1,
                    1,
                ),
                recording: Recording::SummaryOnly,
            }
            .build(u32::MAX, None)?;
            let in_process = InProcess.run(&reference).map_err(|e| e.to_string())?;
            if checks::digest(in_process.final_estimate.as_slice()) != first.ops[i].digest {
                return Err(format!(
                    "{}: anchor differs from in-process",
                    cell.meta.label
                ));
            }
        }
        Ok(())
    }

    fn cells(&self) -> Vec<CellInfo> {
        grid::infos(&self.cells)
    }
}
