//! Spans and counters for traced runs, and the wrappers that record them.
//!
//! Each wrapper forwards every method of one layer's public trait object
//! (`CostFunction`, `GradientFilter`, `ByzantineStrategy`,
//! `abft_ml::Model`) to the program's own implementation, so a traced run
//! computes exactly what an untraced one does. Around the forwarded call
//! it counts the call and the allocations the calling thread made, and,
//! for calls long enough to time one by one, records a span in a
//! preallocated store. Calls shorter than a clock read (the `d = 2`
//! gradient fill, filters and attacks) are only counted; the replay loops
//! in `layers.rs` time them in bulk.

use crate::alloc;
use abft_attacks::{AttackContext, ByzantineStrategy};
use abft_filters::{FilterError, GradientFilter};
use abft_linalg::{GradientBatch, Vector};
use abft_ml::{Dataset, Model};
use abft_problems::{CostFunction, SharedCost};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u32)]
pub enum SpanName {
    /// One `Backend::run_with_workspace` call, or one D-SGD curve.
    Run = 0,
    /// One `ScenarioBuilder::build` call (or a D-SGD curve's model build).
    Build = 1,
    /// `CostFunction::gradient_into` / `gradient`.
    Gradient = 2,
    /// `GradientFilter::aggregate_into`.
    Aggregate = 3,
    /// `ByzantineStrategy::corrupt_into` / `corrupt`.
    Corrupt = 4,
    /// `Model::loss_and_gradient_into` / `loss_and_gradient`.
    MlGradient = 5,
    /// `Model::accuracy`.
    MlEval = 6,
}

impl SpanName {
    const ALL: [SpanName; 7] = [
        SpanName::Run,
        SpanName::Build,
        SpanName::Gradient,
        SpanName::Aggregate,
        SpanName::Corrupt,
        SpanName::MlGradient,
        SpanName::MlEval,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "scenario.run",
            SpanName::Build => "scenario.build",
            SpanName::Gradient => "problems.gradient",
            SpanName::Aggregate => "filters.aggregate",
            SpanName::Corrupt => "attacks.corrupt",
            SpanName::MlGradient => "ml.gradient",
            SpanName::MlEval => "ml.eval",
        }
    }

    fn from_u32(raw: u32) -> SpanName {
        SpanName::ALL
            .get(raw as usize)
            .copied()
            .unwrap_or(SpanName::Run)
    }
}

/// One recorded span. `cell` identifies the scenario (or curve) it
/// belongs to; its parent is that cell's `Run` span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub cell: u32,
    pub start: u64,
    pub end: u64,
}

#[derive(Default)]
struct Slot {
    name: AtomicU32,
    cell: AtomicU32,
    start: AtomicU64,
    end: AtomicU64,
}

struct Store {
    slots: Box<[Slot]>,
    next: AtomicUsize,
}

static STORE: OnceLock<Store> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Allocates the span store (traced runs only). Recording never
/// allocates: a span claims a slot with one atomic increment, and spans
/// past the capacity are counted as dropped instead of stored.
pub fn init_store(capacity: usize) {
    let _ = STORE.get_or_init(|| Store {
        slots: (0..capacity).map(|_| Slot::default()).collect(),
        next: AtomicUsize::new(0),
    });
}

/// Nanoseconds since the process's clock epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a span (a no-op before [`init_store`]).
pub fn record(name: SpanName, cell: u32, start: u64, end: u64) {
    let Some(store) = STORE.get() else {
        return;
    };
    let index = store.next.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = store.slots.get(index) {
        slot.name.store(name as u32, Ordering::Relaxed);
        slot.cell.store(cell, Ordering::Relaxed);
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
    }
}

/// Forgets every stored span (between the set-up and measured phases).
pub fn reset_store() {
    if let Some(store) = STORE.get() {
        store.next.store(0, Ordering::SeqCst);
    }
}

/// Every stored span, in claim order, plus the count dropped for lack of
/// capacity. Call only while no span is being recorded.
pub fn snapshot() -> (Vec<Span>, u64) {
    let Some(store) = STORE.get() else {
        return (Vec::new(), 0);
    };
    let claimed = store.next.load(Ordering::SeqCst);
    let stored = claimed.min(store.slots.len());
    let spans = store.slots[..stored]
        .iter()
        .map(|slot| Span {
            name: SpanName::from_u32(slot.name.load(Ordering::Relaxed)),
            cell: slot.cell.load(Ordering::Relaxed),
            start: slot.start.load(Ordering::Relaxed),
            end: slot.end.load(Ordering::Relaxed),
        })
        .collect();
    (spans, (claimed - stored) as u64)
}

/// Calls and allocations one layer made on behalf of one cell.
#[derive(Debug, Default)]
pub struct LayerCount {
    pub calls: AtomicU64,
    pub allocs: AtomicU64,
}

impl LayerCount {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }
}

/// The per-layer counters of one cell, summed over every run of it.
#[derive(Debug, Default)]
pub struct CellCounts {
    /// Whether the cell's wrappers record a span per call (otherwise the
    /// calls are only counted).
    pub timed: bool,
    pub problems: LayerCount,
    pub filters: LayerCount,
    pub attacks: LayerCount,
    pub ml: LayerCount,
}

impl CellCounts {
    /// Zeroes every counter (after warm-up runs).
    pub fn reset(&self) {
        for layer in [&self.problems, &self.filters, &self.attacks, &self.ml] {
            layer.reset();
        }
    }
}

/// A wrapper's handle on its cell: where to count, and whether to time.
#[derive(Clone)]
pub struct Tap {
    cell: u32,
    timed: bool,
    counts: Arc<CellCounts>,
}

impl Tap {
    /// `timed` records a span per call; otherwise calls are only counted.
    pub fn new(cell: u32, timed: bool, counts: Arc<CellCounts>) -> Self {
        Tap {
            cell,
            timed,
            counts,
        }
    }

    fn measure<R>(&self, name: SpanName, layer: &LayerCount, call: impl FnOnce() -> R) -> R {
        let allocs_before = alloc::thread_count();
        let start = if self.timed { now_ns() } else { 0 };
        let out = call();
        if self.timed {
            record(name, self.cell, start, now_ns());
        }
        layer.calls.fetch_add(1, Ordering::Relaxed);
        layer
            .allocs
            .fetch_add(alloc::thread_count() - allocs_before, Ordering::Relaxed);
        out
    }
}

/// A traced [`CostFunction`].
pub struct TracedCost {
    inner: SharedCost,
    tap: Tap,
}

impl TracedCost {
    pub fn shared(inner: SharedCost, tap: Tap) -> SharedCost {
        Arc::new(TracedCost { inner, tap })
    }
}

impl CostFunction for TracedCost {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &Vector) -> f64 {
        self.inner.value(x)
    }

    fn gradient(&self, x: &Vector) -> Vector {
        let tap = &self.tap;
        tap.measure(SpanName::Gradient, &tap.counts.problems, || {
            self.inner.gradient(x)
        })
    }

    fn gradient_into(&self, x: &Vector, out: &mut [f64]) {
        let tap = &self.tap;
        tap.measure(SpanName::Gradient, &tap.counts.problems, || {
            self.inner.gradient_into(x, out)
        })
    }
}

/// A traced [`GradientFilter`].
pub struct TracedFilter {
    inner: Box<dyn GradientFilter>,
    tap: Tap,
}

impl TracedFilter {
    pub fn new(inner: Box<dyn GradientFilter>, tap: Tap) -> Self {
        TracedFilter { inner, tap }
    }
}

impl GradientFilter for TracedFilter {
    fn aggregate_into(
        &self,
        batch: &GradientBatch,
        f: usize,
        out: &mut Vector,
    ) -> Result<(), FilterError> {
        let tap = &self.tap;
        tap.measure(SpanName::Aggregate, &tap.counts.filters, || {
            self.inner.aggregate_into(batch, f, out)
        })
    }

    fn aggregate(&self, gradients: &[Vector], f: usize) -> Result<Vector, FilterError> {
        let tap = &self.tap;
        tap.measure(SpanName::Aggregate, &tap.counts.filters, || {
            self.inner.aggregate(gradients, f)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A traced [`ByzantineStrategy`].
pub struct TracedAttack {
    inner: Box<dyn ByzantineStrategy>,
    tap: Tap,
}

impl TracedAttack {
    pub fn new(inner: Box<dyn ByzantineStrategy>, tap: Tap) -> Self {
        TracedAttack { inner, tap }
    }
}

impl ByzantineStrategy for TracedAttack {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        let tap = self.tap.clone();
        let inner = &mut self.inner;
        tap.measure(SpanName::Corrupt, &tap.counts.attacks, || {
            inner.corrupt_into(ctx, out)
        })
    }

    fn corrupt(&mut self, ctx: &AttackContext<'_>) -> Vector {
        let tap = self.tap.clone();
        let inner = &mut self.inner;
        tap.measure(SpanName::Corrupt, &tap.counts.attacks, || {
            inner.corrupt(ctx)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_omniscient(&self) -> bool {
        self.inner.is_omniscient()
    }
}

/// A traced [`Model`].
pub struct TracedModel<M> {
    inner: M,
    tap: Tap,
}

impl<M: Model> TracedModel<M> {
    pub fn new(inner: M, tap: Tap) -> Self {
        TracedModel { inner, tap }
    }
}

impl<M: Model> Model for TracedModel<M> {
    fn param_dim(&self) -> usize {
        self.inner.param_dim()
    }

    fn params(&self) -> Vector {
        self.inner.params()
    }

    fn set_params(&mut self, params: &Vector) {
        self.inner.set_params(params)
    }

    fn loss_and_gradient(&self, data: &Dataset, batch: &[usize]) -> (f64, Vector) {
        let tap = &self.tap;
        tap.measure(SpanName::MlGradient, &tap.counts.ml, || {
            self.inner.loss_and_gradient(data, batch)
        })
    }

    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64 {
        let tap = &self.tap;
        tap.measure(SpanName::MlGradient, &tap.counts.ml, || {
            self.inner.loss_and_gradient_into(data, batch, out)
        })
    }

    fn accuracy(&self, data: &Dataset) -> f64 {
        // Evaluation is timed but not counted as a per-round ml call.
        let start = now_ns();
        let accuracy = self.inner.accuracy(data);
        record(SpanName::MlEval, self.tap.cell, start, now_ns());
        accuracy
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_merges_overlaps_and_clips() {
        let mut children = vec![(5, 10), (0, 3), (8, 12), (20, 40)];
        // [0,3) clipped to [2,3): 1; [5,12): 7; [20,30): 10.
        assert_eq!(covered_ns(2, 30, &mut children), 18);
        assert_eq!(covered_ns(0, 5, &mut []), 0);
    }
}
