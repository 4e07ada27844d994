//! The time the host takes a virtual machine's processors away to run
//! other guests ("steal"), as the kernel counts it in `/proc/stat`.
//! Timings subtract it: on the shared 2-vCPU virtual machine the
//! reference figures come from, the host took up to half the machine's
//! processor time for whole 20-second runs, which no statistic over the
//! rounds of a run can absorb. Where the kernel reports no steal (bare
//! metal, or `/proc/stat` unreadable) nothing is subtracted.

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Steal counters of a fixed set of processors.
pub struct Steal {
    cpus: Vec<usize>,
    ns_per_tick: u64,
}

impl Steal {
    /// Steal over the processors the calling thread may run on now.
    pub fn new() -> Self {
        // SAFETY: `sysconf` only reads a configuration value.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
        let ticks_per_s = if ticks_per_s > 0 {
            ticks_per_s as u64
        } else {
            100
        };
        Steal {
            cpus: crate::pin::Mask::current().map_or_else(Vec::new, |m| m.cpus()),
            ns_per_tick: 1_000_000_000 / ticks_per_s,
        }
    }

    /// Nanoseconds stolen so far from processor `cpu`.
    pub fn cpu_ns(&self, cpu: usize) -> u64 {
        read()
            .into_iter()
            .find(|&(c, _)| c == cpu)
            .map_or(0, |(_, ticks)| ticks * self.ns_per_tick)
    }

    /// Nanoseconds stolen so far from each of the processors, in order.
    pub fn snapshot(&self) -> Vec<u64> {
        let counts = read();
        self.cpus
            .iter()
            .map(|cpu| {
                counts
                    .iter()
                    .find(|(c, _)| c == cpu)
                    .map_or(0, |(_, ticks)| ticks * self.ns_per_tick)
            })
            .collect()
    }
}

/// How a round's work is laid over the processors, which decides how
/// much of the steal between two snapshots the round loses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spread {
    /// Suite workers that each take the next operation from a shared
    /// queue: while the host holds one processor the others keep working,
    /// so the round loses the processors' mean steal.
    Independent,
    /// Threads that wait for each other at every step (the fleet's and
    /// the worker pool's barriers): the round stalls while the host holds
    /// any of the processors. Taking the processors' steal as independent,
    /// it loses the share `1 − Π(1 − s_k)` of its wall time, where `s_k` is
    /// processor `k`'s steal over that time.
    Lockstep,
}

/// The part of `wall_ns` a round lost to steal, from the processors'
/// counters `before` and `after` it.
pub fn lost_ns(before: &[u64], after: &[u64], wall_ns: u64, spread: Spread) -> u64 {
    if before.is_empty() || wall_ns == 0 {
        return 0;
    }
    let stolen = before.iter().zip(after).map(|(b, a)| a.saturating_sub(*b));
    match spread {
        Spread::Independent => stolen.sum::<u64>() / before.len() as u64,
        Spread::Lockstep => {
            let kept: f64 = stolen
                .map(|ns| 1.0 - (ns as f64 / wall_ns as f64).min(1.0))
                .product();
            ((1.0 - kept) * wall_ns as f64).round() as u64
        }
    }
}

/// `(processor, steal ticks)` for every `cpuN` line of `/proc/stat`.
fn read() -> Vec<(usize, u64)> {
    std::fs::read_to_string("/proc/stat")
        .map(|text| parse(&text))
        .unwrap_or_default()
}

fn parse(text: &str) -> Vec<(usize, u64)> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let cpu = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            // user nice system idle iowait irq softirq steal
            let steal = fields.nth(7)?.parse().ok()?;
            Some((cpu, steal))
        })
        .collect()
}

/// `wall_ns` less `steal_ns`, but never below a tenth of `wall_ns`: the
/// counters tick every 10 ms, so a short window can read more steal than
/// its length.
pub fn available_ns(wall_ns: u64, steal_ns: u64) -> u64 {
    wall_ns.saturating_sub(steal_ns).max(wall_ns / 10).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_steal_column_of_each_processor() {
        let text = "cpu  10 0 5 100 1 0 2 30 0 0\n\
                    cpu0 4 0 2 50 1 0 1 17 0 0\n\
                    cpu1 6 0 3 50 0 0 1 13 0 0\n\
                    intr 12345\n";
        assert_eq!(parse(text), vec![(0, 17), (1, 13)]);
    }

    #[test]
    fn rounds_lose_mean_or_combined_steal() {
        let (before, after) = ([100, 200], [300, 400]);
        assert_eq!(lost_ns(&before, &after, 1000, Spread::Independent), 200);
        // Each processor held 20% of the time: 1 − 0.8 · 0.8 = 36%.
        assert_eq!(lost_ns(&before, &after, 1000, Spread::Lockstep), 360);
        assert_eq!(lost_ns(&[], &[], 1000, Spread::Lockstep), 0);
    }

    #[test]
    fn available_time_never_vanishes() {
        assert_eq!(available_ns(1000, 300), 700);
        assert_eq!(available_ns(1000, 5000), 100);
    }
}
