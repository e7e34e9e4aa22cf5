//! Measurement helpers: exact order statistics over raw samples, process
//! counters read from `/proc`, and the metric report the benchmark prints.

use std::time::Duration;

/// Raw duration samples in nanoseconds, reported as exact order statistics.
///
/// `lps_workload::LatencyHistogram` buckets at ~3 % relative width, which
/// is coarser than the run-to-run spread the benchmark must resolve and
/// makes repeated runs read bit-identical values; the benchmark's sample
/// counts are small enough to keep every sample instead.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Nearest-rank quantile `q` of `ns`, in microseconds (0 when empty).
fn quantile(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Quantile `q` over all samples, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.ns, q)
    }

    pub fn max_us(&self) -> f64 {
        self.quantile_us(1.0)
    }

    /// Whether at least ten samples lie beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        (self.ns.len() as f64 * (1.0 - q)).floor() >= 10.0
    }

    /// Human-readable note for quantile `q`: the sample count, and a
    /// warning when fewer than ten samples lie beyond it.
    pub fn note(&self, q: f64) -> String {
        if self.supports(q) {
            format!("n={}", self.len())
        } else {
            format!("n={}, fewer than 10 samples beyond p{}", self.len(), q * 100.0)
        }
    }
}

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: u64 = 100;

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of the whole process, including exited threads.
pub fn process_cpu() -> Duration {
    let stat = proc_file("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// CPU time of the calling thread (scheduler accounting, nanoseconds).
pub fn thread_cpu() -> Duration {
    let stat = proc_file("/proc/thread-self/schedstat");
    Duration::from_nanos(stat.split_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0))
}

fn status_field(name: &str) -> u64 {
    proc_file("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Threads alive in this process.
pub fn thread_count() -> u64 {
    status_field("Threads:")
}

/// The metrics one run prints: a human-readable table on stdout, then the
/// one-line JSON result the benchmark contract requires.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_noted(name, value, unit, String::new());
    }

    /// Add a metric with a note (sample count, probe marker) for the table.
    pub fn add_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit, note));
    }

    pub fn print_table(&self) {
        for (name, value, unit, note) in &self.metrics {
            if note.is_empty() {
                println!("  {name:<40} {value:>16.4} {unit}");
            } else {
                println!("  {name:<40} {value:>16.4} {unit:<8} ({note})");
            }
        }
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s = Samples::default();
        for ns in (1..=1000u64).rev() {
            s.push_ns(ns * 1000);
        }
        assert_eq!(s.quantile_us(0.5), 500.0);
        assert_eq!(s.quantile_us(0.99), 990.0);
        assert_eq!(s.max_us(), 1000.0);
        assert!(s.supports(0.99));
        assert!(!s.supports(0.999));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.add("setup_s", 0.25, "s");
        let line = r.json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn proc_counters_read_this_process() {
        assert!(thread_count() >= 1);
        assert!(peak_rss_mib() > 0.0);
    }
}
