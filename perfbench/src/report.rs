//! Run outcomes, sample statistics and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// One named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (payments offered, transfers initiated,
    /// blocks ingested plus queries served).
    pub attempted: u64,
    /// Operations refused or answered wrongly.
    pub failed: u64,
    /// Context for the report header: sample counts, scale, input
    /// generation time.
    pub notes: Vec<(String, String)>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a header note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with all their digits.
pub fn json_line(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of `samples` (the mean of the middle pair for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest order statistic with at
/// least ten samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// Its percentile (share of samples at or below it, in percent).
    pub percentile: f64,
    /// Samples strictly beyond it in rank (fewer than ten only when
    /// the whole sample has at most ten values).
    pub beyond: usize,
}

/// See [`Tail`]. With ten samples or fewer the tail is the smallest
/// one, and `beyond` says how thin it is.
pub fn tail(samples: &[f64]) -> Tail {
    if samples.is_empty() {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len().saturating_sub(11);
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / sorted.len() as f64,
        beyond: sorted.len() - 1 - rank,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets this process's peak resident set size to its current one
/// (`/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers only
/// what ran after.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Fails with `what` unless `ok`.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&[3.0, 1.0]).value, 1.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
