//! Metrics, failures and the three output forms: one human line per
//! metric, a JSON document per workload, and the single JSON result line.

use std::fmt::Write as _;

/// Why a run is not correct. Only `Samples` failures are tolerated by
/// the scaled-down smoke test, whose windows are too short for every
/// percentile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The daemon's report differed from the in-process oracle.
    Oracle(String),
    /// A wire operation failed (transport error or `Error` frame).
    Wire(String),
    /// The workload did not exercise the mechanism it exists for.
    Guard(String),
    /// Too few samples for the statistic asked of them.
    Samples(String),
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub failures: Vec<Failure>,
    /// Wire operations attempted and failed (oracle mismatches count as
    /// failed operations too).
    pub attempted: u64,
    pub failed: u64,
}

/// Nearest-rank percentile `p` (0 < p < 1) that has at least ten
/// samples beyond it; fewer is an error, never a silently rounded rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < 10 {
        return Err(format!(
            "p{} needs at least 10 samples beyond it, have {n} samples",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Plain median of repeated measurements of one quantity (set-up time).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN)
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// Records percentile `p` of `samples`, or a `Samples` failure.
    pub fn percentile(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match percentile(samples, p) {
            Ok(value) => self.metric(name, value, unit, samples.len()),
            Err(e) => {
                self.metric(name, f64::NAN, unit, samples.len());
                self.failures.push(Failure::Samples(format!("{name}: {e}")));
            }
        }
    }

    /// Counts one wire operation; an error becomes a `Wire` failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.failures.push(Failure::Wire(format!("{what}: {e}")));
                None
            }
        }
    }

    /// Records an oracle comparison outcome as one checked operation.
    pub fn oracle(&mut self, session: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures
                .push(Failure::Oracle(format!("{session}: {e}")));
        }
    }

    pub fn guard(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(Failure::Guard(what()));
        }
    }

    /// Folds in what a generator thread recorded on its own.
    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.failures.extend(other.failures);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `workload name value unit (n=samples)` per metric.
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{} {} {} {} (n={})",
                self.workload, m.name, m.value, m.unit, m.n
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "{} FAILED {f:?}", self.workload);
        }
        out
    }

    /// The full record: every metric with its sample count, and every
    /// failure.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.n
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| json_string(&format!("{f:?}")))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}, \"failures\": [{}]}}\n",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            failures.join(", ")
        )
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// named in `names` (prefixed with the workload when several reports are
/// merged).
pub fn result_line(reports: &[Report], names: &[&str]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for report in reports {
        for name in names {
            let key = if prefix {
                format!("{}/{name}", report.workload)
            } else {
                name.to_string()
            };
            let (value, unit) = report
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or((f64::NAN, "missing"), |m| (m.value, m.unit));
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports
            .iter()
            .all(|r| r.correct() && names_present(r, names)),
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn names_present(report: &Report, names: &[&str]) -> bool {
    names
        .iter()
        .all(|name| report.metrics.iter().any(|m| m.name == *name))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_refuse_thin_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(50.0));
        assert_eq!(percentile(&samples, 0.9), Ok(90.0));
        assert!(percentile(&samples, 0.99).is_err());
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }
}
