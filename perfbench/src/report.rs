//! Metric values, the human-readable table and the final JSON line.

use crate::stats::{Pct, MIN_TAIL};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    /// Samples behind the value.
    samples: usize,
    /// For a percentile: samples ranked beyond it.
    beyond: Option<usize>,
    /// Whether the value is a stand-in for a layer this workload does
    /// not exercise (or cannot see from outside).
    absent: bool,
}

impl Metric {
    /// A plain value over `samples` samples.
    pub fn value(
        name: &'static str,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            beyond: None,
            absent: false,
        }
    }

    /// A percentile, carrying its support.
    pub fn pct(name: &'static str, unit: &'static str, p: Option<Pct>) -> Self {
        Metric {
            name,
            unit,
            value: p.map(|p| p.value),
            samples: p.map_or(0, |p| p.n),
            beyond: Some(p.map_or(0, |p| p.beyond)),
            absent: false,
        }
    }

    /// A layer metric this workload does not exercise: reported as 0
    /// over 0 samples.
    pub fn absent(name: &'static str, unit: &'static str) -> Self {
        Metric {
            name,
            unit,
            value: Some(0.0),
            samples: 0,
            beyond: None,
            absent: true,
        }
    }

    /// Whether this is a percentile of a distribution (its name ends in
    /// `_pNN`) without [`MIN_TAIL`] samples beyond it.
    fn undersampled(&self) -> bool {
        let percentile = self
            .name
            .rsplit_once("_p")
            .is_some_and(|(_, q)| q.parse::<u32>().is_ok());
        percentile && !self.absent && self.beyond.is_some_and(|b| b < MIN_TAIL)
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Outcome {
    /// An outcome with the given operation counts.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds an informational line to the table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Validates the metrics, prints the table and the final JSON line,
    /// and returns whether the run was correct.
    pub fn finish(mut self) -> bool {
        for m in &self.metrics {
            match m.value {
                Some(v) if v.is_finite() => {}
                _ => self
                    .failures
                    .push(format!("metric {} could not be computed", m.name)),
            }
            if m.undersampled() {
                self.failures.push(format!(
                    "{} has {} samples beyond it; at least {MIN_TAIL} are needed",
                    m.name,
                    m.beyond.unwrap_or(0)
                ));
            }
        }
        println!(
            "{:<32} {:>14} {:<6} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let note = if m.absent {
                "not exercised by this workload".to_string()
            } else if m.undersampled() {
                format!("tail under-sampled: {} beyond", m.beyond.unwrap_or(0))
            } else {
                m.beyond.map(|b| format!("{b} beyond")).unwrap_or_default()
            };
            println!(
                "{:<32} {:>14.4} {:<6} {:>8}  {note}",
                m.name,
                m.value.unwrap_or(f64::NAN),
                m.unit,
                m.samples
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let correct = self.failures.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// Pushes the client-observed service and load-generator layers as
/// absent, for the in-process workloads.
pub fn absent_service_layers(out: &mut Outcome) {
    for (name, unit) in SERVICE_LAYERS {
        out.push(Metric::absent(name, unit));
    }
}

/// The client-observed service and load-generator layer metrics.
pub const SERVICE_LAYERS: [(&str, &str); 13] = [
    ("service.create_rtt_ms_p50", "ms"),
    ("service.suggest_rtt_ms_p50", "ms"),
    ("service.suggest_rtt_ms_p99", "ms"),
    ("service.observe_rtt_ms_p50", "ms"),
    ("service.observe_rtt_ms_p99", "ms"),
    ("service.ping_rtt_ms_p50", "ms"),
    ("service.ping_rtt_ms_p99", "ms"),
    ("service.queued_polls", "count"),
    ("service.suggest_useful_ratio", "ratio"),
    ("service.timeouts", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.open_sessions_max", "count"),
    ("loadgen.think_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_support() {
        let tail = Metric::pct(
            "x_ms_p99",
            "ms",
            Some(Pct {
                value: 1.0,
                n: 500,
                beyond: 5,
            }),
        );
        assert!(tail.undersampled());
        let median = Metric::pct(
            "x_ms_p50",
            "ms",
            Some(Pct {
                value: 1.0,
                n: 3,
                beyond: 1,
            }),
        );
        assert!(median.undersampled());
        let setup = Metric::pct(
            "setup_s",
            "s",
            Some(Pct {
                value: 1.0,
                n: 3,
                beyond: 1,
            }),
        );
        assert!(
            !setup.undersampled(),
            "a median of set-ups is not a latency percentile"
        );
        let ok = Metric::pct(
            "x_ms_p90",
            "ms",
            Some(Pct {
                value: 1.0,
                n: 100,
                beyond: 10,
            }),
        );
        assert!(!ok.undersampled());
        assert!(!Metric::absent("y_ms_p99", "ms").undersampled());
    }
}
