//! Sample statistics and the result line.

use std::collections::BTreeMap;

/// Nearest-rank percentile `q` ∈ [0, 1] of `xs` (NaN when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// One reported metric: value, unit and how many samples it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics keyed by name, printed in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Human-readable lines: name, value, unit and sample count.
    pub fn print_table(&self, workload: &str) {
        for (name, m) in &self.0 {
            println!(
                "# {workload:<11} {name:<34} {:>16} {:<7} n={}",
                m.value, m.unit, m.samples
            );
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value is reported as a failed check, never printed.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.0.values().all(|m| m.value.is_finite());
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|(_, m)| m.value.is_finite())
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite,
            body.join(", ")
        )
    }
}
