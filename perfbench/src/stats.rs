//! Order statistics and the result line.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples an order statistic was taken over.
    pub samples: Option<usize>,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, None);
    }

    /// Appends a metric taken over `samples` samples.
    pub fn put_over(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name.to_owned(), value, unit, Some(samples));
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, samples: Option<usize>) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// One line per metric with its sample count, for people.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|m| {
                let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
                format!("{:<32} {:>16.4} {:<8}{samples}\n", m.name, m.value, m.unit)
            })
            .collect()
    }
}

/// The single-line JSON result the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.25), 2.0);
        assert_eq!(quantile(&samples, 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }
}
