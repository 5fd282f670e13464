//! Sample statistics and the metric record the benchmark prints.

use nonfifo_telemetry::Json;

/// Linear-interpolated quantile of `samples` (`q` in `0..=1`), the
/// convention of numpy's default and of `statistics.quantiles(...,
/// method="inclusive")`. `NaN` for an empty sample.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Ordered `name -> (value, unit)` metric list, rendered as the
/// `{"name": {"value": v, "unit": u}}` object of the result line.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".into(), num(*value)),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A finite float as JSON (non-finite values become `null`).
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

/// A float list as a JSON array.
pub fn nums(vs: &[f64]) -> Json {
    Json::Arr(vs.iter().map(|&v| num(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_linearly() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
