//! Metric declarations, summary statistics and the result line.

use crate::workload::Family;

/// End-to-end metrics, printed by every measured run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_vs_baseline", "x"),
    ("round_vs_baseline", "x"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_row", "B/row"),
];

/// The four execution arms, as `<path>-<backend>` labels.
pub const ARM_LABELS: [&str; 4] =
    ["pooled-interp", "pooled-compiled", "streamed-interp", "streamed-compiled"];

/// Unit of modelled (never measured) times: kept apart from `ms` so no
/// reader can add them to a measured figure by accident.
pub const MODELLED_MS: &str = "ms-modelled";

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve.remainder_ms", "ms"),
        ("serve.queue_ms.p50", "ms"),
        ("serve.queue_ms.p99", "ms"),
        ("serve.plan_hit_rate", "frac"),
        ("serve.compiled_share", "frac"),
        ("serve.streamed_share", "frac"),
        ("serve.rss_kb_per_request", "KB"),
        ("planner.plan_ms", "ms"),
        ("planner.shards", "count"),
        ("route.keys_ms", "ms"),
        ("route.split_ms", "ms"),
        ("route.rows_per_s", "rows/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for f in Family::ALL {
        for arm in ARM_LABELS {
            v.push((format!("exec.{}.{arm}_ms", f.name()), "ms"));
        }
    }
    v.push(("exec.fixed_us.pooled".into(), "us"));
    v.push(("exec.fixed_us.streamed".into(), "us"));
    let per_family: [(&str, &str, &'static str); 6] = [
        ("merge.", "_ms", "ms"),
        ("prune.", ".survivor_frac", "frac"),
        ("baseline.", "_ms", "ms"),
        ("speedup.", "", "x"),
        ("model.transfer_ms.", "", MODELLED_MS),
        ("model.ingest_ms.", "", MODELLED_MS),
    ];
    for (pre, post, unit) in per_family {
        for f in Family::ALL {
            v.push((format!("{pre}{}{post}", f.name()), unit));
        }
    }
    v.push(("trace.overhead_frac".into(), "frac"));
    v
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `None` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// A run's metrics, in declaration order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, String)>,
    missing: Vec<String>,
}

impl Metrics {
    /// Record `name`; a missing or non-finite value is remembered and
    /// fails the run instead of printing an invalid figure.
    pub fn put(&mut self, name: &str, unit: &str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.values.push((name.to_string(), v, unit.to_string())),
            _ => self.missing.push(name.to_string()),
        }
    }

    pub fn names(&self) -> Vec<&str> {
        self.values
            .iter()
            .map(|(n, _, _)| n.as_str())
            .chain(self.missing.iter().map(String::as_str))
            .collect()
    }

    pub fn missing(&self) -> &[String] {
        &self.missing
    }

    /// Names declared for this kind of run (per-layer when `traced`)
    /// that carry no value, or values that carry no declared name.
    pub fn off_contract(&self, traced: bool) -> Vec<String> {
        let declared: Vec<String> = if traced {
            per_layer().into_iter().map(|(n, _)| n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
        };
        let printed: Vec<&str> = self.values.iter().map(|(n, _, _)| n.as_str()).collect();
        let absent = declared.iter().filter(|d| !printed.contains(&d.as_str())).cloned();
        let extra =
            printed.iter().filter(|p| !declared.iter().any(|d| d == *p)).map(|p| p.to_string());
        absent.chain(extra).collect()
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn table(&self) -> String {
        self.values.iter().map(|(n, v, u)| format!("  {n:<34} {v:>16.6} {u}\n")).collect()
    }
}

/// A finite float as JSON with every digit Rust's shortest round-trip
/// formatting gives it.
pub fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The contract's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
    }

    #[test]
    fn five_end_to_end_and_85_per_layer_metrics() {
        assert_eq!(END_TO_END.len(), 5);
        assert_eq!(per_layer().len(), 85);
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }

    #[test]
    fn missing_values_are_not_printed() {
        let mut m = Metrics::default();
        m.put("a", "ms", Some(1.0));
        m.put("b", "ms", Some(f64::NAN));
        m.put("c", "ms", None);
        assert_eq!(m.json(), "{\"a\": {\"value\": 1.0, \"unit\": \"ms\"}}");
        assert_eq!(m.missing(), ["b", "c"]);
    }
}
