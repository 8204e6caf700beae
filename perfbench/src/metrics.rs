//! The metric table, summary statistics, and the result line.

use reclaim_service::json::Json;
use std::collections::BTreeMap;

/// Every end-to-end metric: `(name, unit)`. Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric: `(name, unit)`. Printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("proto.request_encode_us", "us"),
    ("proto.request_decode_us", "us"),
    ("proto.response_encode_us", "us"),
    ("proto.response_decode_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("key.content_key_us", "us"),
    ("key.patched_key_us", "us"),
    ("daemon.outside_solve_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.patch_us", "us"),
    ("prepared.prepare_ms", "ms"),
    ("sp.recognize_ms", "ms"),
    ("analysis.topo_us", "us"),
    ("analysis.reduction_ms", "ms"),
    ("sp.scaling_exponent", "exponent"),
    ("edit.apply_us", "us"),
    ("edit.sp_splice", "count"),
    ("edit.sp_splice_miss", "count"),
    ("edit.cone_nodes", "count"),
    ("convex.barrier_ms", "ms"),
    ("convex.newton_steps", "count"),
    ("convex.scaling_exponent", "exponent"),
    ("discrete.round_up_ms", "ms"),
    ("lp.vdd_solve_ms", "ms"),
    ("lp.warm_resolve_us", "us"),
    ("lp.curve_ms", "ms"),
    ("lp.ray_pivots", "count"),
    ("lp.scaling_exponent", "exponent"),
    ("engine.closed_form_us", "us"),
    ("schedule.validate_us", "us"),
    ("store.save_us", "us"),
    ("store.record_patch_us", "us"),
    ("store.bytes_per_patch", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The unit of a named metric.
#[cfg(test)]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Least-squares slope of `ln y` against `ln n`, with the base it was
/// fitted on: `(slope, n_min, n_max, samples)`. `None` with fewer than
/// three samples or a single size.
pub fn scaling_exponent(samples: &[(usize, f64)]) -> Option<(f64, usize, usize, usize)> {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(n, y)| *n > 0 && *y > 0.0)
        .map(|&(n, y)| ((n as f64).ln(), y.ln()))
        .collect();
    let n_min = samples.iter().map(|s| s.0).min()?;
    let n_max = samples.iter().map(|s| s.0).max()?;
    if pts.len() < 3 || n_min == n_max {
        return None;
    }
    let k = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / k;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    Some((sxy / sxx, n_min, n_max, pts.len()))
}

/// The benchmark's result: the last line of standard output.
pub struct Outcome {
    /// Whether every answer passed its checks.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed, refused, unanswered, or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line, with the metrics of `table` in table order.
    /// A metric missing from `metrics` is an error.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let v = if v.is_finite() { v } else { 0.0 };
            fields.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(fields)),
        ])
        .encode())
    }
}
