//! Order statistics, the tail-percentile rule and the result digest.

use bench::RunRecord;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linearly interpolated quantile `q` (0..=1) of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Largest sample; 0 for no samples.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The quantile reported as the tail of `n` samples: the highest one,
/// capped at p90, that leaves at least [`TAIL_MIN_BEYOND`] samples beyond
/// it. It never drops below the median, so with 20 or fewer samples the
/// tail is the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_MIN_BEYOND as f64 / n as f64).clamp(0.5, 0.9)
}

/// The tail of `xs` under [`tail_quantile`].
pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, tail_quantile(xs.len()))
}

/// Each job's median over `passes`, where every pass lists the same jobs
/// in the same order. Jobs past the shortest pass are left out.
pub fn per_job_medians(passes: &[&[f64]]) -> Vec<f64> {
    let jobs = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..jobs)
        .map(|j| median(&passes.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect()
}

/// Geometric mean of positive values; 0 for no samples.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a 64 over `lines`, sorted first so the digest does not depend
/// on the order cells finished in.
pub fn digest_lines(mut lines: Vec<String>) -> String {
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The `stats_digest` of a set of records: every cell's full statistics
/// summary, keyed by workload, input and system. Two commits that
/// simulate identically print the same digest.
pub fn stats_digest(records: &[RunRecord]) -> String {
    digest_lines(
        records
            .iter()
            .map(|r| {
                format!(
                    "{}/{}/{} {}",
                    r.workload,
                    r.input,
                    r.system,
                    r.stats.to_json().to_string_compact()
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(max(&xs), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond it.
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        // More samples never push the tail past p90.
        assert!((tail_quantile(1000) - 0.9).abs() < 1e-12);
        // 50 samples: p80 is the highest with 10 beyond.
        assert!((tail_quantile(50) - 0.8).abs() < 1e-12);
        for n in [21usize, 37, 64, 99] {
            let q = tail_quantile(n);
            let beyond = n as f64 * (1.0 - q);
            assert!(beyond >= TAIL_MIN_BEYOND as f64 - 1e-9, "n={n} q={q}");
        }
        // Too few samples: the tail falls back to the median.
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert!((tail(&xs) - quantile(&xs, 0.8)).abs() < 1e-12);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = digest_lines(vec!["x".into(), "y".into()]);
        let b = digest_lines(vec!["y".into(), "x".into()]);
        let c = digest_lines(vec!["y".into(), "z".into()]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn per_job_medians_take_each_job_across_passes() {
        let a = [1.0, 10.0, 100.0];
        let b = [3.0, 30.0, 300.0];
        let c = [2.0, 90.0, 200.0];
        assert_eq!(per_job_medians(&[&a, &b, &c]), vec![2.0, 30.0, 200.0]);
        assert_eq!(per_job_medians(&[&a, &b[..2]]), vec![2.0, 20.0]);
        assert!(per_job_medians(&[]).is_empty());
    }

    #[test]
    fn gmean_of_equal_values_is_the_value() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
