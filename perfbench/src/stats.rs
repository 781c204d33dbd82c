//! Order statistics shared by every workload.

/// Median of `xs` (mean of the middle two for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The tail rule: the highest percentile that still has at least
/// `TAIL_BEYOND` samples above it.
pub const TAIL_BEYOND: usize = 10;

/// A tail value with the percentile it sits at and its sample count.
pub struct Tail {
    pub value: f64,
    /// 0-based ascending rank of the tail sample.
    pub rank: usize,
    pub percentile: f64,
    pub samples: usize,
}

/// The sample with exactly [`TAIL_BEYOND`] samples above it (the maximum
/// when there are too few samples), and the nearest-rank percentile it
/// stands for.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            rank: 0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let idx = n.saturating_sub(TAIL_BEYOND + 1);
    Tail {
        value: v[idx],
        rank: idx,
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Which program's cluster the sample at `rank` (0-based, ascending)
/// belongs to: its label, how many samples of that label rank below it,
/// and how many the label has. A percentile read at the lowest or highest
/// sample of its cluster sits on the boundary with the next cluster,
/// where one sample moving makes it jump by the gap between clusters.
pub fn cluster_at<'a>(samples: &[(&'a str, f64)], rank: usize) -> (&'a str, usize, usize) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    let Some(&(label, _)) = v.get(rank) else {
        return ("", 0, 0);
    };
    let below = v[..rank].iter().filter(|s| s.0 == label).count();
    (label, below, v.iter().filter(|s| s.0 == label).count())
}

/// A one-line report of [`cluster_at`] for a named metric.
pub fn describe_cluster(metric: &str, samples: &[(&str, f64)], rank: usize) -> String {
    let (label, below, n) = cluster_at(samples, rank);
    let edge = if below == 0 || below + 1 >= n {
        " — ON A CLUSTER BOUNDARY"
    } else {
        ""
    };
    format!("{metric} falls in the {label} cluster: {below} of its {n} samples rank below it{edge}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn cluster_position() {
        let s = [
            ("b", 11.0),
            ("a", 1.0),
            ("b", 12.0),
            ("a", 2.0),
            ("b", 10.0),
        ];
        assert_eq!(cluster_at(&s, 3), ("b", 1, 3));
        assert_eq!(cluster_at(&s, 2), ("b", 0, 3));
        assert!(!describe_cluster("p", &s, 3).contains("BOUNDARY"));
        assert!(describe_cluster("p", &s, 2).contains("BOUNDARY"));
        assert!(describe_cluster("p", &s, 4).contains("BOUNDARY"));
    }
}
