//! Pure statistics: quantiles, slice rates, and the paired-run verdict
//! rule of `act-bench compare`. Nothing here touches the system under
//! test, so all of it is unit-tested.

/// Median of `values` (mean of the middle two for an even count), as
/// Python's `statistics.median`. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values` with the exact arithmetic of
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so a spread computed here matches one computed by a script
/// over the same runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Python's integer arithmetic, including a negative `delta` when the
    // clamp moves `j` up (it extrapolates below the first value).
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the compare verdict and the acceptance rule use.
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Percentile `p` (0..=1) of an ascending slice by linear interpolation
/// between closest ranks; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Length of one slice of a `window`-second measurement: 2 s, or half
/// the window when it is shorter than four seconds.
pub fn slice_len(window: f64) -> f64 {
    if window >= 4.0 {
        2.0
    } else {
        window / 2.0
    }
}

/// One verified frame: when it completed (seconds since the window
/// opened), its points, and its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub t: f64,
    pub points: u32,
    pub lat_us: f64,
}

/// Cuts a window into whole slices of `slice` seconds (a trailing
/// partial slice and frames completing after the window are dropped) and
/// returns each slice's points per second.
pub fn slice_rates(samples: &[Sample], window: f64, slice: f64) -> Vec<f64> {
    let n = (window / slice + 1e-9).floor() as usize;
    let mut points = vec![0u64; n];
    for s in samples {
        let k = (s.t / slice).floor();
        if k >= 0.0 && (k as usize) < n {
            points[k as usize] += u64::from(s.points);
        }
    }
    points.iter().map(|&p| p as f64 / slice).collect()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much a metric may worsen before a change counts as a regression:
/// a share of the baseline median, or an absolute amount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Relative(f64),
    Absolute(f64),
}

/// The outcome of comparing one (metric, workload) pair across two sets
/// of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound and no gain shown.
    Same,
    /// The candidate won ≥ 9/10 of the pairs and its median moved by more
    /// than the baseline's own interquartile distance.
    Better,
    /// The candidate's median is worse by more than the bound (under an
    /// absolute bound, or its worst run is).
    Worse,
    /// Run-to-run spread exceeds the bound, so neither "same" nor "worse"
    /// can be told apart from noise (unless one side beats every run of
    /// the other).
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: [f64; 3],
    pub quartiles_b: [f64; 3],
    /// Pairs (A run i, B run i) that B won / lost; ties count for neither.
    pub wins: usize,
    pub losses: usize,
    pub pairs: usize,
    /// How much worse B's median is than A's, in the bound's terms
    /// (a share of A's median, or absolute); negative means better.
    pub worse_by: f64,
    /// The larger of the two sides' relative spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// The paired-run rule: `a` are baseline runs, `b` candidate runs, paired
/// by position (`a[i]` and `b[i]` ran the same inputs, interleaved).
/// Needs at least two runs per side.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Option<Comparison> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let (ma, mb) = (median(a), median(b));
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| is_better(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| is_better(a[i], b[i])).count();
    let worse_abs = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let (worse_by, limit, spread) = match bound {
        Bound::Relative(r) => (
            if ma != 0.0 { worse_abs / ma.abs() } else { 0.0 },
            r,
            relative_spread(a).max(relative_spread(b)),
        ),
        Bound::Absolute(x) => (worse_abs, x, (qa[2] - qa[0]).max(qb[2] - qb[0])),
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| is_better(x, y)));
    // An absolute bound caps every run, not a median: one candidate run
    // worse than the baseline's worst by more than the bound (say, one
    // that fails where the baseline never does) is a regression however
    // wide the spread.
    let worst = |v: &[f64]| match better {
        Better::Lower => v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Better::Higher => v.iter().copied().fold(f64::INFINITY, f64::min),
    };
    let worst_run_worse = match (bound, better) {
        (Bound::Absolute(x), Better::Lower) => worst(b) - worst(a) > x,
        (Bound::Absolute(x), Better::Higher) => worst(a) - worst(b) > x,
        (Bound::Relative(_), _) => false,
    };
    let verdict = if worst_run_worse {
        Verdict::Worse
    } else if spread > limit && !all_b_better && !all_b_worse {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Worse
    } else if wins * 10 >= pairs * 9 && worse_abs < 0.0 && -worse_abs > qa[2] - qa[0] {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some(Comparison {
        median_a: ma,
        median_b: mb,
        quartiles_a: qa,
        quartiles_b: qb,
        wins,
        losses,
        pairs,
        worse_by,
        spread,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 1.5, 2, 5], n=4) == [1.125, 1.75, 4.25]
        assert_eq!(quartiles(&[5.0, 1.0, 2.0, 1.5]), Some([1.125, 1.75, 4.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 15.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn slices_split_the_window_and_drop_the_tail() {
        assert_eq!(slice_len(12.0), 2.0);
        assert_eq!(slice_len(6.0), 2.0);
        assert_eq!(slice_len(1.0), 0.5);
        let s = |t, points, lat_us| Sample { t, points, lat_us };
        // Frames completing at 0.5 s, 1.9 s, 2.1 s, 5.9 s and 6.5 s in a
        // 6 s window of 2 s slices: the last falls outside the window.
        let done = [
            s(0.5, 64, 10.0),
            s(1.9, 64, 30.0),
            s(2.1, 32, 5.0),
            s(5.9, 10, 7.0),
            s(6.5, 99, 1.0),
        ];
        let rates = slice_rates(&done, 6.0, 2.0);
        assert_eq!(rates, vec![64.0, 16.0, 5.0]);
        assert_eq!(median(&rates), 16.0);
        // A 5 s window holds two whole 2 s slices; 4.5 s lands in none.
        assert_eq!(slice_rates(&[s(4.5, 8, 1.0)], 5.0, 2.0), vec![0.0, 0.0]);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn identical_distributions_compare_same() {
        let a = runs(100.0, 0.01);
        let c = compare(&a, &a, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        assert_eq!((c.wins, c.losses, c.pairs), (0, 0, 10));
        assert_eq!(c.worse_by, 0.0);
    }

    #[test]
    fn a_consistent_gain_is_better_and_a_big_loss_is_worse() {
        let a = runs(100.0, 0.01);
        let faster: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        let c = compare(&a, &faster, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
        assert_eq!(c.wins, 10);
        let slower: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let c = compare(&a, &slower, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        assert!((c.worse_by - 0.2).abs() < 1e-9);
        // Lower-is-better metrics flip the direction.
        let c = compare(&a, &slower, Better::Lower, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
    }

    #[test]
    fn a_small_loss_within_the_bound_is_same() {
        let a = runs(100.0, 0.01);
        let b: Vec<f64> = a.iter().map(|x| x * 0.97).collect();
        let c = compare(&a, &b, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        assert_eq!(c.losses, 10);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_separated() {
        let a = runs(100.0, 0.4);
        let b = runs(95.0, 0.4);
        let c = compare(&a, &b, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Every candidate run beats every baseline run: resolved anyway.
        let b: Vec<f64> = a.iter().map(|x| x + 200.0).collect();
        let c = compare(&a, &b, Better::Higher, Bound::Relative(0.10)).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
    }

    #[test]
    fn absolute_bounds_judge_raw_differences() {
        let zero = vec![0.0; 5];
        let c = compare(&zero, &zero, Better::Lower, Bound::Absolute(0.0)).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        // Failures in some candidate runs where the baseline had none.
        let some = vec![0.0, 0.0, 0.01, 0.01, 0.01];
        let c = compare(&zero, &some, Better::Lower, Bound::Absolute(0.0)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        let one = vec![0.0, 0.0, 0.0, 0.0, 0.01];
        let c = compare(&zero, &one, Better::Lower, Bound::Absolute(0.0)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        // Failing no worse than a baseline that failed too: spread decides.
        let c = compare(&some, &one, Better::Lower, Bound::Absolute(0.0)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        let all = vec![0.01; 5];
        let c = compare(&zero, &all, Better::Lower, Bound::Absolute(0.0)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
    }
}
