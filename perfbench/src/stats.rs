//! The benchmark's own summary helpers: percentiles that know their
//! support, ask classification, and failure accounting.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL: usize = 10;

/// A percentile together with the samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value (linear interpolation between ranks).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked above the percentile's lower rank.
    pub beyond: usize,
}

/// Samples ranked above the lower rank of the `q`-th percentile
/// (`q` in 0..=100) of `n` samples, under the linear interpolation of
/// [`robotune_stats::percentile`].
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let lower = (q / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - lower.min(n - 1)
}

/// The `q`-th percentile of `xs` with its support, or `None` when `xs`
/// is empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    Some(Pct {
        value: robotune_stats::percentile(xs, q),
        n: xs.len(),
        beyond: samples_beyond(xs.len(), q),
    })
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Index (0-based, in the session's sequence of objective calls or
/// served asks) of the first *model-chosen* configuration: the one
/// after the selection samples (paid only on a selection-cache miss)
/// and the initial design.
pub fn first_model_chosen(
    cache_hit: bool,
    selection_samples: usize,
    design_points: usize,
) -> usize {
    if cache_hit {
        design_points
    } else {
        selection_samples + design_points
    }
}

/// How the daemon answered one request, as the load generator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// A successful reply that carries a result (config, finished
    /// summary, accepted observation, created session, status).
    Ok,
    /// A `suggest` answered `queued`: the session waits for a worker.
    Queued,
    /// The retryable `timeout` error: the pipeline took longer than the
    /// server's suggest timeout; the client asks again.
    Timeout,
    /// `create_session` refused with `overloaded`.
    Overloaded,
    /// Any other error reply.
    Error,
    /// The request was lost to a dropped connection.
    Dropped,
}

/// Failed operations against attempted ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: requests sent, and sessions opened.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Sessions that finished their budget without a completed run: a
    /// tuning outcome, not a failed operation, but not a success either.
    pub empty: u64,
}

impl Tally {
    /// Counts one answered (or lost) request. `queued` polls and
    /// `timeout` replies are part of normal operation, not failures.
    pub fn record(&mut self, kind: ReplyKind) {
        self.attempted += 1;
        match kind {
            ReplyKind::Ok | ReplyKind::Queued | ReplyKind::Timeout => {}
            ReplyKind::Overloaded | ReplyKind::Error | ReplyKind::Dropped => self.failed += 1,
        }
    }

    /// Counts a session: it fails unless it `finished` (one still open
    /// when the hold ends, or cut short by an error, fails); a finished
    /// one without a `completed` evaluation is empty.
    pub fn session(&mut self, finished: bool, completed: bool) {
        self.attempted += 1;
        if !finished {
            self.failed += 1;
        } else if !completed {
            self.empty += 1;
        }
    }

    /// Share of attempted operations that neither failed nor were empty
    /// sessions (1 with nothing attempted): 1 − `failed_frac`.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            1.0 - (self.failed + self.empty) as f64 / self.attempted as f64
        }
    }
}

/// A well-mixed 64-bit hash (SplitMix64 finaliser): derives every
/// per-session seed from the benchmark seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Jiffies the host stole from this virtual machine's CPUs, and all
/// jiffies, since boot (the `steal` and summed columns of the `cpu` line
/// of `/proc/stat`), if the platform reports them.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|c| c.parse().ok())
        .collect::<Option<_>>()?;
    Some((*cols.get(7)?, cols.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_support_counts_samples_above_the_lower_rank() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(900, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(19, 50.0), 9);
        assert_eq!(samples_beyond(1, 50.0), 0);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(samples_beyond(5, 100.0), 0);
    }

    #[test]
    fn percentile_reports_value_count_and_support() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, 99.0).unwrap();
        assert_eq!(p.n, 1000);
        assert!(p.beyond >= MIN_TAIL);
        assert!((p.value - 990.01).abs() < 1e-9, "{}", p.value);
        let small = percentile(&xs[..500], 99.0).unwrap();
        assert!(
            small.beyond < MIN_TAIL,
            "5 samples beyond a p99 of 500 is not a tail"
        );
        assert!(percentile(&[], 50.0).is_none());
        let median = percentile(&[3.0, 1.0, 2.0], 50.0).unwrap();
        assert_eq!(median.value, 2.0);
    }

    #[test]
    fn model_chosen_asks_skip_selection_only_on_a_cache_miss() {
        // Cold session: 100 selection samples, 20-point design.
        assert_eq!(first_model_chosen(false, 100, 20), 120);
        // Selection-cache hit: only the (partly memoized) design precedes.
        assert_eq!(first_model_chosen(true, 100, 20), 20);
        assert_eq!(first_model_chosen(true, 100, 0), 0);
    }

    #[test]
    fn queued_polls_and_timeouts_are_not_failures() {
        let mut t = Tally::default();
        for _ in 0..5 {
            t.record(ReplyKind::Queued);
        }
        t.record(ReplyKind::Timeout);
        t.record(ReplyKind::Ok);
        assert_eq!(
            t,
            Tally {
                attempted: 7,
                failed: 0,
                empty: 0
            }
        );
        assert_eq!(t.ok_frac(), 1.0);
        t.record(ReplyKind::Overloaded);
        t.record(ReplyKind::Error);
        t.record(ReplyKind::Dropped);
        t.session(false, false);
        t.session(true, true);
        assert_eq!(
            t,
            Tally {
                attempted: 12,
                failed: 4,
                empty: 0
            }
        );
        assert!((t.ok_frac() - 8.0 / 12.0).abs() < 1e-12);
        // A session that spent its budget without a completed run is not
        // a failed operation, but it does count against ok_frac.
        t.session(true, false);
        assert_eq!((t.attempted, t.failed, t.empty), (13, 4, 1));
        assert!((t.ok_frac() - 8.0 / 13.0).abs() < 1e-12);
        assert_eq!(Tally::default().ok_frac(), 1.0);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[]).is_none());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn steal_is_a_part_of_all_cpu_time() {
        let (steal, total) = cpu_steal().unwrap();
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn derived_seeds_differ_by_tag_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
