//! Order statistics, result digests and exactly-once accounting — the
//! helpers every rung's numbers and checks are computed with.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, interpolating linearly
/// between the two closest ranks. `sorted` must be ascending; an empty
/// slice has no quantile and reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` in place (NaN-free input) and returns them for
/// [`percentile`] calls.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Mean of `values` without the lowest and highest `trim` share of them
/// (`0 ≤ trim < 0.5`): robust to a few disturbed samples, yet smoother
/// than the median when samples fall into two clusters.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let v = sorted(values.to_vec());
    let cut = (v.len() as f64 * trim.clamp(0.0, 0.49)).floor() as usize;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits `items` into `windows` consecutive windows of equal size (the
/// last may be shorter) and returns the median of `f` over them, so a
/// disturbance confined to a few windows does not move the figure.
pub fn window_median<T>(items: &[T], windows: usize, f: impl Fn(&[T]) -> f64) -> f64 {
    let size = items.len().div_ceil(windows.max(1)).max(1);
    let values: Vec<f64> = items.chunks(size).map(f).collect();
    median(&values)
}

/// `num / den`, or 0 when `den` is 0 — for shares over possibly empty
/// populations.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Order-sensitive FNV-1a digest over a sequence of 64-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest, byte by byte.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of per-request response times in request order; a request
    /// without an answer folds in as `u64::MAX`, so a missing answer never
    /// collides with a zero response time.
    pub fn of_responses(responses: &[Option<u64>]) -> Digest {
        let mut d = Digest::default();
        for r in responses {
            d.push(r.unwrap_or(u64::MAX));
        }
        d
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// What happened to the requests of one rung, counted on the
/// benchmark's side of the public API.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests the generator offered.
    pub sent: u64,
    /// Requests admitted with a ticket.
    pub admitted: u64,
    /// Responses received (each admitted ticket should appear once).
    pub answered: u64,
    /// Responses that carried an error instead of a schedule.
    pub failed: u64,
    /// Requests turned away at admission.
    pub rejected: u64,
    /// Responses whose ticket was unknown or already answered.
    pub duplicates: u64,
}

impl Accounting {
    /// Exactly once: every request sent was either rejected or answered
    /// exactly once, and nothing else was answered.
    pub fn exactly_once(&self) -> bool {
        self.duplicates == 0
            && self.admitted == self.answered
            && self.sent == self.answered + self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_linear_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.25), 3.25);
        assert_eq!(percentile(&v, 0.75), 7.75);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&v, 0.2), 4.5);
        assert_eq!(trimmed_mean(&v, 0.0), mean(&v));
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
        assert_eq!(trimmed_mean(&[3.0], 0.2), 3.0);
    }

    #[test]
    fn window_median_ignores_a_disturbed_window() {
        let mut v = vec![1.0; 100];
        v[..10].iter_mut().for_each(|x| *x = 1_000.0);
        assert_eq!(window_median(&v, 10, mean), 1.0);
        assert_eq!(window_median(&v, 1, mean), 100.9);
        assert_eq!(window_median(&[2.0, 4.0, 6.0], 10, mean), 4.0);
        assert_eq!(window_median::<f64>(&[], 10, mean), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_marks_missing_answers() {
        let a = Digest::of_responses(&[Some(1), Some(2)]);
        let b = Digest::of_responses(&[Some(2), Some(1)]);
        let c = Digest::of_responses(&[Some(1), None]);
        let d = Digest::of_responses(&[Some(1), Some(0)]);
        assert_ne!(a, b);
        assert_ne!(c, d);
        assert_eq!(a, Digest::of_responses(&[Some(1), Some(2)]));
        let mut e = Digest::default();
        e.push(0);
        assert_ne!(e, Digest::of_responses(&[]));
    }

    #[test]
    fn accounting_requires_each_request_resolved_once() {
        let ok = Accounting {
            sent: 10,
            admitted: 7,
            answered: 7,
            failed: 0,
            rejected: 3,
            duplicates: 0,
        };
        assert!(ok.exactly_once());
        assert!(!Accounting { answered: 6, ..ok }.exactly_once());
        assert!(!Accounting {
            duplicates: 1,
            ..ok
        }
        .exactly_once());
        assert!(!Accounting { rejected: 2, ..ok }.exactly_once());
    }
}
