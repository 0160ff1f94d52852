//! Small numeric helpers: percentiles, digests, process memory.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; NaN for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest value, or NaN for an empty slice.
#[must_use]
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// FNV-1a over a stream of 64-bit words: the outcome digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in (length-prefixed).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
