//! Exact order statistics over stored samples. The benchmark keeps every
//! latency sample (`u32` nanoseconds), so percentiles are exact and not
//! read from a bucketed histogram.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median with the mean of the two middle samples for an even count.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 { values[mid] } else { (values[mid - 1] + values[mid]) / 2.0 })
}

/// One latency class of a run: sorted samples in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn new(mut ns: Vec<u32>) -> Samples {
        ns.sort_unstable();
        Samples(ns)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Percentile in microseconds; 0 when the class is empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.0, p).map_or(0.0, |ns| ns as f64 / 1000.0)
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_us(50.0)
    }
}

/// Median and interquartile range (as a fraction of the median) of a
/// set of window throughputs.
pub fn median_and_iqr(mut rates: Vec<f64>) -> Option<(f64, f64)> {
    let med = median(&mut rates)?;
    // `rates` is sorted by `median`.
    let q1 = percentile(&rates, 25.0)?;
    let q3 = percentile(&rates, 75.0)?;
    Some((med, (q3 - q1) / med))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7u32], 99.0), Some(7));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
        // 1000 samples: p99 is the 990th, ten samples lie beyond it.
        let s: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&s, 99.0), Some(990));

        let samples = Samples::new(vec![9000, 1000, 5000, 3000, 7000]);
        assert_eq!(samples.p50_us(), 5.0);
        assert_eq!(samples.percentile_us(99.0), 9.0);
        assert_eq!(Samples::default().p50_us(), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn window_throughput_is_a_median_not_a_mean() {
        // Four windows of 1000 ops: 1 ms, 1 ms, a 10 ms stall, 1 ms.
        let rates = vec![1e6, 1e6, 1e5, 1e6];
        let (med, iqr) = median_and_iqr(rates).unwrap();
        assert_eq!(med, 1e6, "the stall does not move the median");
        assert_eq!(iqr, 0.9, "but it shows in the spread: (1e6 - 1e5) / 1e6");
        let total = 4000.0 / 13e-3;
        assert!(total < 0.4 * med, "total/elapsed would have reported {total}");
        assert_eq!(median_and_iqr(Vec::new()), None);
    }
}
