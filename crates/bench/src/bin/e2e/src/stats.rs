//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.50];

/// Median of unsorted values (mean of the middle two for even counts).
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    median_in_place(&mut values.to_vec())
}

fn median_in_place(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per event, the median over the passes of its latency times the pass's
/// `scale`, ascending. Every pass replays the same events, so event `i` does
/// the same work in each of them and what differs is the host: a burst that
/// hits one batch of one pass moves that pass's tail percentiles, but not
/// the median of the events in it. Events beyond the shortest pass (a source
/// error cut it short) are left out.
pub fn median_per_event(passes: &[Vec<u32>], scale: &[f64]) -> Vec<u64> {
    let events = passes.iter().map(Vec::len).min().unwrap_or(0);
    let mut across = vec![0.0; passes.len()];
    let mut medians: Vec<u64> = (0..events)
        .map(|i| {
            for ((slot, pass), k) in across.iter_mut().zip(passes).zip(scale) {
                *slot = pass[i] as f64 * k;
            }
            median_in_place(&mut across).round() as u64
        })
        .collect();
    medians.sort_unstable();
    medians
}

/// The `p`-quantile (nearest rank) of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile of `ladder`, starting at `from`, that `sorted`
/// supports, with its value.
pub fn highest_supported(sorted: &[u64], from: f64) -> Option<(f64, u64)> {
    TAIL_LADDER.iter().filter(|&&p| p <= from).find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn a_burst_in_one_pass_does_not_move_the_per_event_median() {
        let quiet: Vec<u32> = (1..=100).collect();
        let mut hit = quiet.clone();
        hit[90..].iter_mut().for_each(|ns| *ns *= 50);
        let passes = vec![quiet.clone(), hit, quiet.clone()];
        let want: Vec<u64> = (1..=100).collect();
        assert_eq!(median_per_event(&passes, &[1.0; 3]), want);
        // A pass on a host twice as slow, scaled back by its slowdown.
        let slow: Vec<u32> = quiet.iter().map(|ns| ns * 2).collect();
        assert_eq!(median_per_event(&[slow.clone(), slow], &[0.5; 2]), want);
        // A pass cut short bounds the events compared.
        assert_eq!(median_per_event(&[quiet, vec![7; 10]], &[1.0; 2]).len(), 10);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), Some(990), "exactly ten beyond");
        assert_eq!(percentile(&s, 0.999), None, "one beyond");
        assert_eq!(percentile(&s, 0.50), Some(500));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), None, "999 samples leave nine beyond p99");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn picker_walks_down_the_ladder() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(highest_supported(&s, 0.999), Some((0.99, 990)));
        assert_eq!(highest_supported(&s, 0.99), Some((0.99, 990)));
        let s: Vec<u64> = (1..=150).collect();
        assert_eq!(highest_supported(&s, 0.99), Some((0.90, 135)), "p95 has only 7 beyond");
        let s: Vec<u64> = (1..=25).collect();
        assert_eq!(highest_supported(&s, 0.99), Some((0.50, 13)));
        let s: Vec<u64> = (1..=12).collect();
        assert_eq!(highest_supported(&s, 0.99), None);
    }
}
