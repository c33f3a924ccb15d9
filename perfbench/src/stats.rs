//! Latency summaries and server-counter deltas.

use zerber_protocol::ServerStats;

/// Nearest-rank percentile `p` (0..=100) of `samples`, in the samples' unit.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or `empty` when nothing was counted.
pub fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

/// The cumulative counters of [`ServerStats`] the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub requests: u64,
    pub elements_sent: u64,
    pub bytes_in: u64,
    pub locks: u64,
    pub auth_checks: u64,
    pub page_faults: u64,
    pub page_hits: u64,
    pub compactions: u64,
    pub retier_moves: u64,
    pub wal_bytes: u64,
    pub scanned: u64,
}

impl Counters {
    pub fn of(s: &ServerStats) -> Self {
        Counters {
            requests: s.requests_served,
            elements_sent: s.elements_sent,
            bytes_in: s.bytes_in,
            locks: s.lock_acquisitions,
            auth_checks: s.auth_checks,
            page_faults: s.page_faults,
            page_hits: s.page_cache_hits,
            compactions: s.compactions,
            retier_moves: s.promotions + s.demotions,
            wal_bytes: s.wal_bytes,
            scanned: s.visibility_scan_cost,
        }
    }

    /// Adds `after - before` to `self`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        self.requests += d(before.requests, after.requests);
        self.elements_sent += d(before.elements_sent, after.elements_sent);
        self.bytes_in += d(before.bytes_in, after.bytes_in);
        self.locks += d(before.locks, after.locks);
        self.auth_checks += d(before.auth_checks, after.auth_checks);
        self.page_faults += d(before.page_faults, after.page_faults);
        self.page_hits += d(before.page_hits, after.page_hits);
        self.compactions += d(before.compactions, after.compactions);
        self.retier_moves += d(before.retier_moves, after.retier_moves);
        self.wal_bytes += d(before.wal_bytes, after.wal_bytes);
        self.scanned += d(before.scanned, after.scanned);
    }
}
