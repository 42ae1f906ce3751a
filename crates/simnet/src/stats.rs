//! Traffic accounting for the simulated network.

/// Cumulative traffic counters for one [`crate::Transport`].
///
/// `point_to_point` counts every unicast transmission, *including* the
/// `n − 1` unicasts that implement each broadcast — this is the quantity
/// Theorem 11 bounds by `Θ(mn²)` for DMW and `Θ(mn)` for centralized
/// MinWork.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkStats {
    /// Unicast transmissions enqueued (broadcasts count as `n − 1` each).
    pub point_to_point: u64,
    /// Broadcast *events* (each also contributes `n − 1` to
    /// `point_to_point`).
    pub broadcasts: u64,
    /// Total payload bytes enqueued.
    pub bytes: u64,
    /// Messages actually delivered (sent minus those lost to crashes or
    /// dropped links).
    pub delivered: u64,
    /// Messages lost to fault injection.
    pub dropped: u64,
    /// Synchronous rounds stepped.
    pub rounds: u64,
}

impl NetworkStats {
    /// Messages still in flight (enqueued but neither delivered nor
    /// dropped) — e.g. held past run end by a delay transport.
    ///
    /// Delivered plus dropped can never exceed enqueued; if accounting
    /// ever drifts this debug-asserts rather than panicking on raw
    /// subtraction (and saturates to zero in release builds instead of
    /// wrapping to an absurd count).
    pub fn in_flight(&self) -> u64 {
        let settled = self.delivered + self.dropped;
        debug_assert!(
            settled <= self.point_to_point,
            "traffic accounting drift: delivered {} + dropped {} > enqueued {}",
            self.delivered,
            self.dropped,
            self.point_to_point
        );
        self.point_to_point.saturating_sub(settled)
    }

    /// Accumulates another run's counters into this one — the aggregation
    /// the batch harness uses to report whole-sweep traffic totals.
    pub fn absorb(&mut self, other: &NetworkStats) {
        self.point_to_point += other.point_to_point;
        self.broadcasts += other.broadcasts;
        self.bytes += other.bytes;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.rounds += other.rounds;
    }
}

impl std::ops::AddAssign for NetworkStats {
    fn add_assign(&mut self, other: NetworkStats) {
        self.absorb(&other);
    }
}

impl std::ops::Add for NetworkStats {
    type Output = NetworkStats;

    fn add(mut self, other: NetworkStats) -> NetworkStats {
        self += other;
        self
    }
}

impl std::iter::Sum for NetworkStats {
    fn sum<I: Iterator<Item = NetworkStats>>(iter: I) -> NetworkStats {
        iter.fold(NetworkStats::default(), std::ops::Add::add)
    }
}

impl<'a> std::iter::Sum<&'a NetworkStats> for NetworkStats {
    fn sum<I: Iterator<Item = &'a NetworkStats>>(iter: I) -> NetworkStats {
        iter.fold(NetworkStats::default(), |mut acc, s| {
            acc.absorb(s);
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = NetworkStats::default();
        assert_eq!(s.point_to_point, 0);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn in_flight_accounts_for_losses() {
        let s = NetworkStats {
            point_to_point: 10,
            delivered: 6,
            dropped: 3,
            ..Default::default()
        };
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn aggregation_sums_every_counter() {
        let a = NetworkStats {
            point_to_point: 10,
            broadcasts: 2,
            bytes: 100,
            delivered: 9,
            dropped: 1,
            rounds: 6,
        };
        let b = NetworkStats {
            point_to_point: 5,
            broadcasts: 1,
            bytes: 40,
            delivered: 5,
            dropped: 0,
            rounds: 6,
        };
        let total: NetworkStats = [a, b].iter().sum();
        assert_eq!(total.point_to_point, 15);
        assert_eq!(total.broadcasts, 3);
        assert_eq!(total.bytes, 140);
        assert_eq!(total.delivered, 14);
        assert_eq!(total.dropped, 1);
        assert_eq!(total.rounds, 12);
        assert_eq!(a + b, total);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, total);
    }
}
