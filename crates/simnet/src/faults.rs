//! Fault injection for the simulated network.
//!
//! DMW tolerates up to `c` faulty agents (Section 3, Notation): below the
//! threshold the mechanism remains computable, above it resolution fails
//! (the paper's answer to Feigenbaum–Shenker Open Problem 11). The
//! resilience ablation drives these fault plans.
//!
//! Every schedule here is a pure function of the plan and the message's
//! logical coordinates (sender, recipient, send round, enqueue sequence
//! number) — never of wall-clock time or delivery order — so the same
//! plan selects the same losses on every [`crate::Transport`].

use crate::network::NodeId;
use std::collections::BTreeSet;

/// SplitMix64: the classic 64-bit finalizer-based generator.
/// Self-contained so the simulator stays free of RNG dependencies and
/// ambient entropy — every draw is a pure function of the inputs.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain-separation constant XORed into the probabilistic-loss hash so
/// a seed shared with a [`crate::DelayProfile`] jitter stream never
/// produces correlated draws.
const DROP_PROB_DOMAIN: u64 = 0x6C62_272E_07BB_0142;

/// Parts-per-million denominator for the seeded-loss schedule.
const PPM: u64 = 1_000_000;

/// One transient-partition window: the directed link drops every message
/// *sent* in rounds `start..end` (half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TransientWindow {
    from: usize,
    to: usize,
    start: u64,
    end: u64,
}

/// A declarative fault schedule applied by the [`crate::Transport`]
/// implementations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `crashes[i] = Some(r)` crashes node `i` at the *start* of round `r`:
    /// from round `r` on, nothing it sends is delivered and nothing reaches
    /// it.
    crashes: Vec<Option<u64>>,
    /// Ordered pairs `(from, to)` whose messages are silently dropped.
    dropped_links: BTreeSet<(usize, usize)>,
    /// Drop every `k`-th transmitted message (deterministic lossy
    /// network; `None` = lossless).
    drop_every: Option<u64>,
    /// Extra delivery delay, in rounds, for specific directed links,
    /// added to the [`crate::DelayProfile`] latency. Kept as a
    /// sorted-insert-free `Vec` rather than a map: plans are tiny and a
    /// linear probe keeps iteration order (and hence replay) trivially
    /// deterministic.
    link_delays: Vec<(usize, usize, u64)>,
    /// Seeded Bernoulli loss as `(parts_per_million, seed)`: each
    /// transmission is dropped with probability `ppm / 1e6`, decided by
    /// hashing the seed with the message's enqueue sequence number.
    /// Stored as integers (never the original `f64`) so the plan keeps
    /// `Eq`.
    drop_prob: Option<(u64, u64)>,
    /// Transient-partition windows, keyed on the send round.
    transient_windows: Vec<TransientWindow>,
}

impl FaultPlan {
    /// A fault-free plan for `n` nodes.
    pub fn none(n: usize) -> Self {
        FaultPlan {
            crashes: vec![None; n],
            ..FaultPlan::default()
        }
    }

    /// Drops every `k`-th transmitted message — a deterministic model of
    /// a lossy network used by the safety-under-loss tests.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn drop_every(mut self, k: u64) -> Self {
        assert!(k > 0, "drop period must be positive");
        self.drop_every = Some(k);
        self
    }

    /// Is the `counter`-th message (1-based) lost to the periodic-drop
    /// schedule?
    pub fn is_periodically_dropped(&self, counter: u64) -> bool {
        matches!(self.drop_every, Some(k) if counter.is_multiple_of(k))
    }

    /// Drops each transmission independently with probability `p`,
    /// decided by a seeded hash of the message's enqueue sequence
    /// number — the same logical messages are lost on every transport.
    /// `p` is quantized to parts-per-million so the plan stays `Eq`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite probability in `0.0..=1.0`.
    pub fn drop_prob(mut self, p: f64, seed: u64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "drop probability must be in 0.0..=1.0"
        );
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "p ∈ [0, 1], so p · 1e6 rounds to 0..=1_000_000, far inside u64"
        )]
        let ppm = (p * PPM as f64).round() as u64;
        self.drop_prob = Some((ppm, seed));
        self
    }

    /// Is the message with enqueue sequence number `seq` (1-based) lost
    /// to the seeded probabilistic schedule?
    pub fn is_probabilistically_dropped(&self, seq: u64) -> bool {
        matches!(
            self.drop_prob,
            Some((ppm, seed)) if splitmix64(seed ^ DROP_PROB_DOMAIN ^ seq) % PPM < ppm
        )
    }

    /// Schedules `node` to crash at the start of `round`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn crash_at(mut self, node: NodeId, round: u64) -> Self {
        assert!(node.0 < self.crashes.len(), "node {} out of range", node.0);
        self.crashes[node.0] = Some(round);
        self
    }

    /// Drops every message from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn drop_link(mut self, from: NodeId, to: NodeId) -> Self {
        assert!(
            from.0 < self.crashes.len() && to.0 < self.crashes.len(),
            "node out of range"
        );
        self.dropped_links.insert((from.0, to.0));
        self
    }

    /// Transient partition: drops every message *sent* on the directed
    /// link `from → to` during rounds `start..end` (half-open). Multiple
    /// windows per link are allowed but must not overlap — an
    /// overlapping schedule is almost always a typo.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, `start >= end`, or the
    /// window overlaps an existing one on the same directed link.
    pub fn drop_link_between(mut self, from: NodeId, to: NodeId, start: u64, end: u64) -> Self {
        assert!(
            from.0 < self.crashes.len() && to.0 < self.crashes.len(),
            "node out of range"
        );
        assert!(start < end, "transient window must satisfy start < end");
        for w in &self.transient_windows {
            if w.from == from.0 && w.to == to.0 {
                assert!(
                    end <= w.start || w.end <= start,
                    "transient window {start}..{end} overlaps existing {}..{} on link {} → {}",
                    w.start,
                    w.end,
                    from.0,
                    to.0
                );
            }
        }
        self.transient_windows.push(TransientWindow {
            from: from.0,
            to: to.0,
            start,
            end,
        });
        self
    }

    /// Is the directed link `from → to` transiently partitioned for
    /// messages sent at `round`?
    pub fn is_transiently_dropped(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.transient_windows
            .iter()
            .any(|w| w.from == from.0 && w.to == to.0 && (w.start..w.end).contains(&round))
    }

    /// Is `node` crashed as of `round`?
    pub fn is_crashed(&self, node: NodeId, round: u64) -> bool {
        matches!(self.crashes.get(node.0), Some(Some(r)) if *r <= round)
    }

    /// Is the directed link `from → to` dropped?
    pub fn is_link_dropped(&self, from: NodeId, to: NodeId) -> bool {
        self.dropped_links.contains(&(from.0, to.0))
    }

    /// Delays every message on the directed link `from → to` by an extra
    /// `rounds` ticks beyond the transport's own latency. Scheduling the
    /// same link twice keeps the later value.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn delay_link(mut self, from: NodeId, to: NodeId, rounds: u64) -> Self {
        assert!(
            from.0 < self.crashes.len() && to.0 < self.crashes.len(),
            "node out of range"
        );
        if let Some(entry) = self
            .link_delays
            .iter_mut()
            .find(|(f, t, _)| *f == from.0 && *t == to.0)
        {
            entry.2 = rounds;
        } else {
            self.link_delays.push((from.0, to.0, rounds));
        }
        self
    }

    /// The scheduled extra delay for the directed link `from → to`, `0`
    /// when the plan has no entry for it.
    pub fn link_delay(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_delays
            .iter()
            .find(|(f, t, _)| *f == from.0 && *t == to.0)
            .map_or(0, |(_, _, d)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_takes_effect_at_round() {
        let plan = FaultPlan::none(3).crash_at(NodeId(1), 2);
        assert!(!plan.is_crashed(NodeId(1), 0));
        assert!(!plan.is_crashed(NodeId(1), 1));
        assert!(plan.is_crashed(NodeId(1), 2));
        assert!(plan.is_crashed(NodeId(1), 5));
        assert!(!plan.is_crashed(NodeId(0), 5));
    }

    #[test]
    fn dropped_links_are_directional() {
        let plan = FaultPlan::none(3).drop_link(NodeId(0), NodeId(1));
        assert!(plan.is_link_dropped(NodeId(0), NodeId(1)));
        assert!(!plan.is_link_dropped(NodeId(1), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_crash_panics() {
        let _ = FaultPlan::none(2).crash_at(NodeId(5), 0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_dropped_link_panics() {
        let _ = FaultPlan::none(2).drop_link(NodeId(0), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_delayed_link_panics() {
        let _ = FaultPlan::none(2).delay_link(NodeId(7), NodeId(0), 3);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_transient_window_panics() {
        let _ = FaultPlan::none(2).drop_link_between(NodeId(0), NodeId(7), 1, 3);
    }

    #[test]
    #[should_panic(expected = "drop period must be positive")]
    fn drop_every_zero_panics() {
        let _ = FaultPlan::none(2).drop_every(0);
    }

    #[test]
    fn link_delays_are_directional_and_last_write_wins() {
        let plan = FaultPlan::none(3)
            .delay_link(NodeId(0), NodeId(1), 2)
            .delay_link(NodeId(0), NodeId(1), 4)
            .delay_link(NodeId(2), NodeId(0), 1);
        assert_eq!(plan.link_delay(NodeId(0), NodeId(1)), 4);
        assert_eq!(plan.link_delay(NodeId(1), NodeId(0)), 0);
        assert_eq!(plan.link_delay(NodeId(2), NodeId(0)), 1);
    }

    #[test]
    fn link_delay_reads_an_explicit_zero_as_no_delay() {
        let plan = FaultPlan::none(2).delay_link(NodeId(0), NodeId(1), 0);
        assert_eq!(plan.link_delay(NodeId(0), NodeId(1)), 0);
        assert_eq!(plan.link_delay(NodeId(1), NodeId(0)), 0);
    }

    #[test]
    fn probabilistic_drop_rate_tracks_the_requested_probability() {
        let plan = FaultPlan::none(2).drop_prob(0.10, 42);
        let dropped = (1..=100_000u64)
            .filter(|seq| plan.is_probabilistically_dropped(*seq))
            .count();
        // 100k Bernoulli(0.1) draws: expect ~10_000, allow a wide band.
        assert!(
            (9_000..=11_000).contains(&dropped),
            "observed {dropped} drops out of 100k at p = 0.10"
        );
        let zero = FaultPlan::none(2).drop_prob(0.0, 42);
        assert!(!(1..=1000u64).any(|s| zero.is_probabilistically_dropped(s)));
        let one = FaultPlan::none(2).drop_prob(1.0, 42);
        assert!((1..=1000u64).all(|s| one.is_probabilistically_dropped(s)));
    }

    #[test]
    fn probabilistic_drops_are_seed_deterministic() {
        let a = FaultPlan::none(2).drop_prob(0.25, 7);
        let b = FaultPlan::none(2).drop_prob(0.25, 7);
        let c = FaultPlan::none(2).drop_prob(0.25, 8);
        let pick = |p: &FaultPlan| {
            (1..=512u64)
                .filter(|s| p.is_probabilistically_dropped(*s))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(&a), pick(&b), "same seed, same schedule");
        assert_ne!(pick(&a), pick(&c), "different seed, different schedule");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn out_of_range_drop_prob_panics() {
        let _ = FaultPlan::none(2).drop_prob(1.5, 0);
    }

    #[test]
    fn transient_windows_are_directional_and_half_open() {
        let plan = FaultPlan::none(3).drop_link_between(NodeId(0), NodeId(1), 2, 5);
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 1));
        assert!(plan.is_transiently_dropped(NodeId(0), NodeId(1), 2));
        assert!(plan.is_transiently_dropped(NodeId(0), NodeId(1), 4));
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 5));
        assert!(!plan.is_transiently_dropped(NodeId(1), NodeId(0), 3));
    }

    #[test]
    fn disjoint_transient_windows_on_one_link_are_allowed() {
        let plan = FaultPlan::none(3)
            .drop_link_between(NodeId(0), NodeId(1), 0, 2)
            .drop_link_between(NodeId(0), NodeId(1), 4, 6);
        assert!(plan.is_transiently_dropped(NodeId(0), NodeId(1), 1));
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 3));
        assert!(plan.is_transiently_dropped(NodeId(0), NodeId(1), 5));
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_transient_windows_panic() {
        let _ = FaultPlan::none(3)
            .drop_link_between(NodeId(0), NodeId(1), 2, 5)
            .drop_link_between(NodeId(0), NodeId(1), 4, 8);
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn empty_transient_window_panics() {
        let _ = FaultPlan::none(3).drop_link_between(NodeId(0), NodeId(1), 5, 5);
    }
}
