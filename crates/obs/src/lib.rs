//! # dmw-obs — deterministic observability core
//!
//! Zero-dependency metrics primitives for the DMW workspace: counters,
//! gauges and fixed-bucket histograms keyed by a small structured
//! [`Key`] `(name, phase, agent, peer, task)` and timed exclusively in
//! **logical ticks** — the simulator's round counter — never wall
//! clock. That restriction is what keeps every run bit-replayable: two
//! executions of the same seed produce byte-identical
//! [`MetricsSnapshot`]s regardless of host load, thread count or
//! transport timing model (see `tests/tests/metrics_determinism.rs`).
//! Wall-clock timing exists only in the bench layer: clippy's
//! `disallowed_types` (configured in the root `clippy.toml`) rejects
//! `std::time::{Instant, SystemTime}`, and this crate and every crate it
//! feeds forbid that lint at their roots, so no `#[allow]` can waive it.
//!
//! ## Model
//!
//! * **Counters** are monotone sums (`incr`): messages sent, bytes,
//!   drops, verifications.
//! * **Gauges** are merged by *maximum* (`gauge_max`): run length in
//!   ticks, high-water marks.
//! * **Histograms** bucket a value against a `&'static` bound slice
//!   (`observe`): bucket `i` counts observations `<= bounds[i]`, with a
//!   trailing overflow bucket. Bounds are part of the identity of the
//!   series — merging mismatched bounds is a programming error caught
//!   by a debug assertion.
//!
//! All storage is `BTreeMap`-backed so iteration order, equality and
//! the hand-rolled JSON rendering are deterministic by construction.
//! Aggregation follows the workspace's `NetworkStats` idiom:
//! [`MetricsSnapshot::absorb`] plus `Add`/`AddAssign`/`Sum` impls, so
//! the batch harness can fold per-trial snapshots with the same
//! `.sum()` it already uses for traffic totals.

#![forbid(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Bucket bounds (in logical ticks) for message delivery-delay
/// histograms. Synchronous delivery always takes exactly one tick;
/// delay profiles add their drawn latency on top.
pub const DELAY_TICK_BUCKETS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16];

/// A structured metric key: a `'static` metric name plus optional
/// phase / agent / peer / task labels.
///
/// Label order in the derived `Ord` (name, phase, agent, peer, task)
/// fixes map iteration order, which in turn fixes JSON output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key {
    /// Metric name, e.g. `"link_messages"`.
    pub name: &'static str,
    /// Protocol phase label, e.g. `"bidding"` (see `Phase::label`).
    pub phase: Option<&'static str>,
    /// Acting / sending agent index.
    pub agent: Option<u32>,
    /// Peer (recipient) agent index, for per-link series.
    pub peer: Option<u32>,
    /// Task index, for per-task series.
    pub task: Option<u32>,
}

impl Key {
    /// A bare key with only a metric name.
    pub const fn named(name: &'static str) -> Key {
        Key {
            name,
            phase: None,
            agent: None,
            peer: None,
            task: None,
        }
    }

    /// Sets the phase label.
    #[must_use]
    pub const fn phase(mut self, phase: &'static str) -> Key {
        self.phase = Some(phase);
        self
    }

    /// Sets the acting-agent label.
    #[must_use]
    pub const fn agent(mut self, agent: u32) -> Key {
        self.agent = Some(agent);
        self
    }

    /// Sets the peer (recipient) label.
    #[must_use]
    pub const fn peer(mut self, peer: u32) -> Key {
        self.peer = Some(peer);
        self
    }

    /// Sets the task label.
    #[must_use]
    pub const fn task(mut self, task: u32) -> Key {
        self.task = Some(task);
        self
    }
}

impl fmt::Display for Key {
    /// Renders as `name` or `name{phase=bidding,agent=1,peer=2,task=0}`
    /// with only the present labels, in fixed order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        let mut sep = '{';
        if let Some(p) = self.phase {
            write!(f, "{sep}phase={p}")?;
            sep = ',';
        }
        if let Some(a) = self.agent {
            write!(f, "{sep}agent={a}")?;
            sep = ',';
        }
        if let Some(p) = self.peer {
            write!(f, "{sep}peer={p}")?;
            sep = ',';
        }
        if let Some(t) = self.task {
            write!(f, "{sep}task={t}")?;
            sep = ',';
        }
        if sep == ',' {
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A fixed-bucket histogram: `counts` has one slot per bound plus a
/// trailing overflow bucket. Bucket `i` counts observations
/// `<= bounds[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper-inclusive bucket bounds, smallest first.
    pub bounds: &'static [u64],
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len().saturating_add(1)],
        }
    }

    /// Records one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(slot) {
            *c += 1;
        }
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another histogram's buckets into this one. Bounds must
    /// match — series identity includes its bounds.
    pub fn absorb(&mut self, other: &Histogram) {
        debug_assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }
}

/// Where instrumented code publishes measurements. Implemented by
/// [`MetricsSnapshot`]; taking `&mut dyn MetricsSink` (or a generic)
/// lets the transports and the phase state machine stay ignorant of
/// storage.
pub trait MetricsSink {
    /// Adds `by` to the counter at `key`.
    fn incr(&mut self, key: Key, by: u64);

    /// Raises the gauge at `key` to `value` if larger (merge = max).
    fn gauge_max(&mut self, key: Key, value: u64);

    /// Records `value` into the histogram at `key`, creating it over
    /// `bounds` on first use.
    fn observe(&mut self, key: Key, bounds: &'static [u64], value: u64);
}

/// A complete, order-deterministic set of metrics for one run (or an
/// aggregate of many — see [`MetricsSnapshot::absorb`]).
///
/// Merge semantics: counters add, gauges take the maximum, histograms
/// add bucket-wise. Equality is exact, which is what the determinism
/// suite relies on.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<Key, u64>,
    /// High-water marks (merged by max).
    pub gauges: BTreeMap<Key, u64>,
    /// Fixed-bucket distributions.
    pub histograms: BTreeMap<Key, Histogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Reads a counter, zero if never incremented.
    pub fn counter(&self, key: &Key) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Reads a gauge, zero if never set.
    pub fn gauge(&self, key: &Key) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Reads a histogram, if the series exists.
    pub fn histogram(&self, key: &Key) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Sums every counter whose metric name is `name`, ignoring
    /// labels — e.g. total `link_messages` across all links.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Sums counters named `name` grouped by their phase label;
    /// unlabelled entries are skipped. The map is ordered by phase
    /// string, so rendering is deterministic.
    pub fn counter_by_phase(&self, name: &str) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (key, value) in &self.counters {
            if key.name == name {
                if let Some(phase) = key.phase {
                    *out.entry(phase).or_insert(0) += value;
                }
            }
        }
        out
    }

    /// Removes every counter, gauge and histogram series whose metric
    /// name is `name`, whatever its labels, returning the filtered
    /// snapshot. Equivalence tests use this to compare snapshots
    /// *modulo* a deliberately engine-dependent series (e.g. the
    /// scheduler's `events_processed` gauge, which counts processed
    /// ticks and therefore legitimately differs between the event
    /// engine and the polling oracle while everything else must stay
    /// bit-identical).
    #[must_use]
    pub fn without_metric(mut self, name: &str) -> MetricsSnapshot {
        self.counters.retain(|k, _| k.name != name);
        self.gauges.retain(|k, _| k.name != name);
        self.histograms.retain(|k, _| k.name != name);
        self
    }

    /// Accumulates another snapshot into this one: counters add,
    /// gauges max, histogram buckets add. Mirrors
    /// `NetworkStats::absorb`, so the batch harness folds snapshots
    /// the same way it folds traffic counters.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (key, value) in &other.counters {
            *self.counters.entry(*key).or_insert(0) += value;
        }
        for (key, value) in &other.gauges {
            let slot = self.gauges.entry(*key).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (key, hist) in &other.histograms {
            self.histograms
                .entry(*key)
                .or_insert_with(|| Histogram::new(hist.bounds))
                .absorb(hist);
        }
    }

    /// Renders the snapshot as a self-contained JSON object with
    /// deterministic key order (the `BTreeMap` order of [`Key`]).
    /// Hand-rolled because the vendored `serde` is a marker-only stub.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let item = " ".repeat(indent + 4);
        let mut out = String::from("{\n");

        let scalar_block = |title: &str, map: &BTreeMap<Key, u64>, trailing: bool| {
            let mut block = format!("{inner}\"{title}\": {{");
            let mut first = true;
            for (key, value) in map {
                if !first {
                    block.push(',');
                }
                first = false;
                block.push_str(&format!("\n{item}\"{key}\": {value}"));
            }
            if !first {
                block.push_str(&format!("\n{inner}"));
            }
            block.push('}');
            if trailing {
                block.push(',');
            }
            block.push('\n');
            block
        };

        out.push_str(&scalar_block("counters", &self.counters, true));
        out.push_str(&scalar_block("gauges", &self.gauges, true));

        out.push_str(&format!("{inner}\"histograms\": {{"));
        let mut first = true;
        for (key, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let bounds: Vec<String> = hist.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = hist.counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n{item}\"{key}\": {{\"bounds\": [{}], \"counts\": [{}]}}",
                bounds.join(", "),
                counts.join(", ")
            ));
        }
        if !first {
            out.push_str(&format!("\n{inner}"));
        }
        out.push_str("}\n");
        out.push_str(&format!("{pad}}}"));
        out
    }
}

impl MetricsSink for MetricsSnapshot {
    fn incr(&mut self, key: Key, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    fn gauge_max(&mut self, key: Key, value: u64) {
        let slot = self.gauges.entry(key).or_insert(0);
        *slot = (*slot).max(value);
    }

    fn observe(&mut self, key: Key, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }
}

impl std::ops::AddAssign for MetricsSnapshot {
    fn add_assign(&mut self, other: MetricsSnapshot) {
        self.absorb(&other);
    }
}

impl std::ops::Add for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn add(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        self += other;
        self
    }
}

impl std::iter::Sum for MetricsSnapshot {
    fn sum<I: Iterator<Item = MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), std::ops::Add::add)
    }
}

impl<'a> std::iter::Sum<&'a MetricsSnapshot> for MetricsSnapshot {
    fn sum<I: Iterator<Item = &'a MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), |mut acc, s| {
            acc.absorb(s);
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_renders_only_present_labels() {
        assert_eq!(Key::named("run_ticks").to_string(), "run_ticks");
        assert_eq!(
            Key::named("phase_messages")
                .phase("bidding")
                .agent(1)
                .task(0)
                .to_string(),
            "phase_messages{phase=bidding,agent=1,task=0}"
        );
        assert_eq!(
            Key::named("link_bytes").agent(2).peer(4).to_string(),
            "link_bytes{agent=2,peer=4}"
        );
    }

    #[test]
    fn key_order_is_name_then_labels() {
        let a = Key::named("a").agent(9);
        let b = Key::named("b");
        let b0 = Key::named("b").agent(0);
        assert!(a < b);
        assert!(b < b0, "labelled key sorts after its bare name");
    }

    #[test]
    fn histogram_buckets_are_upper_inclusive_with_overflow() {
        let mut h = Histogram::new(&[1, 2, 4]);
        for v in [0, 1, 2, 3, 4, 5, 100] {
            h.observe(v);
        }
        // <=1: {0,1}; <=2: {2}; <=4: {3,4}; overflow: {5,100}.
        assert_eq!(h.counts, vec![2, 1, 2, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn merge_semantics_counters_add_gauges_max_histograms_add() {
        let mut a = MetricsSnapshot::new();
        a.incr(Key::named("msgs"), 3);
        a.gauge_max(Key::named("run_ticks"), 6);
        a.observe(Key::named("delay"), &[1, 2], 1);

        let mut b = MetricsSnapshot::new();
        b.incr(Key::named("msgs"), 4);
        b.incr(Key::named("drops"), 1);
        b.gauge_max(Key::named("run_ticks"), 9);
        b.observe(Key::named("delay"), &[1, 2], 5);

        let total: MetricsSnapshot = [a.clone(), b.clone()].iter().sum();
        assert_eq!(total.counter(&Key::named("msgs")), 7);
        assert_eq!(total.counter(&Key::named("drops")), 1);
        assert_eq!(total.gauge(&Key::named("run_ticks")), 9);
        let h = total.histogram(&Key::named("delay")).expect("series");
        assert_eq!(h.counts, vec![1, 0, 1]);
        assert_eq!(a.clone() + b.clone(), total);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, total);
    }

    #[test]
    fn query_helpers_group_by_name_and_phase() {
        let mut m = MetricsSnapshot::new();
        m.incr(Key::named("phase_messages").phase("bidding").agent(0), 2);
        m.incr(Key::named("phase_messages").phase("bidding").agent(1), 3);
        m.incr(Key::named("phase_messages").phase("claimed").agent(0), 1);
        m.incr(Key::named("other"), 50);
        assert_eq!(m.counter_total("phase_messages"), 6);
        let by_phase = m.counter_by_phase("phase_messages");
        assert_eq!(by_phase.get("bidding"), Some(&5));
        assert_eq!(by_phase.get("claimed"), Some(&1));
        assert_eq!(by_phase.len(), 2);
    }

    #[test]
    fn without_metric_strips_a_series_across_all_stores() {
        let mut m = MetricsSnapshot::new();
        m.incr(Key::named("events_processed").agent(0), 2);
        m.gauge_max(Key::named("events_processed"), 9);
        m.gauge_max(Key::named("run_ticks"), 6);
        m.observe(Key::named("events_processed"), &[1, 2], 1);
        m.observe(Key::named("delay"), &[1, 2], 1);
        let filtered = m.without_metric("events_processed");
        assert_eq!(filtered.counter_total("events_processed"), 0);
        assert_eq!(filtered.gauge(&Key::named("events_processed")), 0);
        assert!(filtered
            .histogram(&Key::named("events_processed"))
            .is_none());
        assert_eq!(filtered.gauge(&Key::named("run_ticks")), 6);
        assert!(filtered.histogram(&Key::named("delay")).is_some());
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let mut m = MetricsSnapshot::new();
        m.incr(Key::named("msgs").agent(1), 2);
        m.gauge_max(Key::named("run_ticks"), 6);
        m.observe(Key::named("delay"), &[1, 2], 1);
        let json = m.to_json(0);
        assert_eq!(json, m.clone().to_json(0), "rendering is a pure function");
        assert!(json.contains("\"msgs{agent=1}\": 2"));
        assert!(json.contains("\"run_ticks\": 6"));
        assert!(json.contains("\"delay\": {\"bounds\": [1, 2], \"counts\": [1, 0, 0]}"));
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let json = MetricsSnapshot::new().to_json(0);
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
