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
use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct TransientWindow {
    from: usize,
    to: usize,
    start: u64,
    end: u64,
}

/// One flapping schedule: the directed link repeats `up` healthy rounds
/// followed by `down` dead rounds, keyed on the send round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LinkFlap {
    from: usize,
    to: usize,
    up: u64,
    down: u64,
}

/// A declarative fault schedule applied by the [`crate::Transport`]
/// implementations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// `Eq` and a canonical serde form. Absent on older serialized plans.
    #[serde(default)]
    drop_prob: Option<(u64, u64)>,
    /// Transient-partition windows, keyed on the send round. Absent on
    /// older serialized plans.
    #[serde(default)]
    transient_windows: Vec<TransientWindow>,
    /// Flapping schedules, keyed on the send round. Absent on older
    /// serialized plans.
    #[serde(default)]
    link_flaps: Vec<LinkFlap>,
    /// Asymmetric ack-path loss: drop every `k`-th *control*
    /// transmission (acks, nacks) while data traffic is untouched —
    /// the regime where selective acknowledgment has to earn its keep.
    /// Keyed on a control-only enqueue counter so the schedule is
    /// independent of how much data shares the wire. Absent on older
    /// serialized plans.
    #[serde(default)]
    ack_drop_every: Option<u64>,
    /// Deterministic reordering: every `k`-th transmission (keyed on the
    /// shared enqueue counter, same as `drop_every`) is held back one
    /// extra round, arriving *after* messages enqueued later. Absent on
    /// older serialized plans.
    #[serde(default)]
    reorder_every: Option<u64>,
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

    /// Drops every `k`-th *control* transmission (acks, nacks — payloads
    /// reporting [`crate::Payload::is_control`]) while data keeps
    /// flowing: the asymmetric regime where a lost acknowledgment, not a
    /// lost payload, is what forces retransmission.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn drop_acks_every(mut self, k: u64) -> Self {
        assert!(k > 0, "ack-drop period must be positive");
        self.ack_drop_every = Some(k);
        self
    }

    /// Is the `counter`-th control transmission (1-based, counting
    /// control traffic only) lost to the ack-path schedule?
    pub fn is_ack_path_dropped(&self, counter: u64) -> bool {
        matches!(self.ack_drop_every, Some(k) if counter.is_multiple_of(k))
    }

    /// Reorders every `k`-th transmission: it survives loss
    /// classification as usual but arrives one round later than its
    /// enqueue slot, behind messages sent after it. Keyed on the same
    /// shared enqueue counter as [`FaultPlan::drop_every`], so both
    /// transports displace the same logical messages.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reorder_every(mut self, k: u64) -> Self {
        assert!(k > 0, "reorder period must be positive");
        self.reorder_every = Some(k);
        self
    }

    /// Is the message with enqueue sequence number `seq` (1-based) held
    /// back by the reorder schedule?
    pub fn is_reordered(&self, seq: u64) -> bool {
        matches!(self.reorder_every, Some(k) if seq.is_multiple_of(k))
    }

    /// Drops each transmission independently with probability `p`,
    /// decided by a seeded hash of the message's enqueue sequence
    /// number — the same logical messages are lost on every transport.
    /// `p` is quantized to parts-per-million so the plan stays `Eq` and
    /// byte-stable under serde.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite probability in `0.0..=1.0`.
    pub fn drop_prob(mut self, p: f64, seed: u64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "drop probability must be in 0.0..=1.0"
        );
        // In-range cast: p ∈ [0, 1] so p · 1e6 rounds to 0..=1_000_000,
        // far inside u64.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
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
        assert!(from.0 < self.crashes.len() && to.0 < self.crashes.len());
        self.dropped_links.insert((from.0, to.0));
        self
    }

    /// Transient partition: drops every message *sent* on the directed
    /// link `from → to` during rounds `start..end` (half-open). Multiple
    /// windows per link are allowed but must not overlap — an
    /// overlapping schedule is almost always a typo, and rejecting it
    /// keeps [`FaultPlan::heal_at`] semantics unambiguous.
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

    /// Heals the directed link `from → to` from `round` on: transient
    /// windows starting at or after `round` are removed, and a window
    /// straddling `round` is truncated to end there. Windows already
    /// closed before `round` are untouched.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn heal_at(mut self, from: NodeId, to: NodeId, round: u64) -> Self {
        assert!(
            from.0 < self.crashes.len() && to.0 < self.crashes.len(),
            "node out of range"
        );
        for w in &mut self.transient_windows {
            if w.from == from.0 && w.to == to.0 && w.end > round {
                w.end = round;
            }
        }
        self.transient_windows
            .retain(|w| !(w.from == from.0 && w.to == to.0 && w.start >= w.end));
        self
    }

    /// Is the directed link `from → to` transiently partitioned for
    /// messages sent at `round`?
    pub fn is_transiently_dropped(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.transient_windows
            .iter()
            .any(|w| w.from == from.0 && w.to == to.0 && (w.start..w.end).contains(&round))
    }

    /// Link flapping: the directed link `from → to` repeats `up` healthy
    /// rounds followed by `down` dead rounds, starting healthy at round
    /// `0` and keyed on the send round. Scheduling the same link twice
    /// keeps the later values.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `up == 0 || down == 0`
    /// (a zero phase is either "always down" — use
    /// [`FaultPlan::drop_link`] — or "never down" — omit the flap).
    pub fn flap_link(mut self, from: NodeId, to: NodeId, up: u64, down: u64) -> Self {
        assert!(
            from.0 < self.crashes.len() && to.0 < self.crashes.len(),
            "node out of range"
        );
        assert!(up > 0 && down > 0, "flap phases must both be positive");
        if let Some(entry) = self
            .link_flaps
            .iter_mut()
            .find(|f| f.from == from.0 && f.to == to.0)
        {
            entry.up = up;
            entry.down = down;
        } else {
            self.link_flaps.push(LinkFlap {
                from: from.0,
                to: to.0,
                up,
                down,
            });
        }
        self
    }

    /// Is the directed link `from → to` in the dead phase of its flap
    /// schedule for messages sent at `round`?
    pub fn is_flapped_down(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.link_flaps
            .iter()
            .any(|f| f.from == from.0 && f.to == to.0 && round % (f.up + f.down) >= f.up)
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
        assert!(from.0 < self.crashes.len() && to.0 < self.crashes.len());
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

    /// The scheduled extra delay for the directed link `from → to`, or
    /// `None` when the plan has no entry for it. `None` and `Some(0)`
    /// deliver identically; the distinction only tells you whether the
    /// plan *mentions* the link. Use [`FaultPlan::link_delay_or_zero`]
    /// when only the effective latency matters.
    pub fn link_delay(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.link_delays
            .iter()
            .find(|(f, t, _)| *f == from.0 && *t == to.0)
            .map(|(_, _, d)| *d)
    }

    /// The effective extra delay for the directed link `from → to`
    /// (`0` when the plan has no entry) — the convenience form the
    /// transports use.
    pub fn link_delay_or_zero(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_delay(from, to).unwrap_or(0)
    }

    /// Number of nodes that are crashed as of `round`.
    pub fn crashed_count(&self, round: u64) -> usize {
        self.crashes
            .iter()
            .filter(|c| matches!(c, Some(r) if *r <= round))
            .count()
    }

    /// Serializes the plan as canonical single-line JSON: fixed field
    /// order, dropped links sorted, integers only. The serde derives in
    /// this workspace are offline marker stubs (see `vendor/serde`), so
    /// this hand-rolled form — the same approach `dmw-obs` takes for
    /// `MetricsSnapshot::to_json` — is the operative wire format for
    /// fault plans. Equal plans always serialize to identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"crashes\":[");
        for (i, c) in self.crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match c {
                Some(r) => out.push_str(&r.to_string()),
                None => out.push_str("null"),
            }
        }
        out.push_str("],\"dropped_links\":[");
        // BTreeSet iterates in sorted order, which is exactly the
        // canonical-JSON order this format requires.
        for (i, (f, t)) in self.dropped_links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{f},{t}]"));
        }
        out.push_str("],\"drop_every\":");
        match self.drop_every {
            Some(k) => out.push_str(&k.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"link_delays\":[");
        for (i, (f, t, d)) in self.link_delays.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{f},{t},{d}]"));
        }
        out.push_str("],\"drop_prob\":");
        match self.drop_prob {
            Some((ppm, seed)) => out.push_str(&format!("[{ppm},{seed}]")),
            None => out.push_str("null"),
        }
        out.push_str(",\"transient_windows\":[");
        for (i, w) in self.transient_windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{},{}]", w.from, w.to, w.start, w.end));
        }
        out.push_str("],\"link_flaps\":[");
        for (i, f) in self.link_flaps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{},{}]", f.from, f.to, f.up, f.down));
        }
        out.push_str("],\"ack_drop_every\":");
        match self.ack_drop_every {
            Some(k) => out.push_str(&k.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"reorder_every\":");
        match self.reorder_every {
            Some(k) => out.push_str(&k.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Parses a plan from [`FaultPlan::to_json`]'s format, validating
    /// every builder invariant (node ranges, non-zero periods, window
    /// ordering and overlap) so a hand-edited plan cannot smuggle in a
    /// state the builders would have rejected. The three chaos-matrix
    /// fields (`drop_prob`, `transient_windows`, `link_flaps`) may be
    /// omitted — plans recorded before they existed parse with those
    /// fields defaulted. Unknown keys are an error.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let mut cur = json::Cursor::new(text);
        let mut plan = FaultPlan::default();
        cur.expect(b'{')?;
        if !cur.eat(b'}') {
            loop {
                let key = cur.string()?;
                cur.expect(b':')?;
                match key.as_str() {
                    "crashes" => plan.crashes = cur.array(json::Cursor::opt_u64)?,
                    "dropped_links" => {
                        for pair in cur.array(|c| c.fixed_tuple(2))? {
                            plan.dropped_links
                                .insert((json::index(pair[0])?, json::index(pair[1])?));
                        }
                    }
                    "drop_every" => plan.drop_every = cur.opt_u64()?,
                    "link_delays" => {
                        for t in cur.array(|c| c.fixed_tuple(3))? {
                            plan.link_delays
                                .push((json::index(t[0])?, json::index(t[1])?, t[2]));
                        }
                    }
                    "drop_prob" => {
                        plan.drop_prob = cur.opt_tuple(2)?.map(|t| (t[0], t[1]));
                    }
                    "transient_windows" => {
                        for t in cur.array(|c| c.fixed_tuple(4))? {
                            plan.transient_windows.push(TransientWindow {
                                from: json::index(t[0])?,
                                to: json::index(t[1])?,
                                start: t[2],
                                end: t[3],
                            });
                        }
                    }
                    "link_flaps" => {
                        for t in cur.array(|c| c.fixed_tuple(4))? {
                            plan.link_flaps.push(LinkFlap {
                                from: json::index(t[0])?,
                                to: json::index(t[1])?,
                                up: t[2],
                                down: t[3],
                            });
                        }
                    }
                    "ack_drop_every" => plan.ack_drop_every = cur.opt_u64()?,
                    "reorder_every" => plan.reorder_every = cur.opt_u64()?,
                    other => return Err(format!("unknown key {other:?}")),
                }
                if cur.eat(b'}') {
                    break;
                }
                cur.expect(b',')?;
            }
        }
        cur.end()?;
        plan.validate()?;
        Ok(plan)
    }

    /// Re-checks every invariant the builder methods assert, as a
    /// `Result` — the safe boundary for plans arriving from
    /// [`FaultPlan::from_json`] rather than the typed builders.
    fn validate(&self) -> Result<(), String> {
        let n = self.crashes.len();
        let node_ok = |i: usize| -> Result<(), String> {
            if i < n {
                Ok(())
            } else {
                Err(format!("node {i} out of range for {n} nodes"))
            }
        };
        for (f, t) in &self.dropped_links {
            node_ok(*f)?;
            node_ok(*t)?;
        }
        if self.drop_every == Some(0) {
            return Err("drop period must be positive".into());
        }
        if self.ack_drop_every == Some(0) {
            return Err("ack-drop period must be positive".into());
        }
        if self.reorder_every == Some(0) {
            return Err("reorder period must be positive".into());
        }
        for (f, t, _) in &self.link_delays {
            node_ok(*f)?;
            node_ok(*t)?;
        }
        if let Some((ppm, _)) = self.drop_prob {
            if ppm > PPM {
                return Err(format!("drop probability {ppm} ppm exceeds 1.0"));
            }
        }
        for (i, w) in self.transient_windows.iter().enumerate() {
            node_ok(w.from)?;
            node_ok(w.to)?;
            if w.start >= w.end {
                return Err(format!(
                    "transient window {}..{} must satisfy start < end",
                    w.start, w.end
                ));
            }
            for other in self.transient_windows.iter().take(i) {
                if other.from == w.from
                    && other.to == w.to
                    && w.end > other.start
                    && other.end > w.start
                {
                    return Err(format!(
                        "transient window {}..{} overlaps {}..{} on link {} → {}",
                        w.start, w.end, other.start, other.end, w.from, w.to
                    ));
                }
            }
        }
        for f in &self.link_flaps {
            node_ok(f.from)?;
            node_ok(f.to)?;
            if f.up == 0 || f.down == 0 {
                return Err("flap phases must both be positive".into());
            }
        }
        Ok(())
    }
}

/// The minimal strict JSON reader behind [`FaultPlan::from_json`]: bare
/// unsigned integers, `null`, arrays, and string keys — exactly the
/// grammar [`FaultPlan::to_json`] emits, with whitespace tolerated.
mod json {
    /// Converts a parsed `u64` into a node index.
    pub(super) fn index(v: u64) -> Result<usize, String> {
        usize::try_from(v).map_err(|_| format!("node id {v} does not fit in usize"))
    }

    pub(super) struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub(super) fn new(text: &'a str) -> Self {
            Cursor {
                bytes: text.as_bytes(),
                pos: 0,
            }
        }

        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        pub(super) fn expect(&mut self, want: u8) -> Result<(), String> {
            match self.peek() {
                Some(b) if b == want => {
                    self.pos += 1;
                    Ok(())
                }
                found => Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    want as char,
                    self.pos,
                    found.map(|b| b as char)
                )),
            }
        }

        pub(super) fn eat(&mut self, want: u8) -> bool {
            if self.peek() == Some(want) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn keyword(&mut self, word: &str) -> bool {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        pub(super) fn u64(&mut self) -> Result<u64, String> {
            self.skip_ws();
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(format!("expected a number at byte {start}"));
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("number out of range at byte {start}"))
        }

        pub(super) fn opt_u64(&mut self) -> Result<Option<u64>, String> {
            if self.keyword("null") {
                Ok(None)
            } else {
                self.u64().map(Some)
            }
        }

        /// A double-quoted key; the grammar never needs escapes.
        pub(super) fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| *b != b'"' && *b != b'\\')
            {
                self.pos += 1;
            }
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("unterminated string at byte {start}"));
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-UTF-8 string".to_string())?
                .to_string();
            self.pos += 1;
            Ok(s)
        }

        pub(super) fn array<T>(
            &mut self,
            mut elem: impl FnMut(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            if self.eat(b']') {
                return Ok(out);
            }
            loop {
                out.push(elem(self)?);
                if self.eat(b']') {
                    return Ok(out);
                }
                self.expect(b',')?;
            }
        }

        /// A `[u64; arity]` array, e.g. `[from,to,start,end]`.
        pub(super) fn fixed_tuple(&mut self, arity: usize) -> Result<Vec<u64>, String> {
            let vals = self.array(Self::u64)?;
            if vals.len() == arity {
                Ok(vals)
            } else {
                Err(format!("expected {arity} elements, found {}", vals.len()))
            }
        }

        /// `null` or a `[u64; arity]` array.
        pub(super) fn opt_tuple(&mut self, arity: usize) -> Result<Option<Vec<u64>>, String> {
            if self.keyword("null") {
                Ok(None)
            } else {
                self.fixed_tuple(arity).map(Some)
            }
        }

        /// Asserts nothing but whitespace remains.
        pub(super) fn end(&mut self) -> Result<(), String> {
            self.skip_ws();
            if self.pos == self.bytes.len() {
                Ok(())
            } else {
                Err(format!("trailing bytes at {}", self.pos))
            }
        }
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
        assert_eq!(plan.crashed_count(1), 0);
        assert_eq!(plan.crashed_count(2), 1);
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
        assert_eq!(plan.link_delay(NodeId(0), NodeId(1)), Some(4));
        assert_eq!(plan.link_delay(NodeId(1), NodeId(0)), None);
        assert_eq!(plan.link_delay_or_zero(NodeId(1), NodeId(0)), 0);
        assert_eq!(plan.link_delay(NodeId(2), NodeId(0)), Some(1));
        assert_eq!(plan.link_delay_or_zero(NodeId(2), NodeId(0)), 1);
    }

    #[test]
    fn link_delay_distinguishes_explicit_zero_from_absent() {
        let plan = FaultPlan::none(2).delay_link(NodeId(0), NodeId(1), 0);
        assert_eq!(plan.link_delay(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(plan.link_delay(NodeId(1), NodeId(0)), None);
        assert_eq!(plan.link_delay_or_zero(NodeId(0), NodeId(1)), 0);
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

    #[test]
    fn heal_at_truncates_and_removes_windows() {
        let plan = FaultPlan::none(3)
            .drop_link_between(NodeId(0), NodeId(1), 2, 8)
            .drop_link_between(NodeId(0), NodeId(1), 10, 12)
            .drop_link_between(NodeId(1), NodeId(0), 2, 8)
            .heal_at(NodeId(0), NodeId(1), 5);
        // Straddling window truncated to 2..5, later window removed.
        assert!(plan.is_transiently_dropped(NodeId(0), NodeId(1), 4));
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 5));
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 11));
        // Other direction untouched.
        assert!(plan.is_transiently_dropped(NodeId(1), NodeId(0), 7));
    }

    #[test]
    fn flapping_alternates_up_and_down_phases() {
        let plan = FaultPlan::none(3).flap_link(NodeId(0), NodeId(1), 2, 3);
        // Period 5: rounds 0,1 up; 2,3,4 down; repeating.
        for round in [0u64, 1, 5, 6, 10] {
            assert!(
                !plan.is_flapped_down(NodeId(0), NodeId(1), round),
                "round {round} should be up"
            );
        }
        for round in [2u64, 3, 4, 7, 8, 9] {
            assert!(
                plan.is_flapped_down(NodeId(0), NodeId(1), round),
                "round {round} should be down"
            );
        }
        assert!(
            !plan.is_flapped_down(NodeId(1), NodeId(0), 2),
            "directional"
        );
    }

    #[test]
    fn flap_link_is_last_write_wins() {
        let plan = FaultPlan::none(3)
            .flap_link(NodeId(0), NodeId(1), 1, 1)
            .flap_link(NodeId(0), NodeId(1), 3, 1);
        assert!(!plan.is_flapped_down(NodeId(0), NodeId(1), 1));
        assert!(plan.is_flapped_down(NodeId(0), NodeId(1), 3));
    }

    #[test]
    #[should_panic(expected = "flap phases")]
    fn zero_flap_phase_panics() {
        let _ = FaultPlan::none(3).flap_link(NodeId(0), NodeId(1), 2, 0);
    }

    #[test]
    fn json_round_trips_a_fully_loaded_plan() {
        let plan = FaultPlan::none(4)
            .crash_at(NodeId(3), 7)
            .drop_link(NodeId(0), NodeId(2))
            .drop_link(NodeId(2), NodeId(1))
            .drop_every(5)
            .delay_link(NodeId(1), NodeId(2), 3)
            .drop_prob(0.125, 0xFEED)
            .drop_link_between(NodeId(0), NodeId(1), 2, 6)
            .flap_link(NodeId(2), NodeId(3), 2, 2)
            .drop_acks_every(4)
            .reorder_every(9);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("deserialize");
        assert_eq!(plan, back, "round trip must be lossless");
        assert_eq!(json, back.to_json(), "canonical form is stable");
    }

    #[test]
    fn json_round_trips_the_empty_plan() {
        let plan = FaultPlan::none(2);
        let back = FaultPlan::from_json(&plan.to_json()).expect("deserialize");
        assert_eq!(plan, back);
    }

    #[test]
    fn json_accepts_plans_without_the_new_fields() {
        // A plan serialized before the chaos-matrix fields existed must
        // still parse, with the missing fields defaulted.
        let legacy = r#"{
            "crashes": [null, 2],
            "dropped_links": [[0, 1]],
            "drop_every": 3,
            "link_delays": [[1, 0, 4]]
        }"#;
        let plan = FaultPlan::from_json(legacy).expect("legacy plan");
        assert!(plan.is_crashed(NodeId(1), 2));
        assert!(plan.is_link_dropped(NodeId(0), NodeId(1)));
        assert!(plan.is_periodically_dropped(3));
        assert_eq!(plan.link_delay(NodeId(1), NodeId(0)), Some(4));
        assert!(!plan.is_probabilistically_dropped(1));
        assert!(!plan.is_transiently_dropped(NodeId(0), NodeId(1), 0));
        assert!(!plan.is_flapped_down(NodeId(0), NodeId(1), 0));
        assert!(!plan.is_ack_path_dropped(1));
        assert!(!plan.is_reordered(1));
    }

    #[test]
    fn ack_path_and_reorder_schedules_are_periodic() {
        let plan = FaultPlan::none(2).drop_acks_every(3).reorder_every(2);
        assert!(!plan.is_ack_path_dropped(1));
        assert!(!plan.is_ack_path_dropped(2));
        assert!(plan.is_ack_path_dropped(3));
        assert!(plan.is_ack_path_dropped(6));
        assert!(!plan.is_reordered(1));
        assert!(plan.is_reordered(2));
        assert!(plan.is_reordered(4));
        // Orthogonal to the symmetric periodic-drop schedule.
        assert!(!plan.is_periodically_dropped(3));
    }

    #[test]
    #[should_panic(expected = "ack-drop period must be positive")]
    fn drop_acks_every_zero_panics() {
        let _ = FaultPlan::none(2).drop_acks_every(0);
    }

    #[test]
    #[should_panic(expected = "reorder period must be positive")]
    fn reorder_every_zero_panics() {
        let _ = FaultPlan::none(2).reorder_every(0);
    }

    #[test]
    fn json_rejects_invalid_plans() {
        for (case, text) in [
            ("unknown key", r#"{"crashes":[null],"bogus":1}"#),
            ("trailing bytes", r#"{"crashes":[null]} x"#),
            (
                "zero drop period",
                r#"{"crashes":[null,null],"drop_every":0}"#,
            ),
            (
                "out-of-range link",
                r#"{"crashes":[null,null],"dropped_links":[[0,7]]}"#,
            ),
            (
                "empty transient window",
                r#"{"crashes":[null,null],"transient_windows":[[0,1,5,5]]}"#,
            ),
            (
                "overlapping transient windows",
                r#"{"crashes":[null,null],"transient_windows":[[0,1,2,5],[0,1,4,8]]}"#,
            ),
            (
                "zero flap phase",
                r#"{"crashes":[null,null],"link_flaps":[[0,1,2,0]]}"#,
            ),
            (
                "drop probability above 1",
                r#"{"crashes":[null,null],"drop_prob":[2000000,0]}"#,
            ),
            (
                "zero ack-drop period",
                r#"{"crashes":[null,null],"ack_drop_every":0}"#,
            ),
            (
                "zero reorder period",
                r#"{"crashes":[null,null],"reorder_every":0}"#,
            ),
        ] {
            assert!(
                FaultPlan::from_json(text).is_err(),
                "{case}: parser must reject {text}"
            );
        }
    }
}
