//! A synchronous message-passing network simulator for distributed
//! mechanism experiments.
//!
//! The DMW paper defers evaluation to "implementing DMW in a simulated
//! distributed environment" (Section 5, future work); this crate is that
//! environment. It models exactly what the paper assumes:
//!
//! * **private point-to-point channels** between every pair of agents and a
//!   **broadcast channel** (Section 3, "Notation") — broadcast is
//!   implemented as `n − 1` point-to-point transmissions, matching the cost
//!   accounting of Theorem 11 ("we assume no explicit broadcast facilities");
//! * an **obedient transport**: messages are neither reordered in flight
//!   nor corrupted (Theorem 3 assumes the underlying network is obedient
//!   — dishonest *content* is produced by deviating agents, not by the
//!   network);
//! * **delivery timing as a parameter**: the [`Transport`] trait
//!   abstracts *when* an enqueued message becomes visible, and
//!   [`DelayTransport`] implements it by holding each message for a
//!   deterministic seeded per-link delay, modelling asynchrony without
//!   giving up replayability. Its zero-delay profile
//!   ([`DelayTransport::new`], also named [`LockstepTransport`]) is the
//!   paper's synchronous rounds with implicit barriers (protocol step
//!   II.4, "agents implicitly synchronize at this point");
//! * **fault injection**: crash faults (an agent stops sending and
//!   receiving), link drops and link delays, used by the resilience
//!   ablation.
//!
//! Every transmission is tallied in [`NetworkStats`]; the Table 1
//! communication experiment reads its counters.
//!
//! # Example
//!
//! ```
//! use dmw_simnet::{DelayTransport, NodeId, Transport};
//!
//! let mut net: DelayTransport<u64> = DelayTransport::new(3);
//! net.send(NodeId(0), NodeId(1), 41);
//! net.broadcast(NodeId(2), 42);
//! net.step(); // deliver the round's traffic
//! assert_eq!(net.take_inbox(NodeId(1)).len(), 2); // unicast + broadcast
//! assert_eq!(net.stats().point_to_point, 1 + 2);  // broadcast = n−1 sends
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No wall-clock reads (clippy.toml's `disallowed-types`): `forbid`, so
// no `#[allow]` can waive it.
#![forbid(clippy::disallowed_types)]

pub mod delay;
pub mod faults;
pub mod network;
pub mod stats;
pub mod transport;

pub use delay::{DelayProfile, DelayTransport, LockstepTransport};
pub use faults::FaultPlan;
pub use network::{Delivered, NodeId, Payload, Recipient};
pub use stats::NetworkStats;
pub use transport::{coalesce, Transport};
