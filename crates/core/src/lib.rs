//! **Distributed MinWork (DMW)** — a faithful, privacy-preserving
//! distributed mechanism for scheduling on unrelated machines.
//!
//! This crate is a from-scratch reproduction of the mechanism of
//! T. E. Carroll and D. Grosu, *"Distributed algorithmic mechanism design
//! for scheduling on unrelated machines"* (PODC 2005 brief announcement;
//! extended version in J. Parallel Distrib. Comput. 71, 2011). DMW removes
//! the trusted center of Nisan–Ronen's MinWork mechanism: the agents
//! themselves compute the schedule and the payments by running, for every
//! task, a *distributed Vickrey auction* built on degree-encoded secret
//! sharing, Pedersen commitments and distributed Lagrange degree resolution
//! (substrates: [`dmw_crypto`], [`dmw_modmath`]), over a simulated network
//! ([`dmw_simnet`]).
//!
//! The crate layers, bottom to top:
//!
//! * [`config`] — Phase I (*Initialization*): group parameters, pseudonyms,
//!   bid set, fault threshold;
//! * [`messages`] — the protocol message vocabulary with wire-size
//!   accounting (feeding the paper's Table 1 communication measurements);
//! * [`strategy`] — the suggested strategy plus a library of *deviating*
//!   behaviors used to test faithfulness (Theorems 4–5) empirically;
//! * [`agent`] — the four-phase per-agent state machine (Bidding,
//!   Allocating Tasks, Payments), which detects deviations and aborts;
//! * [`payment`] — the payment infrastructure stub: payments are issued
//!   only when the agents' claims agree (Phase IV);
//! * [`runner`] — drives `n` agents over the simulated network, collects
//!   the outcome, traffic statistics and a message trace (Fig. 2);
//! * [`batch`] — fans *independent* trials (and, inside a trial, the
//!   share-verification work) across a thread pool with per-trial seeded
//!   RNG streams, bit-identical to sequential execution;
//! * [`collusion`] — coalition attacks against losing bids, measuring the
//!   privacy threshold of Theorem 10;
//! * [`audit`] — faithfulness / strong-voluntary-participation experiment
//!   harnesses (Theorems 4–9).
//!
//! # Quickstart
//!
//! ```
//! use dmw::config::DmwConfig;
//! use dmw::runner::DmwRunner;
//! use dmw_mechanism::ExecutionTimes;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // n = 5 agents, c = 1 tolerated fault; bids live in W = {1, 2, 3}.
//! let config = DmwConfig::generate(5, 1, &mut rng)?;
//! // A 5-agent × 2-task bid matrix (true values, reported honestly).
//! let bids = ExecutionTimes::from_rows(vec![
//!     vec![2, 3],
//!     vec![1, 3],
//!     vec![3, 1],
//!     vec![2, 2],
//!     vec![3, 3],
//! ])?;
//! let run = DmwRunner::new(config).run_honest(&bids, &mut rng)?;
//! let outcome = run.completed()?;
//! // Task 1 goes to agent 2 (bid 1), paid the second price 2.
//! assert_eq!(outcome.schedule.agent_of(0.into()), Some(1.into()));
//! assert_eq!(outcome.payments[1], 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No wall-clock reads (clippy.toml's `disallowed-types`): `forbid`, so
// no `#[allow]` can waive it.
#![forbid(clippy::disallowed_types)]

// The protocol-critical modules parse and dispatch peers' bytes, so a
// panic there is a remote crash: no panic paths outside test code (the
// root clippy.toml exempts tests). The codec and the runner must also
// name every protocol variant, so a new message fails to compile at
// each dispatch site; `forbid` keeps that unwaivable. See
// docs/static_analysis.md.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod agent;
pub mod audit;
pub mod batch;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#[forbid(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub mod codec;
pub mod collusion;
pub mod config;
pub mod error;
pub mod identity;
pub mod messages;
pub mod obedient;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod payment;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub mod phases;
pub mod related_distributed;
pub mod reliable;
pub mod repeated;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#[forbid(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub mod runner;
pub mod strategy;
pub mod trace;

pub use config::DmwConfig;
pub use error::DmwError;
pub use runner::{CompletedOutcome, DmwRun, DmwRunner, Engine, RunResult};
pub use strategy::{Behavior, VerificationPolicy};
