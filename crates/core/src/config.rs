//! Phase I — *Initialization*: the published protocol parameters.
//!
//! "The parameters `p, q, z1, z2, c, A` and `W` are published" (step I.1).
//! [`DmwConfig`] bundles exactly those: the Schnorr group `(p, q, z1, z2)`,
//! the fault threshold `c` (inside [`BidEncoding`] together with `W`), and
//! the pseudonym set `A = {α_1, …, α_n}` of distinct non-zero elements of
//! the exponent field. From the pseudonyms it also derives, once, the
//! multi-exponentiation plan of each pseudonym's powers: every eq. (7)–(9)
//! share check at that pseudonym, every eq. (9) check of a claimed point
//! there, and every eq. (11) and (13) check of that agent runs on it. It
//! also derives the Lagrange-at-zero coefficients of all `n` pseudonyms;
//! every eq. (12) resolution takes its own from them by removing points.

use crate::error::DmwError;
use dmw_crypto::commitments::powers_plan;
use dmw_crypto::BidEncoding;
use dmw_modmath::lagrange::ZeroCoefficients;
use dmw_modmath::multiexp::ExponentPlan;
use dmw_modmath::{ModMathError, SchnorrGroup};
use rand::Rng;
use std::sync::Arc;

/// Default bit size of the group modulus `p` used by
/// [`DmwConfig::generate`]. Large enough to make accidental resolutions
/// (probability `≈ |W|/q`) negligible in experiments, small enough that a
/// laptop sweeps thousands of auctions; [`DmwConfig::generate_with_bits`]
/// exposes the full range for the Table 1 `log p` sweep.
pub const DEFAULT_P_BITS: u32 = 48;

/// Default bit size of the subgroup order `q`.
pub const DEFAULT_Q_BITS: u32 = 24;

/// The published parameters of one DMW deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmwConfig {
    group: SchnorrGroup,
    encoding: BidEncoding,
    pseudonyms: Vec<u64>,
    derived: Derived,
}

/// What a run needs from the pseudonyms, derived once from the published
/// parameters (like the group's fixed-base tables) and shared by every
/// clone of the configuration: the only place a run derives either.
/// Equality and `Debug` skip it: it is a function of the fields beside
/// it.
#[derive(Clone)]
struct Derived {
    /// The [`powers_plan`] of every pseudonym at `σ`.
    plans: Arc<[ExponentPlan]>,
    /// The Lagrange-at-zero coefficients of all `n` pseudonyms, in agent
    /// order.
    zero: Arc<ZeroCoefficients>,
}

impl Derived {
    fn new(
        group: &SchnorrGroup,
        encoding: &BidEncoding,
        pseudonyms: &[u64],
    ) -> Result<Self, ModMathError> {
        let sigma = encoding.sigma();
        Ok(Derived {
            plans: pseudonyms
                .iter()
                .map(|&alpha| powers_plan(group, alpha, sigma))
                .collect(),
            zero: Arc::new(ZeroCoefficients::from_points(&group.zq(), pseudonyms)?),
        })
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Derived {}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Derived").finish_non_exhaustive()
    }
}

impl DmwConfig {
    /// Generates parameters for `n` agents tolerating `c` faults, with the
    /// default group sizes.
    ///
    /// # Errors
    ///
    /// Returns [`DmwError::Config`] when `(n, c)` admit no bid encoding or
    /// group generation fails.
    pub fn generate<R: Rng + ?Sized>(n: usize, c: usize, rng: &mut R) -> Result<Self, DmwError> {
        Self::generate_with_bits(n, c, DEFAULT_P_BITS, DEFAULT_Q_BITS, rng)
    }

    /// Generates parameters with explicit group bit sizes — the knob the
    /// Table 1 computation experiment turns to isolate the `log p` factor.
    ///
    /// # Errors
    ///
    /// Returns [`DmwError::Config`] when the sizes are invalid, the group
    /// cannot be generated, or `q` is too small to host `n` pseudonyms.
    pub fn generate_with_bits<R: Rng + ?Sized>(
        n: usize,
        c: usize,
        p_bits: u32,
        q_bits: u32,
        rng: &mut R,
    ) -> Result<Self, DmwError> {
        let encoding = BidEncoding::new(n, c).map_err(|e| DmwError::Config {
            reason: e.to_string(),
        })?;
        let group = SchnorrGroup::generate(p_bits, q_bits, rng).map_err(|e| DmwError::Config {
            reason: e.to_string(),
        })?;
        check_order(&group, &encoding)?;
        let pseudonyms = group.zq().rand_distinct_nonzero(n, rng);
        Self::from_parts(group, encoding, pseudonyms)
    }

    /// Assembles a configuration from pre-agreed parts (e.g. replayed from
    /// a published initialization transcript).
    ///
    /// # Errors
    ///
    /// Returns [`DmwError::Config`] when `q` is too small for the encoding
    /// or the pseudonym set is not `n` distinct non-zero residues of `Z_q`.
    pub fn from_parts(
        group: SchnorrGroup,
        encoding: BidEncoding,
        pseudonyms: Vec<u64>,
    ) -> Result<Self, DmwError> {
        check_order(&group, &encoding)?;
        if pseudonyms.len() != encoding.agents() {
            return Err(DmwError::Config {
                reason: format!(
                    "{} pseudonyms supplied for {} agents",
                    pseudonyms.len(),
                    encoding.agents()
                ),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for &a in &pseudonyms {
            if a == 0 || a >= group.q() || !seen.insert(a) {
                return Err(DmwError::Config {
                    reason: format!("pseudonym {a} is zero, out of range or duplicated"),
                });
            }
        }
        let derived =
            Derived::new(&group, &encoding, &pseudonyms).map_err(|e| DmwError::Config {
                reason: e.to_string(),
            })?;
        Ok(DmwConfig {
            derived,
            group,
            encoding,
            pseudonyms,
        })
    }

    /// The Schnorr group `(p, q, z1, z2)`.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The bid encoding (embeds `c` and `W`).
    pub fn encoding(&self) -> &BidEncoding {
        &self.encoding
    }

    /// The pseudonym set `A`, indexed by agent.
    pub fn pseudonyms(&self) -> &[u64] {
        &self.pseudonyms
    }

    /// Number of agents `n`.
    pub fn agents(&self) -> usize {
        self.encoding.agents()
    }

    /// The pseudonym of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn pseudonym(&self, agent: usize) -> u64 {
        self.pseudonyms[agent]
    }

    /// The [`powers_plan`] of one agent's pseudonym at `σ`: it evaluates
    /// every eq. (7)–(9) check at that pseudonym, including the eq. (9)
    /// check of a point claimed there, and every eq. (11) and (13) check
    /// of that agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub(crate) fn powers_plan(&self, agent: usize) -> &ExponentPlan {
        &self.derived.plans[agent]
    }

    /// The Lagrange-at-zero coefficients of the pseudonyms of `agents`, an
    /// ascending list of agent indices: the point set of every eq. (12)
    /// resolution over those agents' `Λ`. They come from the coefficients
    /// of all `n` pseudonyms by one removal per agent left out.
    ///
    /// # Errors
    ///
    /// None for a validated configuration: every pseudonym is a non-zero
    /// residue, so each removal inverts.
    pub(crate) fn zero_coefficients(
        &self,
        agents: &[usize],
    ) -> Result<ZeroCoefficients, ModMathError> {
        let zq = self.group.zq();
        let mut points = ZeroCoefficients::clone(&self.derived.zero);
        for index in (0..self.agents()).rev() {
            if !agents.contains(&index) {
                points.remove(&zq, index)?;
            }
        }
        Ok(points)
    }
}

/// Rejects a group whose subgroup order `q` cannot host the encoding's
/// pseudonyms and evaluation points (`q ≥ σ + 2`).
fn check_order(group: &SchnorrGroup, encoding: &BidEncoding) -> Result<(), DmwError> {
    if group.q() < encoding.min_group_order() {
        return Err(DmwError::Config {
            reason: format!(
                "subgroup order {} cannot host {} pseudonyms",
                group.q(),
                encoding.agents()
            ),
        });
    }
    Ok(())
}

/// Derives one agent's private RNG seed from the run seed by SplitMix64
/// constant mixing. This is deliberate *machine* arithmetic on an opaque
/// bit pattern — not field arithmetic — so it lives here, outside the
/// protocol modules that clippy holds to the `dmw_modmath` API (L2).
pub(crate) fn agent_seed(run_seed: u64, me: usize) -> u64 {
    run_seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derives the seed of one trial's private RNG stream from a batch seed —
/// the seed-mixing contract of the batch engine
/// ([`crate::batch::BatchRunner`]).
///
/// Trial `t` of a batch always draws from
/// `StdRng::seed_from_u64(trial_seed(batch_seed, t))`, whatever thread
/// executes it and in whatever order trials finish; this is what makes
/// batch results bit-identical to running the trials sequentially. The
/// construction is the same SplitMix64 machine arithmetic as
/// `agent_seed`, run through the full finalizer (and offset by a
/// distinct odd multiplier) so neighbouring trials share no low-bit
/// structure and trial streams never collide with the per-agent streams
/// derived inside a run.
#[must_use]
pub fn trial_seed(batch_seed: u64, trial: u64) -> u64 {
    let mut z = batch_seed ^ trial.wrapping_mul(0xA076_1D64_78BD_642F);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn generate_produces_consistent_parameters() {
        let cfg = DmwConfig::generate(6, 1, &mut rng()).unwrap();
        assert_eq!(cfg.agents(), 6);
        assert_eq!(cfg.pseudonyms().len(), 6);
        assert_eq!(cfg.encoding().faults(), 1);
        // Pseudonyms are distinct non-zero residues of Z_q.
        let set: std::collections::BTreeSet<_> = cfg.pseudonyms().iter().collect();
        assert_eq!(set.len(), 6);
        assert!(cfg
            .pseudonyms()
            .iter()
            .all(|&a| a > 0 && a < cfg.group().q()));
    }

    #[test]
    fn generate_rejects_bad_shapes() {
        assert!(DmwConfig::generate(2, 1, &mut rng()).is_err());
        assert!(DmwConfig::generate_with_bits(6, 1, 64, 16, &mut rng()).is_err());
    }

    #[test]
    fn from_parts_validates_pseudonyms() {
        let cfg = DmwConfig::generate(4, 0, &mut rng()).unwrap();
        let group = cfg.group();
        let encoding = *cfg.encoding();
        // Valid round-trip.
        assert!(DmwConfig::from_parts(group.clone(), encoding, cfg.pseudonyms().to_vec()).is_ok());
        // Wrong count.
        assert!(DmwConfig::from_parts(group.clone(), encoding, vec![1, 2]).is_err());
        // Zero pseudonym.
        assert!(DmwConfig::from_parts(group.clone(), encoding, vec![0, 2, 3, 4]).is_err());
        // Duplicate.
        assert!(DmwConfig::from_parts(group.clone(), encoding, vec![2, 2, 3, 4]).is_err());
        // Out of range.
        assert!(DmwConfig::from_parts(group.clone(), encoding, vec![1, 2, 3, group.q()]).is_err());
        // A subgroup order below the encoding's minimum, even though every
        // pseudonym fits below it.
        let small =
            SchnorrGroup::generate_with_order(8, 5, &mut rand::rngs::StdRng::seed_from_u64(3))
                .unwrap();
        let encoding = BidEncoding::new(4, 1).unwrap();
        assert!(encoding.min_group_order() > small.q());
        assert!(matches!(
            DmwConfig::from_parts(small, encoding, vec![1, 2, 3, 4]),
            Err(DmwError::Config { .. })
        ));
    }
}
