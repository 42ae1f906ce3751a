//! Truthful mechanisms for **related machines** — the paper's stated
//! future work ("Of particular interest is designing distributed versions
//! of the centralized mechanism for scheduling on related machines
//! proposed in \[4\]", §5, citing Archer & Tardos).
//!
//! Related machines are *one-parameter agents*: machine `i`'s private type
//! is a single cost-per-unit-work `c_i = 1/s_i`; its cost for receiving
//! `w` units of work is `c_i · w`. Archer & Tardos showed a mechanism is
//! truthful **iff** its work curve `w_i(c_i, c_{−i})` is non-increasing in
//! the agent's own declared cost, with payments
//!
//! ```text
//! P_i(c) = c_i · w_i(c) + ∫_{c_i}^{∞} w_i(u, c_{−i}) du .
//! ```
//!
//! This module provides that framework ([`archer_tardos_payment`], exact
//! for piecewise-constant work curves and numerically integrated
//! otherwise) plus two monotone allocation rules:
//!
//! * [`FastestTakesAll`] — every unit of work to the lowest declared
//!   cost; the integral collapses to the Vickrey threshold payment;
//! * [`ProportionalShare`] — work divided `∝ 1/c_i`, the *fractional
//!   optimum* for the makespan on related machines (all machines finish
//!   simultaneously), with a closed-form payment integral.
//!
//! The distributed-DMW analogue of these rules is exactly the open
//! problem the paper poses; here they serve as the centralized reference
//! a future distributed implementation must be faithful to.

use crate::error::MechanismError;

/// A monotone work-allocation rule for one-parameter (related-machine)
/// agents. Declared costs are positive floats; `total_work` is the sum of
/// task requirements.
pub trait WorkRule {
    /// The work assigned to `agent` under declared costs `costs`.
    /// Must be non-increasing in `costs[agent]` for truthfulness.
    fn work(&self, agent: usize, costs: &[f64], total_work: f64) -> f64;
}

/// All work to the strictly lowest declared cost (ties: lowest index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastestTakesAll;

impl WorkRule for FastestTakesAll {
    fn work(&self, agent: usize, costs: &[f64], total_work: f64) -> f64 {
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let winner = costs.iter().position(|&c| c == min).expect("non-empty");
        if winner == agent {
            total_work
        } else {
            0.0
        }
    }
}

/// Work divided proportionally to declared speed (`1/c_i`): every machine
/// finishes at the same time `T = W / Σ(1/c_j)`, the fractional optimal
/// makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProportionalShare;

impl WorkRule for ProportionalShare {
    fn work(&self, agent: usize, costs: &[f64], total_work: f64) -> f64 {
        let inv_sum: f64 = costs.iter().map(|c| 1.0 / c).sum();
        total_work * (1.0 / costs[agent]) / inv_sum
    }
}

/// The Archer–Tardos payment for one agent under a monotone rule:
/// `c_i·w_i(c) + ∫_{c_i}^{c_max} w_i(u, c_{−i}) du`, numerically
/// integrated on `steps` trapezoids up to `c_max` (beyond which the work
/// curve is treated as its value at `c_max`; pick `c_max` where the curve
/// has decayed, e.g. 100× the declared cost).
///
/// # Errors
///
/// Returns [`MechanismError::InvalidQuantization`] for non-positive
/// inputs or zero steps (reusing the validation error; the quantities are
/// continuous here).
pub fn archer_tardos_payment<R: WorkRule>(
    rule: &R,
    agent: usize,
    costs: &[f64],
    total_work: f64,
    c_max: f64,
    steps: usize,
) -> Result<f64, MechanismError> {
    if steps == 0
        || !total_work.is_finite()
        || total_work <= 0.0
        || costs.iter().any(|&c| c <= 0.0 || !c.is_finite())
        || c_max <= costs[agent]
    {
        return Err(MechanismError::InvalidQuantization { levels: steps });
    }
    let c_i = costs[agent];
    let own = c_i * rule.work(agent, costs, total_work);
    // Trapezoidal integration of the (non-increasing) work curve.
    let mut integral = 0.0;
    let h = (c_max - c_i) / steps as f64;
    let mut shifted = costs.to_vec();
    let mut prev = rule.work(agent, costs, total_work);
    for k in 1..=steps {
        shifted[agent] = c_i + h * k as f64;
        let next = rule.work(agent, &shifted, total_work);
        integral += (prev + next) * h / 2.0;
        prev = next;
    }
    Ok(own + integral)
}

/// Utility of `agent` with true cost `true_cost` when the declared costs
/// are `costs`: payment minus true cost of the assigned work.
///
/// # Errors
///
/// Propagates [`archer_tardos_payment`] validation.
pub fn one_parameter_utility<R: WorkRule>(
    rule: &R,
    agent: usize,
    costs: &[f64],
    true_cost: f64,
    total_work: f64,
    c_max: f64,
    steps: usize,
) -> Result<f64, MechanismError> {
    let payment = archer_tardos_payment(rule, agent, costs, total_work, c_max, steps)?;
    Ok(payment - true_cost * rule.work(agent, costs, total_work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const W: f64 = 100.0;
    const CMAX: f64 = 200.0;
    const STEPS: usize = 20000;

    #[test]
    fn fastest_takes_all_pays_the_vickrey_threshold() {
        // costs: winner 1.0, runner-up 3.0: the integral of the step
        // work-curve is W·(3 − 1), plus own cost W·1 => payment = 3·W, the
        // second price.
        let costs = vec![1.0, 3.0, 5.0];
        let p = archer_tardos_payment(&FastestTakesAll, 0, &costs, W, CMAX, STEPS).unwrap();
        // Trapezoidal smoothing of the step work-curve costs at most
        // W·h/2 with h = (c_max − c_i)/steps.
        let tol = W * (CMAX - 1.0) / STEPS as f64;
        assert!(
            (p - 3.0 * W).abs() < tol,
            "payment {p} != threshold {}",
            3.0 * W
        );
        // Losers receive nothing.
        let p1 = archer_tardos_payment(&FastestTakesAll, 1, &costs, W, CMAX, STEPS).unwrap();
        assert!(p1.abs() < 1e-6);
    }

    #[test]
    fn proportional_share_is_fractionally_optimal() {
        // All machines finish simultaneously: loads c_i·w_i are equal.
        let costs = vec![1.0, 2.0, 4.0];
        let finish: Vec<f64> = (0..3)
            .map(|i| costs[i] * ProportionalShare.work(i, &costs, W))
            .collect();
        for pair in finish.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 1e-9,
                "unequal finish times {finish:?}"
            );
        }
        // And the common finish time is the fractional optimum W/Σ(1/c).
        let t = W / costs.iter().map(|c| 1.0 / c).sum::<f64>();
        assert!((finish[0] - t).abs() < 1e-9);
    }

    #[test]
    fn work_curves_are_monotone() {
        let base = vec![2.0, 3.0, 4.0];
        for rule_work in [
            |a: usize, c: &[f64]| FastestTakesAll.work(a, c, W),
            |a: usize, c: &[f64]| ProportionalShare.work(a, c, W),
        ] {
            let mut prev = f64::INFINITY;
            for k in 0..40 {
                let mut c = base.clone();
                c[1] = 0.5 + k as f64 * 0.25;
                let w = rule_work(1, &c);
                assert!(w <= prev + 1e-9, "work curve increased");
                prev = w;
            }
        }
    }

    #[test]
    fn payment_rejects_bad_inputs() {
        assert!(archer_tardos_payment(&ProportionalShare, 0, &[1.0], W, CMAX, 0).is_err());
        assert!(archer_tardos_payment(&ProportionalShare, 0, &[0.0], W, CMAX, 10).is_err());
        assert!(archer_tardos_payment(&ProportionalShare, 0, &[1.0], -1.0, CMAX, 10).is_err());
        assert!(archer_tardos_payment(&ProportionalShare, 0, &[300.0], W, CMAX, 10).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// Archer–Tardos truthfulness: declaring the true cost maximizes
        /// utility for both monotone rules (up to integration error).
        #[test]
        fn truth_telling_is_optimal(
            true_cost in 1.0f64..8.0,
            lie in 1.0f64..8.0,
            other1 in 1.0f64..8.0,
            other2 in 1.0f64..8.0,
        ) {
            for rule in [true, false] {
                let honest_costs = vec![true_cost, other1, other2];
                let lying_costs = vec![lie, other1, other2];
                let (honest_u, lying_u) = if rule {
                    (
                        one_parameter_utility(&ProportionalShare, 0, &honest_costs, true_cost, W, CMAX, STEPS).unwrap(),
                        one_parameter_utility(&ProportionalShare, 0, &lying_costs, true_cost, W, CMAX, STEPS).unwrap(),
                    )
                } else {
                    (
                        one_parameter_utility(&FastestTakesAll, 0, &honest_costs, true_cost, W, CMAX, STEPS).unwrap(),
                        one_parameter_utility(&FastestTakesAll, 0, &lying_costs, true_cost, W, CMAX, STEPS).unwrap(),
                    )
                };
                // Tolerance: the trapezoid smoothing of a step curve can
                // differ by up to W·h between the two integration grids.
                let tol = 2.0 * W * CMAX / STEPS as f64;
                prop_assert!(
                    lying_u <= honest_u + tol,
                    "rule {rule}: lie {lie} beat truth {true_cost}: {lying_u} > {honest_u}"
                );
            }
        }

        /// Voluntary participation: truthful utility is never negative.
        #[test]
        fn truthful_utility_nonnegative(
            c0 in 1.0f64..8.0,
            c1 in 1.0f64..8.0,
            c2 in 1.0f64..8.0,
        ) {
            let costs = vec![c0, c1, c2];
            for agent in 0..3 {
                let u = one_parameter_utility(
                    &ProportionalShare, agent, &costs, costs[agent], W, CMAX, STEPS,
                ).unwrap();
                prop_assert!(u >= -W * 0.01, "agent {agent} lost {u}");
            }
        }
    }
}
