//! Pseudonymity and the anonymity half of Theorem 10.
//!
//! "The risk of divulging the winner is mitigated by using pseudonyms to
//! hide the real identities" (Remark after Theorem 10). The protocol
//! itself only ever names pseudonym *slots* `α_1 … α_n`; the binding from
//! real identities to slots is established once, at initialization, and
//! known in full to nobody (each agent knows only its own slot).
//!
//! [`PseudonymDirectory`] models that binding and answers the question
//! the anonymity claim is about: *after a run, which identities are
//! linkable, and by whom?*
//!
//! * the **winner's identity** becomes linkable the moment the task is
//!   actually executed — intrinsic to scheduling, as the paper says;
//! * each **coalition member** can link exactly itself — its own slot is
//!   the only binding it holds;
//! * every other losing agent stays anonymous: its slot appears in the
//!   transcript, but nothing connects the slot to an identity.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// The confidential identity↔slot binding created at initialization.
///
/// In a deployment each agent would learn only its own row; the tests and
/// experiments play the global observer to *measure* what leaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PseudonymDirectory {
    /// `identities[slot]` = the real identity bound to pseudonym slot
    /// `slot`.
    identities: Vec<String>,
}

impl PseudonymDirectory {
    /// Binds the given identities to pseudonym slots by a uniform random
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `identities` contains duplicates (identities must be
    /// distinguishable to be worth protecting).
    ///
    /// # Example
    /// ```
    /// use dmw::identity::PseudonymDirectory;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let ids = vec!["acme".into(), "globex".into(), "initech".into()];
    /// let directory = PseudonymDirectory::assign(ids, &mut rng);
    /// // A run revealing slot 0's winner leaves the other two anonymous.
    /// assert_eq!(directory.anonymous_count(&[0], &[]), 2);
    /// ```
    pub fn assign<R: Rng + ?Sized>(identities: Vec<String>, rng: &mut R) -> Self {
        let set: BTreeSet<&String> = identities.iter().collect();
        assert_eq!(set.len(), identities.len(), "identities must be distinct");
        let mut identities = identities;
        identities.shuffle(rng);
        PseudonymDirectory { identities }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.identities.len()
    }

    /// `true` iff the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.identities.is_empty()
    }

    /// The identity bound to a slot — information only the slot's owner
    /// (or the initialization authority) holds.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn identity_of(&self, slot: usize) -> &str {
        &self.identities[slot]
    }

    /// The slot of an identity, if present.
    pub fn slot_of(&self, identity: &str) -> Option<usize> {
        self.identities.iter().position(|i| i == identity)
    }

    /// The identities an observer can link after a run, given the slots
    /// revealed as winners (whose identity leaks through task execution)
    /// and the slots of a coalition (who each know their own binding).
    /// Everything not returned remains anonymous.
    pub fn linkable(&self, winner_slots: &[usize], coalition_slots: &[usize]) -> Vec<&str> {
        // BTreeSet both dedups and yields the slots in sorted order, so
        // the linkable set is deterministic without a separate sort.
        winner_slots
            .iter()
            .chain(coalition_slots)
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|s| self.identity_of(s))
            .collect()
    }

    /// The number of identities that remain anonymous for that observer.
    pub fn anonymous_count(&self, winner_slots: &[usize], coalition_slots: &[usize]) -> usize {
        self.len() - self.linkable(winner_slots, coalition_slots).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("org-{i}")).collect()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2468)
    }

    #[test]
    fn assignment_is_a_permutation() {
        let directory = PseudonymDirectory::assign(names(8), &mut rng());
        assert_eq!(directory.len(), 8);
        let mut seen = BTreeSet::new();
        for slot in 0..8 {
            assert!(seen.insert(directory.identity_of(slot).to_string()));
        }
        // Round trip.
        for slot in 0..8 {
            let id = directory.identity_of(slot).to_string();
            assert_eq!(directory.slot_of(&id), Some(slot));
        }
        assert_eq!(directory.slot_of("nobody"), None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_identities_rejected() {
        let mut ids = names(4);
        ids[3] = ids[0].clone();
        let _ = PseudonymDirectory::assign(ids, &mut rng());
    }

    #[test]
    fn losers_outside_the_coalition_stay_anonymous() {
        let directory = PseudonymDirectory::assign(names(8), &mut rng());
        // One winner, a coalition of two.
        let linkable = directory.linkable(&[3], &[0, 5]);
        assert_eq!(linkable.len(), 3);
        assert_eq!(directory.anonymous_count(&[3], &[0, 5]), 5);
        // A losing non-coalition slot's identity is not in the linkable
        // set.
        let hidden = directory.identity_of(6);
        assert!(!linkable.contains(&hidden));
    }

    #[test]
    fn winner_in_coalition_is_not_double_counted() {
        let directory = PseudonymDirectory::assign(names(5), &mut rng());
        let linkable = directory.linkable(&[2], &[2, 4]);
        assert_eq!(linkable.len(), 2);
    }

    #[test]
    fn full_coalition_links_everyone() {
        let directory = PseudonymDirectory::assign(names(4), &mut rng());
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(directory.anonymous_count(&[], &all), 0);
    }

    #[test]
    fn slot_binding_is_shuffled() {
        // With 12 identities the identity permutation is almost surely
        // not the identity map.
        let directory = PseudonymDirectory::assign(names(12), &mut rng());
        let fixed_points = (0..12)
            .filter(|&s| directory.identity_of(s) == format!("org-{s}"))
            .count();
        assert!(fixed_points < 12, "shuffle left every binding in place");
    }
}
