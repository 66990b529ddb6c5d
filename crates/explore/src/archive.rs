//! The non-dominated archive of evaluated design points.
//!
//! A [`ParetoArchive`] keeps exactly the Pareto frontier of everything
//! inserted: a dominated candidate is a no-op, and an accepted candidate
//! evicts every member it dominates. Members are kept sorted by
//! `(objectives, point)` and ties on identical objective vectors resolve
//! to the smallest [`PointIdx`], so the final frontier is a pure function
//! of the *set* of evaluated points — independent of insertion order,
//! thread interleaving and `--jobs` settings. That set-function property
//! is what makes seeded explorations bit-reproducible, and it holds at
//! any objective arity: the archive works the same over the classic
//! `(cycles, area, energy)` triple and over N-objective vectors that add
//! contention metrics. (Bounding the archive *during* a search would
//! forfeit it — which points survive an interim prune depends on arrival
//! order — so [`ParetoArchive::prune_to`] is an explicit, caller-driven
//! operation for after the search, not an insertion-time cap.)

use crate::eval::PointEval;

/// Outcome of one [`ParetoArchive::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The candidate joined the frontier (possibly evicting members it
    /// dominates, or replacing an objective-identical member with a
    /// larger point index).
    Added,
    /// An existing member dominates the candidate; the archive is
    /// unchanged.
    Dominated,
    /// An existing member has identical objectives and an equal-or-smaller
    /// point index; the archive is unchanged.
    Duplicate,
}

/// A Pareto frontier with non-domination insertion, deterministic
/// iteration order, and deterministic post-search pruning
/// ([`Self::prune_to`]). All members must share one objective arity
/// (they came from the same [`Evaluator`](crate::Evaluator)).
///
/// # Examples
///
/// ```
/// use amdrel_core::EnergyBreakdown;
/// use amdrel_explore::{Objectives, ParetoArchive, PointEval, PointIdx};
///
/// fn point(cycles: u64, area: u64, energy: u64) -> PointEval {
///     PointEval {
///         point: PointIdx { area: 0, datapath: 0, budget: cycles as usize },
///         area,
///         datapath: "two 2x2 CGCs".to_owned(),
///         kernels_moved: 0,
///         initial_cycles: 100,
///         cycles,
///         energy: EnergyBreakdown { e_fpga_ops: energy, e_reconfig: 0, e_cgc_ops: 0, e_comm: 0 },
///         contention: None,
///         objectives: Objectives::new(vec![cycles, area, energy]),
///         met: true,
///     }
/// }
///
/// let mut archive = ParetoArchive::new();
/// archive.insert(point(50, 1500, 900));
/// archive.insert(point(40, 5000, 900)); // trades area for cycles: kept
/// archive.insert(point(60, 5000, 950)); // dominated: rejected
/// assert_eq!(archive.len(), 2);
/// assert!(archive.frontier().windows(2).all(|w| {
///     !w[0].objectives.dominates(&w[1].objectives)
///         && !w[1].objectives.dominates(&w[0].objectives)
/// }));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoArchive {
    /// Sorted by `(objectives, point)`.
    entries: Vec<PointEval>,
    /// Candidates accepted ([`Insert::Added`]) over the archive's life.
    /// Rejected candidates leave the archive — counters included —
    /// untouched, so the frontier-is-a-set invariant is unaffected.
    inserts: u64,
    /// Members removed by [`ParetoArchive::prune_to`] (dominated members
    /// displaced during insertion are not counted here).
    pruned: u64,
}

impl ParetoArchive {
    /// An empty archive.
    pub fn new() -> Self {
        ParetoArchive::default()
    }

    /// Current frontier size.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing non-dominated has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The frontier, sorted ascending by `(objectives, point)` — the
    /// deterministic iteration order.
    pub fn frontier(&self) -> &[PointEval] {
        &self.entries
    }

    /// Consume the archive into its sorted frontier.
    pub fn into_frontier(self) -> Vec<PointEval> {
        self.entries
    }

    /// Lifetime count of accepted insertions (see [`Insert::Added`]).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime count of members removed by [`ParetoArchive::prune_to`].
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Insert a candidate, keeping the frontier invariant.
    ///
    /// # Panics
    ///
    /// Panics (via [`Objectives::dominates`](crate::Objectives::dominates))
    /// if the candidate's objective arity differs from the archive's —
    /// mixing points from evaluators with different objective sets is a
    /// caller bug.
    pub fn insert(&mut self, candidate: PointEval) -> Insert {
        // One pass: find a dominator or an objective-identical member.
        // (At most one member can share the exact objective vector — the
        // archive dedupes on it — and if one does, nothing else in the
        // archive dominates the candidate, or it would dominate that
        // member too.)
        let mut replace_at = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.objectives == candidate.objectives {
                if e.point <= candidate.point {
                    return Insert::Duplicate;
                }
                replace_at = Some(i);
                break;
            }
            if e.objectives.dominates(&candidate.objectives) {
                return Insert::Dominated;
            }
        }
        if let Some(i) = replace_at {
            self.entries.remove(i);
        } else {
            self.entries
                .retain(|e| !candidate.objectives.dominates(&e.objectives));
        }
        let key = (candidate.objectives.values(), candidate.point);
        let pos = self
            .entries
            .partition_point(|e| (e.objectives.values(), e.point) < key);
        self.entries.insert(pos, candidate);
        self.inserts += 1;
        Insert::Added
    }

    /// Prune the frontier down to at most `max` members, deterministically:
    /// each objective's minimiser always survives (whatever the arity),
    /// and the remaining slots are filled evenly across the sorted
    /// frontier (preserving its spread). Pruning never adds points, so
    /// the result is a subset of the frontier and stays mutually
    /// non-dominated.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn prune_to(&mut self, max: usize) {
        assert!(max > 0, "cannot prune to an empty archive");
        if self.entries.len() <= max {
            return;
        }
        let arity = self.entries[0].objectives.len();
        let mut keep = vec![false; self.entries.len()];
        // Guard the extremes: the argmin of every objective (first in
        // sorted order on ties).
        for obj in 0..arity {
            let argmin = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.objectives.values()[obj], *i))
                .map(|(i, _)| i)
                .expect("non-empty archive");
            keep[argmin] = true;
        }
        let mut kept = keep.iter().filter(|&&k| k).count();
        if kept > max {
            // Degenerate cap below the number of distinct extremes: keep
            // the first `max` extremes in sorted order.
            let mut seen = 0usize;
            for flag in &mut keep {
                if *flag {
                    seen += 1;
                    *flag = seen <= max;
                }
            }
            kept = max;
        }
        let others: Vec<usize> = (0..self.entries.len()).filter(|&i| !keep[i]).collect();
        let need = max.saturating_sub(kept).min(others.len());
        for j in 0..need {
            // Evenly spaced positions; strictly increasing because
            // others.len() >= need.
            keep[others[j * others.len() / need]] = true;
        }
        let before = self.entries.len();
        let mut it = keep.iter();
        self.entries
            .retain(|_| *it.next().expect("keep mask covers all entries"));
        self.pruned += (before - self.entries.len()) as u64;
    }
}
