//! The minimised objectives of a design point, as an N-vector.
//!
//! The original exploration subsystem minimised a fixed `(cycles, area,
//! energy)` triple; the runtime simulator added platform-level metrics
//! (p95 latency, sustained throughput under a multi-tenant workload)
//! that are just as much "objectives" of a candidate platform. This
//! module generalises the objective space: an [`Objective`] names one
//! minimised axis, an [`ObjectiveSet`] is the (canonically ordered,
//! duplicate-free) selection a search runs under, and [`Objectives`] is
//! one point's value vector along that selection.
//!
//! Every objective is a `u64` that is **minimised**, so domination
//! checks stay exact (no floating-point ties). Throughput — naturally a
//! maximised rate — is therefore carried as its exact inverse,
//! makespan-per-completed-job ([`Objective::Throughput`]).

/// One minimised objective of a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Objective {
    /// eq. (2) total execution time of one job, FPGA cycles.
    Cycles,
    /// `A_FPGA` of the configuration, area units.
    Area,
    /// Total energy of one job under the platform's
    /// [`EnergyModel`](amdrel_core::EnergyModel).
    Energy,
    /// Aggregate 95th-percentile completion latency of the seeded
    /// workload mix simulated on the candidate platform (FPGA cycles).
    /// Needs a [`RuntimeEvaluator`](crate::RuntimeEvaluator).
    P95Latency,
    /// Inverse sustained throughput of the simulated mix: makespan
    /// cycles per completed job (minimising this maximises jobs per
    /// Mcycle). Needs a [`RuntimeEvaluator`](crate::RuntimeEvaluator).
    Throughput,
    /// Aggregate 95th-percentile latency of the mix re-simulated under
    /// the evaluator's fault-injection spec — how gracefully the
    /// candidate platform degrades when reconfiguration loads fail and
    /// resources drop out. Needs a
    /// [`RuntimeEvaluator`](crate::RuntimeEvaluator) with faults
    /// configured ([`RuntimeEvaluator::with_faults`](crate::RuntimeEvaluator::with_faults));
    /// with the inert spec it collapses to [`Objective::P95Latency`].
    P95UnderFaults,
    /// Permille of completions that took the coarse-grain-only fallback
    /// path in the faulted re-simulation (0 with the inert spec;
    /// 1000 if nothing completed). Needs a
    /// [`RuntimeEvaluator`](crate::RuntimeEvaluator).
    DegradedShare,
    /// External fragmentation (permille) of the candidate's fine-grain
    /// footprint floorplanned onto the evaluator's region grid
    /// ([`Evaluator::with_regions`](crate::Evaluator::with_regions)) —
    /// how badly the free fabric is scattered across regions after
    /// placement, saturated to 1000 when any footprint fails geometric
    /// placement (an overfull grid is the worst floorplan, not a
    /// perfectly packed one). Static: no runtime simulation needed.
    Fragmentation,
    /// Occupancy (permille) of the fullest region under the same
    /// floorplan — a load-balance objective penalising candidates that
    /// pile their whole footprint into one reconfigurable region.
    /// Static: no runtime simulation needed.
    WorstRegionLoad,
}

impl Objective {
    /// Every objective, in the canonical (enum) order.
    pub const ALL: [Objective; 9] = [
        Objective::Cycles,
        Objective::Area,
        Objective::Energy,
        Objective::P95Latency,
        Objective::Throughput,
        Objective::P95UnderFaults,
        Objective::DegradedShare,
        Objective::Fragmentation,
        Objective::WorstRegionLoad,
    ];

    /// The canonical name (CLI `--objectives` value, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::Area => "area",
            Objective::Energy => "energy",
            Objective::P95Latency => "p95",
            Objective::Throughput => "throughput",
            Objective::P95UnderFaults => "p95_under_faults",
            Objective::DegradedShare => "degraded_share",
            Objective::Fragmentation => "fragmentation",
            Objective::WorstRegionLoad => "worst_region_load",
        }
    }

    /// Parse one objective name. Accepts the canonical names plus the
    /// runtime report's aliases (`p95_latency`, `jobs_per_mcycle`,
    /// `p95_faults`).
    pub fn parse(name: &str) -> Option<Objective> {
        match name.trim() {
            "cycles" => Some(Objective::Cycles),
            "area" => Some(Objective::Area),
            "energy" => Some(Objective::Energy),
            "p95" | "p95_latency" => Some(Objective::P95Latency),
            "throughput" | "jobs_per_mcycle" => Some(Objective::Throughput),
            "p95_under_faults" | "p95_faults" => Some(Objective::P95UnderFaults),
            "degraded_share" => Some(Objective::DegradedShare),
            "fragmentation" => Some(Objective::Fragmentation),
            "worst_region_load" => Some(Objective::WorstRegionLoad),
            _ => None,
        }
    }

    /// `true` if evaluating this objective requires simulating the
    /// workload mix (a [`RuntimeEvaluator`](crate::RuntimeEvaluator)).
    pub fn needs_runtime(self) -> bool {
        matches!(
            self,
            Objective::P95Latency
                | Objective::Throughput
                | Objective::P95UnderFaults
                | Objective::DegradedShare
        )
    }
}

/// The duplicate-free, canonically ordered selection of objectives a
/// search minimises.
///
/// Selection order does not matter (`"p95,cycles"` and `"cycles,p95"`
/// are the same set): members are kept in [`Objective::ALL`] order, so
/// the archive's deterministic iteration order is a function of the set
/// alone.
///
/// # Examples
///
/// ```
/// use amdrel_explore::{Objective, ObjectiveSet};
///
/// let set = ObjectiveSet::parse("p95,cycles,area").unwrap();
/// assert_eq!(set.names(), ["cycles", "area", "p95"]); // canonical order
/// assert!(set.needs_runtime());
/// assert_eq!(ObjectiveSet::static_default().names(), ["cycles", "area", "energy"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectiveSet {
    objectives: Vec<Objective>,
}

impl ObjectiveSet {
    /// Build a set from any list of objectives (deduplicated, reordered
    /// canonically).
    ///
    /// # Errors
    ///
    /// An empty list.
    pub fn new(objectives: &[Objective]) -> Result<ObjectiveSet, String> {
        if objectives.is_empty() {
            return Err("at least one objective is required".to_owned());
        }
        let mut canonical: Vec<Objective> = Objective::ALL
            .into_iter()
            .filter(|o| objectives.contains(o))
            .collect();
        canonical.shrink_to_fit();
        Ok(ObjectiveSet {
            objectives: canonical,
        })
    }

    /// The original fixed triple: `(cycles, area, energy)`.
    pub fn static_default() -> ObjectiveSet {
        ObjectiveSet {
            objectives: vec![Objective::Cycles, Objective::Area, Objective::Energy],
        }
    }

    /// Parse a comma-separated selection, e.g. `"cycles,area,energy,p95"`.
    ///
    /// # Errors
    ///
    /// An empty selection or an unknown objective name (the message
    /// lists the valid names).
    pub fn parse(spec: &str) -> Result<ObjectiveSet, String> {
        let mut objectives = Vec::new();
        for name in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let obj = Objective::parse(name).ok_or_else(|| {
                format!(
                    "unknown objective '{}' (expected one of: {})",
                    name.trim(),
                    Objective::ALL.map(Objective::name).join(", ")
                )
            })?;
            objectives.push(obj);
        }
        ObjectiveSet::new(&objectives)
    }

    /// The selected objectives, in canonical order.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Number of objectives (the arity of every [`Objectives`] vector
    /// evaluated under this set).
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Always `false` — a set has at least one objective.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Canonical names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.objectives.iter().map(|o| o.name()).collect()
    }

    /// `true` if any selected objective requires the runtime simulator.
    pub fn needs_runtime(&self) -> bool {
        self.objectives.iter().any(|o| o.needs_runtime())
    }

    /// `true` if `obj` is selected.
    pub fn contains(&self, obj: Objective) -> bool {
        self.objectives.contains(&obj)
    }

    /// The comma-joined canonical names (the `--objectives` round-trip).
    pub fn describe(&self) -> String {
        self.names().join(",")
    }
}

impl Default for ObjectiveSet {
    fn default() -> Self {
        ObjectiveSet::static_default()
    }
}

/// One design point's minimised objective vector, aligned with the
/// [`ObjectiveSet`] it was evaluated under.
///
/// All values are `u64`s so domination checks are exact, and the derived
/// lexicographic order over the vector is the archive's deterministic
/// iteration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Objectives {
    values: Vec<u64>,
}

impl Objectives {
    /// Wrap a value vector (one entry per selected objective, in the
    /// set's canonical order).
    pub fn new(values: Vec<u64>) -> Objectives {
        Objectives { values }
    }

    /// The values, in the objective set's order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of objectives in the vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for a zero-arity vector (never produced by an evaluator).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Pareto domination: `self` is no worse in every objective and
    /// strictly better in at least one.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different arities (they were
    /// evaluated under different objective sets and are not comparable).
    pub fn dominates(&self, other: &Objectives) -> bool {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "objective vectors of different arities are not comparable"
        );
        self.values.iter().zip(&other.values).all(|(a, b)| a <= b) && self.values != other.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_canonicalises_order_and_dedupes() {
        let set = ObjectiveSet::parse("energy, cycles, energy,p95_latency").unwrap();
        assert_eq!(set.names(), ["cycles", "energy", "p95"]);
        assert_eq!(set.len(), 3);
        assert!(set.needs_runtime());
        assert!(set.contains(Objective::P95Latency));
        assert!(!set.contains(Objective::Area));
        assert_eq!(set.describe(), "cycles,energy,p95");
    }

    #[test]
    fn parse_rejects_unknown_and_empty() {
        assert!(ObjectiveSet::parse("cycles,latency").is_err());
        assert!(ObjectiveSet::parse("").is_err());
        assert!(ObjectiveSet::parse(" , ,").is_err());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(
            Objective::parse("jobs_per_mcycle"),
            Some(Objective::Throughput)
        );
        assert_eq!(Objective::parse("p95_latency"), Some(Objective::P95Latency));
        assert_eq!(
            Objective::parse("p95_faults"),
            Some(Objective::P95UnderFaults)
        );
        assert_eq!(Objective::parse("nope"), None);
    }

    #[test]
    fn reliability_objectives_are_selectable() {
        let set = ObjectiveSet::parse("degraded_share,cycles,p95_under_faults").unwrap();
        assert_eq!(
            set.names(),
            ["cycles", "p95_under_faults", "degraded_share"]
        );
        assert!(set.needs_runtime());
        assert!(set.contains(Objective::P95UnderFaults));
        assert!(set.contains(Objective::DegradedShare));
        assert!(Objective::P95UnderFaults.needs_runtime());
        assert!(Objective::DegradedShare.needs_runtime());
    }

    #[test]
    fn floorplan_objectives_are_static() {
        let set = ObjectiveSet::parse("worst_region_load,cycles,fragmentation").unwrap();
        assert_eq!(
            set.names(),
            ["cycles", "fragmentation", "worst_region_load"]
        );
        assert!(!set.needs_runtime(), "floorplan metrics are static");
        assert!(set.contains(Objective::Fragmentation));
        assert!(set.contains(Objective::WorstRegionLoad));
        assert_eq!(
            Objective::parse("fragmentation"),
            Some(Objective::Fragmentation)
        );
        assert_eq!(
            Objective::parse("worst_region_load"),
            Some(Objective::WorstRegionLoad)
        );
    }

    #[test]
    fn default_is_the_static_triple() {
        let set = ObjectiveSet::default();
        assert_eq!(set.names(), ["cycles", "area", "energy"]);
        assert!(!set.needs_runtime());
    }

    #[test]
    fn domination_over_vectors() {
        let a = Objectives::new(vec![1, 2, 3, 4]);
        let b = Objectives::new(vec![1, 2, 3, 5]);
        let c = Objectives::new(vec![0, 9, 3, 4]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a));
        assert!(!a.dominates(&a), "equal vectors do not dominate");
    }

    #[test]
    #[should_panic(expected = "different arities")]
    fn arity_mismatch_panics() {
        let _ = Objectives::new(vec![1, 2]).dominates(&Objectives::new(vec![1, 2, 3]));
    }
}
