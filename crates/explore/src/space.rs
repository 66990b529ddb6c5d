//! The joint design space the explorer walks.
//!
//! The paper evaluates four hand-picked `(A_FPGA, datapath)` points
//! against one constraint; a [`DesignSpace`] generalises that to the full
//! cartesian product of FPGA areas × CGC datapaths × kernel-selection
//! budgets. Points are addressed by [`PointIdx`] (indices into the three
//! axes), which gives search strategies a cheap, mutation-friendly
//! coordinate system and a total order for deterministic tie-breaking.

use amdrel_coarsegrain::CgcDatapath;

/// Indices of one design point: positions along the three axes of a
/// [`DesignSpace`].
///
/// The derived lexicographic [`Ord`] (area, then datapath, then budget)
/// is the archive's deterministic tie-break for points with identical
/// objectives, so frontiers are reproducible regardless of evaluation
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointIdx {
    /// Index into [`DesignSpace::areas`].
    pub area: usize,
    /// Index into [`DesignSpace::datapaths`].
    pub datapath: usize,
    /// Kernel-selection budget (number of ranked kernels allowed to move),
    /// in `0..=max_kernel_budget`.
    pub budget: usize,
}

/// The explored design space: FPGA areas × CGC datapaths × kernel
/// budgets, plus the timing constraint the points are judged against.
///
/// # Examples
///
/// ```
/// use amdrel_coarsegrain::{CgcDatapath, CgcGeometry};
/// use amdrel_explore::DesignSpace;
///
/// let space = DesignSpace {
///     areas: vec![1500, 5000],
///     datapaths: vec![CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
///     max_kernel_budget: 3,
///     constraint: 60_000,
/// };
/// assert_eq!(space.len(), 2 * 2 * 4);
/// assert_eq!(space.cells(), 4);
/// let p = space.point(space.len() - 1);
/// assert_eq!((p.area, p.datapath, p.budget), (1, 1, 3));
/// assert_eq!(space.flat(p), space.len() - 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// `A_FPGA` candidates. (The fine-grain mapper refuses devices below
    /// ~1030 area units — the 32-bit multiplier no longer fits — so
    /// candidates should start around 1200.)
    pub areas: Vec<u64>,
    /// CGC datapath candidates.
    pub datapaths: Vec<CgcDatapath>,
    /// Largest kernel-selection budget; budgets `0..=max_kernel_budget`
    /// are part of the space. Budgets beyond an application's kernel
    /// count evaluate identically to "move every kernel".
    pub max_kernel_budget: usize,
    /// The timing constraint (FPGA cycles) used for each point's `met`
    /// verdict.
    pub constraint: u64,
}

impl DesignSpace {
    /// Number of budget values per `(area, datapath)` cell.
    pub fn budgets(&self) -> usize {
        self.max_kernel_budget + 1
    }

    /// Number of `(area, datapath)` cells — the unit of engine work, since
    /// one engine run prices every budget of a cell.
    pub fn cells(&self) -> usize {
        self.areas.len() * self.datapaths.len()
    }

    /// Total number of design points.
    pub fn len(&self) -> usize {
        self.cells() * self.budgets()
    }

    /// `true` if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty() || self.datapaths.is_empty()
    }

    /// The point at flat index `flat` (area-major, then datapath, then
    /// budget — the same order [`crate::Exhaustive`] enumerates).
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.len()`.
    pub fn point(&self, flat: usize) -> PointIdx {
        assert!(
            flat < self.len(),
            "point {flat} out of range {}",
            self.len()
        );
        let b = self.budgets();
        let d = self.datapaths.len();
        PointIdx {
            area: flat / (d * b),
            datapath: (flat / b) % d,
            budget: flat % b,
        }
    }

    /// Inverse of [`Self::point`].
    pub fn flat(&self, p: PointIdx) -> usize {
        (p.area * self.datapaths.len() + p.datapath) * self.budgets() + p.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_coarsegrain::CgcGeometry;

    fn space() -> DesignSpace {
        DesignSpace {
            areas: vec![1200, 1500, 5000],
            datapaths: vec![
                CgcDatapath::two_2x2(),
                CgcDatapath::three_2x2(),
                CgcDatapath::uniform(1, CgcGeometry::TWO_BY_TWO),
            ],
            max_kernel_budget: 4,
            constraint: 10_000,
        }
    }

    #[test]
    fn flat_and_point_are_inverse() {
        let s = space();
        for flat in 0..s.len() {
            let p = s.point(flat);
            assert!(p.area < 3 && p.datapath < 3 && p.budget < 5);
            assert_eq!(s.flat(p), flat);
        }
    }

    #[test]
    fn counts_are_consistent() {
        let s = space();
        assert_eq!(s.len(), 3 * 3 * 5);
        assert_eq!(s.cells(), 9);
        assert!(!s.is_empty());
        assert!(DesignSpace {
            areas: vec![],
            ..space()
        }
        .is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_point_panics() {
        let s = space();
        let _ = s.point(s.len());
    }

    #[test]
    fn point_idx_order_is_lexicographic() {
        let a = PointIdx {
            area: 0,
            datapath: 2,
            budget: 9,
        };
        let b = PointIdx {
            area: 1,
            datapath: 0,
            budget: 0,
        };
        let c = PointIdx {
            area: 1,
            datapath: 0,
            budget: 1,
        };
        assert!(a < b && b < c);
    }
}
