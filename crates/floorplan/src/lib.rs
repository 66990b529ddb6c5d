//! # amdrel-floorplan — 2D region model and deterministic floorplanner
//!
//! The paper prices reconfiguration by *logical* partition area on a
//! scalar pool. Real partial-reconfiguration fabrics reprogram whole
//! rectangular *regions*: what a load costs depends on where the
//! configuration lands and how fragmented the fabric is (Chen et al.,
//! arXiv 1803.03748; Ding et al., arXiv 2212.05397). This crate adds
//! the placement layer the scalar pool abstracts away:
//!
//! * [`FabricGrid`] — the usable area of an
//!   [`FpgaDevice`](amdrel_finegrain::FpgaDevice) quantised onto a 2D
//!   cell rectangle and split into rectangular reconfigurable regions,
//!   with [`RegionConfigKey`] extending the device's `config_key()`
//!   with grid geometry;
//! * [`Floorplanner`] — a deterministic first-fit-decreasing placer
//!   with a skyline packer per region and owner affinity, taking
//!   [`Footprint`]s (temporal-partition areas tagged with a tenant)
//!   and producing a [`Placement`];
//! * [`FragmentationStats`] — internal/external fragmentation,
//!   worst-region occupancy, and placement failures, held as integer
//!   permille so objective vectors stay `Eq`/`Hash`.
//!
//! Everything here is pure integer arithmetic over its inputs — no
//! RNG, no floats on any decision path — so placements are
//! bit-reproducible across runs and hosts, preserving the workspace's
//! determinism contract.
//!
//! # Examples
//!
//! ```
//! use amdrel_floorplan::{FabricGrid, Floorplanner, Footprint};
//!
//! // The paper's small device (1500 units, 70% usable) as 4 regions.
//! let grid = FabricGrid::uniform(1050, 4);
//! let tenants = [
//!     Footprint::new(0, 200),
//!     Footprint::new(0, 120),
//!     Footprint::new(1, 150),
//! ];
//! let placement = Floorplanner.place(&grid, &tenants);
//! assert!(placement.failures().is_empty());
//! // Each tenant is resident in its own region set, so reloading
//! // tenant 1 leaves tenant 0's regions untouched.
//! assert_ne!(placement.touched_regions(0), placement.touched_regions(1));
//! assert!(placement.stats().worst_region_occupancy() <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod grid;
mod planner;

pub use grid::{FabricGrid, GridError, Region, RegionConfigKey};
pub use planner::{
    footprints_of, Floorplanner, Footprint, FragmentationStats, PlacedRect, Placement,
};
