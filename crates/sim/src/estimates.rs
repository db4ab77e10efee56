//! Precomputed cost-estimate tables.
//!
//! Conduit's cost function asks the device for the *un-contended* compute
//! latency/energy of every candidate resource and the *static* data-movement
//! latency between locations for **every instruction** it places. Both are
//! pure functions of the static [`SsdConfig`], so re-deriving them through
//! the substrate models per instruction is wasted work on the simulator's
//! hottest path.
//!
//! [`EstimateTable`] evaluates the models **once** at device construction for
//! the vector shapes the auto-vectorizer actually emits and stores the
//! results in flat arrays indexed by [`EstimateKey`] / [`DataLocation`]
//! encodings:
//!
//! * the canonical shape (`-force-vector-width=4096`, 32-bit lanes), and
//! * the INT8/LLM shape (4096 × 8-bit lanes) that the quantized
//!   `LlmTraining` / `LlamaInference` workloads vectorize to.
//!
//! Lookups for either shape are O(1) array loads; any other shape falls back
//! to the exact model evaluation, so results are bit-identical to the
//! untabled path in all cases.

use conduit_ctrl::IspModel;
use conduit_dram::{DramTiming, PudModel};
use conduit_flash::{FlashTiming, IfpModel, IfpPlacement};
use conduit_types::inst::{DEFAULT_ELEM_BITS, DEFAULT_LANES};
use conduit_types::{DataLocation, Duration, Energy, EstimateKey, OpType, Resource, SsdConfig};

/// The un-contended latency and energy of one (resource, operation) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Expected computation latency (`latency_comp`).
    pub latency: Duration,
    /// Expected computation energy.
    pub energy: Energy,
}

/// Number of distinct data locations (indexes the move tables).
pub const LOC_COUNT: usize = DataLocation::ALL.len();

/// One precomputed shape: per-(resource, op) compute estimates and
/// per-(location, location) move estimates at a fixed vector shape.
#[derive(Debug, Clone, PartialEq)]
struct ShapeTable {
    elem_bits: u32,
    lanes: u32,
    canonical_bytes: u64,
    /// `None` = the resource does not support the operation.
    compute: [Option<CostEstimate>; EstimateKey::TABLE_LEN],
    /// Static move latency of one vector of this shape between locations.
    moves: [[Duration; LOC_COUNT]; LOC_COUNT],
}

impl ShapeTable {
    #[allow(clippy::too_many_arguments)]
    fn build(
        cfg: &SsdConfig,
        ifp: &IfpModel,
        pud: &PudModel,
        isp: &IspModel,
        flash_timing: &FlashTiming,
        dram_timing: &DramTiming,
        elem_bits: u32,
        lanes: u32,
    ) -> Self {
        let canonical_bytes = (lanes as u64) * (elem_bits as u64) / 8;

        let mut compute = [None; EstimateKey::TABLE_LEN];
        for resource in Resource::ALL {
            for op in OpType::ALL {
                let entry =
                    EstimateTable::evaluate(cfg, ifp, pud, isp, resource, op, elem_bits, lanes);
                compute[EstimateKey::new(resource, op).dense()] = entry;
            }
        }

        let mut moves = [[Duration::ZERO; LOC_COUNT]; LOC_COUNT];
        for from in DataLocation::ALL {
            for to in DataLocation::ALL {
                moves[from.encoding() as usize][to.encoding() as usize] =
                    EstimateTable::evaluate_move(
                        cfg,
                        flash_timing,
                        dram_timing,
                        from,
                        to,
                        canonical_bytes,
                    );
            }
        }

        ShapeTable {
            elem_bits,
            lanes,
            canonical_bytes,
            compute,
            moves,
        }
    }
}

/// Per-(resource, op) compute estimates and per-(location, location) move
/// estimates, precomputed for the vector shapes the vectorizer emits.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateTable {
    /// Shape 0 is the canonical FP32 shape, shape 1 the INT8/LLM shape.
    shapes: [ShapeTable; 2],
}

impl EstimateTable {
    /// Builds the tables by evaluating the substrate models for every
    /// (resource, operation) pair and every (from, to) location pair at the
    /// canonical FP32 shape and the INT8/LLM shape.
    pub fn new(
        cfg: &SsdConfig,
        ifp: &IfpModel,
        pud: &PudModel,
        isp: &IspModel,
        flash_timing: &FlashTiming,
        dram_timing: &DramTiming,
    ) -> Self {
        let canonical = ShapeTable::build(
            cfg,
            ifp,
            pud,
            isp,
            flash_timing,
            dram_timing,
            DEFAULT_ELEM_BITS,
            DEFAULT_LANES,
        );
        let int8 = ShapeTable::build(
            cfg,
            ifp,
            pud,
            isp,
            flash_timing,
            dram_timing,
            8,
            DEFAULT_LANES,
        );
        EstimateTable {
            shapes: [canonical, int8],
        }
    }

    /// The exact model evaluation the table caches — also the fallback for
    /// non-tabled shapes, so table hits and misses agree bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        cfg: &SsdConfig,
        ifp: &IfpModel,
        pud: &PudModel,
        isp: &IspModel,
        resource: Resource,
        op: OpType,
        elem_bits: u32,
        lanes: u32,
    ) -> Option<CostEstimate> {
        match resource {
            Resource::Ifp => ifp
                .op_cost(
                    op,
                    elem_bits,
                    lanes,
                    IfpPlacement::SameBlock { operands: 2 },
                )
                .ok()
                .map(|c| CostEstimate {
                    latency: c.latency,
                    energy: c.energy,
                }),
            Resource::PudSsd => pud
                .op_cost(op, elem_bits, lanes, cfg.dram.compute_units())
                .ok()
                .map(|c| CostEstimate {
                    latency: c.latency,
                    energy: c.energy,
                }),
            Resource::Isp => {
                let c = isp.op_cost(op, elem_bits, lanes);
                Some(CostEstimate {
                    latency: c.latency,
                    energy: c.energy,
                })
            }
        }
    }

    /// The exact static-move evaluation the table caches (the `latency_dm`
    /// table of §4.3.2), shared with the fallback path.
    pub fn evaluate_move(
        cfg: &SsdConfig,
        flash_timing: &FlashTiming,
        dram_timing: &DramTiming,
        from: DataLocation,
        to: DataLocation,
        bytes: u64,
    ) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        let pages = bytes.div_ceil(cfg.flash.page_bytes).max(1);
        let per_page_read = flash_timing.read_page() + flash_timing.page_dma();
        let per_page_prog = flash_timing.page_dma() + flash_timing.program_page();
        let bus = dram_timing.bus_transfer(bytes);
        let link = cfg.link.nvme_cmd_latency + cfg.link.transfer_time(bytes);
        match (from, to) {
            (DataLocation::Flash, DataLocation::Dram) => per_page_read * pages + bus,
            (DataLocation::Flash, DataLocation::CtrlSram) => per_page_read * pages,
            (DataLocation::Dram, DataLocation::CtrlSram)
            | (DataLocation::CtrlSram, DataLocation::Dram) => bus,
            (DataLocation::Dram, DataLocation::Flash)
            | (DataLocation::CtrlSram, DataLocation::Flash) => per_page_prog * pages,
            (DataLocation::Flash, DataLocation::Host) => per_page_read * pages + link,
            (_, DataLocation::Host) | (DataLocation::Host, _) => link,
            // `from == to` is handled above; this arm is unreachable.
            _ => Duration::ZERO,
        }
    }

    /// Table lookup for a compute estimate, or `None` if the shape is not
    /// one of the tabled shapes (caller must fall back to the exact
    /// evaluation).
    #[inline]
    pub fn compute(
        &self,
        resource: Resource,
        op: OpType,
        elem_bits: u32,
        lanes: u32,
    ) -> Option<Option<CostEstimate>> {
        self.shapes
            .iter()
            .find(|s| elem_bits == s.elem_bits && lanes == s.lanes)
            .map(|s| s.compute[EstimateKey::new(resource, op).dense()])
    }

    /// Table lookup for a static move estimate, or `None` if `bytes` is not
    /// one of the tabled vector sizes.
    #[inline]
    pub fn move_latency(
        &self,
        from: DataLocation,
        to: DataLocation,
        bytes: u64,
    ) -> Option<Duration> {
        self.shapes
            .iter()
            .find(|s| bytes == s.canonical_bytes)
            .map(|s| s.moves[from.encoding() as usize][to.encoding() as usize])
    }

    /// The canonical vector shape `(elem_bits, lanes)` the primary table was
    /// built for.
    pub fn canonical_shape(&self) -> (u32, u32) {
        (self.shapes[0].elem_bits, self.shapes[0].lanes)
    }

    /// All tabled shapes, `(elem_bits, lanes)` each.
    pub fn shapes(&self) -> [(u32, u32); 2] {
        [
            (self.shapes[0].elem_bits, self.shapes[0].lanes),
            (self.shapes[1].elem_bits, self.shapes[1].lanes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_and_models() -> (EstimateTable, SsdConfig, IfpModel, PudModel, IspModel) {
        let cfg = SsdConfig::small_for_tests();
        let ifp = IfpModel::new(&cfg.flash);
        let pud = PudModel::new(&cfg.dram);
        let isp = IspModel::new(&cfg.ctrl);
        let ft = FlashTiming::new(&cfg.flash);
        let dt = DramTiming::new(&cfg.dram);
        let table = EstimateTable::new(&cfg, &ifp, &pud, &isp, &ft, &dt);
        (table, cfg, ifp, pud, isp)
    }

    #[test]
    fn table_hits_match_direct_evaluation_exactly() {
        let (table, cfg, ifp, pud, isp) = table_and_models();
        for (bits, lanes) in table.shapes() {
            for resource in Resource::ALL {
                for op in OpType::ALL {
                    let hit = table.compute(resource, op, bits, lanes).unwrap();
                    let direct =
                        EstimateTable::evaluate(&cfg, &ifp, &pud, &isp, resource, op, bits, lanes);
                    assert_eq!(hit, direct, "{resource}/{op}@{bits}x{lanes} diverged");
                }
            }
        }
    }

    #[test]
    fn int8_shape_is_tabled() {
        let (table, ..) = table_and_models();
        assert_eq!(table.shapes()[1], (8, DEFAULT_LANES));
        assert!(table
            .compute(Resource::Isp, OpType::Add, 8, DEFAULT_LANES)
            .is_some());
        // The two shapes have distinct byte sizes, so the move tables are
        // unambiguous.
        let int8_bytes = u64::from(DEFAULT_LANES);
        assert!(table
            .move_latency(DataLocation::Flash, DataLocation::Dram, int8_bytes)
            .is_some());
    }

    #[test]
    fn non_canonical_shapes_miss_the_table() {
        let (table, ..) = table_and_models();
        assert!(table
            .compute(Resource::Isp, OpType::Add, 16, 4096)
            .is_none());
        assert!(table.compute(Resource::Isp, OpType::Add, 32, 100).is_none());
        assert!(table
            .move_latency(DataLocation::Flash, DataLocation::Dram, 1)
            .is_none());
    }

    #[test]
    fn unsupported_pairs_are_none_entries() {
        let (table, ..) = table_and_models();
        let (bits, lanes) = table.canonical_shape();
        assert!(table
            .compute(Resource::Ifp, OpType::Div, bits, lanes)
            .unwrap()
            .is_none());
        assert!(table
            .compute(Resource::PudSsd, OpType::Scalar, bits, lanes)
            .unwrap()
            .is_none());
        assert!(table
            .compute(Resource::Isp, OpType::Div, bits, lanes)
            .unwrap()
            .is_some());
    }

    #[test]
    fn move_table_is_zero_on_the_diagonal() {
        let (table, ..) = table_and_models();
        let bytes = 16 * 1024;
        for loc in DataLocation::ALL {
            assert_eq!(table.move_latency(loc, loc, bytes), Some(Duration::ZERO));
        }
        let f2d = table
            .move_latency(DataLocation::Flash, DataLocation::Dram, bytes)
            .unwrap();
        assert!(f2d > Duration::ZERO);
    }
}
