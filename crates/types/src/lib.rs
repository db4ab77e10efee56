//! # conduit-types
//!
//! Shared vocabulary for the Conduit near-data-processing (NDP) framework:
//! simulation time and energy units, vector-operation and instruction types,
//! logical/physical storage addresses, compute-resource identifiers, error
//! types, and the full SSD/host configuration (Table 2 of the paper).
//!
//! Every other crate in the workspace builds on these definitions, so this
//! crate is dependency-free and purely data-oriented.
//!
//! ## Example
//!
//! ```
//! use conduit_types::{OpType, Resource, SsdConfig, VectorInst, Operand, LogicalPageId};
//!
//! let cfg = SsdConfig::default();
//! assert_eq!(cfg.flash.channels, 8);
//!
//! let inst = VectorInst::binary(0, OpType::Xor, Operand::page(3), Operand::page(4));
//! assert!(inst.op.is_bitwise());
//! assert!(Resource::Ifp.supports(inst.op));
//! # let _ = LogicalPageId::new(3);
//! ```

pub mod addr;
pub mod bytes;
pub mod config;
pub mod energy;
pub mod error;
pub mod fault;
pub mod inst;
pub mod op;
pub mod resource;
pub mod serialize;
pub mod time;

pub use addr::{LogicalPageId, PhysicalPageAddr, PAGE_BYTES};
pub use config::{
    CtrlConfig, DramConfig, FlashConfig, HostConfig, HostCpuConfig, HostGpuConfig, HostLinkConfig,
    OffloaderOverheadConfig, SsdConfig, MAX_CTRL_CORES, MAX_DRAM_COMPUTE_UNITS, MAX_FLASH_BLOCKS,
};
pub use energy::{Energy, EnergySource};
pub use error::{ConduitError, Result};
pub use fault::{DeviceHealth, FaultConfig, FaultPlan};
pub use inst::{InstId, InstMetadata, Operand, VectorInst, VectorProgram};
pub use op::{LatencyClass, OpType};
pub use resource::{DataLocation, EstimateKey, ExecutionSite, Resource};
pub use serialize::{PROGRAM_FORMAT_VERSION, PROGRAM_MAGIC};
pub use time::{Duration, SimTime};
