//! # conduit-flash
//!
//! NAND flash substrate model for the Conduit NDP-SSD framework.
//!
//! This crate models the parts of a modern 3D NAND flash subsystem that
//! matter for near-data processing studies:
//!
//! * the **geometry** (channel → die → plane → block → page) and address
//!   arithmetic ([`FlashGeometry`]),
//! * the **timing and energy** of basic flash operations — page read
//!   (sensing), program, erase, and channel DMA ([`FlashTiming`]),
//! * the **in-flash processing (IFP)** compute model: Flash-Cosmos style
//!   multi-wordline-sensing bulk bitwise operations and Ares-Flash style
//!   latch-based shift-and-add arithmetic ([`IfpModel`], [`IfpPlacement`]),
//! * the **physical page state** needed by the flash translation layer:
//!   free/valid/invalid pages, per-block erase counts, bad blocks
//!   ([`FlashState`]).
//!
//! Contention (channel and die busy times, queueing) is modelled by the
//! event-driven simulator in `conduit-sim`; this crate provides the
//! un-contended service times and the structural constraints.
//!
//! ## Example
//!
//! ```
//! use conduit_flash::{FlashTiming, IfpModel, IfpPlacement};
//! use conduit_types::{FlashConfig, OpType};
//!
//! let cfg = FlashConfig::default();
//! let timing = FlashTiming::new(&cfg);
//! let ifp = IfpModel::new(&cfg);
//!
//! // A bulk bitwise AND over one 16 KiB vector placed in a single block:
//! let cost = ifp.op_cost(OpType::And, 32, 4096, IfpPlacement::SameBlock { operands: 2 })?;
//! assert!(cost.latency < timing.read_page() * 2);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod geometry;
mod ifp;
mod state;
mod timing;

pub use geometry::FlashGeometry;
pub use ifp::{IfpCost, IfpModel, IfpPlacement};
pub use state::{BlockInfo, FlashLayout, FlashState, PageState};
pub use timing::FlashTiming;
