//! Cycle-level 3D wormhole network-on-chip simulator with STT-RAM-aware
//! router arbitration.
//!
//! This crate implements the network half of the ISCA'11 paper
//! *Architecting On-Chip Interconnects for Stacked 3D STT-RAM Caches in
//! CMPs*: two stacked 8x8 meshes of two-stage virtual-channel wormhole
//! routers joined by TSVs, logical cache-layer regions served by wide
//! TSBs, parent-router busy prediction for child banks, and the SS /
//! RCA / WB congestion estimators.
//!
//! # Example
//!
//! ```
//! use snoc_noc::network::{Network, NetworkParams, NocEnv};
//! use snoc_noc::packet::{Packet, PacketKind};
//! use snoc_common::config::SystemConfig;
//! use snoc_common::geom::{Coord, Layer};
//!
//! let cfg = SystemConfig::default();
//! let mut net = Network::new(NetworkParams::resolve(&cfg, &NocEnv::default()));
//! let src = Coord::new(0, 0, Layer::Core);
//! let dst = Coord::new(7, 7, Layer::Cache);
//! net.inject(Packet::new(PacketKind::BankRead, src, dst, 0x1000, 1));
//! for _ in 0..120 {
//!     net.step();
//! }
//! let delivered = net.drain_delivered(dst);
//! assert_eq!(delivered.len(), 1);
//! ```

pub mod arbiter;
pub mod arena;
pub mod audit;
pub mod busy;
pub mod estimator;
pub mod fault;
pub mod network;
pub mod nic;
pub mod packet;
pub mod parent;
pub mod regions;
pub mod router;
pub mod routing;
pub mod telemetry;
pub mod workspace;

pub use arena::{Arena, ArenaFull};
pub use audit::{AuditConfig, AuditReport, NetAuditor};
pub use fault::{FaultPlan, FaultSummary};
pub use network::{NetStats, Network, NetworkParams, NocEnv};
pub use packet::{Flit, Packet, PacketKind, TrafficClass};
pub use telemetry::{TelemetryConfig, TelemetrySummary};
pub use workspace::{NocWorkspace, PortRef, VcRef};
