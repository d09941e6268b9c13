//! Split-computing substrate for the MTL-Split reproduction.
//!
//! The paper's deployment analysis (Section 4.2, Table 4) compares three
//! distributed-deep-learning paradigms — Local-only Computing (LoC),
//! Remote-only Computing (RoC) and Split Computing (SC) — on an NVIDIA
//! Jetson Nano edge device talking to a server over a gigabit link. We do not
//! have that hardware, so this crate models exactly the quantities the paper
//! reasons about:
//!
//! * [`ChannelModel`] — bandwidth, propagation latency and degradation of the
//!   edge↔server link, with a per-payload transfer-time simulator.
//! * [`EdgeDevice`] — memory capacity and compute throughput of the edge
//!   board (a Jetson-Nano-like preset is provided), with feasibility checks.
//! * [`TensorCodec`] — serialization (optionally 8-bit quantised) of the
//!   shared representation `Z_b` for transmission.
//! * [`paradigm`] — the LoC/RoC/SC memory- and latency-accounting used to
//!   regenerate the Section 4.2 analysis and Table 4's green columns.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use mtlsplit_split::ChannelModel;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let gigabit = ChannelModel::gigabit();
//! // Transferring 100 raw 115 MB images takes ~98 s in the paper.
//! let raw = gigabit.transfer_time_bytes(115_000_000) * 100.0;
//! assert!(raw > 90.0 && raw < 110.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod channel;
mod device;
mod error;
pub mod paradigm;
mod serialize;

pub use channel::{ChannelModel, TransferReport};
pub use device::{DeviceClass, EdgeDevice};
pub use error::{Result, SplitError};
pub use paradigm::{DeploymentAnalysis, DeploymentParadigm, MemoryFootprint, WorkloadProfile};
pub use serialize::{Precision, TensorCodec, WirePayload};
