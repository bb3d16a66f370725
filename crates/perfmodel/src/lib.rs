//! `pf-perfmodel` — automatic performance modeling (§3.6 of the paper; the
//! Kerncraft/IACA/likwid substitute).
//!
//! Given a compiled kernel tape and a machine description this crate
//! produces:
//!
//! * an **operation census** with the paper's normalized-FLOP weights
//!   (Table 1);
//! * **analytical layer conditions** and the derived spatial blocking
//!   factor (the `232·N² ⇒ N < 67` computation of §6.1);
//! * simulated **inter-level data volumes** from an exact LRU cache
//!   hierarchy model (with Skylake's victim L3);
//! * an **ECM model** with single-core decomposition and multi-core
//!   scaling/saturation prediction (Fig. 2 left/middle);
//! * a **GPU register/occupancy/runtime model** for the CUDA path
//!   (Fig. 2 right, Table 2 inputs).

#![forbid(unsafe_code)]

pub mod cachesim;
pub mod ecm;
pub mod gpu;
pub mod layercond;
pub mod opcount;

pub use cachesim::{simulate_sweep, DataVolumes, Lru};
pub use ecm::{ecm_model, ecm_multi, t_comp, t_nol, EcmPrediction};
pub use gpu::{
    gpu_kernel_model, occupancy, register_report, GpuKernelModel, RegisterReport, REG_OVERHEAD,
};
pub use layercond::{layer_condition_coefficient, layer_condition_demand, max_block_size};
pub use opcount::{census, CountScope, OpCensus};
