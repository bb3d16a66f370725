//! `pf-core` — the paper's primary contribution: automatic program
//! generation for thermodynamically consistent phase-field models.
//!
//! The stack, top to bottom (Fig. 1 of the paper):
//!
//! 1. **Energy functional layer** ([`params`], [`model`]): the model is
//!    defined by Ψ(φ,µ,T) = ∫ ε·a(φ,∇φ) + ω(φ)/ε + ψ(φ,µ,T) dV with the
//!    paper's gradient energy, obstacle potential and parabolic
//!    grand-potential fits.
//! 2. **PDE layer** ([`model`]): Allen–Cahn equations from *automatic
//!    variational derivatives* with Lagrange multiplier and Philox
//!    fluctuations; the non-variational µ evolution with mobility and
//!    anti-trapping current.
//! 3. **Discretization / IR / backends** (driven via [`kernels`]): the
//!    `pf-stencil` → `pf-ir` → `pf-backend` pipeline produces the φ/µ
//!    full & split kernel tapes of Algorithm 1.
//! 4. **Execution** ([`sim`], [`dist`]): single-block and distributed
//!    drivers with boundary handling and Gibbs-simplex projection.
//!
//! The benchmark configurations **P1** (4 phases, 3 components, isotropic,
//! analytic temperature gradient) and **P2** (3 phases, 2 components,
//! anisotropic) are provided by [`params::p1`] / [`params::p2`].

#![forbid(unsafe_code)]

pub mod analysis;
pub mod checkpoint;
pub mod dist;
pub mod io;
pub mod kernels;
pub mod model;
pub mod params;
pub mod select;
pub mod sim;
pub mod tune;

pub use checkpoint::{params_fingerprint, CheckpointError, CheckpointHeader, RankMeta};
pub use dist::{dim_classes, overlap_protocol_model, verify_overlap_protocol};
pub use kernels::{
    field_contract, generate_kernels, generate_kernels_from, required_halo_width,
    verify_kernel_set, KernelSet, SplitTapes,
};
pub use model::{build_model, h_interp, temperature_expr, ModelExprs, ModelFields};
pub use params::{p1, p2, ModelParams, TempModel};
pub use select::{default_exec_mode, select_variants, VariantChoice};
pub use sim::{BcKind, SimConfig, Simulation, Variant};
pub use tune::{
    family_fingerprint, mode_name, tune_gpu_schedule, tune_kernel_set, tuned_exec_mode,
    variant_name, Family, FamilyTuneReport, GpuScheduleChoice, TuneCache, TuneEntry, TuneOptions,
};
