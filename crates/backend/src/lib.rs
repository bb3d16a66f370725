//! `pf-backend` — kernel backends (§3.5 of the paper).
//!
//! Three consumers of the optimized kernel tape:
//!
//! * [`run_kernel`] — the native executor: the tape interpreted over real
//!   field arrays — serially, rayon-parallel (the OpenMP analogue), or
//!   strip-mined over x-strips of [`STRIP_WIDTH`] cells (the explicitly
//!   vectorized kernels of §3.5). This is what simulations and benchmarks
//!   in this reproduction actually run.
//! * [`emit_c`] — readable C/OpenMP source, with LICM-hoisted sections
//!   placed at the right loop depths.
//! * [`emit_cuda`] — CUDA source with selectable thread-to-cell mappings,
//!   `__threadfence()` scheduling fences, and approximate-math intrinsics
//!   (`__fdividef`, `__frsqrt_rn`).
//! * [`crate::native`] — the paper's actual pipeline closed end to end:
//!   the tape emitted as Rust source, compiled to a cdylib with `rustc`,
//!   loaded with `dlopen` and dispatched through a typed C ABI
//!   ([`ExecMode::Native`]), bitwise identical to the interpreters.

mod emit;
mod exec;
pub mod native;
mod simd;
mod store;
mod vector;

pub use emit::{emit_c, emit_cuda, ThreadMapping};
pub use exec::{
    extended_range, run_kernel, run_kernel_checked, run_kernel_region, run_kernel_region_checked,
    time_tapes, ExecError, ExecMode, RunCtx,
};
pub use native::{
    clear_memory_cache, emit_rust, native_available, native_cache_dir, rustc_version,
    source_fingerprint,
};
pub use pf_grid::IterRegion;
pub use simd::{emit_c_simd, SimdIsa};
pub use store::FieldStore;
pub use vector::STRIP_WIDTH;
