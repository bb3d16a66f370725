//! Differential testing of the native codegen backend: generated machine
//! code ([`ExecMode::Native`] — tape → Rust source → `rustc` cdylib →
//! `dlopen`) must be **bitwise identical** to the scalar-serial and
//! strip-mined vectorized interpreters. The generated source reproduces
//! the interpreter's f64 operation sequence exactly (constants via
//! `from_bits`, inlined Philox, same libm, no fast-math), so a single
//! differing bit anywhere is a codegen bug.
//!
//! Covered on full P1 *and* P2 physics plus proptest-random expression
//! trees:
//! - remainder widths and both LICM loop orders,
//! - Philox fluctuation kernels (the RNG is inlined textually in the
//!   generated source — integer-exact),
//! - GPU-rescheduled non-monotone tapes (hoisted sections collapse into
//!   the cell loop, same as the interpreters),
//! - cache poisoning: a corrupt cached cdylib is detected and recompiled
//!   mid-run,
//! - forced `rustc` failure: execution degrades to the vectorized
//!   interpreter with identical results and a bumped
//!   `exec.native.compile_fail` counter.
//!
//! Native launches compile through the process-global artifact cache and
//! mutate `PF_NATIVE_*` env vars, so tests serialize on a mutex and each
//! uses its own scratch cache directory (parallel `cargo test` processes
//! never race on a shared artifact path).

use pf_backend::{ExecMode, FieldStore, RunCtx};
use pf_core::{generate_kernels, BcKind, KernelSet, ModelParams, SimConfig, Simulation};
use pf_fields::Layout;
use pf_ir::{
    apply_loop_order, generate, insert_fences, rematerialize, schedule_min_live, GenOptions,
};
use pf_stencil::{Assignment, StencilKernel};
use pf_symbolic::{Access, Expr, Field};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-test scratch artifact directory, removed on drop (flake guard:
/// no two tests — or parallel test processes — share artifact paths).
struct ScratchCache(PathBuf);

impl ScratchCache {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pf-nateq-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch cache dir");
        std::env::set_var("PF_NATIVE_CACHE_DIR", &dir);
        ScratchCache(dir)
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        std::env::remove_var("PF_NATIVE_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Loud skip when the sandbox cannot produce cdylibs; every test that
/// needs a real compile gates on this instead of failing confusingly.
fn native_or_skip(test: &str) -> bool {
    if pf_backend::native_available() {
        true
    } else {
        eprintln!("SKIPPED {test}: rustc cannot produce loadable cdylibs in this sandbox");
        false
    }
}

fn p1_2d() -> ModelParams {
    let mut p = pf_core::p1();
    p.dim = 2;
    p.dt = 0.005;
    p.temperature.gradient = 0.0;
    p
}

fn p2_2d() -> ModelParams {
    let mut p = pf_core::p2();
    p.dim = 2;
    p.dt = 0.002;
    p.temperature.gradient = 0.0;
    p
}

/// Build a simulation with a non-trivial initial state and run `steps`.
fn run(
    p: &ModelParams,
    ks: &KernelSet,
    shape: [usize; 3],
    mode: ExecMode,
    steps: usize,
) -> Simulation {
    let mut cfg = SimConfig::new(shape);
    cfg.bc = [BcKind::Periodic; 3];
    cfg.mode = mode;
    let mut sim = Simulation::new(p.clone(), ks.clone(), cfg);
    let phases = p.phases;
    sim.init_phi(move |x, y, _| {
        let mut v = vec![0.0; phases];
        let cx = shape[0] as f64 / 2.0;
        let cy = shape[1] as f64 / 2.0;
        let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - 3.0) / 2.0;
        let s = 0.5 * (1.0 - d.tanh());
        v[0] = 1.0 - s;
        v[1 + (x / 3) % (phases - 1)] = s;
        v
    });
    let comps = p.components;
    sim.init_mu(move |x, _, _| {
        (0..comps - 1)
            .map(|i| 0.1 - 0.001 * x as f64 - 0.05 * i as f64)
            .collect()
    });
    for _ in 0..steps {
        sim.step();
    }
    sim
}

/// Serial == Vectorized == Native, bit for bit, on both state fields.
fn assert_native_agrees(p: &ModelParams, ks: &KernelSet, shape: [usize; 3], steps: usize) {
    let serial = run(p, ks, shape, ExecMode::Serial, steps);
    for mode in [ExecMode::Vectorized, ExecMode::Native] {
        let other = run(p, ks, shape, mode, steps);
        assert_eq!(
            serial.phi().max_abs_diff(other.phi()),
            0.0,
            "phi diverged from Serial under {mode:?} on shape {shape:?}"
        );
        assert_eq!(
            serial.mu().max_abs_diff(other.mu()),
            0.0,
            "mu diverged from Serial under {mode:?} on shape {shape:?}"
        );
    }
}

#[test]
fn native_agrees_on_full_p1_physics_with_remainder_widths() {
    let _g = lock();
    if !native_or_skip("native_agrees_on_full_p1_physics_with_remainder_widths") {
        return;
    }
    let _scratch = ScratchCache::new("p1");
    let p = p1_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    // 20 = strips + remainder; 13 = one strip + 5-cell teardown.
    assert_native_agrees(&p, &ks, [20, 12, 1], 2);
    assert_native_agrees(&p, &ks, [13, 9, 1], 2);
}

#[test]
fn native_agrees_on_full_p2_physics() {
    let _g = lock();
    if !native_or_skip("native_agrees_on_full_p2_physics") {
        return;
    }
    let _scratch = ScratchCache::new("p2");
    let p = p2_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    assert_native_agrees(&p, &ks, [14, 10, 1], 1);
}

#[test]
fn native_agrees_under_both_licm_loop_orders() {
    let _g = lock();
    if !native_or_skip("native_agrees_under_both_licm_loop_orders") {
        return;
    }
    let _scratch = ScratchCache::new("order");
    let p = p1_2d();
    for order in [[2, 1, 0], [1, 2, 0]] {
        let mut ks = generate_kernels(&p, &GenOptions::default());
        apply_loop_order(&mut ks.phi_full, order);
        apply_loop_order(&mut ks.mu_full, order);
        assert_eq!(ks.phi_full.loop_order, order);
        assert_native_agrees(&p, &ks, [20, 10, 1], 2);
    }
}

#[test]
fn native_reproduces_philox_fluctuations_bitwise() {
    let _g = lock();
    if !native_or_skip("native_reproduces_philox_fluctuations_bitwise") {
        return;
    }
    let _scratch = ScratchCache::new("philox");
    // The generated source carries its own textual copy of Philox 4x32-10;
    // integer ops are exact, so the streams must agree to the last bit.
    let mut p = p1_2d();
    p.fluctuation_amplitude = 1e-3;
    let ks = generate_kernels(&p, &GenOptions::default());
    assert!(
        ks.phi_full
            .instrs
            .iter()
            .any(|op| matches!(op, pf_ir::TapeOp::Rand(_))),
        "fluctuation amplitude must inject Rand ops"
    );
    assert_native_agrees(&p, &ks, [20, 10, 1], 2);
}

#[test]
fn native_runs_gpu_rescheduled_non_monotone_tapes() {
    let _g = lock();
    if !native_or_skip("native_runs_gpu_rescheduled_non_monotone_tapes") {
        return;
    }
    let _scratch = ScratchCache::new("gpu");
    // The GPU register-pressure chain destroys level monotonicity; the
    // native emitter must collapse every hoisted section into the cell
    // loop — exactly like the interpreters — and still match bitwise.
    let p = p1_2d();
    let mut ks = generate_kernels(&p, &GenOptions::default());
    let mut t = insert_fences(&schedule_min_live(&rematerialize(&ks.phi_full, 2), 20), 48);
    t.name = "phi_full_gpu_native".into();
    assert!(
        t.levels.windows(2).any(|w| w[1] < w[0]),
        "reschedule should produce a non-monotone level sequence"
    );
    ks.phi_full = t;
    assert_native_agrees(&p, &ks, [20, 10, 1], 2);
}

#[test]
fn corrupt_disk_artifact_is_recompiled_mid_run() {
    let _g = lock();
    if !native_or_skip("corrupt_disk_artifact_is_recompiled_mid_run") {
        return;
    }
    let scratch = ScratchCache::new("poison");
    let p = p1_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    let reference = run(&p, &ks, [13, 9, 1], ExecMode::Serial, 2);

    // First native run populates the disk cache. Regenerated kernels share
    // cache keys, so drop the ones earlier tests resolved in this process.
    pf_backend::clear_memory_cache();
    let first = run(&p, &ks, [13, 9, 1], ExecMode::Native, 2);
    assert_eq!(reference.phi().max_abs_diff(first.phi()), 0.0);

    // Poison every cached artifact on disk, then drop the in-memory
    // function pointers so the next run must go back to disk.
    let mut poisoned = 0;
    for entry in std::fs::read_dir(&scratch.0).expect("cache dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "so") {
            // Swap in the garbage via rename (a fresh inode): truncating a
            // still-mapped artifact in place would SIGBUS the live process,
            // which is exactly why the production path installs artifacts
            // the same way.
            let tmp = path.with_extension("poison.tmp");
            std::fs::write(&tmp, b"garbage, not an ELF").expect("write poison");
            std::fs::rename(&tmp, &path).expect("install poison");
            poisoned += 1;
        }
    }
    assert!(
        poisoned > 0,
        "native run must have cached artifacts on disk"
    );
    pf_backend::clear_memory_cache();

    let stale = pf_trace::counter("exec.native.stale");
    let before = stale.value();
    let second = run(&p, &ks, [13, 9, 1], ExecMode::Native, 2);
    assert_eq!(
        reference.phi().max_abs_diff(second.phi()),
        0.0,
        "recompiled artifacts must still match Serial bitwise"
    );
    assert_eq!(reference.mu().max_abs_diff(second.mu()), 0.0);
    if pf_trace::enabled() {
        assert!(
            stale.value() >= before + poisoned as u64,
            "every poisoned artifact must be detected and replaced"
        );
    }
}

#[test]
fn forced_rustc_failure_falls_back_to_vectorized_bitwise() {
    let _g = lock();
    let _scratch = ScratchCache::new("fallback");
    let p = p1_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    let reference = run(&p, &ks, [20, 12, 1], ExecMode::Vectorized, 2);

    // Break the compiler and drop any kernels already resolved in this
    // process, so every native launch actually attempts (and fails) a
    // compile before degrading.
    std::env::set_var("PF_NATIVE_RUSTC", "/nonexistent/pf-rustc-gone");
    pf_backend::clear_memory_cache();
    let fails = pf_trace::counter("exec.native.compile_fail");
    let fallbacks = pf_trace::counter(&format!("exec.fallback.{}", ks.phi_full.name));
    let (f0, b0) = (fails.value(), fallbacks.value());
    let degraded = run(&p, &ks, [20, 12, 1], ExecMode::Native, 2);
    std::env::remove_var("PF_NATIVE_RUSTC");
    pf_backend::clear_memory_cache();

    assert_eq!(
        reference.phi().max_abs_diff(degraded.phi()),
        0.0,
        "the degraded run must be bitwise identical to the vectorized engine"
    );
    assert_eq!(reference.mu().max_abs_diff(degraded.mu()), 0.0);
    if pf_trace::enabled() {
        assert!(
            fails.value() > f0,
            "failed compiles must bump exec.native.compile_fail"
        );
        assert!(
            fallbacks.value() > b0,
            "the degraded launches must bump exec.fallback.<kernel>"
        );
    }
}

/// Shared fields for random tapes (field registration is global, so reuse
/// one pair across cases).
fn prop_src() -> Field {
    static F: OnceLock<Field> = OnceLock::new();
    *F.get_or_init(|| Field::new("nateq_src", 2, 3))
}

fn prop_dst() -> Field {
    static F: OnceLock<Field> = OnceLock::new();
    *F.get_or_init(|| Field::new("nateq_dst", 1, 3))
}

/// A strategy for random, numerically tame expressions over one 2-component
/// source field (denominators ≥ 1, sqrt args > 0, offsets within the
/// single ghost layer) plus the occasional Philox `Rand` leaf.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (1i32..40).prop_map(|v| Expr::num(v as f64 / 8.0)),
        Just(Expr::rand(0)),
        (0usize..2, -1i32..=1, -1i32..=1).prop_map(|(c, ox, oy)| Expr::access(Access::at(
            prop_src(),
            c,
            [ox, oy, 0]
        ))),
    ];
    leaf.prop_recursive(4, 40, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / (Expr::powi(b, 2) + 1.0)),
            inner
                .clone()
                .prop_map(|a| Expr::sqrt(Expr::powi(a, 2) + 0.5)),
            inner
                .clone()
                .prop_map(|a| Expr::rsqrt(Expr::powi(a, 2) + 1.0)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::max(a, b)),
            inner.clone().prop_map(Expr::abs),
        ]
    })
}

/// Run one random tape through one engine over a small block and return
/// the destination bit patterns.
fn run_tape_bits(tape: &pf_ir::Tape, mode: ExecMode) -> Vec<u64> {
    let shape = [13usize, 7, 1];
    let mut store = FieldStore::new();
    store
        .allocate(prop_src(), shape, 1, Layout::Fzyx)
        .fill_with(0, |x, y, _| 0.1 + ((x * 13 + y * 29) % 17) as f64 / 16.0);
    store
        .get_mut(prop_src())
        .fill_with(1, |x, y, _| 0.2 + ((x * 7 + y * 3) % 11) as f64 / 8.0);
    store.allocate(prop_dst(), shape, 1, Layout::Fzyx);
    let ctx = RunCtx {
        seed: 11,
        timestep: 2,
        origin: [1, -2, 0],
        ..RunCtx::default()
    };
    pf_backend::run_kernel(tape, &mut store, &[], shape, &ctx, mode);
    store
        .take(prop_dst())
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    // Every distinct case costs one rustc compile (~1s), so the case count
    // stays small; the physics tests above cover breadth, this covers
    // random operator composition.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_expression_tapes_agree_across_all_three_engines(e in arb_expr()) {
        let _g = lock();
        if !native_or_skip("random_expression_tapes_agree_across_all_three_engines") {
            return;
        }
        let _scratch = ScratchCache::new("prop");
        let k = StencilKernel::new(
            "nateq_prop",
            vec![Assignment::store(Access::center(prop_dst(), 0), e)],
        );
        let tape = generate(&k, &GenOptions::default());
        let serial = run_tape_bits(&tape, ExecMode::Serial);
        let vectorized = run_tape_bits(&tape, ExecMode::Vectorized);
        let native = run_tape_bits(&tape, ExecMode::Native);
        prop_assert_eq!(&serial, &vectorized, "vectorized diverged");
        prop_assert_eq!(&serial, &native, "native diverged");
    }
}
