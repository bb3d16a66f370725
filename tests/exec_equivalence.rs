//! Cross-engine equivalence: the scalar-serial and strip-mined vectorized
//! executors must produce **bitwise identical** states — the vectorized
//! engine reorders arithmetic only across lanes, never within a cell's
//! dependency chain, and the Philox generator is stateless per cell, so
//! batching cannot change a single bit.
//!
//! Covered here on the full P1 physics (the pf-backend unit tests cover
//! synthetic tapes):
//! - remainder strips (`x % STRIP_WIDTH != 0`, and x < STRIP_WIDTH so the
//!   strip loop never runs at all),
//! - both LICM loop orders ([2,1,0] and [1,2,0]),
//! - fluctuating (Philox `Rand`) kernels,
//! - GPU-rescheduled non-monotone tapes, which additionally must raise the
//!   `exec.licm_disabled` observability counter and the pf-analyze
//!   `schedule.licm-lost` warning.

use pf_backend::{ExecMode, STRIP_WIDTH};
use pf_core::{generate_kernels, p1, BcKind, KernelSet, ModelParams, SimConfig, Simulation};
use pf_ir::{apply_loop_order, insert_fences, rematerialize, schedule_min_live, GenOptions};

fn p1_2d() -> ModelParams {
    // Full P1 physics (4 phases, 3 components, anti-trapping) on a 2D
    // slice so debug-mode tests stay fast.
    let mut p = p1();
    p.dim = 2;
    p.dt = 0.005;
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
    sim.init_phi(|x, y, _| {
        let mut v = vec![0.0; 4];
        let cx = shape[0] as f64 / 2.0;
        let cy = shape[1] as f64 / 2.0;
        let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - 3.0) / 2.0;
        let s = 0.5 * (1.0 - d.tanh());
        v[0] = 1.0 - s;
        v[1 + (x / 3) % 3] = s;
        v
    });
    sim.init_mu(|x, _, _| vec![0.1 - 0.001 * x as f64, -0.05]);
    for _ in 0..steps {
        sim.step();
    }
    sim
}

/// Assert the serial and vectorized engines end in bitwise-identical states.
fn assert_engines_agree(p: &ModelParams, ks: &KernelSet, shape: [usize; 3], steps: usize) {
    let serial = run(p, ks, shape, ExecMode::Serial, steps);
    let other = run(p, ks, shape, ExecMode::Vectorized, steps);
    assert_eq!(
        serial.phi().max_abs_diff(other.phi()),
        0.0,
        "phi diverged from Serial under Vectorized on shape {shape:?}"
    );
    assert_eq!(
        serial.mu().max_abs_diff(other.mu()),
        0.0,
        "mu diverged from Serial under Vectorized on shape {shape:?}"
    );
}

#[test]
fn engines_agree_with_remainder_strips() {
    let p = p1_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    // 20 = 2 full strips + 4 remainder cells per row.
    assert_engines_agree(&p, &ks, [20, 12, 1], 2);
    // 13 cells: one strip + 5 tear-down cells.
    assert_engines_agree(&p, &ks, [13, 9, 1], 2);
}

#[test]
fn engines_agree_when_every_row_is_remainder() {
    // x < STRIP_WIDTH: the strip loop body never executes, everything goes
    // through the scalar tear-down path.
    let p = p1_2d();
    let ks = generate_kernels(&p, &GenOptions::default());
    let x = STRIP_WIDTH / 2;
    assert_engines_agree(&p, &ks, [x, 10, 1], 2);
}

#[test]
fn engines_agree_under_both_licm_loop_orders() {
    let p = p1_2d();
    for order in [[2, 1, 0], [1, 2, 0]] {
        let mut ks = generate_kernels(&p, &GenOptions::default());
        apply_loop_order(&mut ks.phi_full, order);
        apply_loop_order(&mut ks.mu_full, order);
        assert_eq!(ks.phi_full.loop_order, order);
        assert_engines_agree(&p, &ks, [20, 10, 1], 2);
    }
}

#[test]
fn engines_agree_on_fluctuating_kernels() {
    // Philox noise in the φ update: lane-batched Rand evaluation must
    // reproduce the serial stream exactly (the generator is keyed on the
    // global cell coordinate, not on evaluation order).
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
    assert_engines_agree(&p, &ks, [20, 10, 1], 2);
}

#[test]
fn gpu_rescheduled_tapes_agree_and_surface_licm_loss() {
    // The GPU register-pressure chain (rematerialize → min-live reschedule
    // → fences) legitimately destroys level monotonicity. CPU engines must
    // still execute such tapes correctly — just without hoisting — and the
    // loss must be observable, not silent.
    let p = p1_2d();
    let mut ks = generate_kernels(&p, &GenOptions::default());
    let mut t = insert_fences(&schedule_min_live(&rematerialize(&ks.phi_full, 2), 20), 48);
    t.name = "phi_full_gpu_eq".into();
    assert!(
        t.levels.windows(2).any(|w| w[1] < w[0]),
        "reschedule should produce a non-monotone level sequence"
    );
    // pf-analyze flags it as the schedule.licm-lost warning (not an error).
    let diags = pf_analyze::check_levels(&t);
    assert!(
        diags.iter().any(|d| d.kind.code() == "schedule.licm-lost"),
        "{diags:?}"
    );
    ks.phi_full = t;

    let hits = pf_trace::counter("exec.licm_disabled.phi_full_gpu_eq");
    let before = hits.value();
    assert_engines_agree(&p, &ks, [20, 10, 1], 2);
    assert!(
        hits.value() > before,
        "every launch of a non-monotone tape must bump exec.licm_disabled"
    );
}
