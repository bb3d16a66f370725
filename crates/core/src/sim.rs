//! Single-block simulation driver — Algorithm 1.
//!
//! ```text
//! 1: φ_dst ← φ-kernel(φ_src^D3C7, µ_src^D3C1)      "φ-full" or "φ-split"
//! 2: φ_dst ← communication and boundary handling
//! 3: µ_dst ← µ-kernel(µ_src^D3C7, φ_src^D3C19, φ_dst^D3C19)
//! 4: µ_dst ← communication and boundary handling
//! 5: swap φ_src ↔ φ_dst and µ_src ↔ µ_dst
//! ```
//!
//! plus the Gibbs-simplex projection the obstacle potential requires. The
//! distributed (multi-rank) variant lives in `dist.rs`; this driver covers
//! one block with periodic/Neumann boundaries.

use crate::kernels::{KernelSet, SplitTapes};
use crate::params::ModelParams;
use pf_backend::{run_kernel, ExecMode, FieldStore, RunCtx};
use pf_fields::{FieldArray, Layout};
use pf_ir::Tape;
use pf_symbolic::Field;

/// Which kernel variant to run for a field update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Full,
    Split,
}

/// Boundary condition per dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcKind {
    Periodic,
    /// Zero-gradient.
    Neumann,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub shape: [usize; 3],
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub mode: ExecMode,
    pub bc: [BcKind; 3],
    pub seed: u32,
}

impl SimConfig {
    pub fn new(shape: [usize; 3]) -> Self {
        SimConfig {
            shape,
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            // Generated native code when the host has a toolchain, else
            // an interpreter (all engines are bitwise identical).
            mode: crate::select::default_exec_mode(shape),
            bc: [BcKind::Periodic, BcKind::Periodic, BcKind::Neumann],
            seed: 42,
        }
    }
}

/// A running single-block simulation.
pub struct Simulation {
    pub params: ModelParams,
    pub kernels: KernelSet,
    pub cfg: SimConfig,
    pub store: FieldStore,
    pub step_count: u64,
    /// Global origin of this block (nonzero in distributed runs).
    pub origin: [i64; 3],
}

impl Simulation {
    /// Allocate all field storage ([`pf_grid::GHOST_LAYERS`] ghost layers —
    /// the kernels are compact, and pf-analyze's footprint pass proves they
    /// fit) and initialize φ to pure liquid, µ to zero.
    pub fn new(params: ModelParams, kernels: KernelSet, cfg: SimConfig) -> Simulation {
        let mut store = FieldStore::new();
        let f = kernels.fields;
        for field in [f.phi_src, f.phi_dst, f.mu_src, f.mu_dst] {
            store.allocate(field, cfg.shape, pf_grid::GHOST_LAYERS, Layout::Fzyx);
        }
        // Staggered temporaries: +1 cell per dimension, no ghosts.
        let stag_shape = [
            cfg.shape[0] + 1,
            cfg.shape[1] + 1,
            if params.dim == 3 {
                cfg.shape[2] + 1
            } else {
                cfg.shape[2]
            },
        ];
        for sf in [kernels.phi_split.stag_field, kernels.mu_split.stag_field] {
            let arr = FieldArray::new(&sf.name(), stag_shape, sf.components(), 0, Layout::Fzyx);
            store.insert(sf, arr);
        }
        let mut sim = Simulation {
            params,
            kernels,
            cfg,
            store,
            step_count: 0,
            origin: [0; 3],
        };
        // Pure liquid, µ = 0 everywhere.
        let liquid = sim.params.liquid_phase;
        for alpha in 0..sim.params.phases {
            let v = if alpha == liquid { 1.0 } else { 0.0 };
            sim.store.get_mut(f.phi_src).fill_with(alpha, |_, _, _| v);
        }
        sim
    }

    /// Set φ from a per-cell closure returning the phase vector.
    pub fn init_phi(&mut self, mut f: impl FnMut(usize, usize, usize) -> Vec<f64>) {
        let field = self.kernels.fields.phi_src;
        let n = self.params.phases;
        let shape = self.cfg.shape;
        let arr = self.store.get_mut(field);
        for z in 0..shape[2] {
            for y in 0..shape[1] {
                for x in 0..shape[0] {
                    let v = f(x, y, z);
                    assert_eq!(v.len(), n);
                    for (alpha, val) in v.iter().enumerate() {
                        arr.set(alpha, x as isize, y as isize, z as isize, *val);
                    }
                }
            }
        }
        self.project_simplex(field);
    }

    /// Set µ from a per-cell closure.
    pub fn init_mu(&mut self, mut f: impl FnMut(usize, usize, usize) -> Vec<f64>) {
        let field = self.kernels.fields.mu_src;
        let shape = self.cfg.shape;
        let arr = self.store.get_mut(field);
        for z in 0..shape[2] {
            for y in 0..shape[1] {
                for x in 0..shape[0] {
                    let v = f(x, y, z);
                    for (i, val) in v.iter().enumerate() {
                        arr.set(i, x as isize, y as isize, z as isize, *val);
                    }
                }
            }
        }
    }

    /// Apply the configured boundary conditions to one field's ghosts.
    pub fn apply_bc(&mut self, field: Field) {
        let bc = self.cfg.bc;
        let arr = self.store.get_mut(field);
        for (d, kind) in bc.iter().enumerate() {
            match kind {
                BcKind::Periodic => arr.apply_periodic(d),
                BcKind::Neumann => arr.apply_neumann(d),
            }
        }
    }

    /// The execution context of the *next* step.
    pub fn ctx(&self) -> RunCtx {
        RunCtx {
            time: self.step_count as f64 * self.params.dt,
            timestep: self.step_count,
            dx: [self.params.dx; 3],
            origin: self.origin,
            seed: self.cfg.seed,
        }
    }

    /// Run one tape over this block.
    pub fn run(&mut self, tape: &Tape) {
        let ctx = self.ctx();
        run_kernel(
            tape,
            &mut self.store,
            &[],
            self.cfg.shape,
            &ctx,
            self.cfg.mode,
        );
    }

    /// Run one tape over a sub-region of its extended iteration range. The
    /// overlapped distributed schedule uses this to sweep the interior
    /// while halo messages are in flight, then the frontier shells after
    /// the receives complete; cell semantics are keyed on absolute indices,
    /// so the union of region launches is bitwise identical to [`Self::run`].
    pub fn run_region(&mut self, tape: &Tape, region: pf_backend::IterRegion) {
        let ctx = self.ctx();
        // A region too narrow along x to fill one SIMD strip would run
        // entirely in the vectorized engine's scalar teardown loop; the
        // serial engine does the same work without the strip bookkeeping.
        // Engines are bitwise interchangeable, so this is purely speed.
        let mode = match self.cfg.mode {
            ExecMode::Vectorized
                if region.hi[0].saturating_sub(region.lo[0]) < pf_backend::STRIP_WIDTH =>
            {
                ExecMode::Serial
            }
            m => m,
        };
        pf_backend::run_kernel_region(
            tape,
            &mut self.store,
            &[],
            self.cfg.shape,
            region,
            &ctx,
            mode,
        );
    }

    /// Run a split kernel (face passes, then the update pass).
    pub fn run_split(&mut self, split: &SplitTapes) {
        for t in &split.flux_tapes {
            self.run(t);
        }
        self.run(&split.update);
    }

    /// Gibbs-simplex projection: clamp φ_α to [0, 1] and renormalize the
    /// sum to 1 (the obstacle potential is +∞ outside the simplex; the
    /// standard treatment projects after each explicit step).
    pub fn project_simplex(&mut self, field: Field) {
        let n = self.params.phases;
        let shape = self.cfg.shape;
        let arr = self.store.get_mut(field);
        for z in 0..shape[2] as isize {
            for y in 0..shape[1] as isize {
                for x in 0..shape[0] as isize {
                    let mut vals: Vec<f64> = (0..n)
                        .map(|a| arr.get(a, x, y, z).clamp(0.0, 1.0))
                        .collect();
                    let sum: f64 = vals.iter().sum();
                    if sum > 1e-12 {
                        for v in vals.iter_mut() {
                            *v /= sum;
                        }
                    } else {
                        // Degenerate cell: fall back to pure liquid.
                        for (a, v) in vals.iter_mut().enumerate() {
                            *v = if a == self.params.liquid_phase {
                                1.0
                            } else {
                                0.0
                            };
                        }
                    }
                    for (a, v) in vals.iter().enumerate() {
                        arr.set(a, x, y, z, *v);
                    }
                }
            }
        }
    }

    /// One timestep of Algorithm 1.
    pub fn step(&mut self) {
        let f = self.kernels.fields;
        // Ghost layers / boundary handling on the sources.
        self.apply_bc(f.phi_src);
        self.apply_bc(f.mu_src);

        // 1: φ update.
        let phi_split = self.kernels.phi_split.clone();
        let phi_full = self.kernels.phi_full.clone();
        match self.cfg.phi_variant {
            Variant::Full => self.run(&phi_full),
            Variant::Split => self.run_split(&phi_split),
        }
        self.project_simplex(f.phi_dst);
        // 2: boundary handling on φ_dst (the µ kernel reads its neighbours).
        self.apply_bc(f.phi_dst);

        // 3: µ update.
        let mu_split = self.kernels.mu_split.clone();
        let mu_full = self.kernels.mu_full.clone();
        match self.cfg.mu_variant {
            Variant::Full => self.run(&mu_full),
            Variant::Split => self.run_split(&mu_split),
        }

        // 5: swap.
        self.store.swap(f.phi_src, f.phi_dst);
        self.store.swap(f.mu_src, f.mu_dst);
        self.step_count += 1;
    }

    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    pub fn phi(&self) -> &FieldArray {
        self.store.get(self.kernels.fields.phi_src)
    }

    pub fn mu(&self) -> &FieldArray {
        self.store.get(self.kernels.fields.mu_src)
    }

    /// The Philox counter state of the *next* step — together with the
    /// field interiors, the complete persistent RNG state (§3.3: the
    /// generator itself is stateless).
    pub fn rng_state(&self) -> pf_rng::CounterState {
        pf_rng::CounterState::new(self.cfg.seed, self.step_count)
    }

    /// Write this block's restart state to `path` atomically. Single-block
    /// convenience over [`crate::checkpoint::save`]; distributed runs pass
    /// their decomposition's [`crate::checkpoint::RankMeta`] instead.
    pub fn save_checkpoint(
        &self,
        path: &std::path::Path,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let meta = crate::checkpoint::RankMeta::single(self.cfg.shape);
        crate::checkpoint::save(self, &meta, path)
    }

    /// Restore this block from `path`, verifying it matches this
    /// simulation's parameters and configuration. The simulation is left
    /// untouched on error.
    pub fn restore_checkpoint(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let meta = crate::checkpoint::RankMeta::single(self.cfg.shape);
        crate::checkpoint::load(self, &meta, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;

    fn mini_sim(shape: [usize; 3]) -> Simulation {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let mut cfg = SimConfig::new(shape);
        cfg.bc = [BcKind::Periodic; 3];
        Simulation::new(p, ks, cfg)
    }

    fn seed_circle(sim: &mut Simulation, r: f64) {
        let shape = sim.cfg.shape;
        let (cx, cy) = (shape[0] as f64 / 2.0, shape[1] as f64 / 2.0);
        let eps = sim.params.eps;
        sim.init_phi(|x, y, _| {
            let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - r) / eps;
            let solid = 0.5 * (1.0 - (d).tanh());
            vec![1.0 - solid, solid]
        });
        sim.init_mu(|_, _, _| vec![0.0]);
    }

    #[test]
    fn simplex_invariants_hold_over_steps() {
        let mut sim = mini_sim([16, 16, 1]);
        seed_circle(&mut sim, 5.0);
        sim.run_steps(10);
        let phi = sim.phi();
        for y in 0..16isize {
            for x in 0..16isize {
                let a = phi.get(0, x, y, 0);
                let b = phi.get(1, x, y, 0);
                assert!((0.0..=1.0).contains(&a), "phi0 out of range: {a}");
                assert!((0.0..=1.0).contains(&b), "phi1 out of range: {b}");
                assert!((a + b - 1.0).abs() < 1e-12, "sum violated: {}", a + b);
            }
        }
    }

    #[test]
    fn small_circle_shrinks_under_curvature() {
        let mut sim = mini_sim([32, 32, 1]);
        seed_circle(&mut sim, 8.0);
        let before = sim.phi().interior_sum(1);
        sim.run_steps(100);
        let after = sim.phi().interior_sum(1);
        assert!(
            after < before * 0.98,
            "curvature flow should shrink the solid: {before} → {after}"
        );
        // And nothing blew up.
        assert!(after.is_finite() && after >= 0.0);
    }

    #[test]
    fn full_and_split_variants_agree() {
        let run = |phi_v: Variant, mu_v: Variant| {
            let mut sim = mini_sim([12, 12, 1]);
            sim.cfg.phi_variant = phi_v;
            sim.cfg.mu_variant = mu_v;
            seed_circle(&mut sim, 4.0);
            sim.run_steps(5);
            (sim.phi().clone(), sim.mu().clone())
        };
        let (phi_ff, mu_ff) = run(Variant::Full, Variant::Full);
        let (phi_ss, mu_ss) = run(Variant::Split, Variant::Split);
        let dphi = phi_ff.max_abs_diff(&phi_ss);
        let dmu = mu_ff.max_abs_diff(&mu_ss);
        assert!(dphi < 1e-12, "phi variants diverge: {dphi}");
        assert!(dmu < 1e-12, "mu variants diverge: {dmu}");
    }

    #[test]
    fn planar_front_grows_with_driving_force() {
        // Undercooled liquid (µ favouring solid): a planar front advances.
        let mut sim = mini_sim([24, 8, 1]);
        let eps = sim.params.eps;
        sim.init_phi(|x, _, _| {
            let d = (x as f64 - 6.0) / eps;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        });
        sim.init_mu(|_, _, _| vec![0.4]);
        let before = sim.phi().interior_sum(1);
        sim.run_steps(120);
        let after = sim.phi().interior_sum(1);
        assert!(
            after > before * 1.01,
            "front should advance into undercooled melt: {before} → {after}"
        );
    }
}
