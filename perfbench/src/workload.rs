//! Workloads, their seeded inputs, and the output check.

use pf_backend::ExecMode;
use pf_core::dist::{run_distributed, CheckpointConfig, DistConfig};
use pf_core::{KernelSet, ModelParams, Simulation, Variant};
use std::path::Path;
use std::time::Instant;

/// One named workload: a P1 world stepped through `run_distributed`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub ranks: usize,
    pub global: [usize; 3],
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    /// Steps per `run_distributed` call.
    pub steps: usize,
    /// Incremental checkpoint every step of every call.
    pub checkpoint: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "p1_block64",
        ranks: 1,
        global: [64, 64, 64],
        phi_variant: Variant::Full,
        mu_variant: Variant::Split,
        steps: 2,
        checkpoint: false,
    },
    Workload {
        name: "p1_halo16",
        ranks: 2,
        global: [16, 16, 32],
        phi_variant: Variant::Split,
        mu_variant: Variant::Split,
        steps: 20,
        checkpoint: false,
    },
    Workload {
        name: "p1_ckpt32",
        ranks: 2,
        global: [32, 32, 64],
        phi_variant: Variant::Full,
        mu_variant: Variant::Split,
        // With the default `full_every` of 4, the set of step 5 ends a
        // chain of one full snapshot and four increments.
        steps: 5,
        checkpoint: true,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn params(&self) -> ModelParams {
        pf_core::p1()
    }

    pub fn cells(&self) -> usize {
        self.global.iter().product()
    }

    /// The workload's `DistConfig`: defaults apart from the fields named
    /// here. A checkpointing workload writes under `ckpt_dir` when given.
    pub fn config(&self, seed: u32, ckpt_dir: Option<&Path>) -> DistConfig {
        let mut cfg = DistConfig::new(self.global, self.ranks);
        cfg.phi_variant = self.phi_variant;
        cfg.mu_variant = self.mu_variant;
        cfg.seed = seed;
        if let (true, Some(dir)) = (self.checkpoint, ckpt_dir) {
            cfg.checkpoint = Some(CheckpointConfig::new(dir).every(1));
        }
        cfg
    }
}

/// The engine `run_distributed` picks for a block: a warm tuning-cache
/// entry, else the shape default.
pub fn engine_for(ks: &KernelSet, shape: [usize; 3]) -> ExecMode {
    pf_core::tuned_exec_mode(
        pf_core::TuneCache::from_env().as_ref(),
        ks,
        &pf_machine::skylake_8174(),
        shape,
    )
    .unwrap_or_else(|| pf_core::default_exec_mode(shape))
}

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded initial conditions in global cell coordinates: a solidification
/// front of three alternating solid lamellae below liquid, with a seeded
/// front height, lamella offset and small per-cell noise in µ.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    seed: u64,
    front: f64,
    amp: [f64; 2],
    phase: [f64; 2],
    lamella: i64,
    offset: i64,
    global: [usize; 3],
}

impl Inputs {
    pub fn new(seed: u64, global: [usize; 3]) -> Self {
        let r = |k: u64| unit(mix(seed ^ mix(k)));
        let lamella = (global[0] as i64 / 4).max(2);
        Inputs {
            seed,
            front: global[2] as f64 * (0.25 + 0.2 * r(1)),
            amp: [1.0 + 2.0 * r(2), 1.0 + 2.0 * r(3)],
            phase: [std::f64::consts::TAU * r(4), std::f64::consts::TAU * r(5)],
            lamella,
            offset: (r(6) * (3 * lamella) as f64) as i64,
            global,
        }
    }

    pub fn phi(&self, x: i64, y: i64, z: i64) -> Vec<f64> {
        let kx = std::f64::consts::TAU / self.global[0] as f64;
        let ky = std::f64::consts::TAU / self.global[1] as f64;
        let h = self.front
            + self.amp[0] * (kx * x as f64 + self.phase[0]).sin()
            + self.amp[1] * (ky * y as f64 + self.phase[1]).sin();
        let solid = 0.5 * (1.0 - ((z as f64 - h) / 2.0).tanh());
        let which = 1 + ((x + self.offset).rem_euclid(3 * self.lamella) / self.lamella) as usize;
        let mut v = vec![0.0; 4];
        v[0] = 1.0 - solid;
        v[which] = solid;
        v
    }

    pub fn mu(&self, x: i64, y: i64, z: i64) -> Vec<f64> {
        let cell = (x as u64) ^ ((y as u64) << 21) ^ ((z as u64) << 42);
        let h = mix(self.seed ^ mix(cell ^ 0x6d75));
        vec![0.02 * (unit(h) - 0.5), 0.02 * (unit(mix(h)) - 0.5)]
    }
}

/// One rank's share of the output check: the fingerprint terms of its
/// cells, computed inside the world so no field is copied out.
pub struct RankCheck {
    fp: u64,
    cells: usize,
    error: Option<String>,
}

/// Decomposition-independent fingerprint terms of one rank's final state:
/// a wrapping sum over cells of a hash of (global index, bits of every φ
/// and µ component), so any rank count and engine that computes the same
/// bits gives the same total. Records the first value that is not finite
/// and the first cell whose Σφ ≠ 1.
pub fn check_rank(sim: &Simulation, global: [usize; 3]) -> RankCheck {
    let (phi, mu) = (sim.phi(), sim.mu());
    let (np, nm) = (phi.components(), mu.components());
    let (shape, o) = (sim.cfg.shape, sim.origin);
    let mut fp = 0u64;
    let mut error = None;
    for z in 0..shape[2] as isize {
        for y in 0..shape[1] as isize {
            for x in 0..shape[0] as isize {
                let g = [x as i64 + o[0], y as i64 + o[1], z as i64 + o[2]];
                let gidx =
                    g[0] as u64 + global[0] as u64 * (g[1] as u64 + global[1] as u64 * g[2] as u64);
                let mut h = mix(gidx);
                let mut sum = 0.0;
                let mut finite = true;
                for c in 0..np {
                    let v = phi.get(c, x, y, z);
                    finite &= v.is_finite();
                    sum += v;
                    h = mix(h ^ v.to_bits());
                }
                for c in 0..nm {
                    let v = mu.get(c, x, y, z);
                    finite &= v.is_finite();
                    h = mix(h ^ v.to_bits());
                }
                if error.is_none() && !finite {
                    error = Some(format!("a value at {g:?} is not finite"));
                } else if error.is_none() && (sum - 1.0).abs() > 1e-12 {
                    error = Some(format!("sum of phi at {g:?} is {sum}"));
                }
                fp = fp.wrapping_add(h);
            }
        }
    }
    RankCheck {
        fp,
        cells: shape.iter().product(),
        error,
    }
}

/// The world's fingerprint from every rank's share, or why it failed.
pub fn fingerprint(parts: &[RankCheck], global: [usize; 3]) -> Result<u64, String> {
    if let Some(e) = parts.iter().find_map(|p| p.error.clone()) {
        return Err(e);
    }
    let cells: usize = parts.iter().map(|p| p.cells).sum();
    let want: usize = global.iter().product();
    if cells != want {
        return Err(format!("world returned {cells} cells, expected {want}"));
    }
    Ok(parts.iter().fold(0u64, |a, p| a.wrapping_add(p.fp)))
}

/// One timed `run_distributed` call: wall seconds and the fingerprint of
/// its final state, or why the call failed (panic or output check).
pub fn world_call(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    inputs: &Inputs,
) -> Result<(f64, u64), String> {
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_distributed(
            p,
            ks,
            cfg,
            steps,
            |x, y, z| inputs.phi(x, y, z),
            |x, y, z| inputs.mu(x, y, z),
            |sim| check_rank(sim, cfg.global),
        )
    }));
    let secs = t0.elapsed().as_secs_f64();
    let parts = run.map_err(|e| format!("run_distributed panicked: {}", panic_text(&e)))?;
    crate::host::release_free_memory();
    Ok((secs, fingerprint(&parts, cfg.global)?))
}

pub fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Fingerprints of the independent reference: the same world on another
/// engine (native when available, else serial) and another rank count,
/// after 1 step and after `w.steps` steps.
pub fn reference(
    w: &Workload,
    p: &ModelParams,
    ks: &KernelSet,
    seed: u32,
    inputs: &Inputs,
) -> Result<(u64, u64), String> {
    let mut cfg = w.config(seed, None);
    cfg.ranks = if w.ranks == 1 { 2 } else { 1 };
    cfg.exec_mode = Some(if pf_backend::native_available() {
        ExecMode::Native
    } else {
        ExecMode::Serial
    });
    let (_, one) = world_call(p, ks, &cfg, 1, inputs)?;
    let (_, all) = world_call(p, ks, &cfg, w.steps, inputs)?;
    Ok((one, all))
}
