//! Decomposition invariance: the physics must not know how the domain was
//! carved up or how the halos were scheduled. One global configuration —
//! with Philox fluctuations live, so the RNG keying is on trial too — is
//! run on 1, 2, and 4 ranks, with the blocking and the overlapped
//! (interior/frontier) communication schedule, and through a
//! checkpoint/restart cycle; every leg must reproduce the same global
//! field bitwise.

use pf_core::dist::{run_distributed, CheckpointConfig, DistConfig};
use pf_core::{generate_kernels, KernelSet, Variant};
use pf_ir::GenOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const GLOBAL: [usize; 3] = [16, 12, 1];
const STEPS: usize = 4;

fn mini() -> pf_core::ModelParams {
    let mut p = pf_core::p1();
    p.phases = 2;
    p.components = 2;
    p.dim = 2;
    p.dt = 0.005;
    p.gamma = vec![vec![0.0, 0.4], vec![0.4, 0.0]];
    p.tau = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
    p.diffusivity = vec![1.0, 0.1];
    p.a_coeff = vec![vec![-0.5], vec![-0.5]];
    p.b_coeff = vec![vec![(0.0, 0.05)], vec![(-0.3, 0.05)]];
    p.c_coeff = vec![(0.01, 0.0), (0.01, 0.0)];
    p.orientation = vec![0.0, 0.0];
    p.temperature.gradient = 0.0;
    // Live noise: any decomposition- or schedule-dependence in the Philox
    // keying would break the bitwise comparison immediately.
    p.fluctuation_amplitude = 1e-3;
    p
}

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pf-dinv-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run a configuration on a given global domain and reassemble the
/// per-rank blocks into the global φ and µ fields as raw bit patterns,
/// indexed `[comp][z][y][x]`.
fn global_bits_on(
    global: [usize; 3],
    p: &pf_core::ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
) -> (Vec<u64>, Vec<u64>) {
    let init_phi = move |x: i64, y: i64, z: i64| {
        let d = (((x as f64 - global[0] as f64 / 2.0).powi(2)
            + (y as f64 - global[1] as f64 / 2.0).powi(2)
            + (z as f64) * (z as f64))
            .sqrt()
            - 4.0)
            / 2.5;
        let s = 0.5 * (1.0 - d.tanh());
        vec![1.0 - s, s]
    };
    let init_mu = |x: i64, y: i64, _z: i64| vec![0.05 + 0.001 * ((x + y) % 5) as f64];
    let blocks = run_distributed(p, ks, cfg, steps, init_phi, init_mu, |sim| {
        (sim.origin, sim.phi().clone(), sim.mu().clone())
    });

    let cells = global[0] * global[1] * global[2];
    let mut phi = vec![0u64; p.phases * cells];
    let mut mu = vec![0u64; p.num_mu() * cells];
    for (origin, bphi, bmu) in blocks {
        let shape = bphi.shape();
        for z in 0..shape[2] {
            for y in 0..shape[1] {
                for x in 0..shape[0] {
                    let g = (x + origin[0] as usize)
                        + global[0]
                            * ((y + origin[1] as usize) + global[1] * (z + origin[2] as usize));
                    for a in 0..p.phases {
                        phi[a * cells + g] =
                            bphi.get(a, x as isize, y as isize, z as isize).to_bits();
                    }
                    for i in 0..p.num_mu() {
                        mu[i * cells + g] =
                            bmu.get(i, x as isize, y as isize, z as isize).to_bits();
                    }
                }
            }
        }
    }
    (phi, mu)
}

fn global_bits(
    p: &pf_core::ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
) -> (Vec<u64>, Vec<u64>) {
    global_bits_on(GLOBAL, p, ks, cfg, steps)
}

fn cfg_on(global: [usize; 3], ranks: usize, overlap: bool) -> DistConfig {
    let mut c = DistConfig::new(global, ranks);
    c.phi_variant = Variant::Full;
    c.mu_variant = Variant::Split;
    c.comm.overlap = overlap;
    c
}

fn cfg(ranks: usize, overlap: bool) -> DistConfig {
    cfg_on(GLOBAL, ranks, overlap)
}

/// 1, 2, and 4 ranks × blocking/overlapped must all reassemble to the same
/// global fields, bit for bit.
#[test]
fn rank_count_and_schedule_leave_the_fields_bitwise_invariant() {
    let p = mini();
    let ks = generate_kernels(&p, &GenOptions::default());
    let (ref_phi, ref_mu) = global_bits(&p, &ks, &cfg(1, false), STEPS);
    for ranks in [1usize, 2, 4] {
        for overlap in [false, true] {
            if ranks == 1 && !overlap {
                continue; // the reference itself
            }
            let (phi, mu) = global_bits(&p, &ks, &cfg(ranks, overlap), STEPS);
            assert_eq!(
                phi, ref_phi,
                "phi differs from the 1-rank blocking reference (ranks {ranks}, overlap {overlap})"
            );
            assert_eq!(
                mu, ref_mu,
                "mu differs from the 1-rank blocking reference (ranks {ranks}, overlap {overlap})"
            );
        }
    }
}

/// Past toy rank counts: 16 and 64 ranks, flat and hierarchical
/// (node × socket) decompositions, blocking and overlapped schedules —
/// every leg must still reassemble the 1-rank fields bit for bit. The
/// hierarchical legs split 4 nodes × ranks/4 sockets; their flat product
/// grid routes through exactly the same exchange machinery, so any
/// hierarchy-dependence in rank mapping, tag assignment, or batching
/// would surface here as a bitwise diff.
#[test]
fn high_rank_counts_and_hierarchical_decompositions_stay_bitwise() {
    let global = [16, 16, 1];
    let p = mini();
    let ks = generate_kernels(&p, &GenOptions::default());
    let (ref_phi, ref_mu) = global_bits_on(global, &p, &ks, &cfg_on(global, 1, false), STEPS);
    for ranks in [16usize, 64] {
        for ranks_per_node in [None, Some(ranks / 4)] {
            for overlap in [false, true] {
                let mut c = cfg_on(global, ranks, overlap);
                c.ranks_per_node = ranks_per_node;
                let (phi, mu) = global_bits_on(global, &p, &ks, &c, STEPS);
                let leg =
                    format!("ranks {ranks}, ranks_per_node {ranks_per_node:?}, overlap {overlap}");
                assert_eq!(
                    phi, ref_phi,
                    "phi differs from the 1-rank blocking reference ({leg})"
                );
                assert_eq!(
                    mu, ref_mu,
                    "mu differs from the 1-rank blocking reference ({leg})"
                );
            }
        }
    }
}

/// Checkpoint under the vectorized interpreter, tear the world down,
/// resume a fresh world under the **native codegen engine**: still bitwise
/// the same trajectory as an uninterrupted serial run. Like the halo schedule,
/// the execution engine is not part of the persistent state — all engines
/// are bitwise identical, so a restart may switch engines freely.
#[test]
fn restart_may_switch_execution_engines_and_stay_on_the_bitwise_trajectory() {
    use pf_backend::ExecMode;
    if !pf_backend::native_available() {
        eprintln!(
            "SKIPPED restart_may_switch_execution_engines_and_stay_on_the_bitwise_trajectory: \
             rustc cannot produce loadable cdylibs in this sandbox"
        );
        return;
    }
    // Keep native artifacts out of any shared cache dir (flake guard for
    // parallel test processes).
    let cache = Scratch::new("natcache");
    std::env::set_var("PF_NATIVE_CACHE_DIR", &cache.0);

    let p = mini();
    let ks = generate_kernels(&p, &GenOptions::default());
    let (n, m) = (2usize, 2usize);
    let mut reference = cfg(2, false);
    reference.exec_mode = Some(ExecMode::Serial);
    let (want_phi, want_mu) = global_bits(&p, &ks, &reference, n + m);

    let scratch = Scratch::new("engine-leg");
    // First leg: vectorized interpreter, final checkpoint after n steps.
    let mut first = cfg(2, false);
    first.exec_mode = Some(ExecMode::Vectorized);
    first.checkpoint = Some(CheckpointConfig::new(&scratch.0));
    let _ = global_bits(&p, &ks, &first, n);
    // Second leg: a fresh world resumes from the set and finishes the
    // remaining m steps through compiled native kernels.
    let mut second = cfg(2, false);
    second.exec_mode = Some(ExecMode::Native);
    second.checkpoint = Some(CheckpointConfig::new(&scratch.0).resume(true));
    let (phi, mu) = global_bits(&p, &ks, &second, n + m);
    std::env::remove_var("PF_NATIVE_CACHE_DIR");
    assert_eq!(
        phi, want_phi,
        "phi diverged after the engine-switch restart"
    );
    assert_eq!(mu, want_mu, "mu diverged after the engine-switch restart");
}

/// Checkpoint mid-run under the blocking schedule, tear the world down,
/// resume a fresh world under the *overlapped* schedule: still bitwise the
/// same trajectory as the uninterrupted overlapped run. The schedule is
/// not part of the persistent state, so a restart may switch it freely.
#[test]
fn restart_may_switch_schedules_and_stay_on_the_bitwise_trajectory() {
    let p = mini();
    let ks = generate_kernels(&p, &GenOptions::default());
    let (n, m) = (2usize, 2usize);
    let (want_phi, want_mu) = global_bits(&p, &ks, &cfg(4, true), n + m);

    let scratch = Scratch::new("leg");
    // First leg: blocking halos, final checkpoint after n steps.
    let mut first = cfg(4, false);
    first.checkpoint = Some(CheckpointConfig::new(&scratch.0));
    let _ = global_bits(&p, &ks, &first, n);
    // Second leg: a fresh world resumes from the set and finishes the
    // remaining m steps with communication/computation overlap.
    let mut second = cfg(4, true);
    second.checkpoint = Some(CheckpointConfig::new(&scratch.0).resume(true));
    let (phi, mu) = global_bits(&p, &ks, &second, n + m);
    assert_eq!(phi, want_phi, "phi diverged after the restart");
    assert_eq!(mu, want_mu, "mu diverged after the restart");
}
