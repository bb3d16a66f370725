//! Model-informed kernel-variant selection (§6.1).
//!
//! "The major challenge in code generation and performance optimizing
//! transformations is identifying and selecting the fastest variant. We use
//! Kerncraft's automated performance modeling capability to provide a
//! performance rating of the candidates." This module does exactly that:
//! rate φ-full vs φ-split and µ-full vs µ-split with the ECM model on a
//! given socket and pick the faster combination — automatically
//! reproducing the paper's observation that the right choice flips between
//! model configurations (P1 vs P2, Fig. 2 middle).

use crate::kernels::KernelSet;
use crate::sim::Variant;
use pf_backend::ExecMode;
use pf_ir::Tape;
use pf_machine::CpuSocket;
use pf_perfmodel::ecm_multi;

/// Outcome of the automatic selection.
#[derive(Clone, Debug)]
pub struct VariantChoice {
    pub phi: Variant,
    pub mu: Variant,
    /// Predicted full-socket MLUP/s for (φ-split, φ-full, µ-split, µ-full).
    pub predicted_mlups: [f64; 4],
}

/// Pick the execution engine for a block shape: generated machine code
/// ([`ExecMode::Native`]) whenever this host's `rustc` can produce loadable
/// cdylibs. Without a toolchain, the strip-mined vectorized engine when the
/// unit-stride extent can fill at least one strip of
/// [`pf_backend::STRIP_WIDTH`] lanes, scalar-serial for thinner blocks
/// (where strips would be all remainder loop). All engines are bitwise
/// identical; pin one through `SimConfig::mode` / `DistConfig::exec_mode`.
pub fn default_exec_mode(shape: [usize; 3]) -> ExecMode {
    if pf_backend::native_available() {
        ExecMode::Native
    } else if shape[0] >= pf_backend::STRIP_WIDTH {
        ExecMode::Vectorized
    } else {
        ExecMode::Serial
    }
}

/// Rate both variants of both kernels at `cores` cores and return the
/// faster combination. `block` is the cache-simulation tile (use something
/// in the regime of the production blocking, e.g. `[24, 24, 8]`).
pub fn select_variants(
    ks: &KernelSet,
    sock: &CpuSocket,
    cores: usize,
    block: [usize; 3],
) -> VariantChoice {
    let rate = |tapes: &[&Tape]| ecm_multi(tapes, sock, block).mlups(sock.freq_ghz, cores);
    let phi_split_tapes: Vec<&Tape> = ks
        .phi_split
        .flux_tapes
        .iter()
        .chain([&ks.phi_split.update])
        .collect();
    let mu_split_tapes: Vec<&Tape> = ks
        .mu_split
        .flux_tapes
        .iter()
        .chain([&ks.mu_split.update])
        .collect();
    let phi_split = rate(&phi_split_tapes);
    let phi_full = rate(&[&ks.phi_full]);
    let mu_split = rate(&mu_split_tapes);
    let mu_full = rate(&[&ks.mu_full]);
    VariantChoice {
        phi: if phi_split >= phi_full {
            Variant::Split
        } else {
            Variant::Full
        },
        mu: if mu_split >= mu_full {
            Variant::Split
        } else {
            Variant::Full
        },
        predicted_mlups: [phi_split, phi_full, mu_split, mu_full],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;
    use pf_machine::skylake_8174;

    #[test]
    #[ignore = "full P1/P2 generation + cache simulation; run with --ignored"]
    fn selection_flips_between_p1_and_p2_for_phi() {
        let sock = skylake_8174();
        let ks1 = generate_kernels(&crate::params::p1(), &GenOptions::default());
        let ks2 = generate_kernels(&crate::params::p2(), &GenOptions::default());
        let c1 = select_variants(&ks1, &sock, sock.cores, [24, 24, 8]);
        let c2 = select_variants(&ks2, &sock, sock.cores, [24, 24, 8]);
        // Fig. 2 middle: P1 → φ-full, P2 → φ-split.
        assert_eq!(c1.phi, Variant::Full, "{:?}", c1.predicted_mlups);
        assert_eq!(c2.phi, Variant::Split, "{:?}", c2.predicted_mlups);
    }

    #[test]
    fn native_is_the_default_whenever_it_is_available() {
        let (wide, thin) = if pf_backend::native_available() {
            (ExecMode::Native, ExecMode::Native)
        } else {
            (ExecMode::Vectorized, ExecMode::Serial)
        };
        assert_eq!(default_exec_mode([64, 8, 8]), wide);
        assert_eq!(default_exec_mode([4, 8, 8]), thin);
    }

    #[test]
    fn selection_runs_on_a_small_model() {
        let sock = skylake_8174();
        let ks = generate_kernels(&crate::kernels::tests::mini_model(), &GenOptions::default());
        let c = select_variants(&ks, &sock, sock.cores, [16, 16, 4]);
        assert!(c.predicted_mlups.iter().all(|m| *m > 0.0));
    }
}
