//! The execution-cache-memory (ECM) performance model (§3.6, Fig. 2).
//!
//! Following Stengel et al. and its Kerncraft implementation: the time to
//! update one cache line of results (8 lattice sites with AVX-512) is
//!
//! ```text
//! T_ECM = max(T_comp, T_nOL + T_L1L2 + T_L2L3 + T_L3Mem)
//! ```
//!
//! where `T_comp` is the in-core arithmetic throughput bound, `T_nOL` the
//! L1 load/store cycles, and the transfer terms come from the measured or
//! simulated inter-level data volumes. Multi-core scaling is linear until
//! the memory bandwidth roof; the saturation point is
//! `ceil(T_ECM / T_L3Mem)` cores.

use crate::cachesim::DataVolumes;
use crate::opcount::{census, CountScope, OpCensus};
use pf_ir::Tape;
use pf_machine::CpuSocket;

/// ECM decomposition for one kernel on one socket, in cycles per cache line
/// of results (= `simd_f64` cells).
#[derive(Clone, Copy, Debug)]
pub struct EcmPrediction {
    pub t_comp: f64,
    pub t_nol: f64,
    pub t_l1l2: f64,
    pub t_l2l3: f64,
    pub t_l3mem: f64,
    /// Cells per cache line of results.
    pub cells_per_cl: usize,
}

impl EcmPrediction {
    /// Single-core cycles per cache line.
    pub fn t_single(&self) -> f64 {
        self.t_comp
            .max(self.t_nol + self.t_l1l2 + self.t_l2l3 + self.t_l3mem)
    }

    /// Single-core performance in MLUP/s at `freq_ghz`.
    pub fn single_core_mlups(&self, freq_ghz: f64) -> f64 {
        self.cells_per_cl as f64 * freq_ghz * 1e3 / self.t_single()
    }

    /// Number of cores at which the memory bandwidth saturates.
    pub fn saturation_cores(&self) -> usize {
        if self.t_l3mem <= 0.0 {
            return usize::MAX;
        }
        (self.t_single() / self.t_l3mem).ceil() as usize
    }

    /// Predicted aggregate performance with `n` cores sharing the memory
    /// interface (MLUP/s).
    pub fn mlups(&self, freq_ghz: f64, n: usize) -> f64 {
        let single = self.single_core_mlups(freq_ghz);
        let roof = if self.t_l3mem > 0.0 {
            self.cells_per_cl as f64 * freq_ghz * 1e3 / self.t_l3mem
        } else {
            f64::INFINITY
        };
        (n as f64 * single).min(roof)
    }

    /// Per-core performance curve for Fig. 2 (MLUP/s per core for 1..=n).
    pub fn per_core_curve(&self, freq_ghz: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|c| self.mlups(freq_ghz, c) / c as f64)
            .collect()
    }

    /// Is the kernel memory-bound on a full socket?
    pub fn memory_bound_at(&self, cores: usize) -> bool {
        self.saturation_cores() <= cores
    }
}

/// Compute-throughput bound in cycles per cache line: per-cell op counts
/// (innermost level only — LICM'd work is amortized) mapped onto the
/// socket's vector execution resources.
pub fn t_comp(c: &OpCensus, sock: &CpuSocket) -> f64 {
    let vecs = 1.0; // one full-width vector instruction covers the cache line
                    // Two FMA-capable ports: adds and muls stream through both.
    let addmul = (c.adds + c.muls) as f64 * sock.thr.add * vecs;
    let div = c.divs as f64 * sock.thr.div * vecs;
    let sqrt = c.sqrts as f64 * sock.thr.sqrt * vecs;
    let rsqrt = c.rsqrts as f64 * sock.thr.rsqrt * vecs;
    let transc = (c.transcendental + c.rng) as f64 * sock.thr.transcendental * vecs;
    let logic = c.logic as f64 * sock.thr.add * vecs;
    addmul + div + sqrt + rsqrt + transc + logic
}

/// L1 load/store cycles per cache line.
pub fn t_nol(c: &OpCensus, sock: &CpuSocket) -> f64 {
    c.loads as f64 / sock.thr.loads_per_cycle + c.stores as f64 / sock.thr.stores_per_cycle
}

/// Build the full ECM prediction from a kernel tape and simulated (or
/// measured) data volumes.
pub fn ecm_model(tape: &Tape, sock: &CpuSocket, volumes: &DataVolumes) -> EcmPrediction {
    let c = census(tape, CountScope::PerCell);
    let cells_per_cl = sock.simd_f64;
    let (l12, l23, mem) = volumes.per_cell();
    let bytes_per_cl = |per_cell: f64| per_cell * cells_per_cl as f64;
    let mem_bytes_per_cycle = sock.mem_bw_gbs / sock.freq_ghz;
    EcmPrediction {
        t_comp: t_comp(&c, sock),
        t_nol: t_nol(&c, sock),
        t_l1l2: bytes_per_cl(l12) / sock.l2_bytes_per_cycle,
        t_l2l3: bytes_per_cl(l23) / sock.l3_bytes_per_cycle,
        t_l3mem: bytes_per_cl(mem) / mem_bytes_per_cycle,
        cells_per_cl,
    }
}

/// ECM prediction for a multi-pass kernel (e.g. a split variant's face
/// kernels plus update): data volumes are simulated pass-by-pass through a
/// shared-capacity hierarchy and compute terms summed.
pub fn ecm_multi(tapes: &[&Tape], sock: &CpuSocket, block: [usize; 3]) -> EcmPrediction {
    assert!(!tapes.is_empty());
    let mut vols = crate::cachesim::DataVolumes::default();
    for t in tapes {
        let v = crate::cachesim::simulate_sweep(t, sock, block);
        vols.l1_l2_bytes += v.l1_l2_bytes;
        vols.l2_l3_bytes += v.l2_l3_bytes;
        vols.l3_mem_bytes += v.l3_mem_bytes;
        vols.cells = v.cells;
    }
    let mut pred = ecm_model(tapes[0], sock, &vols);
    for t in &tapes[1..] {
        let c = census(t, CountScope::PerCell);
        pred.t_comp += t_comp(&c, sock);
        pred.t_nol += t_nol(&c, sock);
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_heavy() -> EcmPrediction {
        EcmPrediction {
            t_comp: 400.0,
            t_nol: 30.0,
            t_l1l2: 20.0,
            t_l2l3: 20.0,
            t_l3mem: 10.0,
            cells_per_cl: 8,
        }
    }

    fn memory_heavy() -> EcmPrediction {
        EcmPrediction {
            t_comp: 40.0,
            t_nol: 30.0,
            t_l1l2: 30.0,
            t_l2l3: 40.0,
            t_l3mem: 25.0,
            cells_per_cl: 8,
        }
    }

    #[test]
    fn compute_bound_kernel_scales_flat() {
        let p = compute_heavy();
        let curve = p.per_core_curve(2.3, 24);
        let first = curve[0];
        let last = curve[23];
        assert!(
            (first - last).abs() / first < 1e-9,
            "not flat: {first} vs {last}"
        );
        assert!(p.saturation_cores() > 24);
    }

    #[test]
    fn memory_bound_kernel_decays_per_core() {
        let p = memory_heavy();
        assert!(p.saturation_cores() <= 24, "{}", p.saturation_cores());
        let curve = p.per_core_curve(2.3, 24);
        assert!(curve[23] < curve[0] * 0.5, "no decay: {curve:?}");
        // Aggregate performance still rises to the roof then flattens.
        let agg24 = p.mlups(2.3, 24);
        let agg12 = p.mlups(2.3, 12);
        assert!(agg24 >= agg12 * 0.999);
    }

    #[test]
    fn single_core_matches_definition() {
        let p = memory_heavy();
        assert_eq!(p.t_single(), 30.0 + 30.0 + 40.0 + 25.0);
        let mlups = p.single_core_mlups(2.3);
        assert!((mlups - 8.0 * 2.3e3 / 125.0).abs() < 1e-9);
    }

    #[test]
    fn t_comp_uses_port_weights() {
        let sock = pf_machine::skylake_8174();
        let c = OpCensus {
            adds: 10,
            muls: 10,
            divs: 2,
            sqrts: 1,
            rsqrts: 2,
            ..Default::default()
        };
        let t = t_comp(&c, &sock);
        assert_eq!(t, 20.0 * 0.5 + 2.0 * 16.0 + 10.0 + 2.0 * 2.0);
    }
}
