//! `pf-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper's evaluation section (see
//! DESIGN.md §5 for the index and EXPERIMENTS.md for paper-vs-measured):
//!
//! | binary       | reproduces |
//! |--------------|------------|
//! | `table1`     | Table 1 — per-cell operation counts of all kernel variants |
//! | `fig2_left`  | Fig. 2 left — ECM vs measurement, µ-split/µ-full scaling |
//! | `fig2_middle`| Fig. 2 middle — φ variants under P1 and P2 |
//! | `fig2_right` | Fig. 2 right — GPU register transformations |
//! | `table2`     | Table 2 — communication options on 128 GPUs |
//! | `fig3`       | Fig. 3 — weak/strong scaling on both machines |
//! | `gpu_approx` | §6.2 — approximate div/sqrt speedup on the µ kernels |
//! | `ablation`   | DESIGN.md §6 — pipeline-pass ablations |
//!
//! This library holds the shared plumbing: canonical kernel builds, the
//! measured-executor timing loop, and text rendering of series/tables.

use pf_backend::{run_kernel, ExecMode, FieldStore, RunCtx};
use pf_core::{generate_kernels, KernelSet, ModelParams};
use pf_fields::{FieldArray, Layout};
use pf_ir::{insert_fences, rematerialize, schedule_min_live, GenOptions, Tape};
use pf_machine::skylake_8174;
use pf_perfmodel::ecm_multi;
use pf_trace::Json;
use std::path::PathBuf;
use std::time::Instant;

pub mod benchjson;
pub use benchjson::{validate, BenchReport, KernelPerf, SCHEMA};

/// The full GPU register-pressure transformation chain the CUDA backend
/// applies before launching a kernel (§3.5): rematerialize cheap values,
/// reschedule for minimal liveness, fence against compiler re-hoisting.
/// GPU-side experiments model kernels in this form.
pub fn gpu_optimized(tape: &Tape) -> Tape {
    insert_fences(&schedule_min_live(&rematerialize(tape, 2), 20), 48)
}

/// Build the canonical kernel set for a parameterization (defaults).
///
/// The bench harness always runs the full pf-analyze verification suite
/// over the set — schema `pf-bench/3` makes `extra.analysis` mandatory, so
/// every artifact proves the benched kernels were statically verified —
/// even when the `PF_VERIFY` env gate that guards ordinary generation is
/// off. (When the gate is on, `generate_kernels` already verified and
/// recorded; don't double-count.)
pub fn kernels_for(p: &ModelParams) -> KernelSet {
    let ks = generate_kernels(p, &GenOptions::default());
    if !pf_ir::verify_enabled() {
        let suite = pf_core::verify_kernel_set(p, &ks);
        if let Some(errs) = suite.errors_rendered() {
            panic!(
                "kernel set for model '{}' failed verification:\n{errs}",
                p.name
            );
        }
        suite.record_trace();
    }
    ks
}

/// Name of an execution mode as it appears in bench artifacts
/// (`KernelPerf::mode`).
pub use pf_core::mode_name;

/// Execution engines `standard_kernel_perf` measures. Default: serial,
/// strip-mined vectorized, and — when the sandbox can compile and load
/// cdylibs — the native codegen backend, so every artifact carries the
/// measured/predicted ratio for generated machine code next to the
/// interpreters. `PF_BENCH_EXEC` narrows to a single engine (`serial` |
/// `vectorized` | `native`) — scripts/ci.sh uses `vectorized`
/// for the dedicated smoke rerun.
pub fn bench_exec_modes() -> Vec<ExecMode> {
    match std::env::var("PF_BENCH_EXEC").as_deref() {
        Ok("serial") => vec![ExecMode::Serial],
        Ok("vectorized") => vec![ExecMode::Vectorized],
        Ok("native") => vec![ExecMode::Native],
        Ok(other) => {
            panic!("PF_BENCH_EXEC must be serial|vectorized|native, got '{other}'")
        }
        Err(_) => {
            let mut modes = vec![ExecMode::Serial, ExecMode::Vectorized];
            if pf_backend::native_available() {
                modes.push(ExecMode::Native);
            } else {
                eprintln!(
                    "pf-bench: WARNING: rustc cannot produce cdylibs in this sandbox — \
                     skipping the native execution engine (no native kernel records)"
                );
            }
            modes
        }
    }
}

/// Allocate and initialize a realistic simulation state on one block:
/// solid fingers growing into liquid, smooth µ field. Ghosts are filled
/// periodically so every kernel variant can run stand-alone.
pub fn workload_store(p: &ModelParams, ks: &KernelSet, shape: [usize; 3]) -> FieldStore {
    let mut store = FieldStore::new();
    let f = ks.fields;
    for field in [f.phi_src, f.phi_dst, f.mu_src, f.mu_dst] {
        store.allocate(field, shape, 1, Layout::Fzyx);
    }
    let stag_shape = [
        shape[0] + 1,
        shape[1] + 1,
        if p.dim == 3 { shape[2] + 1 } else { shape[2] },
    ];
    for sf in [ks.phi_split.stag_field, ks.mu_split.stag_field] {
        store.insert(
            sf,
            FieldArray::new(&sf.name(), stag_shape, sf.components(), 0, Layout::Fzyx),
        );
    }
    let n = p.phases;
    for alpha in 0..n {
        let arr = store.get_mut(f.phi_src);
        arr.fill_with(alpha, |x, y, z| {
            // Lamellar fingers along x, front along z.
            let lane = (x / 6) % (n - 1) + 1;
            let front = 0.5 * (1.0 - ((z as f64 - shape[2] as f64 * 0.4) / 3.0).tanh());
            let solid = if lane == alpha { front } else { 0.0 };
            let liquid = 1.0 - front;
            let v = if alpha == p.liquid_phase {
                liquid
            } else {
                solid
            };
            // Mild transverse modulation keeps gradients non-trivial.
            v * (1.0 - 1e-3 * ((x + 2 * y) % 7) as f64)
        });
    }
    // Normalize φ to the simplex.
    {
        let arr = store.get_mut(f.phi_src);
        for z in 0..shape[2] as isize {
            for y in 0..shape[1] as isize {
                for x in 0..shape[0] as isize {
                    let mut s = 0.0;
                    for a in 0..n {
                        s += arr.get(a, x, y, z).max(0.0);
                    }
                    if s <= 1e-12 {
                        for a in 0..n {
                            arr.set(a, x, y, z, if a == p.liquid_phase { 1.0 } else { 0.0 });
                        }
                    } else {
                        for a in 0..n {
                            let v = arr.get(a, x, y, z).max(0.0) / s;
                            arr.set(a, x, y, z, v);
                        }
                    }
                }
            }
        }
    }
    for i in 0..p.num_mu() {
        store
            .get_mut(f.mu_src)
            .fill_with(i, |x, y, z| 0.05 * ((x + y + z) % 11) as f64 / 11.0);
    }
    // φ_dst slightly evolved (the µ kernel reads it).
    let phi_src = store.get(f.phi_src).clone();
    let dst = store.get_mut(f.phi_dst);
    for a in 0..n {
        for z in 0..shape[2] as isize {
            for y in 0..shape[1] as isize {
                for x in 0..shape[0] as isize {
                    dst.set(a, x, y, z, phi_src.get(a, x, y, z));
                }
            }
        }
    }
    for field in [f.phi_src, f.phi_dst, f.mu_src] {
        for d in 0..3 {
            store.get_mut(field).apply_periodic(d);
        }
    }
    store
}

/// CI bench-smoke mode: tiny grids, few sweeps — seconds, not minutes.
/// Enabled with `PF_BENCH_SMOKE=1` (scripts/ci.sh does this).
pub fn smoke() -> bool {
    matches!(
        std::env::var("PF_BENCH_SMOKE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// Where `BENCH_<name>.json` artifacts are written (`PF_BENCH_OUT_DIR`,
/// default: current directory).
pub fn bench_out_dir() -> PathBuf {
    std::env::var_os("PF_BENCH_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Measured-vs-predicted records for the four canonical kernel variants of
/// a parameterization: executor throughput on this host next to the ECM
/// model on the paper's Skylake socket, with the decomposition attached.
/// One record per variant per engine in [`bench_exec_modes`]; non-serial
/// engines are measured inside a 1-thread pool so every record stays
/// comparable to the single-core ECM prediction (the vectorized series
/// then isolates strip-mining speedup from thread scaling).
pub fn standard_kernel_perf(p: &ModelParams, ks: &KernelSet) -> Vec<KernelPerf> {
    let sock = skylake_8174();
    let block = [24usize, 24, 8];
    let (shape, sweeps, reps) = if smoke() {
        ([8usize, 8, 8], 2, 9)
    } else {
        ([12usize, 12, 12], 2, 5)
    };
    let mu_split: Vec<&Tape> = ks
        .mu_split
        .flux_tapes
        .iter()
        .chain([&ks.mu_split.update])
        .collect();
    let phi_split: Vec<&Tape> = ks
        .phi_split
        .flux_tapes
        .iter()
        .chain([&ks.phi_split.update])
        .collect();
    let variants: Vec<(&str, &str, Vec<&Tape>)> = vec![
        ("mu", "full", vec![&ks.mu_full]),
        ("mu", "split", mu_split),
        ("phi", "full", vec![&ks.phi_full]),
        ("phi", "split", phi_split),
    ];
    let modes = bench_exec_modes();
    let mut out = Vec::new();
    for (kernel, variant, tapes) in variants {
        let pred = ecm_multi(&tapes, &sock, block);
        for &mode in &modes {
            // Best-of-N: timing noise (scheduler preemption, shared hosts)
            // only ever slows a run down, so the fastest repetition is the
            // most faithful estimate — and the one stable enough to gate on.
            let one = || {
                (0..reps)
                    .map(|_| measure_mlups(p, ks, &tapes, shape, sweeps, mode))
                    .fold(f64::MIN, f64::max)
            };
            let measured = if matches!(mode, ExecMode::Serial) {
                one()
            } else {
                with_threads(1, one)
            };
            out.push(KernelPerf {
                params: p.name.clone(),
                kernel: kernel.into(),
                variant: variant.into(),
                mode: mode_name(mode).into(),
                measured_mlups: measured,
                predicted_mlups: pred.single_core_mlups(sock.freq_ghz),
                ecm: [
                    ("t_comp".to_string(), pred.t_comp),
                    ("t_nol".to_string(), pred.t_nol),
                    ("t_l1l2".to_string(), pred.t_l1l2),
                    ("t_l2l3".to_string(), pred.t_l2l3),
                    ("t_l3mem".to_string(), pred.t_l3mem),
                    (
                        "saturation_cores".to_string(),
                        pred.saturation_cores().min(1 << 20) as f64,
                    ),
                ]
                .into_iter()
                .collect(),
            });
        }
    }
    out
}

/// Assemble, validate, and write `BENCH_<name>.json`; prints the per-kernel
/// measured/predicted ratios and the artifact path. Every fig/table binary
/// calls this at the end of `main`.
pub fn emit_bench(
    name: &str,
    kernels: Vec<KernelPerf>,
    extra: Vec<(String, Json)>,
) -> std::io::Result<PathBuf> {
    let metrics = pf_trace::snapshot();
    let mut extra: std::collections::BTreeMap<String, Json> = extra.into_iter().collect();
    // Surface the static-analysis statistics (kernels verified, diagnostic
    // counts, per-field halo widths) as a first-class `extra.analysis`
    // object so artifact diffs see verification coverage directly instead
    // of digging through the raw metric snapshot.
    if !extra.contains_key("analysis") {
        let mut analysis: Vec<(String, Json)> = Vec::new();
        for (k, c) in &metrics.counters {
            if let Some(short) = k.strip_prefix("analyze.") {
                analysis.push((short.to_string(), Json::Num(c.total as f64)));
            }
        }
        for (k, g) in &metrics.gauges {
            if let Some(short) = k.strip_prefix("analyze.") {
                analysis.push((short.to_string(), Json::Num(g.value)));
            }
        }
        if !analysis.is_empty() {
            extra.insert("analysis".into(), Json::obj(analysis));
        }
    }
    let report = BenchReport {
        name: name.into(),
        smoke: smoke(),
        machine_model: "skylake_8174".into(),
        threads_avail: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        kernels,
        extra,
        metrics,
    };
    let json = report.to_json();
    let violations = benchjson::validate(&json);
    assert!(
        violations.is_empty(),
        "emit_bench produced a schema-invalid report (bug): {violations:?}"
    );
    let dir = bench_out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json.to_pretty())?;
    println!("\nmeasured vs ECM-predicted (single core; executor is an interpreter,");
    println!("so ratios sit far below 1 — watch their stability, not their size):");
    for k in &report.kernels {
        println!(
            "  {:18} measured {:>10.4} MLUP/s   predicted {:>9.1} MLUP/s   ratio {:.3e}",
            k.key(),
            k.measured_mlups,
            k.predicted_mlups,
            k.ratio()
        );
    }
    println!("bench artifact: {}", path.display());
    Ok(path)
}

/// Autotune one parameterization on the bench workload and return the
/// per-family reports: full vs split, both under the default engine.
/// Smoke mode shrinks the grid and the repetition budget the same way
/// `standard_kernel_perf` does. The cache lives at `PF_TUNE_CACHE_DIR`.
/// Tuning always measures, but a warm cache with a near-best entry keeps
/// its winner so artifacts stay stable across reruns.
pub fn tune_reports(p: &ModelParams, ks: &KernelSet) -> Vec<pf_core::FamilyTuneReport> {
    let sock = skylake_8174();
    let shape = if smoke() { [8, 8, 8] } else { [12, 12, 12] };
    let opts = if smoke() {
        pf_core::TuneOptions { reps: 2, sweeps: 1 }
    } else {
        pf_core::TuneOptions::default()
    };
    let cache = pf_core::TuneCache::from_env();
    pf_core::tune_kernel_set(p, ks, &sock, shape, cache.as_ref(), &opts)
}

/// Render per-parameterization tuning reports as the `extra.tuning`
/// object of schema `pf-bench/5` (see `benchjson::TUNING_KERNEL_*`).
pub fn tuning_extra(per_params: &[(String, Vec<pf_core::FamilyTuneReport>)]) -> Json {
    let kernels: Vec<Json> = per_params
        .iter()
        .flat_map(|(name, reports)| {
            reports.iter().map(move |r| {
                Json::obj([
                    ("params".to_string(), Json::str(name.clone())),
                    ("kernel".to_string(), Json::str(r.family.name())),
                    (
                        "chosen_variant".to_string(),
                        Json::str(pf_core::variant_name(r.entry.variant)),
                    ),
                    (
                        "chosen_mode".to_string(),
                        Json::str(mode_name(r.entry.mode)),
                    ),
                    (
                        "static_variant".to_string(),
                        Json::str(pf_core::variant_name(r.static_variant)),
                    ),
                    // The engine is held fixed: both variants ran under it.
                    (
                        "static_mode".to_string(),
                        Json::str(mode_name(r.entry.mode)),
                    ),
                    ("candidates".to_string(), Json::Num(r.candidates as f64)),
                    ("measured".to_string(), Json::Num(r.measured as f64)),
                    ("best_mlups".to_string(), Json::Num(r.best_mlups)),
                    ("chosen_mlups".to_string(), Json::Num(r.chosen_mlups)),
                    ("static_mlups".to_string(), Json::Num(r.static_mlups)),
                    ("regret_chosen".to_string(), Json::Num(r.regret_chosen)),
                    ("regret_static".to_string(), Json::Num(r.regret_static)),
                ])
            })
        })
        .collect();
    Json::obj([("kernels".to_string(), Json::Arr(kernels))])
}

/// Measured executor throughput of one kernel variant, MLUP/s.
pub fn measure_mlups(
    p: &ModelParams,
    ks: &KernelSet,
    tapes: &[&Tape],
    shape: [usize; 3],
    sweeps: usize,
    mode: ExecMode,
) -> f64 {
    let mut store = workload_store(p, ks, shape);
    let ctx = RunCtx {
        dx: [p.dx; 3],
        ..RunCtx::default()
    };
    // Warmup.
    for t in tapes {
        run_kernel(t, &mut store, &[], shape, &ctx, mode);
    }
    let _span = pf_trace::span_lazy(|| format!("bench.measure.{}", tapes[0].name));
    let t0 = Instant::now();
    for _ in 0..sweeps {
        for t in tapes {
            run_kernel(t, &mut store, &[], shape, &ctx, mode);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let cells = (shape[0] * shape[1] * shape[2]) as f64 * sweeps as f64;
    let mlups = cells / secs / 1e6;
    if pf_trace::enabled() {
        pf_trace::gauge(&format!("bench.mlups.{}", tapes[0].name)).set(mlups);
    }
    mlups
}

/// Measured end-to-end throughput of the distributed step loop on this
/// host (thread-backed ranks), blocking vs overlapped halo schedule.
/// Returns `(blocking, overlapped)` whole-world MLUP/s plus the workload
/// descriptor that goes into `extra.measured_overlap`. The absolute
/// numbers are interpreter-scale (compare against each other, not the
/// model); what the artifact pins is that the overlapped schedule is
/// measured at all, next to the Table 2 prediction, on every run.
pub fn measured_overlap_mlups(
    p: &ModelParams,
    ks: &KernelSet,
    global: [usize; 3],
    ranks: usize,
    steps: usize,
) -> ((f64, f64), Vec<(String, Json)>) {
    let phases = p.phases;
    let liquid = p.liquid_phase;
    let num_mu = p.num_mu();
    let (cx, cy) = (global[0] as f64 / 2.0, global[1] as f64 / 2.0);
    let init_phi = move |x: i64, y: i64, _z: i64| {
        let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - cx * 0.5) / 3.0;
        let s = 0.5 * (1.0 - d.tanh());
        let mut v = vec![0.0; phases];
        v[liquid] = 1.0 - s;
        v[(liquid + 1) % phases] = s;
        v
    };
    let init_mu = move |_: i64, _: i64, _: i64| vec![0.05; num_mu];
    let cells = (global[0] * global[1] * global[2]) as f64;
    let measure = |overlap: bool| {
        let mut cfg = pf_core::dist::DistConfig::new(global, ranks);
        cfg.comm.overlap = overlap;
        // Best-of-2: same rationale as `standard_kernel_perf` — noise only
        // slows a run down.
        (0..2)
            .map(|_| {
                let t0 = Instant::now();
                pf_core::dist::run_distributed(p, ks, &cfg, steps, init_phi, init_mu, |_| ());
                cells * steps as f64 / t0.elapsed().as_secs_f64() / 1e6
            })
            .fold(f64::MIN, f64::max)
    };
    let blocking = measure(false);
    let overlapped = measure(true);
    let extra = vec![
        ("ranks".to_string(), Json::Num(ranks as f64)),
        ("global_cells".to_string(), Json::Num(cells)),
        ("steps".to_string(), Json::Num(steps as f64)),
        ("blocking_mlups".to_string(), Json::Num(blocking)),
        ("overlapped_mlups".to_string(), Json::Num(overlapped)),
        ("speedup".to_string(), Json::Num(overlapped / blocking)),
    ];
    ((blocking, overlapped), extra)
}

/// The measured-overlap workload: small in smoke mode, moderate otherwise.
/// Returns `(global, ranks, steps)`. The z extent dominates so the
/// surface-optimal decomposition splits z and leaves the unit-stride x
/// dimension undivided — the frontier is then whole (x,y) planes that the
/// strip engine sweeps at full SIMD width, the production-shaped case for
/// communication hiding (splitting x instead would shear every frontier
/// row down to the stencil width).
pub fn overlap_workload() -> ([usize; 3], usize, usize) {
    if smoke() {
        ([16, 16, 32], 2, 2)
    } else {
        ([32, 32, 64], 2, 4)
    }
}

/// Run `f` inside a rayon pool of `threads` threads (per-core scaling
/// measurements).
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Render a two-column series as an aligned text block.
pub fn render_series(title: &str, xlabel: &str, ylabel: &str, pts: &[(f64, f64)]) -> String {
    let mut out = format!("# {title}\n# {xlabel:>12} {ylabel:>16}\n");
    for (x, y) in pts {
        out.push_str(&format!("{x:>14.2} {y:>16.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_store_respects_simplex() {
        let p = pf_core::p1();
        let ks = kernels_for(&p);
        let store = workload_store(&p, &ks, [8, 8, 8]);
        let phi = store.get(ks.fields.phi_src);
        for z in 0..8isize {
            for y in 0..8isize {
                for x in 0..8isize {
                    let s: f64 = (0..4).map(|a| phi.get(a, x, y, z)).sum();
                    assert!((s - 1.0).abs() < 1e-12, "simplex violated: {s}");
                }
            }
        }
    }

    #[test]
    fn measured_throughput_is_positive() {
        let p = pf_core::p1();
        let ks = kernels_for(&p);
        let m = measure_mlups(&p, &ks, &[&ks.mu_full], [8, 8, 8], 1, ExecMode::Serial);
        assert!(m > 0.0);
    }
}
