//! The traced run: per-layer metrics timed from outside the program.
//!
//! This module composes kernel generation and the distributed step
//! from the public calls of each layer — `pf-symbolic`, `pf-stencil`,
//! `pf-ir`, `pf-analyze` for set-up; the `pf-grid` batched exchange,
//! `Simulation::run`/`run_split`/`project_simplex` and
//! `pf_core::checkpoint` for the step — and wraps each call in a span.
//! The program's own counters (`comm.*`, `checkpoint.*`) are read with
//! `pf_trace::snapshot()`. A drift guard requires the composed world to
//! end bitwise equal to the untraced `run_distributed` result, so a later
//! change to the program's step cannot be mis-attributed silently.

use crate::e2e::{print_engines, Outcome, Tally};
use crate::spans::{Recorder, SpanRec, Trace};
use crate::stats::{median, percentile, Metrics};
use crate::workload::Workload;
use crate::workload::{
    self, check_rank, engine_for, fingerprint, panic_text, world_call, Inputs, RankCheck,
};
use crate::Work;
use pf_core::checkpoint::{self, IncrementalBase};
use pf_core::dist::{CheckpointConfig, DistConfig};
use pf_core::{KernelSet, ModelParams, SimConfig, Simulation, SplitTapes, Variant};
use pf_fields::FieldArray;
use pf_grid::{run_ranks, Comm, CommOptions, Decomposition};
use pf_ir::{generate, GenOptions, Tape};
use pf_perfmodel::CountScope;
use pf_stencil::{discretize_full, split_fluxes, Discretization, SplitResult, StencilKernel};
use pf_symbolic::Field;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Cache-simulation tile of the modelled socket (the one variant
/// selection uses).
const ECM_TILE: [usize; 3] = [24, 24, 8];
/// Timed launches per kernel in the isolated kernel sweep.
const SWEEP_LAUNCHES: usize = 3;
/// World calls per phase, at least.
const MIN_CALLS: usize = 2;

const TAPES: [&str; 4] = ["phi_full", "mu_full", "phi_split", "mu_split"];

/// The tapes of each kernel variant; a split variant is its flux passes
/// plus its update pass.
fn tape_groups(ks: &KernelSet) -> [Vec<&Tape>; 4] {
    fn split(s: &SplitTapes) -> Vec<&Tape> {
        s.flux_tapes
            .iter()
            .chain(std::iter::once(&s.update))
            .collect()
    }
    [
        vec![&ks.phi_full],
        vec![&ks.mu_full],
        split(&ks.phi_split),
        split(&ks.mu_split),
    ]
}

// ---------------------------------------------------------------------------
// Set-up layers
// ---------------------------------------------------------------------------

/// Kernel generation composed layer by layer, as `generate_kernels` does.
struct Codegen {
    ks: KernelSet,
    build_model_s: f64,
    discretize_s: f64,
    generate_s: f64,
    verify_s: f64,
    errors: usize,
}

fn split_tapes(name: &str, r: SplitResult, opts: &GenOptions) -> SplitTapes {
    let flux_tapes = r.flux_kernels.iter().map(|k| generate(k, opts)).collect();
    let mut uk = StencilKernel::new(&format!("{name}_update"), r.updates);
    uk.iter_extent = [0, 0, 0];
    SplitTapes {
        flux_tapes,
        update: generate(&uk, opts),
        stag_field: r.stag_field,
        slots: r.slots.len().max(1),
    }
}

fn compose_codegen(p: &ModelParams) -> Codegen {
    pf_analyze::install_pipeline_verifier();
    let opts = GenOptions::default();

    let t = Instant::now();
    let m = pf_core::build_model(p);
    let build_model_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let disc = Discretization::new(p.dim, [p.dx; 3]);
    let phi_full = discretize_full(&disc, &m.phi_updates);
    let mu_full = discretize_full(&disc, &m.mu_updates);
    let phi_split = split_fluxes(&disc, "phi_stag", &m.phi_updates);
    let mu_split = split_fluxes(&disc, "mu_stag", &m.mu_updates);
    let discretize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut ks = KernelSet {
        fields: m.fields,
        phi_full: generate(&StencilKernel::new("phi_full", phi_full), &opts),
        mu_full: generate(&StencilKernel::new("mu_full", mu_full), &opts),
        phi_split: split_tapes("phi", phi_split, &opts),
        mu_split: split_tapes("mu", mu_split, &opts),
    };
    let generate_s = t.elapsed().as_secs_f64();

    // The range contracts `generate_kernels` stamps for pf-analyze.
    let fields = ks.fields;
    let stamp = |t: &mut Tape| {
        t.field_ranges = t
            .fields
            .iter()
            .map(|f| pf_core::field_contract(&fields, f))
            .collect();
    };
    stamp(&mut ks.phi_full);
    stamp(&mut ks.mu_full);
    for s in [&mut ks.phi_split, &mut ks.mu_split] {
        s.flux_tapes.iter_mut().for_each(stamp);
        stamp(&mut s.update);
    }

    let t = Instant::now();
    let errors = pf_core::verify_kernel_set(p, &ks).error_count();
    let verify_s = t.elapsed().as_secs_f64();
    Codegen {
        ks,
        build_model_s,
        discretize_s,
        generate_s,
        verify_s,
        errors,
    }
}

/// Counts that must repeat bit for bit: instructions, normalized flops
/// and computed memory bytes per cell, per kernel variant.
fn exact_counts(ks: &KernelSet) -> Vec<(String, f64, &'static str)> {
    let sock = pf_machine::skylake_8174();
    let mut out = Vec::new();
    for (name, tapes) in TAPES.iter().zip(tape_groups(ks)) {
        let instrs: usize = tapes.iter().map(|t| t.instrs.len()).sum();
        let flops: usize = tapes
            .iter()
            .map(|t| pf_perfmodel::census(t, CountScope::PerCell).normalized_flops())
            .sum();
        let bytes: f64 = tapes
            .iter()
            .map(|t| {
                pf_perfmodel::simulate_sweep(t, &sock, ECM_TILE)
                    .per_cell()
                    .2
            })
            .sum();
        out.push((format!("ir.instrs.{name}"), instrs as f64, "count"));
        out.push((
            format!("perfmodel.flops_per_cell.{name}"),
            flops as f64,
            "flop",
        ));
        out.push((format!("perfmodel.bytes_per_cell.{name}"), bytes, "B"));
    }
    out
}

// ---------------------------------------------------------------------------
// The composed world
// ---------------------------------------------------------------------------

/// What `run_distributed` does for one rank before stepping.
fn init_rank(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    dec: &Decomposition,
    rank: usize,
    inputs: &Inputs,
) -> Simulation {
    let block = dec.block(rank);
    let mut sc = SimConfig::new(block.shape);
    sc.phi_variant = cfg.phi_variant;
    sc.mu_variant = cfg.mu_variant;
    sc.bc = cfg.bc;
    sc.seed = cfg.seed;
    sc.mode = engine_for(ks, block.shape);
    let mut sim = Simulation::new(p.clone(), ks.clone(), sc);
    sim.origin = block.origin;
    let o = block.origin;
    sim.init_phi(|x, y, z| inputs.phi(x as i64 + o[0], y as i64 + o[1], z as i64 + o[2]));
    sim.init_mu(|x, y, z| inputs.mu(x as i64 + o[0], y as i64 + o[1], z as i64 + o[2]));
    sim
}

/// Batched halo exchange of several fields at one schedule point.
fn exchange(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    fields: &[Field],
    epoch: u64,
    opts: CommOptions,
) {
    let mut arrs: Vec<FieldArray> = fields.iter().map(|f| sim.store.take(*f)).collect();
    {
        let mut refs: Vec<&mut FieldArray> = arrs.iter_mut().collect();
        pf_grid::exchange_halo_batched(comm, dec, &mut refs, epoch, opts);
    }
    for (f, a) in fields.iter().zip(arrs) {
        sim.store.insert(*f, a);
    }
}

fn run_variant(sim: &mut Simulation, ks: &KernelSet, variant: Variant, phi: bool) {
    match (variant, phi) {
        (Variant::Full, true) => sim.run(&ks.phi_full),
        (Variant::Full, false) => sim.run(&ks.mu_full),
        (Variant::Split, true) => sim.run_split(&ks.phi_split),
        (Variant::Split, false) => sim.run_split(&ks.mu_split),
    }
}

/// Per-rank checkpoint writer state, as `run_distributed` keeps it.
#[derive(Default)]
struct CkptState {
    base: Option<IncrementalBase>,
    incs_since_full: u64,
}

impl CkptState {
    /// Write this step's checkpoint if one is due, inside a `ckpt.write`
    /// span.
    fn after_step(
        &mut self,
        sim: &Simulation,
        ck: &CheckpointConfig,
        meta: &checkpoint::RankMeta,
        steps: usize,
        rec: &Recorder,
    ) {
        let done = sim.step_count == steps as u64;
        let periodic = ck.every > 0 && sim.step_count.is_multiple_of(ck.every);
        if !(periodic || (done && ck.final_checkpoint)) {
            return;
        }
        let _g = rec.span("ckpt.write");
        let path = checkpoint::rank_file(&ck.dir, sim.step_count, meta.rank as usize);
        let incremental = ck.incremental && self.incs_since_full < ck.full_every.max(1);
        match (&self.base, incremental) {
            (Some(base), true) => {
                checkpoint::save_incremental(sim, meta, base, &path)
                    .unwrap_or_else(|e| panic!("checkpoint to {}: {e}", path.display()));
                self.incs_since_full += 1;
            }
            _ => {
                checkpoint::save(sim, meta, &path)
                    .unwrap_or_else(|e| panic!("checkpoint to {}: {e}", path.display()));
                self.incs_since_full = 0;
            }
        }
        self.base = Some(IncrementalBase::capture(sim));
    }
}

struct WorldRun {
    secs: f64,
    fp: u64,
    spans: Vec<Vec<SpanRec>>,
    /// Longest restored chain over the ranks (restart calls only).
    chain_len: usize,
    counters: pf_trace::Report,
}

/// What one rank of a composed world hands back.
struct RankResult {
    check: RankCheck,
    spans: Vec<SpanRec>,
    /// Sets in the restored chain (0 when the rank did not restore).
    chain: usize,
}

/// Run `body` on every rank of a fresh world, collecting each rank's final
/// fields and spans, and check the result.
fn world<F>(cfg: &DistConfig, call: usize, origin: Instant, body: F) -> Result<WorldRun, String>
where
    F: Fn(&mut Comm, &Recorder, &Decomposition) -> (Simulation, usize) + Sync,
{
    let dec = cfg.decomposition();
    let results: Mutex<Vec<RankResult>> = Mutex::new(Vec::new());
    pf_trace::reset();
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_ranks(cfg.ranks, |mut comm| {
            let rank = comm.rank();
            pf_trace::with_rank(rank, || {
                let rec = Recorder::new(origin, rank, call);
                let (sim, chain) = body(&mut comm, &rec, &dec);
                let check = check_rank(&sim, cfg.global);
                drop(sim);
                let spans = rec.into_spans();
                results
                    .lock()
                    .expect("no rank panicked holding the results")
                    .push(RankResult {
                        check,
                        spans,
                        chain,
                    });
            })
        })
    }));
    let secs = t0.elapsed().as_secs_f64();
    run.map_err(|e| format!("composed world panicked: {}", panic_text(&e)))?;
    crate::host::release_free_memory();
    let counters = pf_trace::snapshot();
    let mut checks = Vec::new();
    let mut spans = Vec::new();
    let mut chain_len = 0;
    for r in results.into_inner().expect("results lock") {
        checks.push(r.check);
        spans.push(r.spans);
        chain_len = chain_len.max(r.chain);
    }
    Ok(WorldRun {
        secs,
        fp: fingerprint(&checks, cfg.global)?,
        spans,
        chain_len,
        counters,
    })
}

/// `steps` steps of the blocking batched schedule of `dist_step`, with
/// checkpoints as `run_distributed` writes them.
fn composed_call(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    inputs: &Inputs,
    call: usize,
    origin: Instant,
) -> Result<WorldRun, String> {
    assert!(
        cfg.comm == CommOptions::default()
            && cfg.bc.iter().all(|b| *b == pf_core::BcKind::Periodic)
            && cfg.exec_mode.is_none()
            && cfg.faults.is_none()
            && cfg.ranks_per_node.is_none(),
        "the composed world mirrors the default periodic, blocking, batched schedule only"
    );
    let f = ks.fields;
    world(cfg, call, origin, |comm, rec, dec| {
        let rank = comm.rank();
        let mut sim = {
            let _g = rec.span("dist.init");
            init_rank(p, ks, cfg, dec, rank, inputs)
        };
        let meta = cfg.rank_meta(dec, rank);
        let mut ckpt = CkptState::default();
        while sim.step_count < steps as u64 {
            rec.set_step(sim.step_count);
            {
                let _s = rec.span("dist.step");
                let epoch = sim.step_count * 4;
                {
                    let _g = rec.span("grid.halo");
                    exchange(&mut sim, comm, dec, &[f.phi_src, f.mu_src], epoch, cfg.comm);
                }
                {
                    let _g = rec.span("backend.phi");
                    run_variant(&mut sim, ks, cfg.phi_variant, true);
                }
                {
                    let _g = rec.span("sim.project_simplex");
                    sim.project_simplex(f.phi_dst);
                }
                {
                    let _g = rec.span("grid.halo");
                    exchange(&mut sim, comm, dec, &[f.phi_dst], epoch + 2, cfg.comm);
                }
                {
                    let _g = rec.span("backend.mu");
                    run_variant(&mut sim, ks, cfg.mu_variant, false);
                }
                sim.store.swap(f.phi_src, f.phi_dst);
                sim.store.swap(f.mu_src, f.mu_dst);
                sim.step_count += 1;
            }
            if let Some(ck) = &cfg.checkpoint {
                ckpt.after_step(&sim, ck, &meta, steps, rec);
            }
        }
        (sim, 0)
    })
}

/// Restore every rank from the newest complete set under the checkpoint
/// directory, as a resuming `run_distributed` call does, without stepping.
fn composed_restart(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    inputs: &Inputs,
    call: usize,
    origin: Instant,
) -> Result<WorldRun, String> {
    let ck = cfg
        .checkpoint
        .as_ref()
        .expect("a restart needs a checkpoint directory");
    let step = checkpoint::latest_complete_set(&ck.dir, cfg.ranks)
        .ok_or_else(|| format!("no complete checkpoint set under {}", ck.dir.display()))?;
    world(cfg, call, origin, |comm, rec, dec| {
        let rank = comm.rank();
        let mut sim = {
            let _g = rec.span("dist.init");
            init_rank(p, ks, cfg, dec, rank, inputs)
        };
        let meta = cfg.rank_meta(dec, rank);
        let applied = {
            let _g = rec.span("ckpt.restore");
            checkpoint::load_chain(&mut sim, &meta, &ck.dir, step, rank)
                .unwrap_or_else(|e| panic!("restore from set {step}: {e}"))
        };
        (sim, applied + 1)
    })
}

// ---------------------------------------------------------------------------
// Kernel layer in isolation
// ---------------------------------------------------------------------------

/// Launch each kernel variant on rank 0's block with its engine:
/// p50 wall milliseconds per variant over `SWEEP_LAUNCHES` launches.
fn kernel_sweep(p: &ModelParams, ks: &KernelSet, cfg: &DistConfig, inputs: &Inputs) -> [f64; 4] {
    let dec = cfg.decomposition();
    let mut sim = init_rank(p, ks, cfg, &dec, 0, inputs);
    let f = ks.fields;
    sim.apply_bc(f.phi_src);
    sim.apply_bc(f.mu_src);
    let mut ms = [0.0; 4];
    for (i, variant) in [Variant::Full, Variant::Full, Variant::Split, Variant::Split]
        .into_iter()
        .enumerate()
    {
        let phi = i % 2 == 0;
        if !phi {
            // µ kernels read a projected φ_dst with filled ghosts.
            run_variant(&mut sim, ks, Variant::Full, true);
            sim.project_simplex(f.phi_dst);
            sim.apply_bc(f.phi_dst);
        }
        run_variant(&mut sim, ks, variant, phi);
        let samples: Vec<f64> = (0..SWEEP_LAUNCHES)
            .map(|_| {
                let t = Instant::now();
                run_variant(&mut sim, ks, variant, phi);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms[i] = median(&samples);
    }
    ms
}

/// Seconds to compile every kernel variant natively into an empty artifact
/// cache (the cost a user pays once per model; not part of `setup_s`).
fn native_compile_s(p: &ModelParams, ks: &KernelSet, work: &Work) -> f64 {
    if !pf_backend::native_available() {
        eprintln!("note: rustc cannot build loadable kernels here; backend.native_compile_s = 0");
        return 0.0;
    }
    let shared = std::env::var_os("PF_NATIVE_CACHE_DIR");
    let cold = work.fresh("native-cold");
    std::env::set_var("PF_NATIVE_CACHE_DIR", &cold);
    pf_backend::clear_memory_cache();
    let mut sc = SimConfig::new([8, 8, 8]);
    sc.mode = pf_backend::ExecMode::Native;
    let mut sim = Simulation::new(p.clone(), ks.clone(), sc);
    let t = Instant::now();
    for (i, variant) in [Variant::Full, Variant::Full, Variant::Split, Variant::Split]
        .into_iter()
        .enumerate()
    {
        run_variant(&mut sim, ks, variant, i % 2 == 0);
    }
    let secs = t.elapsed().as_secs_f64();
    match shared {
        Some(dir) => std::env::set_var("PF_NATIVE_CACHE_DIR", dir),
        None => std::env::remove_var("PF_NATIVE_CACHE_DIR"),
    }
    pf_backend::clear_memory_cache();
    work.remove(&cold);
    secs
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn counter(r: &pf_trace::Report, name: &str) -> u64 {
    r.counters.get(name).map_or(0, |c| c.total)
}

/// Checkpoint counts of one world call: (writes, bytes, dirty rows, clean rows).
fn ckpt_counts(w: &WorldRun) -> (u64, u64, u64, u64) {
    let writes = w
        .spans
        .iter()
        .flatten()
        .filter(|s| s.name == "ckpt.write")
        .count() as u64;
    (
        writes,
        counter(&w.counters, "checkpoint.bytes_written"),
        counter(&w.counters, "checkpoint.incremental.dirty_rows"),
        counter(&w.counters, "checkpoint.incremental.clean_rows"),
    )
}

/// Share of checked rows that changed; a full snapshot's rows are all new.
fn dirty_row_frac(dirty: u64, clean: u64) -> f64 {
    if dirty + clean == 0 {
        1.0
    } else {
        dirty as f64 / (dirty + clean) as f64
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Work) -> Result<Outcome, String> {
    let p = w.params();
    let inputs = Inputs::new(seed, w.global);
    let seed32 = seed as u32;
    let origin = Instant::now();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut correct = true;
    let mut fail = |what: String| {
        eprintln!("error: {what}");
        correct = false;
    };

    // Set-up layers, twice: their exact counts must repeat.
    pf_trace::set_enabled(false);
    let gens = [compose_codegen(&p), compose_codegen(&p)];
    let times = |f: fn(&Codegen) -> f64| median(&gens.iter().map(f).collect::<Vec<_>>());
    m.put("symbolic.build_model_s", times(|g| g.build_model_s), "s", 2);
    m.put("stencil.discretize_s", times(|g| g.discretize_s), "s", 2);
    m.put("ir.generate_s", times(|g| g.generate_s), "s", 2);
    m.put("analyze.verify_s", times(|g| g.verify_s), "s", 2);
    m.put(
        "analyze.errors",
        gens.iter().map(|g| g.errors).sum::<usize>() as f64,
        "count",
        2,
    );
    let (counts, counts2) = (exact_counts(&gens[0].ks), exact_counts(&gens[1].ks));
    for ((name, v, unit), (_, v2, _)) in counts.into_iter().zip(counts2) {
        if v.to_bits() != v2.to_bits() {
            fail(format!(
                "{name} differs between two generations: {v} vs {v2}"
            ));
        }
        m.put(name, v, unit, 2);
    }
    let sock = pf_machine::skylake_8174();
    for (name, tapes) in TAPES.iter().zip(tape_groups(&gens[0].ks)) {
        let ecm = pf_perfmodel::ecm_multi(&tapes, &sock, ECM_TILE).mlups(sock.freq_ghz, sock.cores);
        m.put(format!("perfmodel.ecm_mlups.{name}"), ecm, "MLUP/s", 1);
    }
    let [g, _] = gens;
    let composed_ks = g.ks;

    // Untraced reference and untraced calls through run_distributed.
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let (_, ref_all) = workload::reference(w, &p, &ks, seed32, &inputs)?;
    print_engines(w, &ks);
    // Untraced `run_distributed` calls and traced composed calls,
    // alternating so that both see the same machine conditions.
    let cell_steps = (w.cells() * w.steps) as f64;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut trace = Trace::default();
    let mut per_call = Vec::new();
    let mut ckpt_calls = Vec::new();
    let mut dir = work.fresh("calls");
    let start = Instant::now();
    while traced.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        work.remove(&dir);
        dir = work.fresh("calls");
        pf_trace::set_enabled(false);
        let r = world_call(&p, &ks, &w.config(seed32, Some(&dir)), w.steps, &inputs);
        match tally.check("untraced call", r, ref_all) {
            Some(secs) => untraced.push(cell_steps / secs / 1e6),
            None => return Err("untraced call failed its output check".into()),
        }

        work.remove(&dir);
        dir = work.fresh("calls");
        pf_trace::set_enabled(true);
        let cfg = w.config(seed32, Some(&dir));
        let run = composed_call(
            &p,
            &composed_ks,
            &cfg,
            w.steps,
            &inputs,
            traced.len(),
            origin,
        )
        .map_err(|e| format!("composed call: {e}"))?;
        tally.attempted += 1;
        if run.fp != ref_all {
            tally.failed += 1;
            fail(format!(
                "drift guard: composed world {:#018x} != run_distributed {ref_all:#018x}",
                run.fp
            ));
        }
        traced.push(cell_steps / run.secs / 1e6);
        let c = &run.counters;
        per_call.push([
            counter(c, "comm.msgs_sent"),
            counter(c, "comm.bytes_sent"),
            counter(c, "comm.recv_wait_ns"),
            counter(c, "comm.retransmits"),
            counter(c, "comm.dedup_dropped"),
        ]);
        if w.checkpoint {
            ckpt_calls.push(ckpt_counts(&run));
        }
        trace.lists.extend(run.spans);
    }
    if per_call[0][..2] != per_call[1][..2] {
        fail(format!(
            "message counts differ between two traced calls: {:?} vs {:?}",
            &per_call[0][..2],
            &per_call[1][..2]
        ));
    }

    // Checkpoint layer. Workloads that write no checkpoints while stepping
    // take one full snapshot at the end of two extra calls. Spans of these
    // and of the restarts go to their own trace.
    let mut extra = Trace::default();
    let mut call = traced.len();
    let mut cfg = w.config(seed32, Some(&dir));
    if !w.checkpoint {
        cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        for _ in 0..2 {
            let run = composed_call(&p, &composed_ks, &cfg, w.steps, &inputs, call, origin)
                .map_err(|e| format!("snapshot call: {e}"))?;
            call += 1;
            tally.attempted += 1;
            if run.fp != ref_all {
                tally.failed += 1;
                fail("snapshot call: fingerprint differs from the reference".into());
            }
            ckpt_calls.push(ckpt_counts(&run));
            extra.lists.extend(run.spans);
        }
    }
    if ckpt_calls[0] != ckpt_calls[1] {
        fail(format!(
            "checkpoint counts differ between two calls: {:?} vs {:?}",
            ckpt_calls[0], ckpt_calls[1]
        ));
    }
    let mut chain_len = 0;
    for _ in 0..2 {
        let run = composed_restart(&p, &composed_ks, &cfg, &inputs, call, origin)
            .map_err(|e| format!("restart: {e}"))?;
        call += 1;
        tally.attempted += 1;
        if run.fp != ref_all {
            tally.failed += 1;
            fail("restart did not reproduce the fingerprint from before it".into());
        }
        chain_len = run.chain_len;
        extra.lists.extend(run.spans);
    }
    work.remove(&dir);
    pf_trace::set_enabled(false);

    // Kernel layer in isolation.
    let sweep_cfg = w.config(seed32, None);
    let launch_ms = kernel_sweep(&p, &composed_ks, &sweep_cfg, &inputs);
    let block_cells: usize = sweep_cfg.decomposition().block(0).shape.iter().product();
    for (name, ms) in TAPES.iter().zip(launch_ms) {
        m.put(
            format!("backend.launch_ms.{name}"),
            ms,
            "ms",
            SWEEP_LAUNCHES,
        );
        m.put(
            format!("backend.mlups.{name}"),
            block_cells as f64 / ms / 1e3,
            "MLUP/s",
            SWEEP_LAUNCHES,
        );
    }
    m.put(
        "backend.native_compile_s",
        native_compile_s(&p, &composed_ks, work),
        "s",
        1,
    );

    // Step layers from the traced calls' spans.
    let calls = traced.len();
    let steps_run = (w.steps * calls) as f64;
    let step_ns = trace.total_ns("dist.step") as f64;
    let kernel_ns = (trace.total_ns("backend.phi") + trace.total_ns("backend.mu")) as f64;
    let steps_ms = trace.durations_ms("dist.step");
    m.put(
        "dist.step_ms_p50",
        percentile(&steps_ms, 0.5),
        "ms",
        steps_ms.len(),
    );
    m.put(
        "dist.step_ms_p90",
        percentile(&steps_ms, 0.9),
        "ms",
        steps_ms.len(),
    );
    m.put(
        "dist.unattributed_frac",
        trace.self_ns("dist.step") as f64 / step_ns,
        "frac",
        steps_ms.len(),
    );
    let mut busy: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for name in ["backend.phi", "backend.mu", "sim.project_simplex"] {
        for (r, ns) in trace.total_ns_by_rank(name) {
            *busy.entry(r).or_insert(0) += ns;
        }
    }
    let mean_busy = busy.values().sum::<u64>() as f64 / busy.len().max(1) as f64;
    let max_busy = busy.values().copied().max().unwrap_or(0) as f64;
    m.put(
        "dist.rank_imbalance",
        max_busy / mean_busy - 1.0,
        "frac",
        busy.len(),
    );
    m.put(
        "backend.kernel_frac",
        kernel_ns / step_ns,
        "frac",
        steps_ms.len(),
    );
    let proj = trace.durations_ms("sim.project_simplex");
    m.put(
        "sim.project_simplex_ms",
        percentile(&proj, 0.5),
        "ms",
        proj.len(),
    );
    let halo = trace.durations_ms("grid.halo");
    m.put("grid.halo_ms", percentile(&halo, 0.5), "ms", halo.len());
    let sum = |i: usize| per_call.iter().map(|c| c[i]).sum::<u64>() as f64;
    m.put("grid.msgs_per_step", sum(0) / steps_run, "count", calls);
    m.put("grid.bytes_per_step", sum(1) / steps_run, "B", calls);
    m.put(
        "comm.recv_wait_ms_per_step",
        sum(2) / 1e6 / steps_run,
        "ms",
        calls,
    );
    m.put("comm.retransmits", sum(3), "count", calls);
    m.put("comm.dedup_dropped", sum(4), "count", calls);

    // Checkpoint layer.
    let writes = if w.checkpoint { &trace } else { &extra }.durations_ms("ckpt.write");
    let (nw, bytes, dirty, clean) = ckpt_calls.iter().fold((0, 0, 0, 0), |a, c| {
        (a.0 + c.0, a.1 + c.1, a.2 + c.2, a.3 + c.3)
    });
    m.put(
        "ckpt.write_ms_p50",
        percentile(&writes, 0.5),
        "ms",
        writes.len(),
    );
    m.put(
        "ckpt.bytes_per_write",
        bytes as f64 / nw as f64,
        "B",
        nw as usize,
    );
    m.put(
        "ckpt.dirty_row_frac",
        dirty_row_frac(dirty, clean),
        "frac",
        nw as usize,
    );
    let restores = extra.durations_ms("ckpt.restore");
    m.put(
        "ckpt.restore_ms",
        percentile(&restores, 0.5),
        "ms",
        restores.len(),
    );
    m.put("ckpt.chain_len", chain_len as f64, "count", restores.len());

    let overhead = 1.0 - median(&traced) / median(&untraced);
    m.put("trace.overhead_frac", overhead, "frac", calls);

    let base = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join("traces");
    let path = base.join(format!("{}-seed{seed}.jsonl", w.name));
    trace.lists.extend(extra.lists);
    match std::fs::create_dir_all(&base).and_then(|_| trace.write_jsonl(&path)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: write {}: {e}", path.display()),
    }
    let errors_clean = m.0["analyze.errors"].value == 0.0;
    Ok(Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: correct && errors_clean && tally.failed == 0,
    })
}
