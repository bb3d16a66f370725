//! The untraced end-to-end run: set-up time, world MLUP/s and restart
//! time of `run_distributed`, every call checked against the reference.

use crate::stats::{median, Metrics};
use crate::workload::{self, engine_for, world_call, Inputs, Workload};
use crate::Work;
use pf_core::dist::CheckpointConfig;
use pf_core::generate_kernels;
use pf_ir::GenOptions;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed calls made even when they take longer than the time budget.
const MIN_CALLS: usize = 3;

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Counts checked calls; a call fails when it panics or its fingerprint
/// differs from the reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one call; returns its wall seconds when it passed.
    pub fn check(&mut self, what: &str, r: Result<(f64, u64), String>, want: u64) -> Option<f64> {
        self.attempted += 1;
        match r {
            Ok((secs, fp)) if fp == want => Some(secs),
            Ok((_, fp)) => {
                self.failed += 1;
                eprintln!("error: {what}: fingerprint {fp:#018x} != reference {want:#018x}");
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("error: {what}: {e}");
                None
            }
        }
    }
}

pub fn print_engines(w: &Workload, ks: &pf_core::KernelSet) {
    let dec = w.config(0, None).decomposition();
    let engines: Vec<String> = (0..w.ranks)
        .map(|r| {
            let shape = dec.block(r).shape;
            format!(
                "rank{r}={}{:?}",
                pf_core::mode_name(engine_for(ks, shape)),
                shape
            )
        })
        .collect();
    println!("# engine {}", engines.join(" "));
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Work) -> Result<Outcome, String> {
    let p = w.params();
    let inputs = Inputs::new(seed, w.global);
    let seed32 = seed as u32;
    let mut tally = Tally::default();

    // Warm-up: the reference run fills the native artifact cache.
    let ks = generate_kernels(&p, &GenOptions::default());
    let (ref_one, ref_all) = workload::reference(w, &p, &ks, seed32, &inputs)?;
    print_engines(w, &ks);
    drop(ks);

    // One set-up: ModelParams → kernels → first call (one step) done.
    let mut setup_s = Vec::new();
    let mut set_up = |tally: &mut Tally| {
        let dir = work.fresh("setup");
        let t0 = Instant::now();
        let ks = generate_kernels(&p, &GenOptions::default());
        let r = world_call(&p, &ks, &w.config(seed32, Some(&dir)), 1, &inputs);
        let secs = t0.elapsed().as_secs_f64();
        work.remove(&dir);
        if tally.check("setup", r, ref_one).is_some() {
            setup_s.push(secs);
        }
        ks
    };
    let ks = set_up(&mut tally);
    let mut setups = 1;

    // The workloads that write no checkpoints while stepping restart from
    // one full snapshot, written by an extra call.
    let snapshot = work.fresh("snapshot");
    if !w.checkpoint {
        let mut cfg = w.config(seed32, None);
        cfg.checkpoint = Some(CheckpointConfig::new(&snapshot));
        let r = world_call(&p, &ks, &cfg, w.steps, &inputs);
        tally.check("snapshot call", r, ref_all);
    }

    // Timed calls, closed loop, until they add up to `seconds`. Each is
    // followed by a restart call, and the other set-ups are spread over
    // the phase, so that all metrics sample the same stretch of machine
    // conditions.
    let cell_steps = (w.cells() * w.steps) as f64;
    let mut mlups = Vec::new();
    let mut rss = Vec::new();
    let mut restart_s = Vec::new();
    let mut timed = 0.0;
    let mut calls = 0;
    while calls < MIN_CALLS || timed < seconds {
        let dir = work.fresh("calls");
        crate::host::release_free_memory();
        let reset = crate::host::reset_peak_rss();
        let t0 = Instant::now();
        let r = world_call(&p, &ks, &w.config(seed32, Some(&dir)), w.steps, &inputs);
        timed += t0.elapsed().as_secs_f64();
        if reset {
            rss.push(crate::host::peak_rss_mb());
        }
        if let Some(secs) = tally.check(&format!("call {calls}"), r, ref_all) {
            mlups.push(cell_steps / secs / 1e6);
        }

        // Resume from the newest set (this call's chain, or the snapshot)
        // and take no further steps.
        let mut cfg = w.config(seed32, Some(&dir));
        let ck = cfg
            .checkpoint
            .get_or_insert_with(|| CheckpointConfig::new(&snapshot));
        ck.resume = true;
        let r = world_call(&p, &ks, &cfg, w.steps, &inputs);
        if let Some(secs) = tally.check(&format!("restart {calls}"), r, ref_all) {
            restart_s.push(secs);
        }
        work.remove(&dir);
        calls += 1;

        if setups < SETUPS && timed >= setups as f64 * seconds / SETUPS as f64 {
            set_up(&mut tally);
            setups += 1;
        }
    }
    while setups < SETUPS {
        set_up(&mut tally);
        setups += 1;
    }
    work.remove(&snapshot);

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s", setup_s.len());
    metrics.put("mlups", median(&mlups), "MLUP/s", mlups.len());
    metrics.put("restart_s", median(&restart_s), "s", restart_s.len());
    if rss.is_empty() {
        // No per-call reset here: the peak of the whole process.
        rss.push(crate::host::peak_rss_mb());
    }
    metrics.put("peak_rss_mb", median(&rss), "MB", rss.len());
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
    })
}
