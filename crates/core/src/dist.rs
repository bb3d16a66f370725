//! Distributed-memory simulation driver (§4).
//!
//! Runs Algorithm 1 across ranks: each rank owns one block of the
//! decomposed domain, halo exchanges replace the single-block boundary
//! handling, and non-periodic physical boundaries are applied only where a
//! block touches the domain edge. The result is bit-identical to the
//! single-block run on the same global domain (asserted by the integration
//! tests), because the kernels, Philox counters, and coordinates are all
//! keyed on *global* cell indices.

use crate::checkpoint::{self, RankMeta};
use crate::kernels::KernelSet;
use crate::params::ModelParams;
use crate::sim::{BcKind, SimConfig, Simulation, Variant};
use pf_grid::{
    begin_exchange, exchange_halo, finish_exchange, run_ranks_with_faults, split_frontier,
    with_silenced_dead_rank_panics, Comm, CommOptions, Decomposition, FaultPlan, HaloHandle,
    DEAD_RANK_MARKER,
};
use pf_ir::Tape;
use pf_symbolic::Field;
use std::path::PathBuf;
use std::sync::Arc;

/// Periodic/final checkpointing of a distributed run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Root directory of the per-step checkpoint sets.
    pub dir: PathBuf,
    /// Write a set every `every` steps (0 = periodic checkpoints off).
    pub every: u64,
    /// Also write a set after the last step.
    pub final_checkpoint: bool,
    /// Before stepping, restore from the newest complete set under `dir`
    /// (start from the initial conditions if there is none).
    pub resume: bool,
    /// Write dirty-row increments ([`checkpoint::save_incremental`])
    /// instead of full snapshots whenever a base exists, falling back to a
    /// full snapshot every `full_every` increments.
    pub incremental: bool,
    /// Consecutive increments allowed before the next write is forced to
    /// be a full snapshot, bounding restore-chain length.
    pub full_every: u64,
}

impl CheckpointConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 0,
            final_checkpoint: true,
            resume: false,
            incremental: true,
            full_every: 4,
        }
    }

    pub fn every(mut self, steps: u64) -> Self {
        self.every = steps;
        self
    }

    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    pub fn full_every(mut self, n: u64) -> Self {
        self.full_every = n;
        self
    }
}

/// Distributed run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    pub global: [usize; 3],
    pub ranks: usize,
    pub bc: [BcKind; 3],
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub comm: CommOptions,
    pub seed: u32,
    pub checkpoint: Option<CheckpointConfig>,
    /// Message-fault/rank-kill injection for the whole world.
    pub faults: Option<FaultPlan>,
    /// Execution engine for every rank's kernels; `None` keeps the default
    /// ([`crate::default_exec_mode`]: native when the host can compile
    /// kernels). The engine is not part of the persistent state (all
    /// engines are bitwise identical), so a checkpointed run may resume
    /// under a different one.
    pub exec_mode: Option<pf_backend::ExecMode>,
    /// Hierarchical (node × socket) decomposition: split `ranks` into
    /// `ranks / ranks_per_node` nodes refined by `ranks_per_node` ranks
    /// each ([`Decomposition::hierarchical`]). `None` keeps the flat
    /// surface-optimal grid. Mapping-only — the flat process grid is the
    /// product of both levels, so results stay bitwise identical.
    pub ranks_per_node: Option<usize>,
}

impl DistConfig {
    pub fn new(global: [usize; 3], ranks: usize) -> Self {
        DistConfig {
            global,
            ranks,
            bc: [BcKind::Periodic; 3],
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            comm: CommOptions::default(),
            seed: 42,
            checkpoint: None,
            faults: None,
            exec_mode: None,
            ranks_per_node: None,
        }
    }

    /// The decomposition this configuration runs under: hierarchical when
    /// `ranks_per_node` is set, flat otherwise.
    pub fn decomposition(&self) -> Decomposition {
        match self.ranks_per_node {
            Some(rpn) => {
                assert!(
                    rpn >= 1 && self.ranks.is_multiple_of(rpn),
                    "{} ranks cannot split into nodes of {rpn}",
                    self.ranks
                );
                Decomposition::hierarchical(self.global, self.ranks / rpn, rpn, self.periodic())
            }
            None => Decomposition::new(self.global, self.ranks, self.periodic()),
        }
    }

    /// This run's block metadata for `rank`, as stamped into checkpoints.
    pub fn rank_meta(&self, dec: &Decomposition, rank: usize) -> RankMeta {
        RankMeta {
            rank: rank as u32,
            nranks: self.ranks as u32,
            grid: [dec.grid[0] as u32, dec.grid[1] as u32, dec.grid[2] as u32],
            global: [
                self.global[0] as u64,
                self.global[1] as u64,
                self.global[2] as u64,
            ],
        }
    }

    fn periodic(&self) -> [bool; 3] {
        [
            self.bc[0] == BcKind::Periodic,
            self.bc[1] == BcKind::Periodic,
            self.bc[2] == BcKind::Periodic,
        ]
    }
}

/// Frontier deferral widths of one kernel phase of Algorithm 1: how many
/// cells from each block face must wait for the halo receives. Derived
/// from the pf-analyze load envelopes, maximized over the phase's tapes
/// (exact for a full kernel; for a split kernel the group maximum also
/// guarantees the flux interior produces every staggered value the update
/// interior re-reads, since the update's widths dominate the fluxes').
#[derive(Clone, Copy, Debug)]
struct PhaseWidths {
    lo: [usize; 3],
    hi: [usize; 3],
}

/// Interior/frontier split of the overlapped schedule, built once per run
/// and proved sound by [`pf_analyze::check_frontier`]: no interior cell of
/// any tape reads a ghost layer, so the interior sweeps can run while the
/// halo messages are still in flight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OverlapPlan {
    phi: PhaseWidths,
    mu: PhaseWidths,
}

fn phase_widths(p: &ModelParams, ks: &KernelSet, tapes: &[&Tape]) -> PhaseWidths {
    let mut lo = [0usize; 3];
    let mut hi = [0usize; 3];
    for tape in tapes {
        let allocs = crate::kernels::alloc_table(p, ks, tape);
        let (tl, th) = pf_analyze::frontier_widths(tape, &allocs);
        for d in 0..3 {
            lo[d] = lo[d].max(tl[d]);
            hi[d] = hi[d].max(th[d]);
        }
    }
    // Soundness re-check of the widths just derived. This is proven
    // statically ahead of time — pf-lint and the kernel-set verification
    // run `check_frontier` (and the symbolic protocol model) over every
    // configuration — so at runtime it is redundant and kept only as a
    // debug assertion guarding future refactors of the width derivation.
    if cfg!(debug_assertions) {
        for tape in tapes {
            let allocs = crate::kernels::alloc_table(p, ks, tape);
            let diags = pf_analyze::check_frontier(tape, &allocs, lo, hi);
            assert!(
                diags.is_empty(),
                "overlap plan unsound for kernel '{}': {}",
                tape.name,
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
    }
    PhaseWidths { lo, hi }
}

fn split_refs(s: &crate::kernels::SplitTapes) -> Vec<&Tape> {
    s.flux_tapes
        .iter()
        .chain(std::iter::once(&s.update))
        .collect()
}

/// The phase's tapes by variant, borrowed from the kernel set.
fn variant_tapes(ks: &KernelSet, variant: Variant, phi: bool) -> Vec<&Tape> {
    match (variant, phi) {
        (Variant::Full, true) => vec![&ks.phi_full],
        (Variant::Full, false) => vec![&ks.mu_full],
        (Variant::Split, true) => split_refs(&ks.phi_split),
        (Variant::Split, false) => split_refs(&ks.mu_split),
    }
}

/// Exchanged (cell-centred) fields a phase's tapes load with nonzero ghost
/// reach, and the exchanged fields they store — the inputs of the
/// stale-ghost state machine. Staggered flux temporaries are block-local
/// (never exchanged) and excluded from both.
fn phase_comm_footprint(ks: &KernelSet, tapes: &[&Tape]) -> (Vec<String>, Vec<String>) {
    let stag = [ks.phi_split.stag_field, ks.mu_split.stag_field];
    let mut ghost_reads = std::collections::BTreeSet::new();
    let mut writes = std::collections::BTreeSet::new();
    for tape in tapes {
        let fp = pf_analyze::Footprint::of(tape);
        for (slot, f) in tape.fields.iter().enumerate() {
            if stag.contains(f) {
                continue;
            }
            if fp.required_ghost(slot, [0; 3]) > 0 {
                ghost_reads.insert(f.name());
            }
            if fp.per_field[slot].stores.is_some() {
                writes.insert(f.name());
            }
        }
    }
    (
        ghost_reads.into_iter().collect(),
        writes.into_iter().collect(),
    )
}

/// Lift [`dist_step_overlapped`]'s schedule into pf-analyze's symbolic
/// protocol model for one divided-pattern. The event list mirrors the
/// runtime schedule line by line — same exchange order, same epoch
/// offsets, same field tags — with the sweeps' communication footprints
/// derived from the real tapes' load/store envelopes. `check_protocol`
/// over this model proves send/recv pairing, epoch/tag discipline,
/// deadlock-freedom and stale-ghost-freedom for *any* rank count with the
/// given pattern of divided dimensions (see pf-analyze's protocol docs for
/// why the pattern, not the rank count, is the protocol's only degree of
/// freedom).
pub fn overlap_protocol_model(
    ks: &KernelSet,
    phi_variant: Variant,
    mu_variant: Variant,
    dims: [pf_analyze::DimClass; 3],
) -> pf_analyze::ProtocolModel {
    use pf_analyze::ProtoEvent as E;
    let f = ks.fields;
    let (phi_reads, phi_writes) = phase_comm_footprint(ks, &variant_tapes(ks, phi_variant, true));
    let (mu_reads, mu_writes) = phase_comm_footprint(ks, &variant_tapes(ks, mu_variant, false));
    let begin = |field: pf_symbolic::Field, tag: u16, epoch: u64| E::Begin {
        field: field.name(),
        field_tag: tag,
        epoch,
    };
    let finish = |field: pf_symbolic::Field| E::Finish {
        field: field.name(),
    };
    let divided: Vec<String> = (0..3)
        .filter(|&d| dims[d].divided)
        .map(|d| d.to_string())
        .collect();
    pf_analyze::ProtocolModel {
        name: format!("dist_step_overlapped[div={}]", divided.join("")),
        dims,
        // dist_step_overlapped consumes epochs step*4 .. step*4+2.
        epoch_stride: 4,
        events: vec![
            begin(f.phi_src, 0, 0),
            begin(f.mu_src, 1, 1),
            E::Interior {
                writes: phi_writes.clone(),
            },
            finish(f.phi_src),
            finish(f.mu_src),
            E::Frontier {
                ghost_reads: phi_reads,
                writes: phi_writes,
            },
            E::Write {
                field: f.phi_dst.name(),
            },
            begin(f.phi_dst, 2, 2),
            E::Interior {
                writes: mu_writes.clone(),
            },
            finish(f.phi_dst),
            E::Frontier {
                ghost_reads: mu_reads,
                writes: mu_writes,
            },
        ],
    }
}

/// The protocol classes of a concrete decomposition, via pf-grid's pure
/// exchange-shape description (so the model's view of "divided" can never
/// drift from what the exchange actually does).
pub fn dim_classes(dec: &Decomposition) -> [pf_analyze::DimClass; 3] {
    let shape = pf_grid::exchange_shape(dec);
    [0, 1, 2].map(|d| pf_analyze::DimClass {
        divided: shape[d] == pf_grid::DimPhase::SendRecv,
        periodic: dec.periodic[d],
    })
}

/// Verify the overlapped schedule's comm protocol under **all** 2³
/// divided-patterns — a proof for every rank count and decomposition at
/// once. Returns every diagnostic found (empty = proven sound).
pub fn verify_overlap_protocol(
    ks: &KernelSet,
    phi_variant: Variant,
    mu_variant: Variant,
) -> Vec<pf_analyze::Diagnostic> {
    pf_analyze::all_dim_patterns()
        .into_iter()
        .flat_map(|dims| {
            pf_analyze::check_protocol(&overlap_protocol_model(ks, phi_variant, mu_variant, dims))
        })
        .collect()
}

pub(crate) fn build_overlap_plan(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    dec: &Decomposition,
) -> OverlapPlan {
    // Always-on symbolic gate (cheap: a few dozen events, no tapes): the
    // schedule the plan will drive must be protocol-sound for this
    // decomposition's divided-pattern. The heavyweight spatial re-check
    // below is debug-only; this one is the release-build tripwire.
    let proto = pf_analyze::check_protocol(&overlap_protocol_model(
        ks,
        cfg.phi_variant,
        cfg.mu_variant,
        dim_classes(dec),
    ));
    let proto_errors: Vec<_> = proto.iter().filter(|d| d.is_error()).collect();
    assert!(
        proto_errors.is_empty(),
        "overlapped schedule fails protocol verification: {}",
        proto_errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
    let phi_tapes: Vec<&Tape> = variant_tapes(ks, cfg.phi_variant, true);
    let mu_tapes: Vec<&Tape> = variant_tapes(ks, cfg.mu_variant, false);
    // Ghost layers along dimensions the exchange completes inside `begin`
    // (leading undivided dimensions — local wraps, no messages) are as
    // fresh as owned data when the interior sweeps run, so no frontier
    // shell needs to guard them. `phase_widths` verified the full load
    // envelopes above; the mask only drops deferral where nothing defers.
    let k = pf_grid::first_deferred_dim(dec);
    let mask = |mut w: PhaseWidths| {
        for d in 0..k {
            w.lo[d] = 0;
            w.hi[d] = 0;
        }
        w
    };
    OverlapPlan {
        phi: mask(phase_widths(p, ks, &phi_tapes)),
        mu: mask(phase_widths(p, ks, &mu_tapes)),
    }
}

/// Sweep every tape of a phase over its interior region (halo messages may
/// still be in flight — the plan proves no ghost layer is read here).
fn run_phase_interiors(sim: &mut Simulation, tapes: &[Tape], w: PhaseWidths, rank: usize) {
    for tape in tapes {
        let ext = pf_backend::extended_range(tape, sim.cfg.shape);
        let (interior, _) = split_frontier(ext, w.lo, w.hi);
        pf_trace::counter_at("exec.interior_cells", rank).incr(interior.cells() as u64);
        sim.run_region(tape, interior);
    }
}

/// Sweep every tape of a phase over its frontier shells (receives have
/// completed; the ghost layers are fresh).
fn run_phase_frontiers(sim: &mut Simulation, tapes: &[Tape], w: PhaseWidths, rank: usize) {
    for tape in tapes {
        let ext = pf_backend::extended_range(tape, sim.cfg.shape);
        let (_, shells) = split_frontier(ext, w.lo, w.hi);
        for shell in shells {
            pf_trace::counter_at("exec.frontier_cells", rank).incr(shell.cells() as u64);
            sim.run_region(tape, shell);
        }
    }
}

/// The phase's kernel tapes in execution order (fluxes before the update).
fn phase_tapes(sim: &Simulation, variant: Variant, phi: bool) -> Vec<Tape> {
    match (variant, phi) {
        (Variant::Full, true) => vec![sim.kernels.phi_full.clone()],
        (Variant::Full, false) => vec![sim.kernels.mu_full.clone()],
        (Variant::Split, phi) => {
            let split = if phi {
                &sim.kernels.phi_split
            } else {
                &sim.kernels.mu_split
            };
            let mut tapes = split.flux_tapes.clone();
            tapes.push(split.update.clone());
            tapes
        }
    }
}

/// Apply Neumann physical boundaries to one field wherever this block
/// touches the domain edge (stale ghosts elsewhere get overwritten by the
/// exchange; the phased exchange then propagates corners correctly).
fn apply_neumann_edges(
    sim: &mut Simulation,
    comm: &Comm,
    dec: &Decomposition,
    field: Field,
    cfg: &DistConfig,
) {
    for (d, kind) in cfg.bc.iter().enumerate() {
        if *kind == BcKind::Neumann {
            let at_low = dec.neighbor(comm.rank(), d, -1).is_none();
            let at_high = dec.neighbor(comm.rank(), d, 1).is_none();
            if at_low || at_high {
                sim.store.get_mut(field).apply_neumann(d);
            }
        }
    }
}

/// One field's sync parameters: field, tag, and the epoch the *unbatched*
/// protocol stamps its messages with (the batched transport uses the
/// batch's base epoch instead — tags only need to be unique and agreed).
type SyncSpec = (Field, u32, u64);

/// Run `f` with every spec'd field taken out of the store (split borrow
/// for the batched multi-field exchange), re-inserting them afterwards.
fn with_taken_fields(
    sim: &mut Simulation,
    specs: &[SyncSpec],
    f: impl FnOnce(&mut [&mut pf_fields::FieldArray]),
) {
    let mut arrs: Vec<pf_fields::FieldArray> = specs
        .iter()
        .map(|(field, _, _)| sim.store.take(*field))
        .collect();
    {
        let mut refs: Vec<&mut pf_fields::FieldArray> = arrs.iter_mut().collect();
        f(&mut refs);
    }
    for ((field, _, _), arr) in specs.iter().zip(arrs) {
        sim.store.insert(*field, arr);
    }
}

/// Synchronize several fields at one schedule point. With `comm.batch`
/// (the default) the fields' face messages coalesce into one packed
/// message per (neighbour, epoch) — same per-field pack/unpack sequence,
/// so ghosts are bitwise identical to the unbatched path, which remains
/// available (`batch: false`) and sends each field at its own tag/epoch.
fn sync_fields(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    specs: &[SyncSpec],
    batch_epoch: u64,
    cfg: &DistConfig,
) {
    for (field, _, _) in specs {
        apply_neumann_edges(sim, comm, dec, *field, cfg);
    }
    if cfg.comm.batch {
        with_taken_fields(sim, specs, |arrs| {
            pf_grid::exchange_halo_batched(comm, dec, arrs, batch_epoch, cfg.comm);
        });
    } else {
        for (field, tag, epoch) in specs {
            let arr = sim.store.get_mut(*field);
            exchange_halo(comm, dec, arr, *tag, *epoch, cfg.comm);
        }
    }
}

/// In-flight multi-field sync, batched or per-field.
enum SyncHandle {
    Batched(pf_grid::BatchHandle),
    PerField(Vec<HaloHandle>),
}

/// Start synchronizing several fields: apply physical boundaries, then
/// post the halo sends without waiting for the receives — one coalesced
/// message per neighbour when batching, one per field otherwise.
fn begin_sync_fields(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    specs: &[SyncSpec],
    batch_epoch: u64,
    cfg: &DistConfig,
) -> SyncHandle {
    for (field, _, _) in specs {
        apply_neumann_edges(sim, comm, dec, *field, cfg);
    }
    if cfg.comm.batch {
        let mut handle = None;
        with_taken_fields(sim, specs, |arrs| {
            handle = Some(pf_grid::begin_exchange_batched(
                comm,
                dec,
                arrs,
                batch_epoch,
                cfg.comm,
            ));
        });
        SyncHandle::Batched(handle.expect("begin ran"))
    } else {
        SyncHandle::PerField(
            specs
                .iter()
                .map(|(field, tag, epoch)| {
                    let arr = sim.store.get_mut(*field);
                    begin_exchange(comm, dec, arr, *tag, *epoch, cfg.comm)
                })
                .collect(),
        )
    }
}

fn finish_sync_fields(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    specs: &[SyncSpec],
    handle: SyncHandle,
    cfg: &DistConfig,
) {
    match handle {
        SyncHandle::Batched(h) => with_taken_fields(sim, specs, |arrs| {
            pf_grid::finish_exchange_batched(comm, dec, arrs, h, cfg.comm);
        }),
        SyncHandle::PerField(handles) => {
            for ((field, _, _), h) in specs.iter().zip(handles) {
                let arr = sim.store.get_mut(*field);
                finish_exchange(comm, dec, arr, h, cfg.comm);
            }
        }
    }
}

/// One distributed timestep of Algorithm 1 with communication/computation
/// overlap (§4.3, the Table 2 "overlap" option — here it genuinely changes
/// the schedule, not just the priced metadata):
///
/// ```text
/// post φ_src and µ_src halo sends
/// φ interior sweep                    ← halos in flight
/// complete φ_src/µ_src receives
/// φ frontier sweep, simplex projection
/// post φ_dst halo sends
/// µ interior sweep                    ← halos in flight
/// complete φ_dst receives
/// µ frontier sweep, swap
/// ```
///
/// Bitwise identical to [`dist_step`]: the ghost layers end up exactly as
/// the blocking exchange leaves them, region launches key every cell on
/// its absolute index, and the plan proves no interior cell reads a ghost.
pub(crate) fn dist_step_overlapped(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    cfg: &DistConfig,
    plan: &OverlapPlan,
) {
    let rank = comm.rank();
    let _span = pf_trace::span_at("dist.step", rank);
    let f = sim.kernels.fields;
    let epoch = sim.step_count * 4;

    // φ_src and µ_src begin back-to-back with nothing between them, so
    // batching folds their face messages into one per (neighbour, epoch).
    let src_specs = [(f.phi_src, 0u32, epoch), (f.mu_src, 1u32, epoch + 1)];
    let h_src = begin_sync_fields(sim, comm, dec, &src_specs, epoch, cfg);
    let phi_tapes = phase_tapes(sim, cfg.phi_variant, true);
    let t0 = std::time::Instant::now();
    run_phase_interiors(sim, &phi_tapes, plan.phi, rank);
    pf_trace::counter_at("comm.overlap_window_ns", rank).incr(t0.elapsed().as_nanos() as u64);
    finish_sync_fields(sim, comm, dec, &src_specs, h_src, cfg);
    run_phase_frontiers(sim, &phi_tapes, plan.phi, rank);

    sim.project_simplex(f.phi_dst);
    let dst_specs = [(f.phi_dst, 2u32, epoch + 2)];
    let h_dst = begin_sync_fields(sim, comm, dec, &dst_specs, epoch + 2, cfg);
    let mu_tapes = phase_tapes(sim, cfg.mu_variant, false);
    let t0 = std::time::Instant::now();
    run_phase_interiors(sim, &mu_tapes, plan.mu, rank);
    pf_trace::counter_at("comm.overlap_window_ns", rank).incr(t0.elapsed().as_nanos() as u64);
    finish_sync_fields(sim, comm, dec, &dst_specs, h_dst, cfg);
    run_phase_frontiers(sim, &mu_tapes, plan.mu, rank);

    sim.store.swap(f.phi_src, f.phi_dst);
    sim.store.swap(f.mu_src, f.mu_dst);
    sim.step_count += 1;
}

/// One distributed timestep of Algorithm 1.
pub fn dist_step(sim: &mut Simulation, comm: &mut Comm, dec: &Decomposition, cfg: &DistConfig) {
    let _span = pf_trace::span_at("dist.step", comm.rank());
    let f = sim.kernels.fields;
    let epoch = sim.step_count * 4;
    sync_fields(
        sim,
        comm,
        dec,
        &[(f.phi_src, 0u32, epoch), (f.mu_src, 1u32, epoch + 1)],
        epoch,
        cfg,
    );

    let phi_full = sim.kernels.phi_full.clone();
    let phi_split = sim.kernels.phi_split.clone();
    match cfg.phi_variant {
        Variant::Full => sim.run(&phi_full),
        Variant::Split => sim.run_split(&phi_split),
    }
    sim.project_simplex(f.phi_dst);
    sync_fields(
        sim,
        comm,
        dec,
        &[(f.phi_dst, 2u32, epoch + 2)],
        epoch + 2,
        cfg,
    );

    let mu_full = sim.kernels.mu_full.clone();
    let mu_split = sim.kernels.mu_split.clone();
    match cfg.mu_variant {
        Variant::Full => sim.run(&mu_full),
        Variant::Split => sim.run_split(&mu_split),
    }

    sim.store.swap(f.phi_src, f.phi_dst);
    sim.store.swap(f.mu_src, f.mu_dst);
    sim.step_count += 1;
}

/// Run a distributed simulation for `steps` steps. The initial conditions
/// are given in *global* cell coordinates; `finish` extracts each rank's
/// result after the run. Returns the per-rank results in rank order.
///
/// Honours `cfg.checkpoint` (periodic/final sets, resume from the newest
/// complete set) and `cfg.faults` (message perturbation, planned rank
/// kill). A killed rank makes the whole world unwind with a dead-rank
/// panic; use [`run_distributed_resilient`] to recover from that
/// automatically.
pub fn run_distributed<R>(
    params: &ModelParams,
    kernels: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    init_phi: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    init_mu: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    finish: impl Fn(&Simulation) -> R + Sync,
) -> Vec<R>
where
    R: Send + 'static,
{
    let dec = cfg.decomposition();
    debug_assert_eq!(dec.nranks(), cfg.ranks);
    // The halo exchange fills dec.ghost_layers layers per sync; a kernel
    // whose loads reach further would read stale or uninitialized ghosts.
    let need = crate::kernels::required_halo_width(kernels);
    assert!(
        need <= dec.ghost_layers,
        "kernel set needs {need} ghost layer(s) but the decomposition exchanges only {}",
        dec.ghost_layers
    );
    // Built (and proved sound) once for the whole world; the per-rank
    // interior/frontier split is derived from it each step.
    let overlap_plan = if cfg.comm.overlap {
        Some(build_overlap_plan(params, kernels, cfg, &dec))
    } else {
        None
    };
    let results: parking_lot::Mutex<Vec<(usize, R)>> =
        parking_lot::Mutex::new(Vec::with_capacity(cfg.ranks));
    let plan = cfg.faults.clone().map(Arc::new);
    // With faults active, one rank can finish while a peer still needs a
    // retransmission from it, so the run must end in a rendezvous before
    // endpoints are dropped.
    let needs_shutdown_sync = plan.is_some();
    // Resuming ranks agree on the restart step before the world starts, so
    // a set completed between two ranks' scans cannot split the cohort.
    let resume_step = cfg.checkpoint.as_ref().and_then(|ck| {
        if ck.resume {
            checkpoint::latest_complete_set(&ck.dir, cfg.ranks)
        } else {
            None
        }
    });

    let rank_main = |mut comm: Comm| {
        // Metrics recorded on this rank thread (kernel launches, halo
        // exchanges, checkpoint writes, …) are tagged with the rank so
        // snapshots can aggregate across the simulated world.
        let rank = comm.rank();
        pf_trace::with_rank(rank, || {
            let block = dec.block(comm.rank());
            let mut sim_cfg = SimConfig::new(block.shape);
            sim_cfg.phi_variant = cfg.phi_variant;
            sim_cfg.mu_variant = cfg.mu_variant;
            sim_cfg.bc = cfg.bc;
            sim_cfg.seed = cfg.seed;
            if let Some(m) = cfg.exec_mode {
                sim_cfg.mode = m;
            }
            let mut sim = Simulation::new(params.clone(), kernels.clone(), sim_cfg);
            sim.origin = block.origin;
            let (ox, oy, oz) = (block.origin[0], block.origin[1], block.origin[2]);
            sim.init_phi(|x, y, z| init_phi(x as i64 + ox, y as i64 + oy, z as i64 + oz));
            sim.init_mu(|x, y, z| init_mu(x as i64 + ox, y as i64 + oy, z as i64 + oz));
            let meta = cfg.rank_meta(&dec, comm.rank());
            // Diff base for incremental writes, and how many increments
            // the set it names already sits on.
            let mut ckpt_base: Option<checkpoint::IncrementalBase> = None;
            let mut incs_since_full = 0u64;
            if let (Some(ck), Some(step)) = (&cfg.checkpoint, resume_step) {
                let applied = checkpoint::load_chain(&mut sim, &meta, &ck.dir, step, comm.rank())
                    .unwrap_or_else(|e| {
                        panic!("restore from set {step} under {}: {e}", ck.dir.display())
                    });
                // The resumed set is on disk and complete, so it can serve
                // as a base; its chain depth carries over.
                ckpt_base = Some(checkpoint::IncrementalBase::capture(&sim));
                incs_since_full = applied as u64;
            }
            while sim.step_count < steps as u64 {
                if let Some(plan) = comm.fault_plan() {
                    if plan.should_kill(comm.rank(), sim.step_count) {
                        // Simulated death: unwind without checkpointing or
                        // entering the shutdown rendezvous. Peers notice the
                        // dropped endpoint and unwind too.
                        panic!(
                            "{DEAD_RANK_MARKER}: planned kill of rank {} at step {}",
                            comm.rank(),
                            sim.step_count
                        );
                    }
                }
                match &overlap_plan {
                    Some(plan) => dist_step_overlapped(&mut sim, &mut comm, &dec, cfg, plan),
                    None => dist_step(&mut sim, &mut comm, &dec, cfg),
                }
                if let Some(ck) = &cfg.checkpoint {
                    let done = sim.step_count == steps as u64;
                    let periodic = ck.every > 0 && sim.step_count.is_multiple_of(ck.every);
                    if periodic || (done && ck.final_checkpoint) {
                        let path = checkpoint::rank_file(&ck.dir, sim.step_count, comm.rank());
                        let _span = pf_trace::span_at("dist.checkpoint_write", comm.rank());
                        let t0 = std::time::Instant::now();
                        let incremental = ck.incremental
                            && ckpt_base.is_some()
                            && incs_since_full < ck.full_every.max(1);
                        if let (true, Some(base)) = (incremental, &ckpt_base) {
                            checkpoint::save_incremental(&sim, &meta, base, &path).unwrap_or_else(
                                |e| panic!("checkpoint to {}: {e}", path.display()),
                            );
                            incs_since_full += 1;
                        } else {
                            checkpoint::save(&sim, &meta, &path).unwrap_or_else(|e| {
                                panic!("checkpoint to {}: {e}", path.display())
                            });
                            incs_since_full = 0;
                        }
                        ckpt_base = Some(checkpoint::IncrementalBase::capture(&sim));
                        // The step loop stalls for the whole write — that stall
                        // is the drain the I/O pricing model cares about.
                        pf_trace::gauge_at("dist.checkpoint_drain_s", comm.rank())
                            .add(t0.elapsed().as_secs_f64());
                    }
                }
            }
            if needs_shutdown_sync {
                comm.shutdown_barrier();
            }
            let r = finish(&sim);
            results.lock().push((comm.rank(), r));
        })
    };
    // One thread budget for the whole world, like the paper's hybrid
    // MPI+OpenMP split: every rank's kernel launches get an equal share of
    // the host's cores, so ranks × threads per rank never exceeds them.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads((cores / cfg.ranks).max(1))
        .build()
        .expect("the rayon thread budget always builds");
    run_ranks_with_faults(cfg.ranks, plan, |comm| pool.install(|| rank_main(comm)));

    let mut out = results.into_inner();
    out.sort_by_key(|(r, _)| *r);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Restart attempts before a dead-rank failure is considered permanent.
const MAX_RESTARTS: usize = 3;

/// [`run_distributed`] wrapped in cohort-level recovery: when the world
/// unwinds because a rank died (the planned kill of a fault plan), the
/// cohort is restarted from the newest complete checkpoint set with the
/// kill disarmed. Determinism makes the recovery exact — the restarted
/// ranks re-produce bitwise the states the lost cohort would have had.
/// Panics that are not rank deaths propagate unchanged.
pub fn run_distributed_resilient<R>(
    params: &ModelParams,
    kernels: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    init_phi: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    init_mu: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    finish: impl Fn(&Simulation) -> R + Sync,
) -> Vec<R>
where
    R: Send + 'static,
{
    let mut attempt_cfg = cfg.clone();
    let mut restarts = 0usize;
    loop {
        let outcome = with_silenced_dead_rank_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_distributed(
                    params,
                    kernels,
                    &attempt_cfg,
                    steps,
                    &init_phi,
                    &init_mu,
                    &finish,
                )
            }))
        });
        match outcome {
            Ok(results) => return results,
            Err(payload) => {
                if !Comm::is_dead_rank_panic(payload.as_ref()) || restarts >= MAX_RESTARTS {
                    std::panic::resume_unwind(payload);
                }
                restarts += 1;
                pf_trace::counter("dist.restarts").incr(1);
                // The planned death already happened; the replacement
                // cohort must not re-kill, and must pick up from the last
                // complete set (or the initial conditions if none exists).
                if let Some(f) = &mut attempt_cfg.faults {
                    *f = f.disarmed();
                }
                if let Some(ck) = &mut attempt_cfg.checkpoint {
                    ck.resume = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;

    /// Distributed (4 ranks) vs single-block: identical fields, bitwise.
    #[test]
    fn four_ranks_match_single_block_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 16, 1];

        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 8.0).powi(2) + (y as f64 - 8.0).powi(2)).sqrt() - 5.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_x: i64, _y: i64, _z: i64| vec![0.1];
        let steps = 4;

        // Reference single-block run.
        let mut cfg1 = SimConfig::new(global);
        cfg1.bc = [BcKind::Periodic; 3];
        let mut reference = Simulation::new(p.clone(), ks.clone(), cfg1);
        reference.init_phi(|x, y, z| init_phi(x as i64, y as i64, z as i64));
        reference.init_mu(|x, y, z| init_mu(x as i64, y as i64, z as i64));
        reference.run_steps(steps);

        // Distributed run on 4 ranks.
        let dcfg = DistConfig::new(global, 4);
        let blocks = run_distributed(&p, &ks, &dcfg, steps, init_phi, init_mu, |sim| {
            (sim.origin, sim.phi().clone(), sim.mu().clone())
        });

        for (origin, phi, mu) in blocks {
            let shape = phi.shape();
            for y in 0..shape[1] as isize {
                for x in 0..shape[0] as isize {
                    for alpha in 0..2 {
                        let want = reference.phi().get(
                            alpha,
                            x + origin[0] as isize,
                            y + origin[1] as isize,
                            0,
                        );
                        let got = phi.get(alpha, x, y, 0);
                        assert_eq!(got, want, "phi mismatch at origin {origin:?} ({x},{y})");
                    }
                    let want =
                        reference
                            .mu()
                            .get(0, x + origin[0] as isize, y + origin[1] as isize, 0);
                    assert_eq!(mu.get(0, x, y, 0), want, "mu mismatch");
                }
            }
        }
    }

    /// One thread budget: each rank's launches see an equal share of the
    /// host's cores (at least one), so ranks × threads never exceeds them.
    #[test]
    fn ranks_split_the_host_cores_between_them() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for ranks in [1, 2, 2 * cores] {
            let cfg = DistConfig::new([8 * ranks, 8, 1], ranks);
            let threads = run_distributed(
                &p,
                &ks,
                &cfg,
                0,
                |_, _, _| vec![1.0, 0.0],
                |_, _, _| vec![0.1],
                |_| rayon::current_num_threads(),
            );
            assert_eq!(
                threads,
                vec![(cores / ranks).max(1); ranks],
                "{ranks} ranks"
            );
        }
    }

    /// The tentpole invariant of the overlapped schedule: turning
    /// `comm.overlap` on changes only *when* things run, never the bits.
    #[test]
    fn overlapped_schedule_matches_blocking_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 12, 1];
        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 8.0).powi(2) + (y as f64 - 6.0).powi(2)).sqrt() - 4.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_: i64, _: i64, _: i64| vec![0.1];
        let run = |overlap: bool, phi_v: Variant, mu_v: Variant| {
            let mut dcfg = DistConfig::new(global, 4);
            dcfg.bc = [BcKind::Periodic, BcKind::Neumann, BcKind::Periodic];
            dcfg.phi_variant = phi_v;
            dcfg.mu_variant = mu_v;
            dcfg.comm.overlap = overlap;
            run_distributed(&p, &ks, &dcfg, 4, init_phi, init_mu, |sim| {
                (sim.phi().clone(), sim.mu().clone())
            })
        };
        for (phi_v, mu_v) in [
            (Variant::Full, Variant::Full),
            (Variant::Full, Variant::Split),
            (Variant::Split, Variant::Split),
        ] {
            let blocking = run(false, phi_v, mu_v);
            let overlapped = run(true, phi_v, mu_v);
            for (b, o) in blocking.iter().zip(&overlapped) {
                assert_eq!(b.0.max_abs_diff(&o.0), 0.0, "{phi_v:?}/{mu_v:?} phi");
                assert_eq!(b.1.max_abs_diff(&o.1), 0.0, "{phi_v:?}/{mu_v:?} mu");
            }
        }
    }

    /// Same invariant when the process grid leaves x undivided ([1,2,1]
    /// here): begin completes the x wrap eagerly, the frontier carries no
    /// x shells, and the fields must still match blocking bitwise.
    #[test]
    fn overlap_with_undivided_x_matches_blocking_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [8usize, 24, 1];
        assert_eq!(
            Decomposition::new(global, 2, [true; 3]).grid,
            [1, 2, 1],
            "workload no longer decomposes along y; pick another shape"
        );
        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 4.0).powi(2) + (y as f64 - 12.0).powi(2)).sqrt() - 5.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_: i64, _: i64, _: i64| vec![0.1];
        let run = |overlap: bool| {
            let mut dcfg = DistConfig::new(global, 2);
            dcfg.mu_variant = Variant::Split;
            dcfg.comm.overlap = overlap;
            run_distributed(&p, &ks, &dcfg, 4, init_phi, init_mu, |sim| {
                (sim.phi().clone(), sim.mu().clone())
            })
        };
        let blocking = run(false);
        let overlapped = run(true);
        for (b, o) in blocking.iter().zip(&overlapped) {
            assert_eq!(b.0.max_abs_diff(&o.0), 0.0, "phi");
            assert_eq!(b.1.max_abs_diff(&o.1), 0.0, "mu");
        }
    }

    /// The tentpole protocol claim: the overlapped schedule is proven
    /// deadlock-free and stale-ghost-free symbolically, for every variant
    /// combination and every divided-pattern — i.e. for any rank count.
    #[test]
    fn overlapped_schedule_protocol_is_proven_sound_for_all_patterns() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        for (phi_v, mu_v) in [
            (Variant::Full, Variant::Full),
            (Variant::Full, Variant::Split),
            (Variant::Split, Variant::Full),
            (Variant::Split, Variant::Split),
        ] {
            let diags = verify_overlap_protocol(&ks, phi_v, mu_v);
            assert!(
                diags.is_empty(),
                "{phi_v:?}/{mu_v:?}: {}",
                pf_analyze::render(&diags)
            );
        }
    }

    /// The model's view of the exchange must agree with pf-grid's actual
    /// structure: divided dims message, the expansion defers from
    /// `first_deferred_dim`, undivided decompositions produce no wire
    /// traffic.
    #[test]
    fn protocol_model_is_consistent_with_grid_exchange() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());

        // [1,2,2] grid: x wraps locally, so the deferred dim is 1 and the
        // first wire op of the expanded script must be a dim-1 send.
        let dec = Decomposition::new([4, 8, 8], 4, [true; 3]);
        assert_eq!(dec.grid, [1, 2, 2]);
        let classes = dim_classes(&dec);
        assert_eq!(
            classes.map(|c| c.divided),
            [false, true, true],
            "dim classes must mirror the process grid"
        );
        let m = overlap_protocol_model(&ks, Variant::Full, Variant::Split, classes);
        let script = pf_analyze::expand_script(&m);
        assert!(
            matches!(script[0], pf_analyze::CommOp::Send { dim, .. }
                if dim == pf_grid::first_deferred_dim(&dec)),
            "{script:?}"
        );

        // Single-rank: everything is a local wrap, nothing on the wire.
        let dec1 = Decomposition::new([8, 8, 8], 1, [true; 3]);
        let m1 = overlap_protocol_model(&ks, Variant::Full, Variant::Full, dim_classes(&dec1));
        assert!(pf_analyze::expand_script(&m1).is_empty());

        // µ kernels read both φ generations across block faces, so the µ
        // frontier must depend on phi_dst's exchange — the model has to
        // see thatread, or stale-ghost-freedom would be vacuous.
        let mu_frontier = m
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                pf_analyze::ProtoEvent::Frontier { ghost_reads, .. } => Some(ghost_reads),
                _ => None,
            })
            .expect("model has a mu frontier");
        assert!(
            mu_frontier.contains(&ks.fields.phi_dst.name()),
            "{mu_frontier:?}"
        );
    }

    /// The protocol proof carries over to hierarchical decompositions:
    /// their flat process grid is the node-grid × socket-grid product, so
    /// `dim_classes` lands on one of the 2³ patterns the verifier already
    /// covers, and `check_protocol` re-proves the exchange sound for the
    /// hierarchical neighbour sets at every scale we target.
    #[test]
    fn hierarchical_decomposition_protocol_is_proven_sound() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        for (global, nodes, rpn) in [
            ([64usize, 64, 32], 16, 16), // 256 ranks, node × socket
            ([32, 32, 16], 8, 8),        // 64 ranks
            ([16, 16, 4], 4, 4),         // 16 ranks
            ([16, 12, 1], 2, 2),         // the bitwise-suite shape
        ] {
            let dec = Decomposition::hierarchical(global, nodes, rpn, [true; 3]);
            assert_eq!(dec.nranks(), nodes * rpn);
            let classes = dim_classes(&dec);
            assert!(
                pf_analyze::all_dim_patterns().contains(&classes),
                "hierarchical pattern {classes:?} outside the proven set"
            );
            let diags = pf_analyze::check_protocol(&overlap_protocol_model(
                &ks,
                Variant::Full,
                Variant::Split,
                classes,
            ));
            assert!(
                diags.is_empty(),
                "{nodes}x{rpn} over {global:?}: {}",
                pf_analyze::render(&diags)
            );
        }
    }

    /// Hierarchical rank placement is mapping-only: the same world run
    /// with `ranks_per_node` set must reproduce the flat run bit for bit,
    /// blocking and overlapped alike.
    #[test]
    fn hierarchical_mapping_matches_flat_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 12, 1];
        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 8.0).powi(2) + (y as f64 - 6.0).powi(2)).sqrt() - 4.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_: i64, _: i64, _: i64| vec![0.1];
        // Same flat process grid either way, so blocks line up rank-for-rank.
        assert_eq!(
            Decomposition::hierarchical(global, 2, 2, [true; 3]).grid,
            Decomposition::new(global, 4, [true; 3]).grid,
        );
        let run = |rpn: Option<usize>, overlap: bool| {
            let mut dcfg = DistConfig::new(global, 4);
            dcfg.ranks_per_node = rpn;
            dcfg.comm.overlap = overlap;
            run_distributed(&p, &ks, &dcfg, 4, init_phi, init_mu, |sim| {
                (sim.phi().clone(), sim.mu().clone())
            })
        };
        for overlap in [false, true] {
            let flat = run(None, overlap);
            let hier = run(Some(2), overlap);
            for (f, h) in flat.iter().zip(&hier) {
                assert_eq!(f.0.max_abs_diff(&h.0), 0.0, "overlap={overlap} phi");
                assert_eq!(f.1.max_abs_diff(&h.1), 0.0, "overlap={overlap} mu");
            }
        }
    }

    /// Batching is a transport-level refinement: coalescing the per-field
    /// face messages into one packed message per (neighbour, epoch) must
    /// leave every ghost byte identical — including when the reliability
    /// layer is being hammered by dropped, duplicated, and delayed
    /// messages.
    #[test]
    fn batched_exchange_matches_unbatched_bitwise_under_message_faults() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 12, 1];
        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 8.0).powi(2) + (y as f64 - 6.0).powi(2)).sqrt() - 4.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_: i64, _: i64, _: i64| vec![0.1];
        let run = |batch: bool, overlap: bool, faults: Option<FaultPlan>| {
            let mut dcfg = DistConfig::new(global, 4);
            dcfg.comm.batch = batch;
            dcfg.comm.overlap = overlap;
            dcfg.faults = faults;
            run_distributed(&p, &ks, &dcfg, 4, init_phi, init_mu, |sim| {
                (sim.phi().clone(), sim.mu().clone())
            })
        };
        let plan = || {
            Some(
                FaultPlan::new(0xBA7C4)
                    .drop_prob(0.2)
                    .dup_prob(0.2)
                    .delay_prob(0.3),
            )
        };
        for overlap in [false, true] {
            let clean = run(false, overlap, None);
            for (label, res) in [
                ("batched", run(true, overlap, None)),
                ("batched+faults", run(true, overlap, plan())),
                ("unbatched+faults", run(false, overlap, plan())),
            ] {
                for (c, r) in clean.iter().zip(&res) {
                    assert_eq!(c.0.max_abs_diff(&r.0), 0.0, "{label} overlap={overlap} phi");
                    assert_eq!(c.1.max_abs_diff(&r.1), 0.0, "{label} overlap={overlap} mu");
                }
            }
        }
    }

    /// Seeded protocol mutations: each distortion of the schedule is
    /// caught by exactly the expected diagnostic family.
    #[test]
    fn mutated_schedules_are_rejected() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let dims = dim_classes(&Decomposition::new([8, 8, 8], 8, [true; 3]));
        let sound = overlap_protocol_model(&ks, Variant::Full, Variant::Full, dims);
        assert!(pf_analyze::check_protocol(&sound).is_empty());

        // Swapped exchange order: begin µ with φ's epoch and vice versa —
        // epochs regress in schedule order.
        let mut m = sound.clone();
        let (pf_analyze::ProtoEvent::Begin { epoch: e0, .. }, ..) = (&mut m.events[0],) else {
            panic!("event 0 is a begin");
        };
        *e0 = 1;
        let pf_analyze::ProtoEvent::Begin { epoch: e1, .. } = &mut m.events[1] else {
            panic!("event 1 is a begin");
        };
        *e1 = 0;
        assert!(pf_analyze::check_protocol(&m)
            .iter()
            .any(|d| d.kind.code() == "protocol.epoch-regression"),);

        // Dropped finish: the φ_dst exchange is begun but never completed.
        let mut m = sound.clone();
        m.events.retain(|e| {
            !matches!(e, pf_analyze::ProtoEvent::Finish { field }
                if *field == ks.fields.phi_dst.name())
        });
        let d = pf_analyze::check_protocol(&m);
        assert!(
            d.iter().any(|d| d.kind.code() == "protocol.dropped-finish"),
            "{}",
            pf_analyze::render(&d)
        );
        assert!(
            d.iter()
                .any(|d| d.kind.code() == "protocol.frontier-before-finish"),
            "µ frontier now reads mid-flight ghosts: {}",
            pf_analyze::render(&d)
        );

        // Frontier hoisted before the finishes: stale reads.
        let mut m = sound.clone();
        let frontier_idx = m
            .events
            .iter()
            .position(|e| matches!(e, pf_analyze::ProtoEvent::Frontier { .. }))
            .unwrap();
        let ev = m.events.remove(frontier_idx);
        m.events.insert(2, ev);
        assert!(pf_analyze::check_protocol(&m)
            .iter()
            .any(|d| d.kind.code() == "protocol.frontier-before-finish"));
    }

    #[test]
    fn mixed_boundaries_run_stably() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let mut dcfg = DistConfig::new([8, 8, 1], 2);
        dcfg.bc = [BcKind::Neumann, BcKind::Periodic, BcKind::Periodic];
        let sums = run_distributed(
            &p,
            &ks,
            &dcfg,
            3,
            |x, _, _| {
                let solid = if x < 4 { 1.0 } else { 0.0 };
                vec![1.0 - solid, solid]
            },
            |_, _, _| vec![0.05],
            |sim| sim.phi().interior_sum(1),
        );
        for s in sums {
            assert!(s.is_finite() && s >= 0.0);
        }
    }
}
