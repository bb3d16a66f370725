//! The native kernel executor.
//!
//! Runs a compiled tape over a block: the moral equivalent of the paper's
//! generated C/OpenMP code. Loads and stores are resolved to (array, linear
//! offset) pairs — once per (kernel, storage geometry), the resulting
//! [`Plan`] is cached — and the spatial loops then execute the tape's level
//! sections at the right loop depths (LICM hoisting). Two interpreter loop
//! drivers: serial, and the strip-mined vectorized engine in
//! [`crate::vector`] (the paper's explicitly vectorized kernels, §3.5),
//! parallel over outer-loop slabs (the OpenMP analogue); compiled tapes
//! run through [`crate::native`].
//!
//! The only `unsafe` in the whole workspace lives in this crate: the
//! partitioned paths write disjoint outer-loop slabs of the destination arrays
//! through a shared pointer ([`RawSlice`]). The disjointness invariant —
//! every store hits the centre cell along the outer loop dimension, so two
//! outer indices can never write the same address — is checked before any
//! memory is touched; violations surface as a typed [`ExecError`] (and
//! [`run_kernel`] falls back to serial execution instead of racing).

use crate::store::FieldStore;
use pf_fields::FieldArray;
use pf_grid::IterRegion;
use pf_ir::{Tape, TapeOp};
use pf_rng::CellRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-launch execution context.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    /// Simulation time at this step.
    pub time: f64,
    /// Time step index (Philox counter component).
    pub timestep: u64,
    /// Grid spacing.
    pub dx: [f64; 3],
    /// Global index of this block's (0,0,0) cell (multi-block runs).
    pub origin: [i64; 3],
    /// RNG seed.
    pub seed: u32,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            time: 0.0,
            timestep: 0,
            dx: [1.0; 3],
            origin: [0; 3],
            seed: 0,
        }
    }
}

/// How to run the spatial loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    Serial,
    /// Strip-mined batch execution: interpret the tape over x-strips of
    /// [`crate::STRIP_WIDTH`] cells with SoA lane registers, parallelized
    /// over cache-blocked outer-loop slabs. Bitwise identical to `Serial`.
    Vectorized,
    /// Generated machine code: the tape is emitted as Rust source, compiled
    /// to a cdylib with the in-container `rustc` and dispatched through a
    /// typed C ABI (see [`crate::native`]). Artifacts are cached on disk
    /// keyed by [`Tape::structural_hash`]. Bitwise identical to `Serial`;
    /// compile failures fall back to `Vectorized` via [`run_kernel`].
    Native,
}

/// Typed launch failure. Detected before any memory is written, so the
/// bound storage is untouched when an error is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Vectorized and native execution partition the outer spatial loop
    /// across threads; a store at a nonzero offset along that dimension
    /// would let two partitions write the same cell. Run such kernels
    /// serially (or reschedule the store to the centre cell).
    NonCentreStore {
        kernel: String,
        /// The outer loop dimension (`loop_order[0]`).
        dim: usize,
        /// The offending store offset along that dimension.
        offset: i16,
    },
    /// Native execution could not obtain a compiled kernel — `rustc`
    /// failed, the cache directory is unusable, or a freshly built artifact
    /// would not load. Raised before any array is taken from the store.
    NativeCompile { kernel: String, detail: String },
    /// The compiled kernel rejected the launch argument pack (its built-in
    /// field/parameter arity checks run before any store is executed, so
    /// the bound storage holds its pre-launch contents).
    NativeAbi { kernel: String, code: i32 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NonCentreStore {
                kernel,
                dim,
                offset,
            } => write!(
                f,
                "kernel '{kernel}' stores at offset {offset} along the outer loop \
                 dimension {dim} — parallel partitions would overlap; run it serially"
            ),
            ExecError::NativeCompile { kernel, detail } => write!(
                f,
                "kernel '{kernel}' could not be compiled to native code: {detail}"
            ),
            ExecError::NativeAbi { kernel, code } => write!(
                f,
                "kernel '{kernel}': compiled artifact rejected the launch \
                 arguments (ABI check {code})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A tape instruction with its memory accesses resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    Op(TapeOp),
    /// Load from read-array `arr` at `cell_base + delta`.
    Load {
        arr: u16,
        delta: isize,
    },
    /// Store to write-array `arr` at `cell_base + delta`.
    Store {
        arr: u16,
        delta: isize,
        val: u32,
    },
}

pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    /// level boundaries: steps[..sec[0]] = level 0, ..sec[1] = ≤1, etc.
    pub(crate) sec: [usize; 4],
    /// strides (x,y,z) of each read array
    pub(crate) read_strides: Vec<[isize; 3]>,
    pub(crate) read_base: Vec<isize>,
    pub(crate) write_strides: Vec<[isize; 3]>,
    pub(crate) write_base: Vec<isize>,
    /// The tape's levels were non-monotone (a GPU-oriented reschedule), so
    /// every hoisted section collapsed to per-cell execution.
    pub(crate) licm_disabled: bool,
}

fn resolve(
    tape: &Tape,
    reads: &[&FieldArray],
    writes: &[FieldArray],
    read_map: &[usize],
    write_map: &[usize],
) -> Plan {
    let mut steps = Vec::with_capacity(tape.instrs.len());
    for op in &tape.instrs {
        match *op {
            TapeOp::Load { field, comp, off } => {
                let arr_idx = read_map[field as usize];
                let arr = reads[arr_idx];
                let [sc, sx, sy, sz] = arr.strides();
                let delta = comp as isize * sc
                    + off[0] as isize * sx
                    + off[1] as isize * sy
                    + off[2] as isize * sz;
                steps.push(Step::Load {
                    arr: arr_idx as u16,
                    delta,
                });
            }
            TapeOp::Store {
                field,
                comp,
                off,
                val,
            } => {
                let arr_idx = write_map[field as usize];
                let arr = &writes[arr_idx];
                let [sc, sx, sy, sz] = arr.strides();
                let delta = comp as isize * sc
                    + off[0] as isize * sx
                    + off[1] as isize * sy
                    + off[2] as isize * sz;
                steps.push(Step::Store {
                    arr: arr_idx as u16,
                    delta,
                    val: val.0,
                });
            }
            other => steps.push(Step::Op(other)),
        }
    }
    // Level sections are only usable when levels are monotone (the LICM
    // pass sorts them; GPU-oriented reschedules may not preserve this — then
    // everything runs per cell, which is always correct).
    let monotone = tape.levels.windows(2).all(|w| w[0] <= w[1]);
    let mut sec = [tape.instrs.len(); 4];
    if monotone {
        for (lvl, s) in sec.iter_mut().enumerate() {
            *s = tape
                .levels
                .iter()
                .position(|&l| l as usize > lvl)
                .unwrap_or(tape.instrs.len());
        }
    } else {
        sec[0] = 0;
        sec[1] = 0;
        sec[2] = 0;
    }
    let base_of = |arr: &FieldArray| -> isize { arr.index(0, 0, 0, 0) as isize };
    Plan {
        steps,
        sec,
        read_strides: reads
            .iter()
            .map(|a| {
                let [_, sx, sy, sz] = a.strides();
                [sx, sy, sz]
            })
            .collect(),
        read_base: reads.iter().map(|a| base_of(a)).collect(),
        write_strides: writes
            .iter()
            .map(|a| {
                let [_, sx, sy, sz] = a.strides();
                [sx, sy, sz]
            })
            .collect(),
        write_base: writes.iter().map(base_of).collect(),
        licm_disabled: !monotone,
    }
}

/// Cache key: the tape's structural fingerprint plus the bound storage
/// geometry (base offset and strides per field slot). Two launches with
/// equal keys resolve to byte-identical plans, so `resolve()` runs once per
/// (kernel, block shape) instead of on every launch.
#[derive(PartialEq, Eq, Hash)]
struct PlanKey {
    tape: u64,
    geom: Vec<(isize, [isize; 4])>,
}

/// One cached plan, stamped with an insertion sequence number so the growth
/// guard can evict the oldest half instead of dropping everything.
struct PlanEntry {
    seq: u64,
    plan: Arc<Plan>,
    /// Debug builds record the FNV fingerprint of the native source the
    /// tape renders and re-check it on every hit: two distinct tapes
    /// colliding on `structural_hash` would silently reuse each other's
    /// plans (and compiled artifacts), so surface that loudly.
    #[cfg(debug_assertions)]
    src_fp: u64,
}

/// Plans keyed by structural fingerprint + storage geometry.
struct PlanCache {
    map: HashMap<PlanKey, PlanEntry>,
    seq: u64,
}

/// Growth-guard threshold: reaching this many cached plans evicts the
/// oldest-inserted half.
const PLAN_CACHE_CAP: usize = 512;

fn plan_cache() -> &'static Mutex<PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(PlanCache {
            map: HashMap::new(),
            seq: 0,
        })
    })
}

fn resolve_cached(
    tape: &Tape,
    reads: &[&FieldArray],
    writes: &[FieldArray],
    read_map: &[usize],
    write_map: &[usize],
) -> Arc<Plan> {
    let geom = (0..tape.fields.len())
        .map(|slot| {
            let arr: &FieldArray = if write_map[slot] != usize::MAX {
                &writes[write_map[slot]]
            } else {
                reads[read_map[slot]]
            };
            (arr.index(0, 0, 0, 0) as isize, arr.strides())
        })
        .collect();
    let key = PlanKey {
        tape: tape.structural_hash(),
        geom,
    };
    let mut cache = plan_cache().lock().expect("plan cache poisoned");
    if let Some(entry) = cache.map.get(&key) {
        if pf_trace::enabled() {
            pf_trace::counter(&format!("exec.plan_cache.hit.{}", tape.name)).incr(1);
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            entry.src_fp,
            crate::native::source_fingerprint(tape),
            "plan-cache key collision: tape '{}' matches a cached plan's \
             structural_hash but renders different native source",
            tape.name
        );
        return Arc::clone(&entry.plan);
    }
    if pf_trace::enabled() {
        pf_trace::counter(&format!("exec.plan_cache.miss.{}", tape.name)).incr(1);
    }
    let plan = Arc::new(resolve(tape, reads, writes, read_map, write_map));
    // Growth guard: a long-lived process cycling through many distinct
    // (kernel, shape) pairs should not leak plans without bound. Evict the
    // oldest-inserted half — dropping the whole cache would force every
    // live kernel through a thundering-herd re-resolution.
    if cache.map.len() >= PLAN_CACHE_CAP {
        let mut seqs: Vec<u64> = cache.map.values().map(|e| e.seq).collect();
        seqs.sort_unstable();
        let cutoff = seqs[seqs.len() / 2];
        let before = cache.map.len();
        cache.map.retain(|_, e| e.seq >= cutoff);
        let evicted = (before - cache.map.len()) as u64;
        if pf_trace::enabled() {
            pf_trace::counter("exec.plan_cache.evict").incr(evicted);
        }
    }
    cache.seq += 1;
    let entry = PlanEntry {
        seq: cache.seq,
        plan: Arc::clone(&plan),
        #[cfg(debug_assertions)]
        src_fp: crate::native::source_fingerprint(tape),
    };
    cache.map.insert(key, entry);
    plan
}

/// Shared mutable view over a write array for the parallel paths. Safety
/// rests on the caller guaranteeing disjoint index sets per thread.
#[derive(Clone, Copy)]
pub(crate) struct RawSlice {
    ptr: *mut f64,
    len: usize,
}
unsafe impl Send for RawSlice {}
unsafe impl Sync for RawSlice {}

impl RawSlice {
    #[inline]
    pub(crate) unsafe fn write(&self, idx: usize, v: f64) {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) = v }
    }

    /// Contiguous unit-stride store of a whole strip.
    #[inline]
    pub(crate) unsafe fn write_strip(&self, idx: usize, src: &[f64]) {
        debug_assert!(idx + src.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(idx), src.len()) }
    }
}

#[inline]
pub(crate) fn f32_div(a: f64, b: f64) -> f64 {
    (a as f32 / b as f32) as f64
}

#[inline]
pub(crate) fn f32_sqrt(a: f64) -> f64 {
    (a as f32).sqrt() as f64
}

#[inline]
pub(crate) fn f32_rsqrt(a: f64) -> f64 {
    (1.0 / (a as f32).sqrt()) as f64
}

/// The extended iteration range of `tape` over a block interior: face
/// kernels sweep `domain + iter_extent` cells.
pub fn extended_range(tape: &Tape, domain: [usize; 3]) -> [usize; 3] {
    [
        domain[0] + tape.iter_extent[0],
        domain[1] + tape.iter_extent[1],
        domain[2] + tape.iter_extent[2],
    ]
}

/// Execute `tape` over the block interior (plus its `iter_extent`).
///
/// `domain` is the block's interior cell shape; the written arrays must be
/// sized to accept the extended iteration range of face kernels.
///
/// Infallible wrapper over [`run_kernel_checked`]: a kernel whose stores
/// violate the parallel partitioning constraint is re-run serially (with an
/// `exec.serial_fallback.<kernel>` trace counter) instead of panicking
/// mid-launch or racing.
pub fn run_kernel(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
) {
    let region = IterRegion::full(extended_range(tape, domain));
    run_kernel_region(tape, store, params, domain, region, ctx, mode);
}

/// Execute `tape`, returning a typed error instead of falling back when the
/// requested mode cannot run it. On `Err` the bound storage is untouched.
pub fn run_kernel_checked(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
) -> Result<(), ExecError> {
    let region = IterRegion::full(extended_range(tape, domain));
    run_kernel_region_checked(tape, store, params, domain, region, ctx, mode)
}

/// Execute `tape` over a sub-box of its extended iteration range — the
/// overlapped distributed schedule launches the interior region while halo
/// messages are in flight and the frontier shells after the receives
/// complete. Cells outside `region` are untouched; cell semantics
/// (absolute coordinates, Philox counters) are identical to a full launch,
/// so splitting a sweep into tiling regions is bitwise equivalent to one
/// [`run_kernel`] call. Falls back to serial like [`run_kernel`].
pub fn run_kernel_region(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    region: IterRegion,
    ctx: &RunCtx,
    mode: ExecMode,
) {
    match run_kernel_region_checked(tape, store, params, domain, region, ctx, mode) {
        Ok(()) => {}
        Err(ExecError::NonCentreStore { .. }) => {
            if pf_trace::enabled() {
                pf_trace::counter(&format!("exec.serial_fallback.{}", tape.name)).incr(1);
                pf_trace::counter(&format!("exec.fallback.{}", tape.name)).incr(1);
            }
            run_kernel_region_checked(tape, store, params, domain, region, ctx, ExecMode::Serial)
                .expect("serial execution has no store-offset constraints");
        }
        Err(e @ (ExecError::NativeCompile { .. } | ExecError::NativeAbi { .. })) => {
            // Native launch failure is never fatal: fall back to the
            // vectorized interpreter, which is bitwise identical. Warn once
            // per process — a broken rustc would otherwise spam every step.
            if pf_trace::enabled() {
                pf_trace::counter(&format!("exec.fallback.{}", tape.name)).incr(1);
            }
            static WARNED: std::sync::atomic::AtomicBool =
                std::sync::atomic::AtomicBool::new(false);
            if !WARNED.swap(true, std::sync::atomic::Ordering::Relaxed) {
                eprintln!(
                    "pf-backend: native execution unavailable, falling back to vectorized: {e}"
                );
            }
            // Recurse through the infallible path: a tape the vectorized
            // engine also rejects (NonCentreStore) then lands on Serial.
            run_kernel_region(
                tape,
                store,
                params,
                domain,
                region,
                ctx,
                ExecMode::Vectorized,
            );
        }
    }
}

/// Checked sub-region launch; see [`run_kernel_region`].
pub fn run_kernel_region_checked(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    region: IterRegion,
    ctx: &RunCtx,
    mode: ExecMode,
) -> Result<(), ExecError> {
    assert_eq!(
        params.len(),
        tape.params.len(),
        "kernel {} expects {} parameters",
        tape.name,
        tape.params.len()
    );

    // Loops iterate (a sub-box of) the extended range (interior +
    // face-kernel extent).
    let ext = extended_range(tape, domain);
    for d in 0..3 {
        assert!(
            region.hi[d] <= ext[d],
            "kernel {}: region {:?} exceeds the extended range {:?}",
            tape.name,
            region,
            ext
        );
    }
    let order = tape.loop_order;

    // The strip engine mines strips along the unit-stride x dimension,
    // which the LICM pass always keeps innermost (`compute_levels` asserts
    // it). Defensively run hand-built tapes that violate this serially.
    let mode = if mode == ExecMode::Vectorized && order[2] != 0 {
        ExecMode::Serial
    } else {
        mode
    };

    // Partitioned execution (Vectorized and Native) splits the outer
    // spatial loop across threads; stores off-centre along that dimension
    // would let two partitions write the same cell. Checked before any
    // array is taken out of the store, so an `Err` leaves it untouched.
    if mode != ExecMode::Serial {
        for op in &tape.instrs {
            if let TapeOp::Store { off, .. } = op {
                if off[order[0]] != 0 {
                    return Err(ExecError::NonCentreStore {
                        kernel: tape.name.clone(),
                        dim: order[0],
                        offset: off[order[0]],
                    });
                }
            }
        }
    }

    // Native mode resolves its compiled kernel before any array is taken
    // out of the store, so a compile failure leaves the storage untouched
    // (same contract as the NonCentreStore check above).
    let native_fn = if mode == ExecMode::Native {
        Some(crate::native::get_or_load(tape)?)
    } else {
        None
    };

    // Observability: one span + a few counter bumps per launch (a launch
    // sweeps a whole block, so this is far off the per-cell hot path).
    // `exec.cells` meters the actual iteration count: the region volume,
    // which for a full launch is the extended range (domain + iter_extent).
    if pf_trace::enabled() {
        pf_trace::counter(&format!("exec.launches.{}", tape.name)).incr(1);
        let n = region.cells() as u64;
        pf_trace::counter("exec.cells").incr(n);
        pf_trace::counter(&format!("exec.cells.{}", tape.name)).incr(n);
    }
    let _launch_span = pf_trace::span_lazy(|| format!("exec.kernel.{}", tape.name));

    // Partition fields into read-only and written.
    let mut written: Vec<u16> = Vec::new();
    for op in &tape.instrs {
        if let TapeOp::Store { field, .. } = op {
            if !written.contains(field) {
                written.push(*field);
            }
        }
    }
    for op in &tape.instrs {
        if let TapeOp::Load { field, .. } = op {
            assert!(
                !written.contains(field),
                "kernel {} reads and writes field {} — Jacobi-style kernels only",
                tape.name,
                tape.fields[*field as usize].name()
            );
        }
    }

    // Split borrows: take written arrays out of the store.
    let mut write_map = vec![usize::MAX; tape.fields.len()];
    let mut writes: Vec<FieldArray> = Vec::new();
    for (slot, f) in tape.fields.iter().enumerate() {
        if written.contains(&(slot as u16)) {
            write_map[slot] = writes.len();
            writes.push(store.take(*f));
        }
    }
    // A native launch can still fail after the arrays are taken out of the
    // store (the artifact's own ABI checks); the error is deferred so the
    // arrays are always re-inserted first.
    let mut deferred: Option<ExecError> = None;
    {
        let mut read_map = vec![usize::MAX; tape.fields.len()];
        let mut reads: Vec<&FieldArray> = Vec::new();
        for (slot, f) in tape.fields.iter().enumerate() {
            if write_map[slot] == usize::MAX {
                read_map[slot] = reads.len();
                reads.push(store.get(*f));
            }
        }
        // Launch gate: prove every access fits the bound arrays' actual
        // ghost layers and padding before touching any memory. This is the
        // runtime completion of pf-analyze's halo pass — generation-time
        // verification cannot know what storage a caller will bind.
        if pf_ir::verify_enabled() {
            let allocs: Vec<pf_analyze::FieldAlloc> = (0..tape.fields.len())
                .map(|slot| {
                    let arr: &FieldArray = if write_map[slot] != usize::MAX {
                        &writes[write_map[slot]]
                    } else {
                        reads[read_map[slot]]
                    };
                    let shape = arr.shape();
                    pf_analyze::FieldAlloc {
                        ghost: arr.ghost_layers(),
                        pad: [
                            shape[0].saturating_sub(domain[0]),
                            shape[1].saturating_sub(domain[1]),
                            shape[2].saturating_sub(domain[2]),
                        ],
                    }
                })
                .collect();
            let halo = pf_analyze::check_halo(tape, &allocs);
            assert!(
                halo.is_empty(),
                "kernel {} does not fit its bound storage:\n{}",
                tape.name,
                pf_analyze::render(&halo)
            );
        }

        let plan = resolve_cached(tape, &reads, &writes, &read_map, &write_map);
        // Surface LICM loss per launch: GPU-rescheduled tapes run every
        // hoisted section per cell on the CPU, silently costing throughput.
        if plan.licm_disabled && pf_trace::enabled() {
            pf_trace::counter(&format!("exec.licm_disabled.{}", tape.name)).incr(1);
        }
        let read_data: Vec<&[f64]> = reads.iter().map(|a| a.data()).collect();

        match mode {
            ExecMode::Native => {
                let func = native_fn.expect("resolved above for Native mode");
                if let Err(code) = crate::native::launch(
                    func,
                    tape,
                    &reads,
                    &mut writes,
                    &read_map,
                    &write_map,
                    params,
                    ctx,
                    region,
                ) {
                    // The artifact's arity checks run before any store, so
                    // the arrays are unmodified — but they must go back into
                    // the store before the error surfaces.
                    deferred = Some(ExecError::NativeAbi {
                        kernel: tape.name.clone(),
                        code,
                    });
                }
            }
            ExecMode::Serial => {
                let mut write_data: Vec<&mut [f64]> =
                    writes.iter_mut().map(|a| a.data_mut()).collect();
                let mut regs = vec![0.0f64; tape.instrs.len()];
                let mut cell = CellCursor::new(tape, &plan, params, ctx, region);
                cell.exec_section(&mut regs, &read_data, 0, plan.sec[0], [0; 3]);
                for o in region.lo[order[0]]..region.hi[order[0]] {
                    cell.run_outer(
                        &mut regs,
                        &read_data,
                        &mut |idx, v, arr| write_data[arr][idx] = v,
                        o,
                    );
                }
            }
            ExecMode::Vectorized => {
                let raw: Vec<RawSlice> = writes
                    .iter_mut()
                    .map(|a| {
                        let d = a.data_mut();
                        RawSlice {
                            ptr: d.as_mut_ptr(),
                            len: d.len(),
                        }
                    })
                    .collect();
                crate::vector::run_vectorized(tape, &plan, params, ctx, region, &read_data, &raw);
            }
        }
    }

    // Re-insert written arrays.
    let mut w = writes.into_iter();
    for (slot, f) in tape.fields.iter().enumerate() {
        if write_map[slot] != usize::MAX {
            store.insert(*f, w.next().expect("one array per written field"));
        }
    }
    match deferred {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Loop driver holding the per-launch constants.
struct CellCursor<'a> {
    tape: &'a Tape,
    plan: &'a Plan,
    params: &'a [f64],
    ctx: &'a RunCtx,
    region: IterRegion,
    rng: CellRng,
}

impl<'a> CellCursor<'a> {
    fn new(
        tape: &'a Tape,
        plan: &'a Plan,
        params: &'a [f64],
        ctx: &'a RunCtx,
        region: IterRegion,
    ) -> Self {
        CellCursor {
            tape,
            plan,
            params,
            ctx,
            region,
            rng: CellRng::new(ctx.seed),
        }
    }

    /// Execute one outer-loop iteration (levels 1..3 at the right depths).
    fn run_outer(
        &mut self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        write: &mut impl FnMut(usize, f64, usize),
        o: usize,
    ) {
        let order = self.tape.loop_order;
        let (s0, s1, s2, s3) = (
            self.plan.sec[0],
            self.plan.sec[1],
            self.plan.sec[2],
            self.plan.sec[3],
        );
        let mut idx3 = [0usize; 3];
        idx3[order[0]] = o;
        self.exec_section_rw(regs, read_data, write, s0, s1, idx3);
        for m in self.region.lo[order[1]]..self.region.hi[order[1]] {
            idx3[order[1]] = m;
            self.exec_section_rw(regs, read_data, write, s1, s2, idx3);
            for x in self.region.lo[order[2]]..self.region.hi[order[2]] {
                idx3[order[2]] = x;
                self.exec_section_rw(regs, read_data, write, s2, s3, idx3);
            }
        }
    }

    fn exec_section(
        &mut self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        self.exec_section_rw(regs, read_data, &mut |_, _, _| {}, from, to, idx3);
    }

    #[inline]
    fn exec_section_rw(
        &mut self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        write: &mut impl FnMut(usize, f64, usize),
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        let ctx = self.ctx;
        let approx = self.tape.approx;
        for i in from..to {
            let v = match self.plan.steps[i] {
                Step::Op(op) => match op {
                    TapeOp::Const(c) => c.0,
                    TapeOp::Param(p) => self.params[p as usize],
                    TapeOp::Coord(d) => {
                        let dd = d as usize;
                        (ctx.origin[dd] as f64 + idx3[dd] as f64 + 0.5) * ctx.dx[dd]
                    }
                    TapeOp::Time => ctx.time,
                    TapeOp::CellIdx(d) => {
                        let dd = d as usize;
                        ctx.origin[dd] as f64 + idx3[dd] as f64
                    }
                    TapeOp::Rand(lane) => self.rng.uniform_pm1(
                        [
                            ctx.origin[0] + idx3[0] as i64,
                            ctx.origin[1] + idx3[1] as i64,
                            ctx.origin[2] + idx3[2] as i64,
                        ],
                        ctx.timestep,
                        lane as u32,
                    ),
                    TapeOp::Add(a, b) => regs[a.0 as usize] + regs[b.0 as usize],
                    TapeOp::Sub(a, b) => regs[a.0 as usize] - regs[b.0 as usize],
                    TapeOp::Mul(a, b) => regs[a.0 as usize] * regs[b.0 as usize],
                    TapeOp::Div(a, b) => {
                        if approx.fast_div {
                            f32_div(regs[a.0 as usize], regs[b.0 as usize])
                        } else {
                            regs[a.0 as usize] / regs[b.0 as usize]
                        }
                    }
                    TapeOp::Neg(a) => -regs[a.0 as usize],
                    TapeOp::Sqrt(a) => {
                        if approx.fast_sqrt {
                            f32_sqrt(regs[a.0 as usize])
                        } else {
                            regs[a.0 as usize].sqrt()
                        }
                    }
                    TapeOp::RSqrt(a) => {
                        if approx.fast_rsqrt {
                            f32_rsqrt(regs[a.0 as usize])
                        } else {
                            1.0 / regs[a.0 as usize].sqrt()
                        }
                    }
                    TapeOp::Abs(a) => regs[a.0 as usize].abs(),
                    TapeOp::Min(a, b) => regs[a.0 as usize].min(regs[b.0 as usize]),
                    TapeOp::Max(a, b) => regs[a.0 as usize].max(regs[b.0 as usize]),
                    TapeOp::Exp(a) => regs[a.0 as usize].exp(),
                    TapeOp::Ln(a) => regs[a.0 as usize].ln(),
                    TapeOp::Sin(a) => regs[a.0 as usize].sin(),
                    TapeOp::Cos(a) => regs[a.0 as usize].cos(),
                    TapeOp::Tanh(a) => regs[a.0 as usize].tanh(),
                    TapeOp::Sign(a) => {
                        let x = regs[a.0 as usize];
                        if x > 0.0 {
                            1.0
                        } else if x < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    }
                    TapeOp::Floor(a) => regs[a.0 as usize].floor(),
                    TapeOp::Powf(a, b) => regs[a.0 as usize].powf(regs[b.0 as usize]),
                    TapeOp::CmpSelect { op, l, r, t, f } => {
                        if op.eval(regs[l.0 as usize], regs[r.0 as usize]) {
                            regs[t.0 as usize]
                        } else {
                            regs[f.0 as usize]
                        }
                    }
                    TapeOp::Fence => 0.0,
                    TapeOp::Load { .. } | TapeOp::Store { .. } => {
                        unreachable!("resolved in plan")
                    }
                },
                Step::Load { arr, delta } => {
                    let a = arr as usize;
                    let s = self.plan.read_strides[a];
                    let idx = self.plan.read_base[a]
                        + idx3[0] as isize * s[0]
                        + idx3[1] as isize * s[1]
                        + idx3[2] as isize * s[2]
                        + delta;
                    read_data[a][idx as usize]
                }
                Step::Store { arr, delta, val } => {
                    let a = arr as usize;
                    let s = self.plan.write_strides[a];
                    let idx = self.plan.write_base[a]
                        + idx3[0] as isize * s[0]
                        + idx3[1] as isize * s[1]
                        + idx3[2] as isize * s[2]
                        + delta;
                    let v = regs[val as usize];
                    write(idx as usize, v, a);
                    v
                }
            };
            regs[i] = v;
        }
    }
}

/// Measurement entry point for the autotuner: run a multi-pass kernel
/// (e.g. a split variant's face tapes plus its update) `sweeps` times under
/// `mode` and return the measured performance in MLUP/s.
///
/// One untimed warm-up sweep runs first so the measured sweeps see the
/// steady state the launch path sees: the plan cache already holds the
/// resolved (tape, geometry) plan, and for [`ExecMode::Native`] the kernel
/// artifact has already been compiled and dlopened (otherwise a cold
/// `rustc` invocation would be billed to the candidate's runtime).
///
/// Goes through [`run_kernel`] — the exact production entry, including its
/// serial/vectorized degradation paths — so a candidate is timed as it
/// would actually execute, not as an idealized variant of itself. The lattice
/// count is the sum of every pass's extended range (matching `exec.cells`).
pub fn time_tapes(
    tapes: &[&Tape],
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
    sweeps: usize,
) -> f64 {
    assert!(sweeps >= 1, "cannot time zero sweeps");
    for tape in tapes {
        run_kernel(tape, store, params, domain, ctx, mode);
    }
    let cells_per_sweep: usize = tapes
        .iter()
        .map(|t| {
            let e = extended_range(t, domain);
            e[0] * e[1] * e[2]
        })
        .sum();
    if pf_trace::enabled() {
        pf_trace::counter("exec.measure.runs").incr(1);
    }
    let t0 = std::time::Instant::now();
    for _ in 0..sweeps {
        for tape in tapes {
            run_kernel(tape, store, params, domain, ctx, mode);
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (cells_per_sweep * sweeps) as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_fields::Layout;
    use pf_ir::{generate, GenOptions};
    use pf_stencil::{Assignment, Discretization, StencilKernel};
    use pf_symbolic::{Access, Expr, Field};

    /// Jacobi heat step: dst = src + dt·Δsrc (2D).
    fn heat_tapes() -> (Field, Field, pf_ir::Tape) {
        let src = Field::new("ex_src", 1, 2);
        let dst = Field::new("ex_dst", 1, 2);
        let disc = Discretization::isotropic(2, 1.0);
        let u = Expr::access(Access::center(src, 0));
        let rhs: Expr = (0..2)
            .map(|d| Expr::d(Expr::num(1.0) * Expr::d(u.clone(), d), d))
            .sum();
        let update = disc.explicit_euler(Access::center(src, 0), &rhs, 0.1);
        let k = StencilKernel::new(
            "heat",
            vec![Assignment::store(Access::center(dst, 0), update)],
        );
        let tape = generate(&k, &GenOptions::default());
        (src, dst, tape)
    }

    fn setup(src: Field, dst: Field, n: usize) -> FieldStore {
        let mut store = FieldStore::new();
        store
            .allocate(src, [n, n, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, y, _| ((x * 31 + y * 17) % 7) as f64);
        store.get_mut(src).apply_periodic(0);
        store.get_mut(src).apply_periodic(1);
        store.allocate(dst, [n, n, 1], 1, Layout::Fzyx);
        store
    }

    #[test]
    #[should_panic(expected = "does not fit its bound storage")]
    fn launch_gate_rejects_out_of_halo_loads() {
        // A second-neighbour load against single-ghost storage must be
        // refused at launch, before any memory is touched.
        let src = Field::new("ex_gate_src", 1, 2);
        let dst = Field::new("ex_gate_dst", 1, 2);
        let k = StencilKernel::new(
            "gate",
            vec![Assignment::store(
                Access::center(dst, 0),
                Expr::access(Access::at(src, 0, [2, 0, 0])),
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        let mut store = setup(src, dst, 8);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [8, 8, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
    }

    #[test]
    fn heat_step_conserves_mass_with_periodic_bc() {
        let (src, dst, tape) = heat_tapes();
        let mut store = setup(src, dst, 16);
        let before = store.get(src).interior_sum(0);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [16, 16, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        let after = store.get(dst).interior_sum(0);
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn serial_and_vectorized_agree_bitwise() {
        // 20 % 8 = 4: the vectorized run exercises the remainder loop too.
        let (src, dst, tape) = heat_tapes();
        let mut s1 = setup(src, dst, 20);
        let mut s2 = setup(src, dst, 20);
        for (store, mode) in [(&mut s1, ExecMode::Serial), (&mut s2, ExecMode::Vectorized)] {
            run_kernel(&tape, store, &[], [20, 20, 1], &RunCtx::default(), mode);
        }
        assert_eq!(s1.get(dst).max_abs_diff(s2.get(dst)), 0.0);
    }

    #[test]
    fn non_centre_outer_store_is_typed_error_with_serial_fallback() {
        // A store offset along the outer loop dimension (z for the default
        // [2,1,0] order) breaks the parallel partitioning: the checked API
        // reports it as a typed error, the infallible API falls back to a
        // serial launch that produces the same cells as ExecMode::Serial.
        let src = Field::new("ex_nc_src", 1, 3);
        let dst = Field::new("ex_nc_dst", 1, 3);
        let k = StencilKernel::new(
            "nc_store",
            vec![Assignment::store(
                Access::at(dst, 0, [0, 0, 1]),
                Expr::access(Access::center(src, 0)),
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        assert_eq!(tape.loop_order[0], 2, "z must be the outer loop here");
        let mk = || {
            let mut store = FieldStore::new();
            store
                .allocate(src, [8, 4, 4], 1, Layout::Fzyx)
                .fill_with(0, |x, y, z| (x * 5 + y * 3 + z) as f64);
            store.allocate(dst, [8, 4, 4], 1, Layout::Fzyx);
            store
        };
        let ctx = RunCtx::default();

        let mut serial = mk();
        run_kernel(&tape, &mut serial, &[], [8, 4, 4], &ctx, ExecMode::Serial);

        let mode = ExecMode::Vectorized;
        let mut s = mk();
        let err = run_kernel_checked(&tape, &mut s, &[], [8, 4, 4], &ctx, mode)
            .expect_err("off-centre outer store must be rejected");
        match &err {
            ExecError::NonCentreStore {
                kernel,
                dim,
                offset,
            } => {
                assert_eq!(kernel, "nc_store");
                assert_eq!(*dim, 2);
                assert_eq!(*offset, 1);
            }
            other => panic!("expected NonCentreStore, got {other:?}"),
        }
        assert!(err.to_string().contains("outer loop"), "{err}");
        // Checked failure leaves the destination untouched…
        assert!(s.get(dst).max_abs_diff(serial.get(dst)) > 0.0);
        // …and the infallible API completes via the serial fallback.
        let mut f = mk();
        run_kernel(&tape, &mut f, &[], [8, 4, 4], &ctx, mode);
        assert_eq!(f.get(dst).max_abs_diff(serial.get(dst)), 0.0);
    }

    #[test]
    fn exec_cells_meters_the_extended_iteration_range() {
        // Regression: the counter used to multiply the interior `domain`
        // while the loops sweep domain + iter_extent — a face kernel over
        // [4,4,1] actually visits 5·4·1 = 20 cells, not 16.
        let src = Field::new("ex_mt_src", 1, 2);
        let flux = Field::new("ex_mt_flux", 1, 2);
        let d = Expr::access(Access::center(src, 0)) - Expr::access(Access::at(src, 0, [-1, 0, 0]));
        let mut k = StencilKernel::new(
            "meter_faces",
            vec![Assignment::store(Access::center(flux, 0), d)],
        );
        k.iter_extent = [1, 0, 0];
        let tape = generate(&k, &GenOptions::default());
        let mut store = FieldStore::new();
        store
            .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, _, _| x as f64);
        store.allocate(flux, [5, 5, 1], 0, Layout::Fzyx);
        let before = pf_trace::counter("exec.cells.meter_faces").value();
        run_kernel(
            &tape,
            &mut store,
            &[],
            [4, 4, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        let after = pf_trace::counter("exec.cells.meter_faces").value();
        if pf_trace::enabled() {
            assert_eq!(after - before, 20, "ext = (4+1)·4·1 cells per launch");
        }
    }

    /// The plan cache is process-global; tests asserting exact hit/miss or
    /// eviction counts must not interleave.
    fn plan_cache_test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn region_launches_tile_to_a_bitwise_identical_full_sweep() {
        // Split a 3D diffusion + Philox-noise sweep into interior plus
        // frontier shells: running the pieces must reproduce the full
        // launch bit for bit in every execution mode (the property the
        // overlapped distributed schedule rests on).
        use pf_grid::split_frontier;
        let src = Field::new("ex_rg_src", 1, 3);
        let dst = Field::new("ex_rg_dst", 1, 3);
        let disc = Discretization::isotropic(3, 1.0);
        let u = Expr::access(Access::center(src, 0));
        let rhs: Expr = (0..3)
            .map(|d| Expr::d(Expr::num(1.0) * Expr::d(u.clone(), d), d))
            .sum();
        let update = disc.explicit_euler(Access::center(src, 0), &rhs, 0.05) + Expr::rand(0) * 0.01;
        let k = StencilKernel::new(
            "region_tiled",
            vec![Assignment::store(Access::center(dst, 0), update)],
        );
        let tape = generate(&k, &GenOptions::default());
        // 20 % 8 = 4: vectorized strips hit the remainder loop too.
        let domain = [20usize, 6, 5];
        let mk = || {
            let mut store = FieldStore::new();
            store
                .allocate(src, domain, 1, Layout::Fzyx)
                .fill_with(0, |x, y, z| ((x * 7 + y * 3 + z) % 11) as f64);
            for d in 0..3 {
                store.get_mut(src).apply_periodic(d);
            }
            store.allocate(dst, domain, 1, Layout::Fzyx);
            store
        };
        let ctx = RunCtx {
            seed: 42,
            ..RunCtx::default()
        };
        for mode in [ExecMode::Serial, ExecMode::Vectorized] {
            let mut full = mk();
            run_kernel(&tape, &mut full, &[], domain, &ctx, mode);
            let mut split = mk();
            let (interior, shells) = split_frontier(domain, [1; 3], [2, 1, 1]);
            run_kernel_region(&tape, &mut split, &[], domain, interior, &ctx, mode);
            for r in &shells {
                run_kernel_region(&tape, &mut split, &[], domain, *r, &ctx, mode);
            }
            assert_eq!(
                full.get(dst).max_abs_diff(split.get(dst)),
                0.0,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn plan_cache_evicts_oldest_half_at_capacity() {
        let _guard = plan_cache_test_lock()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let src = Field::new("ex_ev_src", 1, 1);
        let dst = Field::new("ex_ev_dst", 1, 1);
        let k = StencilKernel::new(
            "plan_evict",
            vec![Assignment::store(
                Access::center(dst, 0),
                Expr::access(Access::center(src, 0)),
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        // Vary the y extent: distinct y shapes give distinct z strides and
        // base offsets (x extents are padded to the SIMD width, so nearby
        // x shapes would collapse onto one storage geometry).
        let launch = |n: usize| {
            let mut store = FieldStore::new();
            store.allocate(src, [4, n, 1], 1, Layout::Fzyx);
            store.allocate(dst, [4, n, 1], 1, Layout::Fzyx);
            run_kernel(
                &tape,
                &mut store,
                &[],
                [4, n, 1],
                &RunCtx::default(),
                ExecMode::Serial,
            );
        };
        let evictions = || pf_trace::counter("exec.plan_cache.evict").value();
        let hits = || pf_trace::counter("exec.plan_cache.hit.plan_evict").value();
        let misses = || pf_trace::counter("exec.plan_cache.miss.plan_evict").value();
        let e0 = evictions();
        // Fill the cache past capacity with distinct storage geometries.
        for n in 0..(PLAN_CACHE_CAP + 8) {
            launch(4 + n);
        }
        if pf_trace::enabled() {
            assert!(
                evictions() - e0 >= (PLAN_CACHE_CAP / 2) as u64,
                "filling past capacity must evict about half, got {}",
                evictions() - e0
            );
            // The guard keeps the *newest* half: the last geometry must
            // still be cached (the old guard cleared everything).
            let (h0, m0) = (hits(), misses());
            launch(4 + PLAN_CACHE_CAP + 7);
            assert_eq!(hits() - h0, 1, "most recent plan survives eviction");
            assert_eq!(misses() - m0, 0);
        }
    }

    #[test]
    fn plan_cache_resolves_once_per_kernel_and_shape() {
        let _guard = plan_cache_test_lock()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let src = Field::new("ex_pc_src", 1, 2);
        let dst = Field::new("ex_pc_dst", 1, 2);
        let k = StencilKernel::new(
            "plan_cached",
            vec![Assignment::store(
                Access::center(dst, 0),
                Expr::access(Access::center(src, 0)) * 2.0,
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        let hits = || pf_trace::counter("exec.plan_cache.hit.plan_cached").value();
        let misses = || pf_trace::counter("exec.plan_cache.miss.plan_cached").value();
        let (h0, m0) = (hits(), misses());
        let launch = |n: usize| {
            let mut store = FieldStore::new();
            store.allocate(src, [n, n, 1], 1, Layout::Fzyx);
            store.allocate(dst, [n, n, 1], 1, Layout::Fzyx);
            for _ in 0..3 {
                run_kernel(
                    &tape,
                    &mut store,
                    &[],
                    [n, n, 1],
                    &RunCtx::default(),
                    ExecMode::Serial,
                );
            }
        };
        launch(8);
        if pf_trace::enabled() {
            assert_eq!(misses() - m0, 1, "resolve() once for the first shape");
            assert_eq!(hits() - h0, 2, "subsequent launches hit the cache");
        }
        launch(12);
        if pf_trace::enabled() {
            assert_eq!(misses() - m0, 2, "a new block shape re-resolves");
            assert_eq!(hits() - h0, 4);
        }
    }

    #[test]
    fn matches_reference_interpreter_per_cell() {
        let (src, dst, tape) = heat_tapes();
        let mut store = setup(src, dst, 8);
        let src_copy = store.get(src).clone();
        run_kernel(
            &tape,
            &mut store,
            &[],
            [8, 8, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        // Reference: interpret per cell with a MapCtx-backed env.
        for y in 0..8isize {
            for x in 0..8isize {
                let mut ctx = pf_symbolic::MapCtx::new();
                for op in &tape.instrs {
                    if let TapeOp::Load { field, comp, off } = op {
                        let f = tape.fields[*field as usize];
                        let acc = Access::at(
                            f,
                            *comp as usize,
                            [off[0] as i32, off[1] as i32, off[2] as i32],
                        );
                        ctx.set_access(
                            acc,
                            src_copy.get(
                                *comp as usize,
                                x + off[0] as isize,
                                y + off[1] as isize,
                                0,
                            ),
                        );
                    }
                }
                let r = pf_ir::interp_expr_context(&tape, &ctx);
                let want = r.stores[0].1;
                let got = store.get(dst).get(0, x, y, 0);
                assert!(
                    (got - want).abs() < 1e-14,
                    "cell ({x},{y}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn fluctuation_kernels_are_reproducible() {
        let dst = Field::new("ex_rand_dst", 1, 2);
        let k = StencilKernel::new(
            "noise",
            vec![Assignment::store(
                Access::center(dst, 0),
                Expr::rand(0) * 0.01,
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        let run = |mode| {
            let mut store = FieldStore::new();
            store.allocate(dst, [6, 6, 1], 1, Layout::Fzyx);
            run_kernel(&tape, &mut store, &[], [6, 6, 1], &RunCtx::default(), mode);
            store.take(dst)
        };
        let a = run(ExecMode::Serial);
        let c = run(ExecMode::Vectorized);
        assert_eq!(
            a.max_abs_diff(&c),
            0.0,
            "per-strip Philox lanes match serial"
        );
        // And nonzero noise was actually produced.
        assert!(a.interior_sum(0).abs() > 0.0 || a.get(0, 1, 1, 0) != 0.0);
    }

    #[test]
    fn approx_division_changes_low_bits_only() {
        let src = Field::new("ex_ap_src", 1, 2);
        let dst = Field::new("ex_ap_dst", 1, 2);
        let rhs = Expr::one() / (Expr::access(Access::center(src, 0)) + 3.0);
        let k = StencilKernel::new("ap", vec![Assignment::store(Access::center(dst, 0), rhs)]);
        let mut exact = generate(&k, &GenOptions::default());
        let mut approx = exact.clone();
        approx.approx.fast_div = true;
        let _ = &mut exact;

        let run = |tape: &pf_ir::Tape| {
            let mut store = FieldStore::new();
            store
                .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
                .fill_with(0, |x, y, _| (x + y) as f64 * 0.37);
            store.allocate(dst, [4, 4, 1], 1, Layout::Fzyx);
            run_kernel(
                tape,
                &mut store,
                &[],
                [4, 4, 1],
                &RunCtx::default(),
                ExecMode::Serial,
            );
            store.take(dst)
        };
        let e = run(&exact);
        let a = run(&approx);
        let diff = e.max_abs_diff(&a);
        assert!(diff > 0.0, "approx mode should differ slightly");
        assert!(diff < 1e-6, "but only in low bits, got {diff}");
    }

    #[test]
    fn face_kernel_iterates_extended_domain() {
        // A staggered-style kernel writing x-faces (extent+1 along x).
        let src = Field::new("ex_fc_src", 1, 2);
        let flux = Field::new("ex_fc_flux", 1, 2);
        let d = Expr::access(Access::center(src, 0)) - Expr::access(Access::at(src, 0, [-1, 0, 0]));
        let mut k =
            StencilKernel::new("faces", vec![Assignment::store(Access::center(flux, 0), d)]);
        k.iter_extent = [1, 0, 0];
        let tape = generate(&k, &GenOptions::default());
        let mut store = FieldStore::new();
        store
            .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, _, _| (x * x) as f64);
        store.get_mut(src).apply_periodic(0);
        store.allocate(flux, [5, 5, 1], 0, Layout::Fzyx);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [4, 4, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        // interior face 2 = u(2) − u(1) = 4 − 1
        assert_eq!(store.get(flux).get(0, 2, 0, 0), 3.0);
        // extended face 4 = u(4) − u(3) = ghost(= u(0)) − u(3) = 0 − 9
        assert_eq!(store.get(flux).get(0, 4, 0, 0), -9.0);
        // face 0 = u(0) − u(−1) = 0 − ghost(= u(3)) = −9
        assert_eq!(store.get(flux).get(0, 0, 0, 0), -9.0);
    }
}
