//! Robustness of the on-disk tuning cache (crates/core/src/tune.rs).
//!
//! The contract under test: a damaged or foreign cache can cost speed but
//! never correctness or availability. Corrupted, truncated, or
//! version-mismatched entries are rejected with typed counters and the
//! engine consult falls back to the default engine — exactly what an empty
//! cache produces — and concurrent ranks sharing one cache directory never
//! observe a half-written entry (installs are unique-tmp + atomic rename).
//! The tuner itself is driven end to end: cold miss → measure → persist →
//! warm hit with zero measurement.

use pf_backend::ExecMode;
use pf_core::{
    default_exec_mode, family_fingerprint, generate_kernels, tune_kernel_set, tuned_exec_mode,
    Family, KernelSet, TuneCache, TuneEntry, TuneOptions, Variant,
};
use pf_ir::GenOptions;
use pf_machine::{skylake_8174, CpuSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pf-tunecache-{tag}-{}-{}",
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

/// Small 2-phase model — fast to generate, same code paths as P1/P2.
fn mini() -> pf_core::ModelParams {
    let mut p = pf_core::p1();
    p.name = "tunecache-mini".into();
    p.phases = 2;
    p.components = 2;
    p.dim = 2;
    p.gamma = vec![vec![0.0, 0.4], vec![0.4, 0.0]];
    p.tau = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
    p.diffusivity = vec![1.0, 0.1];
    p.a_coeff = vec![vec![-0.5], vec![-0.5]];
    p.b_coeff = vec![vec![(0.0, 0.05)], vec![(-0.3, 0.05)]];
    p.c_coeff = vec![(0.01, 0.0), (0.01, 0.0)];
    p.orientation = vec![0.0, 0.0];
    p.temperature.gradient = 0.0;
    p
}

fn kernels() -> KernelSet {
    generate_kernels(&mini(), &GenOptions::default())
}

fn entry(mode: ExecMode, mlups: f64) -> TuneEntry {
    TuneEntry {
        variant: Variant::Split,
        mode,
        measured_mlups: mlups,
    }
}

fn counter(name: &str) -> u64 {
    pf_trace::snapshot()
        .counters
        .get(name)
        .map(|c| c.total)
        .unwrap_or(0)
}

/// Seed both family entries so the all-or-nothing consult can hit.
fn store_both(cache: &TuneCache, ks: &KernelSet, sock: &CpuSocket, shape: [usize; 3]) {
    let fp = sock.fingerprint();
    cache
        .store(
            fp,
            family_fingerprint(ks, Family::Phi),
            shape,
            &entry(ExecMode::Serial, 0.5),
        )
        .expect("store phi entry");
    cache
        .store(
            fp,
            family_fingerprint(ks, Family::Mu),
            shape,
            &entry(ExecMode::Vectorized, 1.0),
        )
        .expect("store mu entry");
}

const SHAPE: [usize; 3] = [16, 12, 1];

#[test]
fn roundtrip_preserves_the_entry_bit_for_bit() {
    let scratch = Scratch::new("roundtrip");
    let cache = TuneCache::at(&scratch.0);
    let want = entry(ExecMode::Native, 12.345678901234567);
    cache.store(1, 2, SHAPE, &want).expect("store");
    let got = cache.load(1, 2, SHAPE).expect("load back");
    assert_eq!(got, want);
    // A different key must miss, not alias.
    assert!(cache.load(1, 3, SHAPE).is_none());
    assert!(cache.load(1, 2, [16, 12, 2]).is_none());
}

#[test]
fn warm_hit_flips_selection_and_damage_falls_back_to_the_static_choice() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("damage");
    let cache = TuneCache::at(&scratch.0);
    let consult = || tuned_exec_mode(Some(&cache), &ks, &sock, SHAPE);

    // Warm: both families hit; the slower family (phi, 0.5 MLUP/s) pins
    // the engine.
    store_both(&cache, &ks, &sock, SHAPE);
    assert_eq!(consult(), Some(ExecMode::Serial));

    // Corrupt one entry: flip a byte past the header so the checksum
    // breaks. The consult must fall back, so callers keep the default.
    let phi_path = cache.entry_path(
        sock.fingerprint(),
        family_fingerprint(&ks, Family::Phi),
        SHAPE,
    );
    let mut bytes = std::fs::read(&phi_path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&phi_path, &bytes).expect("rewrite corrupted");
    let corrupt0 = counter("tune.cache.corrupt");
    assert_eq!(consult(), None, "damage falls back to the default engine");
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.corrupt") > corrupt0,
            "typed corrupt counter"
        );
    }

    // Truncate it instead: same fallback, still the corrupt counter.
    std::fs::write(&phi_path, &bytes[..10]).expect("truncate");
    let corrupt1 = counter("tune.cache.corrupt");
    assert_eq!(consult(), None);
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.corrupt") > corrupt1,
            "truncated counts as corrupt"
        );
    }

    // A well-sealed entry whose exec-mode byte is no longer an engine
    // (1 was the retired outer-loop-parallel interpreter): the checksum
    // passes, the mode decode rejects it, same fallback and counter.
    store_both(&cache, &ks, &sock, SHAPE);
    let mut bytes = std::fs::read(&phi_path).expect("read entry");
    bytes[MODE_BYTE] = 1;
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&phi_path, &bytes).expect("rewrite retired mode");
    let corrupt2 = counter("tune.cache.corrupt");
    assert_eq!(consult(), None);
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.corrupt") > corrupt2,
            "an unknown exec mode counts as corrupt"
        );
    }
}

/// Offset of the exec-mode byte in an entry: magic (8), version (4), host,
/// machine and tapes fingerprints (3 × 8), shape (3 × 8), variant (1).
const MODE_BYTE: usize = 61;

/// FNV-1a 64, the entry checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Field handles are process-global, so every generation mints new ones;
/// the cache keys must not see them. Generating P1 twice has to give the
/// same structural hash on every tape and the same family fingerprints,
/// or every native artifact, plan and tuning entry would miss.
#[test]
fn regenerating_p1_keeps_every_cache_key() {
    let a = generate_kernels(&pf_core::p1(), &GenOptions::default());
    let b = generate_kernels(&pf_core::p1(), &GenOptions::default());
    let hashes = |ks: &KernelSet| -> Vec<(String, u64)> {
        [
            &ks.phi_full,
            &ks.mu_full,
            &ks.phi_split.update,
            &ks.mu_split.update,
        ]
        .into_iter()
        .chain(&ks.phi_split.flux_tapes)
        .chain(&ks.mu_split.flux_tapes)
        .map(|t| (t.name.clone(), t.structural_hash()))
        .collect()
    };
    assert_eq!(hashes(&a), hashes(&b));
    for family in [Family::Phi, Family::Mu] {
        assert_eq!(
            family_fingerprint(&a, family),
            family_fingerprint(&b, family),
            "{family:?}"
        );
    }
}

#[test]
fn version_mismatched_entries_are_rejected_before_the_checksum() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("version");
    let cache = TuneCache::at(&scratch.0);
    store_both(&cache, &ks, &sock, SHAPE);

    // Patch the version field (bytes 8..12, after the magic) of one entry.
    // The reader checks the version *before* the checksum, so a future
    // format is cleanly "unsupported version", not "corrupt" — and the
    // consult falls back to the default engine either way.
    let mu_path = cache.entry_path(
        sock.fingerprint(),
        family_fingerprint(&ks, Family::Mu),
        SHAPE,
    );
    let mut bytes = std::fs::read(&mu_path).expect("read entry");
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&mu_path, &bytes).expect("rewrite versioned");

    let vm0 = counter("tune.cache.version_mismatch");
    let corrupt0 = counter("tune.cache.corrupt");
    assert_eq!(
        tuned_exec_mode(Some(&cache), &ks, &sock, SHAPE),
        None,
        "lone phi hit is not enough"
    );
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.version_mismatch") > vm0,
            "typed version_mismatch counter"
        );
        assert_eq!(
            counter("tune.cache.corrupt"),
            corrupt0,
            "a version mismatch is not misreported as corruption"
        );
    }
}

#[test]
fn lone_family_hit_keeps_the_static_choice() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("lone");
    let cache = TuneCache::at(&scratch.0);
    // Only phi present: all-or-nothing selection must not half-apply.
    cache
        .store(
            sock.fingerprint(),
            family_fingerprint(&ks, Family::Phi),
            SHAPE,
            &entry(ExecMode::Serial, 0.5),
        )
        .expect("store phi entry");
    assert_eq!(tuned_exec_mode(Some(&cache), &ks, &sock, SHAPE), None);
}

/// Concurrent ranks hammering one cache directory — mixed stores of
/// different winners and loads of the same key — must never observe a
/// torn entry: every load either misses or decodes to one of the exact
/// entries some thread stored (atomic unique-tmp + rename installs).
#[test]
fn concurrent_ranks_sharing_a_cache_dir_never_see_torn_entries() {
    let scratch = Scratch::new("race");
    let dir = scratch.0.clone();
    let candidates: Vec<TuneEntry> = vec![
        entry(ExecMode::Serial, 1.0),
        entry(ExecMode::Vectorized, 2.0),
        entry(ExecMode::Native, 3.0),
        entry(ExecMode::Native, 4.0),
    ];
    let corrupt0 = counter("tune.cache.corrupt");
    std::thread::scope(|s| {
        for (t, mine) in candidates.iter().enumerate() {
            let dir = dir.clone();
            let candidates = &candidates;
            s.spawn(move || {
                let cache = TuneCache::at(dir);
                for round in 0..25 {
                    cache
                        .store(7, 42, SHAPE, mine)
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: store failed: {e}"));
                    if let Some(seen) = cache.load(7, 42, SHAPE) {
                        assert!(
                            candidates.contains(&seen),
                            "thread {t} round {round}: read an entry nobody wrote: {seen:?}"
                        );
                    }
                }
            });
        }
    });
    if pf_trace::enabled() {
        assert_eq!(
            counter("tune.cache.corrupt"),
            corrupt0,
            "no load ever saw a half-installed entry"
        );
    }
    // The survivor is whichever store landed last — still a valid entry.
    let survivor = TuneCache::at(&scratch.0)
        .load(7, 42, SHAPE)
        .expect("entry survives");
    assert!(candidates.contains(&survivor));
}

#[test]
fn cache_dir_env_is_respected() {
    // The only env knob left is the directory. The mutation is benign for
    // concurrent tests in this binary: nothing else here consults
    // `TuneCache::from_env`.
    let scratch = Scratch::new("env");
    std::env::set_var("PF_TUNE_CACHE_DIR", &scratch.0);
    let cache = TuneCache::from_env().expect("the cache is always on");
    assert_eq!(cache.dir(), scratch.0.as_path());
    std::env::remove_var("PF_TUNE_CACHE_DIR");
    let cache = TuneCache::from_env().expect("the cache is always on");
    assert_eq!(cache.dir(), std::env::temp_dir().join("pf-tune-cache"));
}

/// The tuner end to end on the mini model: a cold consult misses both
/// families, one tuning run measures full and split per family and
/// persists the winners, and the warm consult returns the engine they ran
/// under without measuring anything.
#[test]
fn tune_round_trip_persists_both_families_and_warm_consults_measure_nothing() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("tune");
    let cache = TuneCache::at(&scratch.0);

    let miss0 = counter("tune.cache.miss");
    assert_eq!(tuned_exec_mode(Some(&cache), &ks, &sock, SHAPE), None);
    if pf_trace::enabled() {
        // Other tests in this binary may miss concurrently: at least two.
        assert!(
            counter("tune.cache.miss") >= miss0 + 2,
            "one miss per family"
        );
    }

    let opts = TuneOptions::default();
    let reports = tune_kernel_set(&mini(), &ks, &sock, SHAPE, Some(&cache), &opts);
    assert_eq!(reports.len(), 2);
    for r in &reports {
        assert_eq!(r.candidates, 2, "{:?}: full and split", r.family);
        assert_eq!(r.measured, 2 * opts.reps);
        assert_eq!(r.regret_chosen, 0.0, "a cold run keeps the measured best");
        assert_eq!(r.entry.mode, default_exec_mode(SHAPE));
        assert!(r.best_mlups > 0.0);
        let persisted = cache.load(sock.fingerprint(), family_fingerprint(&ks, r.family), SHAPE);
        assert_eq!(persisted.as_ref(), Some(&r.entry));
    }

    let meas0 = counter("tune.measurements");
    assert_eq!(
        tuned_exec_mode(Some(&cache), &ks, &sock, SHAPE),
        Some(default_exec_mode(SHAPE))
    );
    assert_eq!(
        counter("tune.measurements"),
        meas0,
        "a warm consult measures nothing"
    );
}
