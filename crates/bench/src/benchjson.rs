//! The schema-versioned `BENCH_<name>.json` artifact.
//!
//! Every fig/table binary emits one of these: for each kernel variant the
//! *measured* executor throughput, the ECM-*predicted* throughput for the
//! same kernel on the modeled machine, and their ratio — the feedback loop
//! the paper's methodology implies (model-driven variant selection is only
//! trustworthy while predictions track measurements). A full `pf-trace`
//! metric snapshot rides along, so a bench artifact doubles as a runtime
//! profile (kernel spans, comm counters, checkpoint drains).
//!
//! Schema `pf-bench/6` (v2 added the per-record execution `mode` and made
//! `extra.analysis` mandatory — every artifact now proves which engine was
//! measured and that static verification actually ran; v3 added
//! `extra.measured_overlap` — the *measured* blocking-vs-overlapped
//! distributed step-loop throughput on the bench host, mandatory for the
//! comm-scheduling artifacts `table2` and `fig3` so the Table 2 overlap
//! prediction is always printed next to a real measurement; v4 added
//! `"native"` to the known execution modes — kernel records measured
//! through the compiled-cdylib backend, whose `exec.native.*` cache
//! counters ride along in `metrics`; v5 added `extra.tuning` — per-kernel
//! autotuning outcomes with chosen-vs-best **regret**, mandatory for the
//! tuned artifacts (`table1`) so tuning quality is a number the perf gate
//! can fail on, not a log line; v6 added `extra.weak_scaling` — the
//! measured-vs-predicted weak-scaling series over simulated rank counts at
//! fixed per-rank volume, mandatory for the scaling artifact
//! (`weak_scaling`) so parallel efficiency is gated against the
//! `pf-cluster` prediction the same way ECM predictions gate kernels):
//!
//! ```text
//! {
//!   "schema": "pf-bench/6",
//!   "name": "fig2_left",
//!   "smoke": true,
//!   "machine": {"model": "skylake_8174", "threads_avail": 1},
//!   "kernels": [
//!     {"params": "P1", "kernel": "mu", "variant": "split",
//!      "mode": "serial", "measured_mlups": 0.91,
//!      "predicted_mlups": 1385.2, "ratio": 0.00066,
//!      "ecm": {"t_comp": ..., ...}},
//!     ...
//!   ],
//!   "extra": {
//!     "analysis": {"kernels_verified": ..., ...},
//!     "tuning": {"kernels": [
//!       {"params": "P1", "kernel": "phi",
//!        "chosen_variant": "split", "chosen_mode": "native",
//!        "static_variant": "full", "static_mode": "vectorized",
//!        "candidates": 12, "measured": 27,
//!        "best_mlups": 10.5, "chosen_mlups": 10.5, "static_mlups": 0.5,
//!        "regret_chosen": 0.0, "regret_static": 0.95}, ...]},
//!     ...
//!   },
//!   "metrics": { ... pf_trace::Report JSON ... }
//! }
//! ```
//!
//! `validate` checks structure, value sanity (finite, positive throughputs,
//! ratio consistent with measured/predicted, `mode` a known engine), and
//! that `metrics` parses back as a [`pf_trace::Report`]. `scripts/ci.sh`
//! runs it over every artifact of a bench-smoke run; `scripts/perf_gate.sh`
//! diffs fresh runs against the committed baselines.

use pf_trace::{Json, Report};
use std::collections::BTreeMap;

/// Schema identifier; bump on breaking layout changes.
pub const SCHEMA: &str = "pf-bench/6";

/// Artifacts that exercise the communication-scheduling options and must
/// therefore carry `extra.measured_overlap` (schema pf-bench/3).
pub const COMM_ARTIFACTS: [&str; 2] = ["table2", "fig3"];

/// Artifacts that run the autotuner and must therefore carry
/// `extra.tuning` (schema pf-bench/5).
pub const TUNED_ARTIFACTS: [&str; 1] = ["table1"];

/// Artifacts that sweep simulated rank counts and must therefore carry
/// `extra.weak_scaling` (schema pf-bench/6).
pub const SCALING_ARTIFACTS: [&str; 1] = ["weak_scaling"];

/// Required numeric fields of each `extra.weak_scaling.series[]` point.
pub const WEAK_SCALING_POINT_FIELDS: [&str; 5] = [
    "ranks",
    "measured_mlups_per_rank",
    "measured_efficiency",
    "predicted_mlups_per_rank",
    "predicted_efficiency",
];

/// Required string fields of each `extra.tuning.kernels[]` entry. The two
/// `*_mode` fields must also be members of [`EXEC_MODES`].
pub const TUNING_KERNEL_STR_FIELDS: [&str; 6] = [
    "params",
    "kernel",
    "chosen_variant",
    "chosen_mode",
    "static_variant",
    "static_mode",
];

/// Required numeric fields of each `extra.tuning.kernels[]` entry.
pub const TUNING_KERNEL_NUM_FIELDS: [&str; 7] = [
    "candidates",
    "measured",
    "best_mlups",
    "chosen_mlups",
    "static_mlups",
    "regret_chosen",
    "regret_static",
];

/// Field names of the `extra.measured_overlap` object.
pub const MEASURED_OVERLAP_FIELDS: [&str; 6] = [
    "ranks",
    "global_cells",
    "steps",
    "blocking_mlups",
    "overlapped_mlups",
    "speedup",
];

/// Execution-engine names a kernel record may carry (`KernelPerf::mode`).
pub const EXEC_MODES: [&str; 3] = ["serial", "vectorized", "native"];

/// Measured-vs-predicted record for one kernel variant.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelPerf {
    /// Parameterization name ("P1"/"P2").
    pub params: String,
    /// Kernel family ("mu"/"phi").
    pub kernel: String,
    /// Variant within the family ("full"/"split").
    pub variant: String,
    /// Execution engine that produced `measured_mlups` (one of
    /// [`EXEC_MODES`]: "serial", "vectorized", "native").
    pub mode: String,
    /// Executor throughput on this host, single core, MLUP/s.
    pub measured_mlups: f64,
    /// ECM-model single-core throughput on the modeled socket, MLUP/s.
    pub predicted_mlups: f64,
    /// ECM decomposition terms (cycles per cache line) and related
    /// diagnostics, free-form name → value.
    pub ecm: BTreeMap<String, f64>,
}

impl KernelPerf {
    /// Measured / predicted. The executor is an interpreter while the
    /// prediction models compiled AVX-512 code, so this sits far below 1;
    /// what matters is that it stays *stable* — a drop means the measured
    /// path regressed relative to what the model promises.
    pub fn ratio(&self) -> f64 {
        self.measured_mlups / self.predicted_mlups
    }

    /// Identity of this record inside a report (diff key). Includes the
    /// execution mode: the same kernel measured under two engines is two
    /// distinct baseline series.
    pub fn key(&self) -> String {
        format!(
            "{}/{}-{}@{}",
            self.params, self.kernel, self.variant, self.mode
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("params".into(), Json::str(&self.params)),
            ("kernel".into(), Json::str(&self.kernel)),
            ("variant".into(), Json::str(&self.variant)),
            ("mode".into(), Json::str(&self.mode)),
            ("measured_mlups".into(), Json::Num(self.measured_mlups)),
            ("predicted_mlups".into(), Json::Num(self.predicted_mlups)),
            ("ratio".into(), Json::Num(self.ratio())),
            (
                "ecm".into(),
                Json::Obj(
                    self.ecm
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<KernelPerf, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("kernel entry missing string '{k}'"))
        };
        let n = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("kernel entry missing number '{k}'"))
        };
        let mut ecm = BTreeMap::new();
        for (k, v) in j.get("ecm").and_then(Json::as_obj).into_iter().flatten() {
            ecm.insert(
                k.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("ecm term '{k}' not numeric"))?,
            );
        }
        Ok(KernelPerf {
            params: s("params")?,
            kernel: s("kernel")?,
            variant: s("variant")?,
            mode: s("mode")?,
            measured_mlups: n("measured_mlups")?,
            predicted_mlups: n("predicted_mlups")?,
            ecm,
        })
    }
}

/// One complete bench artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Binary name ("fig2_left", "table1", …).
    pub name: String,
    /// Was this a CI bench-smoke run (tiny grid) rather than a full run?
    pub smoke: bool,
    /// Modeled target machine for the predictions.
    pub machine_model: String,
    /// Host threads available when measuring.
    pub threads_avail: u64,
    pub kernels: Vec<KernelPerf>,
    /// Binary-specific payload (series, tables) — not schema-checked
    /// beyond being an object.
    pub extra: BTreeMap<String, Json>,
    /// `pf_trace` snapshot taken at emission time.
    pub metrics: Report,
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema".into(), Json::str(SCHEMA)),
            ("name".into(), Json::str(&self.name)),
            ("smoke".into(), Json::Bool(self.smoke)),
            (
                "machine".into(),
                Json::obj([
                    ("model".into(), Json::str(&self.machine_model)),
                    ("threads_avail".into(), Json::Num(self.threads_avail as f64)),
                ]),
            ),
            (
                "kernels".into(),
                Json::Arr(self.kernels.iter().map(KernelPerf::to_json).collect()),
            ),
            ("extra".into(), Json::Obj(self.extra.clone())),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<BenchReport, String> {
        let violations = validate(j);
        if !violations.is_empty() {
            return Err(violations.join("; "));
        }
        let machine = j.get("machine").unwrap();
        Ok(BenchReport {
            name: j.get("name").unwrap().as_str().unwrap().to_string(),
            smoke: j.get("smoke").unwrap().as_bool().unwrap(),
            machine_model: machine.get("model").unwrap().as_str().unwrap().to_string(),
            threads_avail: machine.get("threads_avail").unwrap().as_u64().unwrap(),
            kernels: j
                .get("kernels")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(KernelPerf::from_json)
                .collect::<Result<_, _>>()?,
            extra: j.get("extra").unwrap().as_obj().unwrap().clone(),
            metrics: Report::from_json(j.get("metrics").unwrap())?,
        })
    }

    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let j = pf_trace::parse_json(text).map_err(|e| e.to_string())?;
        BenchReport::from_json(&j)
    }
}

/// Check a parsed document against schema `pf-bench/3`. Returns every
/// violation found (empty = valid).
pub fn validate(j: &Json) -> Vec<String> {
    let mut out = Vec::new();
    match j.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => out.push(format!("schema is '{s}', expected '{SCHEMA}'")),
        None => out.push("missing string field 'schema'".into()),
    }
    match j.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => {}
        _ => out.push("missing or empty string field 'name'".into()),
    }
    if j.get("smoke").and_then(Json::as_bool).is_none() {
        out.push("missing bool field 'smoke'".into());
    }
    match j.get("machine") {
        Some(m) => {
            if m.get("model").and_then(Json::as_str).is_none() {
                out.push("machine.model missing".into());
            }
            match m.get("threads_avail").and_then(Json::as_u64) {
                Some(t) if t >= 1 => {}
                _ => out.push("machine.threads_avail must be an integer >= 1".into()),
            }
        }
        None => out.push("missing object field 'machine'".into()),
    }
    match j.get("kernels").and_then(Json::as_arr) {
        Some([]) => out.push("kernels array is empty".into()),
        Some(ks) => {
            for (i, k) in ks.iter().enumerate() {
                for field in ["params", "kernel", "variant"] {
                    if k.get(field).and_then(Json::as_str).is_none() {
                        out.push(format!("kernels[{i}].{field} missing"));
                    }
                }
                match k.get("mode").and_then(Json::as_str) {
                    Some(m) if EXEC_MODES.contains(&m) => {}
                    Some(m) => {
                        out.push(format!("kernels[{i}].mode '{m}' not one of {EXEC_MODES:?}"))
                    }
                    None => out.push(format!("kernels[{i}].mode missing")),
                }
                let num = |f: &str| k.get(f).and_then(Json::as_f64);
                match (num("measured_mlups"), num("predicted_mlups"), num("ratio")) {
                    (Some(m), Some(p), Some(r)) => {
                        if !(m.is_finite() && m > 0.0) {
                            out.push(format!("kernels[{i}].measured_mlups must be finite > 0"));
                        }
                        if !(p.is_finite() && p > 0.0) {
                            out.push(format!("kernels[{i}].predicted_mlups must be finite > 0"));
                        }
                        if m > 0.0 && p > 0.0 && ((r - m / p).abs() > 1e-9 * (m / p).abs()) {
                            out.push(format!(
                                "kernels[{i}].ratio {} inconsistent with measured/predicted {}",
                                r,
                                m / p
                            ));
                        }
                    }
                    _ => out.push(format!(
                        "kernels[{i}] missing measured_mlups/predicted_mlups/ratio"
                    )),
                }
            }
        }
        None => out.push("missing array field 'kernels'".into()),
    }
    match j.get("extra").and_then(Json::as_obj) {
        Some(extra) => {
            // Since pf-bench/2 `analysis` is mandatory (and still in v3): an object of numeric
            // statistics covering at least one verified kernel. An artifact
            // without it means the static-verification stage silently never
            // ran over the benched kernels.
            match extra.get("analysis") {
                Some(a) => match a.as_obj() {
                    Some(stats) => {
                        for (k, v) in stats {
                            if v.as_f64().is_none() {
                                out.push(format!("extra.analysis.{k} must be numeric"));
                            }
                        }
                        match stats.get("kernels_verified").and_then(Json::as_f64) {
                            Some(n) if n >= 1.0 => {}
                            Some(_) => {
                                out.push("extra.analysis.kernels_verified must be >= 1".into())
                            }
                            None => out
                                .push("extra.analysis present but kernels_verified missing".into()),
                        }
                    }
                    None => out.push("extra.analysis must be an object".into()),
                },
                None => out.push("missing object field 'extra.analysis'".into()),
            }
            // Since pf-bench/3: comm-scheduling artifacts carry the
            // *measured* blocking-vs-overlapped comparison; any artifact
            // that includes one must have it well-formed.
            let needs_overlap = j
                .get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| COMM_ARTIFACTS.contains(&n));
            match extra.get("measured_overlap") {
                Some(mo) => match mo.as_obj() {
                    Some(fields) => {
                        for f in MEASURED_OVERLAP_FIELDS {
                            match fields.get(f).and_then(Json::as_f64) {
                                Some(v) if v.is_finite() && v > 0.0 => {}
                                _ => out.push(format!(
                                    "extra.measured_overlap.{f} must be a finite number > 0"
                                )),
                            }
                        }
                        let n = |f: &str| fields.get(f).and_then(Json::as_f64);
                        if let (Some(b), Some(o), Some(s)) =
                            (n("blocking_mlups"), n("overlapped_mlups"), n("speedup"))
                        {
                            if b > 0.0 && (s - o / b).abs() > 1e-9 * (o / b).abs() {
                                out.push(format!(
                                    "extra.measured_overlap.speedup {s} inconsistent with \
                                     overlapped/blocking {}",
                                    o / b
                                ));
                            }
                        }
                    }
                    None => out.push("extra.measured_overlap must be an object".into()),
                },
                None if needs_overlap => out.push(
                    "missing object field 'extra.measured_overlap' \
                     (required for comm-scheduling artifacts)"
                        .into(),
                ),
                None => {}
            }
            // Since pf-bench/5: tuned artifacts carry the autotuning
            // outcome per kernel; wherever the block appears it must be
            // well-formed and its regrets self-consistent, so the perf
            // gate can trust `regret_chosen` as a gated number.
            let needs_tuning = j
                .get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| TUNED_ARTIFACTS.contains(&n));
            match extra.get("tuning") {
                Some(t) => match t.get("kernels").and_then(Json::as_arr) {
                    Some([]) | None => {
                        out.push("extra.tuning.kernels must be a non-empty array".into())
                    }
                    Some(ks) => {
                        for (i, k) in ks.iter().enumerate() {
                            for f in TUNING_KERNEL_STR_FIELDS {
                                match k.get(f).and_then(Json::as_str) {
                                    Some(v) if !v.is_empty() => {
                                        if f.ends_with("_mode") && !EXEC_MODES.contains(&v) {
                                            out.push(format!(
                                                "extra.tuning.kernels[{i}].{f} '{v}' \
                                                 not one of {EXEC_MODES:?}"
                                            ));
                                        }
                                    }
                                    _ => out.push(format!(
                                        "extra.tuning.kernels[{i}].{f} missing or empty"
                                    )),
                                }
                            }
                            let num = |f: &str| k.get(f).and_then(Json::as_f64);
                            for f in TUNING_KERNEL_NUM_FIELDS {
                                match num(f) {
                                    Some(v) if v.is_finite() && v >= 0.0 => {}
                                    _ => out.push(format!(
                                        "extra.tuning.kernels[{i}].{f} must be finite >= 0"
                                    )),
                                }
                            }
                            if let (Some(best), Some(chosen), Some(stat), Some(rc), Some(rs)) = (
                                num("best_mlups"),
                                num("chosen_mlups"),
                                num("static_mlups"),
                                num("regret_chosen"),
                                num("regret_static"),
                            ) {
                                if best <= 0.0 {
                                    out.push(format!(
                                        "extra.tuning.kernels[{i}].best_mlups must be > 0"
                                    ));
                                } else {
                                    let tol = 1e-9;
                                    if chosen > best * (1.0 + tol) || stat > best * (1.0 + tol) {
                                        out.push(format!(
                                            "extra.tuning.kernels[{i}]: best_mlups {best} is \
                                             not the maximum of chosen {chosen} / static {stat}"
                                        ));
                                    }
                                    let want_rc = (1.0 - chosen / best).max(0.0);
                                    let want_rs = (1.0 - stat / best).max(0.0);
                                    if (rc - want_rc).abs() > 1e-6 {
                                        out.push(format!(
                                            "extra.tuning.kernels[{i}].regret_chosen {rc} \
                                             inconsistent with 1 - chosen/best = {want_rc}"
                                        ));
                                    }
                                    if (rs - want_rs).abs() > 1e-6 {
                                        out.push(format!(
                                            "extra.tuning.kernels[{i}].regret_static {rs} \
                                             inconsistent with 1 - static/best = {want_rs}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                },
                None if needs_tuning => out.push(
                    "missing object field 'extra.tuning' (required for tuned artifacts)".into(),
                ),
                None => {}
            }
            // Since pf-bench/6: scaling artifacts carry the weak-scaling
            // series — measured and pf-cluster-predicted per-rank
            // throughput over increasing simulated rank counts at fixed
            // per-rank volume. The measured efficiency normalizes away the
            // host's time-sharing of ranks onto `machine.threads_avail`
            // threads (oversubscription factor max(1, ranks/threads)), so
            // what remains is genuine runtime overhead and the gate can
            // compare it against the analytic prediction.
            let needs_scaling = j
                .get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| SCALING_ARTIFACTS.contains(&n));
            let threads = j
                .get("machine")
                .and_then(|m| m.get("threads_avail"))
                .and_then(Json::as_f64)
                .unwrap_or(1.0);
            match extra.get("weak_scaling") {
                Some(ws) => match ws.as_obj() {
                    Some(fields) => {
                        for f in ["per_rank_cells", "steps"] {
                            match fields.get(f).and_then(Json::as_f64) {
                                Some(v) if v.is_finite() && v > 0.0 => {}
                                _ => out.push(format!(
                                    "extra.weak_scaling.{f} must be a finite number > 0"
                                )),
                            }
                        }
                        match fields.get("series").and_then(Json::as_arr) {
                            Some([]) | None => out
                                .push("extra.weak_scaling.series must be a non-empty array".into()),
                            Some(pts) => {
                                let mut prev_ranks = 0.0f64;
                                let num = |p: &Json, f: &str| p.get(f).and_then(Json::as_f64);
                                let base = pts.first().unwrap();
                                for (i, p) in pts.iter().enumerate() {
                                    for f in WEAK_SCALING_POINT_FIELDS {
                                        match num(p, f) {
                                            Some(v) if v.is_finite() && v > 0.0 => {}
                                            _ => out.push(format!(
                                                "extra.weak_scaling.series[{i}].{f} must be \
                                                 a finite number > 0"
                                            )),
                                        }
                                    }
                                    if let Some(r) = num(p, "ranks") {
                                        if r <= prev_ranks {
                                            out.push(format!(
                                                "extra.weak_scaling.series[{i}].ranks {r} not \
                                                 strictly increasing"
                                            ));
                                        }
                                        prev_ranks = r;
                                    }
                                    let corrected = |p: &Json| -> Option<f64> {
                                        let r = num(p, "ranks")?;
                                        Some(
                                            num(p, "measured_mlups_per_rank")?
                                                * (r / threads).max(1.0),
                                        )
                                    };
                                    if let (Some(c), Some(c0), Some(eff)) = (
                                        corrected(p),
                                        corrected(base),
                                        num(p, "measured_efficiency"),
                                    ) {
                                        let want = c / c0;
                                        if (eff - want).abs() > 1e-6 * want.abs() {
                                            out.push(format!(
                                                "extra.weak_scaling.series[{i}].\
                                                 measured_efficiency {eff} inconsistent with \
                                                 oversubscription-corrected per-rank rates \
                                                 ({want})"
                                            ));
                                        }
                                    }
                                    if let (Some(p_r), Some(p_0), Some(eff)) = (
                                        num(p, "predicted_mlups_per_rank"),
                                        num(base, "predicted_mlups_per_rank"),
                                        num(p, "predicted_efficiency"),
                                    ) {
                                        let want = p_r / p_0;
                                        if (eff - want).abs() > 1e-9 * want.abs() {
                                            out.push(format!(
                                                "extra.weak_scaling.series[{i}].\
                                                 predicted_efficiency {eff} inconsistent with \
                                                 predicted per-rank rates ({want})"
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    None => out.push("extra.weak_scaling must be an object".into()),
                },
                None if needs_scaling => out.push(
                    "missing object field 'extra.weak_scaling' \
                     (required for scaling artifacts)"
                        .into(),
                ),
                None => {}
            }
        }
        None => out.push("missing object field 'extra'".into()),
    }
    match j.get("metrics") {
        Some(m) => {
            if let Err(e) = Report::from_json(m) {
                out.push(format!("metrics does not parse as a pf-trace report: {e}"));
            }
        }
        None => out.push("missing object field 'metrics'".into()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            name: "unit".into(),
            smoke: true,
            machine_model: "skylake_8174".into(),
            threads_avail: 4,
            kernels: vec![KernelPerf {
                params: "P1".into(),
                kernel: "mu".into(),
                variant: "split".into(),
                mode: "serial".into(),
                measured_mlups: 0.5,
                predicted_mlups: 1200.0,
                ecm: [("t_comp".to_string(), 123.0)].into_iter().collect(),
            }],
            extra: [
                ("note".to_string(), Json::str("hello")),
                (
                    "analysis".to_string(),
                    Json::obj([("kernels_verified".to_string(), Json::Num(8.0))]),
                ),
            ]
            .into_iter()
            .collect(),
            metrics: Report::default(),
        }
    }

    #[test]
    fn roundtrip_serialize_parse_equal() {
        let r = sample();
        assert_eq!(BenchReport::parse(&r.to_json().to_pretty()).unwrap(), r);
    }

    #[test]
    fn valid_report_passes_validation() {
        assert!(validate(&sample().to_json()).is_empty());
    }

    #[test]
    fn validation_catches_violations() {
        let mut j = sample().to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("schema".into(), Json::str("pf-bench/999"));
            m.remove("machine");
        }
        let v = validate(&j);
        assert!(v.iter().any(|e| e.contains("schema")));
        assert!(v.iter().any(|e| e.contains("machine")));
    }

    #[test]
    fn validation_catches_bad_ratio_and_nonpositive_mlups() {
        let mut r = sample();
        r.kernels[0].measured_mlups = -1.0;
        let mut j = r.to_json();
        // Also corrupt the ratio field directly.
        if let Some(Json::Arr(ks)) = j.get("kernels").cloned() {
            let mut k0 = ks[0].clone();
            if let Json::Obj(m) = &mut k0 {
                m.insert("measured_mlups".into(), Json::Num(2.0));
                m.insert("ratio".into(), Json::Num(42.0));
            }
            if let Json::Obj(top) = &mut j {
                top.insert("kernels".into(), Json::Arr(vec![k0]));
            }
        }
        let v = validate(&j);
        assert!(v.iter().any(|e| e.contains("ratio")), "{v:?}");
    }

    #[test]
    fn mode_field_is_required_and_enumerated() {
        // key() carries the mode so per-engine series stay distinct.
        assert_eq!(sample().kernels[0].key(), "P1/mu-split@serial");

        let mut r = sample();
        r.kernels[0].mode = "vectorized".into();
        assert!(validate(&r.to_json()).is_empty());

        r.kernels[0].mode = "avx9000".into();
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("mode 'avx9000'")), "{v:?}");

        let mut j = sample().to_json();
        if let Some(Json::Arr(ks)) = j.get("kernels").cloned() {
            let mut k0 = ks[0].clone();
            if let Json::Obj(m) = &mut k0 {
                m.remove("mode");
            }
            if let Json::Obj(top) = &mut j {
                top.insert("kernels".into(), Json::Arr(vec![k0]));
            }
        }
        let v = validate(&j);
        assert!(v.iter().any(|e| e.contains("mode missing")), "{v:?}");
    }

    #[test]
    fn analysis_extra_is_required_and_checked() {
        // Absent: the schema (mandatory since v2) rejects it — verification never ran.
        let mut r = sample();
        r.extra.remove("analysis");
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("extra.analysis")), "{v:?}");

        // Present and well-formed: valid.
        let mut r = sample();
        r.extra.insert(
            "analysis".into(),
            Json::obj([
                ("kernels_verified".to_string(), Json::Num(8.0)),
                ("errors".to_string(), Json::Num(0.0)),
                ("halo_width.phi".to_string(), Json::Num(1.0)),
            ]),
        );
        assert!(validate(&r.to_json()).is_empty());

        // Zero kernels verified means the stage silently did nothing.
        let mut r = sample();
        r.extra.insert(
            "analysis".into(),
            Json::obj([("kernels_verified".to_string(), Json::Num(0.0))]),
        );
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("kernels_verified")), "{v:?}");

        // Non-numeric statistics and non-object payloads are violations.
        let mut r = sample();
        r.extra.insert(
            "analysis".into(),
            Json::obj([
                ("kernels_verified".to_string(), Json::Num(1.0)),
                ("errors".to_string(), Json::str("none")),
            ]),
        );
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("must be numeric")), "{v:?}");

        let mut r = sample();
        r.extra.insert("analysis".into(), Json::str("oops"));
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("must be an object")), "{v:?}");
    }

    #[test]
    fn measured_overlap_is_required_for_comm_artifacts_and_checked() {
        let overlap_obj = |speedup: f64| {
            Json::obj([
                ("ranks".to_string(), Json::Num(2.0)),
                ("global_cells".to_string(), Json::Num(2048.0)),
                ("steps".to_string(), Json::Num(2.0)),
                ("blocking_mlups".to_string(), Json::Num(1.0)),
                ("overlapped_mlups".to_string(), Json::Num(1.1)),
                ("speedup".to_string(), Json::Num(speedup)),
            ])
        };

        // A comm-scheduling artifact without the measurement is invalid…
        let mut r = sample();
        r.name = "table2".into();
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("measured_overlap")), "{v:?}");

        // …and valid once it carries a well-formed one.
        r.extra.insert("measured_overlap".into(), overlap_obj(1.1));
        assert!(validate(&r.to_json()).is_empty());

        // Other artifacts may omit it entirely (sample() does).
        assert!(validate(&sample().to_json()).is_empty());

        // But a present-but-inconsistent speedup is a violation anywhere.
        let mut r = sample();
        r.extra.insert("measured_overlap".into(), overlap_obj(3.0));
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("speedup")), "{v:?}");

        // As is a missing field.
        let mut r = sample();
        r.name = "fig3".into();
        r.extra.insert(
            "measured_overlap".into(),
            Json::obj([("ranks".to_string(), Json::Num(2.0))]),
        );
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("blocking_mlups")), "{v:?}");
    }

    fn tuning_obj(regret_chosen: f64) -> Json {
        let best = 10.0;
        let chosen = best * (1.0 - regret_chosen);
        Json::obj([(
            "kernels".to_string(),
            Json::Arr(vec![Json::obj([
                ("params".to_string(), Json::str("P1")),
                ("kernel".to_string(), Json::str("phi")),
                ("chosen_variant".to_string(), Json::str("split")),
                ("chosen_mode".to_string(), Json::str("native")),
                ("static_variant".to_string(), Json::str("full")),
                ("static_mode".to_string(), Json::str("vectorized")),
                ("candidates".to_string(), Json::Num(12.0)),
                ("measured".to_string(), Json::Num(27.0)),
                ("best_mlups".to_string(), Json::Num(best)),
                ("chosen_mlups".to_string(), Json::Num(chosen)),
                ("static_mlups".to_string(), Json::Num(2.0)),
                ("regret_chosen".to_string(), Json::Num(regret_chosen)),
                ("regret_static".to_string(), Json::Num(0.8)),
            ])]),
        )])
    }

    #[test]
    fn tuning_extra_is_required_for_tuned_artifacts_and_checked() {
        // A tuned artifact without the block is invalid…
        let mut r = sample();
        r.name = "table1".into();
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("extra.tuning")), "{v:?}");

        // …and valid once it carries a well-formed one.
        r.extra.insert("tuning".into(), tuning_obj(0.0));
        assert!(validate(&r.to_json()).is_empty());

        // Other artifacts may omit it entirely (sample() does).
        assert!(validate(&sample().to_json()).is_empty());

        // Inconsistent regret is a violation anywhere the block appears.
        let mut r = sample();
        let mut t = tuning_obj(0.0);
        if let Json::Obj(m) = &mut t {
            if let Some(Json::Arr(ks)) = m.get_mut("kernels") {
                if let Json::Obj(k) = &mut ks[0] {
                    k.insert("regret_chosen".into(), Json::Num(0.5));
                }
            }
        }
        r.extra.insert("tuning".into(), t);
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("regret_chosen")), "{v:?}");

        // An unknown engine name in chosen_mode is a violation.
        let mut r = sample();
        let mut t = tuning_obj(0.0);
        if let Json::Obj(m) = &mut t {
            if let Some(Json::Arr(ks)) = m.get_mut("kernels") {
                if let Json::Obj(k) = &mut ks[0] {
                    k.insert("chosen_mode".into(), Json::str("quantum"));
                }
            }
        }
        r.extra.insert("tuning".into(), t);
        let v = validate(&r.to_json());
        assert!(
            v.iter().any(|e| e.contains("chosen_mode 'quantum'")),
            "{v:?}"
        );

        // An empty kernels array means the tuner silently did nothing.
        let mut r = sample();
        r.extra.insert(
            "tuning".into(),
            Json::obj([("kernels".to_string(), Json::Arr(vec![]))]),
        );
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("non-empty")), "{v:?}");

        // A chosen_mlups above best_mlups breaks the regret invariant.
        let mut r = sample();
        let mut t = tuning_obj(0.0);
        if let Json::Obj(m) = &mut t {
            if let Some(Json::Arr(ks)) = m.get_mut("kernels") {
                if let Json::Obj(k) = &mut ks[0] {
                    k.insert("chosen_mlups".into(), Json::Num(99.0));
                }
            }
        }
        r.extra.insert("tuning".into(), t);
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("not the maximum")), "{v:?}");
    }

    /// A well-formed weak-scaling block for a 4-thread machine (matching
    /// `sample()`'s `threads_avail`): the 8-rank point is 2× oversubscribed,
    /// so its corrected efficiency is `(raw * 2) / raw₀`.
    fn scaling_block() -> Json {
        let pt = |ranks: f64, m: f64, me: f64, p: f64, pe: f64| {
            Json::obj([
                ("ranks".to_string(), Json::Num(ranks)),
                ("measured_mlups_per_rank".to_string(), Json::Num(m)),
                ("measured_efficiency".to_string(), Json::Num(me)),
                ("predicted_mlups_per_rank".to_string(), Json::Num(p)),
                ("predicted_efficiency".to_string(), Json::Num(pe)),
            ])
        };
        Json::obj([
            ("per_rank_cells".to_string(), Json::Num(256.0)),
            ("steps".to_string(), Json::Num(2.0)),
            (
                "series".to_string(),
                Json::Arr(vec![
                    pt(2.0, 0.40, 1.0, 6.0, 1.0),
                    pt(8.0, 0.19, 0.95, 5.9, 5.9 / 6.0),
                ]),
            ),
        ])
    }

    #[test]
    fn scaling_artifacts_require_a_consistent_weak_scaling_block() {
        // The scaling artifact without the block is rejected.
        let mut r = sample();
        r.name = "weak_scaling".into();
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("extra.weak_scaling")), "{v:?}");

        // With a well-formed block it passes.
        let mut r = sample();
        r.name = "weak_scaling".into();
        r.extra.insert("weak_scaling".into(), scaling_block());
        assert!(
            validate(&r.to_json()).is_empty(),
            "{:?}",
            validate(&r.to_json())
        );

        // An efficiency inconsistent with the per-rank rates is caught.
        let mut bad = scaling_block();
        if let Some(Json::Arr(pts)) = bad.get("series").cloned() {
            let mut p1 = pts[1].clone();
            if let Json::Obj(m) = &mut p1 {
                m.insert("measured_efficiency".into(), Json::Num(0.5));
            }
            if let Json::Obj(top) = &mut bad {
                top.insert("series".into(), Json::Arr(vec![pts[0].clone(), p1]));
            }
        }
        let mut r = sample();
        r.name = "weak_scaling".into();
        r.extra.insert("weak_scaling".into(), bad);
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("measured_efficiency")), "{v:?}");

        // Non-increasing rank counts are caught.
        let mut dup = scaling_block();
        if let Some(Json::Arr(pts)) = dup.get("series").cloned() {
            if let Json::Obj(top) = &mut dup {
                top.insert(
                    "series".into(),
                    Json::Arr(vec![pts[0].clone(), pts[0].clone()]),
                );
            }
        }
        let mut r = sample();
        r.name = "weak_scaling".into();
        r.extra.insert("weak_scaling".into(), dup);
        let v = validate(&r.to_json());
        assert!(v.iter().any(|e| e.contains("strictly increasing")), "{v:?}");
    }

    #[test]
    fn committed_baselines_stay_schema_valid() {
        // Schema extensions must never orphan the committed artifacts the
        // perf gate diffs against.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("baselines/ exists") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            BenchReport::parse(&text)
                .unwrap_or_else(|e| panic!("{} no longer validates: {e}", path.display()));
            checked += 1;
        }
        assert!(
            checked >= 9,
            "expected the 9 committed baselines, saw {checked}"
        );
    }
}
