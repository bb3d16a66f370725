//! Benchmark of the distributed phase-field runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public
//! `run_distributed` with tracing off; `--trace 1` makes the traced run
//! that times each layer from outside. The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metrics.

mod e2e;
mod host;
mod spans;
mod stats;
mod traced;
mod workload;

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch directories of one benchmark process, under the benchmark's
/// own directory; removed when the run ends.
pub struct Work {
    root: PathBuf,
    seq: Cell<u64>,
}

impl Work {
    fn new(root: PathBuf) -> std::io::Result<Work> {
        std::fs::create_dir_all(&root)?;
        Ok(Work {
            root,
            seq: Cell::new(0),
        })
    }

    /// A new empty directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.seq.get();
        self.seq.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }

    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{val}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match val.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not '{val}'")),
            },
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Run every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for w in workload::WORKLOADS {
        println!("## {}", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload '{}' (one of: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    if !host::fix_allocator() {
        eprintln!("warning: could not set the allocator parameters");
    }
    // Hermetic environment, set before any thread starts: an empty tuning
    // cache of this run's own, the benchmark's native artifact cache, the
    // default engine, verification on, and no writes outside this tree.
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = match Work::new(base.join(format!("run-{}", std::process::id()))) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: create {}: {e}", base.display());
            return ExitCode::FAILURE;
        }
    };
    for var in [
        "PF_EXEC_MODE",
        "PF_TUNE",
        "PF_VERIFY",
        "PF_NATIVE_RUSTC",
        "PF_TRACE",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("PF_TUNE_CACHE_DIR", work.fresh("tune"));
    std::env::set_var("PF_NATIVE_CACHE_DIR", base.join("native-cache"));
    std::env::set_var("TMPDIR", work.fresh("tmp"));
    pf_trace::set_enabled(args.trace);

    host::print_facts();
    println!(
        "# workload {} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let seconds = args.seconds as f64;
    let outcome = if args.trace {
        traced::run(&w, args.seed, seconds, &work)
    } else {
        e2e::run(&w, args.seed, seconds, &work)
    };
    match outcome {
        Ok(o) => {
            o.metrics.print_table(w.name);
            println!(
                "# {:<11} {:<34} {:>16} {:<7} n={}",
                w.name,
                "fail_frac",
                o.failed as f64 / o.attempted.max(1) as f64,
                "frac",
                o.attempted
            );
            println!(
                "{}",
                o.metrics.result_line(o.correct, o.attempted, o.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
