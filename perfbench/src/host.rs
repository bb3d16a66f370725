//! Facts about the host, printed with every result so that runs from
//! different machines are never compared silently.

use std::path::Path;

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Unified/data cache sizes of cpu0 by level, from sysfs.
fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(format!("{dir}/level")),
            read(format!("{dir}/type")),
            read(format!("{dir}/size")),
        ) else {
            continue;
        };
        if kind != "Instruction" {
            out.push((format!("L{level}"), size));
        }
    }
    out
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn print_facts() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = cache_sizes()
        .into_iter()
        .map(|(l, s)| format!("{l}={s}"))
        .collect();
    println!("# host nproc={nproc} cpu=\"{}\"", cpu_model());
    println!("# host caches {}", caches.join(" "));
    println!("# host {}", rustc_version());
}

/// Restart the peak-RSS count (`VmHWM`) from the current resident size.
/// Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: return free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter number.
const M_ARENA_MAX: i32 = -8;
/// glibc's `M_MMAP_THRESHOLD` parameter number.
const M_MMAP_THRESHOLD: i32 = -3;

/// Make the allocator's memory use repeatable: every thread allocates
/// from one arena, and blocks of 128 KiB and more (glibc's starting
/// threshold) always get a mapping of their own, which goes back to the
/// system when freed. Each world call starts new rank threads. With one
/// arena per thread, memory freed by one call stayed in arenas the next
/// call might not use, and the resident size grew call by call. With a
/// threshold that rises as blocks are freed (glibc's default), big blocks
/// went to the shared heap in some processes and not in others. Either
/// way the peak varied from run to run by a quarter. Call before any
/// thread starts.
pub fn fix_allocator() -> bool {
    // SAFETY: mallopt takes two integers and changes an allocator setting;
    // it is called before this process starts any other thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 && mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

/// Hand memory the allocator holds but no longer uses back to the system
/// between calls, so that `peak_rss_mb` follows the memory the program
/// keeps live instead of how freed blocks happened to fragment across
/// the per-thread arenas of earlier calls.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under its locks; any pad value is valid.
    unsafe {
        malloc_trim(0);
    }
}
