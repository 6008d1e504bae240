//! Process plumbing: the stale-binary guard, child runs with their peak
//! RSS, `/proc` memory readings, and host facts.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// One finished child process.
pub struct ChildRun {
    pub wall_s: f64,
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    pub peak_rss_kb: u64,
}

/// Runs `program args` with its output captured and times it from spawn
/// to reaped exit. The child is reaped with `wait4` so its own peak RSS
/// (`ru_maxrss`) comes back with it.
pub fn run_child(program: &Path, args: &[String]) -> Result<ChildRun, String> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    // Both streams are a few KiB, well under a pipe's buffer, so draining
    // stdout to EOF first cannot block the child on a full stderr.
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let out_res = child.stdout.take().expect("piped").read_to_end(&mut stdout);
    let err_res = child.stderr.take().expect("piped").read_to_end(&mut stderr);
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it
        // unless asked), and both out-pointers are valid for the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 {pid}: {err}"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    out_res.map_err(|e| format!("read stdout: {e}"))?;
    err_res.map_err(|e| format!("read stderr: {e}"))?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s,
        code,
        stdout,
        stderr,
        peak_rss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
    })
}

/// Builds the release `microscope` binary from the tree at `root` (a
/// no-op when cargo finds it current) and returns its path, so a binary
/// left over from another commit is never timed.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "microscope-cli",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build of microscope-cli failed: {}",
            out.status
        ));
    }
    // The compiler-artifact message of the `microscope` bin target names
    // the executable cargo just built or verified.
    let text = String::from_utf8_lossy(&out.stdout);
    let exe = text
        .lines()
        .filter(|l| {
            l.contains("\"reason\":\"compiler-artifact\"") && l.contains("\"name\":\"microscope\"")
        })
        .find_map(|l| {
            let rest = &l[l.find("\"executable\":\"")? + "\"executable\":\"".len()..];
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or("cargo reported no microscope executable")?;
    if !exe.is_file() {
        return Err(format!("{} is not a file", exe.display()));
    }
    Ok(exe)
}

fn status_kb(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set of this process, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Resets this process's `VmHWM` to its current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// nproc, CPU model and rustc version, for the report header.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("host: nproc {nproc}; cpu {cpu}; {rustc}")
}
