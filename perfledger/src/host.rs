//! Host fingerprint and process memory: no number is read without its
//! machine and its source revision.

use std::process::Command;

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The first `model name` in `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Trimmed stdout of a command that succeeded; `None` otherwise. Git
/// may not search above the working directory for a repository.
fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(v: Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".into(),
    }
}

/// One JSON object describing the host and the source revision.
pub fn fingerprint_json() -> String {
    let rev = output_of("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| output_of("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| (!s.is_empty()).to_string());
    format!(
        "{{\"host_cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"git_dirty\": {}}}",
        cores(),
        json_str(cpu_model()),
        json_str(output_of("rustc", &["--version"])),
        json_str(rev),
        dirty.unwrap_or_else(|| "null".into()),
    )
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
