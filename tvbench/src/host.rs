//! Provenance of a result: host, code revision, configuration.

use std::path::{Path, PathBuf};

fn checkout_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision read from `.git` (no `git` process), or
/// `none` when the checkout is not a git repository.
pub fn git_rev() -> String {
    let git = checkout_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV digest of the library sources the benchmark builds against
/// (`src/`, `crates/`, the root manifests), so a result names the code it
/// measured even in a checkout without git.
pub fn source_digest() -> String {
    let root = checkout_root();
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        collect(&root.join(top), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = crate::check::Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            h.bytes(rel.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance record printed before the result line.
pub fn provenance_line(workload: &str, seed: u64, trace: bool, seconds: f64) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"seconds\": {seconds}, \
         \"nproc\": {}, \"cpu\": {}, \"git_rev\": {}, \"source_digest\": {}, \
         \"pool_threads\": {}, \"job_executors\": {}, \"clients\": {}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpu_model()),
        json_str(&git_rev()),
        json_str(&source_digest()),
        crate::POOL_THREADS,
        crate::JOB_EXECUTORS,
        crate::CLIENTS,
    )
}
