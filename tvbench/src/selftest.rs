//! The benchmark's own tests. Run them optimized:
//!
//! ```text
//! cargo test --release --offline --manifest-path tvbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::check::Fnv;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{run_workload, setup, Ctx, Options, Scale, WORKLOADS};

/// Tracing is process-wide: tests that run engine code take turns, so no
/// other test's spans land in a traced pass.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.05,
        trace,
        scale: Scale { tiny: true },
        write_golden: false,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = crate::work_root().join(format!("selftest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Hash of every input file set-up wrote, by file name.
fn inputs_hash(dir: &Path) -> u64 {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readable temp dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "2v"))
        .collect();
    names.sort();
    assert!(
        !names.is_empty(),
        "set-up wrote no inputs in {}",
        dir.display()
    );
    let mut h = Fnv::new();
    for p in names {
        h.bytes(p.file_name().expect("file name").as_encoded_bytes());
        h.bytes(&std::fs::read(&p).expect("readable input"));
    }
    h.finish()
}

fn dataset_fingerprint(workload: &str, seed: u64) -> u64 {
    let dir = temp_dir(&format!(
        "{workload}-{seed}-{:?}",
        std::thread::current().id()
    ));
    let mut ctx = Ctx::new(false);
    setup(&options(workload, seed, false), &dir, &mut ctx).expect("set-up succeeds");
    let h = inputs_hash(&dir);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    h
}

#[test]
fn the_seed_alone_determines_the_inputs() {
    let _serial = serial();
    for workload in WORKLOADS {
        let a = dataset_fingerprint(workload, 3);
        assert_eq!(a, dataset_fingerprint(workload, 3), "{workload}: same seed");
        assert_ne!(
            a,
            dataset_fingerprint(workload, 4),
            "{workload}: other seed"
        );
    }
}

/// `(name, unit)` of every metric object in a `BENCHMARK.json` section.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{section}: object without {key}: {obj}"));
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
    for (section, printed) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<(String, String)> = printed
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, section), want, "{section}");
    }
    let start = json.find("\"workloads\"").expect("workloads declared");
    let section = &json[start..start + json[start..].find(']').expect("section closes")];
    let declared: Vec<&str> = section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("name closes")])
        .collect();
    assert!(declared.len() >= 2, "{declared:?}");
    for workload in declared {
        assert!(WORKLOADS.contains(&workload), "{workload} cannot run");
    }
}

#[test]
fn a_tiny_run_of_each_workload_has_no_failures() {
    let _serial = serial();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(&options(workload, 5, trace)).expect("run completes");
            assert_eq!(out.tally.failed, 0, "{workload} trace={trace}");
            assert!(out.tally.attempted > 0, "{workload} trace={trace}");
            assert_eq!(out.fingerprints, "not_measured");
            let printed = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for (name, _) in printed {
                let v = out.values.0.get(name);
                assert!(
                    v.is_some_and(|v| v.is_finite()),
                    "{workload}: {name} = {v:?}"
                );
            }
            if !trace {
                assert_eq!(out.values.0["ok_frac"], 1.0, "{workload}");
            }
        }
    }
}

#[test]
fn a_missing_golden_file_fails_the_default_seed_only() {
    let fps = crate::check::Fingerprints::default();
    let mut tally = crate::check::Tally::default();
    let status = crate::check::verify_golden(
        "no-such-workload",
        crate::check::DEFAULT_SEED,
        &fps,
        &mut tally,
    );
    assert_eq!(status, "not_measured");
    assert_eq!(tally.failed, 1);
    let mut tally = crate::check::Tally::default();
    let status = crate::check::verify_golden("no-such-workload", 987_654, &fps, &mut tally);
    assert_eq!(status, "not_measured");
    assert_eq!(tally.failed, 0);
}
