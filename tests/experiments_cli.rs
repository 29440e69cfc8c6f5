//! `ringsim experiments` is the one entry point to the experiment registry.
//! It must list every registered experiment, write a selected experiment's
//! artifact under `--out`, and take the reference budget only as
//! `--refs N`.

use std::process::{Command, Output};

use ringsim_bench::experiments;

fn run_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ringsim"))
        .arg("experiments")
        .args(args)
        .output()
        .expect("spawn ringsim")
}

#[test]
fn list_names_every_registered_experiment() {
    let out = run_experiments(&["--list"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    // The first line is the column header.
    let listed: Vec<&str> =
        stdout.lines().skip(1).filter_map(|line| line.split_whitespace().next()).collect();
    let registered: Vec<&str> = experiments::ALL.iter().map(|e| e.name()).collect();
    assert_eq!(listed, registered);
}

#[test]
fn only_writes_the_selected_artifact_under_out() {
    let dir = std::env::temp_dir().join(format!("ringsim-experiments-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_str().expect("utf-8 temp path");
    let out = run_experiments(&["--only", "table3", "--refs", "1000", "--out", out_dir]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("table3.json").is_file(), "no table3.json in {out_dir}");
    std::fs::remove_dir_all(&dir).expect("remove the output directory");
}

#[test]
fn bare_reference_budget_is_rejected() {
    let out = run_experiments(&["4000"]);
    assert!(!out.status.success(), "a bare number must not be taken as --refs");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument `4000`"));
}

/// Every `fig5*` artifact in `dir`, by file name (meta twins excluded).
fn fig5_artifacts(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("output directory")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("fig5") && !name.ends_with(".meta.json"))
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("artifact");
            (name, bytes)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn shared_characterisations_leave_artifacts_unchanged() {
    let base =
        std::env::temp_dir().join(format!("ringsim-experiments-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = |name: &str, args: &[&str]| {
        let dir = base.join(name);
        let out_dir = dir.to_str().expect("utf-8 temp path");
        let mut all = vec!["--refs", "1000", "--jobs", "2", "--out", out_dir];
        all.extend_from_slice(args);
        let out = run_experiments(&all);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        dir
    };
    // fig5 alone characterises its twelve configurations itself; after
    // table2 it reads the twelve entries table2 left in the shared cache;
    // under --no-cache it computes everything and writes no cache at all.
    let alone = run("alone", &["--only", "fig5"]);
    let after_table2 = run("after_table2", &["--only", "table2,fig5"]);
    let uncached = run("uncached", &["--only", "fig5", "--no-cache"]);

    let want = fig5_artifacts(&alone);
    assert!(!want.is_empty(), "fig5 wrote no artifacts");
    assert_eq!(fig5_artifacts(&after_table2), want, "fig5 differs after table2");
    assert_eq!(fig5_artifacts(&uncached), want, "fig5 differs under --no-cache");
    let shared = std::fs::read_dir(after_table2.join(".cache/shared")).expect("shared entries");
    assert_eq!(shared.count(), 12, "one entry per Table 2 configuration");
    assert!(!uncached.join(".cache").exists(), "--no-cache wrote a cache");

    std::fs::remove_dir_all(&base).expect("remove the output directories");
}

#[test]
fn metrics_document_does_not_depend_on_jobs() {
    use ringsim::obs::{parse_json, JsonValue};

    let base =
        std::env::temp_dir().join(format!("ringsim-experiments-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = |jobs: &str| {
        let dir = base.join(format!("jobs{jobs}"));
        let metrics = dir.join("metrics.json");
        let out = run_experiments(&[
            "--only",
            "validate",
            "--refs",
            "1000",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().expect("utf-8 temp path"),
            "--metrics",
            metrics.to_str().expect("utf-8 temp path"),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert!(!stderr.contains("trace buffer full"), "{stderr}");
        let meta = std::fs::read_to_string(dir.join("validate.meta.json")).expect("meta twin");
        let points =
            parse_json(&meta).expect("meta JSON").get("points").and_then(JsonValue::as_u64);
        (std::fs::read(&metrics).expect("metrics document"), points.expect("point count"))
    };
    let (serial, points) = run("1");
    let (parallel, _) = run("2");
    assert!(serial == parallel, "--metrics output differs between --jobs 1 and --jobs 2");
    let doc = parse_json(std::str::from_utf8(&serial).expect("utf-8")).expect("metrics JSON");
    let runs = doc.get("summary").and_then(|s| s.get("runs")).and_then(JsonValue::as_u64);
    assert_eq!(runs, Some(points), "one folded run per validate point");
    std::fs::remove_dir_all(&base).expect("remove the output directories");
}
