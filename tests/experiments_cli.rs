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
