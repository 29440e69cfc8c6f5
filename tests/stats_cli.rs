//! `ringsim stats` reads the documents `sim` writes: it renders a metrics
//! document's per-class table and CSV, still accepts a bare summary, and
//! rejects malformed histograms and traces with an error, not a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ringsim::obs::MetricsFile;

fn ringsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ringsim")).args(args).output().expect("spawn ringsim")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ringsim-stats-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn stdout_of(out: &Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// Runs `stats` on a document that must be rejected, returning stderr.
fn rejected(args: &[&str]) -> String {
    let out = ringsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "must exit with an error: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    stderr
}

#[test]
fn sim_metrics_render_as_table_and_csv() {
    let dir = tmp("sim");
    let (metrics, trace) = (dir.join("m.json"), dir.join("t.json"));
    stdout_of(&ringsim(&[
        "sim",
        "--ring",
        "--refs",
        "2000",
        "--metrics",
        path(&metrics),
        "--trace-out",
        path(&trace),
    ]));
    let text = std::fs::read_to_string(&metrics).expect("metrics document");
    let file: MetricsFile = serde_json::from_str(&text).expect("metrics document parses");

    let csv = stdout_of(&ringsim(&["stats", "--metrics", path(&metrics), "--csv"]));
    assert_eq!(csv, file.summary.to_csv());

    let table = stdout_of(&ringsim(&["stats", "--metrics", path(&metrics)]));
    let mut lines = table.lines();
    assert_eq!(lines.next(), Some(format!("{}: 1 run(s)", path(&metrics)).as_str()));
    let header: Vec<&str> = lines.next().expect("header").split_whitespace().collect();
    assert_eq!(header, ["class", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns"]);
    let rows: Vec<(String, u64)> = lines
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols[0].to_owned(), cols[1].parse().expect("count column"))
        })
        .collect();
    let expected: Vec<(String, u64)> = file
        .summary
        .classes()
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| ((*name).to_owned(), h.count()))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(rows, expected);

    let both =
        stdout_of(&ringsim(&["stats", "--trace", path(&trace), "--metrics", path(&metrics)]));
    assert!(both.starts_with(&format!("{}: valid Chrome trace — ", path(&trace))), "{both}");

    // A bare summary (no `summary`/`timelines` wrapper) is still accepted.
    let bare = dir.join("bare.json");
    std::fs::write(&bare, serde_json::to_string_pretty(&file.summary).unwrap()).unwrap();
    assert_eq!(stdout_of(&ringsim(&["stats", "--metrics", path(&bare), "--csv"])), csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_bucket_count_is_an_error() {
    let dir = tmp("buckets");
    let doc = dir.join("m.json");
    std::fs::write(
        &doc,
        r#"{"summary": {"runs": 1, "miss": {"count": 1, "sum_ns": 5, "min": 5.0, "max": 5.0, "buckets": [1]}}}"#,
    )
    .unwrap();
    let stderr = rejected(&["stats", "--metrics", path(&doc)]);
    assert!(stderr.contains("malformed `miss` histogram"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_event_without_ph_is_rejected() {
    let dir = tmp("trace");
    let trace = dir.join("t.json");
    std::fs::write(&trace, r#"{"traceEvents": [{"name": "miss", "ts": 0.5, "pid": 1}]}"#).unwrap();
    let stderr = rejected(&["stats", "--trace", path(&trace)]);
    assert!(stderr.contains("event 0 missing `ph`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
