//! Incremental per-point result caching.
//!
//! [`SweepCtx::map`](crate::SweepCtx::map) consults
//! `<out_dir>/.cache/<experiment>/<key-hash>.json` before running a point's
//! work closure: on a hit the cached result is deserialised and the point
//! is not re-run, so a warm `run_experiment` re-executes zero points while
//! re-rendering byte-identical artifacts (artifact serialisation is
//! deterministic, and wall times live in the meta twin, never in
//! artifacts).
//!
//! The cache key covers everything a point's result may depend on apart
//! from the experiment's code itself: a schema version (bumped when the
//! entry format or key derivation changes), the experiment name, the
//! ordinal of the `map` call inside the experiment (two calls may reuse
//! labels but run different work), the per-processor reference budget, the
//! point's canonical label, and its derived seed. Anything else —
//! `--jobs`, worker schedule, wall time — is excluded by construction, so
//! hits are valid across thread counts. Invalidation is by key: change any
//! input and the key hashes elsewhere; the stale entry is simply never
//! read again. Unreadable or unparsable entries count as misses and are
//! rewritten.
//!
//! A second namespace, `<cache_root>/.cache/shared/<key-hash>.json`, holds
//! values that many points and experiments need but that are pure functions
//! of a caller-chosen key (the trace characterisation of a workload spec is
//! the motivating case). [`SweepCtx::shared`](crate::SweepCtx::shared)
//! reads and writes it: the key is `v{SCHEMA}|shared|<key>`, so entries are
//! scoped to the cache root rather than to an experiment, and any run
//! against the same out dir reuses them. It follows the per-point cache's
//! on/off rules (off under `--no-cache`, always on under `run_shard`) and
//! the same atomic-write and corrupt-entry-is-a-miss rules, but its lookups
//! are not sweep points: they never appear in a meta twin's `points`,
//! `cache_hits` or `cache_misses`.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use ringsim_types::fnv1a;

/// Entry-format / key-derivation version; bump to orphan all old entries.
const SCHEMA: u64 = 1;

/// Where the entry for one `(experiment, map call, point)` lives.
/// `cache_root` is the directory the `.cache/` tree hangs under: the out
/// dir, which for shard workers and the coordinator's fold is the one run
/// directory they merge through (see [`run_shard`](crate::run_shard)).
pub(crate) fn entry_path(
    cache_root: &Path,
    experiment: &str,
    map_call: u64,
    refs_per_proc: u64,
    label: &str,
    seed: u64,
) -> PathBuf {
    let key = format!(
        "v{SCHEMA}|{experiment}|map={map_call}|refs={refs_per_proc}|seed={seed:016x}|{label}"
    );
    cache_root.join(".cache").join(experiment).join(format!("{:016x}.json", fnv1a(key.as_bytes())))
}

/// Where the shared entry for `key` lives (see the module docs).
pub(crate) fn shared_path(cache_root: &Path, key: &str) -> PathBuf {
    let key = format!("v{SCHEMA}|shared|{key}");
    cache_root.join(".cache").join("shared").join(format!("{:016x}.json", fnv1a(key.as_bytes())))
}

/// Reads a cached result; any IO or parse failure is a miss.
pub(crate) fn read<R: Deserialize>(path: &Path) -> Option<R> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Writes a result entry; failures are non-fatal (the next run recomputes).
///
/// The write is **atomic** (temp file + rename): a worker killed mid-write
/// must leave a complete entry or none at all for the fold to read. Two
/// writers racing on the same entry write identical bytes (results are
/// pure functions of the key), so the last rename winning is harmless.
/// When the write or the rename fails (a full disk, a `.cache` that is
/// not a directory), the temp file goes too.
pub(crate) fn write<R: Serialize>(path: &Path, value: &R) {
    let Some(dir) = path.parent() else { return };
    let _ = std::fs::create_dir_all(dir);
    let Ok(data) = serde_json::to_string_pretty(value) else { return };
    let tmp = dir.join(format!(".tmp-{}-{:?}", std::process::id(), std::thread::current().id()));
    if std::fs::write(&tmp, data).and_then(|()| std::fs::rename(&tmp, path)).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_separates_every_axis() {
        let d = Path::new("results");
        let base = entry_path(d, "fig3", 0, 100, "procs=8", 42);
        assert_ne!(base, entry_path(d, "fig4", 0, 100, "procs=8", 42));
        assert_ne!(base, entry_path(d, "fig3", 1, 100, "procs=8", 42));
        assert_ne!(base, entry_path(d, "fig3", 0, 200, "procs=8", 42));
        assert_ne!(base, entry_path(d, "fig3", 0, 100, "procs=16", 42));
        assert_ne!(base, entry_path(d, "fig3", 0, 100, "procs=8", 43));
        assert_eq!(base, entry_path(d, "fig3", 0, 100, "procs=8", 42));
        assert!(base.starts_with("results/.cache/fig3"));
    }

    #[test]
    fn shared_key_is_per_root_not_per_experiment() {
        let d = Path::new("results");
        let a = shared_path(d, "characterize|x");
        assert_eq!(a, shared_path(d, "characterize|x"));
        assert_ne!(a, shared_path(d, "characterize|y"));
        assert_ne!(a, shared_path(Path::new("other"), "characterize|x"));
        assert!(a.starts_with("results/.cache/shared"));
    }

    #[test]
    fn round_trips_and_tolerates_garbage() {
        let dir = std::env::temp_dir().join(format!("ringsim-cache-test-{}", std::process::id()));
        let path = entry_path(&dir, "t", 0, 1, "p", 7);
        assert_eq!(read::<Vec<u64>>(&path), None);
        write(&path, &vec![1u64, 2, 3]);
        assert_eq!(read::<Vec<u64>>(&path), Some(vec![1, 2, 3]));
        // Shape mismatch parses but fails typed rebuild → miss.
        assert_eq!(read::<Vec<String>>(&path), None);
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(read::<Vec<u64>>(&path), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writes_leave_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ringsim-cache-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The rename fails: the entry's path is a non-empty directory.
        let path = entry_path(&dir, "t", 0, 1, "p", 7);
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        write(&path, &vec![1u64]);
        let parent = path.parent().unwrap();
        let names: Vec<_> =
            std::fs::read_dir(parent).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, [path.file_name().unwrap()], "a temp file was left behind");
        // The write fails: `.cache` is a regular file, so no directory
        // under it can be made.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        std::fs::write(blocked.join(".cache"), "a file").unwrap();
        write(&entry_path(&blocked, "t", 0, 1, "p", 7), &vec![1u64]);
        assert_eq!(std::fs::read_to_string(blocked.join(".cache")).unwrap(), "a file");
        assert_eq!(std::fs::read_dir(&blocked).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
