//! Regenerates (or checks) the committed `BENCH_*.json` perf baselines.
//!
//! ```text
//! cargo run --release -p ringsim-bench --bin perf                 # measure + write
//! cargo run --release -p ringsim-bench --bin perf -- --check      # CI gate
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ringsim_bench::perf;

const HELP: &str = "\
perf — macro-benchmark harness for the committed BENCH_*.json baselines

Times a full simulator run for every registered backend (ring500, ring250,
bus50, bus100, bus50-mesi, bus50-dragon, sci500, sci250, hier, hier3,
hier-deflect) at 16 and 64 processors on the deterministic demo workload —
plus the flat and two-level topology overrides of hier at 64 processors —
and writes the grouped baselines BENCH_ring.json / BENCH_bus.json /
BENCH_proto.json / BENCH_sci.json / BENCH_hier.json / BENCH_topo.json.

USAGE:
  perf [OPTIONS]

OPTIONS:
  --out DIR          directory for the BENCH_*.json files (default: .)
  --baseline DIR     fold the medians found in DIR's BENCH_*.json files in
                     as `baseline_median_ns_per_run` (records the speedup
                     of the current build against that older capture)
  --check            do not write: validate the BENCH_*.json in --out
                     (schema, group shape, config fingerprints), re-measure
                     in quick mode, and fail on any regression beyond
                     --max-regress
  --quick            fewer samples per scenario (3 instead of 5)
  --only SUBSTR      measure only scenarios whose name contains SUBSTR
                     (repeatable; only groups whose scenarios are all
                     measured get their baseline file written)
  --interleave CMD   time each scenario in 10 alternating pairs (3 with
                     --quick) of CMD, another build of this harness (e.g.
                     the parent commit's target/release/perf), and this
                     build, each run as `<build> --only <scenario> --out
                     <temp dir>` (plus --quick when given here) in a
                     process of its own. The baseline runs first in even
                     pairs, this build in odd ones. Records the medians of
                     both builds and, as `speedup_vs_baseline`, the median
                     of the per-pair speedups, and prints their quartiles:
                     each ratio stays inside one machine-load window
                     (overrides --baseline per entry)
  --max-regress PCT  allowed slowdown vs the committed medians in --check
                     mode, in percent (default: 25)
  --list             print the scenario matrix and exit
  --help             this text
";

struct Options {
    out: PathBuf,
    baseline: Option<PathBuf>,
    check: bool,
    quick: bool,
    max_regress: f64,
    list: bool,
    only: Vec<String>,
    interleave: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        out: PathBuf::from("."),
        baseline: None,
        check: false,
        quick: false,
        max_regress: 0.25,
        list: false,
        only: Vec::new(),
        interleave: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                opts.out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--baseline" => {
                opts.baseline =
                    Some(PathBuf::from(it.next().ok_or("--baseline needs a directory")?));
            }
            "--check" => opts.check = true,
            "--quick" => opts.quick = true,
            "--max-regress" => {
                let v = it.next().ok_or("--max-regress needs a percentage")?;
                let pct: f64 =
                    v.parse().map_err(|e| format!("--max-regress {v}: not a number ({e})"))?;
                if !(pct >= 0.0 && pct.is_finite()) {
                    return Err(format!("--max-regress {v}: must be a non-negative percentage"));
                }
                opts.max_regress = pct / 100.0;
            }
            "--list" => opts.list = true,
            "--only" => {
                opts.only.push(it.next().ok_or("--only needs a name substring")?.clone());
            }
            "--interleave" => {
                opts.interleave = Some(it.next().ok_or("--interleave needs a command")?.clone());
            }
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

/// Times `scenario` on `cmd`, a build of this harness, in a process of its
/// own with the same sample count as this run (`quick`) and returns the
/// median ns/run it reports. Its `--out` is a scratch directory, so it
/// never touches the baselines being written here.
fn child_median(cmd: &Path, scenario: &str, quick: bool) -> Result<u64, String> {
    let out = std::env::temp_dir().join(format!("perf-interleave-{}", std::process::id()));
    let mut args = if quick { vec!["--quick"] } else { vec![] };
    args.extend(["--only", scenario]);
    let run = format!("`{} {} --out {}`", cmd.display(), args.join(" "), out.display());
    let output = std::process::Command::new(cmd).args(&args).arg("--out").arg(&out).output();
    // Nothing is written for a single scenario, but remove whatever was.
    let _ = std::fs::remove_dir_all(&out);
    let output = output.map_err(|e| format!("--interleave: running {run}: {e}"))?;
    if !output.status.success() {
        return Err(format!("--interleave: {run} failed ({})", output.status));
    }
    let text = String::from_utf8_lossy(&output.stderr);
    reported_median(&text, scenario)
        .ok_or_else(|| format!("--interleave: {run} reported no median for `{scenario}`"))
}

/// The median of the `measuring <name> ... <N> ns/run` line in `text`
/// whose name is exactly `scenario`: `--only` matches substrings, so one
/// run may also measure scenarios whose names contain `scenario`.
fn reported_median(text: &str, scenario: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, rest) = line.strip_prefix("measuring ")?.split_once("...")?;
        if name.trim() != scenario {
            return None;
        }
        rest.trim().strip_suffix("ns/run")?.trim().parse().ok()
    })
}

/// Measures every scenario `only` selects. Under `interleave`, each one
/// runs in alternating pairs against that build; its baseline median goes
/// into `baselines` and its pair summary into `pairs`.
fn measure_all(
    quick: bool,
    only: &[String],
    interleave: Option<&str>,
    baselines: &mut HashMap<String, u64>,
    pairs: &mut HashMap<String, perf::PairSummary>,
) -> Result<Vec<perf::Measurement>, String> {
    let samples = if quick { 3 } else { 5 };
    let mut out = Vec::new();
    for s in perf::scenarios()
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|f| s.name().contains(f.as_str())))
    {
        let name = s.name();
        let Some(cmd) = interleave else {
            eprint!("measuring {name:>12} ...");
            let m = perf::measure(s, samples);
            eprintln!(" {:>12} ns/run", m.median_ns);
            out.push(m);
            continue;
        };
        // Both halves of a pair run in a process of their own, so neither
        // build runs in a warmer process than the other: timed in this
        // one against a child parent build, `bus50-16p` read 1.53x faster;
        // as two children, the same two builds read 1.01x.
        let me = std::env::current_exe().map_err(|e| format!("locating this build: {e}"))?;
        let n = if quick { perf::QUICK_PAIRS } else { perf::PAIRS };
        let timed = perf::alternate_pairs(
            n,
            || child_median(Path::new(cmd), &name, quick),
            || child_median(&me, &name, quick),
        )?;
        for (k, (b, c)) in timed.iter().enumerate() {
            eprintln!("pair {k:>2}   {name:>12} ...  baseline {b:>12}  candidate {c:>12} ns/run");
        }
        let p = perf::summarize_pairs(&timed);
        let [q1, median, q3] = p.speedup;
        eprintln!(
            "speedup   {name:>12} ...  median {median:.3} (quartiles {q1:.3}-{q3:.3}) over {n} pairs"
        );
        eprintln!("measuring {name:>12} ... {:>12} ns/run", p.candidate_ns);
        baselines.insert(name.clone(), p.baseline_ns);
        pairs.insert(name, p);
        let sim_cycles = s.run_once().0.sim_end.cycles(s.clock_period());
        out.push(perf::Measurement { scenario: *s, median_ns: p.candidate_ns, sim_cycles });
    }
    Ok(out)
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.list {
        for s in perf::scenarios() {
            println!(
                "{:>12}  refs/proc={} fingerprint={}",
                s.name(),
                s.refs_per_proc,
                s.fingerprint()
            );
        }
        return Ok(());
    }
    if opts.check {
        let mut committed = Vec::new();
        for group in perf::GROUPS {
            let path = opts.out.join(perf::file_name(group));
            committed.push(perf::load_file(&path)?);
            eprintln!("schema ok: {}", path.display());
        }
        let fresh = measure_all(true, &opts.only, None, &mut HashMap::new(), &mut HashMap::new())?;
        perf::regression_check_groups(&committed, &fresh, opts.max_regress)?;
        eprintln!("no regressions beyond {:.0}%", opts.max_regress * 100.0);
        return Ok(());
    }
    let mut baselines: HashMap<String, u64> = match &opts.baseline {
        Some(dir) => perf::read_medians(dir)?,
        None => HashMap::new(),
    };
    let mut pairs = HashMap::new();
    let measurements = measure_all(
        opts.quick,
        &opts.only,
        opts.interleave.as_deref(),
        &mut baselines,
        &mut pairs,
    )?;
    let mut files = perf::assemble(&measurements, &baselines);
    for e in files.iter_mut().flat_map(|f| &mut f.entries) {
        if let Some(p) = pairs.get(&e.name) {
            e.speedup_vs_baseline = Some(p.speedup[1]);
        }
    }
    // Write only groups the (possibly --only-filtered) measurements cover
    // completely; a half-measured group would fail schema validation.
    let (complete, partial): (Vec<_>, Vec<_>) =
        files.into_iter().partition(|f| perf::validate(f).is_ok());
    for f in &partial {
        for e in &f.entries {
            eprintln!(
                "{:>12}  {:>12} ns/run (group `{}` incomplete, not written)",
                e.name, e.median_ns_per_run, f.group
            );
        }
    }
    if complete.is_empty() {
        return Ok(());
    }
    perf::write_files(&opts.out, &complete)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|opts| run(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reported_median;

    #[test]
    fn reported_median_picks_the_exact_scenario() {
        let text = "\
measuring hier-deflect-16p ...      7000000 ns/run
measuring     hier-16p ...      9000000 ns/run
    hier3-16p      8000000 ns/run (group `hier` incomplete, not written)
";
        assert_eq!(reported_median(text, "hier-16p"), Some(9_000_000));
        assert_eq!(reported_median(text, "hier-deflect-16p"), Some(7_000_000));
        // The incomplete-group note is not a measurement line.
        assert_eq!(reported_median(text, "hier3-16p"), None);
        assert_eq!(reported_median(text, "16p"), None);
        assert_eq!(reported_median("measuring bus50-16p ... oops ns/run", "bus50-16p"), None);
        assert_eq!(reported_median("", "bus50-16p"), None);
    }
}
