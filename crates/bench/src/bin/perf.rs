//! Regenerates (or checks) the committed `BENCH_*.json` perf baselines.
//!
//! ```text
//! cargo run --release -p ringsim-bench --bin perf                 # measure + write
//! cargo run --release -p ringsim-bench --bin perf -- --check      # CI gate
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
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
  --interleave CMD   immediately before timing each scenario, run
                     `CMD <scenario-name>` — a pre-optimization build of
                     this harness that prints its median ns/run — and
                     record that as the scenario's baseline. Interleaving
                     the two builds keeps each comparison inside the same
                     machine-load window (overrides --baseline per entry)
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

/// Runs `cmd <scenario>` (a pre-optimization build of this harness) and
/// parses the median ns/run it prints.
fn interleaved_baseline(cmd: &str, scenario: &str) -> Result<u64, String> {
    let output = std::process::Command::new(cmd)
        .arg(scenario)
        .output()
        .map_err(|e| format!("--interleave: running `{cmd} {scenario}`: {e}"))?;
    if !output.status.success() {
        return Err(format!("--interleave: `{cmd} {scenario}` failed ({})", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("--interleave: `{cmd} {scenario}` printed `{}`: {e}", text.trim()))
}

fn measure_all(
    quick: bool,
    only: &[String],
    interleave: Option<&str>,
    baselines: &mut HashMap<String, u64>,
) -> Result<Vec<perf::Measurement>, String> {
    let samples = if quick { 3 } else { 5 };
    let mut out = Vec::new();
    for s in perf::scenarios()
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|f| s.name().contains(f.as_str())))
    {
        if let Some(cmd) = interleave {
            let b = interleaved_baseline(cmd, &s.name())?;
            eprintln!("baseline  {:>12} ...  {:>12} ns/run", s.name(), b);
            baselines.insert(s.name(), b);
        }
        eprint!("measuring {:>12} ...", s.name());
        let m = perf::measure(s, samples);
        eprintln!(" {:>12} ns/run", m.median_ns);
        out.push(m);
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
        let fresh = measure_all(true, &opts.only, None, &mut HashMap::new())?;
        perf::regression_check_groups(&committed, &fresh, opts.max_regress)?;
        eprintln!("no regressions beyond {:.0}%", opts.max_regress * 100.0);
        return Ok(());
    }
    let mut baselines: HashMap<String, u64> = match &opts.baseline {
        Some(dir) => perf::read_medians(dir)?,
        None => HashMap::new(),
    };
    let measurements =
        measure_all(opts.quick, &opts.only, opts.interleave.as_deref(), &mut baselines)?;
    // Write only groups the (possibly --only-filtered) measurements cover
    // completely; a half-measured group would fail schema validation.
    let (complete, partial): (Vec<_>, Vec<_>) = perf::assemble(&measurements, &baselines)
        .into_iter()
        .partition(|f| perf::validate(f).is_ok());
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
