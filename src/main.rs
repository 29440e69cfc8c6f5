//! `ringsim` — command-line front end to the simulators and models.
//!
//! ```text
//! ringsim list
//! ringsim characterize --benchmark mp3d --procs 16 [--refs N]
//! ringsim sim   --benchmark mp3d --procs 16 --network ring500 \
//!               [--protocol snooping|directory] [--mips M] [--refs N] \
//!               [--trace-out t.json] [--metrics m.json]
//! ringsim model --benchmark mp3d --procs 16 --network bus100 [--mips M]
//! ringsim experiments [--list] [--only fig3,fig4] [--jobs N] [--refs N] [--out DIR]
//!                     [--metrics m.json]
//! ringsim stats [--trace t.json] [--metrics m.json] [--csv]
//! ringsim check [--all-protocols] [--nodes N] [--blocks B] [--inject FAULT]
//!               [--jobs N] [--stats] [--no-symmetry] [--no-evictions]
//!               [--no-liveness] [--max-states N]
//! ringsim serve [--addr host:port] [--out DIR] [--workers N] [--queue-cap N]
//!               [--sweep-jobs N] [--refs N] [--shards N]
//!               [--gc-max-bytes B] [--gc-max-age-secs S] [--gc-min-age-secs S]
//!               [--gc-interval-secs S]
//! ringsim serve-worker --experiment NAME --refs N --cache-dir DIR --shard I/N
//!                      [--jobs N]
//! ```
//!
//! Networks: `ring500`, `ring250` (32-bit slotted rings), `bus50`, `bus100`
//! (64-bit split-transaction buses), and the slotted-ring hierarchies
//! `hier` (two-level), `hier3` (three-level) and `hier-deflect` (finite
//! deflecting bridges); `--topology flat|2level|3level` and
//! `--bridge-buffer N` override either axis of any hierarchy backend.
//! Every network runs through the one [`SimKind`] registry —
//! adding a backend there is all a new network needs to appear here.

use std::collections::HashMap;
use std::error::Error;
use std::process::ExitCode;

use ringsim::analytic::{BusModel, ModelInput, RingModel};
use ringsim::bus::BusConfig;
use ringsim::core::{RunOptions, SimKind, SimSpec};
use ringsim::proto::ProtocolKind;
use ringsim::ring::RingConfig;
use ringsim::trace::{characterize, Benchmark};
use ringsim::types::Time;

type CliResult = Result<(), Box<dyn Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // The experiment driver manages its own exit status.
    if cmd == "experiments" {
        return ringsim_bench::cli::run_with(rest);
    }
    let result = match cmd.as_str() {
        "check" => return check_cmd(rest),
        "serve-worker" => return serve_worker_cmd(rest),
        "list" => list(),
        "characterize" => characterize_cmd(rest),
        "sim" => sim_cmd(rest),
        "model" => model_cmd(rest),
        "stats" => stats_cmd(rest),
        "sweep" => sweep_cmd(rest),
        "record" => record_cmd(rest),
        "replay" => replay_cmd(rest),
        "serve" => serve_cmd(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: ringsim <command> [options]

commands:
  list                      the paper's benchmark configurations
  characterize              Table 2-style workload characteristics
  sim                       run a timed system simulation (--sanitize forces the
                            runtime coherence sanitizer on in release builds;
                            --trace-out t.json captures a Chrome trace,
                            --metrics m.json|m.csv exports latency histograms,
                            --ring / --bus / --hier pick the default network
                            variant; --topology and --bridge-buffer shape the
                            hierarchy backends)
  model                     evaluate the analytical model
  stats                     inspect observability artifacts
                            (--trace t.json validates and summarises a Chrome
                            trace; --metrics m.json prints per-class latency
                            tables and, for hierarchy runs, a per-bridge
                            occupancy/deflection table; --csv for
                            machine-readable output)
  sweep                     model sweep over processor cycle 1-20 ns (figure series)
  record                    capture a benchmark trace to a file (--out <path>)
  replay                    simulate a recorded trace (--trace <path>)
  check                     exhaustively model-check the coherence protocols
                            (--all-protocols | --protocol p) (--nodes N) (--blocks B)
                            (--inject none|skip-invalidate|forget-owner|park-busy-forwards
                                     |break-list-link)
                            (--jobs N parallel frontier workers, 0 = auto)
                            (--stats orbit-reduction and rule fire counts)
                            (--no-symmetry explore raw states, no orbit collapse)
                            (--no-evictions | --no-liveness shrink the state space)
                            (--max-states N exploration cap, default 4000000)
  experiments               run the paper-artifact suite
                            (--list | --only a,b) (--jobs N) (--refs N) (--out DIR)
                            (--metrics m.json folds every run's histograms and
                            timelines; --no-cache recomputes every point,
                            --cache-stats prints cache hit/miss counts)
  serve                     long-running HTTP experiment service
                            (--addr host:port, default 127.0.0.1:8080)
                            (--out DIR job storage root, default serve-data)
                            (--workers N concurrent jobs) (--queue-cap N)
                            (--sweep-jobs N threads per sweep, 0 = auto)
                            (--refs N default per-processor reference budget)
                            (--shards N run each job's sweep as N serve-worker
                            processes caching into the run dir, then fold
                            in-process; 0/1 = in-process only)
                            (--gc-max-bytes B | --gc-max-age-secs S artifact
                            retention budget, 0 = unlimited/never)
                            (--gc-min-age-secs S never delete younger runs)
                            (--gc-interval-secs S sweep period, 0 disables);
                            SIGINT drains in-flight jobs and exits 0
  serve-worker              one shard of a sharded serve run (spawned by
                            serve; not for interactive use)
                            (--experiment NAME) (--refs N)
                            (--cache-dir DIR the run dir; only cache entries
                            are written) (--shard I/N) (--jobs N)

options:
  --benchmark <name>        mp3d | water | cholesky | fft | weather | simple
                            (sim defaults to mp3d)
  --procs <n>               processor count (per the paper's sizes)
  --network <net>           ring500 | ring250 | bus50 | bus100 | bus50-mesi |
                            bus50-dragon | sci500 | sci250 | hier | hier3 |
                            hier-deflect
                            (default ring500; sim and replay only accept what
                            the simulator registry lists)
  --topology <t>            flat | 2level | 3level ring tree for the hierarchy
                            backends (sim only; overrides the backend default)
  --bridge-buffer <n>       bridge transfer-queue depth for the hierarchy
                            backends (sim only; a finite depth enables
                            deflection routing, 0 is the bufferless latch)
  --protocol <p>            snooping | directory | sci | mesi | dragon
                            (slotted rings run snooping/directory; sci/mesi/
                            dragon pick the matching --network instead; check
                            accepts all five; default snooping)
  --mips <m>                processor speed in MIPS (default 50)
  --refs <n>                measured references per processor (default 20000)";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, Box<dyn Error>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{key}`").into());
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn benchmark_of(flags: &HashMap<String, String>) -> Result<(Benchmark, usize), Box<dyn Error>> {
    let name = flags.get("benchmark").ok_or("--benchmark is required")?;
    let bench = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name.to_lowercase())
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `ringsim list`)"))?;
    let procs = match flags.get("procs") {
        Some(p) => p.parse::<usize>()?,
        None => bench.paper_sizes()[0],
    };
    Ok((bench, procs))
}

fn mips_of(flags: &HashMap<String, String>) -> Result<u64, Box<dyn Error>> {
    Ok(flags.get("mips").map_or(Ok(50), |m| m.parse::<u64>())?)
}

fn refs_of(flags: &HashMap<String, String>) -> Result<u64, Box<dyn Error>> {
    Ok(flags.get("refs").map_or(Ok(20_000), |m| m.parse::<u64>())?)
}

fn protocol_of(flags: &HashMap<String, String>) -> Result<ProtocolKind, Box<dyn Error>> {
    match flags.get("protocol").map(String::as_str) {
        None | Some("snooping") => Ok(ProtocolKind::Snooping),
        Some("directory") => Ok(ProtocolKind::Directory),
        Some("sci") => Ok(ProtocolKind::Sci),
        Some("msi") => Ok(ProtocolKind::Msi),
        Some("mesi") => Ok(ProtocolKind::Mesi),
        Some("dragon") => Ok(ProtocolKind::Dragon),
        Some(other) => Err(format!(
            "unknown protocol `{other}` (snooping, directory, sci, msi, mesi or dragon)"
        )
        .into()),
    }
}

/// `ringsim check`: exhaustive state-space exploration of the coherence
/// protocols on small configurations. Exits non-zero on any violation, with
/// the shortest counterexample trace on stderr.
fn check_cmd(args: &[String]) -> ExitCode {
    match check_cmd_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check_cmd_inner(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    use ringsim::check::{explore, CheckConfig, Fault};

    // Bare switches first; everything else is `--key value`.
    let mut all_protocols = false;
    let mut stats = false;
    let mut no_symmetry = false;
    let mut no_evictions = false;
    let mut no_liveness = false;
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{key}`").into());
        };
        let bare = match name {
            "all-protocols" => Some(&mut all_protocols),
            "stats" => Some(&mut stats),
            "no-symmetry" => Some(&mut no_symmetry),
            "no-evictions" => Some(&mut no_evictions),
            "no-liveness" => Some(&mut no_liveness),
            _ => None,
        };
        if let Some(slot) = bare {
            *slot = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }

    let protocols: Vec<ProtocolKind> = if all_protocols {
        vec![
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Sci,
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
            ProtocolKind::Dragon,
        ]
    } else {
        vec![protocol_of(&flags)?]
    };
    let fault: Fault = flags.get("inject").map_or(Ok(Fault::None), |f| f.parse())?;
    // Either one explicit configuration, or the standard small matrix.
    let configs: Vec<(usize, usize)> = match (flags.get("nodes"), flags.get("blocks")) {
        (None, None) => vec![(2, 1), (3, 1), (4, 2)],
        (n, b) => {
            let nodes = n.map_or(Ok(2), |v| v.parse::<usize>())?;
            let blocks = b.map_or(Ok(1), |v| v.parse::<usize>())?;
            vec![(nodes, blocks)]
        }
    };

    let mut failed = false;
    for protocol in &protocols {
        for &(nodes, blocks) in &configs {
            let mut cfg = CheckConfig::new(*protocol, nodes, blocks);
            cfg.fault = fault;
            cfg.stats = stats;
            cfg.symmetry = !no_symmetry;
            cfg.evictions = !no_evictions;
            cfg.check_liveness = !no_liveness;
            if let Some(m) = flags.get("max-states") {
                cfg.max_states = m.parse()?;
            }
            if let Some(j) = flags.get("jobs") {
                cfg.jobs = j.parse()?;
            }
            let report = explore(&cfg)?;
            println!("{report}");
            if let Some(s) = &report.stats {
                for line in s.render(report.states, *protocol) {
                    println!("{line}");
                }
            }
            if let Some(v) = &report.violation {
                failed = true;
                eprintln!("{v}");
            }
        }
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn list() -> CliResult {
    println!("benchmark     paper sizes");
    for b in Benchmark::ALL {
        println!("{:<12}  {:?}", b.name(), b.paper_sizes());
    }
    Ok(())
}

fn characterize_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let (bench, procs) = benchmark_of(&flags)?;
    let spec = bench.spec(procs)?.with_refs(refs_of(&flags)?);
    let ch = characterize(&spec)?;
    let e = ch.events;
    println!("{} on {procs} processors ({} data refs measured)", spec.name, e.data_refs());
    println!("  total miss rate   : {:6.2} %", 100.0 * e.total_miss_rate());
    println!("  shared miss rate  : {:6.2} %", 100.0 * e.shared_miss_rate());
    println!("  private miss rate : {:6.2} %", 100.0 * e.private_miss_rate());
    println!(
        "  shared refs       : {:6.1} %",
        100.0 * e.shared_refs() as f64 / e.data_refs() as f64
    );
    println!("  shared writes     : {:6.1} %", 100.0 * e.shared_write_frac());
    println!("  dirty-miss frac   : {:6.1} %", 100.0 * e.dirty_miss_frac());
    let total = e.remote_misses().max(1) as f64;
    println!(
        "  fig5 classes      : {:4.1}% 1-cycle clean, {:4.1}% 1-cycle dirty, {:4.1}% 2-cycle",
        100.0 * e.fig5_one_cycle_clean() as f64 / total,
        100.0 * e.fig5_one_cycle_dirty() as f64 / total,
        100.0 * e.fig5_two_cycle() as f64 / total,
    );
    Ok(())
}

/// Resolves a `--network` value against the simulator registry. The typed
/// [`ringsim::core::SimKindError`] already names the valid spellings (and
/// the candidates, for an ambiguous prefix), so it is surfaced verbatim.
fn network_of(name: &str) -> Result<SimKind, Box<dyn Error>> {
    name.parse::<SimKind>().map_err(Into::into)
}

fn sim_cmd(args: &[String]) -> CliResult {
    // Bare flags (`--sanitize`, `--ring`, `--bus`, `--hier`) are stripped
    // before key-value parsing.
    let mut bare = Vec::new();
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_bare = matches!(a.as_str(), "--sanitize" | "--ring" | "--bus" | "--hier");
            if is_bare {
                bare.push(a.as_str().to_owned());
            }
            !is_bare
        })
        .cloned()
        .collect();
    let mut flags = parse_flags(&args)?;
    // `sim` is the observability quick-start entry point, so it works bare:
    // benchmark defaults to mp3d, `--ring` / `--bus` / `--hier` pick the
    // default network variants.
    flags.entry("benchmark".to_owned()).or_insert_with(|| "mp3d".to_owned());
    if !flags.contains_key("network") {
        for (flag, net) in [("--bus", "bus100"), ("--ring", "ring500"), ("--hier", "hier")] {
            if bare.iter().any(|a| a == flag) {
                flags.insert("network".to_owned(), net.to_owned());
                break;
            }
        }
    }
    let (bench, procs) = benchmark_of(&flags)?;
    let mips = mips_of(&flags)?;
    let proc_cycle = Time::from_ps(1_000_000 / mips);
    let spec = bench.spec(procs)?.with_refs(refs_of(&flags)?);
    let workload = ringsim::trace::Workload::new(spec)?;
    let kind = network_of(flags.get("network").map_or("ring500", String::as_str))?;
    let mut sim_spec =
        SimSpec::new(workload).with_protocol(protocol_of(&flags)?).with_proc_cycle(proc_cycle);
    for flag in ["topology", "bridge-buffer"] {
        if flags.contains_key(flag) && !kind.is_hier() {
            return Err(format!(
                "--{flag} only applies to the hierarchy backends \
                 (hier, hier3, hier-deflect), not `{}`",
                kind.name()
            )
            .into());
        }
    }
    if let Some(t) = flags.get("topology") {
        sim_spec = sim_spec.with_topology(t.parse::<ringsim::core::HierTopology>()?);
    }
    if let Some(d) = flags.get("bridge-buffer") {
        sim_spec = sim_spec.with_bridge_buffer(d.parse::<usize>()?);
    }
    let mut sim = kind.build(&sim_spec)?;
    let want_obs = flags.contains_key("trace-out") || flags.contains_key("metrics");
    let opts = RunOptions {
        obs: want_obs.then(ringsim::obs::ObsConfig::default),
        sanitize: bare.iter().any(|a| a == "--sanitize"),
    };
    let outcome = sim.run(&opts);
    let (report, recorder) = (outcome.report, outcome.obs);
    println!("{} on {}, {procs} processors at {mips} MIPS", bench.name(), kind.name());
    println!("  protocol              : {}", report.protocol);
    println!("  simulated time        : {}", report.sim_end);
    println!("  processor utilisation : {:5.1} %", 100.0 * report.proc_util);
    println!("  network utilisation   : {:5.1} %", 100.0 * report.ring_util);
    println!("  mean miss latency     : {:5.0} ns", report.miss_latency_ns());
    if let (Some(p50), Some(p95)) =
        (report.miss_latency_percentile(0.5), report.miss_latency_percentile(0.95))
    {
        println!("  miss latency p50/p95  : {p50:5.0} / {p95:.0} ns");
    }
    println!("  mean upgrade latency  : {:5.0} ns", report.upgrade_latency.mean());
    println!("  misses / upgrades     : {} / {}", report.events.misses(), report.events.upgrades());
    if let Some(path) = flags.get("trace-out") {
        let rec = recorder.as_ref().expect("recorder attached when --trace-out given");
        std::fs::write(path, rec.trace.to_chrome_json())?;
        let dropped = if rec.trace.dropped() > 0 {
            eprintln!(
                "warning: trace buffer full: {} oldest event(s) dropped — {path} is truncated \
                 (raise the recorder's trace capacity)",
                rec.trace.dropped()
            );
            format!(", {} dropped", rec.trace.dropped())
        } else {
            String::new()
        };
        println!("  trace                 : {path} ({} events{dropped})", rec.trace.len());
    }
    if let Some(path) = flags.get("metrics") {
        let summary = report.metrics_summary();
        if path.ends_with(".csv") {
            std::fs::write(path, summary.to_csv())?;
        } else {
            let timelines = recorder.map(|r| r.timelines).unwrap_or_default();
            let file = ringsim::obs::MetricsFile { summary, timelines };
            std::fs::write(path, file.to_json())?;
        }
        println!("  metrics               : {path}");
    }
    Ok(())
}

/// `ringsim stats`: offline inspection of observability artifacts.
///
/// `--trace <path>` parses a Chrome `trace_event` file, validates that every
/// event has the required `ph`/`ts`/`pid` fields, and prints a summary;
/// `--metrics <path>` rebuilds the per-class latency histograms and prints
/// them as a table (or CSV with the bare `--csv` flag).
fn stats_cmd(args: &[String]) -> CliResult {
    use ringsim::obs::{hist_from_json, parse_json, JsonValue, MetricsSummary};

    let (csv, args): (Vec<_>, Vec<_>) = args.iter().cloned().partition(|a| a == "--csv");
    let csv = !csv.is_empty();
    let flags = parse_flags(&args)?;
    if !flags.contains_key("trace") && !flags.contains_key("metrics") {
        return Err("stats needs --trace <path> and/or --metrics <path>".into());
    }
    if let Some(path) = flags.get("trace") {
        let text = std::fs::read_to_string(path)?;
        let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{path}: missing `traceEvents` array"))?;
        let mut spans = 0u64;
        let mut instants = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{path}: event {i} missing `ph`"))?;
            ev.get("ts")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{path}: event {i} missing numeric `ts`"))?;
            ev.get("pid")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{path}: event {i} missing `pid`"))?;
            match ph {
                "X" => spans += 1,
                "i" => instants += 1,
                _ => {}
            }
        }
        let dropped = doc.get("droppedEvents").and_then(JsonValue::as_u64).unwrap_or(0);
        println!(
            "{path}: valid Chrome trace — {} events ({spans} spans, {instants} instants, {dropped} dropped)",
            events.len()
        );
        if dropped > 0 {
            eprintln!(
                "warning: {path}: {dropped} event(s) were dropped at capture time — \
                 the trace is incomplete (raise the recorder's trace capacity)"
            );
        }
    }
    if let Some(path) = flags.get("metrics") {
        let text = std::fs::read_to_string(path)?;
        let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let summary = doc.get("summary").unwrap_or(&doc);
        let mut rebuilt = MetricsSummary {
            runs: summary.get("runs").and_then(JsonValue::as_u64).unwrap_or(0),
            ..Default::default()
        };
        for (name, slot) in [
            ("miss", &mut rebuilt.miss),
            ("upgrade", &mut rebuilt.upgrade),
            ("local", &mut rebuilt.local),
            ("clean_remote", &mut rebuilt.clean_remote),
            ("dirty", &mut rebuilt.dirty),
        ] {
            let v = summary
                .get(name)
                .ok_or_else(|| format!("{path}: missing `summary.{name}` histogram"))?;
            *slot =
                hist_from_json(v).ok_or_else(|| format!("{path}: malformed `{name}` histogram"))?;
        }
        if csv {
            print!("{}", rebuilt.to_csv());
        } else {
            println!("{path}: {} run(s)", rebuilt.runs);
            println!(
                "  {:<14} {:>9} {:>10} {:>9} {:>9} {:>9}",
                "class", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns"
            );
            for (name, h) in rebuilt.classes() {
                if h.count() == 0 {
                    continue;
                }
                println!(
                    "  {:<14} {:>9} {:>10.1} {:>9.0} {:>9.0} {:>9.0}",
                    name,
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
            }
        }
        if let Some(timelines) = doc.get("timelines").and_then(JsonValue::as_array) {
            for tl in timelines {
                if tl.get("name").and_then(JsonValue::as_str) == Some("bridges") {
                    print_bridge_stats(path, tl, csv)?;
                }
            }
        }
    }
    Ok(())
}

/// Fraction of bridge arbitrations lost above which `stats` warns that the
/// bridge buffer is undersized for the workload.
const DEFLECTION_WARN_RATE: f64 = 0.10;

/// Renders the per-bridge table from a hierarchy run's `bridges` gauge
/// timeline (columns `L{level}R{ring}_{occ|defl|xfer}`): occupancy p95 over
/// the sampled rows plus the final cumulative deflection/transfer counters.
/// Warns loudly when a bridge deflected more than 10% of its arbitrations.
fn print_bridge_stats(path: &str, tl: &ringsim::obs::JsonValue, csv: bool) -> CliResult {
    use ringsim::obs::JsonValue;

    let columns: Vec<&str> = tl
        .get("columns")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: `bridges` timeline missing `columns`"))?
        .iter()
        .map(|c| c.as_str().unwrap_or_default())
        .collect();
    let rows = tl
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: `bridges` timeline missing `rows`"))?;
    let value_at = |row: &JsonValue, idx: usize| {
        row.get("values")
            .and_then(JsonValue::as_array)
            .and_then(|v| v.get(idx))
            .and_then(JsonValue::as_f64)
    };
    if csv {
        println!("bridge,occ_p95,deflections,transfers,defl_rate");
    } else {
        println!("{path}: bridge gauges ({} sampled rows)", rows.len());
        println!(
            "  {:<10} {:>9} {:>12} {:>12} {:>10}",
            "bridge", "occ_p95", "deflections", "transfers", "defl_rate"
        );
    }
    let mut warned = Vec::new();
    for (idx, col) in columns.iter().enumerate() {
        let Some(bridge) = col.strip_suffix("_occ") else { continue };
        // The occupancy gauge is instantaneous; deflections/transfers are
        // cumulative, so their final row holds the run totals.
        let mut occ: Vec<f64> = rows.iter().filter_map(|r| value_at(r, idx)).collect();
        occ.sort_by(f64::total_cmp);
        let occ_p95 = if occ.is_empty() {
            0.0
        } else {
            occ[((occ.len() as f64 * 0.95).ceil() as usize).clamp(1, occ.len()) - 1]
        };
        let find = |suffix: &str| {
            let name = format!("{bridge}{suffix}");
            columns
                .iter()
                .position(|c| **c == name)
                .and_then(|i| rows.last().and_then(|r| value_at(r, i)))
        };
        let defl = find("_defl").unwrap_or(0.0);
        let xfer = find("_xfer").unwrap_or(0.0);
        let rate = if defl + xfer > 0.0 { defl / (defl + xfer) } else { 0.0 };
        if csv {
            println!("{bridge},{occ_p95},{defl},{xfer},{rate}");
        } else {
            println!(
                "  {:<10} {:>9.1} {:>12.0} {:>12.0} {:>9.1}%",
                bridge,
                occ_p95,
                defl,
                xfer,
                100.0 * rate
            );
        }
        if rate > DEFLECTION_WARN_RATE {
            warned.push((bridge, rate));
        }
    }
    for (bridge, rate) in warned {
        eprintln!(
            "warning: {path}: bridge {bridge} deflected {:.1}% of its arbitrations \
             (> {:.0}%) — the transfer queue is undersized for this workload \
             (raise --bridge-buffer)",
            100.0 * rate,
            100.0 * DEFLECTION_WARN_RATE
        );
    }
    Ok(())
}

/// `ringsim serve`: the long-running HTTP experiment service (see
/// `ringsim::serve`). Blocks until SIGINT/SIGTERM or `POST /shutdown`,
/// drains in-flight jobs, then returns cleanly.
fn serve_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let mut cfg = ringsim::serve::ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    }
    if let Some(out) = flags.get("out") {
        cfg.out_dir = out.into();
    }
    if let Some(w) = flags.get("workers") {
        cfg.workers = w.parse::<usize>()?.max(1);
    }
    if let Some(q) = flags.get("queue-cap") {
        cfg.queue_cap = q.parse::<usize>()?;
    }
    if let Some(j) = flags.get("sweep-jobs") {
        cfg.sweep_jobs = j.parse::<usize>()?;
    }
    if let Some(r) = flags.get("refs") {
        cfg.default_refs = r.parse::<u64>()?;
    }
    if let Some(s) = flags.get("shards") {
        cfg.shards = s.parse::<usize>()?;
    }
    if let Some(b) = flags.get("gc-max-bytes") {
        cfg.gc_max_bytes = b.parse::<u64>()?;
    }
    if let Some(s) = flags.get("gc-max-age-secs") {
        cfg.gc_max_age = std::time::Duration::from_secs(s.parse::<u64>()?);
    }
    if let Some(s) = flags.get("gc-min-age-secs") {
        cfg.gc_min_age = std::time::Duration::from_secs(s.parse::<u64>()?);
    }
    if let Some(s) = flags.get("gc-interval-secs") {
        cfg.gc_interval = std::time::Duration::from_secs(s.parse::<u64>()?);
    }
    ringsim::serve::run(cfg)?;
    Ok(())
}

/// `ringsim serve-worker`: one shard of a sharded serve run. Spawned by the
/// serve coordinator — caches its stripe of the sweep in the run directory
/// and streams `@ringsim-progress` protocol lines on stdout.
fn serve_worker_cmd(args: &[String]) -> ExitCode {
    match serve_worker_spec(args) {
        Ok(spec) => match ringsim::serve::worker::run_worker(&spec) {
            0 => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_worker_spec(
    args: &[String],
) -> Result<ringsim::serve::worker::WorkerSpec, Box<dyn Error>> {
    let flags = parse_flags(args)?;
    let need =
        |key: &str| flags.get(key).cloned().ok_or_else(|| format!("serve-worker needs --{key}"));
    Ok(ringsim::serve::worker::WorkerSpec {
        experiment: need("experiment")?,
        refs: need("refs")?.parse::<u64>()?,
        cache_dir: need("cache-dir")?.into(),
        shard: need("shard")?.parse::<ringsim::sweep::Shard>()?,
        jobs: flags.get("jobs").map_or(Ok(0), |j| j.parse::<usize>())?,
    })
}

fn record_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let (bench, procs) = benchmark_of(&flags)?;
    let out = flags.get("out").ok_or("--out <path> is required")?;
    let spec = bench.spec(procs)?.with_refs(refs_of(&flags)?);
    let trace = ringsim::trace::RecordedTrace::capture(&spec)?;
    trace.save(out)?;
    println!(
        "recorded {} references ({} per processor) to {out}",
        trace.total_refs(),
        trace.total_refs() / procs as u64
    );
    Ok(())
}

fn replay_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let path = flags.get("trace").ok_or("--trace <path> is required")?;
    let trace = ringsim::trace::RecordedTrace::load(path)?;
    let procs = trace.procs();
    let mips = mips_of(&flags)?;
    let proc_cycle = Time::from_ps(1_000_000 / mips);
    let kind = network_of(flags.get("network").map_or("ring500", String::as_str))?;
    if kind.is_hier() {
        return Err(format!(
            "the hierarchy backends are transaction-level and cannot \
             replay reference traces (use sim --network {})",
            kind.name()
        )
        .into());
    }
    let spec = SimSpec::new(trace.workload())
        .with_protocol(protocol_of(&flags)?)
        .with_proc_cycle(proc_cycle);
    let mut sim = kind.build(&spec)?;
    let report = sim.run(&RunOptions::default()).report;
    println!("replayed {path} on {} ({procs} processors at {mips} MIPS)", kind.name());
    println!("  protocol              : {}", report.protocol);
    println!("  processor utilisation : {:5.1} %", 100.0 * report.proc_util);
    println!("  network utilisation   : {:5.1} %", 100.0 * report.ring_util);
    println!("  mean miss latency     : {:5.0} ns", report.miss_latency_ns());
    Ok(())
}

fn sweep_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let (bench, procs) = benchmark_of(&flags)?;
    let spec = bench.spec(procs)?.with_refs(refs_of(&flags)?);
    let ch = characterize(&spec)?;
    let input = ModelInput::from_characteristics(&ch);
    let network = flags.get("network").map_or("ring500", String::as_str);
    println!("# {} on {network}, {procs} processors — model sweep", bench.name());
    println!("# proc_cycle_ns proc_util_pct net_util_pct miss_latency_ns");
    let points: Vec<(u64, f64, f64, f64)> = match network {
        "ring500" | "ring250" => {
            let protocol = protocol_of(&flags)?;
            let ring = if network == "ring500" {
                RingConfig::standard_500mhz(procs)
            } else {
                RingConfig::standard_250mhz(procs)
            };
            RingModel::new(ring, protocol)
                .sweep(&input, 1, 20)
                .into_iter()
                .map(|(t, o)| (t.as_ps() / 1000, o.proc_util, o.net_util, o.miss_latency_ns))
                .collect()
        }
        "bus50" | "bus100" => {
            let bus = if network == "bus100" {
                BusConfig::bus_100mhz(procs)
            } else {
                BusConfig::bus_50mhz(procs)
            };
            BusModel::new(bus)
                .sweep(&input, 1, 20)
                .into_iter()
                .map(|(t, o)| (t.as_ps() / 1000, o.proc_util, o.net_util, o.miss_latency_ns))
                .collect()
        }
        other => return Err(format!("unknown network `{other}`").into()),
    };
    for (ns, u, n, l) in points {
        println!("{ns:2} {:6.2} {:6.2} {l:8.1}", 100.0 * u, 100.0 * n);
    }
    Ok(())
}

fn model_cmd(args: &[String]) -> CliResult {
    let flags = parse_flags(args)?;
    let (bench, procs) = benchmark_of(&flags)?;
    let mips = mips_of(&flags)?;
    let proc_cycle = Time::from_ps(1_000_000 / mips);
    let spec = bench.spec(procs)?.with_refs(refs_of(&flags)?);
    let ch = characterize(&spec)?;
    let input = ModelInput::from_characteristics(&ch);
    let network = flags.get("network").map_or("ring500", String::as_str);
    let out = match network {
        "ring500" | "ring250" => {
            let protocol = protocol_of(&flags)?;
            let ring = if network == "ring500" {
                RingConfig::standard_500mhz(procs)
            } else {
                RingConfig::standard_250mhz(procs)
            };
            RingModel::new(ring, protocol).evaluate(&input, proc_cycle)
        }
        "bus50" | "bus100" => {
            let bus = if network == "bus100" {
                BusConfig::bus_100mhz(procs)
            } else {
                BusConfig::bus_50mhz(procs)
            };
            BusModel::new(bus).evaluate(&input, proc_cycle)
        }
        other => return Err(format!("unknown network `{other}`").into()),
    };
    println!("analytical model: {} on {network}, {procs} processors at {mips} MIPS", bench.name());
    println!("  processor utilisation : {:5.1} %", 100.0 * out.proc_util);
    println!("  network utilisation   : {:5.1} %", 100.0 * out.net_util);
    println!("  mean miss latency     : {:5.0} ns", out.miss_latency_ns);
    println!("  converged             : {} ({} iterations)", out.converged, out.iterations);
    Ok(())
}
