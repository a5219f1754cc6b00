//! `fis-one` command-line interface.
//!
//! ```text
//! fis-one generate --floors 5 --samples 200 --seed 7 --buildings 8 --out corpus.jsonl
//! fis-one identify --corpus corpus.jsonl [--building NAME]
//! fis-one evaluate --corpus corpus.jsonl
//! fis-one fit      --corpus corpus.jsonl --out model.json [--trace trace.jsonl]
//! fis-one assign   --model model.json --scans corpus.jsonl
//! fis-one extend   --model model.json --scans drift.jsonl --out model-v2.json
//! fis-one serve    --models DIR [--tcp ADDR] [--trace trace.jsonl] [--metrics m.prom]
//! fis-one stats    --corpus corpus.jsonl
//! fis-one trace    summarize trace.jsonl
//! ```
//!
//! `generate` synthesizes a corpus of one or more buildings
//! (`--buildings N` emits `NAME-0` … `NAME-{N-1}`, each reseeded with
//! `seed + i` so the corpora are distinct); `identify` runs the pipeline
//! with each building's bottom-floor anchor and prints per-sample floors;
//! `evaluate` scores against the stored ground truth; `fit` persists a
//! serving artifact and `assign` labels scans against it without
//! refitting; `extend` grows a fitted artifact with freshly collected
//! scans — new MAC vocabulary included — without refitting and without
//! changing any answer the base model would give; `serve` runs the
//! long-lived multi-tenant daemon over a
//! directory of fitted artifacts; `stats` prints the spillover
//! statistics behind Figure 1. Each command accepts exactly the flags
//! its `USAGE` line lists; any other flag is rejected with exit code 2.

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use fis_one::core::{EngineConfig, FisEngine};
use fis_one::types::io;
use fis_one::{BuildingConfig, Dataset, FisOneConfig, FittedModel};
use fis_serve::{Daemon, DaemonConfig, RegistryConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `trace` takes a positional subcommand, not --flag pairs.
    if command == "trace" {
        return match cmd_trace(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_flags(command, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "identify" => cmd_identify(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "fit" => cmd_fit(&opts),
        "assign" => cmd_assign(&opts),
        "extend" => cmd_extend(&opts),
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fis-one generate --floors N --samples M [--seed S] [--name NAME] \
[--buildings B] --out FILE
  fis-one identify --corpus FILE [--building NAME] [--seed S] [--threads T]
  fis-one evaluate --corpus FILE [--seed S] [--threads T]
  fis-one fit      --corpus FILE --out FILE [--building NAME] [--seed S] \
[--threads T] [--trace FILE]
  fis-one assign   --model FILE --scans FILE [--building NAME] [--threads T] \
[--out FILE]
  fis-one extend   --model FILE --scans FILE [--building NAME] --out FILE
  fis-one serve    --models DIR [--tcp ADDR] [--pool W] [--max-models N] \
[--max-bytes B] [--max-batch K] [--threads T] [--trace FILE] \
[--metrics FILE]
  fis-one stats    --corpus FILE
  fis-one trace    summarize FILE

Each command rejects any flag its line above does not list (exit 2).

generate writes a corpus of --buildings B buildings (default 1). With
B = 1 the single building is named NAME; with B > 1 they are named
NAME-0 .. NAME-(B-1) and building i is reseeded with seed S + i, so
every building gets a distinct corpus.

identify and evaluate run all buildings of the corpus concurrently;
--threads (or FIS_THREADS) caps the worker budget, default = all cores.
Predictions are bit-identical for any thread count at a fixed seed.

fit persists one building's pipeline output as a serving artifact
(one JSON document). assign labels scans against it without refitting
(--building restricts a multi-building scan file to one building),
printing the same format as identify so the two can be diffed; --out
writes those assignment lines to FILE instead of stdout.

extend grows a fitted artifact with freshly collected scans without
refitting: scans carrying at least one base-vocabulary MAC are labeled
by the frozen base model and appended, new MACs enter the extended
vocabulary, and scans with no base overlap are skipped. Assignments
the base model could answer are bit-identical before and after, and
the extended artifact bytes depend only on (base artifact, scans) —
extending the same inputs anywhere yields the same file.

serve runs the long-lived multi-tenant daemon over a directory of
fitted artifacts (DIR/<building>.json, lazy-loaded, LRU-evicted; a
resident model is reread only on a v2 swap), speaking newline-delimited
JSON on stdin/stdout, or on a TCP listener with --tcp HOST:PORT. TCP mode
serves connections concurrently on a bounded pool of --pool W worker
threads (default: one per core, clamped to 2..=8).
Frames with \"v\":2 additionally unlock the mutation ops extend (grow
a served model in place, atomically republished) and swap (put the
artifact now on disk live; to publish a refit, write it, then swap);
plain v1 frames are answered byte-for-byte as before versioning existed.
Send {\"op\":\"shutdown\"} for a clean stop; final stats go to stderr.

Observability: --trace FILE (on fit and serve) records pipeline and
request spans to a bounded in-memory journal and flushes it to FILE
as JSONL on exit; `trace summarize FILE` folds such a journal into a
per-stage count/duration table. serve --metrics FILE dumps the
daemon's metrics in Prometheus text format on exit (the same text the
v2 `metrics` op returns live). FIS_LOG=error|warn|info|debug|trace
sets stderr verbosity (default warn). Recording is out-of-band:
answers are bit-identical with observability on or off.";

/// The flags `command` takes: every `--flag` on its `USAGE` line, or
/// `None` for a command `USAGE` does not list (dispatch rejects those).
fn usage_flags(command: &str) -> Option<Vec<&'static str>> {
    let line = USAGE.lines().find(|line| {
        let mut words = line.split_whitespace();
        words.next() == Some("fis-one") && words.next() == Some(command)
    })?;
    Some(
        line.split_whitespace()
            .filter_map(|word| {
                word.trim_matches(|c| c == '[' || c == ']')
                    .strip_prefix("--")
            })
            .collect(),
    )
}

fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let known = usage_flags(command);
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        if known.as_ref().is_some_and(|known| !known.contains(&key)) {
            return Err(format!("unknown flag --{key} for {command}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    Ok(map)
}

fn get<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn load(opts: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = get(opts, "corpus")?;
    io::load_jsonl(path).map_err(|e| e.to_string())
}

fn engine(opts: &HashMap<String, String>) -> Result<FisEngine, String> {
    let seed = opts
        .get("seed")
        .map(|s| parse::<u64>(s, "seed"))
        .transpose()?
        .unwrap_or(0);
    let threads = opts
        .get("threads")
        .map(|s| parse::<usize>(s, "thread count"))
        .transpose()?
        .unwrap_or(0);
    Ok(FisEngine::new(
        EngineConfig::default()
            .pipeline(FisOneConfig::default().seed(seed))
            .threads(threads),
    ))
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let floors: usize = parse(get(opts, "floors")?, "floor count")?;
    let samples: usize = parse(get(opts, "samples")?, "sample count")?;
    let seed = opts
        .get("seed")
        .map(|s| parse::<u64>(s, "seed"))
        .transpose()?
        .unwrap_or(0);
    let name = opts
        .get("name")
        .cloned()
        .unwrap_or_else(|| "building".into());
    let count: usize = opts
        .get("buildings")
        .map(|s| parse(s, "building count"))
        .transpose()?
        .unwrap_or(1);
    let out = get(opts, "out")?;
    if floors == 0 || samples == 0 || count == 0 {
        return Err("floors, samples, and buildings must be positive".into());
    }
    let buildings = (0..count)
        .map(|i| {
            let building_name = if count == 1 {
                name.clone()
            } else {
                format!("{name}-{i}")
            };
            BuildingConfig::new(building_name, floors)
                .samples_per_floor(samples)
                .seed(seed.wrapping_add(i as u64))
                .generate()
        })
        .collect();
    let ds = Dataset::new("cli", buildings);
    io::save_jsonl(&ds, out).map_err(|e| e.to_string())?;
    println!("wrote {out} ({count} buildings x {floors} floors x {samples} samples)");
    Ok(())
}

/// Restricts a corpus to the buildings named `name` (all of them: names
/// need not be unique in a concatenated corpus).
fn select_buildings(ds: Dataset, name: &str) -> Result<Dataset, String> {
    let picked: Vec<_> = ds
        .buildings()
        .iter()
        .filter(|b| b.name() == name)
        .cloned()
        .collect();
    if picked.is_empty() {
        return Err(format!("no building named `{name}` in the corpus"));
    }
    Ok(Dataset::new(ds.name(), picked))
}

fn cmd_identify(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load(opts)?;
    let selected: Dataset = match opts.get("building") {
        None => ds,
        Some(name) => select_buildings(ds, name)?,
    };
    let engine = engine(opts)?;
    let report = engine.identify_corpus(&selected);
    // Runs are in corpus order, so pair by position — names need not be
    // unique in a concatenated corpus.
    for (building, run) in selected.buildings().iter().zip(report.runs.iter()) {
        let Ok(outcome) = &run.outcome else { continue };
        println!("# {} ({} floors)", run.building, run.floors);
        for (sample, floor) in building.samples().iter().zip(outcome.prediction.labels()) {
            println!("{} {floor}", sample.id());
        }
    }
    for (run, err) in report.failures() {
        eprintln!("# {} FAILED: {err}", run.building);
    }
    eprintln!(
        "# {} buildings in {:.2?} on {} threads",
        report.runs.len(),
        report.wall,
        report.threads
    );
    if report.failures().count() > 0 {
        return Err("some buildings failed; see stderr".to_owned());
    }
    Ok(())
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load(opts)?;
    let engine = engine(opts)?;
    let report = engine.evaluate_corpus(&ds);
    println!(
        "{:<20} {:>7} {:>7} {:>7} {:>10}",
        "building", "ARI", "NMI", "edit", "time"
    );
    for run in &report.runs {
        match &run.outcome {
            Ok(outcome) => {
                let r = outcome.eval.expect("evaluate_corpus scores every success");
                println!(
                    "{:<20} {:>7.3} {:>7.3} {:>7.3} {:>10.2?}",
                    run.building, r.ari, r.nmi, r.edit, run.elapsed
                );
            }
            Err(e) => println!("{:<20} FAILED: {e}", run.building),
        }
    }
    let mean = report.mean_eval();
    println!(
        "{:<20} {:>7.3} {:>7.3} {:>7.3} {:>10.2?}",
        "mean", mean.ari, mean.nmi, mean.edit, report.wall
    );
    eprintln!(
        "# wall {:.2?} vs cpu {:.2?} on {} threads (speedup {:.2}x)",
        report.wall,
        report.cpu_time(),
        report.threads,
        report.cpu_time().as_secs_f64() / report.wall.as_secs_f64().max(1e-9)
    );
    // A partially failed evaluation must not exit 0 — CI gates on it.
    if report.failures().count() > 0 {
        return Err("some buildings failed; see the table above".to_owned());
    }
    Ok(())
}

fn cmd_fit(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load(opts)?;
    let out = get(opts, "out")?;
    let selected: Dataset = match opts.get("building") {
        None => ds,
        Some(name) => select_buildings(ds, name)?,
    };
    // A model artifact covers exactly one building; duplicate names in a
    // concatenated corpus are ambiguous here, unlike identify.
    if selected.len() != 1 {
        let names: Vec<&str> = selected.buildings().iter().map(|b| b.name()).collect();
        return Err(format!(
            "fit needs exactly one building, got {} ({}); \
             pick a unique one with --building NAME",
            selected.len(),
            names.join(", ")
        ));
    }
    let engine = engine(opts)?;
    if opts.contains_key("trace") {
        fis_obs::journal::start(fis_obs::journal::DEFAULT_JOURNAL_CAPACITY);
    }
    let fit = engine.fit_corpus(&selected);
    if let Some(path) = opts.get("trace") {
        let written = fis_obs::journal::flush_to(std::path::Path::new(path))
            .map_err(|e| format!("writing trace journal `{path}`: {e}"))?;
        eprintln!("# wrote {written} trace event(s) to {path}");
    }
    if let Some((run, err)) = fit.failures().next() {
        return Err(format!("fitting {} failed: {err}", run.building));
    }
    let (run, model) = fit.successes().next().expect("one building, no failure");
    model.save(out).map_err(|e| e.to_string())?;
    eprintln!(
        "# fitted {} ({} floors, {} scans, {} MACs) in {:.2?}; wrote {out}",
        run.building,
        run.floors,
        run.samples,
        model.macs().len(),
        run.elapsed
    );
    Ok(())
}

fn cmd_assign(opts: &HashMap<String, String>) -> Result<(), String> {
    let model = FittedModel::load(get(opts, "model")?).map_err(|e| e.to_string())?;
    let scans = io::load_jsonl(get(opts, "scans")?).map_err(|e| e.to_string())?;
    let scans = match opts.get("building") {
        None => scans,
        Some(name) => select_buildings(scans, name)?,
    };
    let threads = opts
        .get("threads")
        .map(|s| parse::<usize>(s, "thread count"))
        .transpose()?
        .unwrap_or(0);
    // Assignment lines go to stdout by default, or to --out FILE so
    // scripts can diff serving paths without shell redirection.
    let mut sink: Box<dyn Write> = match opts.get("out") {
        None => Box::new(std::io::stdout().lock()),
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating `{path}`: {e}"))?,
        )),
    };
    let emit = |sink: &mut dyn Write, line: std::fmt::Arguments| {
        writeln!(sink, "{line}").map_err(|e| format!("writing assignments: {e}"))
    };
    let started = std::time::Instant::now();
    let mut scan_count = 0usize;
    let mut failures = 0usize;
    for building in scans.buildings() {
        if building.name() != model.building() {
            // Legitimate for live scans collected under another label
            // (e.g. `hq-live`), but worth flagging: a different site's
            // scans would be confidently mislabeled wherever MAC
            // vocabularies overlap.
            eprintln!(
                "# warning: assigning scans of `{}` against the model fitted on `{}`",
                building.name(),
                model.building()
            );
        }
        emit(
            &mut *sink,
            format_args!("# {} ({} floors)", building.name(), model.floors()),
        )?;
        let results = model.assign_stream(building.samples(), threads);
        scan_count += results.len();
        for (sample, result) in building.samples().iter().zip(results) {
            match result {
                Ok(floor) => emit(&mut *sink, format_args!("{} {floor}", sample.id()))?,
                Err(e) => {
                    failures += 1;
                    eprintln!("# {} {} FAILED: {e}", building.name(), sample.id());
                }
            }
        }
    }
    sink.flush()
        .map_err(|e| format!("writing assignments: {e}"))?;
    eprintln!(
        "# assigned {scan_count} scans against model `{}` in {:.2?}",
        model.building(),
        started.elapsed()
    );
    if failures > 0 {
        return Err(format!("{failures} scan(s) failed; see stderr"));
    }
    Ok(())
}

fn cmd_extend(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut model = FittedModel::load(get(opts, "model")?).map_err(|e| e.to_string())?;
    let out = get(opts, "out")?;
    let scans = io::load_jsonl(get(opts, "scans")?).map_err(|e| e.to_string())?;
    let scans = match opts.get("building") {
        None => scans,
        Some(name) => select_buildings(scans, name)?,
    };
    let mut samples = Vec::new();
    for building in scans.buildings() {
        if building.name() != model.building() {
            // Same caveat as assign: drift corpora are often collected
            // under a live label, but a genuinely different site would
            // pollute the extended vocabulary.
            eprintln!(
                "# warning: extending the model fitted on `{}` with scans of `{}`",
                model.building(),
                building.name()
            );
        }
        samples.extend_from_slice(building.samples());
    }
    let started = std::time::Instant::now();
    let report = model.extend(&samples).map_err(|e| e.to_string())?;
    model.save(out).map_err(|e| e.to_string())?;
    eprintln!(
        "# extended {}: appended {} scans ({} skipped, {} new MACs), \
         now {} scans / {} MACs in {:.2?}; wrote {out}",
        model.building(),
        report.appended,
        report.skipped,
        report.new_macs,
        report.total_scans,
        report.total_macs,
        started.elapsed()
    );
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let dir = get(opts, "models")?;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("--models `{dir}` is not a directory"));
    }
    let flag = |key: &str| {
        opts.get(key)
            .map(|s| parse::<u64>(s, key))
            .transpose()
            .map(|v| v.unwrap_or(0))
    };
    let registry = RegistryConfig::new(dir)
        .max_models(flag("max-models")? as usize)
        .max_bytes(flag("max-bytes")?);
    let daemon = Daemon::new(
        DaemonConfig::new(registry)
            .threads(flag("threads")? as usize)
            .max_batch(flag("max-batch")? as usize)
            .pool(flag("pool")? as usize),
    );
    if opts.contains_key("trace") {
        fis_obs::journal::start(fis_obs::journal::DEFAULT_JOURNAL_CAPACITY);
    }
    match opts.get("tcp") {
        None => {
            eprintln!("# fis-serve: pipe mode over {dir} (send {{\"op\":\"shutdown\"}} to stop)");
            daemon
                .serve_stdio()
                .map_err(|e| format!("serving stdin/stdout: {e}"))?;
        }
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding `{addr}`: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("resolving local address: {e}"))?;
            eprintln!("# fis-serve: listening on {local} over {dir}");
            daemon
                .serve_tcp(&listener)
                .map_err(|e| format!("serving {local}: {e}"))?;
        }
    }
    if let Some(path) = opts.get("trace") {
        let written = fis_obs::journal::flush_to(std::path::Path::new(path))
            .map_err(|e| format!("writing trace journal `{path}`: {e}"))?;
        eprintln!("# fis-serve: wrote {written} trace event(s) to {path}");
    }
    if let Some(path) = opts.get("metrics") {
        std::fs::write(path, daemon.prometheus_text())
            .map_err(|e| format!("writing metrics `{path}`: {e}"))?;
        eprintln!("# fis-serve: wrote metrics to {path}");
    }
    eprintln!("# fis-serve: stopped; final stats {}", daemon.stats_json());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args {
        [sub, file] if sub == "summarize" => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("reading trace journal `{file}`: {e}"))?;
            let stages = fis_obs::summarize(&text);
            if stages.is_empty() {
                return Err(format!("trace journal `{file}` holds no events"));
            }
            print!("{}", fis_obs::render_table(&stages));
            Ok(())
        }
        _ => Err("usage: fis-one trace summarize FILE".to_owned()),
    }
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load(opts)?;
    for b in ds.buildings() {
        let hist = fis_one::types::stats::mac_floor_span_histogram(b);
        let (adj, far) = fis_one::types::stats::spillover_contrast(b, 3);
        println!(
            "{}: {} floors, {} samples, {} MACs, span histogram {:?}, \
             shared MACs adjacent {:.1} vs distant {:.1}",
            b.name(),
            b.floors(),
            b.len(),
            fis_one::types::stats::total_macs(b),
            hist,
            adj,
            far
        );
    }
    Ok(())
}
