//! End-to-end and per-layer benchmark of FIS-ONE's serving tier.
//!
//! ```text
//! perfbench --workload serve-warm|serve-churn --seed N --seconds S --trace 0|1
//!           [--fis-one PATH] [--smoke] [--corrupt]
//! ```
//!
//! Each run fits a fleet of tenants with the shipped `fis-one fit`, serves
//! them with the shipped `fis-one serve --tcp`, drives two closed-loop
//! connections for `--seconds`, checks every answer against an
//! in-process load of the same artifact, and prints one JSON result line
//! last. `--trace 1` adds the per-layer probes of [`layers`] and reports
//! their metrics instead. `--smoke` shrinks every size so a run takes
//! seconds; `--corrupt` falsifies one expected answer, so the run must
//! report failure. See `perfbench/README.md` for the metric map.

mod fleet;
mod layers;
mod stats;
mod traffic;

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fis_one::metrics::adjusted_rand_index;
use fis_one::types::json::Json;
use fis_one::{FisOneConfig, FittedModel};

use fleet::{Cli, Conn, Scale, Tenant};
use stats::{mean, median, Metrics};
use traffic::{Mode, Traffic};

/// The registry re-reads and hashes an artifact on every request while
/// its mtime is this close to the last verification.
const FRESH_WRITE_WINDOW: Duration = Duration::from_secs(2);

/// Quality floor every run must clear on both the training labels and
/// the served held-out answers (chance is an ARI of 0).
const MIN_ARI: f64 = 0.5;

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    fis_one: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut smoke, mut corrupt, mut fis_one) = (false, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                mode = Some(match value()?.as_str() {
                    "serve-warm" => Mode::Warm,
                    "serve-churn" => Mode::Churn,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value()? == "1"),
            "--fis-one" => fis_one = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let fis_one = fis_one.unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        Path::new(&target).join("release").join("fis-one")
    });
    Ok(Args {
        mode: mode.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        corrupt,
        fis_one,
    })
}

/// Operations attempted and failed, reported on the result line.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.fis_one.is_file() {
        eprintln!("perfbench: no fis-one binary at {}", args.fis_one.display());
        return ExitCode::from(2);
    }
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.mode.name(),
        args.seed,
        std::process::id()
    ));
    let mut tally = Tally::default();
    let outcome = fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &mut tally));
    let _ = fs::remove_dir_all(&work);
    match outcome {
        Ok(metrics) => {
            println!(
                "{}",
                stats::result_line(true, tally.attempted, tally.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            let attempted = tally.attempted.max(1);
            let failed = tally.failed.max(1);
            println!(
                "{}",
                stats::result_line(false, attempted, failed, &Metrics::default())
            );
            ExitCode::FAILURE
        }
    }
}

/// Everything one set-up leaves running.
struct Served {
    daemon: fleet::DaemonProc,
    a: Conn,
    b: Conn,
    models: PathBuf,
    corpora: PathBuf,
}

/// One set-up: generate the tenants' corpora, fit them with the shipped
/// CLI (as many at once as there are cores, one thread each), start the
/// daemon and warm both connections. Returns the per-fit wall times.
fn set_up(
    args: &Args,
    scale: &Scale,
    tenants: &[Tenant],
    dir: &Path,
) -> Result<(Served, Vec<f64>), String> {
    let cli = Cli {
        exe: args.fis_one.clone(),
    };
    let (corpora, models) = (dir.join("corpus"), dir.join("models"));
    for d in [&corpora, &models] {
        fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    for (i, tenant) in tenants.iter().enumerate() {
        cli.generate(
            args.seed,
            scale,
            i,
            &corpora.join(format!("{}.jsonl", tenant.name)),
        )?;
    }
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fit_s = Vec::new();
    for group in tenants.chunks(width) {
        let walls: Vec<Result<f64, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = group
                .iter()
                .map(|t| {
                    let (cli, corpus) = (&cli, corpora.join(format!("{}.jsonl", t.name)));
                    let out = models.join(format!("{}.json", t.name));
                    s.spawn(move || cli.fit(&corpus, &out, Some(1)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fit thread panicked"))
                .collect()
        });
        for wall in walls {
            fit_s.push(wall?);
        }
    }
    let daemon = cli.serve(&models, &dir.join("daemon.log"))?;
    let mut a = Conn::open(&daemon.addr)?;
    let mut b = Conn::open(&daemon.addr)?;
    traffic::touch([&mut a, &mut b], tenants, traffic::load)?;
    traffic::touch([&mut a, &mut b], tenants, traffic::first_frame)?;
    Ok((
        Served {
            daemon,
            a,
            b,
            models,
            corpora,
        },
        fit_s,
    ))
}

fn run(args: &Args, work: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let tenants = fleet::tenants(args.seed, &scale);
    let setups = if args.trace { 1 } else { scale.setups };
    let (mut setup_s, mut fit_s) = (Vec::new(), Vec::new());
    let mut artifacts: Option<Vec<Vec<u8>>> = None;
    let mut served = None;
    for k in 0..setups {
        let started = Instant::now();
        let (mut s, fits) = set_up(args, &scale, &tenants, &work.join(format!("setup-{k}")))?;
        setup_s.push(started.elapsed().as_secs_f64());
        tally.attempted += fits.len() as u64;
        fit_s.extend(fits);
        let bytes = read_artifacts(&s.models, &tenants)?;
        match &artifacts {
            None => artifacts = Some(bytes),
            Some(first) if *first != bytes => {
                return Err("artifacts differ between set-ups of the same seed".into())
            }
            Some(_) => {}
        }
        if k + 1 < setups {
            s.daemon.shutdown(&mut s.a)?;
        } else {
            served = Some(s);
        }
    }
    let Served {
        daemon,
        mut a,
        mut b,
        models,
        corpora,
    } = served.expect("at least one set-up");
    eprintln!("perfbench: set-up {:.2?} s, fits {:.2?} s", setup_s, fit_s);

    fleet::wait_out_fresh_writes(&models, FRESH_WRITE_WINDOW)?;
    traffic::touch([&mut a, &mut b], &tenants, traffic::first_frame)?;
    let cap = (3.0 * args.seconds).clamp(args.seconds, 100.0);
    let timed = traffic::run(
        args.mode,
        [&mut a, &mut b],
        &tenants,
        args.seconds,
        scale.min_requests,
        cap,
    )?;
    let counters = b.registry_counters()?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown(&mut a)?;
    tally.attempted += (timed.a.len() + timed.b.len()) as u64;
    tally.failed += timed.errors as u64;
    if timed.errors > 0 {
        return Err(format!("{} requests got an error reply", timed.errors));
    }

    let quality = verify(&models, &tenants, &scale, &timed, args.corrupt)?;
    let artifact_mb = mean(
        &artifacts
            .expect("at least one set-up")
            .iter()
            .map(|a| a.len() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let warm: Vec<(f64, f64)> = match args.mode {
        Mode::Warm => timed
            .a
            .iter()
            .chain(&timed.b)
            .map(|s| (s.at, s.ms))
            .collect(),
        Mode::Churn => timed.b.iter().map(|s| (s.at, s.ms)).collect(),
    };
    let conn_a: Vec<(f64, f64)> = timed.a.iter().map(|s| (s.at, s.ms)).collect();
    let warm = stats::latency(&warm, timed.elapsed);
    let conn_a = stats::latency(&conn_a, timed.elapsed);
    eprintln!(
        "perfbench: {:.1} s timed, {} A / {} B requests, registry hits/misses/evictions {:?}",
        timed.elapsed,
        timed.a.len(),
        timed.b.len(),
        counters
    );

    if args.trace {
        let cold_requests = match args.mode {
            Mode::Warm => tenants.len(),
            Mode::Churn => tenants.len() + timed.a.len(),
        };
        let probe = layers::Inputs {
            cli: Cli {
                exe: args.fis_one.clone(),
            },
            tenants: &tenants,
            scale: &scale,
            models: &models,
            corpora: &corpora,
            work,
            mode: args.mode,
            warm,
            conn_a,
            registry: counters,
            cold_requests,
            file: Path::new(".bench_work").join(format!(
                "trace-{}-{}.jsonl",
                args.mode.name(),
                args.seed
            )),
        };
        return layers::probe(&probe);
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("fit_s", median(&fit_s), "s");
    m.put("fit_ari", quality.fit_ari, "ARI");
    m.put("heldout_ari", quality.heldout_ari, "ARI");
    m.put("artifact_mb", artifact_mb, "MB");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("warm_p50_ms", warm.p50_ms, "ms");
    m.put("conn_a_p50_ms", conn_a.p50_ms, "ms");
    let bad = m.non_finite();
    if !bad.is_empty() {
        return Err(format!("metrics without a finite value: {bad:?}"));
    }
    Ok(m)
}

fn read_artifacts(models: &Path, tenants: &[Tenant]) -> Result<Vec<Vec<u8>>, String> {
    tenants
        .iter()
        .map(|t| {
            let path = models.join(format!("{}.json", t.name));
            fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))
        })
        .collect()
}

/// Per-tenant means. ARI ignores how clusters are numbered, so it is
/// steady across seeds; the accuracies also need the floor order right,
/// which flips for some seeds, so they are only logged.
#[derive(Debug)]
struct Quality {
    fit_ari: f64,
    heldout_ari: f64,
    fit_accuracy: f64,
    heldout_accuracy: f64,
}

/// The output checks. Every served answer must equal
/// [`FittedModel::assign`] on an in-process load of the same artifact,
/// every model must carry the shipped default configuration, and the
/// fleet must identify floors well above chance.
fn verify(
    models: &Path,
    tenants: &[Tenant],
    scale: &Scale,
    timed: &Traffic,
    corrupt: bool,
) -> Result<Quality, String> {
    let (mut aris, mut accuracies) = (Vec::new(), Vec::new());
    let (mut heldout_aris, mut heldout_accuracies) = (Vec::new(), Vec::new());
    // expected[tenant][query] = the in-process answer.
    let mut expected: Vec<Vec<usize>> = Vec::new();
    for tenant in tenants {
        let model = FittedModel::load(models.join(format!("{}.json", tenant.name)))
            .map_err(|e| format!("loading {} in-process: {e}", tenant.name))?;
        let config = model.config();
        if *config != FisOneConfig::default().seed(config.gnn.seed) {
            return Err(format!(
                "{} was not fitted with the default config",
                tenant.name
            ));
        }
        let trained: Vec<usize> = model.training_labels().iter().map(|f| f.index()).collect();
        if trained.len() != tenant.train_truth.len() {
            return Err(format!(
                "{} has {} training scans, expected {}",
                tenant.name,
                trained.len(),
                tenant.train_truth.len()
            ));
        }
        aris.push(adjusted_rand_index(&trained, &tenant.train_truth)?);
        accuracies.push(share_equal(&trained, &tenant.train_truth));
        let answers = tenant
            .queries
            .iter()
            .map(|scan| model.assign(scan).map(|floor| floor.index()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("in-process assign on {}: {e}", tenant.name))?;
        heldout_aris.push(adjusted_rand_index(&answers, &tenant.truth)?);
        heldout_accuracies.push(share_equal(&answers, &tenant.truth));
        expected.push(answers);
    }
    if corrupt {
        let slot = &mut expected[0][0];
        *slot = (*slot + 1) % scale.floors;
    }
    // The first reply to each frame is decoded and compared with the
    // in-process answers; every later reply must repeat it byte for byte.
    let mut first: HashMap<(usize, usize), &str> = HashMap::new();
    for sample in timed.a.iter().chain(&timed.b) {
        let key = (sample.tenant, sample.frame);
        let name = &tenants[sample.tenant].name;
        match first.get(&key) {
            Some(reply) if *reply == sample.response => {}
            Some(reply) => {
                return Err(format!(
                    "{name} frame {key:?} answered differently: {reply} vs {}",
                    sample.response
                ))
            }
            None => {
                let served = served_floors(&sample.response)?;
                let from = sample.frame * fleet::BATCH;
                let want = &expected[sample.tenant][from..from + fleet::BATCH];
                if served != want {
                    return Err(format!(
                        "{name} frame {key:?}: served {served:?}, in-process assign gives {want:?}"
                    ));
                }
                first.insert(key, &sample.response);
            }
        }
    }
    let quality = Quality {
        fit_ari: mean(&aris),
        heldout_ari: mean(&heldout_aris),
        fit_accuracy: mean(&accuracies),
        heldout_accuracy: mean(&heldout_accuracies),
    };
    eprintln!(
        "perfbench: tenant ARI {aris:.3?}; mean ARI {:.3} training, {:.3} held-out; \
         mean accuracy {:.3} training, {:.3} held-out",
        quality.fit_ari, quality.heldout_ari, quality.fit_accuracy, quality.heldout_accuracy
    );
    if scale.check_quality && (quality.fit_ari < MIN_ARI || quality.heldout_ari < MIN_ARI) {
        return Err(format!("mean ARI below {MIN_ARI}: {quality:?}"));
    }
    Ok(quality)
}

fn share_equal(a: &[usize], b: &[usize]) -> f64 {
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

/// The floors of an `assign_batch` reply, in scan order.
fn served_floors(reply: &str) -> Result<Vec<usize>, String> {
    let json = Json::parse(reply).map_err(|e| format!("unparseable reply {reply}: {e}"))?;
    json.get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("reply without results: {reply}"))?
        .iter()
        .map(|row| {
            row.get("floor")
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("reply row without a floor: {reply}"))
        })
        .collect()
}
