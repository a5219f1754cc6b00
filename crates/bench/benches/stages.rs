//! Criterion micro-benchmarks for every pipeline stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fis_core::indexing::{index_clusters, TspSolver};
use fis_core::similarity::{adapted_jaccard, plain_jaccard, ClusterMacProfile};
use fis_graph::{cooccurrence_pairs, random_walks, BipartiteGraph, WalkStrategy};
use fis_synth::BuildingConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Whether the harness runs in the CI quick mode (tiny measurement
/// window); slow comparison-only benches are skipped there.
fn quick_mode() -> bool {
    std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1")
}

fn bench_building() -> fis_types::Building {
    BuildingConfig::new("bench", 4)
        .samples_per_floor(60)
        .aps_per_floor(12)
        .seed(99)
        .generate()
}

/// The blocked matmul kernel at a GNN-layer-ish size and at a size large
/// enough for the cache blocking to matter. The kernel is the inner loop
/// of every training forward/backward pass, so the gate watching these
/// stages catches regressions in the blocked-loop restructuring without
/// the noise of the full `core/fit` stage on top.
fn bench_linalg(c: &mut Criterion) {
    for &n in &[64usize, 256] {
        let a = fis_linalg::init::uniform_matrix(n, n, -1.0, 1.0, 11);
        let b = fis_linalg::init::uniform_matrix(n, n, -1.0, 1.0, 13);
        c.bench_function(&format!("linalg/matmul({n}x{n})"), |bench| {
            bench.iter(|| std::hint::black_box(&a).matmul(&b))
        });
    }
}

/// The 2000-scan building (5 floors x 400 scans) that `core/fit`,
/// `model/load` and, as a corpus file, `io/corpus_parse` all use.
fn building_2000() -> fis_types::Building {
    BuildingConfig::new("bench", 5)
        .samples_per_floor(400)
        .seed(11)
        .generate()
}

/// Cold-loading a serving artifact: JSON parse, decode, graph + VP-tree
/// rebuild. This is what every registry miss costs, under the building's
/// load slot. `load(240 scans)` is the default-config f64 artifact of a
/// 4-floor x 60-scan building, the size the end-to-end benchmark serves;
/// `load(2000 scans)` is the artifact of the `core/fit` building.
fn bench_model_load(c: &mut Criterion) {
    let served = BuildingConfig::new("bench", 4)
        .samples_per_floor(60)
        .seed(7)
        .generate();
    let dir = std::env::temp_dir().join(format!("fis-bench-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut group = c.benchmark_group("model");
    group.sample_size(20);
    for (stage, building) in [
        ("load(240 scans)", served),
        ("load(2000 scans)", building_2000()),
    ] {
        let path = dir.join(format!("bench-{}.json", building.samples().len()));
        fis_core::FisOne::new(fis_core::FisOneConfig::default().seed(0))
            .fit(
                building.name(),
                building.samples(),
                building.floors(),
                building.bottom_anchor().unwrap(),
            )
            .expect("bench building fits")
            .save(&path)
            .expect("artifact saves");
        group.bench_function(stage, |bench| {
            bench.iter(|| fis_core::FittedModel::load(std::hint::black_box(&path)).unwrap())
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// A registry hit on a resident building while another building loads:
/// what one tenant's cold load costs another tenant's warm request. Both
/// artifacts are default-config 240-scan models (4 floors x 60 scans); a
/// second thread loops `evict` + `get` on the cold one for the whole
/// measurement. A hit is one registry lock hold with no filesystem
/// call, so what it measures is contention with the cold load's
/// bookkeeping.
fn bench_registry(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("fis-bench-registry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in ["warm", "cold"] {
        let building = BuildingConfig::new(name, 4)
            .samples_per_floor(60)
            .seed(7)
            .generate();
        fis_core::FisOne::new(fis_core::FisOneConfig::default().seed(0))
            .fit(
                building.name(),
                building.samples(),
                building.floors(),
                building.bottom_anchor().unwrap(),
            )
            .expect("bench building fits")
            .save(dir.join(format!("{name}.json")))
            .expect("artifact saves");
    }
    let registry = fis_serve::ModelRegistry::new(fis_serve::RegistryConfig::new(&dir));
    registry.get("warm").expect("warm artifact loads");
    let loading = std::sync::atomic::AtomicBool::new(true);
    let mut group = c.benchmark_group("serve");
    std::thread::scope(|s| {
        s.spawn(|| {
            while loading.load(std::sync::atomic::Ordering::Relaxed) {
                registry.evict("cold");
                registry.get("cold").expect("cold artifact loads");
            }
        });
        group.bench_function("get_hit_during_load(240-scan model)", |bench| {
            bench.iter(|| {
                let (model, fetch) = registry.get(std::hint::black_box("warm")).unwrap();
                assert_eq!(fetch, fis_serve::Fetch::Hit, "warm stays resident");
                model
            })
        });
        loading.store(false, std::sync::atomic::Ordering::Relaxed);
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reading a 2000-scan corpus file (`fis-one generate --floors 5
/// --samples 400`): one ~1 MB JSON line of scans, parsed and validated.
fn bench_corpus_parse(c: &mut Criterion) {
    let corpus = fis_types::Dataset::new("bench", vec![building_2000()]);
    let dir = std::env::temp_dir().join(format!("fis-bench-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corpus.jsonl");
    fis_types::io::save_jsonl(&corpus, &path).expect("corpus saves");
    let mut group = c.benchmark_group("io");
    group.sample_size(20);
    group.bench_function("corpus_parse(2000 scans)", |bench| {
        bench.iter(|| fis_types::io::load_jsonl(std::hint::black_box(&path)).unwrap())
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_graph_construction(c: &mut Criterion) {
    let b = bench_building();
    c.bench_function("graph/from_samples(240)", |bench| {
        bench.iter(|| BipartiteGraph::from_samples(std::hint::black_box(b.samples())).unwrap())
    });
}

fn bench_random_walks(c: &mut Criterion) {
    let b = bench_building();
    let graph = BipartiteGraph::from_samples(b.samples()).unwrap();
    c.bench_function("graph/random_walks(len5)", |bench| {
        bench.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let walks = random_walks(&graph, &mut rng, 2, 5, WalkStrategy::Weighted);
            cooccurrence_pairs(&walks, 5)
        })
    });
}

/// A default-config fit of a 2000-scan building (5 floors x 400 scans,
/// the `io/corpus_parse` corpus) on one thread, as `fis-one fit
/// --threads 1` runs it: graph, RF-GNN training, embedding, clustering,
/// TSP order and VP-tree. Training is nearly all of it.
fn bench_fit(c: &mut Criterion) {
    let corpus = fis_types::Dataset::new("bench", vec![building_2000()]);
    let engine = fis_core::FisEngine::new(fis_core::EngineConfig::default().threads(1));
    let mut group = c.benchmark_group("core");
    group.sample_size(10);
    group.bench_function("fit(2000 scans)", |bench| {
        bench.iter(|| {
            let fit = engine.fit_corpus(std::hint::black_box(&corpus));
            assert_eq!(fit.successes().count(), 1, "bench building fits");
            fit
        })
    });
    group.finish();
}

/// A 240-scan building (4 floors x 60 scans) and 8 fresh held-out scans
/// of it: one end-to-end benchmark tenant and one of its request frames.
fn served_queries() -> fis_synth::TemporalCorpus {
    let base = BuildingConfig::new("bench", 4)
        .samples_per_floor(60)
        .seed(7);
    fis_synth::TemporalConfig::new(
        base,
        fis_synth::DriftScenario::MixedDensity { cycle: vec![1.0] },
    )
    .epochs(1)
    .scans_per_epoch(8)
    .generate()
}

/// Decoding one `assign_batch` request line as the end-to-end benchmark
/// sends it (8 held-out scans of a 240-scan building): one pass over
/// the line, straight into typed scans.
fn bench_parse_frame(c: &mut Criterion) {
    use fis_types::json::{Json, ToJson};
    let scans = served_queries().epochs[0]
        .samples
        .iter()
        .map(ToJson::to_json)
        .collect();
    let line = Json::obj([
        ("op", Json::Str("assign_batch".into())),
        ("building", Json::Str("t0".into())),
        ("scans", Json::Arr(scans)),
    ])
    .to_string();
    let mut group = c.benchmark_group("serve");
    group.bench_function("parse_frame(8-scan assign_batch)", |bench| {
        bench.iter(|| fis_serve::protocol::parse_frame(std::hint::black_box(&line)).unwrap())
    });
    group.finish();
}

/// One served `assign_batch` frame as the end-to-end benchmark sends it:
/// 8 held-out scans against a default-config 240-scan model (4 floors x
/// 60 scans) at the default thread budget. Unlike the `assign/*` stages,
/// which time only the 1-NN, this runs the whole per-scan path: RF-GNN
/// inference over the training graph, then the VP-tree lookup.
fn bench_assign_stream(c: &mut Criterion) {
    let corpus = served_queries();
    let building = &corpus.building;
    let model = fis_core::FisOne::new(fis_core::FisOneConfig::default().seed(0))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().unwrap(),
        )
        .expect("bench building fits");
    let scans = &corpus.epochs[0].samples;
    assert_eq!(scans.len(), 8);
    let mut group = c.benchmark_group("core");
    group.bench_function("assign_stream(8 scans, 240-scan model)", |bench| {
        bench.iter(|| {
            let answers = model.assign_stream(std::hint::black_box(scans), 0);
            assert!(answers.iter().all(Result::is_ok), "every scan answers");
            answers
        })
    });
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let points: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![(i % 4) as f64 + (i as f64) * 0.001, (i % 7) as f64])
        .collect();
    let mut group = c.benchmark_group("cluster");
    group.sample_size(20);
    group.bench_function("hierarchical(300, k=4)", |bench| {
        bench.iter(|| fis_cluster::average_linkage(std::hint::black_box(&points), 4).unwrap())
    });
    group.bench_function("kmeans(300, k=4)", |bench| {
        bench.iter(|| {
            fis_cluster::kmeans(
                std::hint::black_box(&points),
                &fis_cluster::KMeansConfig::new(4).seed(1),
            )
            .unwrap()
        })
    });
    // Headline speedup of this workspace: the O(n²) nearest-neighbor
    // chain vs the seed's O(n³) closest-pair rescan, at a corpus-sized
    // input. Expect >= 2x (typically 10x+) at n = 500.
    let big: Vec<Vec<f64>> = (0..500)
        .map(|i| {
            vec![
                ((i * 37) % 101) as f64 * 0.1 + (i % 5) as f64 * 20.0,
                ((i * 53) % 97) as f64 * 0.1,
            ]
        })
        .collect();
    group.bench_function("nnchain(500, k=5)", |bench| {
        bench.iter(|| fis_cluster::average_linkage(std::hint::black_box(&big), 5).unwrap())
    });
    // The O(n³) seed implementation exists only as a comparison point
    // and costs ~55 ms per sample; full mode only, so the quick-mode CI
    // perf gate stays fast.
    if !quick_mode() {
        group.bench_function("naive_o_n3(500, k=5)", |bench| {
            bench
                .iter(|| fis_cluster::average_linkage_naive(std::hint::black_box(&big), 5).unwrap())
        });
    }
    group.finish();
}

/// Clustered synthetic embeddings mimicking the geometry `assign` sees:
/// training drives reference embeddings into tight per-location
/// sub-clusters inside per-floor clusters, so the cloud has low
/// intrinsic dimension (a uniform cloud would be the worst case for any
/// metric index and is not what the GNN produces).
fn clustered_points(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f64>> {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            centers[i % clusters]
                .iter()
                .enumerate()
                // Anisotropic within-cluster spread with a decaying
                // spectrum, like a learned embedding's principal axes.
                .map(|(j, &x)| x + rng.gen_range(-0.3..0.3) / (1u64 << j) as f64)
                .collect()
        })
        .collect()
}

/// The serving hot path's 1-NN layer: the exhaustive linear scan
/// (`FittedModel::assign_linear`'s loop) vs the VP-tree index, at
/// reference-set sizes up to 100k. The embedding forward pass is identical on every variant, so
/// these isolate exactly what the tentpole changes.
fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign");
    group.sample_size(20);
    for &(n, label) in &[(1_000usize, "1k"), (10_000, "10k"), (100_000, "100k")] {
        let points = clustered_points(n, 8, 96, 4242);
        let queries = clustered_points(256, 8, 96, 999);
        let tree = fis_core::VpTree::build(&points, |_| true);
        // Cycle the queries outside the timed closure so neither path
        // can win by caching one query's answer in a register.
        let mut qi = 0usize;
        group.bench_function(&format!("linear_scan({label})"), |bench| {
            bench.iter(|| {
                let q = &queries[qi % queries.len()];
                qi += 1;
                // The exact loop `FittedModel::assign_linear` runs.
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (i, p) in points.iter().enumerate() {
                    let d = fis_linalg::vec_ops::euclidean(q, p);
                    if d < best_d {
                        best = i;
                        best_d = d;
                    }
                }
                best
            })
        });
        let mut qj = 0usize;
        group.bench_function(&format!("vp_tree({label})"), |bench| {
            bench.iter(|| {
                let q = &queries[qj % queries.len()];
                qj += 1;
                tree.nearest(std::hint::black_box(q)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_tsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsp");
    for &n in &[6usize, 10, 14] {
        let sim: Vec<Vec<f64>> = (0..n)
            .map(|i: usize| {
                (0..n)
                    .map(|j: usize| {
                        if i == j {
                            1.0
                        } else {
                            1.0 / (1.0 + i.abs_diff(j) as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("held_karp", n), &sim, |bench, sim| {
            bench.iter(|| index_clusters(sim, 0, TspSolver::Exact).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("two_opt", n), &sim, |bench, sim| {
            bench.iter(|| index_clusters(sim, 0, TspSolver::TwoOpt).unwrap())
        });
    }
    group.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let b = bench_building();
    let truth: Vec<usize> = b.ground_truth().iter().map(|f| f.index()).collect();
    let profiles = ClusterMacProfile::from_assignment(b.samples(), &truth, b.floors());
    c.bench_function("similarity/adapted_jaccard", |bench| {
        bench.iter(|| adapted_jaccard(std::hint::black_box(&profiles[0]), &profiles[1]))
    });
    c.bench_function("similarity/plain_jaccard", |bench| {
        bench.iter(|| plain_jaccard(std::hint::black_box(&profiles[0]), &profiles[1]))
    });
    // Whole-matrix benches: a wide profile set (32 pseudo-clusters over a
    // dense mall) with the parallel row fan-out vs a forced 1-thread
    // budget. The parallel variant should win by ~the core count.
    let wide = BuildingConfig::new("bench-wide", 8)
        .samples_per_floor(120)
        .aps_per_floor(24)
        .atrium_aps(4)
        .seed(7)
        .generate();
    let pseudo: Vec<usize> = (0..wide.len()).map(|i| i % 32).collect();
    let wide_profiles = ClusterMacProfile::from_assignment(wide.samples(), &pseudo, 32);
    c.bench_function("similarity/matrix(32 profiles, parallel)", |bench| {
        bench.iter(|| {
            fis_core::similarity::similarity_matrix(
                fis_core::SimilarityMethod::AdaptedJaccard,
                std::hint::black_box(&wide_profiles),
            )
        })
    });
    c.bench_function("similarity/matrix(32 profiles, 1 thread)", |bench| {
        bench.iter(|| {
            fis_parallel::set_thread_budget(1);
            let m = fis_core::similarity::similarity_matrix(
                fis_core::SimilarityMethod::AdaptedJaccard,
                std::hint::black_box(&wide_profiles),
            );
            fis_parallel::set_thread_budget(0);
            m
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    // Multi-building batch: the engine on all cores vs a 1-thread budget.
    let corpus = fis_types::Dataset::new(
        "bench",
        (0..6)
            .map(|i| {
                BuildingConfig::new(format!("b{i}"), 3)
                    .samples_per_floor(30)
                    .aps_per_floor(8)
                    .seed(40 + i as u64)
                    .generate()
            })
            .collect(),
    );
    let config = fis_core::FisOneConfig::default().seed(1);
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("evaluate_corpus(6 buildings, parallel)", |bench| {
        bench.iter(|| {
            fis_core::FisEngine::new(fis_core::EngineConfig::default().pipeline(config.clone()))
                .evaluate_corpus(std::hint::black_box(&corpus))
        })
    });
    group.bench_function("evaluate_corpus(6 buildings, 1 thread)", |bench| {
        bench.iter(|| {
            fis_core::FisEngine::new(
                fis_core::EngineConfig::default()
                    .pipeline(config.clone())
                    .threads(1),
            )
            .evaluate_corpus(std::hint::black_box(&corpus))
        })
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let pred: Vec<usize> = (0..1000).map(|i| i % 5).collect();
    let truth: Vec<usize> = (0..1000).map(|i| (i + i / 500) % 5).collect();
    c.bench_function("metrics/ari(1000)", |bench| {
        bench.iter(|| fis_metrics::adjusted_rand_index(std::hint::black_box(&pred), &truth))
    });
    c.bench_function("metrics/nmi(1000)", |bench| {
        bench.iter(|| {
            fis_metrics::normalized_mutual_information(std::hint::black_box(&pred), &truth)
        })
    });
}

/// Online extension: growing a fitted model with one epoch of drifted
/// scans (labeling by the frozen base, vocabulary growth, VP-tree
/// rebuild). The clone inside the loop is the price of benching a
/// mutating call; it is dwarfed by the extension itself.
fn bench_extend(c: &mut Criterion) {
    use fis_synth::{DriftScenario, TemporalConfig};
    let corpus = TemporalConfig::new(
        BuildingConfig::new("bench", 3)
            .samples_per_floor(40)
            .aps_per_floor(8)
            .seed(99),
        DriftScenario::ApChurn {
            replaced_per_epoch: 0.15,
        },
    )
    .epochs(1)
    .scans_per_epoch(60)
    .generate();
    let building = &corpus.building;
    let anchor = building.bottom_anchor().expect("survey has an anchor");
    let model = fis_core::FisOne::new(fis_core::FisOneConfig::default().seed(99))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            anchor,
        )
        .expect("survey fits");
    let scans = &corpus.epochs[0].samples;
    let mut group = c.benchmark_group("drift");
    group.sample_size(10);
    group.bench_function("extend(60 scans)", |bench| {
        bench.iter(|| {
            let mut m = model.clone();
            m.extend(std::hint::black_box(scans)).unwrap()
        })
    });
    group.finish();
}

/// What observability costs on the answer path when it is *off*: one
/// span with a field plus one point event, with stderr silenced and no
/// journal recording. Both must collapse to a level check — the gate
/// watches this stage so instrumentation added to hot paths can't start
/// taxing requests that opted out.
fn bench_obs(c: &mut Criterion) {
    // Force the off state regardless of FIS_LOG in the CI environment.
    fis_obs::set_level(None);
    c.bench_function("obs/overhead", |bench| {
        bench.iter(|| {
            let mut span = fis_obs::span(fis_obs::Level::Debug, "bench", "noop");
            span.num("i", 1.0);
            fis_obs::event(fis_obs::Level::Debug, "bench", "point")
                .num("x", 2.0)
                .emit();
            std::hint::black_box(span.context())
        })
    });
    fis_obs::level::clear_level();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_model_load,
    bench_registry,
    bench_corpus_parse,
    bench_parse_frame,
    bench_graph_construction,
    bench_random_walks,
    bench_fit,
    bench_assign_stream,
    bench_clustering,
    bench_assign,
    bench_tsp,
    bench_similarity,
    bench_engine,
    bench_extend,
    bench_metrics,
    bench_obs
);
criterion_main!(benches);
