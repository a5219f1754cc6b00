//! Implementations of every table and figure in the paper's evaluation.
//!
//! Each experiment is a function so the thin per-figure `src/bin/*`
//! wrappers and the all-in-one `reproduce_all` bin share one
//! implementation.
//! The expensive artifacts (RF-GNN embeddings) are computed once per
//! building in [`build_cache`] and reused by every ablation that permits
//! it (K-means reuses embeddings; Jaccard/2-opt reuse the clustering).

use fis_baselines::{BaselineClusterer, Daegc, Mds, Metis, Sdcn};
use fis_core::evaluate::score_prediction;
use fis_core::{
    identify_with_arbitrary_anchor, ArbitraryAnchorOutcome, ClusteringMethod, EvalResult, FisOne,
    FisOneConfig, SimilarityMethod, TspSolver,
};
use fis_synth::Scale;
use fis_types::{Building, FloorId};

use crate::harness::{
    corpora, print_histogram, print_table, run_baseline, MetricAccumulator, CORPUS_SEED,
};

/// Figure 1(b): the spillover histogram of the eight-floor mall.
pub fn fig1b() {
    let mall = fis_synth::fig1b_mall(CORPUS_SEED);
    let hist = fis_types::stats::mac_floor_span_histogram(&mall);
    let labels: Vec<String> = (1..=hist.len()).map(|k| k.to_string()).collect();
    print_histogram(
        "Figure 1(b): number of MACs vs number of floors a MAC is detected on",
        &labels,
        &hist,
    );
    println!(
        "total MACs detected: {}",
        fis_types::stats::total_macs(&mall)
    );
    let (adj, far) = fis_types::stats::spillover_contrast(&mall, 3);
    println!("mean shared MACs: adjacent floors {adj:.1}, floors >=3 apart {far:.1}");
}

/// Figure 7: distribution of buildings by floor count (both corpora).
pub fn fig7() {
    let (ms, ours) = corpora();
    let mut hist = ms.floor_histogram(3, 10);
    for (i, c) in ours.floor_histogram(3, 10).iter().enumerate() {
        hist[i] += c;
    }
    let labels: Vec<String> = (3..=10).map(|k| k.to_string()).collect();
    print_histogram(
        "Figure 7: number of buildings vs number of floors (two corpora combined)",
        &labels,
        &hist,
    );
}

/// One building's worth of cached experiment results.
pub struct BuildingRow {
    /// Which corpus the building belongs to ("Microsoft" or "Ours").
    pub dataset: &'static str,
    /// Floor count (Figure 12 grouping key).
    pub floors: usize,
    /// Full FIS-ONE.
    pub fis: EvalResult,
    /// RF-GNN without attention (Figure 8(a,b)).
    pub no_attention: EvalResult,
    /// K-means instead of hierarchical (Figure 8(c,d)).
    pub kmeans: EvalResult,
    /// Plain Jaccard instead of adapted (Figure 9(a,b)).
    pub plain_jaccard: EvalResult,
    /// 2-opt instead of Held-Karp (Figure 9(c,d)).
    pub two_opt: EvalResult,
    /// The four baselines, in [`baseline_names`] order (None = failed).
    pub baselines: Vec<Option<EvalResult>>,
}

/// Names matching [`BuildingRow::baselines`] order.
pub fn baseline_names() -> [&'static str; 4] {
    ["SDCN", "DAEGC", "METIS", "MDS"]
}

/// Default pipeline configuration for experiments at a given embedding
/// dimension.
pub fn experiment_config(dim: usize, seed: u64) -> FisOneConfig {
    FisOneConfig {
        gnn: fis_gnn::RfGnnConfig::new(dim).seed(seed),
        ..FisOneConfig::default()
    }
}

/// Runs every method and ablation on one building, sharing embeddings
/// where the ablation allows it.
pub fn evaluate_building_all(
    building: &Building,
    dataset: &'static str,
    dim: usize,
    seed: u64,
) -> BuildingRow {
    let anchor = building.bottom_anchor().expect("corpus has bottom samples");
    let floors = building.floors();
    let config = experiment_config(dim, seed);
    let fis = FisOne::new(config.clone());

    // Full pipeline once; reuse embeddings + assignment for ablations.
    let (assignment, embeddings) = fis
        .cluster_samples(building.samples(), floors)
        .unwrap_or_else(|e| panic!("FIS-ONE failed on {}: {e}", building.name()));
    let score = |fis: &FisOne, assignment: &[usize]| -> EvalResult {
        let prediction = fis
            .index_assignment(building.samples(), assignment, floors, anchor)
            .unwrap_or_else(|e| panic!("indexing failed on {}: {e}", building.name()));
        score_prediction(&prediction, building).expect("scoring is well-posed")
    };
    let fis_result = score(&fis, &assignment);

    // Figure 8(a,b): retrain without attention.
    let mut na_config = config.clone();
    na_config.gnn = na_config.gnn.without_attention();
    let na = FisOne::new(na_config);
    let (na_assignment, _) = na
        .cluster_samples(building.samples(), floors)
        .unwrap_or_else(|e| panic!("no-attention failed on {}: {e}", building.name()));
    let no_attention = score(&na, &na_assignment);

    // Figure 8(c,d): K-means over the SAME embeddings.
    let mut km_config = config.clone();
    km_config.clustering = ClusteringMethod::KMeans;
    let km = FisOne::new(km_config);
    let kmeans = match km.cluster_embeddings(&embeddings, floors) {
        Ok(km_assignment) => score(&km, &km_assignment),
        // K-means can drop a cluster on hard buildings; count that as the
        // degenerate zero-score outcome rather than crashing the sweep.
        Err(_) => EvalResult {
            ari: 0.0,
            nmi: 0.0,
            edit: 0.0,
        },
    };

    // Figure 9(a,b): plain Jaccard, reusing the clustering.
    let mut pj_config = config.clone();
    pj_config.similarity = SimilarityMethod::PlainJaccard;
    let plain_jaccard = score(&FisOne::new(pj_config), &assignment);

    // Figure 9(c,d): 2-opt, reusing the clustering.
    let mut to_config = config.clone();
    to_config.solver = TspSolver::TwoOpt;
    let two_opt = score(&FisOne::new(to_config), &assignment);

    // Baselines (clustered from scratch, indexed by FIS-ONE's stage 4).
    let baselines: Vec<Option<EvalResult>> = baseline_set(dim, seed)
        .iter()
        .map(|b| run_baseline(b.as_ref(), &fis, building))
        .collect();

    BuildingRow {
        dataset,
        floors,
        fis: fis_result,
        no_attention,
        kmeans,
        plain_jaccard,
        two_opt,
        baselines,
    }
}

fn baseline_set(dim: usize, seed: u64) -> Vec<Box<dyn BaselineClusterer>> {
    vec![
        Box::new(Sdcn::new(dim).seed(seed)),
        Box::new(Daegc::new(dim).seed(seed)),
        Box::new(Metis::new().seed(seed)),
        Box::new(Mds::new(dim)),
    ]
}

/// Evaluates the full corpus cache at the ambient scale.
///
/// Buildings are processed concurrently across the `fis_parallel`
/// thread budget; every building derives its seed from its corpus
/// position, so the cache is identical for any thread count.
pub fn build_cache(dim: usize) -> Vec<BuildingRow> {
    let (ms, ours) = corpora();
    let jobs: Vec<(&'static str, u64, &Building)> = ms
        .buildings()
        .iter()
        .enumerate()
        .map(|(i, b)| ("Microsoft", i as u64, b))
        .chain(
            ours.buildings()
                .iter()
                .enumerate()
                .map(|(i, b)| ("Ours", 100 + i as u64, b)),
        )
        .collect();
    let total = jobs.len();
    fis_parallel::par_map(&jobs, 1, |i, &(dataset, seed, building)| {
        eprintln!("[cache] {dataset} {}/{total}", i + 1);
        evaluate_building_all(building, dataset, dim, seed)
    })
}

fn accumulate(
    rows: &[BuildingRow],
    dataset: &str,
    get: impl Fn(&BuildingRow) -> Option<EvalResult>,
) -> MetricAccumulator {
    let mut acc = MetricAccumulator::new();
    for row in rows.iter().filter(|r| r.dataset == dataset) {
        if let Some(r) = get(row) {
            acc.push(r);
        }
    }
    acc
}

/// Table I: FIS-ONE vs the four baselines on both corpora.
pub fn table1(rows: &[BuildingRow]) {
    let mut table = Vec::new();
    let mut push_row = |name: &str, get: &dyn Fn(&BuildingRow) -> Option<EvalResult>| {
        let ms = accumulate(rows, "Microsoft", get);
        let ours = accumulate(rows, "Ours", get);
        let (a1, n1, e1) = ms.cells();
        let (a2, n2, e2) = ours.cells();
        table.push(vec![name.to_owned(), a1, a2, n1, n2, e1, e2]);
    };
    push_row("FIS-ONE", &|r| Some(r.fis));
    for (bi, name) in baseline_names().iter().enumerate() {
        push_row(name, &move |r| r.baselines[bi]);
    }
    print_table(
        "Table I: comparison with baseline algorithms, mean(std)",
        &[
            "Algorithm",
            "ARI(Microsoft)",
            "ARI(Ours)",
            "NMI(Microsoft)",
            "NMI(Ours)",
            "Edit(Microsoft)",
            "Edit(Ours)",
        ],
        &table,
    );
}

/// Figures 8 and 9: the four ablations, reported per corpus.
pub fn fig8_fig9(rows: &[BuildingRow]) {
    type Getter<'a> = &'a dyn Fn(&BuildingRow) -> Option<EvalResult>;
    let variants: [(&str, Getter); 5] = [
        ("FIS-ONE (full)", &|r| Some(r.fis)),
        ("without attention [Fig 8ab]", &|r| Some(r.no_attention)),
        ("K-means clustering [Fig 8cd]", &|r| Some(r.kmeans)),
        ("plain Jaccard [Fig 9ab]", &|r| Some(r.plain_jaccard)),
        ("2-opt TSP [Fig 9cd]", &|r| Some(r.two_opt)),
    ];
    let mut table = Vec::new();
    for (name, get) in variants {
        let ms = accumulate(rows, "Microsoft", get);
        let ours = accumulate(rows, "Ours", get);
        let (a1, n1, e1) = ms.cells();
        let (a2, n2, e2) = ours.cells();
        table.push(vec![name.to_owned(), a1, a2, n1, n2, e1, e2]);
    }
    print_table(
        "Figures 8-9: ablation study (ARI / NMI / Edit distance)",
        &[
            "Variant",
            "ARI(Microsoft)",
            "ARI(Ours)",
            "NMI(Microsoft)",
            "NMI(Ours)",
            "Edit(Microsoft)",
            "Edit(Ours)",
        ],
        &table,
    );
}

/// Figure 12: FIS-ONE metrics grouped by building floor count.
pub fn fig12(rows: &[BuildingRow]) {
    let mut table = Vec::new();
    for floors in 3..=10usize {
        let mut acc = MetricAccumulator::new();
        for row in rows.iter().filter(|r| r.floors == floors) {
            acc.push(row.fis);
        }
        if acc.ari.is_empty() {
            continue;
        }
        let (a, n, e) = acc.cells();
        table.push(vec![floors.to_string(), acc.ari.len().to_string(), a, n, e]);
    }
    print_table(
        "Figure 12: FIS-ONE by building floor count (both corpora)",
        &["Floors", "Buildings", "ARI", "NMI", "Edit"],
        &table,
    );
}

/// Figures 10 and 11: metric vs embedding dimension for FIS-ONE and the
/// baselines, on a corpus subset (the sweep retrains everything per dim).
pub fn fig10_fig11(dims: &[usize], max_buildings: usize) {
    let (ms, ours) = corpora();
    let subset: Vec<(&'static str, &Building)> = ms
        .buildings()
        .iter()
        .take(max_buildings)
        .map(|b| ("Microsoft", b))
        .chain(ours.buildings().iter().take(2).map(|b| ("Ours", b)))
        .collect();
    let mut table = Vec::new();
    for &dim in dims {
        let mut fis_acc = MetricAccumulator::new();
        let mut base_accs: Vec<MetricAccumulator> =
            (0..4).map(|_| MetricAccumulator::new()).collect();
        for (si, (ds, building)) in subset.iter().enumerate() {
            eprintln!("[dims] dim={dim} building {}/{}", si + 1, subset.len());
            let config = experiment_config(dim, si as u64);
            let fis = FisOne::new(config);
            if let Ok(result) = fis_core::evaluate_building(&fis, building) {
                fis_acc.push(result);
            }
            for (bi, baseline) in baseline_set(dim, si as u64).iter().enumerate() {
                if let Some(r) = run_baseline(baseline.as_ref(), &fis, building) {
                    base_accs[bi].push(r);
                }
            }
            let _ = ds;
        }
        let mut row = vec![dim.to_string()];
        row.push(format!("{:.3}", fis_acc.ari.mean()));
        row.push(format!("{:.3}", fis_acc.edit.mean()));
        for (bi, _) in baseline_names().iter().enumerate() {
            row.push(format!("{:.3}", base_accs[bi].ari.mean()));
        }
        table.push(row);
    }
    print_table(
        "Figures 10-11: embedding dimension sweep (ARI; FIS-ONE also Edit)",
        &[
            "Dim",
            "FIS ARI",
            "FIS Edit",
            "SDCN ARI",
            "DAEGC ARI",
            "METIS ARI",
            "MDS ARI",
        ],
        &table,
    );
}

/// Figure 14: labeled sample from the bottom floor vs a random floor
/// (§VI extension), repeated over several random floors per building.
pub fn fig14(max_buildings: usize, repeats: usize) {
    let (ms, ours) = corpora();
    let subset: Vec<&Building> = ms
        .buildings()
        .iter()
        .take(max_buildings)
        .chain(ours.buildings().iter().take(1))
        .collect();
    let mut bottom = MetricAccumulator::new();
    let mut random = MetricAccumulator::new();
    let mut ambiguous = 0usize;
    for (si, building) in subset.iter().enumerate() {
        eprintln!("[fig14] building {}/{}", si + 1, subset.len());
        let fis = FisOne::new(experiment_config(16, si as u64));
        if let Ok(r) = fis_core::evaluate_building(&fis, building) {
            bottom.push(r);
        }
        // Random floors, excluding the unresolvable middle of odd buildings
        // (Case 1) which is reported separately.
        let floors = building.floors();
        for rep in 0..repeats {
            let floor = FloorId::from_index((si * 7 + rep * 3 + 1) % floors);
            let Some(anchor) = building.anchor_on(floor) else {
                continue;
            };
            match identify_with_arbitrary_anchor(&fis, building.samples(), floors, anchor) {
                Ok(ArbitraryAnchorOutcome::Resolved(prediction)) => {
                    if let Ok(r) = score_prediction(&prediction, building) {
                        random.push(r);
                    }
                }
                Ok(ArbitraryAnchorOutcome::Ambiguous { .. }) => ambiguous += 1,
                Err(e) => panic!("fig14 failed on {}: {e}", building.name()),
            }
        }
    }
    let (ba, bn, be) = bottom.cells();
    let (ra, rn, re) = random.cells();
    print_table(
        "Figure 14: bottom-floor vs random-floor labeled sample",
        &["Anchor", "ARI", "NMI", "Edit"],
        &[
            vec!["Bottom".into(), ba, bn, be],
            vec!["Random".into(), ra, rn, re],
        ],
    );
    println!("random-floor runs hitting the ambiguous middle floor (Case 1): {ambiguous}");
}

/// Scale-aware knobs for the consolidated run.
pub fn sweep_sizes() -> (Vec<usize>, usize, usize) {
    match Scale::from_env() {
        Scale::Reduced => (vec![8, 16, 32, 64], 4, 2),
        Scale::Full => (vec![8, 16, 32, 64], 12, 10),
    }
}
