//! Shared experiment plumbing: corpora, per-building evaluation, and
//! paper-style table rendering.

use fis_baselines::BaselineClusterer;
use fis_core::evaluate::score_prediction;
use fis_core::{CorpusRun, EngineConfig, EvalResult, FisEngine, FisOne, FisOneConfig};
use fis_metrics::MeanStd;
use fis_synth::Scale;
use fis_types::{Building, Dataset};

/// Seed shared by every experiment so corpora are identical across bins.
pub const CORPUS_SEED: u64 = 2023;

/// The two evaluation corpora at the ambient scale (`FIS_SCALE`).
pub fn corpora() -> (Dataset, Dataset) {
    let scale = Scale::from_env();
    (
        fis_synth::microsoft_like(scale, CORPUS_SEED),
        fis_synth::malls_like(scale, CORPUS_SEED),
    )
}

/// Runs the full FIS-ONE pipeline on a building and scores it.
///
/// # Panics
///
/// Panics if the pipeline fails — experiment corpora are constructed so
/// that every stage is well-posed, and an error indicates a harness bug.
pub fn run_fis(config: &FisOneConfig, building: &Building) -> EvalResult {
    fis_core::evaluate_building(&FisOne::new(config.clone()), building)
        .unwrap_or_else(|e| panic!("FIS-ONE failed on {}: {e}", building.name()))
}

/// Evaluates a whole corpus through the parallel [`FisEngine`] and
/// returns the per-building report (timings included).
///
/// All experiment corpora share one pipeline seed per run, so the batch
/// is bit-identical to evaluating the buildings one by one.
///
/// # Panics
///
/// Panics if any building fails, mirroring [`run_fis`].
pub fn run_corpus(config: &FisOneConfig, corpus: &Dataset) -> CorpusRun {
    let engine = FisEngine::new(EngineConfig::default().pipeline(config.clone()));
    let report = engine.evaluate_corpus(corpus);
    if let Some((run, e)) = report.failures().next() {
        panic!("FIS-ONE failed on {}: {e}", run.building);
    }
    report
}

/// Runs a baseline clusterer followed by FIS-ONE's indexing (the paper's
/// adaptation of the baselines, §V-A) and scores it. Returns `None` when
/// the baseline cannot produce `k` clusters on this building.
pub fn run_baseline(
    baseline: &dyn BaselineClusterer,
    indexer: &FisOne,
    building: &Building,
) -> Option<EvalResult> {
    let assignment = baseline
        .cluster(building.samples(), building.floors())
        .ok()?;
    let anchor = building.bottom_anchor()?;
    let prediction = indexer
        .index_assignment(building.samples(), &assignment, building.floors(), anchor)
        .ok()?;
    score_prediction(&prediction, building).ok()
}

/// Accumulates per-building [`EvalResult`]s into the three `mean(std)`
/// cells of Table I.
#[derive(Debug, Default, Clone)]
pub struct MetricAccumulator {
    /// ARI observations.
    pub ari: MeanStd,
    /// NMI observations.
    pub nmi: MeanStd,
    /// Edit-distance observations.
    pub edit: MeanStd,
}

impl MetricAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one building's result.
    pub fn push(&mut self, r: EvalResult) {
        self.ari.push(r.ari);
        self.nmi.push(r.nmi);
        self.edit.push(r.edit);
    }

    /// `"ari nmi edit"` cells in the paper's `mean(std)` format.
    pub fn cells(&self) -> (String, String, String) {
        (
            self.ari.to_string(),
            self.nmi.to_string(),
            self.edit.to_string(),
        )
    }
}

/// Prints a fixed-width table: header row then one row per entry.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(c, h)| {
            rows.iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (c, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:width$}  ", cell, width = widths[c]));
        }
        println!("{}", s.trim_end());
    };
    line(header.to_vec());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// ASCII bar chart for histogram-style figures.
pub fn print_histogram(title: &str, labels: &[String], counts: &[usize]) {
    println!("\n=== {title} ===");
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    for (label, &count) in labels.iter().zip(counts.iter()) {
        let bar = "#".repeat(count * 50 / max);
        println!("{label:>6} | {bar} {count}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic() {
        let (a1, b1) = corpora();
        let (a2, b2) = corpora();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn run_corpus_matches_run_fis() {
        // Small corpus so the batch-vs-solo comparison stays cheap; the
        // full-scale equivalence is the same code path.
        let corpus = Dataset::new(
            "tiny",
            (0..2)
                .map(|i| {
                    fis_synth::BuildingConfig::new(format!("t{i}"), 3)
                        .samples_per_floor(20)
                        .aps_per_floor(8)
                        .seed(CORPUS_SEED + i as u64)
                        .generate()
                })
                .collect(),
        );
        let config = FisOneConfig::default().seed(7);
        let report = run_corpus(&config, &corpus);
        assert_eq!(report.runs.len(), corpus.len());
        for (run, outcome) in report.successes() {
            let building = corpus
                .buildings()
                .iter()
                .find(|b| b.name() == run.building)
                .unwrap();
            let solo = run_fis(&config, building);
            let batch = outcome.eval.unwrap();
            assert_eq!(solo, batch, "batch result differs for {}", run.building);
        }
    }

    #[test]
    fn accumulator_formats_cells() {
        let mut acc = MetricAccumulator::new();
        acc.push(EvalResult {
            ari: 0.8,
            nmi: 0.9,
            edit: 1.0,
        });
        let (ari, nmi, edit) = acc.cells();
        assert_eq!(ari, "0.800(0.000)");
        assert_eq!(nmi, "0.900(0.000)");
        assert_eq!(edit, "1.000(0.000)");
    }
}
