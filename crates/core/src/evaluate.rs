//! Evaluation against ground truth: ARI, NMI, edit distance (§V-A).

use fis_metrics::{adjusted_rand_index, jaro_winkler, normalized_mutual_information};
use fis_types::Building;

use crate::error::FisError;
use crate::pipeline::{FisOne, FloorPrediction};

/// The three §V-A metrics for one building.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Adjusted Rand Index of the predicted clustering vs ground truth.
    pub ari: f64,
    /// Normalized mutual information, in `[0, 1]`.
    pub nmi: f64,
    /// Jaro–Winkler similarity of the predicted floor ordering (higher is
    /// better; 1.0 = exact ordering).
    pub edit: f64,
}

/// Runs the full pipeline on `building` with its bottom-floor anchor and
/// scores the prediction.
///
/// # Errors
///
/// Returns a [`FisError`] if the building lacks a bottom-floor sample or
/// the pipeline fails.
pub fn evaluate_building(fis: &FisOne, building: &Building) -> Result<EvalResult, FisError> {
    let anchor = building.bottom_anchor().ok_or_else(|| {
        FisError::Evaluation(format!(
            "building {} has no sample on the bottom floor",
            building.name()
        ))
    })?;
    let prediction = fis.identify(building.samples(), building.floors(), anchor)?;
    score_prediction(&prediction, building)
}

/// Scores an existing prediction against a building's ground truth.
///
/// ARI and NMI compare the *clustering* (cluster ids vs true floors);
/// the edit distance compares the predicted floor *ordering*: each cluster
/// is mapped to its majority true floor, the clusters are read off in
/// predicted path order, and the resulting sequence is Jaro–Winkler
/// compared with `(1, 2, ..., N)` — exactly the paper's five-cluster
/// worked example.
///
/// # Errors
///
/// Returns [`FisError::Evaluation`] on length mismatches.
pub fn score_prediction(
    prediction: &FloorPrediction,
    building: &Building,
) -> Result<EvalResult, FisError> {
    let truth: Vec<usize> = building.ground_truth().iter().map(|f| f.index()).collect();
    if prediction.labels().len() != truth.len() {
        return Err(FisError::Evaluation(format!(
            "prediction covers {} samples, building has {}",
            prediction.labels().len(),
            truth.len()
        )));
    }
    let clusters = prediction.assignment();
    let ari = adjusted_rand_index(clusters, &truth).map_err(FisError::Evaluation)?;
    let nmi = normalized_mutual_information(clusters, &truth).map_err(FisError::Evaluation)?;

    let predicted_sequence = majority_floor_sequence(prediction, &truth, building.floors());
    let ground_sequence: Vec<usize> = (1..=building.floors()).collect();
    let edit = jaro_winkler(&predicted_sequence, &ground_sequence);
    Ok(EvalResult { ari, nmi, edit })
}

/// Maps each cluster (in predicted path order) to its majority true floor
/// *number* (one-based). Empty clusters map to 0, which can never match.
fn majority_floor_sequence(
    prediction: &FloorPrediction,
    truth: &[usize],
    floors: usize,
) -> Vec<usize> {
    prediction
        .cluster_order()
        .iter()
        .map(|&cluster| {
            let mut votes = vec![0usize; floors];
            for (i, &c) in prediction.assignment().iter().enumerate() {
                if c == cluster {
                    votes[truth[i]] += 1;
                }
            }
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(f, &v)| if v == 0 { 0 } else { f + 1 })
                .unwrap_or(0)
        })
        .collect()
}

/// Averages [`EvalResult`]s (used by corpus-level experiments).
pub fn mean_result(results: &[EvalResult]) -> EvalResult {
    if results.is_empty() {
        return EvalResult {
            ari: 0.0,
            nmi: 0.0,
            edit: 0.0,
        };
    }
    let n = results.len() as f64;
    EvalResult {
        ari: results.iter().map(|r| r.ari).sum::<f64>() / n,
        nmi: results.iter().map(|r| r.nmi).sum::<f64>() / n,
        edit: results.iter().map(|r| r.edit).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FisOneConfig, FloorPrediction};
    use fis_synth::BuildingConfig;

    fn pipeline(seed: u64) -> FisOne {
        FisOne::new(FisOneConfig::default().seed(seed))
    }

    #[test]
    fn perfect_prediction_scores_ones() {
        let b = BuildingConfig::new("e", 3)
            .samples_per_floor(10)
            .aps_per_floor(6)
            .seed(31)
            .generate();
        // Oracle prediction straight from ground truth.
        let assignment: Vec<usize> = b.ground_truth().iter().map(|f| f.index()).collect();
        let pred = FloorPrediction::new(assignment, vec![0, 1, 2], vec![0, 1, 2]);
        let res = score_prediction(&pred, &b).unwrap();
        assert!((res.ari - 1.0).abs() < 1e-12);
        assert!((res.nmi - 1.0).abs() < 1e-12);
        assert!((res.edit - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swapped_ordering_hurts_edit_only() {
        let b = BuildingConfig::new("e", 4)
            .samples_per_floor(10)
            .aps_per_floor(6)
            .seed(32)
            .generate();
        let assignment: Vec<usize> = b.ground_truth().iter().map(|f| f.index()).collect();
        // Clustering perfect, but floors 2 and 3 (clusters 1 and 2) swapped
        // in the ordering.
        let pred = FloorPrediction::new(assignment, vec![0, 2, 1, 3], vec![0, 2, 1, 3]);
        let res = score_prediction(&pred, &b).unwrap();
        assert!((res.ari - 1.0).abs() < 1e-12, "ari unaffected by ordering");
        assert!((res.nmi - 1.0).abs() < 1e-12);
        assert!(res.edit < 1.0, "edit must drop: {}", res.edit);
    }

    #[test]
    fn end_to_end_scores_beat_chance() {
        let b = BuildingConfig::new("e", 3)
            .samples_per_floor(40)
            .aps_per_floor(10)
            .atrium_aps(0)
            .seed(33)
            .generate();
        let res = evaluate_building(&pipeline(1), &b).unwrap();
        assert!(res.ari > 0.5, "ari={}", res.ari);
        assert!(res.nmi > 0.5, "nmi={}", res.nmi);
        assert!(res.edit > 0.6, "edit={}", res.edit);
    }

    #[test]
    fn mean_result_averages() {
        let a = EvalResult {
            ari: 0.8,
            nmi: 0.6,
            edit: 1.0,
        };
        let b = EvalResult {
            ari: 0.4,
            nmi: 0.2,
            edit: 0.5,
        };
        let m = mean_result(&[a, b]);
        assert!((m.ari - 0.6).abs() < 1e-12);
        assert!((m.nmi - 0.4).abs() < 1e-12);
        assert!((m.edit - 0.75).abs() < 1e-12);
        assert_eq!(mean_result(&[]).ari, 0.0);
    }
}
