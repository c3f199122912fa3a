//! Nearest-neighbor classification over the analog-CAM layer.
//!
//! The similarity-search workload the aCAM literature targets
//! (arXiv:1907.08177, arXiv:2403.15328): quantize a feature vector onto
//! analog levels, store each labeled *prototype* as a row of acceptance
//! intervals (`[level − margin, level + margin]` per dimension), and
//! classify a query by best-match — the row with the smallest interval
//! distance wins and its class is the answer. The margin makes each
//! prototype a fuzzy hyper-box: queries inside every box edge match at
//! distance 0, and the interval metric degrades gracefully outside.
//!
//! [`ClusteredWorkload`] is the deterministic load generator beside the
//! BGP/ACL generators in `tcam-serve`: seeded cluster centers, prototype
//! rows at the centers, and queries drawn as center + Gaussian noise with
//! the generating class as ground-truth label. Every run with one seed
//! sees the identical workload, so classifier accuracy is a reproducible
//! test, and [`ClusteredWorkload::accuracy_under_conductance_noise`]
//! carries it through the calibrated cell's noise transfer function — the
//! accuracy-vs-σ experiment of the aCAM literature, without a transient.

use crate::acam::kernel::PackedAcamArray;
use crate::acam::{quantize, AcamArray, AcamCell, AcamMatch, AcamMetric, Result};
use tcam_core::acam::{AcamCellDesign, AcamSpec};
use tcam_numeric::rng::SplitMix64;

/// A nearest-neighbor classifier: quantized feature vectors stored as
/// interval rows, class ids recovered from the best-matching row.
#[derive(Debug, Clone)]
pub struct NnClassifier {
    array: AcamArray,
    /// `classes[id]` = class of prototype row `id` (ids are dense, in
    /// insertion order, so earlier prototypes win distance ties).
    classes: Vec<u32>,
    margin: u16,
}

impl NnClassifier {
    /// An empty classifier over `dims`-dimensional features quantized to
    /// `levels`, with a per-cell acceptance half-width of `margin`
    /// levels around each stored prototype level.
    ///
    /// # Errors
    ///
    /// Propagates [`AcamArray::new`] validation errors.
    pub fn new(dims: usize, levels: u16, margin: u16) -> Result<Self> {
        Ok(Self {
            array: AcamArray::new(dims, levels)?,
            classes: Vec::new(),
            margin,
        })
    }

    /// Quantizes a unit-interval feature vector onto the classifier's
    /// levels.
    #[must_use]
    pub fn quantize_features(&self, features: &[f64]) -> Vec<u16> {
        features
            .iter()
            .map(|&x| quantize(x, self.array.levels()))
            .collect()
    }

    /// Stores a labeled prototype: each feature becomes the interval
    /// `[level − margin, level + margin]` (clamped to the level domain).
    /// Returns the new row id.
    ///
    /// # Errors
    ///
    /// [`crate::acam::AcamError::WidthMismatch`] when `features` has the
    /// wrong dimensionality.
    pub fn add_prototype(&mut self, features: &[f64], class: u32) -> Result<u32> {
        let levels = self.array.levels();
        let word: Vec<AcamCell> = self
            .quantize_features(features)
            .into_iter()
            .map(|level| {
                let lo = level.saturating_sub(self.margin);
                let hi = (level + self.margin).min(levels - 1);
                AcamCell::new(lo, hi).expect("lo <= level <= hi")
            })
            .collect();
        let id = u32::try_from(self.classes.len()).expect("row count fits u32");
        self.array.push(&word, id)?;
        self.classes.push(class);
        Ok(id)
    }

    /// Classifies a query: the class of the interval-distance best match
    /// (`None` only when no prototypes are stored), along with the
    /// winning row's match record.
    ///
    /// # Errors
    ///
    /// Rejects malformed queries (wrong dimensionality).
    pub fn classify(&self, features: &[f64]) -> Result<Option<(u32, AcamMatch)>> {
        let key = self.quantize_features(features);
        Ok(self
            .array
            .best_match(&key, AcamMetric::Interval)?
            .map(|m| (self.classes[m.id as usize], m)))
    }

    /// Stored prototype count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether any prototypes are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The underlying interval array (e.g. to shard for serving).
    #[must_use]
    pub fn array(&self) -> &AcamArray {
        &self.array
    }

    /// The cell-major packed representation for batched classification.
    #[must_use]
    pub fn packed(&self) -> PackedAcamArray {
        PackedAcamArray::from_array(&self.array)
    }
}

/// A deterministic clustered-feature workload: seeded class centers,
/// prototypes at the centers, and noisy queries labeled by generating
/// class — the similarity-search counterpart of the BGP/ACL generators.
#[derive(Debug, Clone)]
pub struct ClusteredWorkload {
    /// Feature dimensionality.
    pub dims: usize,
    /// One cluster center per class (`centers[c]` generates class `c`).
    pub centers: Vec<Vec<f64>>,
    /// Queries as `(features, true class)`.
    pub queries: Vec<(Vec<f64>, u32)>,
}

impl ClusteredWorkload {
    /// Generates `classes` cluster centers in `[0.1, 0.9]^dims` and
    /// `queries_per_class` queries per class as center + `noise`·N(0,1)
    /// per dimension (clamped to the unit interval), interleaved across
    /// classes. Identical for any consumer given one `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape (`classes`, `dims`, or
    /// `queries_per_class` of 0).
    #[must_use]
    pub fn generate(
        classes: usize,
        dims: usize,
        queries_per_class: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        assert!(
            classes > 0 && dims > 0 && queries_per_class > 0,
            "degenerate clustered workload"
        );
        let mut rng = SplitMix64::new(seed);
        let mut center_rng = rng.fork();
        let mut query_rng = rng.fork();

        let centers: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..dims).map(|_| center_rng.uniform(0.1, 0.9)).collect())
            .collect();
        let mut queries = Vec::with_capacity(classes * queries_per_class);
        for _ in 0..queries_per_class {
            for (class, center) in centers.iter().enumerate() {
                let features: Vec<f64> = center
                    .iter()
                    .map(|&c| (c + noise * query_rng.normal()).clamp(0.0, 1.0))
                    .collect();
                queries.push((features, class as u32));
            }
        }
        Self {
            dims,
            centers,
            queries,
        }
    }

    /// Builds the matching classifier: one prototype per center, labeled
    /// with its class.
    ///
    /// # Errors
    ///
    /// Propagates classifier construction errors.
    pub fn classifier(&self, levels: u16, margin: u16) -> Result<NnClassifier> {
        let mut clf = NnClassifier::new(self.dims, levels, margin)?;
        for (class, center) in self.centers.iter().enumerate() {
            clf.add_prototype(center, class as u32)?;
        }
        Ok(clf)
    }

    /// Fraction of queries the classifier labels correctly.
    ///
    /// # Errors
    ///
    /// Propagates classification errors (dimensionality mismatch).
    pub fn accuracy(&self, clf: &NnClassifier) -> Result<f64> {
        let mut correct = 0usize;
        for (features, truth) in &self.queries {
            if clf.classify(features)?.map(|(class, _)| class) == Some(*truth) {
                correct += 1;
            }
        }
        Ok(correct as f64 / self.queries.len() as f64)
    }

    /// Mean classification accuracy at each conductance-noise level in
    /// `sigmas`, over `trials` noise draws: every stored bound of `clf`
    /// goes through the cell's noise→bound transfer
    /// ([`AcamCellDesign::perturbed_bound`], lognormal factor
    /// `exp(σ·z)`), and each query is classified by interval distance
    /// against the shifted, now continuous, bounds with the kernel's rule
    /// (smallest distance, then earliest prototype).
    ///
    /// Common random numbers: a trial's `z` per bound is drawn once from
    /// `seed` and scaled by every σ, so the curve's shape is the transfer
    /// function's and not sampling noise — at σ = 0 it equals
    /// [`Self::accuracy`] exactly.
    ///
    /// # Panics
    ///
    /// Panics when `clf` is empty or not `dims` wide, or `trials` is 0.
    #[must_use]
    pub fn accuracy_under_conductance_noise(
        &self,
        clf: &NnClassifier,
        design: &AcamCellDesign,
        spec: &AcamSpec,
        sigmas: &[f64],
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        assert!(
            !clf.is_empty() && clf.array().width() == self.dims && trials > 0,
            "degenerate noise study"
        );
        let bounds: Vec<(f64, f64)> = (0..clf.len())
            .flat_map(|row| clf.array().row(row).expect("row below len").1)
            .map(|cell| (f64::from(cell.lo()), f64::from(cell.hi())))
            .collect();
        let mut rng = SplitMix64::new(seed);
        let draws: Vec<Vec<(f64, f64)>> = (0..trials)
            .map(|_| {
                bounds
                    .iter()
                    .map(|_| (rng.normal(), rng.normal()))
                    .collect()
            })
            .collect();
        let keys: Vec<(Vec<u16>, u32)> = self
            .queries
            .iter()
            .map(|(features, truth)| (clf.quantize_features(features), *truth))
            .collect();
        sigmas
            .iter()
            .map(|&sigma| {
                let mut correct = 0usize;
                for z in &draws {
                    let noisy: Vec<(f64, f64)> = bounds
                        .iter()
                        .zip(z)
                        .map(|(&(lo, hi), &(z_lo, z_hi))| {
                            (
                                design.perturbed_bound(lo, sigma, z_lo, spec),
                                design.perturbed_bound(hi, sigma, z_hi, spec),
                            )
                        })
                        .collect();
                    for (key, truth) in &keys {
                        let mut best = (f64::INFINITY, 0usize);
                        for (row, cells) in noisy.chunks(self.dims).enumerate() {
                            let distance: f64 = cells
                                .iter()
                                .zip(key)
                                .map(|(&(lo, hi), &k)| {
                                    (lo - f64::from(k)).max(0.0) + (f64::from(k) - hi).max(0.0)
                                })
                                .sum();
                            if distance < best.0 {
                                best = (distance, row);
                            }
                        }
                        // Prototypes are only ever appended: row = id.
                        if clf.classes[best.1] == *truth {
                            correct += 1;
                        }
                    }
                }
                correct as f64 / (trials * keys.len()) as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acam::AcamError;

    #[test]
    fn classifies_prototypes_exactly() {
        let mut clf = NnClassifier::new(2, 64, 2).unwrap();
        clf.add_prototype(&[0.2, 0.8], 10).unwrap();
        clf.add_prototype(&[0.8, 0.2], 20).unwrap();
        let (class, m) = clf.classify(&[0.2, 0.8]).unwrap().unwrap();
        assert_eq!((class, m.distance), (10, 0));
        let (class, m) = clf.classify(&[0.79, 0.21]).unwrap().unwrap();
        assert_eq!(class, 20);
        assert_eq!(m.distance, 0, "inside the margin box");
        // A query between the boxes still resolves to the nearer one.
        let (class, _) = clf.classify(&[0.7, 0.3]).unwrap().unwrap();
        assert_eq!(class, 20);
    }

    #[test]
    fn rejects_wrong_dimensionality() {
        let mut clf = NnClassifier::new(3, 64, 1).unwrap();
        assert!(matches!(
            clf.add_prototype(&[0.5], 0),
            Err(AcamError::WidthMismatch { .. })
        ));
        clf.add_prototype(&[0.1, 0.5, 0.9], 0).unwrap();
        assert!(matches!(
            clf.classify(&[0.1, 0.5]),
            Err(AcamError::WidthMismatch { .. })
        ));
        assert_eq!(clf.len(), 1);
    }

    #[test]
    fn empty_classifier_returns_none() {
        let clf = NnClassifier::new(2, 16, 1).unwrap();
        assert!(clf.is_empty());
        assert_eq!(clf.classify(&[0.5, 0.5]).unwrap(), None);
    }

    #[test]
    fn margin_boxes_clamp_at_domain_edges() {
        let mut clf = NnClassifier::new(1, 16, 4).unwrap();
        clf.add_prototype(&[0.0], 1).unwrap();
        clf.add_prototype(&[1.0], 2).unwrap();
        let (_, row0) = clf.array().row(0).unwrap();
        assert_eq!((row0[0].lo(), row0[0].hi()), (0, 4));
        let (_, row1) = clf.array().row(1).unwrap();
        assert_eq!((row1[0].lo(), row1[0].hi()), (11, 15));
    }

    #[test]
    fn workload_is_deterministic_and_accurate_at_low_noise() {
        let w = ClusteredWorkload::generate(6, 8, 24, 0.04, 42);
        let w2 = ClusteredWorkload::generate(6, 8, 24, 0.04, 42);
        assert_eq!(w.centers, w2.centers);
        assert_eq!(w.queries, w2.queries);
        assert_eq!(w.queries.len(), 6 * 24);

        let clf = w.classifier(256, 8).unwrap();
        let acc = w.accuracy(&clf).unwrap();
        assert!(acc > 0.95, "low-noise accuracy {acc}");

        // Heavier noise must not *improve* accuracy (same seed).
        let noisy = ClusteredWorkload::generate(6, 8, 24, 0.35, 42);
        let noisy_acc = noisy.accuracy(&clf).unwrap();
        assert!(noisy_acc <= acc, "noisy {noisy_acc} vs clean {acc}");
    }

    /// The S1 experiment at the circuit's quantization (8 cells × 16
    /// levels, ±1 margin): the clean classifier clears its floor, σ = 0
    /// reproduces it, and accuracy only falls as conductance noise grows.
    #[test]
    fn accuracy_falls_with_conductance_noise_from_the_clean_classifier() {
        let spec = AcamSpec::reference();
        let w = ClusteredWorkload::generate(6, spec.cols, 24, 0.05, 41);
        let clf = w.classifier(spec.levels, 1).unwrap();
        let clean = w.accuracy(&clf).unwrap();
        assert!(clean >= 0.90, "classifier accuracy {clean} at 16 levels");

        let sigmas = [0.0, 0.15, 0.4, 0.9];
        let design = AcamCellDesign::default();
        let curve = w.accuracy_under_conductance_noise(&clf, &design, &spec, &sigmas, 8, 110);
        assert_eq!(curve[0], clean, "σ = 0 is the clean classifier");
        for pair in curve.windows(2) {
            assert!(
                pair[1] <= pair[0] + 0.02,
                "accuracy not monotone in σ: {curve:?}"
            );
        }
        assert!(curve[3] < clean, "σ = 0.9 must cost accuracy: {curve:?}");
        // Every grid point scales the same draws, so a point's accuracy
        // does not depend on where in the grid it sits — that, not the
        // trial count, is what makes the curve monotone.
        let alone = w.accuracy_under_conductance_noise(&clf, &design, &spec, &[0.9], 8, 110);
        assert_eq!(alone[0], curve[3]);
    }

    #[test]
    fn batched_classification_agrees_with_scalar() {
        let w = ClusteredWorkload::generate(4, 6, 16, 0.08, 7);
        let clf = w.classifier(128, 4).unwrap();
        let packed = clf.packed();
        let keys: Vec<Vec<u16>> = w
            .queries
            .iter()
            .map(|(f, _)| clf.quantize_features(f))
            .collect();
        let batched = packed.best_match_batch(&keys, AcamMetric::Interval);
        for ((features, _), got) in w.queries.iter().zip(batched) {
            let scalar = clf.classify(features).unwrap().map(|(_, m)| m);
            assert_eq!(got, scalar);
        }
    }
}
