//! The Phase II predict kernel is pinned bit for bit: the default
//! HybridRSL profile, trained on a small fixed EPA-NET corpus, must
//! produce exactly the same `p1` bit patterns over a fixed probe set as
//! the reference (per-output, matrix-at-a-time) implementation did when
//! the CRCs below were recorded, and encode to the same `.aquaprof`
//! bytes. Any drift in the tree walk, the SVM margin order, the fusion
//! arithmetic or the tree codec changes a CRC.

use aqua_core::{AquaError, AquaScale, AquaScaleConfig, ExternalObservations, ProfileArtifact};
use aqua_ml::{MlError, ModelKind};
use aqua_net::synth;

/// CRC-32 of the little-endian `p1` bit patterns, row-major over the
/// probe set, recorded with the reference predict path.
const PINNED_P1_CRC: u32 = 0x7f37_57a4;

/// CRC-32 of the same profile's `.aquaprof` bytes (training time zeroed),
/// recorded with the per-tree node-list codec the arena must reproduce.
const PINNED_ARTIFACT_CRC: u32 = 0x2144_df1c;

fn epa_hybrid() -> (AquaScale<'static>, aqua_core::ProfileModel) {
    let net: &'static aqua_net::Network = Box::leak(Box::new(synth::epa_net()));
    let config = AquaScaleConfig {
        model: ModelKind::hybrid_rsl(),
        train_samples: 60,
        threads: 2,
        ..AquaScaleConfig::default()
    };
    let aqua = AquaScale::new(net, config);
    let profile = aqua.train_profile().expect("train");
    (aqua, profile)
}

#[test]
fn hybrid_rsl_p1_bits_match_the_pinned_crc() {
    let (aqua, profile) = epa_hybrid();
    let probe = aqua.generate_dataset(24, 0x9B0B).expect("probe set");
    let mut bytes = Vec::new();
    let mut rows = 0;
    for row in probe.x.iter_rows() {
        // Each held-out row, and its mirror image, which sends the trees
        // down branches the training corpus rarely visits.
        let mirrored: Vec<f64> = row.iter().map(|v| -v).collect();
        for features in [row, &mirrored[..]] {
            let p1 = aqua
                .infer(&profile, features, &ExternalObservations::none())
                .expect("infer")
                .p1;
            assert_eq!(p1.len(), profile.junctions.len());
            for p in p1 {
                bytes.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 48);
    let crc = aqua_artifact::crc32(&bytes);
    assert_eq!(
        crc, PINNED_P1_CRC,
        "p1 drifted: CRC {crc:#010x}, pinned {PINNED_P1_CRC:#010x}"
    );
}

#[test]
fn infer_rejects_a_wrong_width_row_instead_of_panicking() {
    let (aqua, profile) = epa_hybrid();
    let width = aqua.generate_dataset(1, 5).expect("one row").x.cols();
    for len in [0, width - 1, width + 1] {
        let row = vec![0.0; len];
        assert_eq!(
            aqua.infer(&profile, &row, &ExternalObservations::none())
                .map(|i| i.p1),
            Err(AquaError::Ml(MlError::FeatureMismatch {
                expected: width,
                got: len
            }))
        );
    }
}

#[test]
fn hybrid_rsl_artifact_bytes_match_the_pinned_crc() {
    let (aqua, profile) = epa_hybrid();
    let mut artifact = ProfileArtifact::capture(&aqua, profile);
    artifact.training_time = std::time::Duration::ZERO;
    let crc = aqua_artifact::crc32(&artifact.to_bytes());
    assert_eq!(
        crc, PINNED_ARTIFACT_CRC,
        "artifact bytes drifted: CRC {crc:#010x}, pinned {PINNED_ARTIFACT_CRC:#010x}"
    );
}
