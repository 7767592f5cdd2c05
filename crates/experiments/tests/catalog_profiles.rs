//! Every profile a study simulates is `scaled_profile` of a catalog
//! entry, its weak variant or a rate-mix member, so the studies check no
//! profile at run time: this test does, once, at scales from far below
//! the smallest a study is run at to far above the largest. Scaling keeps
//! at least 16 items per phase, so nothing else a profile states can
//! change with the scale.

use experiments::scaled_profile;
use workloads::{default_rate_mix, display_name, paper_suite, WorkloadProfile};

const SCALES: [f64; 4] = [1e-6, 0.05, 1.0, 64.0];

#[test]
fn every_profile_a_study_can_run_validates_at_every_scale() {
    let catalog = paper_suite();
    let weak: Vec<WorkloadProfile> = catalog.iter().map(WorkloadProfile::weak_variant).collect();
    let mix = default_rate_mix();
    assert_eq!((catalog.len(), weak.len()), (28, 28));
    assert!(!mix.is_empty());
    for profile in catalog.iter().chain(&weak).chain(&mix) {
        for scale in SCALES {
            let scaled = scaled_profile(profile, scale);
            if let Err(e) = scaled.validate() {
                panic!("{} at scale {scale}: {e}", display_name(profile));
            }
        }
    }
}
