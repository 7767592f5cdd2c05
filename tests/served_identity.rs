//! Served ≡ local, and the service computes each unit once however many
//! figures ask for it: `fig4`, then `fig6`, `fig5`, `fig1`, `fig2`,
//! `fig3` and `fig8`, through one in-process `studyd`. The last six are
//! views of `fig4`'s runs, so they must be assembled entirely from its
//! cache entries — and still come out byte-identical to a local
//! `Study::run` in every format.

use experiments::decompose::decompose;
use experiments::study::{find_study, StudyParams};
use service::client::Client;
use service::server::{serve, ServeConfig};

#[test]
fn figures_are_served_from_one_set_of_units() {
    let server = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let params = StudyParams::with_scale(0.02);

    let views = ["fig6", "fig5", "fig1", "fig2", "fig3", "fig8"];
    for name in std::iter::once("fig4").chain(views) {
        let served = client.submit(name, &params).expect("submit");
        let n_points = decompose(name, &params).expect("grid study").n_points();
        let counts = (served.computed, served.cached, served.coalesced);
        if name == "fig4" {
            assert_eq!(counts, (112, 0, 0), "{name}: cold");
        } else {
            assert_eq!(counts, (0, n_points, 0), "{name}: all from fig4's units");
        }
        assert_eq!(served.failed, 0, "{name}");
        let local = find_study(name)
            .expect("registry")
            .run(&params)
            .expect("run");
        assert_eq!(served.report.to_text(), local.to_text(), "{name} text");
        assert_eq!(served.report.to_json(), local.to_json(), "{name} json");
        assert_eq!(served.report.to_csv(), local.to_csv(), "{name} csv");
    }

    let status = client.status().expect("status");
    assert_eq!(status.points_computed, 112);
    assert_eq!(status.points_cached, 28 + 12 + 12 + 1 + 1 + 7);
    server.stop();
}
