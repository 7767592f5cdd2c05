//! The spill format, pinned by a committed file: `goldens/spill_fig1.ndjson`
//! is the spill a one-worker `studyd` (commit 7e6fed0, whose sweep journal
//! still wrote name-keyed records) left after one cold `fig1` submit at
//! scale 0.01 on 2 threads — 3 references and 3 points, in the order one
//! worker completes them.
//!
//! - This build reloads it with nothing quarantined, and a warm submit
//!   against it computes nothing and reproduces a local run.
//! - A spill this build writes for the same submit is the same bytes.
//! - A sweep journal for the same parameters holds the same entry lines:
//!   the journal and the spill write one record for a computed unit.

use std::path::{Path, PathBuf};

use experiments::study::{find_study, StudyParams};
use experiments::JournalSpec;
use service::client::Client;
use service::server::{serve, ServeConfig, ServerHandle};

fn fixture() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/spill_fig1.ndjson"
    );
    std::fs::read(path).expect("read the spill fixture")
}

fn params() -> StudyParams {
    StudyParams {
        scale: 0.01,
        threads: Some(vec![2]),
        ..StudyParams::default()
    }
}

fn temp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "studyd-spill-fixture-{}-{tag}.ndjson",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn one_worker(spill: &Path) -> ServerHandle {
    serve(&ServeConfig {
        workers: 1,
        cache_spill: Some(spill.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind")
}

#[test]
fn the_committed_spill_reloads_and_serves_a_warm_submit() {
    let spill = temp("warm");
    std::fs::write(&spill, fixture()).unwrap();
    let server = one_worker(&spill);
    let stats = server.cache().stats();
    assert_eq!((stats.loaded, stats.quarantined), (6, 0));
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let served = client.submit("fig1", &params()).expect("submit");
    assert_eq!((served.computed, served.cached, served.failed), (0, 3, 0));
    let local = find_study("fig1").unwrap().run(&params()).unwrap();
    assert_eq!(served.report.to_json(), local.to_json(), "bit-identical");
    server.stop();
    assert_eq!(
        std::fs::read(&spill).unwrap(),
        fixture(),
        "nothing rewritten"
    );
    std::fs::remove_file(&spill).ok();
}

#[test]
fn a_cold_submit_writes_the_committed_bytes() {
    let spill = temp("cold");
    let server = one_worker(&spill);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let served = client.submit("fig1", &params()).expect("submit");
    assert_eq!((served.computed, served.cached), (3, 0));
    server.stop();
    assert_eq!(
        std::fs::read_to_string(&spill).unwrap(),
        String::from_utf8(fixture()).unwrap()
    );
    std::fs::remove_file(&spill).ok();
}

#[test]
fn a_sweep_journal_holds_the_spills_entry_lines() {
    let journal = temp("journal");
    let params = StudyParams {
        journal: Some(JournalSpec {
            path: journal.to_string_lossy().into_owned(),
            resume: false,
        }),
        ..params()
    };
    find_study("fig1").unwrap().run(&params).unwrap();
    let entries = |text: String| {
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        lines.sort();
        lines
    };
    let written = entries(std::fs::read_to_string(&journal).unwrap());
    assert_eq!(written, entries(String::from_utf8(fixture()).unwrap()));
    std::fs::remove_file(&journal).ok();
}
