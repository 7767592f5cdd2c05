//! One submit must not take the daemon down: an `llc_mib` above
//! `MemConfig::MAX_LLC_MIB` is a typed `bad-params` rejection, never an
//! LLC allocation that fails inside a worker and aborts the process (an
//! allocation failure does not unwind, so no fault domain catches it).
//! The server is a real `studyd` child under a 4 GB address-space limit:
//! an LLC too large to allocate aborts the child — failing this test —
//! instead of exhausting the host. `repro` rejects the same sizes as a
//! usage error before it simulates anything.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use experiments::study::StudyParams;
use experiments::MemConfig;
use service::client::Client;
use speedup_stacks::error::ProtocolError;
use speedup_stacks::SimError;

/// A `studyd` child on a free loopback port under `ulimit -v`, killed on
/// drop.
struct Serve {
    proc: Child,
    addr: String,
}

impl Serve {
    fn spawn() -> Serve {
        let mut proc = Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_studyd"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn studyd");
        let mut banner = String::new();
        BufReader::new(proc.stdout.take().expect("stdout piped"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("studyd: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_string();
        Serve { proc, addr }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.proc.kill().ok();
        self.proc.wait().ok();
    }
}

fn small_fig1(llc_mib: Option<usize>) -> StudyParams {
    StudyParams {
        threads: Some(vec![2]),
        llc_mib,
        ..StudyParams::with_scale(0.01)
    }
}

#[test]
fn an_oversized_llc_is_bad_params_and_the_daemon_keeps_serving() {
    let mut server = Serve::spawn();

    // 64 GiB of LLC: a 4 GiB allocation for its LRU state alone.
    let mut client = Client::connect(&server.addr).expect("connect");
    match client.submit("fig1", &small_fig1(Some(65_536))) {
        Err(SimError::Protocol(ProtocolError::Rejected { code, message })) => {
            assert_eq!(code, "bad-params", "{message}");
            assert!(message.contains("llc_mib"), "{message}");
        }
        other => panic!("expected a bad-params rejection, got {other:?}"),
    }

    // The same process computes the next client's submit.
    let mut next = Client::connect(&server.addr).expect("connect after the oversized submit");
    let served = next
        .submit("fig1", &small_fig1(None))
        .expect("submit after the oversized one");
    assert_eq!(served.failed, 0);
    assert!(
        server.proc.try_wait().expect("poll child").is_none(),
        "the daemon exited"
    );
}

#[test]
fn repro_rejects_an_oversized_llc_as_a_usage_error() {
    let above = (MemConfig::MAX_LLC_MIB + 1).to_string();
    for sub in [&["fig1"][..], &["submit", "fig1", "--addr", "127.0.0.1:1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(sub)
            .args(["--scale", "0.01", "--threads", "2", "--llc-mib", &above])
            .output()
            .expect("run repro");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sub:?}: {err}");
        assert!(err.contains("--llc-mib") && err.contains("usage:"), "{err}");
    }
}
