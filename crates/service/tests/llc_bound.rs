//! One submit must not take the daemon down: an `llc_mib` above
//! `MemConfig::MAX_LLC_MIB`, or a thread count above
//! `MachineConfig::MAX_CORES`, is a typed `bad-params` rejection, never
//! an allocation that fails inside a worker and aborts the process (an
//! allocation failure does not unwind, so no fault domain catches it).
//! The server is a real `studyd` child under a 4 GB address-space limit:
//! a machine too large to allocate aborts the child — failing this test —
//! instead of exhausting the host. `repro` rejects the same sizes as a
//! usage error before it simulates anything. The two inputs that used
//! to end in a panic — an LLC capacity that is not a power of two, and
//! `scaling` wider than its rate mix's 512 members — get the same
//! treatment on both front doors.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use experiments::study::StudyParams;
use experiments::{MachineConfig, MemConfig};
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
    fn spawn(workers: usize) -> Serve {
        let mut proc = Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_studyd"))
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
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
    let mut server = Serve::spawn(1);

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
fn an_oversized_thread_count_is_bad_params_and_the_daemon_keeps_serving() {
    let mut server = Serve::spawn(2);

    // 65,536 simulated cores: about 2.4 GB for the machine alone.
    let mut client = Client::connect(&server.addr).expect("connect");
    let huge = StudyParams {
        threads: Some(vec![65_536]),
        ..small_fig1(None)
    };
    match client.submit("fig1", &huge) {
        Err(SimError::Protocol(ProtocolError::Rejected { code, message })) => {
            assert_eq!(code, "bad-params", "{message}");
            assert!(message.contains("threads"), "{message}");
        }
        other => panic!("expected a bad-params rejection, got {other:?}"),
    }

    let served = client
        .submit("fig1", &small_fig1(None))
        .expect("submit after the oversized one");
    assert_eq!(served.failed, 0);
    assert!(
        server.proc.try_wait().expect("poll child").is_none(),
        "the daemon exited"
    );
}

/// `repro --threads` admits `MAX_CORES` and refuses one more, locally
/// and for `submit`, before it simulates or connects.
#[test]
fn repro_bounds_the_thread_count() {
    let repro = |args: &[&str], threads: usize| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .args(["--scale", "0.01", "--threads", &format!("2,{threads}")])
            .output()
            .expect("run repro");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), err)
    };
    let max = MachineConfig::MAX_CORES;
    let submit = ["submit", "fig1", "--addr", "127.0.0.1:1", "--no-retry"];
    for args in [&["nosuch"][..], &submit] {
        let (code, err) = repro(args, max + 1);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains("--threads") && err.contains("usage:"), "{err}");
    }
    // Admitted: the local run fails on its study name, checked after
    // the flags, and the submit gets as far as connecting.
    let (code, err) = repro(&["nosuch"], max);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown experiment"), "{err}");
    let (code, err) = repro(&submit, max);
    assert_eq!(code, Some(10), "{err}");
    assert!(err.contains("connection refused"), "{err}");
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

/// The two inputs that used to end in a panic — a capacity that is not
/// a power of two, and a rate mix wider than its 512 members — are
/// usage errors naming the flag, locally and for `submit`, before
/// anything is simulated or sent.
#[test]
fn repro_refuses_the_inputs_that_used_to_panic() {
    let cases = [
        (&["fig4", "--llc-mib", "3"][..], "--llc-mib", "power of two"),
        (&["fig7", "--llc-mib", "3"], "--llc-mib", "power of two"),
        (&["regions", "--llc-mib", "3"], "--llc-mib", "power of two"),
        (&["scaling", "--llc-mib", "3"], "--llc-mib", "power of two"),
        (&["scaling", "--threads", "513"], "--threads", "512"),
    ];
    for (args, flag, rule) in cases {
        for submit in [false, true] {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
            if submit {
                cmd.args(["submit", "--addr", "127.0.0.1:1", "--no-retry"]);
            }
            let out = cmd
                .args(args)
                .args(["--scale", "0.01"])
                .output()
                .expect("run repro");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{submit} {args:?}: {err}");
            assert!(
                err.contains(flag) && err.contains(rule) && err.contains("usage:"),
                "{submit} {args:?}: {err}"
            );
            assert!(!err.contains("panicked"), "{submit} {args:?}: {err}");
            assert!(out.stdout.is_empty(), "{submit} {args:?} printed a report");
        }
    }
}

/// On the wire the same values are `bad-params`, grid study or not, and
/// the daemon computes nothing for them.
#[test]
fn a_wire_submit_of_the_inputs_that_used_to_panic_is_bad_params() {
    let server = Serve::spawn(1);
    let mut client = Client::connect(&server.addr).expect("connect");
    let llc3 = StudyParams {
        llc_mib: Some(3),
        ..StudyParams::with_scale(0.01)
    };
    let wide = StudyParams {
        threads: Some(vec![513]),
        ..StudyParams::with_scale(0.01)
    };
    for (study, params, field) in [("fig4", &llc3, "llc_mib"), ("scaling", &wide, "threads")] {
        match client.start_submit(study, params, None) {
            Err(SimError::Protocol(ProtocolError::Rejected { code, message })) => {
                assert_eq!(code, "bad-params", "{study}: {message}");
                assert!(message.contains(field), "{study}: {message}");
            }
            other => panic!("{study}: expected a bad-params rejection, got {other:?}"),
        }
    }
    let status = client.status().expect("status");
    assert_eq!((status.jobs_total, status.points_computed), (0, 0));
}
