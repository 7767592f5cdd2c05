//! One hostile line must not take the daemon down: JSON nested past
//! `json::MAX_DEPTH` is a typed error, not a stack overflow. The server
//! is a real `studyd` child process, so an abort there fails this test
//! instead of killing the test harness with it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use service::client::Client;
use speedup_stacks::report::json::{self, JsonValue};

/// A `studyd` child on a free loopback port, killed on drop.
struct Serve {
    proc: Child,
    addr: String,
}

impl Serve {
    fn spawn() -> Serve {
        let mut proc = Command::new(env!("CARGO_BIN_EXE_studyd"))
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

#[test]
fn a_deeply_nested_handshake_is_malformed_and_the_daemon_keeps_serving() {
    let mut server = Serve::spawn();

    // 60,000 bytes of `[`: under the 64 KiB request cap, far past the
    // nesting limit (and past what a 2 MiB session stack could recurse).
    let mut hostile = TcpStream::connect(&server.addr).expect("connect");
    hostile
        .write_all(format!("{}\n", "[".repeat(60_000)).as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(&hostile)
        .read_line(&mut reply)
        .expect("read reply");
    let frame = json::parse(&reply).unwrap_or_else(|e| panic!("no error frame ({e}): {reply:?}"));
    assert_eq!(
        frame.get("error").and_then(JsonValue::as_str),
        Some("malformed"),
        "{reply}"
    );

    // A second client is still answered by the same process.
    let mut client = Client::connect(&server.addr).expect("connect after the hostile line");
    let status = client.status().expect("status after the hostile line");
    assert_eq!(status.workers, 1);
    assert!(
        server.proc.try_wait().expect("poll child").is_none(),
        "the daemon exited"
    );
}
