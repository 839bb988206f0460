//! `snoc serve`: the long-running sweep service over a Unix-domain
//! socket.
//!
//! Server mode (the default) binds `--socket` and serves the
//! newline-delimited JSON protocol of `snoc_core::serve` until a client
//! sends `{"op":"shutdown"}`:
//!
//! ```text
//! snoc serve --socket /tmp/snoc.sock --threads 2 --cache-dir .snoc-cache
//! ```
//!
//! Client mode sends one request line and prints every response line to
//! stdout (exiting 1 if the server reports an error), which is all a
//! shell script needs to drive the service:
//!
//! ```text
//! snoc serve --socket /tmp/snoc.sock \
//!   --request '{"op":"submit","wait":true,"experiment":"fig6","scale":"quick"}'
//! snoc serve --socket /tmp/snoc.sock --shutdown
//! ```

use snoc_core::serve::json::Json;
use snoc_core::serve::{ServeOptions, Server};
use snoc_noc::NocEnv;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Runs the server (every job instrumented as `noc` asks), or sends
/// `request` to one. Returns the exit code.
pub fn run(mut opts: ServeOptions, request: Option<&str>, noc: &NocEnv) -> i32 {
    if let Some(line) = request {
        return match client(&opts.socket, line) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }
    opts.env = *noc;
    match Server::start(opts) {
        Ok(server) => {
            server.wait();
            0
        }
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            1
        }
    }
}

/// Sends one request line and streams every response line to stdout.
/// Returns whether the server reported success on every line.
fn client(socket: &Path, line: &str) -> Result<bool, String> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| format!("could not connect to {}: {e}", socket.display()))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    writeln!(stream, "{line}")
        .and_then(|()| stream.flush())
        .and_then(|()| stream.shutdown(Shutdown::Write))
        .map_err(|e| format!("could not send request: {e}"))?;
    let mut ok = true;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for response in reader.lines() {
        let response = response.map_err(|e| format!("connection lost: {e}"))?;
        if Json::parse(&response)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool))
            == Some(false)
        {
            ok = false;
        }
        let _ = writeln!(out, "{response}");
    }
    Ok(ok)
}
