//! The exit rule the examples share with `repro` and `lgr-serve`.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

/// The exit code of an example that wrote its output to stdout:
/// success when it finished or when the reader closed the pipe early
/// (`example | head -1`), since the reader has what it asked for; on
/// any other write error, failure with the error on stderr.
pub fn exit_code(written: io::Result<()>) -> ExitCode {
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            let _ = writeln!(io::stderr().lock(), "error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
