//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! Commands:
//!
//! * `lint` — run the seven determinism / unit-soundness rules over
//!   every workspace crate's `src/`, checked against in-source
//!   waivers and `lint-allowlist.txt`.
//! * `lint --format json` — same, with a versioned machine-readable
//!   report on stdout (archived by CI).
//! * `lint --update-allowlist` — refresh counts for existing
//!   allowlist entries and drop stale ones. Refuses to add entries
//!   for new `(rule, file)` pairs: those must be written by hand
//!   with a justification, or waived in source.
//!
//! The retired seed scanner (`legacy`) is compiled only into this
//! crate's unit tests, which check it against the token pass over the
//! whole workspace.

mod allowlist;
#[cfg(test)]
mod legacy;
mod lexer;
mod lint;
mod parse;
mod report;
mod rules;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--update-allowlist] [--format text|json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();

    // xtask lives at <root>/crates/xtask, so the workspace root is
    // two levels up from the manifest dir.
    let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) else {
        eprintln!("xtask: cannot locate the workspace root");
        return ExitCode::from(2);
    };

    let Some((&"lint", flags)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut update = false;
    let mut format = lint::Format::Text;
    let mut rest = flags;
    while let Some((&flag, tail)) = rest.split_first() {
        match flag {
            "--update-allowlist" => {
                update = true;
                rest = tail;
            }
            "--format" => match tail.split_first() {
                Some((&"text", tail2)) => {
                    format = lint::Format::Text;
                    rest = tail2;
                }
                Some((&"json", tail2)) => {
                    format = lint::Format::Json;
                    rest = tail2;
                }
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    match lint::run(root, update, format) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => ExitCode::from(n.clamp(0, i32::from(u8::MAX)) as u8),
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::from(2)
        }
    }
}
