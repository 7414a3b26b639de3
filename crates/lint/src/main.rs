//! CLI for the workspace lint pass.
//!
//! ```text
//! cargo run -p btrim-lint -- check [--root <dir>]
//! ```
//!
//! Findings print to stdout, one per line, as `file:line:rule: message`
//! (stable and greppable; sorted by file, then line, then rule). Exit
//! codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use btrim_lint::check_workspace;

fn usage() -> ExitCode {
    eprintln!("usage: btrim-lint check [--root <dir>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("check") {
        return usage();
    }
    let mut root = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(dir)) => root = PathBuf::from(dir),
            _ => return usage(),
        }
    }

    match check_workspace(&root) {
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                eprintln!("btrim-lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("btrim-lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("btrim-lint: {e}");
            ExitCode::from(2)
        }
    }
}
