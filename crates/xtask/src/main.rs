//! `cargo xtask` — repo automation.
//!
//! ```text
//! cargo xtask analyze            # the static gate: exit 1 on findings
//! ```
//!
//! The `xtask` alias lives in `.cargo/config.toml`. `analyze` is the one
//! hand-written static check (see `analyze/` and DESIGN.md §14); what
//! clippy can enforce lives in `clippy.toml` and the `[lints]` tables.

#![deny(unsafe_code)]

mod analyze;
mod census;
mod scan;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::cmd_analyze(&args[1..]),
        other => {
            if let Some(other) = other {
                eprintln!("xtask: unknown command `{other}`");
            }
            eprintln!("usage: cargo xtask analyze");
            ExitCode::from(2)
        }
    }
}
