//! Prints the paper's evaluation tables (§4): Fig. 10(a)–(f), both panels
//! of Fig. 11 and the T-REX comparison.
//!
//! ```sh
//! SPECTRE_BENCH_EVENTS=20000 SPECTRE_BENCH_KS=1,2,4,8 SPECTRE_BENCH_REPEATS=1 \
//!     cargo run --release -p spectre-bench --bin figures -- fig10a fig10d
//! ```
//!
//! With no argument it prints every table. The scale comes from the
//! `SPECTRE_BENCH_*` variables (see `spectre_bench::Scale::from_env`); a
//! malformed value exits 2 and names its variable. Each sweep runs once
//! however many of the named tables read it. A run whose output differs
//! from the sequential reference panics with its row.

use spectre_bench::{Figures, Scale, FIGURES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &str| FIGURES.iter().any(|(known, _)| *known == name);
    if let Some(bad) = names.iter().find(|name| !known(name)) {
        let all: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "figures: unknown table {bad:?}; expected any of {}",
            all.join(" ")
        );
        std::process::exit(2);
    }
    let scale = Scale::from_env().unwrap_or_else(|err| {
        eprintln!("figures: {err}");
        std::process::exit(2);
    });
    let figures = Figures::new(scale);
    for (name, tables) in FIGURES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            for table in tables(&figures) {
                println!("{table}");
            }
        }
    }
}
