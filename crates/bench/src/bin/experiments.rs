//! The experiment harness binary: regenerates every table (T1–T9) and
//! figure (F1–F4) of the reproduction.
//!
//! ```text
//! experiments [--full] [--csv DIR] [IDS...]
//!
//!   --full      publication-size sample counts (default: quick)
//!   --csv DIR   also write each table as DIR/<id>.csv
//!   IDS         subset of experiments to run (t1..t9, f1..f4);
//!               default: all
//! ```
//!
//! Performance is measured by `abbench` (`benchmark/`), not here.

use bft_bench::{all_experiments, Mode};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Quick;
    let mut csv_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => mode = Mode::Full,
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: experiments [--full] [--csv DIR] [t1..t9 f1..f4]");
                return;
            }
            id => wanted.push(id.to_ascii_lowercase()),
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }

    let experiments = all_experiments();
    let unknown: Vec<&String> =
        wanted.iter().filter(|w| !experiments.iter().any(|(id, _)| id == w)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment ids: {unknown:?} (expected t1..t9, f1..f4)");
        std::process::exit(2);
    }

    println!(
        "async-bft experiment harness — mode: {}\n",
        if mode == Mode::Full { "full" } else { "quick" }
    );

    for (id, runner) in experiments {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        let started = std::time::Instant::now();
        let report = runner(mode);
        println!("{}", report.render());
        println!("   [{} finished in {:.1?}]\n", report.id, started.elapsed());
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{id}.csv");
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    if let Err(e) = f.write_all(report.table.to_csv().as_bytes()) {
                        eprintln!("failed writing {path}: {e}");
                    }
                }
                Err(e) => eprintln!("failed creating {path}: {e}"),
            }
        }
    }
}
