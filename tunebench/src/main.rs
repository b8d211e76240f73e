//! Command line of the whole-workload benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tunebench/Cargo.toml -- \
//!     --workload <synthetic-joint|tddft-cs1|serve-recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one detail line (provenance, sample counts, per-repetition
//! values) and, last, the result line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Exits 0
//! when every output check passed, 1 when one failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use tunebench::{result_json, run, RunSpec, Scale, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tunebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage();
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
    else {
        return usage();
    };
    let traced = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage(),
    };

    // Scratch space for the service's data directories, inside the
    // working directory and removed before exit.
    let tmp = PathBuf::from(".tunebench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // The flaky campaign's injected panics are contained by the service;
    // keep the default hook from printing a backtrace for each.
    if workload == Workload::ServeRecover {
        std::panic::set_hook(Box::new(|_| {}));
    }

    let result = run(
        &RunSpec {
            workload,
            seed,
            seconds,
            traced,
            scale: Scale::Full,
        },
        &tmp,
    );
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".tunebench-tmp");

    println!("{}", result.detail);
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
