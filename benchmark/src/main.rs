//! `hdk-benchmark` — the repository's one repeatable benchmark.
//!
//! ```text
//! hdk-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out <dir>] [--collection-seed <n>]
//! hdk-benchmark set --out <dir> [--seeds 1,2,..] [--seconds <s>]
//! hdk-benchmark compare <dir-or-file A> <dir-or-file B>
//! hdk-benchmark selftest [--seed <n>]
//! hdk-benchmark spec
//! ```
//!
//! Run from the repository root (the `hdk-peer` binary is built from the
//! root workspace). The last line of standard output of a run is the
//! result object the driver reads.

mod affinity;
mod compare;
mod fleet;
mod inputs;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hdk-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20                    [--out <dir>] [--collection-seed <n>]\n\
         \x20      hdk-benchmark set --out <dir> [--seeds 1,2,..] [--seconds <s>]\n\
         \x20      hdk-benchmark compare <A> <B>\n\
         \x20      hdk-benchmark selftest [--seed <n>]\n\
         \x20      hdk-benchmark spec",
        workloads::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].as_str())
}

fn main() -> ExitCode {
    // The program under test reads HDK_* switches from the environment;
    // a run measures the defaults, whatever the caller's shell exports.
    // Done before any thread exists; children inherit the scrubbed set.
    let scrub: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("HDK_"))
        .collect();
    for name in scrub {
        std::env::remove_var(name);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("set") => report::run_set(
            flag(&args, "--out"),
            flag(&args, "--seeds"),
            flag(&args, "--seconds"),
        ),
        Some("selftest") => report::selftest(flag(&args, "--seed")),
        Some("spec") => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        Some(first) if first.starts_with("--") && flag(&args, "--workload").is_some() => {
            let parsed = (|| {
                Some((
                    workloads::find(flag(&args, "--workload")?)?,
                    flag(&args, "--seed")?.parse::<u64>().ok()?,
                    flag(&args, "--seconds")?.parse::<f64>().ok()?,
                    match flag(&args, "--trace")? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                    match flag(&args, "--collection-seed") {
                        Some(n) => n.parse::<u64>().ok()?,
                        None => inputs::COLLECTION_SEED,
                    },
                ))
            })();
            match parsed {
                Some((w, seed, seconds, trace, collection_seed)) if seconds > 0.0 => run(
                    w,
                    report::Seeds {
                        replay: seed,
                        collection: collection_seed,
                    },
                    seconds,
                    trace,
                    flag(&args, "--out"),
                ),
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

fn run(
    w: &'static workloads::Workload,
    seeds: report::Seeds,
    seconds: f64,
    trace: bool,
    out: Option<&str>,
) -> ExitCode {
    let peer_bin = match fleet::build_peer_binary() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("hdk-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    // After the build (cargo may use every CPU), before the first thread
    // or child of the measurement.
    if let Err(e) = affinity::pin_to_one_cpu() {
        eprintln!("hdk-benchmark: not confined to one CPU, timings will be noisier: {e}");
    }
    let started = Instant::now();
    let inputs =
        inputs::Inputs::generate(seeds.collection, seeds.replay, w.base_docs, w.growth_docs());
    let inputs_seconds = started.elapsed().as_secs_f64();
    let outcome = if trace {
        probes::run(w, &inputs, seconds, &peer_bin).map(|layers| report::traced(w, seeds, layers))
    } else {
        workloads::run(w, &inputs, inputs_seconds, seconds, &peer_bin)
            .map(|e2e| report::end_to_end(w, seeds, e2e))
    };
    let outcome = outcome.and_then(|result| workloads::empty_scratch().map(|()| result));
    match outcome {
        Ok(result) => {
            report::print_table(&result);
            if let Err(e) = report::write_result_file(&result, out) {
                eprintln!("hdk-benchmark: cannot write the result file: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", report::driver_line(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A correctness failure prints no result line.
            let _ = workloads::empty_scratch();
            eprintln!("hdk-benchmark: {}/{}: INCORRECT: {e}", w.name, seeds.replay);
            ExitCode::FAILURE
        }
    }
}
