//! The `hdk-bench` command line: `--help` lists every subcommand, an
//! argument the binary cannot use is refused with exit code 2 — never
//! replaced by a default, never a panic — before any work, and a broken
//! contract bound exits 1 after the whole run.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 13] = [
    "experiments",
    "table1",
    "table2",
    "fig8",
    "theory",
    "ablate_dfmax",
    "ablate_window",
    "ablate_redundancy",
    "memfoot",
    "latency_sweep",
    "availability",
    "read_scaling",
    "gossip_study",
];

fn hdk_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdk-bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        // `memfoot` judges different bounds on a budgeted store.
        .env_remove("HDK_STORE")
        .output()
        .expect("hdk-bench runs")
}

#[test]
fn help_names_every_subcommand() {
    let out = hdk_bench(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for name in SUBCOMMANDS {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "--help does not list {name}:\n{text}"
        );
    }
}

#[test]
fn unusable_arguments_exit_2_with_usage() {
    for args in [
        &["no_such_study"][..],
        // No such subcommand: the serving and restart contracts are
        // integration tests of the root package.
        &["serving_study"],
        &["restart_study"],
        &["availability", "8", "24O"],
        &["availability", "8", "240", "24", "1", "5"],
        &["table1", "--seed", "x"],
        &["read_scaling", "--fast"],
        &[],
    ] {
        let out = hdk_bench(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: hdk-bench"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work before refusing");
    }
}

#[test]
fn a_broken_memfoot_bound_exits_1_after_every_point() {
    // Two one-document peers: the store tables' fixed cost spread over a
    // hundred keys breaks the bytes-per-key bound at both `DFmax` points.
    let out = hdk_bench(&[
        "memfoot",
        "--peers",
        "2",
        "--docs-per-peer",
        "1",
        "--queries",
        "0",
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("usage: hdk-bench"), "{stderr}");
    for dfmax in [30, 40] {
        let named = format!("bound broken at peers=2 dfmax={dfmax}: index memory regression");
        assert!(stderr.contains(&named), "{stderr}");
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("index_total").count(), 2, "{stdout}");
}
