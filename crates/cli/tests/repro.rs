//! `iosched repro` end to end: the listing names every target with its
//! default count, and a bad target or `--runs` value exits 1 with an
//! `error: …` line and prints no table.

use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_iosched");

fn repro(args: &[&str]) -> Output {
    Command::new(EXE)
        .arg("repro")
        .args(args)
        .output()
        .expect("iosched runs")
}

#[test]
fn listing_names_every_target_with_its_default() {
    let out = repro(&[]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let expected = [
        ("fig01", "400"),
        ("fig02", "-"),
        ("fig03", "-"),
        ("fig04", "-"),
        ("fig05", "20000"),
        ("fig06", "200"),
        ("fig07", "50"),
        ("fig08", "56"),
        ("fig09", "56"),
        ("fig10", "56"),
        ("fig11", "11"),
        ("fig12", "11"),
        ("fig13", "11"),
        ("fig14", "-"),
        ("fig15", "-"),
        ("fig16", "-"),
        ("table1", "56"),
        ("table2", "11"),
        ("ablation_gamma", "12"),
        ("ablation_epsilon", "-"),
        ("ablation_bb_capacity", "8"),
    ];
    for (name, default) in expected {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"));
        assert_eq!(
            row.split_whitespace().nth(1),
            Some(default),
            "{name}: {row}"
        );
    }
}

#[test]
fn bad_targets_and_counts_exit_1_without_a_table() {
    for (args, why) in [
        (&["fig99"][..], "unknown target 'fig99'"),
        (&["fig06", "--runs", "0"], "bad --runs value '0'"),
        (&["fig06", "--runs", "x"], "bad --runs value 'x'"),
        (&["fig02", "--runs", "2"], "fig02 is a fixed experiment"),
        (
            &["fig01", "--runs", "9007199254740992"],
            "fig01 takes --runs up to 40000, got 9007199254740992",
        ),
        (&["all", "--runs", "2"], "--runs sizes one target"),
        (&["--runs", "2"], "--runs sizes one target"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("error: {why}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("\n== "), "{args:?} rendered a table");
    }
}

#[test]
fn runs_resizes_a_sized_target() {
    let out = repro(&["fig05", "--runs", "3"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with("\n== Fig. 5 — synthetic year of 3 jobs"),
        "{text}"
    );
}
