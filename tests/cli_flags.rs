//! The `fis-one` CLI accepts exactly the flags each command's usage line
//! lists. A misspelled or retired flag must fail loudly (exit 2) instead
//! of being stored and silently ignored.

use std::process::Command;

/// Runs `fis-one` with `args`, returning (exit code, stderr).
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fis-one"))
        .args(args)
        .output()
        .expect("run fis-one");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_are_rejected_with_exit_code_2() {
    for (args, flag) in [
        // A typo of --seed.
        (
            &[
                "fit", "--corpus", "c.jsonl", "--out", "m.json", "--sed", "5",
            ][..],
            "--sed",
        ),
        // The retired f32 switch, last or mid-line.
        (
            &["fit", "--corpus", "c.jsonl", "--out", "m.json", "--f32"],
            "--f32",
        ),
        (
            &["fit", "--corpus", "c.jsonl", "--f32", "--out", "m.json"],
            "--f32",
        ),
        // A real flag of another command.
        (
            &["assign", "--model", "m.json", "--max-bytes", "9"],
            "--max-bytes",
        ),
        // The retired answer-cache size: gone from serve's usage line.
        (
            &["serve", "--models", "DIR", "--assign-cache", "4096"],
            "--assign-cache",
        ),
    ] {
        let command = args[0];
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {command}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn listed_flags_still_reach_the_command() {
    // Every flag here is on fit's usage line, so parsing succeeds and the
    // command itself fails on the missing corpus (exit 1, not 2).
    let (code, stderr) = run(&[
        "fit",
        "--corpus",
        "/nonexistent/corpus.jsonl",
        "--out",
        "m.json",
        "--building",
        "b",
        "--seed",
        "5",
        "--threads",
        "1",
        "--trace",
        "t.jsonl",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("unknown flag"), "{stderr}");
}
