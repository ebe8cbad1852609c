//! `table1_matrix` prints, for each preset, exactly the compliance gaps in
//! `table1_gaps.txt`: every article for `unmodified`, and for `eventual`
//! and `strict` the four articles that need encryption, which stops at
//! rest. CI compares the binary's output with the same file.

use std::process::Command;

#[test]
fn table1_prints_exactly_the_expected_gaps() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_matrix"))
        .output()
        .expect("run table1_matrix");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let gaps: Vec<&str> = stdout
        .lines()
        .filter(|line| {
            ["Compliance assessment", "compliance gaps", "  Art. "]
                .iter()
                .any(|prefix| line.starts_with(prefix))
        })
        .collect();
    let want: Vec<&str> = include_str!("table1_gaps.txt").lines().collect();
    assert_eq!(gaps, want);
}
