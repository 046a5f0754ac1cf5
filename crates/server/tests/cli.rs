//! End-to-end tests of the `repro` command-line interface.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_prints_usage() {
    let out = repro().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"));
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = repro().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flag_fails() {
    let out = repro().arg("--bogus").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn unknown_experiment_fails() {
    let out = repro().args(["--quick", "fig99"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn config_subcommand_prints_table_1() {
    let out = repro().arg("config").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8-way issue"));
    assert!(text.contains("6 int ALUs"));
    assert!(text.contains("100-cycle latency"));
}

#[test]
fn quick_workload_stats_writes_all_formats() {
    let dir = std::env::temp_dir().join(format!("dcg_cli_test_{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--svg", "--json", "--chart", "--out"])
        .arg(&dir)
        .arg("workload-stats")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("workload-stats"));
    for ext in ["csv", "svg", "json"] {
        let path = dir.join(format!("workload-stats.{ext}"));
        assert!(path.exists(), "missing {}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_flag_requires_a_directory() {
    let out = repro().arg("--out").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out requires"));
}

#[test]
fn seeds_flag_validates() {
    let out = repro()
        .args(["--seeds", "0", "fig10"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds requires"));

    let out = repro().args(["--seeds"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn multi_seed_quick_run_averages() {
    let dir = std::env::temp_dir().join(format!("dcg_cli_seeds_{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--seeds", "2", "--out"])
        .arg(&dir)
        .arg("utilization")
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("averaged over 2 runs"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_study_runs_quick_and_is_listed_in_help() {
    let help = repro().arg("--help").output().expect("spawn");
    let help = String::from_utf8_lossy(&help.stdout);
    let ids: Vec<&str> = dcg_experiments::STUDIES.iter().map(|(id, _)| *id).collect();
    for id in &ids {
        assert!(help.contains(id), "--help does not list {id}");
    }

    let dir = std::env::temp_dir().join(format!("dcg_cli_studies_{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--out"])
        .arg(&dir)
        .args(&ids)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for id in &ids {
        let path = dir.join(format!("{id}.csv"));
        assert!(path.exists(), "missing {}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_takes_the_daemon_flags() {
    // `repro serve` and `dcg-server` share one entry and one flag set.
    let dir = std::env::temp_dir().join(format!("dcg_cli_serve_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = repro()
        .args(["serve", "--state"])
        .arg(&dir)
        .args([
            "--workers",
            "1",
            "--queue",
            "4",
            "--retries",
            "2",
            "--drain",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("backlog drained"));

    let out = repro()
        .args(["serve", "--queue", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue requires a positive integer"));
    std::fs::remove_dir_all(&dir).ok();
}
