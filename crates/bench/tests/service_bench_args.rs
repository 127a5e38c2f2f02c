//! `service_bench` refuses a malformed command line instead of silently
//! running something else: a typo in a CI smoke value must fail the step.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_service_bench"))
        .args(args)
        .output()
        .expect("spawn service_bench")
}

#[test]
fn bad_arguments_print_the_usage_and_exit_non_zero() {
    for args in [
        &["--conn-smoke", "lots"][..],
        &["--conn-smoke"],
        &["--out"],
        &["--out", "--quick"],
        &["--metrics-out"],
        &["--quikc"],
    ] {
        let output = run(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains("usage: service_bench"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} ran a bench");
    }
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    let output = run(&["--help"]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("usage: service_bench"));
}
