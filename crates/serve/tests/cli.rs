//! The `matex-serve` binary's argument handling: a flag it does not know
//! exits 2 with a message naming it, before any socket is bound.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_matex-serve"))
        .args(args)
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_exit_2_and_are_named() {
    for (args, named) in [
        (&["serve", "--no-such-flag", "2"][..], "--no-such-flag"),
        (&["serve", "--threads", "2", "--bogus"][..], "--bogus"),
        (&["load", "--frames", "json"][..], "--frames"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_subcommand_or_address_exits_2() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["load", "--clients", "2"][..],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
    }
}
