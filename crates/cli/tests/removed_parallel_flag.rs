//! `--parallel` selected the depth race, which was removed. The flag must
//! fail loudly on every subcommand that compiles or plans, wherever it
//! sits on the command line.

use std::process::Command;

#[test]
fn parallel_flag_is_rejected_by_compile_plan_and_submit() {
    let dir = std::env::temp_dir().join(format!("chipmunkc-parallel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("p.dom");
    std::fs::write(&file, "pkt.a = pkt.b;\n").unwrap();
    let file = file.to_str().unwrap();
    for argv in [
        vec!["compile", file, "--parallel", "--json"],
        vec!["plan", file, "--parallel", "--json"],
        // Last on the line: still a flag, not one missing its value.
        vec!["plan", file, "--json", "--parallel"],
        // Port 9 (discard) is never dialled: the flag is rejected first.
        vec!["submit", file, "--parallel", "--addr", "127.0.0.1:9"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_chipmunkc"))
            .args(&argv)
            .output()
            .expect("chipmunkc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} succeeded");
        assert!(
            stderr.contains("--parallel was removed") && stderr.contains("one depth at a time"),
            "{argv:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed a result");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
