//! Records provenance for the host block: the rustc that built the
//! benchmark and, when the benchmark is built inside a git checkout, the
//! revision.

use std::path::Path;
use std::process::Command;

fn output_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version =
        output_of(&rustc, &["--version"], &root).unwrap_or_else(|| "unknown".into());
    // Only ask git when the repository root itself is a checkout, so a
    // source tree unpacked inside some other repository reports
    // "unknown" instead of that repository's revision.
    let git = root.join(".git");
    let revision = if git.exists() {
        output_of("git", &["rev-parse", "--short=12", "HEAD"], &root)
    } else {
        None
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        revision.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rerun-if-changed=build.rs");
    for head in [git.join("HEAD"), git.join("index")] {
        if head.exists() {
            println!("cargo:rerun-if-changed={}", head.display());
        }
    }
}
