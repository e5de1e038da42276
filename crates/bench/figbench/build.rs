//! Makes perfbench's event-queue hold model callable from this crate.
//!
//! `perfbench` is a binary, so its hold model cannot be imported. The
//! build script copies its source into `OUT_DIR` without the inner doc
//! comments (which `include!` rejects), and `src/replay.rs` includes it
//! as a module: the event-queue replay runs perfbench's own code.

use std::path::PathBuf;

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let src = manifest.join("../src/bin/perfbench.rs");
    println!("cargo:rerun-if-changed={}", src.display());
    let text = std::fs::read_to_string(&src)
        .unwrap_or_else(|e| panic!("figbench needs {}: {e}", src.display()));
    let body: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//!"))
        .flat_map(|l| [l, "\n"])
        .collect();
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("cargo sets OUT_DIR"));
    std::fs::write(out.join("perfbench.rs"), body).expect("write OUT_DIR/perfbench.rs");
}
