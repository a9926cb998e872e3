//! Golden-file test for the bytecode disassembler: `psgc disasm` must
//! print a byte-stable instruction stream for two battery programs and a
//! generated mid-size let chain.
//!
//! Symbol names in the listing come from a process-global gensym counter,
//! so stability is only guaranteed per process; the test therefore goes
//! through the `psgc` binary (one fresh process per listing), exactly as a
//! user would. To regenerate after an intentional instruction-set change:
//!
//! ```text
//! cargo run --bin psgc -- disasm <program.lam>
//! ```
//!
//! and redirect into `tests/golden/<name>.disasm`.

use std::path::PathBuf;
use std::process::Command;

const PROGRAMS: &[(&str, &str)] = &[
    (
        "factorial",
        "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 9",
    ),
    (
        "gc-stress",
        "fun churn (n : int) : int = if0 n then 0 else \
           (let p = ((n, n), (n, n)) in fst (fst p) - n + churn (n - 1))\n \
         churn 60",
    ),
    // A generated 60-binding straight-line chain: arithmetic, pairs,
    // projections, applied and let-bound `fn`s capturing earlier bindings,
    // and one `if0` whose join continuation carries the rest of the chain.
    // It pins the front end's output — gensym order and closure capture
    // layout — on a program of more than toy size.
    (
        "mid-lets",
        "let x0 = 7 in\n\
         let p0 = (x0, 3) in\n\
         let x1 = x0 * x0 in\n\
         let x2 = (fn (y : int) => y * 8 + x0) x0 in\n\
         let x3 = x0 + x0 in\n\
         let p4 = (x3, x2) in\n\
         let x5 = x1 - x1 in\n\
         let f6 = fn (y : int) => y - x1 + x2 in\n\
         let x7 = x5 - x3 in\n\
         let x8 = (fn (y : int) => y * 6 + x3) x3 in\n\
         let x9 = x2 * x2 in\n\
         let x10 = fst p4 in\n\
         let x11 = x7 - x10 in\n\
         let x12 = x7 + x10 in\n\
         let x13 = x7 - x12 in\n\
         let x14 = x10 + x9 in\n\
         let p15 = (x10, fst p4) in\n\
         let p16 = (x9, snd p15) in\n\
         let f17 = fn (y : int) => y - x11 + x12 in\n\
         let f18 = fn (y : int) => y - x11 + x12 in\n\
         let x19 = fst p0 in\n\
         let x20 = x13 + x13 in\n\
         let x21 = (fn (y : int) => y * 5 + x13) x13 in\n\
         let x22 = x12 - x20 in\n\
         let x23 = fst p0 in\n\
         let x24 = (fn (y : int) => y * 9 + x21) x22 in\n\
         let p25 = (x19, fst p16) in\n\
         let x26 = snd p15 in\n\
         let x27 = (fn (y : int) => y * 3 + x24) x26 in\n\
         let p28 = (x27, x26) in\n\
         let x29 = fst p16 in\n\
         let x30 = x23 * x27 in\n\
         let x31 = if0 x30 - x27 then x23 + 1 else snd p0 in\n\
         let x32 = x31 + x26 in\n\
         let x33 = x27 - x29 in\n\
         let x34 = x27 - x31 in\n\
         let x35 = x29 - x29 in\n\
         let x36 = x34 - x33 in\n\
         let x37 = x32 + x34 in\n\
         let x38 = (fn (y : int) => y * 6 + x33) x32 in\n\
         let p39 = (x35, x33) in\n\
         let f40 = fn (y : int) => y - x37 + x33 in\n\
         let x41 = snd p15 in\n\
         let x42 = (fn (y : int) => y * 5 + x41) x34 in\n\
         let x43 = fst p4 in\n\
         let x44 = x43 + x37 in\n\
         let x45 = snd p16 in\n\
         let x46 = (fn (y : int) => y * 3 + x44) x44 in\n\
         let p47 = (x43, x46) in\n\
         let x48 = snd p47 in\n\
         let x49 = f6 x44 in\n\
         let x50 = f40 x45 in\n\
         let p51 = (x45, snd p28) in\n\
         let x52 = x44 * x46 in\n\
         let p53 = (x50, x52) in\n\
         let x54 = x45 * x50 in\n\
         let p55 = (x54, fst p39) in\n\
         let x56 = f18 x49 in\n\
         let p57 = (x48, snd p53) in\n\
         let x58 = snd p53 in\n\
         let x59 = x49 * x50 in\n\
         let p60 = (x52, x52) in\n\
         x59 + x58 + x56 + x54 + x52 + x50",
    ),
];

fn disasm(src_path: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_psgc"))
        .arg("disasm")
        .arg(src_path)
        .output()
        .expect("psgc runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8(out.stdout).expect("disassembly is UTF-8")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.disasm"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn write_program(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psgc-disasm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("write program");
    path
}

#[test]
fn disassembly_matches_the_golden_files() {
    for (name, src) in PROGRAMS {
        let prog = write_program(&format!("{name}.lam"), src);
        let prog = prog.to_str().unwrap();
        let listing = disasm(prog);
        assert_eq!(
            listing,
            golden(name),
            "{name}: disassembly drifted from tests/golden/{name}.disasm \
             (regenerate with `psgc disasm` if the change is intentional)"
        );
        // A second fresh process must reproduce the listing byte-for-byte.
        assert_eq!(listing, disasm(prog), "{name}: listing not stable");
    }
}
