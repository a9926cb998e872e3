//! The front end stays linear in program size.
//!
//! Parse, source typecheck, CPS conversion, the CPS re-check, closure
//! conversion and the λCLOS check are timed on programs of `N` and `4N`
//! bindings. A linear front end takes about 4× as long on the larger
//! program, a quadratic one about 16×; the test asserts under 8×. Each
//! size is timed best-of-3 so that one slow burst of the machine cannot
//! fail it.
//!
//! The passes recurse along the `let` spine, so the programs are compiled
//! on a thread with an explicit large stack (an unoptimized build's frames
//! are several times larger than a release build's).

use std::time::{Duration, Instant};

/// Bindings of the smaller program of each pair.
const N: usize = 200;

/// A straight-line chain of `n` bindings cycling through arithmetic,
/// pairs, projections and applied `fn`s, each reading recent bindings.
fn let_chain(n: usize) -> String {
    let mut s = String::from("let x0 = 3 in\nlet p0 = (x0, 4) in\n");
    let (mut last_int, mut last_pair) = (0, 0);
    for i in 1..=n {
        match i % 5 {
            0 | 1 => s.push_str(&format!("let x{i} = x{last_int} + {i} in\n")),
            2 => {
                s.push_str(&format!("let p{i} = (x{last_int}, {i}) in\n"));
                last_pair = i;
                continue;
            }
            3 => s.push_str(&format!("let x{i} = fst p{last_pair} in\n")),
            _ => s.push_str(&format!(
                "let x{i} = (fn (y : int) => y * 2 + x{last_int}) x{last_int} in\n"
            )),
        }
        last_int = i;
    }
    s.push_str(&format!("x{last_int}\n"));
    s
}

/// `let a1 = a0 + 1 in if0 a1 then 0 else let a2 = … in …`: every `if0`
/// nests the rest of the chain in its else branch.
fn if0_chain(n: usize) -> String {
    let mut s = String::from("let a0 = 1 in\n");
    for i in 1..=n {
        s.push_str(&format!(
            "let a{i} = a{p} + 1 in if0 a{i} then 0 else\n",
            p = i - 1
        ));
    }
    s.push_str(&format!("a{n}\n"));
    s
}

/// Every pass from source text to a checked λCLOS program.
fn front_end(src: &str) {
    let p = ps_lambda::parse::parse_program(src).expect("parse");
    ps_lambda::typecheck::check_program(&p).expect("typecheck");
    let cps = ps_clos::cps::cps_program(&p).expect("cps");
    ps_lambda::typecheck::check_program(&cps).expect("cps re-check");
    let clos = ps_clos::cc::cc_program(&cps).expect("closure conversion");
    ps_clos::tyck::check_program(&clos).expect("λCLOS check");
}

fn best_of_3(src: &str) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            front_end(src);
            t.elapsed()
        })
        .min()
        .unwrap_or_default()
}

#[test]
fn front_end_time_grows_linearly_with_program_size() {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            for (name, gen) in [
                ("let chain", let_chain as fn(usize) -> String),
                ("let…if0 chain", if0_chain),
            ] {
                let (small, large) = (gen(N), gen(4 * N));
                let t1 = best_of_3(&small);
                let t4 = best_of_3(&large);
                let ratio = t4.as_secs_f64() / t1.as_secs_f64();
                assert!(
                    ratio < 8.0,
                    "{name}: {} bindings took {t4:?}, {N} took {t1:?}: \
                     ratio {ratio:.1} (linear ≈ 4, quadratic ≈ 16)",
                    4 * N
                );
            }
        })
        .expect("spawn the compile thread")
        .join()
        .expect("front end scales linearly");
}
