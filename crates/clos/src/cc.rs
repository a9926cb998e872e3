//! Typed closure conversion: CPS'd source programs → λCLOS.
//!
//! Closures become existential packages `∃t.((t × τ) → 0) × t` in the
//! Minamide–Morrisett–Harper style (paper ref. 10) the paper adopts (§3): the
//! environment's type is the hidden witness, the code is a closed top-level
//! function, and application opens the package and passes `(env, arg)`.
//!
//! This is the key departure from Wang–Appel (paper ref. 23), who used Tolmach-style
//! defunctionalization requiring whole-program analysis; packages keep the
//! conversion local, which is what lets the collector be a library (§2.2).
//!
//! Invariants assumed of the input (established by [`crate::cps`]):
//! all applications are tail calls, every intermediate computation is
//! let-bound, and all functions answer `int`.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use ps_ir::symbol::gensym;
use ps_ir::{ScopedMap, Symbol, SymbolSet};

use ps_lambda::syntax::{Expr, SrcProgram, SrcTy};

use crate::syntax::{BinOp, CExp, CFun, CProgram, CTy, CVal};

/// An error raised during closure conversion (only on inputs violating the
/// CPS invariants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcError(pub String);

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "closure conversion error: {}", self.0)
    }
}

impl std::error::Error for CcError {}

type CResult<T> = Result<T, CcError>;

/// The closure-conversion type translation: arrows (which after CPS all
/// answer `int`) become closure packages.
pub fn cc_ty(ty: &SrcTy) -> CTy {
    match ty {
        SrcTy::Int => CTy::Int,
        SrcTy::Prod(a, b) => CTy::prod(cc_ty(a), cc_ty(b)),
        SrcTy::Arrow(dom, _answer) => CTy::closure(cc_ty(dom)),
    }
}

/// The capture list of every lambda of a CPS'd program, keyed by node
/// address: its free variables that are locally bound where it stands
/// (top-level function names are globals, not captured), sorted.
type Captures = HashMap<*const Expr, Vec<Symbol>>;

/// Computes [`Captures`] for a whole program in one pass.
///
/// Every variable occurrence adds its name to the free-variable set of
/// each lambda between it and its binder, innermost first, and stops at
/// the first lambda that already has it: the lambdas further out got it
/// when that one did. Each (lambda, captured name) pair is thus paid for
/// once, and the capture lists are part of the output anyway.
struct FreeVars<'a> {
    top: &'a HashMap<Symbol, SrcTy>,
    /// In-scope locals, mapped to the number of lambdas around their
    /// binder.
    depth: ScopedMap<usize>,
    /// One free-variable set per lambda around the current node,
    /// outermost first.
    frames: Vec<SymbolSet>,
    out: Captures,
}

impl FreeVars<'_> {
    fn program(p: &SrcProgram, top: &HashMap<Symbol, SrcTy>) -> Captures {
        let mut fv = FreeVars {
            top,
            depth: ScopedMap::new(),
            frames: Vec::new(),
            out: Captures::new(),
        };
        for d in &p.defs {
            fv.bound(d.param, &d.body);
        }
        fv.walk(&p.main);
        fv.out
    }

    /// Walks `body` in the scope of a new local `x`.
    fn bound(&mut self, x: Symbol, body: &Expr) {
        let shadowed = self.depth.bind(x, self.frames.len());
        self.walk(body);
        self.depth.restore(shadowed);
    }

    fn walk(&mut self, e: &Expr) {
        match e {
            Expr::Int(_) => {}
            Expr::Var(x) => {
                if let Some(&d) = self.depth.get(x) {
                    for frame in self.frames[d..].iter_mut().rev() {
                        if !frame.insert(*x) {
                            break;
                        }
                    }
                }
            }
            Expr::Bin(_, a, b) | Expr::Pair(a, b) | Expr::App(a, b) => {
                self.walk(a);
                self.walk(b);
            }
            Expr::If0(a, b, c) => {
                self.walk(a);
                self.walk(b);
                self.walk(c);
            }
            Expr::Proj(_, a) => self.walk(a),
            Expr::Lam { param, body, .. } => {
                self.frames.push(SymbolSet::default());
                self.bound(*param, body);
                self.close_frame(e);
            }
            Expr::Let { x, rhs, body } => {
                self.walk(rhs);
                self.bound(*x, body);
            }
        }
    }

    /// Records the capture list of `lam` from the innermost frame.
    fn close_frame(&mut self, lam: &Expr) {
        let frame = self.frames.pop().unwrap_or_default();
        let mut fvs: Vec<Symbol> = frame
            .into_iter()
            .filter(|x| !self.top.contains_key(x))
            .collect();
        fvs.sort();
        self.out.insert(lam as *const Expr, fvs);
    }
}

/// A converted `let` right-hand side, waiting for its converted body.
enum Rhs {
    Prim(BinOp, CVal, CVal),
    Proj(u8, CVal),
    Val(CVal),
}

impl Rhs {
    fn bind(self, x: Symbol, body: CExp) -> CExp {
        match self {
            Rhs::Prim(op, a, b) => CExp::LetPrim {
                x,
                op,
                a,
                b,
                body: Rc::new(body),
            },
            Rhs::Proj(i, v) => CExp::let_proj(x, i, v, body),
            Rhs::Val(v) => CExp::let_(x, v, body),
        }
    }
}

struct Cc<'a> {
    /// Top-level function names of the CPS'd program (globals, not
    /// captured).
    top: &'a HashMap<Symbol, SrcTy>,
    captures: Captures,
    /// In-scope variables with both their source and converted types,
    /// extended and restored per binder.
    env: ScopedMap<(SrcTy, CTy)>,
    /// Lifted code blocks.
    lifted: Vec<CFun>,
}

impl<'a> Cc<'a> {
    /// The converted type of the in-scope variable `x`.
    fn var_cty(&self, x: Symbol) -> CResult<CTy> {
        self.env
            .get(&x)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| CcError(format!("unbound variable {x}")))
    }

    /// Builds the environment tuple value and its type for a capture list.
    fn env_tuple(&self, fvs: &[Symbol]) -> CResult<(CVal, CTy)> {
        let Some((&last, init)) = fvs.split_last() else {
            return Ok((CVal::Int(0), CTy::Int));
        };
        let mut val = CVal::Var(last);
        let mut cty = self.var_cty(last)?;
        for &x in init.iter().rev() {
            val = CVal::pair(CVal::Var(x), val);
            cty = CTy::prod(self.var_cty(x)?, cty);
        }
        Ok((val, cty))
    }

    /// Converts `body` in the scope of a new variable `x`. Inlined so that
    /// the recursion along a `let` spine costs one `tail` frame per
    /// binding, not two.
    #[inline(always)]
    fn tail_bound(&mut self, x: Symbol, tys: (SrcTy, CTy), body: &Expr) -> CResult<CExp> {
        let shadowed = self.env.bind(x, tys);
        let out = self.tail(body);
        self.env.restore(shadowed);
        out
    }

    /// Converts a *value* expression (the CPS invariant guarantees these
    /// are the only expressions in value positions).
    fn value(&mut self, e: &Expr) -> CResult<CVal> {
        match e {
            Expr::Int(n) => Ok(CVal::Int(*n)),
            Expr::Var(x) => {
                if self.env.contains(x) {
                    Ok(CVal::Var(*x))
                } else if let Some(fty) = self.top.get(x) {
                    // A reference to a top-level function becomes a closure
                    // with a dummy (integer) environment.
                    let dom = match fty {
                        SrcTy::Arrow(d, _) => cc_ty(d),
                        other => {
                            return Err(CcError(format!(
                                "top-level {x} has non-function type {other}"
                            )))
                        }
                    };
                    let t = gensym("tenv");
                    Ok(CVal::Pack {
                        tvar: t,
                        witness: CTy::Int,
                        val: Rc::new(CVal::pair(CVal::FnName(*x), CVal::Int(0))),
                        body_ty: CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), dom)), CTy::Var(t)),
                    })
                } else {
                    Err(CcError(format!("unbound variable {x}")))
                }
            }
            Expr::Pair(a, b) => Ok(CVal::pair(self.value(a)?, self.value(b)?)),
            Expr::Lam {
                param,
                param_ty,
                body,
            } => self.lambda(e, *param, param_ty, body),
            other => Err(CcError(format!(
                "expression {other:?} in value position violates the CPS invariant"
            ))),
        }
    }

    /// Converts the lambda `lam` into a lifted code block and returns the
    /// closure package that pairs it with its environment tuple.
    fn lambda(
        &mut self,
        lam: &Expr,
        param: Symbol,
        param_ty: &SrcTy,
        body: &Expr,
    ) -> CResult<CVal> {
        let fvs = self
            .captures
            .get(&(lam as *const Expr))
            .cloned()
            .ok_or_else(|| CcError("lambda missed by the free-variable pass".to_string()))?;
        let (env_val, env_cty) = self.env_tuple(&fvs)?;
        // The lifted code block.
        let code_name = gensym("code");
        let p = gensym("cp");
        let envv = gensym("cenv");
        // Inner scope: captured variables + the parameter.
        let param_tys = (param_ty.clone(), cc_ty(param_ty));
        let inner = fvs
            .iter()
            .filter_map(|x| Some((*x, self.env.get(x)?.clone())))
            .chain([(param, param_tys)])
            .collect();
        let outer_env = std::mem::replace(&mut self.env, inner);
        let body_exp = self.tail(body);
        self.env = outer_env;
        let mut body_exp = body_exp?;
        // Destructure the environment tuple (right-nested pairs):
        // record the binding chain forwards, then wrap the body
        // innermost-last so each `rest` is in scope for the next.
        enum Bind {
            Split {
                x: Symbol,
                cur: Symbol,
                rest: Symbol,
            },
            Last {
                x: Symbol,
                cur: Symbol,
            },
        }
        if !fvs.is_empty() {
            let mut cur = envv;
            let mut chain = Vec::with_capacity(fvs.len());
            for (i, x) in fvs.iter().enumerate() {
                if i + 1 == fvs.len() {
                    chain.push(Bind::Last { x: *x, cur });
                } else {
                    let rest = gensym("cenv");
                    chain.push(Bind::Split { x: *x, cur, rest });
                    cur = rest;
                }
            }
            for b in chain.into_iter().rev() {
                body_exp = match b {
                    Bind::Last { x, cur } => CExp::let_(x, CVal::Var(cur), body_exp),
                    Bind::Split { x, cur, rest } => CExp::let_proj(
                        x,
                        1,
                        CVal::Var(cur),
                        CExp::let_proj(rest, 2, CVal::Var(cur), body_exp),
                    ),
                };
            }
        }
        let code_body = CExp::let_proj(
            envv,
            1,
            CVal::Var(p),
            CExp::let_proj(param, 2, CVal::Var(p), body_exp),
        );
        self.lifted.push(CFun {
            name: code_name,
            param: p,
            param_ty: CTy::prod(env_cty.clone(), cc_ty(param_ty)),
            body: code_body,
        });
        let t = gensym("tenv");
        Ok(CVal::Pack {
            tvar: t,
            witness: env_cty,
            val: Rc::new(CVal::pair(CVal::FnName(code_name), env_val)),
            body_ty: CTy::prod(
                CTy::arrow(CTy::prod(CTy::Var(t), cc_ty(param_ty))),
                CTy::Var(t),
            ),
        })
    }

    /// Converts a tail expression.
    fn tail(&mut self, e: &Expr) -> CResult<CExp> {
        match e {
            Expr::Let { x, rhs, body } => {
                let (rhs, tys) = self.rhs(rhs)?;
                let body = self.tail_bound(*x, tys, body)?;
                Ok(rhs.bind(*x, body))
            }
            Expr::App(f, a) => self.call(f, a),
            Expr::If0(c, t, f) => {
                let cv = self.value(c)?;
                Ok(CExp::If0 {
                    v: cv,
                    zero: Rc::new(self.tail(t)?),
                    nonzero: Rc::new(self.tail(f)?),
                })
            }
            // A plain value in tail position is the program's answer.
            Expr::Int(_) | Expr::Var(_) => {
                let v = self.value(e)?;
                Ok(CExp::Halt(v))
            }
            other => Err(CcError(format!(
                "expression {other:?} in tail position violates the CPS invariant"
            ))),
        }
    }

    /// Converts a `let` right-hand side (one of the CPS-value forms or a
    /// primitive) and gives its binder's source and converted types. Kept
    /// apart from `tail`, like [`Cc::call`], so that `tail`'s frame, which
    /// recurses along the `let` spine, stays small.
    fn rhs(&mut self, rhs: &Expr) -> CResult<(Rhs, (SrcTy, CTy))> {
        match rhs {
            Expr::Bin(op, a, b) => {
                let av = self.value(a)?;
                let bv = self.value(b)?;
                Ok((Rhs::Prim(*op, av, bv), (SrcTy::Int, CTy::Int)))
            }
            Expr::Proj(i, a) => {
                let av = self.value(a)?;
                let comp = match self.src_ty_of(a)? {
                    SrcTy::Prod(p, q) => {
                        if *i == 1 {
                            (*p).clone()
                        } else {
                            (*q).clone()
                        }
                    }
                    other => return Err(CcError(format!("projection of non-pair type {other}"))),
                };
                let cty = cc_ty(&comp);
                Ok((Rhs::Proj(*i, av), (comp, cty)))
            }
            value_form => {
                let v = self.value(value_form)?;
                let src_ty = self.src_ty_of(value_form)?;
                let cty = cc_ty(&src_ty);
                Ok((Rhs::Val(v), (src_ty, cty)))
            }
        }
    }

    /// Converts the tail call `f a`.
    fn call(&mut self, f: &Expr, a: &Expr) -> CResult<CExp> {
        let fv = self.value(f)?;
        let av = self.value(a)?;
        let pkg = gensym("clo");
        let pay = gensym("cpair");
        let code = gensym("cptr");
        let cenv = gensym("cenv");
        let arg = gensym("carg");
        let tv = gensym("topen");
        // let clo = fv in open clo as ⟨t, p⟩ in
        //   let code = π1 p in let env = π2 p in
        //   let arg = (env, av) in code(arg)
        Ok(CExp::let_(
            pkg,
            fv,
            CExp::Open {
                pkg: CVal::Var(pkg),
                tvar: tv,
                x: pay,
                body: Rc::new(CExp::let_proj(
                    code,
                    1,
                    CVal::Var(pay),
                    CExp::let_proj(
                        cenv,
                        2,
                        CVal::Var(pay),
                        CExp::let_(
                            arg,
                            CVal::pair(CVal::Var(cenv), av),
                            CExp::App(CVal::Var(code), CVal::Var(arg)),
                        ),
                    ),
                )),
            },
        ))
    }

    /// The source type of a CPS-value expression.
    fn src_ty_of(&self, e: &Expr) -> CResult<SrcTy> {
        match e {
            Expr::Int(_) => Ok(SrcTy::Int),
            Expr::Var(x) => self
                .env
                .get(x)
                .map(|(s, _)| s.clone())
                .or_else(|| self.top.get(x).cloned())
                .ok_or_else(|| CcError(format!("unbound variable {x}"))),
            Expr::Pair(a, b) => Ok(SrcTy::prod(self.src_ty_of(a)?, self.src_ty_of(b)?)),
            // CPS'd lambdas always answer int.
            Expr::Lam { param_ty, .. } => Ok(SrcTy::arrow(param_ty.clone(), SrcTy::Int)),
            other => Err(CcError(format!("no source type for non-value {other:?}"))),
        }
    }
}

/// Closure-converts a CPS'd program into λCLOS.
///
/// Linear in the size of its output: capture lists come from one
/// free-variable pass and the environment is scoped, not cloned per
/// binder.
///
/// # Errors
///
/// Fails if the input violates the CPS invariants (see module docs).
pub fn cc_program(p: &SrcProgram) -> CResult<CProgram> {
    let top: HashMap<Symbol, SrcTy> = p.defs.iter().map(|d| (d.name, d.ty())).collect();
    let mut cc = Cc {
        top: &top,
        captures: FreeVars::program(p, &top),
        env: ScopedMap::new(),
        lifted: Vec::new(),
    };
    let mut funs = Vec::new();
    for d in &p.defs {
        // Uniform calling convention: every top-level function takes
        // (dummy-env × converted-parameter).
        let pf = gensym("fp");
        let tys = (d.param_ty.clone(), cc_ty(&d.param_ty));
        let body = cc.tail_bound(d.param, tys, &d.body)?;
        funs.push(CFun {
            name: d.name,
            param: pf,
            param_ty: CTy::prod(CTy::Int, cc_ty(&d.param_ty)),
            body: CExp::let_proj(d.param, 2, CVal::Var(pf), body),
        });
    }
    let main = cc.tail(&p.main)?;
    funs.extend(cc.lifted);
    Ok(CProgram { funs, main })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::cps_program;
    use crate::eval;
    use crate::tyck;
    use ps_lambda::parse::parse_program;

    /// Full front-end: parse → typecheck → CPS → closure-convert →
    /// typecheck λCLOS → run, comparing with the source evaluator.
    fn pipeline(src: &str) -> i64 {
        let p = parse_program(src).unwrap();
        ps_lambda::typecheck::check_program(&p).unwrap();
        let expected = ps_lambda::eval::run_program(&p, 1_000_000).unwrap();
        let cps = cps_program(&p).unwrap();
        let clos = cc_program(&cps).unwrap();
        tyck::check_program(&clos)
            .unwrap_or_else(|e| panic!("λCLOS output ill-typed for {src}: {e}"));
        let got = eval::run_program(&clos, 10_000_000).unwrap();
        assert_eq!(
            got, expected,
            "closure conversion changed the result of {src}"
        );
        got
    }

    #[test]
    fn arithmetic() {
        assert_eq!(pipeline("1 + 2 * 3"), 7);
    }

    #[test]
    fn pairs_and_projections() {
        assert_eq!(pipeline("fst (1, 2) + snd (3, 4)"), 5);
        assert_eq!(pipeline("snd (fst ((1, 2), 3))"), 2);
    }

    #[test]
    fn conditionals() {
        assert_eq!(pipeline("if0 0 then 10 else 20"), 10);
        assert_eq!(pipeline("if0 7 then 10 else 20"), 20);
    }

    #[test]
    fn closures_capture_environment() {
        assert_eq!(pipeline("let y = 10 in (fn (x : int) => x + y) 5"), 15);
        assert_eq!(
            pipeline("let a = 1 in let b = 2 in let c = 3 in (fn (x : int) => a + b + c + x) 4"),
            10
        );
    }

    #[test]
    fn top_level_recursion() {
        assert_eq!(
            pipeline("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 6"),
            720
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            pipeline(
                "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
                 fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
                 even 8"
            ),
            1
        );
    }

    #[test]
    fn higher_order_and_currying() {
        assert_eq!(
            pipeline(
                "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
                 (twice (fn (y : int) => y * 2)) 5"
            ),
            20
        );
    }

    #[test]
    fn functions_stored_in_pairs() {
        assert_eq!(
            pipeline(
                "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n\
                 applyp ((fn (x : int) => x + 1), 41)"
            ),
            42
        );
    }

    #[test]
    fn heap_heavy_list_as_pairs() {
        // Build a 20-element list of pairs and sum it: exercises data
        // structures through the converted existential machinery.
        assert_eq!(
            pipeline(
                "fun build (n : int) : int * int = if0 n then (0, 0) else \
                   (let rest = build (n - 1) in (n + fst rest, n))\n\
                 fst (build 20)"
            ),
            210
        );
    }

    #[test]
    fn closure_over_closure() {
        assert_eq!(
            pipeline("let add = fn (x : int) => fn (y : int) => x + y in (add 30) 12"),
            42
        );
    }

    #[test]
    fn shadowed_and_reused_names() {
        assert_eq!(
            pipeline("let x = 5 in let y = (let x = 3 in x) in x + y"),
            8
        );
        assert_eq!(
            pipeline("let x = 1 in let f = fn (x : int) => x * 10 in f 2 + x"),
            21
        );
        assert_eq!(
            pipeline("let a = 1 in let f = fn (y : int) => (let a = y in a) + a in f 5"),
            6
        );
    }

    #[test]
    fn cc_ty_shapes() {
        // ⟦int → int⟧ after CPS is ((int × (int→int))→int); converted, the
        // outermost becomes a closure package.
        let t = crate::cps::cps_ty(&SrcTy::arrow(SrcTy::Int, SrcTy::Int));
        match cc_ty(&t) {
            CTy::Exist(..) => {}
            other => panic!("expected closure package, got {other}"),
        }
    }

    #[test]
    fn value_invariant_violation_reported() {
        let mut cc = Cc {
            top: &HashMap::new(),
            captures: Captures::new(),
            env: ScopedMap::new(),
            lifted: Vec::new(),
        };
        let bad = Expr::If0(
            Rc::new(Expr::Int(0)),
            Rc::new(Expr::Int(1)),
            Rc::new(Expr::Int(2)),
        );
        assert!(cc.value(&bad).is_err());
    }
}
