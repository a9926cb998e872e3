//! Typechecker for λCLOS.
//!
//! Environments: `Θ` for existential type variables, `Γ` for value
//! variables, plus the `letrec` function signatures. Types compare up to
//! α-equivalence.

use std::collections::{HashMap, HashSet};
use std::fmt;

use ps_ir::Symbol;

use crate::syntax::{cty_alpha_eq, CExp, CProgram, CTy, CVal};

/// A λCLOS type error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosTypeError(pub String);

impl fmt::Display for ClosTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λCLOS type error: {}", self.0)
    }
}

impl std::error::Error for ClosTypeError {}

type TResult<T> = Result<T, ClosTypeError>;

/// The checking context.
#[derive(Clone, Debug, Default)]
pub struct ClosCtx {
    /// Function signatures (the `letrec` environment).
    pub funs: HashMap<Symbol, CTy>,
    /// Type variables in scope.
    pub theta: HashSet<Symbol>,
    /// Value variables.
    pub gamma: HashMap<Symbol, CTy>,
}

/// Checks that `ty`'s type variables are in scope: in `theta`, or bound
/// by an enclosing `∃` of `ty` itself or by the caller (`bound`).
fn wf(theta: &HashSet<Symbol>, bound: &mut Vec<Symbol>, ty: &CTy) -> TResult<()> {
    match ty {
        CTy::Int => Ok(()),
        CTy::Var(t) => {
            if bound.contains(t) || theta.contains(t) {
                Ok(())
            } else {
                Err(ClosTypeError(format!("unbound type variable {t}")))
            }
        }
        CTy::Prod(a, b) => {
            wf(theta, bound, a)?;
            wf(theta, bound, b)
        }
        CTy::Arrow(a) => wf(theta, bound, a),
        CTy::Exist(t, body) => {
            bound.push(*t);
            let r = wf(theta, bound, body);
            bound.pop();
            r
        }
    }
}

/// The parts of a context a value's type depends on, borrowed.
#[derive(Clone, Copy)]
struct Scope<'a> {
    funs: &'a HashMap<Symbol, CTy>,
    theta: &'a HashSet<Symbol>,
    gamma: &'a HashMap<Symbol, CTy>,
}

impl Scope<'_> {
    fn infer(self, v: &CVal) -> TResult<CTy> {
        match v {
            CVal::Int(_) => Ok(CTy::Int),
            CVal::Var(x) => self
                .gamma
                .get(x)
                .cloned()
                .ok_or_else(|| ClosTypeError(format!("unbound variable {x}"))),
            CVal::FnName(f) => self
                .funs
                .get(f)
                .cloned()
                .ok_or_else(|| ClosTypeError(format!("unknown function {f}"))),
            CVal::Pair(a, b) => Ok(CTy::prod(self.infer(a)?, self.infer(b)?)),
            CVal::Pack {
                tvar,
                witness,
                val,
                body_ty,
            } => {
                wf(self.theta, &mut Vec::new(), witness)?;
                wf(self.theta, &mut vec![*tvar], body_ty)?;
                let expected = body_ty.subst(*tvar, witness);
                let got = self.infer(val)?;
                if !cty_alpha_eq(&got, &expected) {
                    return Err(ClosTypeError(format!(
                        "package payload has type {got}, expected {expected}"
                    )));
                }
                Ok(CTy::exist(*tvar, body_ty.clone()))
            }
        }
    }
}

/// Infers the type of a value.
///
/// # Errors
///
/// Fails on unbound variables and ill-typed packages.
pub fn infer_val(ctx: &ClosCtx, v: &CVal) -> TResult<CTy> {
    Scope {
        funs: &ctx.funs,
        theta: &ctx.theta,
        gamma: &ctx.gamma,
    }
    .infer(v)
}

/// The term checker: borrows the `letrec` signatures and extends and
/// restores `Θ` and `Γ` per binder, so a check is linear in term size.
struct Checker<'a> {
    funs: &'a HashMap<Symbol, CTy>,
    theta: HashSet<Symbol>,
    gamma: HashMap<Symbol, CTy>,
}

impl Checker<'_> {
    fn infer(&self, v: &CVal) -> TResult<CTy> {
        Scope {
            funs: self.funs,
            theta: &self.theta,
            gamma: &self.gamma,
        }
        .infer(v)
    }

    /// Checks `body` with `x : t` in `Γ`.
    fn bound(&mut self, x: Symbol, t: CTy, body: &CExp) -> TResult<()> {
        let shadowed = self.gamma.insert(x, t);
        let r = self.exp(body);
        match shadowed {
            Some(t) => self.gamma.insert(x, t),
            None => self.gamma.remove(&x),
        };
        r
    }

    fn exp(&mut self, e: &CExp) -> TResult<()> {
        match e {
            CExp::Let { x, v, body } => {
                let t = self.infer(v)?;
                self.bound(*x, t, body)
            }
            CExp::LetProj { x, i, v, body } => match self.infer(v)? {
                CTy::Prod(a, b) => {
                    let t = if *i == 1 { (*a).clone() } else { (*b).clone() };
                    self.bound(*x, t, body)
                }
                other => Err(ClosTypeError(format!(
                    "projection of non-pair type {other}"
                ))),
            },
            CExp::LetPrim { x, a, b, body, .. } => {
                for (what, v) in [("left", a), ("right", b)] {
                    match self.infer(v)? {
                        CTy::Int => {}
                        other => {
                            return Err(ClosTypeError(format!(
                                "{what} operand of primitive has type {other}, expected Int"
                            )))
                        }
                    }
                }
                self.bound(*x, CTy::Int, body)
            }
            CExp::App(f, a) => match self.infer(f)? {
                CTy::Arrow(dom) => {
                    let at = self.infer(a)?;
                    if cty_alpha_eq(&at, &dom) {
                        Ok(())
                    } else {
                        Err(ClosTypeError(format!(
                            "argument has type {at}, function expects {dom}"
                        )))
                    }
                }
                other => Err(ClosTypeError(format!(
                    "application of non-function type {other}"
                ))),
            },
            CExp::Open { pkg, tvar, x, body } => match self.infer(pkg)? {
                CTy::Exist(t0, bty) => {
                    if !self.theta.insert(*tvar) {
                        return Err(ClosTypeError(format!("open shadows type variable {tvar}")));
                    }
                    let r = self.bound(*x, bty.subst(t0, &CTy::Var(*tvar)), body);
                    self.theta.remove(tvar);
                    r
                }
                other => Err(ClosTypeError(format!(
                    "open of non-existential type {other}"
                ))),
            },
            CExp::Halt(v) => match self.infer(v)? {
                CTy::Int => Ok(()),
                other => Err(ClosTypeError(format!("halt on type {other}, expected Int"))),
            },
            CExp::If0 { v, zero, nonzero } => {
                match self.infer(v)? {
                    CTy::Int => {}
                    other => {
                        return Err(ClosTypeError(format!(
                            "if0 condition has type {other}, expected Int"
                        )))
                    }
                }
                self.exp(zero)?;
                self.exp(nonzero)
            }
        }
    }
}

/// Checks a term.
///
/// # Errors
///
/// Fails on the first rule violation, with a short description.
pub fn check_exp(ctx: &ClosCtx, e: &CExp) -> TResult<()> {
    Checker {
        funs: &ctx.funs,
        theta: ctx.theta.clone(),
        gamma: ctx.gamma.clone(),
    }
    .exp(e)
}

/// Checks a whole program: each function body under its parameter (code is
/// closed — only the `letrec` names and the parameter are in scope), then
/// the main term.
///
/// # Errors
///
/// Fails on the first ill-typed definition or term.
pub fn check_program(p: &CProgram) -> TResult<()> {
    let mut funs = HashMap::new();
    for f in &p.funs {
        if funs.insert(f.name, f.ty()).is_some() {
            return Err(ClosTypeError(format!("duplicate function {}", f.name)));
        }
    }
    let mut checker = Checker {
        funs: &funs,
        theta: HashSet::new(),
        gamma: HashMap::new(),
    };
    for f in &p.funs {
        wf(&checker.theta, &mut Vec::new(), &f.param_ty)
            .map_err(|e| ClosTypeError(format!("{} (parameter of {})", e.0, f.name)))?;
        checker
            .bound(f.param, f.param_ty.clone(), &f.body)
            .map_err(|e| ClosTypeError(format!("{} (in body of {})", e.0, f.name)))?;
    }
    checker
        .exp(&p.main)
        .map_err(|e| ClosTypeError(format!("{} (in main)", e.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::CFun;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn halt_int() {
        check_exp(&ClosCtx::default(), &CExp::Halt(CVal::Int(1))).unwrap();
    }

    #[test]
    fn halt_pair_fails() {
        let e = CExp::Halt(CVal::pair(CVal::Int(1), CVal::Int(2)));
        assert!(check_exp(&ClosCtx::default(), &e).is_err());
    }

    #[test]
    fn simple_function_program() {
        // letrec f = λ(x:Int). halt x in f(42)
        let f = CFun {
            name: s("f"),
            param: s("x"),
            param_ty: CTy::Int,
            body: CExp::Halt(CVal::Var(s("x"))),
        };
        let p = CProgram {
            funs: vec![f],
            main: CExp::App(CVal::FnName(s("f")), CVal::Int(42)),
        };
        check_program(&p).unwrap();
    }

    #[test]
    fn function_bodies_are_closed() {
        // A body referencing a main-term variable must fail.
        let f = CFun {
            name: s("g"),
            param: s("x"),
            param_ty: CTy::Int,
            body: CExp::Halt(CVal::Var(s("outer"))),
        };
        let p = CProgram {
            funs: vec![f],
            main: CExp::let_(s("outer"), CVal::Int(1), CExp::Halt(CVal::Int(0))),
        };
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn packages_and_open() {
        // A closure-shaped package ⟨t=Int, (f, 7) : ((t×Int)→0) × t⟩.
        let t = s("t");
        let f = CFun {
            name: s("code"),
            param: s("p"),
            param_ty: CTy::prod(CTy::Int, CTy::Int),
            body: CExp::Halt(CVal::Int(0)),
        };
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::pair(CVal::FnName(s("code")), CVal::Int(7))),
            body_ty: CTy::prod(CTy::arrow(CTy::prod(CTy::Var(t), CTy::Int)), CTy::Var(t)),
        };
        // open pkg as ⟨t,p⟩ in let c = π1 p in let env = π2 p in
        // let arg = (env, 1) in c(arg)
        let body = CExp::Open {
            pkg,
            tvar: s("topen"),
            x: s("p"),
            body: std::rc::Rc::new(CExp::let_proj(
                s("c"),
                1,
                CVal::Var(s("p")),
                CExp::let_proj(
                    s("env"),
                    2,
                    CVal::Var(s("p")),
                    CExp::let_(
                        s("arg"),
                        CVal::pair(CVal::Var(s("env")), CVal::Int(1)),
                        CExp::App(CVal::Var(s("c")), CVal::Var(s("arg"))),
                    ),
                ),
            )),
        };
        let p = CProgram {
            funs: vec![f],
            main: body,
        };
        check_program(&p).unwrap();
    }

    #[test]
    fn package_payload_mismatch() {
        let t = s("t");
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::pair(CVal::Int(1), CVal::Int(2))),
            body_ty: CTy::Var(t),
        };
        assert!(infer_val(&ClosCtx::default(), &pkg).is_err());
    }

    #[test]
    fn hidden_witness_does_not_leak() {
        // After open, the payload has an abstract type; halting on it fails.
        let t = s("t");
        let pkg = CVal::Pack {
            tvar: t,
            witness: CTy::Int,
            val: std::rc::Rc::new(CVal::Int(1)),
            body_ty: CTy::Var(t),
        };
        let e = CExp::Open {
            pkg,
            tvar: s("u"),
            x: s("x"),
            body: std::rc::Rc::new(CExp::Halt(CVal::Var(s("x")))),
        };
        assert!(check_exp(&ClosCtx::default(), &e).is_err());
    }

    #[test]
    fn if0_and_prims() {
        let e = CExp::LetPrim {
            x: s("n"),
            op: BinOp::Sub,
            a: CVal::Int(3),
            b: CVal::Int(3),
            body: std::rc::Rc::new(CExp::If0 {
                v: CVal::Var(s("n")),
                zero: std::rc::Rc::new(CExp::Halt(CVal::Int(1))),
                nonzero: std::rc::Rc::new(CExp::Halt(CVal::Int(0))),
            }),
        };
        check_exp(&ClosCtx::default(), &e).unwrap();
    }

    use crate::syntax::BinOp;
}
