//! Typechecker for the source language.
//!
//! Synthesis-directed: every binder is annotated, so types are inferred
//! bottom-up with no unification. One scoped environment is extended and
//! restored per binder, so checking is linear in program size.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;

use ps_ir::{ScopedMap, Symbol};

use crate::syntax::{Expr, SrcProgram, SrcTy};

/// A source type error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

type TResult<T> = Result<T, TypeError>;

/// The types of a program's `if0` and `fn` nodes, keyed by node address.
///
/// CPS conversion needs a branch's or a body's type before it converts
/// that subexpression; this table, filled in by one checking pass, answers
/// without re-walking the subtree.
#[derive(Debug, Default)]
pub struct NodeTypes<'p> {
    /// `None` marks a node shared (through an `Rc`) between positions at
    /// which it has different types.
    types: HashMap<*const Expr, Option<SrcTy>>,
    program: PhantomData<&'p Expr>,
}

impl NodeTypes<'_> {
    /// The type of the `if0` or `fn` node `e`, or `None` if `e` was not
    /// checked or is shared (through an `Rc`) between positions at which
    /// it has different types.
    pub fn get(&self, e: &Expr) -> Option<&SrcTy> {
        self.types.get(&(e as *const Expr)).and_then(Option::as_ref)
    }

    fn record(&mut self, e: &Expr, ty: &SrcTy) {
        match self.types.entry(e as *const Expr) {
            Entry::Vacant(v) => {
                v.insert(Some(ty.clone()));
            }
            Entry::Occupied(mut o) => {
                if o.get().as_ref() != Some(ty) {
                    o.insert(None);
                }
            }
        }
    }
}

/// The checker's state: the scoped environment, plus the node-type table
/// when a caller asked for one.
struct Infer<'p> {
    env: ScopedMap<SrcTy>,
    nodes: Option<NodeTypes<'p>>,
}

impl Infer<'_> {
    fn infer(&mut self, e: &Expr) -> TResult<SrcTy> {
        match e {
            Expr::Int(_) => Ok(SrcTy::Int),
            Expr::Var(x) => self
                .env
                .get(x)
                .cloned()
                .ok_or_else(|| TypeError(format!("unbound variable {x}"))),
            Expr::Bin(op, a, b) => {
                self.expect(a, &SrcTy::Int, || format!("left operand of {op}"))?;
                self.expect(b, &SrcTy::Int, || format!("right operand of {op}"))?;
                Ok(SrcTy::Int)
            }
            Expr::If0(c, t, f) => {
                self.expect(c, &SrcTy::Int, || "if0 condition".to_string())?;
                let tt = self.infer(t)?;
                let ft = self.infer(f)?;
                if tt != ft {
                    return Err(TypeError(format!(
                        "if0 branches disagree: {tt} versus {ft}"
                    )));
                }
                self.record(e, &tt);
                Ok(tt)
            }
            Expr::Pair(a, b) => Ok(SrcTy::prod(self.infer(a)?, self.infer(b)?)),
            Expr::Proj(i, a) => match self.infer(a)? {
                SrcTy::Prod(x, y) => Ok(if *i == 1 { (*x).clone() } else { (*y).clone() }),
                other => Err(TypeError(format!("projection of non-pair type {other}"))),
            },
            Expr::Lam {
                param,
                param_ty,
                body,
            } => {
                let shadowed = self.env.bind(*param, param_ty.clone());
                let ret = self.infer(body)?;
                self.env.restore(shadowed);
                let ty = SrcTy::arrow(param_ty.clone(), ret);
                self.record(e, &ty);
                Ok(ty)
            }
            Expr::App(f, a) => match self.infer(f)? {
                SrcTy::Arrow(dom, cod) => {
                    let at = self.infer(a)?;
                    if at != *dom {
                        return Err(TypeError(format!(
                            "argument type {at} does not match parameter type {dom}"
                        )));
                    }
                    Ok((*cod).clone())
                }
                other => Err(TypeError(format!(
                    "application of non-function type {other}"
                ))),
            },
            Expr::Let { x, rhs, body } => {
                let rt = self.infer(rhs)?;
                let shadowed = self.env.bind(*x, rt);
                let ty = self.infer(body)?;
                self.env.restore(shadowed);
                Ok(ty)
            }
        }
    }

    fn expect(&mut self, e: &Expr, want: &SrcTy, what: impl FnOnce() -> String) -> TResult<()> {
        let got = self.infer(e)?;
        if &got == want {
            Ok(())
        } else {
            Err(TypeError(format!(
                "{} has type {got}, expected {want}",
                what()
            )))
        }
    }

    fn record(&mut self, e: &Expr, ty: &SrcTy) {
        if let Some(nodes) = &mut self.nodes {
            nodes.record(e, ty);
        }
    }

    /// Checks each definition's body against its declared return type and
    /// the main expression at type `int`.
    fn program(&mut self, p: &SrcProgram) -> TResult<()> {
        let mut names = std::collections::HashSet::new();
        for d in &p.defs {
            if !names.insert(d.name) {
                return Err(TypeError(format!("duplicate function {}", d.name)));
            }
            let shadowed = self.env.bind(d.param, d.param_ty.clone());
            let got = self.infer(&d.body)?;
            self.env.restore(shadowed);
            if got != d.ret_ty {
                return Err(TypeError(format!(
                    "function {} declares return type {} but its body has type {got}",
                    d.name, d.ret_ty
                )));
            }
        }
        self.expect(&p.main, &SrcTy::Int, || "main expression".to_string())
    }
}

/// Infers the type of an expression under the given environment.
///
/// # Errors
///
/// Returns a [`TypeError`] naming the mismatch.
pub fn infer(env: &HashMap<Symbol, SrcTy>, e: &Expr) -> TResult<SrcTy> {
    Infer {
        env: env.iter().map(|(x, t)| (*x, t.clone())).collect(),
        nodes: None,
    }
    .infer(e)
}

/// Builds the top-level environment of a program (its function
/// signatures).
pub fn top_env(p: &SrcProgram) -> HashMap<Symbol, SrcTy> {
    p.defs.iter().map(|d| (d.name, d.ty())).collect()
}

fn checker<'p>(p: &SrcProgram, nodes: Option<NodeTypes<'p>>) -> Infer<'p> {
    Infer {
        env: top_env(p).into_iter().collect(),
        nodes,
    }
}

/// Checks a whole program: each definition's body against its declared
/// return type, and the main expression at type `int`.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn check_program(p: &SrcProgram) -> TResult<()> {
    checker(p, None).program(p)
}

/// Checks a whole program like [`check_program`] and returns the types of
/// its `if0` and `fn` nodes.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn node_types(p: &SrcProgram) -> TResult<NodeTypes<'_>> {
    let mut c = checker(p, Some(NodeTypes::default()));
    c.program(p)?;
    Ok(c.nodes.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    fn infer_str(src: &str) -> TResult<SrcTy> {
        infer(&HashMap::new(), &parse_expr(src).unwrap())
    }

    #[test]
    fn literals() {
        assert_eq!(infer_str("42").unwrap(), SrcTy::Int);
    }

    #[test]
    fn pairs_and_projections() {
        assert_eq!(
            infer_str("(1, (2, 3))").unwrap(),
            SrcTy::prod(SrcTy::Int, SrcTy::prod(SrcTy::Int, SrcTy::Int))
        );
        assert_eq!(infer_str("fst (1, 2)").unwrap(), SrcTy::Int);
        assert!(infer_str("fst 1").is_err());
    }

    #[test]
    fn lambdas_and_application() {
        assert_eq!(
            infer_str("fn (x : int) => x + 1").unwrap(),
            SrcTy::arrow(SrcTy::Int, SrcTy::Int)
        );
        assert_eq!(infer_str("(fn (x : int) => x + 1) 2").unwrap(), SrcTy::Int);
        assert!(infer_str("(fn (x : int) => x) (1, 2)").is_err());
        assert!(infer_str("1 2").is_err());
    }

    #[test]
    fn if0_branches_must_agree() {
        assert!(infer_str("if0 0 then 1 else (1, 2)").is_err());
        assert_eq!(infer_str("if0 0 then 1 else 2").unwrap(), SrcTy::Int);
        assert!(infer_str("if0 (1, 1) then 1 else 2").is_err());
    }

    #[test]
    fn unbound_variable() {
        assert!(infer_str("mystery").is_err());
    }

    #[test]
    fn recursive_program_checks() {
        let p =
            parse_program("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 5")
                .unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn mutual_recursion_checks() {
        let p = parse_program(
            "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
             fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
             even 10",
        )
        .unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn wrong_return_type_rejected() {
        let p = parse_program("fun f (x : int) : int * int = x\n 0").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn main_must_be_int() {
        let p = parse_program("(1, 2)").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let p = parse_program("fun f (x : int) : int = x\nfun f (x : int) : int = x\n 0").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn higher_order_functions() {
        let p = parse_program(
            "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
             (twice (fn (y : int) => y + 3)) 1",
        )
        .unwrap();
        check_program(&p).unwrap();
    }
}
