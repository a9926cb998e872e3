//! CPS conversion (the first phase of §3's pipeline).
//!
//! The conversion stays *inside* the source language: a CPS'd program is
//! again a well-typed source program in which every function takes a pair
//! `(argument, continuation)` and "returns" only by invoking the
//! continuation; the answer type is `int`. This gives a free correctness
//! oracle — the reference evaluator must produce the same result before and
//! after conversion — before closure conversion leaves the source language.
//!
//! Types translate as
//!
//! ```text
//! ⟦int⟧   = int
//! ⟦τ × σ⟧ = ⟦τ⟧ × ⟦σ⟧
//! ⟦τ → σ⟧ = (⟦τ⟧ × (⟦σ⟧ → int)) → int
//! ```
//!
//! The implementation is one-pass with meta-continuations (in the style of
//! Danvy–Filinski, paper ref. 7), so no administrative β-redexes are produced;
//! `if0` reifies a join-point continuation to avoid duplicating contexts.
//!
//! A subexpression's meta-continuation runs *inside* every `let` that the
//! subexpression floats out, so an emitted `let` scopes over code written
//! outside the source `let`. Its binder keeps the source name unless that
//! name is already bound where the `let` lands — lexically, as a top-level
//! function, or by an earlier floated `let` — and then gets a fresh one
//! ([`Symbol::fresh`]). One scoped environment serves the whole pass, and
//! the types of `if0` branches and `fn` bodies come from one checking pass
//! ([`typecheck::node_types`]), so conversion is linear in program size.

use std::fmt;

use ps_ir::symbol::gensym;
use ps_ir::{ScopedMap, Symbol};

use ps_lambda::syntax::{Expr, FunDef, SrcProgram, SrcTy};
use ps_lambda::typecheck::{self, NodeTypes};

/// An error raised during CPS conversion (only on ill-typed input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpsError(pub String);

impl fmt::Display for CpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CPS conversion error: {}", self.0)
    }
}

impl std::error::Error for CpsError {}

type CResult<T> = Result<T, CpsError>;

/// The CPS type translation `⟦τ⟧`.
pub fn cps_ty(ty: &SrcTy) -> SrcTy {
    match ty {
        SrcTy::Int => SrcTy::Int,
        SrcTy::Prod(a, b) => SrcTy::prod(cps_ty(a), cps_ty(b)),
        SrcTy::Arrow(a, b) => SrcTy::arrow(
            SrcTy::prod(cps_ty(a), SrcTy::arrow(cps_ty(b), SrcTy::Int)),
            SrcTy::Int,
        ),
    }
}

/// What the conversion knows about a source variable in scope: the name
/// the emitted code uses for it and its **source** type.
#[derive(Clone)]
struct Binding {
    name: Symbol,
    ty: SrcTy,
}

/// The conversion state.
struct Cps<'p> {
    /// Source names in scope, extended and restored per binder. Besides
    /// the lexical bindings it holds *stale* ones: a `let` floated out of
    /// a subexpression stays bound while the continuation of that
    /// subexpression runs, because the emitted `let` scopes over the code
    /// that continuation emits. A stale name is never looked up (the
    /// source is well scoped); it only makes a later `let` of the same
    /// name pick a fresh one.
    env: ScopedMap<Binding>,
    /// Types of the source program's `if0` and `fn` nodes.
    types: NodeTypes<'p>,
}

/// The meta-continuation: receives the conversion state, the CPS *value*
/// for the converted expression and that expression's **source** type.
type MetaK<'k, 'p> = &'k mut dyn FnMut(&mut Cps<'p>, Expr, &SrcTy) -> CResult<Expr>;

impl<'p> Cps<'p> {
    /// The source type of the `if0` or `fn` node `e`.
    fn node_ty(&self, e: &Expr) -> CResult<SrcTy> {
        self.types
            .get(e)
            .cloned()
            .ok_or_else(|| CpsError("node shared between positions of different types".to_string()))
    }

    /// Converts one expression.
    fn exp(&mut self, e: &'p Expr, k: MetaK<'_, 'p>) -> CResult<Expr> {
        match e {
            Expr::Int(n) => k(self, Expr::Int(*n), &SrcTy::Int),
            Expr::Var(x) => {
                let b = self
                    .env
                    .get(x)
                    .cloned()
                    .ok_or_else(|| CpsError(format!("unbound variable {x}")))?;
                k(self, Expr::Var(b.name), &b.ty)
            }
            Expr::Bin(op, a, b) => {
                let op = *op;
                self.exp(a, &mut |cx, va, _| {
                    cx.exp(b, &mut |cx, vb, _| {
                        let x = gensym("prim");
                        let body = k(cx, Expr::Var(x), &SrcTy::Int)?;
                        Ok(Expr::let_(
                            x,
                            Expr::Bin(op, va.clone().into(), vb.into()),
                            body,
                        ))
                    })
                })
            }
            Expr::Pair(a, b) => self.exp(a, &mut |cx, va, ta| {
                let ta = ta.clone();
                cx.exp(b, &mut |cx, vb, tb| {
                    let x = gensym("pair");
                    let ty = SrcTy::prod(ta.clone(), tb.clone());
                    let body = k(cx, Expr::Var(x), &ty)?;
                    Ok(Expr::let_(x, Expr::pair(va.clone(), vb), body))
                })
            }),
            Expr::Proj(i, a) => {
                let i = *i;
                self.exp(a, &mut |cx, va, ta| {
                    let comp = match ta {
                        SrcTy::Prod(x, y) => {
                            if i == 1 {
                                (**x).clone()
                            } else {
                                (**y).clone()
                            }
                        }
                        other => {
                            return Err(CpsError(format!("projection of non-pair type {other}")))
                        }
                    };
                    let x = gensym("proj");
                    let body = k(cx, Expr::Var(x), &comp)?;
                    Ok(Expr::let_(x, Expr::Proj(i, va.into()), body))
                })
            }
            Expr::If0(c, t, f) => {
                // The (common) branch type in the source world.
                let branch_ty = self.node_ty(e)?;
                self.exp(c, &mut |cx, vc, _| {
                    let jk = gensym("join");
                    let xj = gensym("jv");
                    // The join continuation carries a CPS-world value.
                    let jk_body = k(cx, Expr::Var(xj), &branch_ty)?;
                    let jk_lam = Expr::Lam {
                        param: xj,
                        param_ty: cps_ty(&branch_ty),
                        body: jk_body.into(),
                    };
                    let call_join = |v: Expr| Expr::app(Expr::Var(jk), v);
                    let then_e = cx.exp(t, &mut |_, v, _| Ok(call_join(v)))?;
                    let else_e = cx.exp(f, &mut |_, v, _| Ok(call_join(v)))?;
                    Ok(Expr::let_(
                        jk,
                        jk_lam,
                        Expr::If0(vc.into(), then_e.into(), else_e.into()),
                    ))
                })
            }
            Expr::Lam {
                param,
                param_ty,
                body,
            } => {
                let ret_ty = match self.node_ty(e)? {
                    SrcTy::Arrow(_, ret) => (*ret).clone(),
                    other => return Err(CpsError(format!("function of non-arrow type {other}"))),
                };
                let p = gensym("clo");
                let kv = gensym("k");
                let shadowed = self.env.bind(
                    *param,
                    Binding {
                        name: *param,
                        ty: param_ty.clone(),
                    },
                );
                let inner = self.exp(body, &mut |_, v, _| Ok(Expr::app(Expr::Var(kv), v)))?;
                self.env.restore(shadowed);
                let cps_lam = Expr::Lam {
                    param: p,
                    param_ty: SrcTy::prod(
                        cps_ty(param_ty),
                        SrcTy::arrow(cps_ty(&ret_ty), SrcTy::Int),
                    ),
                    body: Expr::let_(
                        *param,
                        Expr::Proj(1, Expr::Var(p).into()),
                        Expr::let_(kv, Expr::Proj(2, Expr::Var(p).into()), inner),
                    )
                    .into(),
                };
                let src_ty = SrcTy::arrow(param_ty.clone(), ret_ty);
                k(self, cps_lam, &src_ty)
            }
            Expr::App(f, a) => self.exp(f, &mut |cx, vf, tf| {
                let cod = match tf {
                    SrcTy::Arrow(_, c) => (**c).clone(),
                    other => {
                        return Err(CpsError(format!(
                            "application of non-function type {other}"
                        )))
                    }
                };
                cx.exp(a, &mut |cx, va, _| {
                    let r = gensym("ret");
                    let body = k(cx, Expr::Var(r), &cod)?;
                    let cont = Expr::Lam {
                        param: r,
                        param_ty: cps_ty(&cod),
                        body: body.into(),
                    };
                    Ok(Expr::app(vf.clone(), Expr::pair(va, cont)))
                })
            }),
            Expr::Let { x, rhs, body } => self.exp(rhs, &mut |cx, v, trhs| {
                // The emitted `let` floats out of the position it was
                // written in and scopes over everything emitted after it,
                // pending continuations' code included. If `x` is already
                // bound there, reusing the name could capture an outer
                // `x`, so the binder gets a fresh name.
                let fresh = cx.env.contains(x);
                let name = if fresh { x.fresh() } else { *x };
                let binding = Binding {
                    name,
                    ty: trhs.clone(),
                };
                let mut shadowed = Some(cx.env.bind(*x, binding));
                let inner = if fresh {
                    // `k` belongs outside this `let`'s source scope: while
                    // it runs, the shadowed binding is visible again.
                    cx.exp(body, &mut |cx, v, ty| {
                        let ours = shadowed.take().map(|s| cx.env.swap(s));
                        let out = k(cx, v, ty);
                        shadowed = ours.map(|s| cx.env.swap(s));
                        out
                    })?
                } else {
                    cx.exp(body, k)?
                };
                if let Some(s) = shadowed {
                    cx.env.restore(s);
                }
                Ok(Expr::let_(name, v, inner))
            }),
        }
    }
}

/// CPS-converts a whole program.
///
/// Every definition `fun f (x : τ) : σ = e` becomes
/// `fun f (p : ⟦τ⟧ × (⟦σ⟧ → int)) : int = …`; the main expression is run
/// with the identity continuation.
///
/// The emitted names are the source names, except that a `let` whose
/// name is already bound where its binding is emitted gets a fresh name
/// (see the module docs); conversion is linear in program size.
///
/// # Errors
///
/// Fails only on ill-typed input (run
/// [`ps_lambda::typecheck::check_program`] first for a better message).
pub fn cps_program(p: &SrcProgram) -> CResult<SrcProgram> {
    let types = typecheck::node_types(p).map_err(|te| CpsError(te.0))?;
    // Emitted code refers to the CPS'd functions by their source names;
    // the environment records their *source* types, which is all the
    // conversion consults.
    let env = typecheck::top_env(p)
        .into_iter()
        .map(|(f, ty)| (f, Binding { name: f, ty }))
        .collect();
    let mut cx = Cps { env, types };
    let mut defs = Vec::with_capacity(p.defs.len());
    for d in &p.defs {
        let shadowed = cx.env.bind(
            d.param,
            Binding {
                name: d.param,
                ty: d.param_ty.clone(),
            },
        );
        let pk = gensym("parg");
        let kv = gensym("k");
        let inner = cx.exp(&d.body, &mut |_, v, _| Ok(Expr::app(Expr::Var(kv), v)))?;
        cx.env.restore(shadowed);
        let body = Expr::let_(
            d.param,
            Expr::Proj(1, Expr::Var(pk).into()),
            Expr::let_(kv, Expr::Proj(2, Expr::Var(pk).into()), inner),
        );
        defs.push(FunDef {
            name: d.name,
            param: pk,
            param_ty: SrcTy::prod(
                cps_ty(&d.param_ty),
                SrcTy::arrow(cps_ty(&d.ret_ty), SrcTy::Int),
            ),
            ret_ty: SrcTy::Int,
            body,
        });
    }
    let main = cx.exp(&p.main, &mut |_, v, _| Ok(v))?;
    Ok(SrcProgram { defs, main })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lambda::eval::run_program;
    use ps_lambda::parse::parse_program;

    /// Source and CPS'd program must agree, and the CPS'd program must
    /// still typecheck.
    fn roundtrip(src: &str) -> i64 {
        let p = parse_program(src).unwrap();
        typecheck::check_program(&p).unwrap();
        let expected = run_program(&p, 1_000_000).unwrap();
        let q = cps_program(&p).unwrap();
        typecheck::check_program(&q).unwrap_or_else(|e| panic!("CPS output ill-typed: {e}\n{q:?}"));
        let got = run_program(&q, 10_000_000).unwrap();
        assert_eq!(got, expected, "CPS changed the result for {src}");
        got
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(roundtrip("1 + 2 * 3"), 7);
    }

    #[test]
    fn pairs() {
        assert_eq!(roundtrip("fst (1, 2) + snd (3, 4)"), 5);
    }

    #[test]
    fn conditionals() {
        assert_eq!(roundtrip("if0 0 then 10 else 20"), 10);
        assert_eq!(roundtrip("if0 1 then 10 else 20"), 20);
        assert_eq!(roundtrip("if0 2 - 2 then 1 + 1 else 9"), 2);
    }

    #[test]
    fn lets() {
        assert_eq!(roundtrip("let x = 4 in let y = x * x in y - x"), 12);
    }

    #[test]
    fn lambdas() {
        assert_eq!(roundtrip("(fn (x : int) => x + 1) 41"), 42);
        assert_eq!(roundtrip("let y = 10 in (fn (x : int) => x + y) 5"), 15);
    }

    #[test]
    fn recursion() {
        assert_eq!(
            roundtrip("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 6"),
            720
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            roundtrip(
                "fun even (n : int) : int = if0 n then 1 else odd (n - 1)\n\
                 fun odd (n : int) : int = if0 n then 0 else even (n - 1)\n\
                 even 9"
            ),
            0
        );
    }

    #[test]
    fn higher_order() {
        assert_eq!(
            roundtrip(
                "fun twice (f : int -> int) : int -> int = fn (x : int) => f (f x)\n\
                 (twice (fn (y : int) => y * 2)) 5"
            ),
            20
        );
    }

    #[test]
    fn functions_in_pairs() {
        assert_eq!(
            roundtrip(
                "fun applyp (p : (int -> int) * int) : int = (fst p) (snd p)\n\
                 applyp ((fn (x : int) => x + 1), 41)"
            ),
            42
        );
    }

    /// The `let` binders of `e`, outermost first.
    fn let_binders(e: &Expr, out: &mut Vec<Symbol>) {
        match e {
            Expr::Int(_) | Expr::Var(_) => {}
            Expr::Bin(_, a, b) | Expr::Pair(a, b) | Expr::App(a, b) => {
                let_binders(a, out);
                let_binders(b, out);
            }
            Expr::If0(a, b, c) => {
                let_binders(a, out);
                let_binders(b, out);
                let_binders(c, out);
            }
            Expr::Proj(_, a) | Expr::Lam { body: a, .. } => let_binders(a, out),
            Expr::Let { x, rhs, body } => {
                out.push(*x);
                let_binders(rhs, out);
                let_binders(body, out);
            }
        }
    }

    #[test]
    fn floated_lets_do_not_capture_outer_bindings() {
        // Shadowing inside a let's rhs, which floats out over the body.
        assert_eq!(
            roundtrip("let x = 5 in let y = (let x = 3 in x) in x + y"),
            8
        );
        // Sibling lets of one name: the first floats over the second.
        assert_eq!(roundtrip("(let x = 1 in x) + (let x = 2 in x)"), 3);
        assert_eq!(
            roundtrip("let x = 0 in (let x = 1 in x) + (let x = 2 in x) + x"),
            3
        );
        // A pending function value that closes over the outer `x`.
        assert_eq!(
            roundtrip("(let x = 1 in fn (z : int) => z + x) (let x = 2 in x)"),
            3
        );
        // A let shadowing a top-level function.
        assert_eq!(
            roundtrip("fun f (n : int) : int = n + 1\n let g = (let f = 2 in f) in f g"),
            3
        );
    }

    #[test]
    fn only_a_bound_name_is_freshened() {
        let x = Symbol::intern("x");
        let p = parse_program("let x = 5 in let y = (let x = 3 in x) in x + y").unwrap();
        let mut names = Vec::new();
        let_binders(&cps_program(&p).unwrap().main, &mut names);
        assert_eq!(names.iter().filter(|n| **n == x).count(), 1, "{names:?}");
        assert!(
            names.iter().any(|n| *n != x && n.base() == "x"),
            "{names:?}"
        );
        // Without shadowing, every source binder keeps its name.
        let p = parse_program("let a = 1 in let b = (let c = a in c) in a + b").unwrap();
        let mut names = Vec::new();
        let_binders(&cps_program(&p).unwrap().main, &mut names);
        for s in ["a", "b", "c"] {
            assert!(names.contains(&Symbol::intern(s)), "{s} renamed: {names:?}");
        }
    }

    #[test]
    fn a_node_shared_at_two_types_is_rejected() {
        // One `Rc`'d `fn (y : int) => x` under `x : int` and under
        // `x : int * int`: well typed, but it has no single node type.
        let (x, y) = (Symbol::intern("x"), Symbol::intern("y"));
        let lam = std::rc::Rc::new(Expr::Lam {
            param: y,
            param_ty: SrcTy::Int,
            body: Expr::Var(x).into(),
        });
        let f = Symbol::intern("f");
        let main = Expr::let_(
            x,
            Expr::Int(1),
            Expr::Let {
                x: f,
                rhs: lam.clone(),
                body: Expr::let_(
                    x,
                    Expr::pair(Expr::Int(1), Expr::Int(2)),
                    Expr::Let {
                        x: Symbol::intern("g"),
                        rhs: lam,
                        body: Expr::app(Expr::Var(f), Expr::Int(0)).into(),
                    },
                )
                .into(),
            },
        );
        let p = SrcProgram { defs: vec![], main };
        typecheck::check_program(&p).unwrap();
        assert!(cps_program(&p).is_err());
    }

    #[test]
    fn cps_types_translate() {
        let t = SrcTy::arrow(SrcTy::Int, SrcTy::Int);
        // (int × (int → int)) → int
        match cps_ty(&t) {
            SrcTy::Arrow(dom, cod) => {
                assert_eq!(*cod, SrcTy::Int);
                assert!(matches!(&*dom, SrcTy::Prod(..)));
            }
            other => panic!("bad CPS type {other}"),
        }
    }

    #[test]
    fn cps_functions_return_int() {
        let p = parse_program("fun id (x : int * int) : int * int = x\n fst (id (1, 2))").unwrap();
        let q = cps_program(&p).unwrap();
        for d in &q.defs {
            assert_eq!(d.ret_ty, SrcTy::Int, "CPS'd functions answer int");
        }
    }
}
