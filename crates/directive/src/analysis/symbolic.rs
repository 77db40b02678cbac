//! Symbolic affine domain for per-thread store addresses.
//!
//! The footprint engine ([`super::footprint`]) abstracts every global-store
//! index as an **affine form** over two kinds of symbols:
//!
//! * **uniform symbols** — kernel parameters, launch dimensions
//!   (`blockDim.x`, `gridDim.x`, …) and body-undefined constants (macro
//!   names): values that are the same for every thread of a launch. A
//!   [`Lin`] is an integer-coefficient linear form over these.
//! * **index symbols** — `threadIdx.*`, `blockIdx.*` and loop induction
//!   variables: values that differ per thread or per iteration. An
//!   [`Affine`] is `base + Σ coefᵢ·idxᵢ` with a [`Lin`] base and [`Lin`]
//!   coefficients, so `blockIdx.x * blockDim.x + threadIdx.x` is
//!   representable exactly (the `blockIdx.x` coefficient is the *symbolic*
//!   `blockDim.x`).
//!
//! Anything outside the domain — division, data-dependent loads, float
//! arithmetic, products of two per-thread values — evaluates to `None`,
//! and every client treats `None` as "no claim". That degradation is the
//! soundness story: the engine only ever *proves* facts (disjointness,
//! bounds, equality) on forms it represents exactly, and stays silent
//! otherwise. Comparisons assume uniform symbols are non-negative (sizes,
//! counts) and launch dimensions are at least 1; DESIGN §3.6 states the
//! assumption and its consequences.

use crate::lexer::{Kind, Token};
use serde::Serialize;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A linear form `k + Σ cᵢ·sᵢ` over launch-uniform symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Lin {
    /// Constant term.
    pub k: i64,
    /// Non-zero coefficients per symbol, sorted for determinism.
    pub terms: BTreeMap<String, i64>,
}

impl Lin {
    /// The constant form `k`.
    pub fn constant(k: i64) -> Self {
        Lin {
            k,
            terms: BTreeMap::new(),
        }
    }

    /// The form `1·name`.
    pub fn sym(name: &str) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.to_string(), 1);
        Lin { k: 0, terms }
    }

    /// `Some(k)` when the form is a plain constant.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.k)
    }

    /// Componentwise sum.
    pub fn add(&self, other: &Lin) -> Lin {
        let mut out = self.clone();
        out.k += other.k;
        for (s, c) in &other.terms {
            let e = out.terms.entry(s.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(s);
            }
        }
        out
    }

    /// Componentwise difference.
    pub fn sub(&self, other: &Lin) -> Lin {
        self.add(&other.scale(-1))
    }

    /// Scalar multiple.
    pub fn scale(&self, by: i64) -> Lin {
        if by == 0 {
            return Lin::constant(0);
        }
        Lin {
            k: self.k * by,
            terms: self
                .terms
                .iter()
                .map(|(s, c)| (s.clone(), c * by))
                .collect(),
        }
    }

    /// Product, defined only when at least one side is constant (the
    /// result would otherwise be quadratic and leave the domain).
    pub fn mul(&self, other: &Lin) -> Option<Lin> {
        if let Some(k) = self.as_const() {
            return Some(other.scale(k));
        }
        other.as_const().map(|k| self.scale(k))
    }

    /// Whether the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.k == 0 && self.terms.is_empty()
    }

    /// Proves `self ≥ 0` under the standing assumptions: every uniform
    /// symbol is ≥ 0 (sizes and counts are never negative) and launch
    /// dimensions (`blockDim.*` / `gridDim.*`) are ≥ 1. Returns `false`
    /// whenever the proof does not go through — never "unknown but
    /// probably fine".
    pub fn provably_nonneg(&self) -> bool {
        if self.terms.values().any(|c| *c < 0) {
            return false;
        }
        let floor: i64 = self.terms.iter().map(|(s, c)| c * sym_min(s)).sum::<i64>() + self.k;
        floor >= 0
    }

    /// Evaluates the form under concrete symbol values; `None` when a
    /// symbol is unbound.
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> Option<i64> {
        let mut v = self.k;
        for (s, c) in &self.terms {
            v += c * env.get(s)?;
        }
        Some(v)
    }
}

impl fmt::Display for Lin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{s}")?,
                    -1 => write!(f, "-{s}")?,
                    c => write!(f, "{c}*{s}")?,
                }
                first = false;
            } else if *c < 0 {
                match *c {
                    -1 => write!(f, " - {s}")?,
                    c => write!(f, " - {}*{s}", -c)?,
                }
            } else {
                match *c {
                    1 => write!(f, " + {s}")?,
                    c => write!(f, " + {c}*{s}")?,
                }
            }
        }
        if first {
            write!(f, "{}", self.k)?;
        } else if self.k > 0 {
            write!(f, " + {}", self.k)?;
        } else if self.k < 0 {
            write!(f, " - {}", -self.k)?;
        }
        Ok(())
    }
}

/// The assumed minimum value of a uniform symbol: launch dimensions are at
/// least 1, every other symbol (sizes, counts, macro constants) at least 0.
fn sym_min(name: &str) -> i64 {
    i64::from(name.starts_with("blockDim.") || name.starts_with("gridDim."))
}

/// An affine per-thread index: `base + Σ coefᵢ·idxᵢ` over index symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Affine {
    /// The launch-uniform part.
    pub base: Lin,
    /// Non-zero coefficients per index symbol, sorted for determinism.
    pub coef: BTreeMap<String, Lin>,
}

impl Affine {
    /// A pure-uniform form (no index symbols).
    pub fn uniform(base: Lin) -> Self {
        Affine {
            base,
            coef: BTreeMap::new(),
        }
    }

    /// The form `1·idx` for an index symbol.
    pub fn index(sym: &str) -> Self {
        let mut coef = BTreeMap::new();
        coef.insert(sym.to_string(), Lin::constant(1));
        Affine {
            base: Lin::constant(0),
            coef,
        }
    }

    /// Componentwise sum.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.base = out.base.add(&other.base);
        for (s, c) in &other.coef {
            let e = out.coef.entry(s.clone()).or_default();
            *e = e.add(c);
            if e.is_zero() {
                out.coef.remove(s);
            }
        }
        out
    }

    /// Componentwise difference.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.neg())
    }

    /// Negation.
    pub fn neg(&self) -> Affine {
        Affine {
            base: self.base.scale(-1),
            coef: self
                .coef
                .iter()
                .map(|(s, c)| (s.clone(), c.scale(-1)))
                .collect(),
        }
    }

    /// Product, defined only when at least one side is pure-uniform (two
    /// per-thread factors would be quadratic in index symbols).
    pub fn mul(&self, other: &Affine) -> Option<Affine> {
        let (varying, uniform) = if other.coef.is_empty() {
            (self, &other.base)
        } else if self.coef.is_empty() {
            (other, &self.base)
        } else {
            return None;
        };
        let mut coef = BTreeMap::new();
        for (s, c) in &varying.coef {
            let p = c.mul(uniform)?;
            if !p.is_zero() {
                coef.insert(s.clone(), p);
            }
        }
        Some(Affine {
            base: varying.base.mul(uniform)?,
            coef,
        })
    }

    /// The coefficient of `sym`, zero when absent.
    pub fn coef_of(&self, sym: &str) -> Lin {
        self.coef
            .get(sym)
            .cloned()
            .unwrap_or_else(|| Lin::constant(0))
    }

    /// Whether any `threadIdx.*` symbol carries a non-zero coefficient.
    pub fn depends_on_thread(&self) -> bool {
        self.coef.keys().any(|s| s.starts_with("threadIdx."))
    }

    /// Evaluates under concrete uniform-symbol and index-symbol values.
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> Option<i64> {
        let mut v = self.base.eval(env)?;
        for (s, c) in &self.coef {
            v += c.eval(env)? * env.get(s)?;
        }
        Some(v)
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (s, c) in &self.coef {
            match c.as_const() {
                Some(1) => parts.push(s.clone()),
                Some(k) => parts.push(format!("{k}*{s}")),
                None => parts.push(format!("{c}*{s}")),
            }
        }
        if !self.base.is_zero() || parts.is_empty() {
            parts.push(self.base.to_string());
        }
        write!(f, "{}", parts.join(" + "))
    }
}

/// Evaluates an expression's tokens to an affine form under `env`
/// (variable bindings; `None` marks a variable known to be outside the
/// domain). Identifiers not bound in `env` become:
///
/// * index symbols for the builtin per-thread coordinates
///   (`threadIdx.*` / `blockIdx.*`),
/// * uniform symbols for everything else — kernel parameters, launch
///   dimensions, and body-undefined names (macro constants). The caller
///   guarantees body-*defined* variables are always present in `env`, so
///   a name falling through really is launch-uniform.
pub fn eval_expr(toks: &[Token<'_>], env: &BTreeMap<&str, Option<Affine>>) -> Option<Affine> {
    let mut p = ExprParser { toks, pos: 0, env };
    let v = p.expr()?;
    (p.pos == toks.len()).then_some(v)
}

struct ExprParser<'t, 'a> {
    toks: &'t [Token<'a>],
    pos: usize,
    env: &'t BTreeMap<&'t str, Option<Affine>>,
}

impl<'t, 'a> ExprParser<'t, 'a> {
    fn peek(&self) -> Option<&'t Token<'a>> {
        self.toks.get(self.pos)
    }

    fn expr(&mut self) -> Option<Affine> {
        let mut acc = self.term()?;
        while let Some(t) = self.peek() {
            if t.is_punct("+") {
                self.pos += 1;
                acc = acc.add(&self.term()?);
            } else if t.is_punct("-") {
                self.pos += 1;
                acc = acc.sub(&self.term()?);
            } else {
                break;
            }
        }
        Some(acc)
    }

    fn term(&mut self) -> Option<Affine> {
        let mut acc = self.factor()?;
        while let Some(t) = self.peek() {
            if t.is_punct("*") {
                self.pos += 1;
                acc = acc.mul(&self.factor()?)?;
            } else if t.is_punct("/") || t.is_punct("%") {
                return None; // division leaves the affine domain
            } else {
                break;
            }
        }
        Some(acc)
    }

    fn factor(&mut self) -> Option<Affine> {
        let t = *self.peek()?;
        self.pos += 1;
        if t.is_punct("(") {
            let v = self.expr()?;
            if !self.peek()?.is_punct(")") {
                return None;
            }
            self.pos += 1;
            return Some(v);
        }
        if t.is_punct("-") {
            return Some(self.factor()?.neg());
        }
        match t.kind {
            Kind::Number => {
                let k: i64 = t.text.parse().ok()?; // float/suffixed literals fail
                Some(Affine::uniform(Lin::constant(k)))
            }
            Kind::Ident => {
                // Member access composes the symbol: `blockIdx . x`.
                let full = if self.peek().is_some_and(|t| t.is_punct(".")) {
                    let field = self
                        .toks
                        .get(self.pos + 1)
                        .filter(|f| f.kind == Kind::Ident)?;
                    self.pos += 2;
                    Cow::Owned(format!("{}.{}", t.text, field.text))
                } else {
                    Cow::Borrowed(t.text)
                };
                if self
                    .peek()
                    .is_some_and(|t| t.is_punct("(") || t.is_punct("["))
                {
                    return None; // calls and loads are opaque
                }
                if let Some(bound) = self.env.get(full.as_ref()) {
                    return bound.clone();
                }
                if full.starts_with("threadIdx.") || full.starts_with("blockIdx.") {
                    return Some(Affine::index(&full));
                }
                Some(Affine::uniform(Lin::sym(&full)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn env() -> BTreeMap<&'static str, Option<Affine>> {
        BTreeMap::new()
    }

    fn eval(src: &str, env: &BTreeMap<&str, Option<Affine>>) -> Option<Affine> {
        eval_expr(&tokenize(src), env)
    }

    #[test]
    fn canonical_grid_stride_index_is_affine() {
        let a = eval("blockIdx.x * blockDim.x + threadIdx.x", &env()).unwrap();
        assert_eq!(a.coef_of("blockIdx.x"), Lin::sym("blockDim.x"));
        assert_eq!(a.coef_of("threadIdx.x"), Lin::constant(1));
        assert!(a.base.is_zero());
        assert_eq!(a.to_string(), "blockDim.x*blockIdx.x + threadIdx.x");
    }

    #[test]
    fn parameters_become_uniform_symbols() {
        let a = eval("blockIdx.x * n + 2", &env()).unwrap();
        assert_eq!(a.coef_of("blockIdx.x"), Lin::sym("n"));
        assert_eq!(a.base, Lin::constant(2).add(&Lin::constant(0)));
        assert_eq!(a.base.as_const(), Some(2));
    }

    #[test]
    fn env_bindings_substitute() {
        let mut e = env();
        e.insert("i", Some(eval("blockIdx.x * n", &env()).unwrap()));
        let a = eval("i + 1", &e).unwrap();
        assert_eq!(a.coef_of("blockIdx.x"), Lin::sym("n"));
        assert_eq!(a.base.as_const(), Some(1));
        // A variable marked opaque poisons every use.
        e.insert("j", None);
        assert!(eval("j + 1", &e).is_none());
    }

    #[test]
    fn out_of_domain_forms_are_none() {
        assert!(eval("n / 2", &env()).is_none());
        assert!(eval("threadIdx.x * threadIdx.x", &env()).is_none());
        assert!(eval("f(x)", &env()).is_none());
        assert!(eval("a[i]", &env()).is_none());
        assert!(eval("2.0f", &env()).is_none());
    }

    #[test]
    fn subtraction_cancels_terms() {
        let a = eval("threadIdx.x + n", &env()).unwrap();
        let b = eval("threadIdx.x", &env()).unwrap();
        let d = a.sub(&b);
        assert!(d.coef.is_empty());
        assert_eq!(d.base, Lin::sym("n"));
    }

    #[test]
    fn nonneg_proofs_use_dimension_floors() {
        // blockDim.x - 1 >= 0 because launch dimensions are at least 1.
        let d = Lin::sym("blockDim.x").sub(&Lin::constant(1));
        assert!(d.provably_nonneg());
        // n - 1 is not provable: n may be 0.
        assert!(!Lin::sym("n").sub(&Lin::constant(1)).provably_nonneg());
        // n - n = 0 is provable.
        assert!(Lin::sym("n").sub(&Lin::sym("n")).provably_nonneg());
        // -n is not.
        assert!(!Lin::sym("n").scale(-1).provably_nonneg());
    }

    #[test]
    fn concrete_evaluation() {
        let a = eval("blockIdx.x * blockDim.x + threadIdx.x", &env()).unwrap();
        let mut vals = BTreeMap::new();
        vals.insert("blockIdx.x".to_string(), 3);
        vals.insert("blockDim.x".to_string(), 8);
        vals.insert("threadIdx.x".to_string(), 5);
        assert_eq!(a.eval(&vals), Some(29));
    }

    #[test]
    fn display_renders_readable_forms() {
        assert_eq!(Lin::constant(0).to_string(), "0");
        assert_eq!(
            Lin::sym("n").scale(2).add(&Lin::constant(-1)).to_string(),
            "2*n - 1"
        );
        let a = eval("2 * blockIdx.x + 3", &env()).unwrap();
        assert_eq!(a.to_string(), "2*blockIdx.x + 3");
    }
}
