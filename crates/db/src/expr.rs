//! Predicates for WHERE clauses, including the string `LIKE` the switch
//! cannot evaluate (§4.1's running example).

use serde::{Deserialize, Serialize};

/// Integer comparison operators (signed SQL semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntCmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl IntCmp {
    /// Evaluate.
    #[inline]
    pub fn eval(self, v: i64, lit: i64) -> bool {
        match self {
            IntCmp::Gt => v > lit,
            IntCmp::Ge => v >= lit,
            IntCmp::Lt => v < lit,
            IntCmp::Le => v <= lit,
            IntCmp::Eq => v == lit,
            IntCmp::Ne => v != lit,
        }
    }
}

/// A SQL `LIKE` pattern with `%` wildcards (no `_` support — the paper's
/// example only uses `%`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LikePattern {
    segments: Vec<String>,
    anchored_start: bool,
    anchored_end: bool,
}

impl LikePattern {
    /// Parse a pattern like `"e%s"`, `"%chrome%"`, `"http://%"`.
    pub fn parse(pattern: &str) -> Self {
        let anchored_start = !pattern.starts_with('%');
        let anchored_end = !pattern.ends_with('%');
        let segments = pattern.split('%').filter(|s| !s.is_empty()).map(str::to_string).collect();
        Self { segments, anchored_start, anchored_end }
    }

    /// Does `text` match the pattern?
    pub fn matches(&self, text: &str) -> bool {
        if self.segments.is_empty() {
            // Pure "%...%" of wildcards matches anything; a fully empty
            // pattern matches only the empty string.
            return !self.anchored_start && !self.anchored_end || text.is_empty();
        }
        let mut pos = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            let first = i == 0;
            let last = i == self.segments.len() - 1;
            if first && self.anchored_start {
                if !text[pos..].starts_with(seg.as_str()) {
                    return false;
                }
                pos += seg.len();
            } else if last && self.anchored_end {
                let rest = &text[pos..];
                if !rest.ends_with(seg.as_str()) || rest.len() < seg.len() {
                    return false;
                }
                pos = text.len();
            } else {
                match text[pos..].find(seg.as_str()) {
                    Some(at) => pos += at + seg.len(),
                    None => return false,
                }
            }
        }
        true
    }
}

/// A WHERE-clause predicate tree (monotone: And/Or over atoms; negations
/// are pushed into the comparison operators, as §4.1 assumes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DbPredicate {
    /// Integer comparison against a literal.
    CmpInt {
        /// Column index in the table schema.
        col: usize,
        /// Comparison operator.
        op: IntCmp,
        /// Literal.
        lit: i64,
    },
    /// String LIKE — not switch-evaluable.
    Like {
        /// Column index in the table schema.
        col: usize,
        /// The pattern.
        pattern: LikePattern,
    },
    /// Conjunction.
    And(Vec<DbPredicate>),
    /// Disjunction.
    Or(Vec<DbPredicate>),
}

impl DbPredicate {
    /// All column indices the predicate reads.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            DbPredicate::CmpInt { col, .. } | DbPredicate::Like { col, .. } => out.push(*col),
            DbPredicate::And(xs) | DbPredicate::Or(xs) => {
                for x in xs {
                    x.collect_columns(out);
                }
            }
        }
    }

    /// The same predicate with every column index `c` replaced by
    /// `map(c)`.
    pub fn remap(&self, map: &impl Fn(usize) -> usize) -> DbPredicate {
        match self {
            DbPredicate::CmpInt { col, op, lit } => {
                DbPredicate::CmpInt { col: map(*col), op: *op, lit: *lit }
            }
            DbPredicate::Like { col, pattern } => {
                DbPredicate::Like { col: map(*col), pattern: pattern.clone() }
            }
            DbPredicate::And(xs) => DbPredicate::And(xs.iter().map(|x| x.remap(map)).collect()),
            DbPredicate::Or(xs) => DbPredicate::Or(xs.iter().map(|x| x.remap(map)).collect()),
        }
    }

    /// Does the predicate contain any non-switch-evaluable atom?
    pub fn has_external_atoms(&self) -> bool {
        match self {
            DbPredicate::CmpInt { .. } => false,
            DbPredicate::Like { .. } => true,
            DbPredicate::And(xs) | DbPredicate::Or(xs) => {
                xs.iter().any(DbPredicate::has_external_atoms)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_cmp_ops() {
        assert!(IntCmp::Gt.eval(5, 4));
        assert!(!IntCmp::Gt.eval(4, 4));
        assert!(IntCmp::Ge.eval(4, 4));
        assert!(IntCmp::Lt.eval(-5, 0), "signed semantics");
        assert!(IntCmp::Le.eval(0, 0));
        assert!(IntCmp::Eq.eval(7, 7));
        assert!(IntCmp::Ne.eval(7, 8));
    }

    #[test]
    fn like_paper_example() {
        // name LIKE 'e%s' — starts with e, ends with s.
        let p = LikePattern::parse("e%s");
        assert!(p.matches("eggs"));
        assert!(p.matches("es"));
        assert!(!p.matches("eggo"));
        assert!(!p.matches("legs"));
        assert!(!p.matches("e"), "single char cannot satisfy both anchors");
    }

    #[test]
    fn like_contains() {
        let p = LikePattern::parse("%chrome%");
        assert!(p.matches("google chrome 99"));
        assert!(!p.matches("firefox"));
    }

    #[test]
    fn like_prefix_suffix() {
        assert!(LikePattern::parse("http://%").matches("http://a.example"));
        assert!(!LikePattern::parse("http://%").matches("https://a.example"));
        assert!(LikePattern::parse("%.html").matches("index.html"));
        assert!(!LikePattern::parse("%.html").matches("index.htm"));
    }

    #[test]
    fn like_multi_segment() {
        let p = LikePattern::parse("a%b%c");
        assert!(p.matches("aXbYc"));
        assert!(p.matches("abc"));
        assert!(!p.matches("acb"));
        assert!(!p.matches("aXbY"));
    }

    #[test]
    fn like_all_wildcards() {
        assert!(LikePattern::parse("%").matches("anything"));
        assert!(LikePattern::parse("%").matches(""));
        assert!(LikePattern::parse("").matches(""));
        assert!(!LikePattern::parse("").matches("x"));
    }

    #[test]
    fn predicate_columns_and_externals() {
        let p = DbPredicate::Or(vec![
            DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 5 },
            DbPredicate::And(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 4 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("e%s") },
            ]),
        ]);
        assert_eq!(p.columns(), vec![0, 1, 2]);
        assert!(p.has_external_atoms());
        let q = DbPredicate::CmpInt { col: 0, op: IntCmp::Lt, lit: 10 };
        assert!(!q.has_external_atoms());
    }
}
