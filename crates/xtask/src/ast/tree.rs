//! Token trees: the flat token stream nested by delimiter.
//!
//! Mirrors `proc-macro2`'s `TokenTree` shape: a tree is either a leaf
//! token or a delimited group containing subtrees. Item parsing and every
//! expression-level scan walk these trees, so brace/bracket/paren matching
//! is done exactly once, here.

use super::lex::{Kind, Token};

/// A leaf token or a delimited group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A `(…)`, `[…]` or `{…}` group.
    Group(Group),
}

/// A delimited group of subtrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Opening delimiter character: `(`, `[` or `{`.
    pub delim: char,
    /// The contained trees.
    pub trees: Vec<Tree>,
    /// 0-based line of the opening delimiter.
    pub line: usize,
}

impl Tree {
    /// The leaf token, if this is a leaf.
    #[must_use]
    pub fn leaf(&self) -> Option<&Token> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is a group.
    #[must_use]
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Leaf(_) => None,
            Tree::Group(g) => Some(g),
        }
    }

    /// Whether this is an identifier leaf with this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_ident(s))
    }

    /// Whether this is a punctuation leaf with this text.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_punct(s))
    }

    /// 0-based line of this tree's first token.
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }
}

impl Group {
    /// Depth-first iterator over every leaf token in this group, in source
    /// order, descending into subgroups (delimiters themselves excluded).
    pub fn leaves<'a>(&'a self, out: &mut Vec<&'a Token>) {
        for t in &self.trees {
            match t {
                Tree::Leaf(tok) => out.push(tok),
                Tree::Group(g) => g.leaves(out),
            }
        }
    }
}

/// Builds a forest of trees from a token stream. Unbalanced closers are
/// dropped and unclosed groups are closed at end-of-input, so malformed
/// source degrades gracefully instead of failing the lint run.
pub fn build(tokens: &[Token]) -> Vec<Tree> {
    let mut stack: Vec<Group> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in tokens {
        match tok.kind {
            Kind::Open => stack.push(Group {
                delim: tok.text.chars().next().unwrap_or('('),
                trees: Vec::new(),
                line: tok.line,
            }),
            Kind::Close => {
                if let Some(g) = stack.pop() {
                    let tree = Tree::Group(g);
                    match stack.last_mut() {
                        Some(parent) => parent.trees.push(tree),
                        None => top.push(tree),
                    }
                }
            }
            _ => {
                let tree = Tree::Leaf(tok.clone());
                match stack.last_mut() {
                    Some(parent) => parent.trees.push(tree),
                    None => top.push(tree),
                }
            }
        }
    }
    while let Some(g) = stack.pop() {
        let tree = Tree::Group(g);
        match stack.last_mut() {
            Some(parent) => parent.trees.push(tree),
            None => top.push(tree),
        }
    }
    top
}

/// Renders a slice of trees back to compact text (used for type strings in
/// the item index, e.g. `Result<Vec<i32>,CodecError>`).
#[must_use]
pub fn to_text(trees: &[Tree]) -> String {
    let mut out = String::new();
    render(trees, &mut out);
    out
}

fn render(trees: &[Tree], out: &mut String) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                // Separate adjacent word-ish tokens so `mut self` does not
                // fuse into `mutself`.
                if out
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && tok
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    out.push(' ');
                }
                out.push_str(&tok.text);
            }
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    '[' => ('[', ']'),
                    '{' => ('{', '}'),
                    _ => ('(', ')'),
                };
                out.push(open);
                render(&g.trees, out);
                out.push(close);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lex::lex;
    use super::*;

    #[test]
    fn nesting_matches_delimiters() {
        let trees = build(&lex("fn f(a: [u8; 4]) { g(1, (2)); }"));
        // fn, f, (…), {…}
        assert_eq!(trees.len(), 4);
        let body = trees[3].group().expect("body group");
        assert_eq!(body.delim, '{');
        let call_args = body.trees[1].group().expect("call args");
        assert_eq!(call_args.delim, '(');
        assert!(call_args.trees.iter().any(|t| t.is_punct(",")));
    }

    #[test]
    fn unbalanced_input_does_not_lose_tokens() {
        let trees = build(&lex("a } b { c"));
        let mut leaves = Vec::new();
        for t in &trees {
            match t {
                Tree::Leaf(tok) => leaves.push(tok.text.clone()),
                Tree::Group(g) => {
                    let mut inner = Vec::new();
                    g.leaves(&mut inner);
                    leaves.extend(inner.iter().map(|t| t.text.clone()));
                }
            }
        }
        assert_eq!(leaves, vec!["a", "b", "c"]);
    }

    #[test]
    fn to_text_round_trips_types() {
        let trees = build(&lex("Result < Vec < i32 > , CodecError >"));
        assert_eq!(to_text(&trees), "Result<Vec<i32>,CodecError>");
    }
}
