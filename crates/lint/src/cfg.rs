//! CFG-lite: a structured statement tree over one function body.
//!
//! The flat brace-depth guard tracking of the original rule engine
//! could not tell an `if` arm from an `else` arm, so a guard dropped on
//! one path stayed dropped on the other, and a mutation reachable only
//! when an append was skipped looked identical to one dominated by it.
//! This module parses the significant tokens of a function body into a
//! tree of:
//!
//! * [`Node::Run`]    — straight-line tokens;
//! * [`Node::Scope`]  — a plain `{ … }` block (including closure
//!   bodies, which are treated as executing inline — right for the
//!   immediately-invoked `(|| { … })()` logging idiom, a documented
//!   blind spot for stored callbacks);
//! * [`Node::Branch`] — `if`/`else if`/`else` chains and `match`
//!   expressions, one arm per alternative, with exhaustiveness noted
//!   (a `match` is always exhaustive; an `if` only with a final
//!   `else`);
//! * [`Node::Loop`]   — `while`/`for`/`loop` bodies, which dataflow
//!   must treat as executing zero or more times.
//!
//! Rules walk the tree forking state per arm and joining at the merge
//! point: union for "what might be held" (lock-order), intersection
//! for "what has definitely happened" (wal-before-mutation). Early
//! exits (`return`, `break`, `continue`) divert a path out of the
//! join so the code after a diverging arm is only charged with the
//! surviving paths.

use crate::lexer::Token;

/// One node of the statement tree. Lifetimes borrow the lexed source.
pub enum Node<'a> {
    /// Straight-line significant tokens.
    Run(Vec<Token<'a>>),
    /// A nested plain block. `diverging` marks a `let … else { … }`
    /// block, whose state must not leak past the statement (the block
    /// only runs on the refuted-pattern path, which diverges).
    Scope {
        nodes: Vec<Node<'a>>,
        diverging: bool,
    },
    /// An `if`-chain or `match`: one `Vec<Node>` per arm.
    Branch {
        arms: Vec<Vec<Node<'a>>>,
        exhaustive: bool,
    },
    /// A `while`/`for`/`loop` body.
    Loop(Vec<Node<'a>>),
}

/// Parse a function body (significant tokens, braces stripped by the
/// caller's segmentation) into a statement tree.
pub fn build<'a>(body: &[Token<'a>]) -> Vec<Node<'a>> {
    let mut i = 0;
    parse_nodes(body, &mut i, false)
}

/// Parse until the end of the slice, or — when `until_close` — until
/// the `}` matching an already-consumed `{` (the `}` is consumed).
fn parse_nodes<'a>(toks: &[Token<'a>], i: &mut usize, until_close: bool) -> Vec<Node<'a>> {
    let mut nodes = Vec::new();
    let mut run: Vec<Token<'a>> = Vec::new();
    macro_rules! flush {
        () => {
            if !run.is_empty() {
                nodes.push(Node::Run(std::mem::take(&mut run)));
            }
        };
    }
    while *i < toks.len() {
        let t = toks[*i];
        match t.text {
            "}" if until_close => {
                *i += 1;
                flush!();
                return nodes;
            }
            "{" => {
                *i += 1;
                flush!();
                let inner = parse_nodes(toks, i, true);
                nodes.push(Node::Scope {
                    nodes: inner,
                    diverging: false,
                });
            }
            "if" => {
                flush!();
                // The condition's tokens execute before the branch, so
                // they must land in a Run node ahead of it.
                let mut cond = Vec::new();
                let node = parse_if(toks, i, &mut cond);
                if !cond.is_empty() {
                    nodes.push(Node::Run(cond));
                }
                nodes.push(node);
            }
            "match" => {
                *i += 1;
                // Scrutinee: up to the `{` at bracket depth 0.
                collect_header(toks, i, &mut run);
                flush!();
                if consume(toks, i, "{") {
                    nodes.push(parse_match_arms(toks, i));
                }
            }
            "while" | "for" => {
                *i += 1;
                collect_header(toks, i, &mut run);
                flush!();
                if consume(toks, i, "{") {
                    let body = parse_nodes(toks, i, true);
                    nodes.push(Node::Loop(body));
                }
            }
            "loop" => {
                *i += 1;
                flush!();
                if consume(toks, i, "{") {
                    let body = parse_nodes(toks, i, true);
                    nodes.push(Node::Loop(body));
                }
            }
            "else" => {
                // An `else` outside an if-chain is `let … else { … }`.
                *i += 1;
                flush!();
                if consume(toks, i, "{") {
                    let inner = parse_nodes(toks, i, true);
                    nodes.push(Node::Scope {
                        nodes: inner,
                        diverging: true,
                    });
                }
            }
            _ => {
                run.push(t);
                *i += 1;
            }
        }
    }
    flush!();
    nodes
}

/// Consume `text` if it is the next token.
fn consume(toks: &[Token<'_>], i: &mut usize, text: &str) -> bool {
    if *i < toks.len() && toks[*i].text == text {
        *i += 1;
        true
    } else {
        false
    }
}

/// Collect condition/scrutinee/iterator tokens into `run`, stopping at
/// the body's `{` (left unconsumed). Braces inside parens or brackets
/// (closures, struct literals in parenthesized expressions) belong to
/// the header.
fn collect_header<'a>(toks: &[Token<'a>], i: &mut usize, run: &mut Vec<Token<'a>>) {
    let mut depth = 0i32;
    while *i < toks.len() {
        let t = toks[*i];
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return,
            _ => {}
        }
        run.push(t);
        *i += 1;
    }
}

/// Parse a full `if … { } [else if … { }]* [else { }]` chain starting
/// at the `if` token. An `else if` becomes a nested `Branch` inside
/// the else arm, so dataflow joins compose naturally.
fn parse_if<'a>(toks: &[Token<'a>], i: &mut usize, run: &mut Vec<Token<'a>>) -> Node<'a> {
    debug_assert_eq!(toks[*i].text, "if");
    *i += 1;
    collect_header(toks, i, run);
    let then_arm = if consume(toks, i, "{") {
        parse_nodes(toks, i, true)
    } else {
        Vec::new()
    };
    if *i < toks.len() && toks[*i].text == "else" {
        *i += 1;
        if *i < toks.len() && toks[*i].text == "if" {
            // `else if`: the chain's tail is its own branch. Its
            // condition tokens execute only on this arm, so they go in
            // the arm, not the outer run.
            let mut tail_run = Vec::new();
            let tail = parse_if(toks, i, &mut tail_run);
            let mut else_arm = Vec::new();
            if !tail_run.is_empty() {
                else_arm.push(Node::Run(tail_run));
            }
            let exhaustive = matches!(
                tail,
                Node::Branch {
                    exhaustive: true,
                    ..
                }
            );
            else_arm.push(tail);
            return Node::Branch {
                arms: vec![then_arm, else_arm],
                exhaustive,
            };
        }
        let else_arm = if consume(toks, i, "{") {
            parse_nodes(toks, i, true)
        } else {
            Vec::new()
        };
        return Node::Branch {
            arms: vec![then_arm, else_arm],
            exhaustive: true,
        };
    }
    Node::Branch {
        arms: vec![then_arm],
        exhaustive: false,
    }
}

/// Parse match arms after the opening `{`. Each arm's pattern (and any
/// `if` guard) rides at the head of the arm as a `Run`; a braced arm
/// body parses recursively, an expression arm is re-parsed as nodes so
/// nested `if`/`match` inside it still branch.
fn parse_match_arms<'a>(toks: &[Token<'a>], i: &mut usize) -> Node<'a> {
    let mut arms = Vec::new();
    loop {
        // End of the match block?
        if *i >= toks.len() {
            break;
        }
        if toks[*i].text == "}" {
            *i += 1;
            break;
        }
        // Pattern (+ guard) up to `=>` at depth 0.
        let mut pat = Vec::new();
        let mut depth = 0i32;
        while *i < toks.len() {
            let t = toks[*i];
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=>" if depth == 0 => break,
                _ => {}
            }
            pat.push(t);
            *i += 1;
        }
        if !consume(toks, i, "=>") {
            break;
        }
        let mut arm = Vec::new();
        if !pat.is_empty() {
            arm.push(Node::Run(pat));
        }
        if *i < toks.len() && toks[*i].text == "{" {
            *i += 1;
            arm.extend(parse_nodes(toks, i, true));
            consume(toks, i, ",");
        } else {
            // Expression arm: tokens to the `,` (or closing `}`) at
            // depth 0, then re-parse so inner structure survives.
            let mut expr = Vec::new();
            let mut d = 0i32;
            while *i < toks.len() {
                let t = toks[*i];
                match t.text {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" => d -= 1,
                    "}" => {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                    }
                    "," if d == 0 => {
                        *i += 1;
                        break;
                    }
                    _ => {}
                }
                expr.push(t);
                *i += 1;
            }
            let mut j = 0;
            arm.extend(parse_nodes(&expr, &mut j, false));
        }
        arms.push(arm);
    }
    Node::Branch {
        arms,
        exhaustive: true,
    }
}
