//! `lynceus-lint` — a repo-specific determinism & concurrency analyzer.
//!
//! The workspace's load-bearing guarantee is that all three path engines,
//! every thread count, pool capacity and scheduling policy produce
//! **bit-identical decisions**. The equivalence suites enforce that
//! dynamically, but only for the seeds they happen to run; this crate is the
//! static gate in front of them. It scans the workspace source (a line/token
//! scanner over comment- and literal-masked text — `std`-only, no `syn`,
//! because the build container has no registry access) and enforces the
//! invariants that keep the dynamic guarantee true:
//!
//! | Rule id | Invariant |
//! | --- | --- |
//! | [`FLOAT_ORDER`] | No `partial_cmp` float comparisons: a NaN from a bad oracle turns them into a panic (`.expect`) or an inconsistent sort. Use `f64::total_cmp` or `core::acquisition::score_cmp`. |
//! | [`HASH_ITERATION`] | No `HashMap`/`HashSet` *iteration* in the decision crates (`core`, `learners`) — including through the lock guard of a mutex-held map, the `core::transfer` job-key store pattern: hash iteration order is nondeterministic across runs and toolchains. |
//! | [`WALL_CLOCK`] | No `Instant::now`/`SystemTime`/`thread::sleep` outside `crates/bench`: wall-clock reads feeding a decision make it irreproducible, and retry backoff must be counted in scheduler steps, not slept out. |
//! | [`THREAD_SPAWN`] | Threads are spawned only by `core::pool` and `core::service`: every other thread would escape the shared worker budget and the panic-containment lanes. |
//! | [`ATOMIC_ORDERING`] | Every atomic `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site carries an adjacent `// ordering:` justification, so memory-ordering choices are audited, not inherited. |
//! | [`NO_PANIC`] | No `unwrap()`/`expect()` in the scheduler/engine panic-containment paths (`core::{pool,service,lynceus}`): a stray panic there poisons locks that outlive the contained session. |
//! | [`FORBID_UNSAFE`] | Every crate root declares `#![forbid(unsafe_code)]`. |
//!
//! False positives are silenced **in-source** with a justified allow tag on
//! the offending line or the line above:
//!
//! ```text
//! // lint: allow(wall-clock) -- watchdog only; never feeds a decision
//! ```
//!
//! A tag without a `-- reason` is itself a violation: the justification is
//! the point. Code under `#[cfg(test)]` is exempt from the path-scoped
//! rules (`hash-iteration`, `no-panic`) but not from the others — an
//! unjustified atomic ordering is worth auditing even in a test oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

/// `partial_cmp`-based float comparison (NaN panic / inconsistent order).
pub const FLOAT_ORDER: &str = "float-order";
/// Hash-container iteration in a decision path.
pub const HASH_ITERATION: &str = "hash-iteration";
/// Wall-clock read outside the bench crate.
pub const WALL_CLOCK: &str = "wall-clock";
/// Thread spawned outside `core::pool`/`core::service`.
pub const THREAD_SPAWN: &str = "thread-spawn";
/// Atomic memory ordering without an adjacent `// ordering:` justification.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// `unwrap()`/`expect()` in a panic-containment path.
pub const NO_PANIC: &str = "no-panic";
/// Crate root missing `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";

/// Every rule id, in reporting order.
pub const RULES: &[&str] = &[
    FLOAT_ORDER,
    HASH_ITERATION,
    WALL_CLOCK,
    THREAD_SPAWN,
    ATOMIC_ORDERING,
    NO_PANIC,
    FORBID_UNSAFE,
];

/// One finding: a rule violated at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Source text split into parallel per-line *code* and *comment* channels,
/// with string/char-literal contents and comments blanked out of the code
/// channel (so a rule token inside a string or a doc comment never fires),
/// plus a per-line `#[cfg(test)]`-block marker.
#[derive(Debug)]
pub struct MaskedSource {
    /// Code channel: literals' contents and comments replaced by spaces.
    pub code: Vec<String>,
    /// Comment channel: everything except comment text replaced by spaces.
    pub comments: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` item's brace block.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

/// Masks a source file into its code and comment channels.
#[must_use]
pub fn mask(source: &str) -> MaskedSource {
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comments = String::with_capacity(source.len());
    let mut state = LexState::Code;
    let mut i = 0usize;
    // Emits to one channel and blanks the other (newlines go to both so the
    // line structure stays aligned).
    let push = |code: &mut String, comments: &mut String, c: char, to_code: bool| {
        if c == '\n' {
            code.push('\n');
            comments.push('\n');
        } else if to_code {
            code.push(c);
            comments.push(' ');
        } else {
            code.push(' ');
            comments.push(c);
        }
    };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            LexState::Code => {
                if c == '/' && next == Some('/') {
                    state = LexState::LineComment;
                    push(&mut code, &mut comments, c, false);
                } else if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(1);
                    push(&mut code, &mut comments, c, false);
                    push(&mut code, &mut comments, '*', false);
                    i += 1;
                } else if c == '"' {
                    state = LexState::Str;
                    push(&mut code, &mut comments, c, true);
                } else if is_raw_string_start(&chars, i) {
                    // r"…", r#"…"#, br"…": count the hashes after the `r`.
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'r') {
                        // `br` prefix: emit the `b` we matched as `c`.
                        push(&mut code, &mut comments, c, true);
                        j += 1;
                    }
                    push(&mut code, &mut comments, 'r', true);
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        push(&mut code, &mut comments, '#', true);
                        hashes += 1;
                        j += 1;
                    }
                    // The opening quote.
                    push(&mut code, &mut comments, '"', true);
                    state = LexState::RawStr(hashes);
                    i = j;
                } else if c == '\'' && is_char_literal_start(&chars, i) {
                    state = LexState::CharLit;
                    push(&mut code, &mut comments, c, true);
                } else {
                    push(&mut code, &mut comments, c, true);
                }
            }
            LexState::LineComment => {
                if c == '\n' {
                    state = LexState::Code;
                }
                push(&mut code, &mut comments, c, false);
            }
            LexState::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(depth + 1);
                    push(&mut code, &mut comments, c, false);
                    push(&mut code, &mut comments, '*', false);
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    push(&mut code, &mut comments, c, false);
                    push(&mut code, &mut comments, '/', false);
                    i += 1;
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                } else {
                    push(&mut code, &mut comments, c, false);
                }
            }
            LexState::Str => {
                if c == '\\' {
                    // Escape: blank both chars from the code channel (the
                    // escaped char could be a quote).
                    code.push(' ');
                    comments.push(' ');
                    if let Some(n) = next {
                        push(
                            &mut code,
                            &mut comments,
                            if n == '\n' { '\n' } else { ' ' },
                            true,
                        );
                        i += 1;
                    }
                } else if c == '"' {
                    state = LexState::Code;
                    push(&mut code, &mut comments, c, true);
                } else {
                    push(
                        &mut code,
                        &mut comments,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                }
            }
            LexState::RawStr(hashes) => {
                if c == '"' && raw_string_ends(&chars, i, hashes) {
                    push(&mut code, &mut comments, c, true);
                    for _ in 0..hashes {
                        push(&mut code, &mut comments, '#', true);
                    }
                    i += hashes as usize;
                    state = LexState::Code;
                } else {
                    push(
                        &mut code,
                        &mut comments,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                }
            }
            LexState::CharLit => {
                if c == '\\' {
                    code.push(' ');
                    comments.push(' ');
                    if next.is_some() {
                        push(&mut code, &mut comments, ' ', true);
                        i += 1;
                    }
                } else if c == '\'' {
                    state = LexState::Code;
                    push(&mut code, &mut comments, c, true);
                } else {
                    push(
                        &mut code,
                        &mut comments,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                }
            }
        }
        i += 1;
    }
    let code_lines: Vec<String> = code.lines().map(str::to_owned).collect();
    let comment_lines: Vec<String> = comments.lines().map(str::to_owned).collect();
    let in_test = mark_test_blocks(&code_lines);
    MaskedSource {
        code: code_lines,
        comments: comment_lines,
        in_test,
    }
}

/// True when the char at `i` starts a raw-string prefix (`r"`, `r#`, `br"`,
/// `br#`) that is not the tail of a longer identifier.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let after_prefix = match (chars.get(i), chars.get(i + 1)) {
        (Some('r'), _) => i + 1,
        (Some('b'), Some('r')) => i + 2,
        _ => return false,
    };
    let mut j = after_prefix;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// True when the terminating quote of a raw string with `hashes` hashes sits
/// at `i` (i.e. `"` followed by exactly-at-least that many `#`).
fn raw_string_ends(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes `'c'` / `'\n'` char literals from `'static` lifetimes.
fn is_char_literal_start(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks every line inside a `#[cfg(test)]` item's brace block (attribute
/// line through closing brace).
fn mark_test_blocks(code_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code_lines.len()];
    let mut line = 0usize;
    while line < code_lines.len() {
        if !code_lines[line].contains("#[cfg(test)]") {
            line += 1;
            continue;
        }
        let start = line;
        // Find the block opened after the attribute and skip to its close.
        let mut depth = 0i64;
        let mut opened = false;
        let mut end = code_lines.len() - 1;
        'scan: for (l, text) in code_lines.iter().enumerate().skip(start) {
            for c in text.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // An un-braced `#[cfg(test)]` item (e.g. a lone `use`)
                    // ends at the first statement-level semicolon.
                    ';' if !opened => {
                        end = l;
                        break 'scan;
                    }
                    _ => {}
                }
                if opened && depth == 0 {
                    end = l;
                    break 'scan;
                }
            }
        }
        for flag in in_test.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        line = end + 1;
    }
    in_test
}

/// An in-source `// lint: allow(rule, …) -- reason` tag.
struct AllowTag {
    rules: Vec<String>,
    has_reason: bool,
}

fn parse_allow_tag(comment: &str) -> Option<AllowTag> {
    let start = comment.find("lint: allow(")?;
    let rest = &comment[start + "lint: allow(".len()..];
    let close = rest.find(')')?;
    let rules = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_start();
    let has_reason = tail
        .strip_prefix("--")
        .is_some_and(|reason| !reason.trim().is_empty());
    Some(AllowTag { rules, has_reason })
}

/// How an allow tag applies to a rule at a line.
enum AllowStatus {
    /// No tag mentions this rule here.
    None,
    /// Tagged with a justification: suppress the finding.
    Justified,
    /// Tagged but the `-- reason` is missing: still a finding.
    Unjustified,
}

fn allow_status(masked: &MaskedSource, line_idx: usize, rule: &str) -> AllowStatus {
    let candidates = [Some(line_idx), line_idx.checked_sub(1)];
    for idx in candidates.into_iter().flatten() {
        if let Some(tag) = masked.comments.get(idx).and_then(|c| parse_allow_tag(c)) {
            if tag.rules.iter().any(|r| r == rule) {
                return if tag.has_reason {
                    AllowStatus::Justified
                } else {
                    AllowStatus::Unjustified
                };
            }
        }
    }
    AllowStatus::None
}

/// Records a finding unless a justified allow tag covers it; a tag without a
/// reason is reported as its own diagnostic.
fn report(
    out: &mut Vec<Violation>,
    masked: &MaskedSource,
    path: &str,
    line_idx: usize,
    rule: &'static str,
    message: &str,
) {
    let message = match allow_status(masked, line_idx, rule) {
        AllowStatus::Justified => return,
        AllowStatus::Unjustified => {
            format!("{message} (allow tag present but missing its `-- reason` justification)")
        }
        AllowStatus::None => message.to_owned(),
    };
    out.push(Violation {
        path: path.to_owned(),
        line: line_idx + 1,
        rule,
        message,
    });
}

/// True when `word` occurs in `line` delimited by non-identifier chars.
fn contains_word(line: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0
            || !line[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let right_ok = !line[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The identifier immediately preceding byte offset `dot` in `line` (the
/// receiver of a `.method()` call), if any.
fn receiver_before(line: &str, dot: usize) -> Option<&str> {
    let head = &line[..dot];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + c_len(head, p));
    let ident = &head[start..];
    (!ident.is_empty()).then_some(ident)
}

fn c_len(s: &str, byte_pos: usize) -> usize {
    s[byte_pos..].chars().next().map_or(1, char::len_utf8)
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

fn normalize(path: &str) -> String {
    let p = path.replace('\\', "/");
    p.strip_prefix("./").unwrap_or(&p).to_owned()
}

/// Decision-path crates: the rule 2 scope. `crates/core/src/` covers the
/// whole decision spine including `core::transfer` — harvested knowledge is
/// replayed into live sessions, so a nondeterministically-ordered job-key
/// map there would leak straight into decisions.
fn in_decision_crate(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/learners/src/")
}

/// Panic-containment files: the rule 6 scope. The whole serve crate is in
/// scope — a connection handler that panics on hostile bytes is a remote
/// denial of service, so the HTTP layer holds the same no-panic bar as the
/// scheduler spine.
fn in_containment_path(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/pool.rs" | "crates/core/src/service.rs" | "crates/core/src/lynceus.rs"
    ) || path.starts_with("crates/serve/src/")
}

/// Modules allowed to spawn threads (rule 4). The serve server spawns its
/// handler and drain threads; everything else in serve goes through it.
fn may_spawn(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/pool.rs" | "crates/core/src/service.rs" | "crates/serve/src/server.rs"
    )
}

/// Crate roots that must carry `#![forbid(unsafe_code)]` (rule 7).
fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    let mut parts = path.split('/');
    matches!(
        (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next()
        ),
        (Some("crates"), Some(_), Some("src"), Some("lib.rs"), None)
    )
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn rule_float_order(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    for (idx, line) in masked.code.iter().enumerate() {
        if contains_word(line, "partial_cmp") {
            report(
                out,
                masked,
                path,
                idx,
                FLOAT_ORDER,
                "float comparison via partial_cmp: a NaN turns this into a panic or an \
                 inconsistent order — use f64::total_cmp or core::acquisition::score_cmp",
            );
        }
    }
}

/// Methods whose results depend on a hash container's iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

fn rule_hash_iteration(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    if !in_decision_crate(path) {
        return;
    }
    // Hash-typed tokens: the std names plus any file-local alias whose
    // definition mentions one.
    let mut hash_types: Vec<String> = vec!["HashMap".to_owned(), "HashSet".to_owned()];
    let mut idx = 0;
    while idx < masked.code.len() {
        let line = &masked.code[idx];
        if let Some(pos) = line.find("type ") {
            let after = &line[pos + "type ".len()..];
            let name: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                // Gather the alias definition through its semicolon.
                let mut stmt = String::new();
                for def_line in &masked.code[idx..] {
                    stmt.push_str(def_line);
                    stmt.push(' ');
                    if def_line.contains(';') {
                        break;
                    }
                }
                if stmt.contains("HashMap") || stmt.contains("HashSet") {
                    hash_types.push(name);
                }
            }
        }
        idx += 1;
    }
    // Identifiers bound to a hash type anywhere in the file: `let` bindings
    // and `name: Type` field/parameter declarations.
    let mut hash_names: Vec<String> = Vec::new();
    for line in &masked.code {
        if !hash_types.iter().any(|t| contains_word(line, t)) {
            continue;
        }
        if let Some(pos) = line.find("let ") {
            let after = line[pos + "let ".len()..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            let name: String = after
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                hash_names.push(name);
            }
        }
        for (colon, _) in line.match_indices(':') {
            if !line[colon + 1..]
                .split(';')
                .next()
                .is_some_and(|ty| hash_types.iter().any(|t| contains_word(ty, t)))
            {
                continue;
            }
            if let Some(name) = receiver_before(line, colon) {
                hash_names.push(name.to_owned());
            }
        }
    }
    // Lock guards of hash containers inherit hashness: `core::transfer`-style
    // stores keep their job-key map behind a `Mutex`, and iterating the map
    // through `let guard = jobs.lock()…` is the same nondeterministic order
    // under another name.
    let mut guard_names: Vec<String> = Vec::new();
    for line in &masked.code {
        let Some(pos) = line.find("let ") else {
            continue;
        };
        let after = line[pos + "let ".len()..].trim_start();
        let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
        let name: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let Some(eq) = line.find('=') else {
            continue;
        };
        let rhs = &line[eq + 1..];
        if rhs.contains(".lock(") && hash_names.iter().any(|n| contains_word(rhs, n)) {
            guard_names.push(name);
        }
    }
    hash_names.extend(guard_names);
    for (idx, line) in masked.code.iter().enumerate() {
        if masked.in_test[idx] {
            continue;
        }
        let mut flagged = false;
        for method in HASH_ITER_METHODS {
            for (pos, _) in line.match_indices(method) {
                let receiver = receiver_before(line, pos);
                if receiver.is_some_and(|r| {
                    hash_names.iter().any(|n| n == r) || hash_types.iter().any(|t| t == r)
                }) {
                    flagged = true;
                }
            }
        }
        if let Some(pos) = line.find(" in ") {
            let tail = &line[pos + 4..];
            if line.trim_start().starts_with("for ")
                && hash_names.iter().any(|n| contains_word(tail, n))
            {
                flagged = true;
            }
        }
        if flagged {
            report(
                out,
                masked,
                path,
                idx,
                HASH_ITERATION,
                "hash-container iteration in a decision path: iteration order is \
                 nondeterministic — use BTreeMap/Vec, or justify order-independence",
            );
        }
    }
}

fn rule_wall_clock(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    if path.starts_with("crates/bench/") {
        return;
    }
    for (idx, line) in masked.code.iter().enumerate() {
        if line.contains("Instant::now") || contains_word(line, "SystemTime") {
            report(
                out,
                masked,
                path,
                idx,
                WALL_CLOCK,
                "wall-clock read outside crates/bench: time feeding a decision makes it \
                 irreproducible",
            );
        }
        // Sleeping is the write side of the same coin: retry backoff must be
        // counted in scheduler dispatches, never waited out in real time.
        if line.contains("thread::sleep") {
            report(
                out,
                masked,
                path,
                idx,
                WALL_CLOCK,
                "thread::sleep outside crates/bench: backoff must be counted in \
                 deterministic scheduler steps, not waited out in wall-clock time",
            );
        }
    }
}

fn rule_thread_spawn(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    if may_spawn(path) {
        return;
    }
    for (idx, line) in masked.code.iter().enumerate() {
        if line.contains("thread::spawn") || line.contains(".spawn(") {
            report(
                out,
                masked,
                path,
                idx,
                THREAD_SPAWN,
                "thread spawned outside core::pool/core::service: it would escape the shared \
                 worker budget and the panic-containment lanes",
            );
        }
    }
}

/// Atomic-only `Ordering` variants (`cmp::Ordering`'s are Less/Equal/Greater,
/// so these tokens cannot collide with comparison code).
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How many comment lines above an atomic site may carry its justification.
const ORDERING_COMMENT_WINDOW: usize = 3;

fn rule_atomic_ordering(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    for (idx, line) in masked.code.iter().enumerate() {
        if !ATOMIC_ORDERINGS.iter().any(|t| line.contains(t)) {
            continue;
        }
        let justified = (idx.saturating_sub(ORDERING_COMMENT_WINDOW)..=idx)
            .any(|l| masked.comments[l].contains("ordering:"));
        if !justified {
            report(
                out,
                masked,
                path,
                idx,
                ATOMIC_ORDERING,
                "atomic memory ordering without an adjacent `// ordering:` justification — \
                 say why this strength is correct (what the cell publishes, who reads it)",
            );
        }
    }
}

fn rule_no_panic(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    if !in_containment_path(path) {
        return;
    }
    for (idx, line) in masked.code.iter().enumerate() {
        if masked.in_test[idx] {
            continue;
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            report(
                out,
                masked,
                path,
                idx,
                NO_PANIC,
                "unwrap()/expect() in a panic-containment path: a panic here poisons state \
                 shared beyond the contained session — recover (PoisonError::into_inner) or \
                 justify the invariant",
            );
        }
    }
}

fn rule_forbid_unsafe(path: &str, masked: &MaskedSource, out: &mut Vec<Violation>) {
    if !is_crate_root(path) {
        return;
    }
    let has = masked
        .code
        .iter()
        .any(|line| line.contains("#![forbid(unsafe_code)]"));
    if !has {
        report(
            out,
            masked,
            path,
            0,
            FORBID_UNSAFE,
            "crate root does not declare #![forbid(unsafe_code)]",
        );
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lints one file's source as if it lived at `path` (workspace-relative).
#[must_use]
pub fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    let path = normalize(path);
    let masked = mask(source);
    let mut out = Vec::new();
    rule_float_order(&path, &masked, &mut out);
    rule_hash_iteration(&path, &masked, &mut out);
    rule_wall_clock(&path, &masked, &mut out);
    rule_thread_spawn(&path, &masked, &mut out);
    rule_atomic_ordering(&path, &masked, &mut out);
    rule_no_panic(&path, &masked, &mut out);
    rule_forbid_unsafe(&path, &masked, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// Directories never scanned: build output, VCS state, the lint fixture
/// corpus (whose files violate rules by design), and `perfbench`, the
/// outside-in benchmark. That is a separate package with its own
/// `[workspace]`; it reads the clock, spawns threads and uses atomics by
/// design, and none of its code runs on a decision path.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "perfbench"];

/// Walks every `.rs` file under `root` outside `SKIP_DIRS` (deterministic
/// order) and lints it.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or the reads.
pub fn scan_workspace(root: &Path) -> std::io::Result<(usize, Vec<Violation>)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        out.extend(scan_source(rel, &source));
    }
    Ok((files.len(), out))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_hides_strings_comments_and_char_literals() {
        let src = "let x = \"partial_cmp\"; // partial_cmp in comment\nlet c = 'a'; let s: &'static str = r#\"Instant::now\"#;\n";
        let masked = mask(src);
        assert!(!masked.code[0].contains("partial_cmp"));
        assert!(masked.comments[0].contains("partial_cmp"));
        assert!(!masked.code[1].contains("Instant::now"));
        assert!(masked.code[1].contains("let s"), "{:?}", masked.code[1]);
    }

    #[test]
    fn nested_block_comments_are_masked() {
        let src = "/* outer /* Instant::now */ still comment */ let y = 1;\n";
        let masked = mask(src);
        assert!(!masked.code[0].contains("Instant::now"));
        assert!(masked.code[0].contains("let y = 1;"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let masked = mask(src);
        assert_eq!(masked.in_test, vec![false, true, true, true, true, false],);
    }

    #[test]
    fn allow_tag_requires_reason() {
        let with = "let a = b.partial_cmp(c); // lint: allow(float-order) -- fixture\n";
        assert!(scan_source("crates/core/src/x.rs", with).is_empty());
        let without = "let a = b.partial_cmp(c); // lint: allow(float-order)\n";
        let v = scan_source("crates/core/src/x.rs", without);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("missing its `-- reason`"));
    }

    #[test]
    fn allow_tag_on_previous_line_applies() {
        let src = "// lint: allow(float-order) -- testing the tag\nlet a = b.partial_cmp(c);\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn crate_roots_are_recognized() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/pool.rs"));
        assert!(!is_crate_root("crates/core/src/sub/lib.rs"));
    }

    #[test]
    fn the_serve_crate_is_a_containment_path() {
        // The whole serve crate holds the no-panic bar: a panic on hostile
        // bytes is a remote denial of service.
        let src = "fn f(v: Option<u8>) { let _ = v.unwrap(); }\n";
        let v = scan_source("crates/serve/src/http.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_PANIC);
        assert_eq!(scan_source("crates/serve/src/json.rs", src).len(), 1);
        assert_eq!(scan_source("crates/serve/src/wire.rs", src).len(), 1);
        // Other non-containment crates remain out of scope.
        assert!(scan_source("crates/datasets/src/x.rs", src).is_empty());
    }

    #[test]
    fn only_the_serve_server_module_may_spawn() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(scan_source("crates/serve/src/server.rs", src).is_empty());
        let v = scan_source("crates/serve/src/client.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, THREAD_SPAWN);
    }

    #[test]
    fn hash_alias_fields_are_tracked() {
        let src = "type Memo = std::collections::HashMap<usize, f64>;\n\
                   struct S { map: Memo }\n\
                   fn f(s: &mut S) { s.map.retain(|_, _| true); }\n";
        let v = scan_source("crates/learners/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, HASH_ITERATION);
        assert_eq!(v[0].line, 3);
        // Out of the decision crates the same source is fine.
        assert!(scan_source("crates/datasets/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_guards_of_hash_maps_are_tracked() {
        // The `core::transfer` store pattern: a job-key map behind a mutex,
        // iterated through its lock guard.
        let src =
            "struct Store { jobs: std::sync::Mutex<std::collections::HashMap<String, u8>> }\n\
                   fn f(s: &Store) -> usize {\n\
                   let guard = s.jobs.lock().unwrap();\n\
                   guard.iter().count()\n\
                   }\n";
        let v = scan_source("crates/core/src/transfer.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, HASH_ITERATION);
        assert_eq!(v[0].line, 4);
        // Keyed lookups through the same guard stay clean.
        let clean =
            "struct Store { jobs: std::sync::Mutex<std::collections::HashMap<String, u8>> }\n\
                   fn f(s: &Store) -> Option<u8> {\n\
                   let guard = s.jobs.lock().unwrap();\n\
                   guard.get(\"k\").copied()\n\
                   }\n";
        assert!(scan_source("crates/core/src/transfer.rs", clean).is_empty());
    }
}
