//! The five lint families of the workspace invariant checker.
//!
//! Each lint reads the scanned [`Workspace`] and appends [`Finding`]s.
//! Everything operates on the token level over the comment-stripped,
//! string-blanked `code` channel (so `"HashMap"` in a string literal never
//! fires), with `#[cfg(test)]` regions exempt throughout.

use crate::scan::{item_span, Line, SourceFile};
use crate::{Finding, LintId, Workspace};

/// Crates whose output bytes can reach a rendered report or the artifact
/// cache — the scope of the determinism lint's container and clock checks.
/// `bench` (wall-clock output by design) and `fault` (stderr diagnostics
/// only) are out of scope, as is the analyzer itself; the environment-read
/// check covers every crate.
const DETERMINISM_SCOPE: &[&str] =
    &["trace", "stats", "spacetime", "forwarding", "artifact", "analytic", "core"];

/// Crates under the workspace-wide panic-hygiene contract: their `lib.rs`
/// must deny `clippy::unwrap_used`/`clippy::expect_used` and their
/// non-test code must not unwrap, expect, or panic without sanction.
const PANIC_SCOPE: &[&str] = &["trace", "artifact", "fault", "core", "analyze"];

/// True when `line` (or the `window` raw lines above it) carries the
/// `// psn-analyze: <tag>(<reason>)` pragma with a non-empty reason.
fn has_pragma(lines: &[Line], idx: usize, tag: &str, window: usize) -> bool {
    let needle = format!("psn-analyze: {tag}(");
    lines[idx.saturating_sub(window)..=idx].iter().any(|l| match l.raw.find(needle.as_str()) {
        Some(p) => l.raw[p + needle.len()..].chars().next().is_some_and(|c| c != ')'),
        None => false,
    })
}

/// True when `hay` contains `needle` not immediately followed by another
/// identifier character (so `self.workload` never matches
/// `self.workload_seed`).
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let end = from + pos + needle.len();
        let boundary = hay[end..].chars().next().is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        from += pos + 1;
    }
    false
}

/// Line index of the first line whose code contains `marker`, from `from`.
fn find_line(lines: &[Line], marker: &str, from: usize) -> Option<usize> {
    lines.iter().enumerate().skip(from).find(|(_, l)| l.code.contains(marker)).map(|(i, _)| i)
}

/// Field names declared in the struct block at `span`, together with their
/// line index and whether a `cache-excluded` pragma annotates them. The
/// pragma must sit between the previous field and the one it excludes.
fn struct_fields(lines: &[Line], span: (usize, usize)) -> Vec<(String, usize, bool)> {
    let mut fields = Vec::new();
    let mut pending = false;
    for (idx, line) in lines.iter().enumerate().take(span.1 + 1).skip(span.0) {
        if line.raw.contains("psn-analyze: cache-excluded(") {
            pending = true;
        }
        let code = line.code.trim_start();
        if let Some(rest) = code.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let name = &rest[..colon];
                if !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    fields.push((name.to_string(), idx, pending));
                    pending = false;
                }
            }
        }
    }
    fields
}

/// L1 — cache-key completeness: every `StudyParams` field must be hashed
/// by `hash_into` (or pragma-excluded), every `ScenarioConfig` variant
/// field serialized by `to_doc` (or pragma-excluded). A forgotten field
/// silently serves wrong cached cells.
pub fn cache_key(ws: &Workspace, out: &mut Vec<Finding>) {
    // StudyParams vs hash_into.
    for file in &ws.files {
        let Some(start) = find_line(&file.lines, "pub struct StudyParams", 0) else { continue };
        let Some(span) = item_span(&file.lines, start) else { continue };
        let fields = struct_fields(&file.lines, span);
        let Some(hash_start) = find_line(&file.lines, "fn hash_into", 0) else {
            out.push(Finding::new(
                LintId::CacheKey,
                &file.rel,
                start + 1,
                "StudyParams has no hash_into implementation to check against".to_string(),
            ));
            continue;
        };
        let hash_span = item_span(&file.lines, hash_start).unwrap_or((hash_start, hash_start));
        let body: String = file.lines[hash_span.0..=hash_span.1]
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for (name, idx, excluded) in fields {
            let hashed = contains_token(&body, &format!("self.{name}"));
            if hashed && excluded {
                out.push(Finding::new(
                    LintId::CacheKey,
                    &file.rel,
                    idx + 1,
                    format!(
                        "StudyParams.{name} is marked cache-excluded but hash_into reads it — \
                         drop the pragma or the hash line"
                    ),
                ));
            } else if !hashed && !excluded {
                out.push(Finding::new(
                    LintId::CacheKey,
                    &file.rel,
                    idx + 1,
                    format!(
                        "StudyParams.{name} is not hashed by hash_into and carries no \
                         `psn-analyze: cache-excluded(<reason>)` pragma — an unhashed field \
                         silently serves wrong cached cells"
                    ),
                ));
            }
        }
    }

    // ScenarioConfig variant structs vs to_doc.
    let Some(scenario) =
        ws.files.iter().find(|f| find_line(&f.lines, "pub enum ScenarioConfig", 0).is_some())
    else {
        return;
    };
    let Some(enum_start) = find_line(&scenario.lines, "pub enum ScenarioConfig", 0) else { return };
    let Some(enum_span) = item_span(&scenario.lines, enum_start) else { return };
    let mut variant_structs = Vec::new();
    for line in &scenario.lines[enum_span.0..=enum_span.1] {
        let code = line.code.trim();
        if let Some(open) = code.find('(') {
            if let Some(close) = code.find(')') {
                if open < close {
                    let inner = code[open + 1..close].trim();
                    if inner.ends_with("Config") {
                        variant_structs.push(inner.to_string());
                    }
                }
            }
        }
    }
    let Some(doc_start) = find_line(&scenario.lines, "fn to_doc", 0) else {
        out.push(Finding::new(
            LintId::CacheKey,
            &scenario.rel,
            enum_start + 1,
            "ScenarioConfig has no to_doc implementation to check against".to_string(),
        ));
        return;
    };
    let doc_span = item_span(&scenario.lines, doc_start).unwrap_or((doc_start, doc_start));
    let doc_body: String = scenario.lines[doc_span.0..=doc_span.1]
        .iter()
        .map(|l| l.raw.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for name in variant_structs {
        let marker = format!("pub struct {name} ");
        for file in &ws.files {
            let Some(start) = find_line(&file.lines, &marker, 0) else { continue };
            let Some(span) = item_span(&file.lines, start) else { continue };
            for (field, idx, excluded) in struct_fields(&file.lines, span) {
                if excluded {
                    continue;
                }
                if !doc_body.contains(&format!("\"{field}\"")) {
                    out.push(Finding::new(
                        LintId::CacheKey,
                        &file.rel,
                        idx + 1,
                        format!(
                            "{name}.{field} is not serialized by ScenarioConfig::to_doc (no \
                             \"{field}\" key) and carries no `psn-analyze: \
                             cache-excluded(<reason>)` pragma — the scenario fingerprint hashes \
                             the doc, so the field would not split cache keys"
                        ),
                    ));
                }
            }
        }
    }
}

/// L2 — determinism: no environment reads anywhere in the workspace (a
/// run is a function of its command line), and no hash-ordered containers
/// or wall-clock reads in crates whose bytes can reach a report or the
/// artifact cache. Iteration order over a `HashMap` anywhere on a report path
/// breaks the byte-identity contract.
pub fn determinism(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let report_reachable = DETERMINISM_SCOPE.contains(&file.crate_dir.as_str());
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if line.code.contains("env::var") {
                out.push(Finding::new(
                    LintId::Determinism,
                    &file.rel,
                    idx + 1,
                    "environment read: results must be a function of the study spec alone — \
                     take the value as a command-line flag"
                        .to_string(),
                ));
            }
            if !report_reachable {
                continue;
            }
            for container in ["HashMap", "HashSet"] {
                if contains_token(&line.code, container)
                    && !has_pragma(&file.lines, idx, "unordered-ok", 2)
                {
                    out.push(Finding::new(
                        LintId::Determinism,
                        &file.rel,
                        idx + 1,
                        format!(
                            "{container} in a report-reachable crate: iteration order is \
                             nondeterministic — use BTreeMap/BTreeSet or an indexed Vec, or \
                             annotate `psn-analyze: unordered-ok(<reason>)`"
                        ),
                    ));
                }
            }
            for clock in ["SystemTime::now", "Instant::now"] {
                if line.code.contains(clock) && !has_pragma(&file.lines, idx, "wallclock-ok", 2) {
                    out.push(Finding::new(
                        LintId::Determinism,
                        &file.rel,
                        idx + 1,
                        format!(
                            "{clock} in a report-reachable crate: wall-clock values must never \
                             reach rendered output — annotate `psn-analyze: wallclock-ok(<reason>)` \
                             if provably display-only"
                        ),
                    ));
                }
            }
        }
    }
}

/// L3 — failpoint registry: every failpoint call site must name a
/// `psn_fault::sites` constant, every registry constant must be used and
/// listed in `sites::ALL`, and the DESIGN.md site table must match the
/// registry exactly.
pub fn failpoint_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    // Parse the registry out of the fault crate.
    let mut consts: Vec<(String, String)> = Vec::new(); // (NAME, "site.string")
    let mut registry_file: Option<&SourceFile> = None;
    for file in &ws.files {
        if file.crate_dir != "fault" {
            continue;
        }
        let Some(start) = find_line(&file.lines, "pub mod sites", 0) else { continue };
        let Some(span) = item_span(&file.lines, start) else { continue };
        registry_file = Some(file);
        for idx in span.0..=span.1 {
            let raw = file.lines[idx].raw.trim();
            let Some(rest) = raw.strip_prefix("pub const ") else { continue };
            let Some((name, value_part)) = rest.split_once(':') else { continue };
            let name = name.trim();
            if name == "ALL" {
                continue;
            }
            let Some(q1) = value_part.find('"') else { continue };
            let Some(q2) = value_part[q1 + 1..].find('"') else { continue };
            consts.push((name.to_string(), value_part[q1 + 1..q1 + 1 + q2].to_string()));
        }
        // Every constant must be listed in sites::ALL.
        if let Some(all_start) = find_line(&file.lines, "pub const ALL", span.0) {
            let all_end =
                (all_start..=span.1).find(|&i| file.lines[i].code.contains("];")).unwrap_or(span.1);
            let all_text: String = file.lines[all_start..=all_end]
                .iter()
                .map(|l| l.code.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            for (name, _) in &consts {
                if !contains_token(&all_text, name) {
                    out.push(Finding::new(
                        LintId::FailpointRegistry,
                        &file.rel,
                        all_start + 1,
                        format!("registry constant {name} is missing from sites::ALL"),
                    ));
                }
            }
        }
    }

    // Cross-check call sites.
    let injectors = ["inject_io(", "inject_io_op(", "run_jobs("];
    let mut used: Vec<&str> = Vec::new();
    let mut any_call_site = false;
    for file in &ws.files {
        if file.crate_dir == "fault" {
            continue; // the definitions themselves
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for call in injectors {
                let Some(pos) = line.code.find(call) else { continue };
                any_call_site = true;
                // First argument, possibly wrapped onto the next line.
                let mut arg =
                    line.raw[line.raw.find(call).unwrap_or(pos) + call.len()..].trim().to_string();
                if arg.is_empty() {
                    if let Some(next) = file.lines.get(idx + 1) {
                        arg = next.raw.trim().to_string();
                    }
                }
                if arg.starts_with('"') {
                    out.push(Finding::new(
                        LintId::FailpointRegistry,
                        &file.rel,
                        idx + 1,
                        format!(
                            "orphan failpoint site: {call}…) takes a string literal — use a \
                             psn_fault::sites constant so the registry, DESIGN.md and chaos \
                             tests stay in sync"
                        ),
                    ));
                } else if let Some(site_pos) = arg.find("sites::") {
                    let name: String = arg[site_pos + "sites::".len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                        .collect();
                    match consts.iter().find(|(n, _)| *n == name) {
                        Some((n, _)) => used.push(n.as_str()),
                        None => out.push(Finding::new(
                            LintId::FailpointRegistry,
                            &file.rel,
                            idx + 1,
                            format!("failpoint site constant sites::{name} is not in the registry"),
                        )),
                    }
                } else {
                    out.push(Finding::new(
                        LintId::FailpointRegistry,
                        &file.rel,
                        idx + 1,
                        format!("failpoint call {call}…) must name a psn_fault::sites constant"),
                    ));
                }
            }
        }
    }

    if let Some(file) = registry_file {
        for (name, _) in &consts {
            if !used.iter().any(|u| u == name) && any_call_site {
                out.push(Finding::new(
                    LintId::FailpointRegistry,
                    &file.rel,
                    1,
                    format!("dead registry entry: sites::{name} has no failpoint call site"),
                ));
            }
        }
    } else if any_call_site {
        out.push(Finding::new(
            LintId::FailpointRegistry,
            "crates/fault/src/lib.rs",
            1,
            "failpoint call sites exist but no `pub mod sites` registry was found".to_string(),
        ));
    }

    // DESIGN.md table must mirror the registry.
    if let (Some(design), false) = (&ws.design_md, consts.is_empty()) {
        let mut table_sites: Vec<&str> = Vec::new();
        let mut in_table = false;
        for line in design.lines() {
            let t = line.trim();
            if t.to_lowercase().contains("failpoint site registry") {
                in_table = true;
                continue;
            }
            if in_table {
                if let Some(cell) = t.strip_prefix("| `") {
                    if let Some(end) = cell.find('`') {
                        table_sites.push(&cell[..end]);
                    }
                } else if !t.starts_with('|') && !t.is_empty() && !table_sites.is_empty() {
                    break;
                }
            }
        }
        if table_sites.is_empty() {
            out.push(Finding::new(
                LintId::FailpointRegistry,
                "DESIGN.md",
                1,
                "no failpoint site registry table found (heading containing \"failpoint site \
                 registry\" followed by a `| `site` | … |` table)"
                    .to_string(),
            ));
        } else {
            for (_, site) in &consts {
                if !table_sites.contains(&site.as_str()) {
                    out.push(Finding::new(
                        LintId::FailpointRegistry,
                        "DESIGN.md",
                        1,
                        format!("registered failpoint site `{site}` is missing from the table"),
                    ));
                }
            }
            for site in table_sites {
                if !consts.iter().any(|(_, s)| s == site) {
                    out.push(Finding::new(
                        LintId::FailpointRegistry,
                        "DESIGN.md",
                        1,
                        format!("documented failpoint site `{site}` is not in psn_fault::sites"),
                    ));
                }
            }
        }
    }
}

/// L4 — panic hygiene: scope crates must declare the clippy deny in their
/// `lib.rs`, and non-test code must not `.unwrap()`/`.expect(…)` or
/// `panic!` without a `# Panics` doc section on the enclosing function or
/// an `allow-panic` pragma.
pub fn panic_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    for scope in PANIC_SCOPE {
        let lib = format!("crates/{scope}/src/lib.rs");
        let Some(file) = ws.files.iter().find(|f| f.rel == lib) else { continue };
        if !file.lines.iter().any(|l| l.code.contains("deny(clippy::unwrap_used")) {
            out.push(Finding::new(
                LintId::PanicHygiene,
                &file.rel,
                1,
                "crate is under the panic-hygiene contract but its lib.rs does not declare \
                 #![deny(clippy::unwrap_used, clippy::expect_used)]"
                    .to_string(),
            ));
        }
    }
    for file in &ws.files {
        if !PANIC_SCOPE.contains(&file.crate_dir.as_str()) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (token, hint) in [
                (".unwrap()", "match on the error or use unwrap_or_else(|| unreachable!(…))"),
                (".expect(", "propagate the error or prove the invariant with unreachable!(…)"),
            ] {
                // `.expect('…')` with a char-literal argument is a local
                // parser helper (e.g. the hand-rolled JSON/TOML readers),
                // not `Option::expect` — skip it.
                let hit = match line.code.find(token) {
                    Some(pos) => !line.code[pos + token.len()..].starts_with('\''),
                    None => false,
                };
                if hit && !has_pragma(&file.lines, idx, "allow-panic", 2) {
                    out.push(Finding::new(
                        LintId::PanicHygiene,
                        &file.rel,
                        idx + 1,
                        format!("{token}…) outside #[cfg(test)] — {hint}"),
                    ));
                }
            }
            if line.code.contains("panic!")
                && !has_pragma(&file.lines, idx, "allow-panic", 2)
                && !enclosing_fn_documents_panics(&file.lines, idx)
            {
                out.push(Finding::new(
                    LintId::PanicHygiene,
                    &file.rel,
                    idx + 1,
                    "panic! outside #[cfg(test)] without a `# Panics` doc section on the \
                     enclosing function — document the contract or annotate `psn-analyze: \
                     allow-panic(<reason>)`"
                        .to_string(),
                ));
            }
        }
    }
}

/// Walks up from `idx` to the nearest enclosing `fn` (first `fn` line with
/// strictly smaller indentation) and checks its doc comment for a
/// `# Panics` section.
fn enclosing_fn_documents_panics(lines: &[Line], idx: usize) -> bool {
    let indent_of = |l: &Line| l.code.len() - l.code.trim_start().len();
    let my_indent = indent_of(&lines[idx]);
    let mut fn_line = None;
    for i in (0..idx).rev() {
        let code = lines[i].code.trim_start();
        if lines[i].code.trim().is_empty() {
            continue;
        }
        let is_fn = code.starts_with("fn ")
            || code.starts_with("pub fn ")
            || code.starts_with("pub(crate) fn ")
            || code.starts_with("pub(super) fn ")
            || code.starts_with("async fn ")
            || code.starts_with("pub async fn ")
            || code.starts_with("const fn ")
            || code.starts_with("pub const fn ");
        if is_fn && indent_of(&lines[i]) < my_indent {
            fn_line = Some(i);
            break;
        }
    }
    let Some(fn_line) = fn_line else { return false };
    // Scan the contiguous attribute/doc block above the fn.
    for i in (0..fn_line).rev() {
        let t = lines[i].raw.trim_start();
        if t.starts_with("#[") || t.starts_with("#![") {
            continue;
        }
        if t.starts_with("///") || t.starts_with("//!") || t.starts_with("//") {
            if t.contains("# Panics") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// L5 — atomic-ordering audit: every `Ordering::Relaxed` must carry a
/// `relaxed:` justification comment on the same line or within the three
/// lines above it.
pub fn relaxed_ordering(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.crate_dir.is_empty() {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test || !line.code.contains("Ordering::Relaxed") {
                continue;
            }
            let justified =
                file.lines[idx.saturating_sub(3)..=idx].iter().any(|l| l.raw.contains("relaxed:"));
            if !justified {
                out.push(Finding::new(
                    LintId::RelaxedOrdering,
                    &file.rel,
                    idx + 1,
                    "Ordering::Relaxed without a `// relaxed: <why this ordering is sufficient>` \
                     justification comment"
                        .to_string(),
                ));
            }
        }
    }
}
