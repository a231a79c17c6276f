package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// A pragma is one parsed //dophy:allow waiver comment:
//
//	//dophy:allow <rule> [<rule>...] -- <justification>
//
// It waives the named rules on its own line and on the line directly
// below it (so it can trail the offending statement or sit above it).
// Several rules may be waived at once when distinct analyses flag the
// same site for the same underlying reason.
//
// A //dophy: comment naming any other directive than the three the engine
// reads (allow, hotpath, concurrency-boundary) is parsed as a pragma too,
// with stray set: it waives nothing and is reported as malformed, so a
// typo such as //dophy:hotpth cannot silently drop a function out of
// hotpathalloc.
type pragma struct {
	pos    token.Pos
	file   string
	line   int
	rules  []string
	reason string
	// stray is the name of an unknown //dophy: directive ("" for waivers).
	stray string
	// used marks rules that actually suppressed a diagnostic (or cut a
	// taint chain) during the current Run; a rule that stays unused is a
	// stale waiver and a diagnostic itself.
	used map[string]bool
}

// directivePrefix introduces every dophy-lint comment directive.
const directivePrefix = "//dophy:"

// knownDirectives are the //dophy: directives the engine reads.
var knownDirectives = map[string]bool{"allow": true, "hotpath": true, "concurrency-boundary": true}

// directiveArg matches text against a //dophy: directive prefix and returns
// the trimmed remainder. The prefix must be followed by whitespace or
// nothing, so near-misses like //dophy:allowx do not match.
func directiveArg(text, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// parsePragmas scans a file's comments for waiver pragmas and stray
// directives.
func parsePragmas(fset *token.FileSet, f *ast.File) []*pragma {
	var out []*pragma
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			p := &pragma{pos: c.Pos(), used: map[string]bool{}}
			position := fset.Position(c.Pos())
			p.file, p.line = position.Filename, position.Line
			name := rest
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name = rest[:i]
			}
			switch {
			case name == "allow":
				spec, reason, hasReason := strings.Cut(rest[len(name):], "--")
				p.rules = strings.Fields(spec)
				if hasReason {
					p.reason = strings.TrimSpace(reason)
				}
			case knownDirectives[name]:
				continue
			default:
				p.stray = name
			}
			out = append(out, p)
		}
	}
	return out
}

// pragmaIndex resolves waiver lookups for one Run and tracks usage.
type pragmaIndex struct {
	fset    *token.FileSet
	all     []*pragma
	byLoc   map[allowKey]*pragma // (file, line, rule) -> pragma
	unknown map[string]bool      // rule names that exist in this engine
}

// newPragmaIndex collects every pragma in the module and indexes the
// waived (file, line, rule) sites.
func (m *Module) newPragmaIndex(rules []Rule) *pragmaIndex {
	idx := &pragmaIndex{
		fset:    m.Fset,
		byLoc:   map[allowKey]*pragma{},
		unknown: map[string]bool{},
	}
	for _, r := range rules {
		idx.unknown[r.Name()] = true
	}
	// Rules enforced by the engine itself rather than the catalogue.
	idx.unknown[pragmaRuleName] = true
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			ps := parsePragmas(m.Fset, f.AST)
			idx.all = append(idx.all, ps...)
			for _, p := range ps {
				for _, rule := range p.rules {
					idx.byLoc[allowKey{p.file, p.line, rule}] = p
				}
			}
		}
	}
	return idx
}

// allowedAt reports whether rule is waived at the given position — by a
// pragma on the same line or on the line directly above — and marks the
// pragma used.
func (idx *pragmaIndex) allowedAt(rule string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	return idx.allowedLine(rule, p.Filename, p.Line)
}

func (idx *pragmaIndex) allowedLine(rule, file string, line int) bool {
	for _, l := range [2]int{line, line - 1} {
		if pr := idx.byLoc[allowKey{file, l, rule}]; pr != nil {
			pr.used[rule] = true
			return true
		}
	}
	return false
}

// pragmaRuleName is the rule identifier for diagnostics about the waiver
// pragmas themselves (malformed, unknown rule, stale).
const pragmaRuleName = "pragma"

// malformedPragmaDiags reports structurally broken pragmas: an unknown
// directive, no rules named, a rule name the engine does not know, or a
// missing justification.
// These do not depend on which diagnostics fired, so they are stable
// across tag sets.
func (idx *pragmaIndex) malformedPragmaDiags() []Diagnostic {
	var out []Diagnostic
	report := func(p *pragma, msg string) {
		out = append(out, Diagnostic{
			Pos:  token.Position{Filename: p.file, Line: p.line, Column: 1},
			Rule: pragmaRuleName,
			Msg:  msg,
		})
	}
	for _, p := range idx.all {
		if p.stray != "" {
			report(p, "unknown directive //dophy:"+p.stray+"; the engine reads only //dophy:allow, //dophy:hotpath and //dophy:concurrency-boundary")
			continue
		}
		if len(p.rules) == 0 {
			report(p, "waiver names no rules; write //dophy:allow <rule> -- <justification>")
			continue
		}
		for _, r := range p.rules {
			if !idx.unknown[r] {
				report(p, "waiver names unknown rule \""+r+"\"")
			}
		}
		if p.reason == "" {
			report(p, "waiver has no justification; append ' -- <why this site is exempt>'")
		}
	}
	return out
}

// staleDiags reports pragmas that suppressed nothing during the Run: a
// waiver that no longer matches any diagnostic is dead weight that hides
// future regressions, so it must be deleted (or the code re-broken). A
// pragma waiving several rules is stale per rule. Stale results are
// tag-set dependent (a waiver may only bite under dophy_invariants), so
// callers linting several tag sets must intersect them.
func (idx *pragmaIndex) staleDiags() []Diagnostic {
	var out []Diagnostic
	for _, p := range idx.all {
		for _, r := range p.rules {
			if !idx.unknown[r] || p.used[r] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  token.Position{Filename: p.file, Line: p.line, Column: 1},
				Rule: pragmaRuleName,
				Msg:  "stale waiver: //dophy:allow " + r + " suppresses nothing here; delete it",
			})
		}
	}
	return out
}
