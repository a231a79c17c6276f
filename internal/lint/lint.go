package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule is one determinism invariant check.
type Rule interface {
	// Name is the rule's identifier, used in diagnostics and pragmas.
	Name() string
	// Check reports violations in pkg via report.
	Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// AllRules returns the full rule catalogue.
func AllRules() []Rule {
	return []Rule{
		ruleMapRange{}, ruleGoStmt{}, ruleDenseBound{}, ruleHotPathAlloc{},
		ruleDetermFlow{}, ruleIdxDomain{}, ruleValRange{}, ruleExhaustive{},
	}
}

// allowKey identifies one waived (file, line, rule) site.
type allowKey struct {
	file string
	line int
	rule string
}

// Run applies the rules to every package and returns the surviving
// diagnostics sorted by position. Pragma-waived diagnostics are dropped.
// Stale-waiver diagnostics are NOT included — they depend on the tag set
// being linted, so callers that lint several tag sets must use RunDetail
// and intersect the stale sets.
func (m *Module) Run(rules []Rule) []Diagnostic {
	diags, _ := m.RunDetail(rules)
	return diags
}

// RunDetail applies the rules and returns two diagnostic sets:
//
//   - diags: rule violations surviving waivers, plus structurally broken
//     pragmas (no rules, unknown rule, missing justification). These are
//     definitive for the tag set linted.
//   - stale: waivers that suppressed nothing during this run. A waiver may
//     legitimately bite only under another tag set (e.g. dophy_invariants
//     builds), so staleness is only actionable once intersected across
//     every tag set the caller lints.
func (m *Module) RunDetail(rules []Rule) (diags, stale []Diagnostic) {
	idx := m.newPragmaIndex(rules)
	m.pidx = idx
	defer func() { m.pidx = nil }()
	for _, pkg := range m.Packages {
		for _, r := range rules {
			rule := r
			report := func(pos token.Pos, format string, args ...any) {
				if idx.allowedAt(rule.Name(), pos) {
					return
				}
				p := m.Fset.Position(pos)
				diags = append(diags, Diagnostic{Pos: p, Rule: rule.Name(), Msg: fmt.Sprintf(format, args...)})
			}
			rule.Check(m, pkg, report)
		}
	}
	diags = append(diags, idx.malformedPragmaDiags()...)
	sortDiags(diags)
	stale = idx.staleDiags()
	sortDiags(stale)
	return diags, stale
}

// SortDiagnostics orders diags by position then rule — the canonical output
// order, exposed for drivers that merge diagnostics from several passes.
func SortDiagnostics(diags []Diagnostic) { sortDiags(diags) }

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// importNames returns the local identifier(s) a file binds to the given
// import path (handles renamed imports; "_" and "." imports yield none).
func importNames(f *ast.File, path string) []string {
	var out []string
	for _, spec := range f.Imports {
		p := strings.Trim(spec.Path.Value, `"`)
		if p != path {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name != "_" && name != "." {
			out = append(out, name)
		}
	}
	return out
}

// isPkgSelector reports whether expr is a selector on one of the given
// local package names (e.g. time.Now with names == ["time"]).
func isPkgSelector(expr ast.Node, names []string) (sel *ast.SelectorExpr, ok bool) {
	s, isSel := expr.(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	id, isIdent := s.X.(*ast.Ident)
	if !isIdent {
		return nil, false
	}
	for _, n := range names {
		if id.Name == n {
			return s, true
		}
	}
	return nil, false
}

// objectOf resolves an identifier through Defs then Uses.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
