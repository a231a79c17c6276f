package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// pragmaSrc covers the parsing corners: several rules on one line, a
// missing "--" justification, a near-miss prefix (an unknown directive, not
// a waiver), a nameless waiver, an unknown rule name, and a known non-waiver
// directive that parses to nothing.
const pragmaSrc = `package p

//dophy:allow hotpathalloc determflow -- both flagged for the same reason
var a int

//dophy:allow maprange
var b int

//dophy:allowx maprange -- not a pragma
var c int

//dophy:allow -- nameless
var d int

//dophy:allow nosuchrule -- unknown
var e int

//dophy:hotpath
func f() {}
`

func parsePragmaFixture(t *testing.T) (*token.FileSet, []*pragma) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pragma_fixture.go", pragmaSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, parsePragmas(fset, f)
}

func fixtureIndex(t *testing.T) *pragmaIndex {
	t.Helper()
	fset, ps := parsePragmaFixture(t)
	idx := &pragmaIndex{
		fset:  fset,
		all:   ps,
		byLoc: map[allowKey]*pragma{},
		unknown: map[string]bool{
			"hotpathalloc": true, "determflow": true, "maprange": true,
			pragmaRuleName: true,
		},
	}
	for _, p := range ps {
		for _, r := range p.rules {
			idx.byLoc[allowKey{p.file, p.line, r}] = p
		}
	}
	return idx
}

// TestParsePragmas checks the raw parse: the near-miss //dophy:allowx is a
// stray directive that waives nothing, //dophy:hotpath is not a pragma,
// several rules on one line are all collected, and a pragma with no "--"
// gets an empty reason rather than swallowing trailing words.
func TestParsePragmas(t *testing.T) {
	_, ps := parsePragmaFixture(t)
	if len(ps) != 5 {
		t.Fatalf("parsed %d pragmas, want 5 (four waivers and the //dophy:allowx stray)", len(ps))
	}
	if stray := ps[2]; stray.stray != "allowx" || len(stray.rules) != 0 {
		t.Errorf("near-miss parsed as stray %q with rules %v, want stray \"allowx\" and no rules", stray.stray, stray.rules)
	}
	multi := ps[0]
	if len(multi.rules) != 2 || multi.rules[0] != "hotpathalloc" || multi.rules[1] != "determflow" {
		t.Errorf("multi-rule pragma parsed rules %v, want [hotpathalloc determflow]", multi.rules)
	}
	if multi.reason != "both flagged for the same reason" {
		t.Errorf("multi-rule pragma reason = %q", multi.reason)
	}
	noReason := ps[1]
	if len(noReason.rules) != 1 || noReason.rules[0] != "maprange" {
		t.Errorf("reasonless pragma parsed rules %v, want [maprange]", noReason.rules)
	}
	if noReason.reason != "" {
		t.Errorf("pragma without -- should have empty reason, got %q", noReason.reason)
	}
	if nameless := ps[3]; len(nameless.rules) != 0 {
		t.Errorf("nameless pragma parsed rules %v, want none", nameless.rules)
	}
}

// TestPragmaWaiverPlacement checks the two legal placements: a pragma
// waives its own line (trailing form) and the line directly below (above
// form) — and nothing else. Both rules of a multi-rule pragma waive.
func TestPragmaWaiverPlacement(t *testing.T) {
	idx := fixtureIndex(t)
	const file = "pragma_fixture.go"
	const pragmaLine = 3 // the hotpathalloc+determflow pragma

	for _, rule := range []string{"hotpathalloc", "determflow"} {
		if !idx.allowedLine(rule, file, pragmaLine) {
			t.Errorf("%s not waived on the pragma's own line (trailing form)", rule)
		}
		if !idx.allowedLine(rule, file, pragmaLine+1) {
			t.Errorf("%s not waived on the line below the pragma (above form)", rule)
		}
	}
	if idx.allowedLine("hotpathalloc", file, pragmaLine-1) {
		t.Errorf("waiver leaked to the line above the pragma")
	}
	if idx.allowedLine("hotpathalloc", file, pragmaLine+2) {
		t.Errorf("waiver leaked two lines below the pragma")
	}
	if idx.allowedLine("maprange", file, pragmaLine) {
		t.Errorf("rule not named by the pragma was waived")
	}
}

// TestMalformedPragmaDiags checks the four malformation reports: unknown
// directive, no rules named, unknown rule name, and missing justification.
func TestMalformedPragmaDiags(t *testing.T) {
	idx := fixtureIndex(t)
	diags := idx.malformedPragmaDiags()
	wants := []string{
		"unknown directive //dophy:allowx",
		"waiver names no rules",
		`waiver names unknown rule "nosuchrule"`,
		"waiver has no justification",
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Msg, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no malformed-pragma diagnostic containing %q; got %v", w, diags)
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d malformed diagnostics, want %d: %v", len(diags), len(wants), diags)
	}
}

// TestStalePragmaDiags checks usage tracking: a rule that suppressed a
// diagnostic is live, a sibling rule on the same pragma that suppressed
// nothing is stale per rule, and unknown rules are excluded (they already
// have a malformed report).
func TestStalePragmaDiags(t *testing.T) {
	idx := fixtureIndex(t)
	// Simulate the engine suppressing one hotpathalloc diagnostic under the
	// multi-rule pragma; determflow on the same line stays unused.
	if !idx.allowedLine("hotpathalloc", "pragma_fixture.go", 4) {
		t.Fatal("setup: hotpathalloc should be waived at line 4")
	}
	stale := idx.staleDiags()
	byMsg := map[string]bool{}
	for _, d := range stale {
		byMsg[d.Msg] = true
	}
	if byMsg["stale waiver: //dophy:allow hotpathalloc suppresses nothing here; delete it"] {
		t.Errorf("used rule reported stale")
	}
	for _, r := range []string{"determflow", "maprange"} {
		if !byMsg["stale waiver: //dophy:allow "+r+" suppresses nothing here; delete it"] {
			t.Errorf("unused rule %s not reported stale; got %v", r, stale)
		}
	}
	for _, d := range stale {
		if strings.Contains(d.Msg, "nosuchrule") {
			t.Errorf("unknown rule reported stale instead of malformed: %s", d)
		}
	}
}
