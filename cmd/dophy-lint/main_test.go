package main

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"dophy/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens instead of comparing")

// goldenDiags is a fixed slice exercising every jsonDiag field, including
// the column-zero edge the encoder must not drop and HTML-significant
// characters, with one sample per rule of the catalogue plus the engine's
// own pragma diagnostics.
func goldenDiags() []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Pos:  token.Position{Filename: "internal/core/dophy.go", Line: 492, Column: 14},
			Rule: "valrange",
			Msg:  "decay factor passed to Obs.Decay is a boundary input (config/flag) not validated against [0, 1]",
		},
		{
			Pos:  token.Position{Filename: "internal/lint/taint.go", Line: 150, Column: 3},
			Rule: "exhaustive",
			Msg:  "switch over EdgeKind misses EdgeExternal; name every member or waive the default with //dophy:allow exhaustive",
		},
		{
			Pos:  token.Position{Filename: "internal/topo/table.go", Line: 7},
			Rule: "idxdomain",
			Msg:  `message with "quotes" & <angle brackets> survives encoding`,
		},
		{
			Pos:  token.Position{Filename: "internal/sim/radio.go", Line: 41, Column: 2},
			Rule: "nogo",
			Msg:  "goroutine outside a //dophy:concurrency-boundary file: simulations are single-threaded by construction",
		},
		{
			Pos:  token.Position{Filename: "internal/routing/ctp.go", Line: 88, Column: 9},
			Rule: "determflow",
			Msg:  "wall-clock time.Now in internal/routing: simulation code runs on sim.Engine virtual time only",
		},
		{
			Pos:  token.Position{Filename: "internal/collect/forward.go", Line: 12, Column: 1},
			Rule: "pragma",
			Msg:  "unknown directive //dophy:hotpth; the engine reads only //dophy:allow, //dophy:hotpath and //dophy:concurrency-boundary",
		},
		{
			Pos:  token.Position{Filename: "internal/collect/forward.go", Line: 57, Column: 12},
			Rule: "hotpathalloc",
			Msg:  "make allocates per call [hot path: internal/collect.(*Collector).forward]",
		},
		{
			Pos:  token.Position{Filename: "internal/experiment/report.go", Line: 30, Column: 2},
			Rule: "maprange",
			Msg:  "map iteration order leaks into output: fmt.Fprintf inside range over map; iterate sorted keys instead",
		},
		{
			Pos:  token.Position{Filename: "internal/routing/neighbors.go", Line: 19, Column: 9},
			Rule: "hotpathalloc",
			Msg:  "closure allocates per call (capture environment) [hot path: internal/routing.(*Protocol).scheduleNow]",
		},
		{
			Pos:  token.Position{Filename: "internal/tomo/lsq/lsq.go", Line: 64, Column: 2},
			Rule: "densebound",
			Msg:  "struct field keyed by topo.Link: per-link state in internal/tomo/lsq is dense, indexed by topo.LinkTable",
		},
	}
}

// TestEmitJSONGolden locks the -json output schema byte-for-byte. CI
// tooling parses this array, so any drift (field names, indentation,
// HTML escaping) must be a deliberate, reviewed change: run
// `go test ./cmd/dophy-lint -run Golden -update` and commit the diff.
func TestEmitJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, goldenDiags()); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}

	golden := filepath.Join("testdata", "json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestSelectRules pins the -rule flag contract: empty spec means no
// filtering, known names build the filter set, and an unknown name is the
// error that makes main exit 2.
func TestSelectRules(t *testing.T) {
	if f, err := selectRules(""); err != nil || f != nil {
		t.Fatalf("selectRules(\"\") = %v, %v; want nil, nil", f, err)
	}
	f, err := selectRules("determflow, nogo")
	if err != nil {
		t.Fatalf("selectRules known rules: %v", err)
	}
	if len(f) != 2 || !f["determflow"] || !f["nogo"] {
		t.Fatalf("selectRules filter = %v, want determflow+nogo", f)
	}
	if _, err := selectRules("determflow,nosuchrule"); err == nil {
		t.Fatal("selectRules accepted unknown rule nosuchrule")
	} else if want := `unknown rule "nosuchrule"`; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("selectRules error %q, want substring %q", err, want)
	}
	if _, err := selectRules(" , ,"); err == nil {
		t.Fatal("selectRules accepted a spec naming no rules")
	}
}

// TestRunExitCodes pins the run() seam's exit contract: 2 for usage and
// load errors (the paths main used to os.Exit from), 1 for violations,
// 0 for inventory modes, which return before linting.
func TestRunExitCodes(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	cases := []struct {
		name      string
		args      []string
		want      int
		errSubstr string
	}{
		{
			name:      "root without go.mod",
			args:      []string{"-root", t.TempDir()},
			want:      2,
			errSubstr: "dophy-lint:",
		},
		{
			name:      "unknown rule",
			args:      []string{"-root", fixture, "-rule", "nosuchrule"},
			want:      2,
			errSubstr: `unknown rule "nosuchrule"`,
		},
		{
			name: "unknown flag",
			args: []string{"-nosuchflag"},
			want: 2,
		},
		{
			name:      "bogus diff ref",
			args:      []string{"-root", t.TempDir(), "-diff", "no-such-ref"},
			want:      2,
			errSubstr: "dophy-lint:",
		},
		{
			name:      "violations in the fixture module",
			args:      []string{"-root", fixture},
			want:      1,
			errSubstr: "violation(s)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if tc.errSubstr != "" && !bytes.Contains(stderr.Bytes(), []byte(tc.errSubstr)) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.errSubstr)
			}
		})
	}
}

// TestEmitJSONEmpty pins the no-violations case to a JSON array, not
// null: consumers index into the result without a nil check.
func TestEmitJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, nil); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty diagnostics encode as %q, want %q", got, "[]\n")
	}
}
