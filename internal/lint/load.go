// Package lint is dophy-lint's rule engine: a whole-module static analysis
// built on nothing but the standard library's go/ast, go/parser and
// go/types, so it runs offline in any environment that can build the repo.
//
// The engine loads every package in the module (respecting //go:build
// constraints for a configurable tag set), type-checks them against each
// other with a module-local importer, and applies one Rule per
// determinism invariant. See rules.go for the rule catalogue and
// DESIGN.md ("Determinism & invariants") for the contract being enforced.
//
// Diagnostics can be waived in place with a pragma comment on the offending
// line or the line directly above:
//
//	//dophy:allow <rule> -- <justification>
//
// Waivers are deliberate, reviewable exceptions (e.g. the single wall-clock
// shim behind experiment T4's throughput row).
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed, lintable source file.
type File struct {
	Name string // path relative to the module root
	AST  *ast.File
}

// Package is one loaded module package with best-effort type information.
type Package struct {
	// Path is the full import path (module path + "/" + RelPath).
	Path string
	// RelPath is the module-relative directory ("" for the root package).
	RelPath string
	Files   []*File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints. The engine tolerates
	// them (rules work on whatever resolved), but the runner can surface
	// them in verbose mode.
	TypeErrors []error
}

// Module is a fully loaded module ready for rule application.
type Module struct {
	Path     string // module path from go.mod
	Root     string // absolute filesystem root
	Fset     *token.FileSet
	Packages []*Package // sorted by RelPath

	// cg, implCache and named lazily cache the whole-module call graph
	// and its class-hierarchy support data (see callgraph.go).
	cg        *CallGraph
	implCache map[*types.Interface][]types.Type
	named     []types.Type
	// hotDiags caches the hotpathalloc analysis (hotpath.go), which is
	// whole-module: computed on first Check, replayed per package.
	hotDiags *[]hotDiag
	// pidx is the pragma index of the Run in flight. The determflow rule
	// consults it so a waiver at a taint source or propagation edge kills
	// the chain there (and counts as usage) instead of requiring a waiver
	// at every downstream sink. taintDiags caches that analysis per index.
	pidx       *pragmaIndex
	taintFor   *pragmaIndex
	taintDiags []hotDiag
	// dfSums/dfDiags/dfDone cache the abstract-interpretation layer shared
	// by the idxdomain and valrange rules (dataflow.go): function return
	// summaries and the whole-module diagnostic set, both pragma-independent.
	dfSums  map[*types.Func]absVal
	dfDiags []dfDiag
	dfDone  bool
	// enums caches the per-named-type member sets the exhaustive rule
	// derives from package scopes (domain_rules.go).
	enums map[*types.Named][]enumMember
	// boundaries caches the //dophy:concurrency-boundary files that nogo
	// and determflow exempt (rules.go).
	boundaries map[*File]*boundaryFile
}

// LoadConfig parameterises module loading.
type LoadConfig struct {
	// Tags are the build tags considered satisfied (beyond the implicit
	// GOOS/GOARCH/go1.x tags). The default build has none; pass
	// "dophy_invariants" to lint the invariant-checked variant.
	Tags []string
	// IncludeTests loads _test.go files too. Off by default: the
	// determinism contract governs production code, and test files use
	// map-keyed subtests and goroutines legitimately.
	IncludeTests bool
}

// Load discovers, parses and type-checks every package under root.
// Directories named testdata or vendor, and those starting with "." or "_",
// are skipped, mirroring the go tool.
func Load(root string, cfg LoadConfig) (*Module, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		mod: &Module{Path: modPath, Root: absRoot, Fset: token.NewFileSet()},
		cfg: cfg,
		tc:  map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.mod.Fset, "source", nil)
	rels, err := packageDirs(absRoot)
	if err != nil {
		return nil, err
	}
	for _, rel := range rels {
		if _, err := l.load(rel); err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", rel, err)
		}
	}
	// A module-local import that failed to load (missing directory, parse
	// error, ...) means whole packages were type-checked against a hole:
	// their diagnostics would be silently incomplete, so a clean exit would
	// lie. Load failures are fatal, not best-effort (unlike ordinary type
	// errors, which analysis tolerates).
	if len(l.loadErrs) > 0 {
		return nil, fmt.Errorf("lint: %w", errorsJoin(l.loadErrs))
	}
	sort.Slice(l.mod.Packages, func(i, j int) bool {
		return l.mod.Packages[i].RelPath < l.mod.Packages[j].RelPath
	})
	return l.mod, nil
}

// errorsJoin is errors.Join constrained to the non-empty case.
func errorsJoin(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "; "))
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			name = strings.Trim(name, `"`)
			if name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns the module-relative directories containing .go files.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					rel = ""
				}
				out = append(out, rel)
				break
			}
		}
		return nil
	})
	return out, err
}

// loader resolves and caches package loads, acting as the types.Importer
// for module-local import paths and delegating the rest to the stdlib
// source importer.
type loader struct {
	mod *Module
	cfg LoadConfig
	std types.Importer
	tc  map[string]*Package // keyed by RelPath
	// loadErrs collects module-local import failures encountered while
	// type-checking. They are fatal at the end of Load: see Load.
	loadErrs []error
}

// load parses and type-checks the package in module-relative directory rel.
func (l *loader) load(rel string) (*Package, error) {
	if p, ok := l.tc[rel]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", rel)
		}
		return p, nil
	}
	l.tc[rel] = nil // cycle marker; cleared again on every error path
	fail := func(err error) (*Package, error) {
		// Leave no stale cycle marker behind: a later load of the same
		// directory must report the real error, not a phantom cycle.
		delete(l.tc, rel)
		return nil, err
	}
	dir := filepath.Join(l.mod.Root, rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(err)
	}
	pkg := &Package{RelPath: rel, Path: l.mod.Path}
	if rel != "" {
		pkg.Path = l.mod.Path + "/" + filepath.ToSlash(rel)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.cfg.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fail(err)
		}
		if !l.buildOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.mod.Fset, filepath.Join(dir, name), src, parser.ParseComments)
		if err != nil {
			return fail(err)
		}
		relName := name
		if rel != "" {
			relName = filepath.ToSlash(filepath.Join(rel, name))
		}
		pkg.Files = append(pkg.Files, &File{Name: relName, AST: f})
		files = append(files, f)
	}
	if len(files) == 0 {
		return fail(fmt.Errorf("no buildable Go files in %s", dir))
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    importerFunc(l.importPath),
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		FakeImportC: true,
	}
	// Check never returns a usable error here: Error is set, so all
	// problems land in TypeErrors and checking continues best-effort.
	pkg.Types, _ = conf.Check(pkg.Path, l.mod.Fset, files, pkg.Info)
	l.tc[rel] = pkg
	l.mod.Packages = append(l.mod.Packages, pkg)
	return pkg, nil
}

// importPath resolves an import encountered while type-checking: module
// packages recurse through the loader; everything else goes to the stdlib
// source importer, degrading to an empty placeholder package on failure so
// analysis of the rest of the file continues.
func (l *loader) importPath(path string) (*types.Package, error) {
	if path == l.mod.Path {
		return l.loadImport("")
	}
	if rest, ok := strings.CutPrefix(path, l.mod.Path+"/"); ok {
		return l.loadImport(rest)
	}
	p, err := l.std.Import(path)
	if err != nil {
		// Missing or cgo-bound stdlib package: synthesise a placeholder so
		// the checker records the import and moves on.
		fake := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		fake.MarkComplete()
		return fake, nil
	}
	return p, nil
}

func (l *loader) loadImport(rel string) (*types.Package, error) {
	p, err := l.load(filepath.FromSlash(rel))
	if err != nil {
		// The type-checker swallows importer errors into per-package
		// TypeErrors, which are advisory; a module-local package that
		// cannot load at all must fail the whole run instead (see Load).
		l.loadErrs = append(l.loadErrs, fmt.Errorf("loading %s: %w", l.mod.Path+"/"+rel, err))
		return nil, err
	}
	return p.Types, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// buildOK evaluates the file's //go:build constraint (if any) against the
// configured tag set. Legacy // +build lines are ignored: this repo never
// uses them, and go vet enforces that the two forms agree anyway.
func (l *loader) buildOK(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if !constraint.IsGoBuild(trimmed) {
				continue
			}
			expr, err := constraint.Parse(trimmed)
			if err != nil {
				return true
			}
			return expr.Eval(l.tagOK)
		}
		// First non-blank, non-comment line: constraints must precede it.
		return true
	}
	return true
}

// tagOK reports whether a single build tag is satisfied.
func (l *loader) tagOK(tag string) bool {
	for _, t := range l.cfg.Tags {
		if tag == t {
			return true
		}
	}
	// Satisfy the host platform and all go1.x version tags so ordinary
	// files are always in scope; this module is platform-independent.
	if strings.HasPrefix(tag, "go1") {
		return true
	}
	switch tag {
	case "linux", "darwin", "amd64", "arm64", "unix":
		return true
	}
	return false
}
