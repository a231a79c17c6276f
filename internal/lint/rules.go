package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// Rule maprange: no output-order dependence on map iteration.
//
// Ranging over a map is fine for commutative accumulation (building another
// map, summing). It is a determinism bug as soon as the body emits anything
// ordered: printing, writing to an io.Writer, or appending to a result
// slice. The one exempt shape is the sorted-keys idiom — a loop that only
// collects the keys into a slice that a later sort.* / slices.* call orders.
// ---------------------------------------------------------------------------

type ruleMapRange struct{}

func (ruleMapRange) Name() string { return "maprange" }

// printLike are the fmt functions that produce ordered output.
var printLike = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
}

// writerMethods are method names treated as io.Writer-style ordered sinks.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func (ruleMapRange) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		fmtNames := importNames(file.AST, "fmt")
		ioNames := importNames(file.AST, "io")
		sortNames := append(importNames(file.AST, "sort"), importNames(file.AST, "slices")...)
		var stack []ast.Node
		ast.Inspect(file.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkMapRange(pkg, rs, enclosingFuncBody(stack), fmtNames, ioNames, sortNames, report)
			}
			return true
		})
	}
}

// enclosingFuncBody returns the body of the innermost function on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pkg *Package, rs *ast.RangeStmt, fnBody *ast.BlockStmt,
	fmtNames, ioNames, sortNames []string, report func(pos token.Pos, format string, args ...any)) {
	tv, ok := pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = objectOf(pkg.Info, id)
	}

	// Taint scan of the loop body.
	var keyTargets []types.Object // slices receiving only the range key
	tainted := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := isPkgSelector(v.Fun, fmtNames); ok && printLike[sel.Sel.Name] && resolvesToPackage(pkg.Info, sel) {
				tainted = true
				report(rs.Pos(), "map iteration order leaks into output: fmt.%s inside range over map; iterate sorted keys instead", sel.Sel.Name)
				return false
			}
			if sel, ok := isPkgSelector(v.Fun, ioNames); ok && sel.Sel.Name == "WriteString" && resolvesToPackage(pkg.Info, sel) {
				tainted = true
				report(rs.Pos(), "map iteration order leaks into output: io.WriteString inside range over map; iterate sorted keys instead")
				return false
			}
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && writerMethods[sel.Sel.Name] {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					tainted = true
					report(rs.Pos(), "map iteration order leaks into output: %s call inside range over map; iterate sorted keys instead", sel.Sel.Name)
					return false
				}
			}
		case *ast.AssignStmt:
			if v.Tok != token.ASSIGN {
				return true
			}
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				target, appended, ok := appendSelf(pkg, lhs, v.Rhs[i])
				if !ok || target == nil {
					continue
				}
				// Only accumulation into slices that outlive the loop counts.
				if target.Pos() >= rs.Pos() && target.Pos() < rs.End() {
					continue
				}
				if keyObj != nil && len(appended) == 1 {
					if id, ok := appended[0].(*ast.Ident); ok && objectOf(pkg.Info, id) == keyObj {
						keyTargets = append(keyTargets, target)
						continue
					}
				}
				tainted = true
				report(rs.Pos(), "appending map-ordered values to %q inside range over map; iterate sorted keys instead", target.Name())
				return false
			}
		}
		return true
	})
	if tainted {
		return
	}
	// Sorted-keys idiom: the collected key slices must actually be sorted
	// after the loop.
	for _, target := range keyTargets {
		if !sortedAfter(pkg, fnBody, rs.End(), target, sortNames) {
			report(rs.Pos(), "map keys collected into %q but never sorted afterwards; sort before consuming", target.Name())
		}
	}
}

// appendSelf matches the accumulation form `x = append(x, args...)` and
// returns x's object plus the appended argument expressions.
func appendSelf(pkg *Package, lhs ast.Expr, rhs ast.Expr) (types.Object, []ast.Expr, bool) {
	lid, ok := lhs.(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, nil, false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != lid.Name {
		return nil, nil, false
	}
	return objectOf(pkg.Info, lid), call.Args[1:], true
}

// sortedAfter reports whether a sort./slices. call mentioning target appears
// after pos within the function body.
func sortedAfter(pkg *Package, fnBody *ast.BlockStmt, pos token.Pos, target types.Object, sortNames []string) bool {
	if fnBody == nil || len(sortNames) == 0 {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if _, ok := isPkgSelector(call.Fun, sortNames); !ok {
			return true
		}
		ast.Inspect(call, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok && objectOf(pkg.Info, id) == target {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// Rule nogo: goroutines live only in declared concurrency boundaries.
//
// A single sim.Engine run is strictly sequential by design. A file may opt
// into spawning goroutines by declaring
//
//	//dophy:concurrency-boundary -- <why this boundary preserves determinism>
//
// which exempts it from nogo and from determflow's goroutine taint. What a
// boundary does with its goroutines is pinned at run time, not here:
// TestShardedByteDeterminism (shard engine, K in {1,2,4,8}),
// TestRunMatchesSequentialEpochs and TestRunShardedMatchesSequentialEpochs
// (epoch pipeline) and TestRunAllDeterministicAcrossWorkerCounts (sweep
// pool). A goroutine
// anywhere else either races the simulation or makes event order
// scheduling-dependent. The rule also polices boundary hygiene: a pragma
// without a justification, or in a file that spawns nothing, is itself a
// diagnostic.
// ---------------------------------------------------------------------------

// BoundaryPragma sanctions goroutines in the file that carries it.
const BoundaryPragma = "//dophy:concurrency-boundary"

// boundaryFile is one file carrying a //dophy:concurrency-boundary pragma.
type boundaryFile struct {
	pos    token.Pos
	reason string
}

// boundaryFiles collects (once) the module's concurrency-boundary files.
func (m *Module) boundaryFiles() map[*File]*boundaryFile {
	if m.boundaries != nil {
		return m.boundaries
	}
	m.boundaries = map[*File]*boundaryFile{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.AST.Comments {
				for _, c := range cg.List {
					arg, ok := directiveArg(c.Text, BoundaryPragma)
					if !ok || m.boundaries[file] != nil {
						continue
					}
					_, reason, _ := strings.Cut(arg, "--")
					m.boundaries[file] = &boundaryFile{pos: c.Pos(), reason: strings.TrimSpace(reason)}
				}
			}
		}
	}
	return m.boundaries
}

type ruleGoStmt struct{}

func (ruleGoStmt) Name() string { return "nogo" }

func (ruleGoStmt) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	boundaries := m.boundaryFiles()
	for _, file := range pkg.Files {
		bf := boundaries[file]
		spawns := false
		ast.Inspect(file.AST, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				spawns = true
				if bf == nil {
					report(g.Pos(), "goroutine outside a //dophy:concurrency-boundary file: simulations are single-threaded by construction")
				}
			}
			return true
		})
		if bf == nil {
			continue
		}
		if bf.reason == "" {
			report(bf.pos, "concurrency-boundary pragma has no justification; append ' -- <why this boundary preserves determinism>'")
		}
		if !spawns {
			report(bf.pos, "file declares a concurrency boundary but spawns no goroutines; delete the pragma")
		}
	}
}

// ---------------------------------------------------------------------------
// Rule densebound: per-link state is indexed by topo.LinkTable.
//
// The estimation pipeline and the radio models keep per-link state in flat
// vectors indexed by the topology's immutable link table; a map[topo.Link]
// struct field in these packages reintroduces the hashing and allocation
// churn the dense refactors removed (DESIGN.md "Dense link indexing").
// Deliberate boundary shapes can carry a //dophy:allow densebound waiver.
// ---------------------------------------------------------------------------

type ruleDenseBound struct{}

func (ruleDenseBound) Name() string { return "densebound" }

// denseBoundRestricted are the module-relative package prefixes whose
// per-link state must be dense.
var denseBoundRestricted = []string{"internal/tomo", "internal/trace", "internal/experiment", "internal/radio"}

func (ruleDenseBound) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	restricted := false
	for _, p := range denseBoundRestricted {
		if pkg.RelPath == p || strings.HasPrefix(pkg.RelPath, p+"/") {
			restricted = true
			break
		}
	}
	if !restricted {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := pkg.Info.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				if obj := linkKeyedMap(m, tv.Type, 0); obj != nil {
					report(field.Pos(), "struct field keyed by %s.Link: per-link state in %s is dense, indexed by topo.LinkTable",
						obj.Pkg().Name(), pkg.RelPath)
				}
			}
			return true
		})
	}
}

// linkKeyedMap walks a type's unnamed structure looking for a map keyed by
// the topology package's Link type. Like containsPooled it does not descend
// into named types: a field of a named type is that type's own business.
func linkKeyedMap(m *Module, t types.Type, depth int) types.Object {
	if depth > 8 {
		return nil
	}
	switch v := t.(type) {
	case *types.Map:
		if named, ok := v.Key().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Link" && obj.Pkg() != nil && obj.Pkg().Path() == m.Path+"/internal/topo" {
				return obj
			}
		}
		return linkKeyedMap(m, v.Elem(), depth+1)
	case *types.Pointer:
		return linkKeyedMap(m, v.Elem(), depth+1)
	case *types.Slice:
		return linkKeyedMap(m, v.Elem(), depth+1)
	case *types.Array:
		return linkKeyedMap(m, v.Elem(), depth+1)
	case *types.Chan:
		return linkKeyedMap(m, v.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if obj := linkKeyedMap(m, v.Field(i).Type(), depth+1); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// importSpecs returns the import specs for the given path in the file.
func importSpecs(f *ast.File, path string) []*ast.ImportSpec {
	var out []*ast.ImportSpec
	for _, spec := range f.Imports {
		if strings.Trim(spec.Path.Value, `"`) == path {
			out = append(out, spec)
		}
	}
	return out
}

// resolvesToPackage confirms (when type information is available) that the
// selector's base identifier really is a package name and not a shadowing
// local variable. With no resolution recorded it errs on the side of
// reporting.
func resolvesToPackage(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj := info.Uses[id]; obj != nil {
		_, isPkg := obj.(*types.PkgName)
		return isPkg
	}
	return true
}
