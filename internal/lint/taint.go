package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Rule determflow: nondeterminism must not flow into sim-visible state.
//
// The sources are wall-clock reads (time.Now and friends), math/rand use
// outside internal/rng, goroutine spawns outside a declared concurrency
// boundary, and indirect calls whose callee set cannot be resolved at all
// (assumed nondeterministic — soundness over silence). The sinks are
// everything the simulation or estimation pipeline can observe: all module
// code under internal/ plus the root package, except internal/rng (the
// sanctioned seeded stream; deterministic by contract) and internal/lint
// (tooling). cmd/ and examples/ may time and parallelise things for humans.
//
// Direct uses are reported where they appear: any math/rand reference (or
// a bare import) anywhere outside internal/rng, and any wall-clock
// reference — call or function value — inside sink scope. A source
// laundered through helper functions is caught by taint propagation over
// the whole-module call graph, reported once per leak at the first call
// edge where sink code reaches a tainted function outside sink scope, with
// the full call chain down to the source in the message. A
// //dophy:allow determflow waiver on a source or on a call edge kills
// propagation there, so one reviewed waiver at the sanctioned spot (e.g.
// the T4 wall-clock shim) covers every downstream consumer.
//
// determflow also extends maprange inter-procedurally: ranging over a map
// while calling a module function that transitively writes ordered output
// (fmt.Print/Fprint family or io.Writer-style methods) leaks iteration
// order just as surely as printing inline.
// ---------------------------------------------------------------------------

const determRuleName = "determflow"

type ruleDetermFlow struct{}

func (ruleDetermFlow) Name() string { return determRuleName }

func (ruleDetermFlow) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	if !inRNG(pkg.RelPath) {
		checkRandUse(m, pkg, report)
	}
	if sinkScope(pkg.RelPath) {
		checkWallClock(pkg, report)
	}
	for _, d := range m.determDiags() {
		if d.pkg == pkg {
			report(d.pos, d.format, d.args...)
		}
	}
}

// checkRandUse reports every math/rand reference in pkg, or the import
// itself when nothing references it (e.g. a blank import).
func checkRandUse(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		for _, path := range []string{"math/rand", "math/rand/v2"} {
			specs := importSpecs(file.AST, path)
			if len(specs) == 0 {
				continue
			}
			names := importNames(file.AST, path)
			uses := 0
			ast.Inspect(file.AST, func(n ast.Node) bool {
				if sel, ok := isPkgSelector(n, names); ok && resolvesToPackage(pkg.Info, sel) {
					uses++
					report(sel.Pos(), "use of %s.%s: all randomness must come from %s/internal/rng (seeded, splittable)",
						path, sel.Sel.Name, m.Path)
				}
				return true
			})
			if uses == 0 {
				report(specs[0].Pos(), "import of %s is forbidden outside internal/rng; use %s/internal/rng", path, m.Path)
			}
		}
	}
}

// wallTimeFuncs are the time package functions that read or schedule on the
// wall clock.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// checkWallClock reports every wall-clock reference in a sink-scope package.
func checkWallClock(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		names := importNames(file.AST, "time")
		if len(names) == 0 {
			continue
		}
		ast.Inspect(file.AST, func(n ast.Node) bool {
			if sel, ok := isPkgSelector(n, names); ok && wallTimeFuncs[sel.Sel.Name] && resolvesToPackage(pkg.Info, sel) {
				report(sel.Pos(), "wall-clock time.%s in %s: simulation code runs on sim.Engine virtual time only",
					sel.Sel.Name, pkg.RelPath)
			}
			return true
		})
	}
}

// taintInfo records why a function is tainted: the originating source and
// the next hop on the call path toward it (nil when the source is local).
type taintInfo struct {
	desc string
	pos  token.Pos
	next *FuncNode
}

// taintChain renders the call path from n down to its source.
func taintChain(n *FuncNode, taint map[*FuncNode]*taintInfo) string {
	var parts []string
	for cur := n; cur != nil; {
		parts = append(parts, cur.Name())
		ti := taint[cur]
		if ti == nil {
			break
		}
		if ti.next == nil {
			parts = append(parts, ti.desc)
			break
		}
		cur = ti.next
	}
	return strings.Join(parts, " -> ")
}

// sinkScope reports whether a package's state is simulation-visible: the
// module root and internal/*, minus the tooling (internal/lint) and the
// sanctioned randomness source (internal/rng).
func sinkScope(rel string) bool {
	for _, exempt := range []string{"internal/lint", "internal/rng"} {
		if rel == exempt || strings.HasPrefix(rel, exempt+"/") {
			return false
		}
	}
	return rel == "" || rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// inRNG reports whether rel is the sanctioned randomness package.
func inRNG(rel string) bool { return rel == "internal/rng" || strings.HasPrefix(rel, "internal/rng/") }

// determDiags computes (once per pragma index) every determflow diagnostic.
// It consults the active Run's pragma index during propagation so a waiver
// at a source or call edge kills the chain there — and counts as usage.
func (m *Module) determDiags() []hotDiag {
	idx := m.pidx
	if idx == nil {
		idx = m.newPragmaIndex(AllRules())
	}
	if m.taintFor != nil && m.taintFor == idx {
		return m.taintDiags
	}
	cg := m.CallGraph()
	var diags []hotDiag
	allowed := func(pos token.Pos) bool { return idx.allowedAt(determRuleName, pos) }

	// Deterministic node order for stable diagnostics and taint chains.
	nodes := cg.Funcs()

	taint := map[*FuncNode]*taintInfo{}
	var queue []*FuncNode
	mark := func(n *FuncNode, ti *taintInfo) {
		// internal/rng is a taint barrier: deterministic by contract.
		if taint[n] != nil || inRNG(n.Pkg.RelPath) {
			return
		}
		taint[n] = ti
		queue = append(queue, n)
	}

	// Pass 1: direct sources, with in-scope source-site reports.
	for _, n := range nodes {
		if inRNG(n.Pkg.RelPath) {
			continue
		}
		sink := sinkScope(n.Pkg.RelPath)
		hasCand := map[token.Pos]bool{}
		for i := range n.Calls {
			if n.Calls[i].Kind == EdgeFuncValue {
				hasCand[n.Calls[i].Pos] = true
			}
		}
		for i := range n.Calls {
			e := &n.Calls[i]
			switch e.Kind {
			case EdgeExternal:
				if e.Ext == nil || e.Ext.Pkg() == nil {
					continue
				}
				switch path := e.Ext.Pkg().Path(); {
				case path == "time" && wallTimeFuncs[e.Ext.Name()]:
					if allowed(e.Pos) {
						continue
					}
					mark(n, &taintInfo{desc: "time." + e.Ext.Name(), pos: e.Pos})
				case path == "math/rand" || path == "math/rand/v2":
					if allowed(e.Pos) {
						continue
					}
					mark(n, &taintInfo{desc: path + "." + e.Ext.Name(), pos: e.Pos})
				}
			case EdgeUnresolved:
				// A call with no statically known callees at all. Interface
				// misses resolve outside the module (stdlib values) and are
				// out of scope; calls through parameters/locals are callback
				// plumbing whose values are analysed where they are created;
				// what remains — package-level function vars and struct
				// fields with zero candidates — must be assumed
				// nondeterministic.
				if e.IfaceMiss || e.Local || hasCand[e.Pos] || allowed(e.Pos) {
					continue
				}
				mark(n, &taintInfo{desc: "unresolvable indirect call", pos: e.Pos})
				if sink {
					diags = append(diags, hotDiag{pkg: n.Pkg, pos: e.Pos,
						format: "indirect call has no statically known callee; determflow must assume it is nondeterministic"})
				}
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
				// Resolved in-module edges seed nothing here; pass 2
				// propagates taint across them once sources are known.
			}
		}
		// Goroutine spawns reorder observable events — except inside a
		// declared //dophy:concurrency-boundary file, whose merge order is
		// pinned by the run-time determinism tests named in rules.go (nogo).
		if n.Decl.Body != nil && m.boundaryFiles()[n.File] == nil {
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				if g, ok := x.(*ast.GoStmt); ok && !allowed(g.Pos()) {
					mark(n, &taintInfo{desc: "go statement", pos: g.Pos()})
				}
				return true
			})
		}
	}

	// Pass 2: propagate taint to callers through resolved edges.
	for qi := 0; qi < len(queue); qi++ {
		g := queue[qi]
		ti := taint[g]
		for _, ref := range g.callers {
			switch ref.edge.Kind {
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
			case EdgeUnresolved, EdgeExternal:
				continue
			}
			if taint[ref.node] != nil || allowed(ref.edge.Pos) {
				continue
			}
			mark(ref.node, &taintInfo{desc: ti.desc, pos: ti.pos, next: g})
		}
	}

	// Pass 3: boundary reports — sink code reaching a tainted function
	// outside sink scope. Edges between two sink-scope functions stay
	// silent (the source site already reported, and cascades would bury it).
	type bkey struct {
		pos token.Pos
		g   *FuncNode
	}
	seen := map[bkey]bool{}
	for _, f := range nodes {
		if !sinkScope(f.Pkg.RelPath) {
			continue
		}
		for i := range f.Calls {
			e := &f.Calls[i]
			switch e.Kind {
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
			case EdgeUnresolved, EdgeExternal:
				continue
			}
			g := e.Callee
			if g == nil || sinkScope(g.Pkg.RelPath) || taint[g] == nil {
				continue
			}
			if seen[bkey{e.Pos, g}] {
				continue
			}
			seen[bkey{e.Pos, g}] = true
			if allowed(e.Pos) {
				continue
			}
			diags = append(diags, hotDiag{pkg: f.Pkg, pos: e.Pos,
				format: "call into %s carries nondeterminism from %s (chain: %s)",
				args:   []any{g.Name(), taint[g].desc, taintChain(g, taint)}})
		}
	}

	// Pass 4: inter-procedural map-order leaks — a range over a map whose
	// body calls a module function that transitively writes ordered output.
	ordered := map[*FuncNode]bool{}
	var oq []*FuncNode
	for _, n := range nodes {
		if directOrderedOutput(n) {
			ordered[n] = true
			oq = append(oq, n)
		}
	}
	for qi := 0; qi < len(oq); qi++ {
		g := oq[qi]
		for _, ref := range g.callers {
			// Direct and interface edges only: function-value candidate
			// sets are signature-matched and would over-approximate here.
			switch ref.edge.Kind {
			case EdgeDirect, EdgeInterface:
			case EdgeFuncValue, EdgeUnresolved, EdgeExternal:
				continue
			}
			if !ordered[ref.node] {
				ordered[ref.node] = true
				oq = append(oq, ref.node)
			}
		}
	}
	for _, f := range nodes {
		if !sinkScope(f.Pkg.RelPath) || f.Decl.Body == nil {
			continue
		}
		f := f
		ast.Inspect(f.Decl.Body, func(x ast.Node) bool {
			rs, ok := x.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := f.Pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			seenPos := map[token.Pos]bool{}
			for i := range f.Calls {
				e := &f.Calls[i]
				if e.Pos < rs.Body.Pos() || e.Pos >= rs.Body.End() {
					continue
				}
				switch e.Kind {
				case EdgeDirect, EdgeInterface:
				case EdgeFuncValue, EdgeUnresolved, EdgeExternal:
					continue
				}
				if e.Callee == nil || !ordered[e.Callee] || seenPos[e.Pos] {
					continue
				}
				seenPos[e.Pos] = true
				if allowed(e.Pos) {
					continue
				}
				diags = append(diags, hotDiag{pkg: f.Pkg, pos: e.Pos,
					format: "map iteration order leaks through call to %s, which transitively writes ordered output; iterate sorted keys instead",
					args:   []any{e.Callee.Name()}})
			}
			return true
		})
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	m.taintFor, m.taintDiags = idx, diags
	return diags
}

// orderedFmt are the fmt functions whose output order is observable.
// Sprint-family calls build values rather than emit them, so they are left
// to the flow analysis of whoever writes the result.
var orderedFmt = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// directOrderedOutput reports whether n's own body emits ordered output.
func directOrderedOutput(n *FuncNode) bool {
	if n.Decl.Body == nil {
		return false
	}
	fmtNames := importNames(n.File.AST, "fmt")
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := isPkgSelector(call.Fun, fmtNames); ok && orderedFmt[sel.Sel.Name] && resolvesToPackage(n.Pkg.Info, sel) {
			found = true
			return false
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && writerMethods[sel.Sel.Name] {
			if s := n.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
