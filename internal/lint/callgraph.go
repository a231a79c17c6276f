package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotPragma annotates a function declaration (in its doc comment) as a
// proven-hot surface: the hotpathalloc rule requires it and everything it
// transitively calls to stay free of per-call heap allocation.
const HotPragma = "//dophy:hotpath"

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeDirect is a statically resolved call: a package-level function
	// or a method on a concrete receiver type.
	EdgeDirect EdgeKind = iota
	// EdgeInterface is a class-hierarchy candidate: a concrete method of a
	// module type that implements the interface being called through.
	EdgeInterface
	// EdgeFuncValue is a signature-matched candidate for a call through a
	// function value (variable, parameter, struct field, method value).
	EdgeFuncValue
	// EdgeUnresolved marks an indirect call whose callee set could not be
	// proven complete (no candidates, or function literals of matching
	// signature exist somewhere in the module). Sound analyses must assume
	// the worst of it.
	EdgeUnresolved
	// EdgeExternal is a call that leaves the module (stdlib or faked
	// import); Ext identifies the callee, whose body is not analysable.
	EdgeExternal
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeDirect:
		return "direct"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	case EdgeUnresolved:
		return "unresolved"
	case EdgeExternal:
		return "external"
	}
	return "unknown"
}

// Edge is one call site -> callee relation.
type Edge struct {
	Pos  token.Pos
	Kind EdgeKind
	// Callee is the module-local target (nil for EdgeUnresolved and
	// EdgeExternal).
	Callee *FuncNode
	// Ext is the out-of-module callee for EdgeExternal.
	Ext *types.Func
	// Deferred and Go mark defer/go call sites.
	Deferred bool
	Go       bool
	// IfaceMiss marks an EdgeUnresolved that came from an interface call
	// with no module implementers: the callee necessarily lives outside the
	// module (a stdlib error value, an injected io.Writer, ...), which the
	// determinism analysis treats as out of scope.
	IfaceMiss bool
	// Local marks a call through a function-typed parameter or local
	// variable — higher-order plumbing whose possible values are created
	// (and analysed) at the caller's caller. Package-level function vars
	// and struct fields are NOT Local: they are mutable dispatch points.
	Local bool
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	File *File
	Pkg  *Package
	// Hot is set when the declaration carries a //dophy:hotpath annotation.
	Hot    bool
	HotPos token.Pos
	Calls  []Edge
	// callers is the reverse adjacency, filled after all edges exist.
	callers []callerRef
}

type callerRef struct {
	node *FuncNode
	edge *Edge
}

// Name returns a stable human-readable identifier: the package-relative
// path plus the types.Func name (which includes the receiver for methods).
func (n *FuncNode) Name() string {
	name := n.Fn.Name()
	if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		name = "(" + types.TypeString(recv, func(p *types.Package) string { return "" }) + ")." + name
	}
	if n.Pkg.RelPath == "" {
		return name
	}
	return n.Pkg.RelPath + "." + name
}

// CallGraph is the module-wide static call graph: one node per declared
// function/method, with call edges resolved as far as a flow-insensitive
// analysis can. Interface calls are expanded by class-hierarchy analysis
// over the module's named types; calls through function values are matched
// against the address-taken functions of identical signature. Both are
// approximations: candidate sets outside the module are invisible, and a
// matching function literal anywhere makes a function-value call
// EdgeUnresolved so sound clients assume the worst. Function literals
// themselves are attributed to their enclosing declaration — a closure's
// body is scanned as part of its encloser.
type CallGraph struct {
	mod   *Module
	Nodes map[*types.Func]*FuncNode
	// order holds the nodes in deterministic construction order (packages
	// sorted by path, files and declarations in source order). Analyses
	// iterate it — never the Nodes map — so diagnostics, taint chains and
	// caller lists come out identical on every run.
	order []*FuncNode
}

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.cg != nil {
		return m.cg
	}
	cg := &CallGraph{mod: m, Nodes: map[*types.Func]*FuncNode{}}
	m.cg = cg

	// Pass 1: one node per declaration; hot annotations from doc comments.
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fd, File: file, Pkg: pkg}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if isHotPragma(c.Text) {
							node.Hot = true
							node.HotPos = c.Pos()
						}
					}
				}
				cg.Nodes[obj] = node
				cg.order = append(cg.order, node)
			}
		}
	}

	// Pass 2: address-taken functions and function-literal signatures, for
	// function-value call resolution. A function referenced anywhere
	// outside call position may flow into any compatible function value.
	addrTaken := map[string][]*FuncNode{} // canonical signature -> candidates
	litSigs := map[string]bool{}          // signatures of func literals
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			// skip holds nodes that are the Fun of a call (not value uses)
			// and the Sel idents of selectors (handled via the selector).
			skip := map[ast.Node]bool{}
			ast.Inspect(file.AST, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					skip[ast.Unparen(v.Fun)] = true
				case *ast.FuncLit:
					if tv, ok := pkg.Info.Types[v]; ok && tv.Type != nil {
						litSigs[sigKey(tv.Type)] = true
					}
				case *ast.SelectorExpr:
					skip[v.Sel] = true
					if !skip[v] {
						cg.collectAddrTakenLeaf(pkg, v, addrTaken)
					}
				case *ast.Ident:
					if !skip[v] {
						cg.collectAddrTakenLeaf(pkg, v, addrTaken)
					}
				}
				return true
			})
		}
	}

	// Pass 3: call edges.
	for _, node := range cg.order {
		body := node.Decl.Body
		if body == nil {
			continue
		}
		node.Calls = cg.scanCalls(node.Pkg, body, addrTaken, litSigs)
	}

	// Reverse adjacency, in deterministic order: taint chains follow the
	// first caller found, so caller lists must be reproducible.
	for _, node := range cg.order {
		for i := range node.Calls {
			e := &node.Calls[i]
			if e.Callee != nil {
				e.Callee.callers = append(e.Callee.callers, callerRef{node: node, edge: e})
			}
		}
	}
	return cg
}

func isHotPragma(text string) bool {
	_, ok := directiveArg(text, HotPragma)
	return ok
}

// collectAddrTakenLeaf registers one identifier or selector as an
// address-taken function reference if it resolves to a module function.
func (cg *CallGraph) collectAddrTakenLeaf(pkg *Package, n ast.Node, into map[string][]*FuncNode) {
	var obj types.Object
	switch v := n.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[v]
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[v]; sel != nil && sel.Kind() == types.MethodVal {
			obj = sel.Obj()
		} else {
			obj = pkg.Info.Uses[v.Sel]
		}
	default:
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	node := cg.Nodes[fn]
	if node == nil {
		return
	}
	key := sigKey(fn.Type())
	for _, existing := range into[key] {
		if existing == node {
			return
		}
	}
	into[key] = append(into[key], node)
}

// sigKey canonicalises a signature for function-value matching. The
// receiver (if any) is dropped: a method value has the receiver already
// bound, so its value-type is the receiverless signature.
func sigKey(t types.Type) string {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() != nil {
		sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	}
	return types.TypeString(sig, func(p *types.Package) string { return p.Path() })
}

// scanCalls finds and resolves every call site in body (including bodies
// of nested function literals, attributed to the same node).
func (cg *CallGraph) scanCalls(pkg *Package, body *ast.BlockStmt, addrTaken map[string][]*FuncNode, litSigs map[string]bool) []Edge {
	var edges []Edge
	var walk func(n ast.Node, deferred, goStmt bool)
	walk = func(root ast.Node, deferred, goStmt bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.DeferStmt:
				walk(v.Call, true, false)
				return false
			case *ast.GoStmt:
				walk(v.Call, false, true)
				return false
			case *ast.CallExpr:
				edges = append(edges, cg.resolveCall(pkg, v, addrTaken, litSigs, deferred, goStmt)...)
				// Arguments and the Fun expression may contain further
				// calls; those are ordinary (not deferred) calls.
				walk(v.Fun, false, false)
				for _, arg := range v.Args {
					walk(arg, false, false)
				}
				return false
			}
			return true
		})
	}
	walk(body, false, false)
	return edges
}

// resolveCall classifies one call expression into zero or more edges.
func (cg *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr, addrTaken map[string][]*FuncNode, litSigs map[string]bool, deferred, goStmt bool) []Edge {
	fun := ast.Unparen(call.Fun)
	mk := func(kind EdgeKind, callee *FuncNode, ext *types.Func) Edge {
		return Edge{Pos: call.Pos(), Kind: kind, Callee: callee, Ext: ext, Deferred: deferred, Go: goStmt}
	}

	// Type conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}

	switch v := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[v].(type) {
		case *types.Func:
			if node := cg.Nodes[obj]; node != nil {
				return []Edge{mk(EdgeDirect, node, nil)}
			}
			return []Edge{mk(EdgeExternal, nil, obj)}
		case *types.Builtin, nil:
			return nil
		default:
			// Function-typed variable or parameter.
			return cg.resolveFuncValue(obj.Type(), call, addrTaken, litSigs, deferred, goStmt, isLocalVar(obj))
		}
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[v]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				recv := sel.Recv()
				if iface, ok := recv.Underlying().(*types.Interface); ok {
					return cg.resolveInterfaceCall(iface, v.Sel.Name, call, deferred, goStmt)
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					// A concrete method: resolve through the receiver's
					// named type to the module declaration.
					if node := cg.lookupMethod(fn); node != nil {
						return []Edge{mk(EdgeDirect, node, nil)}
					}
					return []Edge{mk(EdgeExternal, nil, fn)}
				}
			case types.FieldVal:
				// Calling a function-typed struct field.
				return cg.resolveFuncValue(sel.Type(), call, addrTaken, litSigs, deferred, goStmt, false)
			}
			return []Edge{mk(EdgeUnresolved, nil, nil)}
		}
		// Package-qualified identifier: pkg.Fn or pkg.Var.
		switch obj := pkg.Info.Uses[v.Sel].(type) {
		case *types.Func:
			if node := cg.Nodes[obj]; node != nil {
				return []Edge{mk(EdgeDirect, node, nil)}
			}
			return []Edge{mk(EdgeExternal, nil, obj)}
		case *types.Var:
			// Package-level function-typed variable.
			return cg.resolveFuncValue(obj.Type(), call, addrTaken, litSigs, deferred, goStmt, false)
		}
		return []Edge{mk(EdgeUnresolved, nil, nil)}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed to
		// the enclosing declaration by scanCalls.
		return nil
	}
	// Anything else (index expressions into function slices, results of
	// calls, ...) is an indirect call through a value.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.Type != nil {
		return cg.resolveFuncValue(tv.Type, call, addrTaken, litSigs, deferred, goStmt, false)
	}
	return []Edge{mk(EdgeUnresolved, nil, nil)}
}

// isLocalVar reports whether obj is a function-scoped variable or
// parameter (as opposed to a package-level variable or a struct field).
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pkg() == nil || v.Parent() == nil || v.Parent() != v.Pkg().Scope()
}

// resolveFuncValue matches an indirect call against the address-taken
// functions of identical signature. The edge set additionally carries an
// EdgeUnresolved marker when it cannot be proven complete: when function
// literals of the same signature exist anywhere in the module, or when no
// candidate matched at all.
func (cg *CallGraph) resolveFuncValue(t types.Type, call *ast.CallExpr, addrTaken map[string][]*FuncNode, litSigs map[string]bool, deferred, goStmt, local bool) []Edge {
	key := sigKey(t)
	var edges []Edge
	for _, cand := range addrTaken[key] {
		edges = append(edges, Edge{Pos: call.Pos(), Kind: EdgeFuncValue, Callee: cand, Deferred: deferred, Go: goStmt, Local: local})
	}
	if len(edges) == 0 || litSigs[key] {
		edges = append(edges, Edge{Pos: call.Pos(), Kind: EdgeUnresolved, Deferred: deferred, Go: goStmt, Local: local})
	}
	return edges
}

// resolveInterfaceCall expands a call through an interface by class
// hierarchy analysis: every named module type whose method set satisfies
// the interface contributes its method as a candidate. With no module
// candidates the call is unresolved (the implementation lives outside the
// module or is constructed dynamically).
func (cg *CallGraph) resolveInterfaceCall(iface *types.Interface, method string, call *ast.CallExpr, deferred, goStmt bool) []Edge {
	var edges []Edge
	for _, impl := range cg.mod.implementers(iface) {
		fn := implMethod(impl, method)
		if fn == nil {
			continue
		}
		if node := cg.lookupMethod(fn); node != nil {
			edges = append(edges, Edge{Pos: call.Pos(), Kind: EdgeInterface, Callee: node, Deferred: deferred, Go: goStmt})
		}
	}
	if len(edges) == 0 {
		edges = append(edges, Edge{Pos: call.Pos(), Kind: EdgeUnresolved, IfaceMiss: true, Deferred: deferred, Go: goStmt})
	}
	return edges
}

// lookupMethod maps a *types.Func (possibly an instantiated or embedded
// view of a method) back to the module's declared node.
func (cg *CallGraph) lookupMethod(fn *types.Func) *FuncNode {
	if node := cg.Nodes[fn]; node != nil {
		return node
	}
	if orig := fn.Origin(); orig != nil {
		return cg.Nodes[orig]
	}
	return nil
}

// implMethod finds the method with the given name in T's method set
// (value and pointer receivers both count: a caller holding an interface
// necessarily holds an addressable value).
func implMethod(t types.Type, name string) *types.Func {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == name {
			return fn
		}
	}
	return nil
}

// implementers returns the module's named non-interface types that
// implement iface (directly or through a pointer receiver), cached per
// interface identity.
func (m *Module) implementers(iface *types.Interface) []types.Type {
	if m.implCache == nil {
		m.implCache = map[*types.Interface][]types.Type{}
	}
	if impls, ok := m.implCache[iface]; ok {
		return impls
	}
	var impls []types.Type
	for _, t := range m.namedTypes() {
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			impls = append(impls, t)
		}
	}
	m.implCache[iface] = impls
	return impls
}

// namedTypes enumerates (once) every named type declared in the module.
func (m *Module) namedTypes() []types.Type {
	if m.named != nil {
		return m.named
	}
	for _, pkg := range m.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			m.named = append(m.named, tn.Type())
		}
	}
	return m.named
}

// Funcs returns every declared function in deterministic order.
func (cg *CallGraph) Funcs() []*FuncNode { return cg.order }

// HotFuncs returns the //dophy:hotpath-annotated functions sorted by name.
func (cg *CallGraph) HotFuncs() []*FuncNode {
	var out []*FuncNode
	for _, n := range cg.order {
		if n.Hot {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Inventory renders the module's hot-path annotation inventory, one
// function per line ("<pkg-relative-path> <func>"), sorted — the golden
// format committed as hotpath-inventory.txt.
func Inventory(m *Module) []string {
	var out []string
	for _, n := range m.CallGraph().HotFuncs() {
		rel := n.Pkg.RelPath
		if rel == "" {
			rel = "."
		}
		name := n.Fn.Name()
		if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			name = "(" + types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" }) + ")." + name
		}
		out = append(out, rel+" "+name)
	}
	sort.Strings(out)
	return out
}
