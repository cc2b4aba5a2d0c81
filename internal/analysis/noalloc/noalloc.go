// Package noalloc defines an analyzer that proves //req:noalloc functions
// contain no allocating constructs on any path.
//
// The repo's hot query paths are pinned to zero allocations at runtime by
// testing.AllocsPerRun (internal/core/alloc_test.go), but a runtime pin only
// covers exercised paths. This analyzer turns the pin into a whole-path
// compile-time guarantee for every function annotated with the
// //req:noalloc directive: the function body is rejected if it contains a
// construct the compiler may lower to a heap allocation.
//
// Rejected constructs:
//
//   - make, new, and slice/map composite literals
//   - taking the address of a composite literal (&T{...})
//   - append (growth may reallocate; waive a provably pre-sized append with
//     a //req:allocok comment on the same line)
//   - starting goroutines and defer statements
//   - conversions between string and []byte/[]rune, and conversions to
//     interface types
//   - passing a concrete value where the callee expects an interface
//     parameter, or returning one as an interface result (boxing)
//   - function literals that escape (passed as a call argument, returned,
//     or stored in a field/element); a literal bound to a local variable
//     and invoked locally stays on the stack and is allowed
//   - calls to functions that are not themselves //req:noalloc, not in the
//     non-allocating stdlib allowlist (math, math/bits, sync/atomic), and
//     not alloc-free builtins (len, cap, copy, clear, min, max, ...)
//
// Calls through function values (the sketch's caller-supplied less
// comparator, batch emit callbacks) are allowed by design: the contract is
// that callers of the hot paths supply allocation-free callbacks, and each
// named callback is itself checked at its definition when annotated. An
// interface method is a callee like any other: calling it requires the
// directive on the method in the interface declaration, and that directive
// annotates every method implementing it in the same package — a method of
// the same name on a type declaring all of the interface's method names —
// so each implementation's body is checked as if annotated itself. Facts
// propagate the annotation across packages, so a //req:noalloc function may
// call an annotated function from a dependency.
//
// An individual construct can be waived with a //req:allocok line comment
// carrying a justification, e.g. an append into storage the function just
// ensured capacity for.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"req/internal/analysis/internal/reqdir"
)

// Analyzer rejects allocating constructs inside //req:noalloc functions.
var Analyzer = &analysis.Analyzer{
	Name:      "noalloc",
	Doc:       "report allocating constructs inside functions annotated //req:noalloc",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*isNoAlloc)(nil)},
	Run:       run,
}

// isNoAlloc marks a function object as annotated //req:noalloc, allowing
// annotated functions in other packages to call it.
type isNoAlloc struct{}

func (*isNoAlloc) AFact()         {}
func (*isNoAlloc) String() string { return "req:noalloc" }

// allowedPkgs lists stdlib packages whose exported functions are known not
// to allocate (pure arithmetic and atomics).
var allowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allowedBuiltins are the builtins that never allocate. append, make, and
// new are handled (and rejected) separately.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "clear": true, "delete": true,
	"min": true, "max": true, "real": true, "imag": true, "panic": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: collect annotated functions and export their facts before any
	// body is checked, so intra-package calls between annotated functions
	// resolve no matter the declaration order.
	annotated := make(map[*types.Func]bool)
	ifaces := annotatedIfaceMethods(pass, ins, annotated)
	var decls []*ast.FuncDecl
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok || !reqdir.Has(fd.Doc, "noalloc") && !implementsAnnotated(fn, ifaces) {
			return
		}
		annotated[fn] = true
		pass.ExportObjectFact(fn, &isNoAlloc{})
		if fd.Body != nil {
			decls = append(decls, fd)
		}
	})
	if len(decls) == 0 {
		return nil, nil
	}

	// Waiver lines, per file.
	waived := make(map[*token.File]map[int]bool)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil {
			waived[tf] = reqdir.LineSet(pass.Fset, f, "allocok")
		}
	}

	c := &checker{pass: pass, annotated: annotated, waived: waived}
	for _, fd := range decls {
		c.checkFunc(fd)
	}
	return nil, nil
}

// ifaceNoAlloc is one interface of the package with annotated methods:
// every method name it declares, and the names carrying the directive.
type ifaceNoAlloc struct {
	methods   []string
	annotated map[string]bool
}

// annotatedIfaceMethods marks (and exports) every interface method whose
// declaration carries the directive, returning the interfaces that have any.
func annotatedIfaceMethods(pass *analysis.Pass, ins *inspector.Inspector, annotated map[*types.Func]bool) []ifaceNoAlloc {
	var out []ifaceNoAlloc
	ins.Preorder([]ast.Node{(*ast.InterfaceType)(nil)}, func(n ast.Node) {
		it := n.(*ast.InterfaceType)
		in := ifaceNoAlloc{annotated: make(map[string]bool)}
		for _, f := range it.Methods.List {
			for _, name := range f.Names {
				in.methods = append(in.methods, name.Name)
				fn, ok := pass.TypesInfo.Defs[name].(*types.Func)
				if ok && reqdir.Has(f.Doc, "noalloc") {
					in.annotated[name.Name] = true
					annotated[fn] = true
					pass.ExportObjectFact(fn, &isNoAlloc{})
				}
			}
		}
		if len(in.annotated) > 0 {
			out = append(out, in)
		}
	})
	return out
}

// implementsAnnotated reports whether method fn implements an annotated
// interface method: its name is annotated in an interface all of whose
// method names the receiver's type declares.
func implementsAnnotated(fn *types.Func, ifaces []ifaceNoAlloc) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || len(ifaces) == 0 {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	named = named.Origin()
	has := make(map[string]bool, named.NumMethods())
	for i := 0; i < named.NumMethods(); i++ {
		has[named.Method(i).Name()] = true
	}
	for _, in := range ifaces {
		if !in.annotated[fn.Name()] {
			continue
		}
		all := true
		for _, m := range in.methods {
			all = all && has[m]
		}
		if all {
			return true
		}
	}
	return false
}

type checker struct {
	pass      *analysis.Pass
	annotated map[*types.Func]bool
	waived    map[*token.File]map[int]bool
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if tf := c.pass.Fset.File(pos); tf != nil {
		if lines := c.waived[tf]; lines != nil && lines[c.pass.Fset.Position(pos).Line] {
			return
		}
	}
	c.pass.Reportf(pos, "req:noalloc: "+format, args...)
}

// checkFunc walks the body of one annotated function. The walk carries the
// parent node so escape-relevant contexts (a FuncLit as a call argument vs
// bound to a local) can be told apart.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	sig, _ := c.pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	c.walk(fd.Body, nil, sig)
}

// walk visits n with parent p, descending into every child. sig is the
// enclosing function signature (for return boxing checks); it changes when
// the walk enters a function literal.
func (c *checker) walk(n ast.Node, p ast.Node, sig *types.Signature) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.GoStmt:
		c.report(x.Pos(), "starts a goroutine (allocates a stack)")
	case *ast.DeferStmt:
		c.report(x.Pos(), "defer may allocate its frame")
	case *ast.CompositeLit:
		c.checkCompositeLit(x, p)
	case *ast.FuncLit:
		if c.funcLitEscapes(p) {
			c.report(x.Pos(), "function literal escapes (closure allocates); bind it to a local variable instead")
		}
		var inner *types.Signature
		if t, ok := c.pass.TypesInfo.TypeOf(x).(*types.Signature); ok {
			inner = t
		}
		for _, stmt := range x.Body.List {
			c.walk(stmt, x.Body, inner)
		}
		return // children handled with the literal's own signature
	case *ast.CallExpr:
		c.checkCall(x)
	case *ast.ReturnStmt:
		c.checkReturnBoxing(x, sig)
	}
	// Generic descent.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		c.walk(child, n, sig)
		return false
	})
}

// checkCompositeLit rejects literal types that are heap-backed (slices,
// maps) and composite literals whose address is taken. Plain struct and
// array values live on the stack.
func (c *checker) checkCompositeLit(lit *ast.CompositeLit, parent ast.Node) {
	t := c.pass.TypesInfo.TypeOf(lit)
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates")
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
	}
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		c.report(lit.Pos(), "address of composite literal may escape to the heap")
	}
}

// funcLitEscapes reports whether a function literal in the given parent
// context can escape: passed to a call, returned, or stored anywhere other
// than a local variable.
func (c *checker) funcLitEscapes(parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.CallExpr:
		return true // argument (the callee position is a direct invocation, but a FuncLit callee is ((func(){})()) — still stack; be conservative only for args)
	case *ast.ReturnStmt:
		return true
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		// Escapes when any LHS is not a plain (local) identifier.
		for _, lhs := range p.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// checkCall classifies one call expression: conversion, builtin, static
// callee, or dynamic call.
func (c *checker) checkCall(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name())
			return
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if b, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name())
			return
		}
	}
	callee := typeutil.Callee(c.pass.TypesInfo, call)
	fn, ok := callee.(*types.Func)
	if !ok {
		// Dynamic call through a function value or interface method:
		// allowed by contract (comparators and emit callbacks are assumed
		// allocation-free; annotate their definitions to have them checked).
		c.checkArgBoxing(call)
		return
	}
	fn = fn.Origin()
	if !c.calleeIsNoAlloc(fn) {
		c.report(call.Pos(), "calls %s which is not //req:noalloc", fn.FullName())
	}
	c.checkArgBoxing(call)
}

func (c *checker) calleeIsNoAlloc(fn *types.Func) bool {
	if c.annotated[fn] {
		return true
	}
	if c.pass.ImportObjectFact(fn, &isNoAlloc{}) {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil && allowedPkgs[pkg.Path()] {
		return true
	}
	// Methods on types in allowed packages (atomic.Uint64.Load, ...).
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := recv.Type().(*types.Pointer); ok {
			if n, ok := named.Elem().(*types.Named); ok && n.Obj().Pkg() != nil && allowedPkgs[n.Obj().Pkg().Path()] {
				return true
			}
		}
		if n, ok := recv.Type().(*types.Named); ok && n.Obj().Pkg() != nil && allowedPkgs[n.Obj().Pkg().Path()] {
			return true
		}
	}
	return false
}

func (c *checker) checkBuiltin(call *ast.CallExpr, name string) {
	switch name {
	case "append":
		c.report(call.Pos(), "append may grow the backing array")
	case "make":
		c.report(call.Pos(), "make allocates")
	case "new":
		c.report(call.Pos(), "new allocates")
	case "print", "println":
		c.report(call.Pos(), "%s may allocate", name)
	default:
		if !allowedBuiltins[name] {
			c.report(call.Pos(), "builtin %s may allocate", name)
		}
	}
	if name == "panic" {
		// The panic value itself may box; covered by arg boxing below.
		c.checkArgBoxingTo(call.Args, types.NewInterfaceType(nil, nil))
	}
}

// checkConversion rejects conversions the compiler implements with an
// allocation: string<->[]byte/[]rune and concrete->interface.
func (c *checker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if types.IsInterface(toU) && !types.IsInterface(fromU) {
		c.report(call.Pos(), "conversion to interface boxes the value")
		return
	}
	if isString(toU) && isByteOrRuneSlice(fromU) || isString(fromU) && isByteOrRuneSlice(toU) {
		c.report(call.Pos(), "string conversion copies and allocates")
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// checkArgBoxing reports arguments whose parameter type is an interface but
// whose argument type is concrete: the call site boxes.
func (c *checker) checkArgBoxing(call *ast.CallExpr) {
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if params.Len() == 0 {
				break
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			if call.Ellipsis.IsValid() && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // xs... passes the slice through
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		c.reportBoxedArg(arg, pt)
	}
}

func (c *checker) checkArgBoxingTo(args []ast.Expr, pt types.Type) {
	for _, arg := range args {
		c.reportBoxedArg(arg, pt)
	}
}

func (c *checker) reportBoxedArg(arg ast.Expr, pt types.Type) {
	if !types.IsInterface(pt.Underlying()) {
		return
	}
	at := c.pass.TypesInfo.TypeOf(arg)
	if at == nil || types.IsInterface(at.Underlying()) {
		return
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	c.report(arg.Pos(), "passing %s as interface argument boxes the value", at)
}

// checkReturnBoxing reports concrete values returned as interface results.
func (c *checker) checkReturnBoxing(ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return, or multi-value call spread — nothing concrete to pin
	}
	for i, res := range ret.Results {
		rt := sig.Results().At(i).Type()
		if !types.IsInterface(rt.Underlying()) {
			continue
		}
		at := c.pass.TypesInfo.TypeOf(res)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		c.report(res.Pos(), "returning %s as interface result boxes the value", at)
	}
}
