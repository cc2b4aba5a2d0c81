// Package viewlifetime defines an analyzer enforcing the *View recycling
// contract from internal/core/query.go: the value returned by SortedView()
// is owned by the sketch and is valid only until the next write to that
// sketch. Outside the owning package, a *View must therefore be consumed
// immediately:
//
//   - it must not be stored in a struct field, global, map/slice element,
//     composite literal, or channel (those outlive the statement);
//   - it must not be returned (the caller can't see the owner's next
//     write) — unless the function is annotated //req:viewpass, declaring
//     it forwards the view without extending its lifetime;
//   - a local holding a view must not be used after any call that can
//     write to the owning sketch (Update, Merge, Reset, ...), or after the
//     owner is passed to another function (which may write).
//
// Use-after-write detection is textual-position based: within one function
// body, a mutator call on the owner at an earlier position poisons the
// view for all later uses. That is exact for straight-line code — the shape
// every real call site has — and errs toward reporting for loops (a view
// taken before a loop that writes inside it is correctly flagged, since
// iteration 2 uses a stale view).
//
// The owning package (internal/core) is exempt: it implements the
// recycling machinery and holds views in fields by design.
package viewlifetime

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

// Analyzer enforces the SortedView lifetime contract.
var Analyzer = &analysis.Analyzer{
	Name:     "viewlifetime",
	Doc:      "report *core.View values stored beyond their validity window or used after a write to the owning sketch",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// mutators are methods that can write to a sketch and thereby invalidate
// any previously returned view.
var mutators = map[string]bool{
	"Update": true, "UpdateBatch": true,
	"UpdateWeighted": true, "Merge": true, "Reset": true,
	"CopyFrom": true, "Observe": true, "Add": true, "Ingest": true,
}

// producers are methods whose result is a borrowed *View.
var producers = map[string]bool{
	"SortedView": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "core" {
		return nil, nil // the owning package implements the machinery
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	c := &checker{pass: pass}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		c.checkFunc(fd)
	})
	return nil, nil
}

// isViewPtr reports whether t is *V for a named type V called "View"
// declared in a package named "core".
func isViewPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "View" && obj.Pkg() != nil && obj.Pkg().Name() == "core"
}

type checker struct {
	pass *analysis.Pass
}

// binding records one local that holds a borrowed view: the view variable,
// the root object of the owning sketch expression, and where the view was
// taken.
type binding struct {
	view    types.Object
	owner   types.Object
	takenAt token.Pos
	// poisonedAt is the position of the first later write to the owner;
	// NoPos while still valid.
	poisonedAt token.Pos
	poisonedBy string
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	viewpass := reqdir.Has(fd.Doc, "viewpass")

	// Collect view bindings: v := owner.SortedView(). Re-takes create a
	// fresh binding, matching the documented "re-take SortedView()" idiom.
	var bindings []*binding
	lhsPos := make(map[token.Pos]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if id, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
				lhsPos[id.Pos()] = true
			}
		}
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		owner, isProducer := c.producerOwner(call)
		if !isProducer {
			return true
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true
		}
		bindings = append(bindings, &binding{view: obj, owner: owner, takenAt: as.Pos()})
		return true
	})

	// Walk every node once, in source order, applying the rules.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Does this call write to a bound owner, or receive the owner
			// as an argument (and so may write)?
			c.maybePoison(x, bindings)
		case *ast.AssignStmt:
			c.checkStores(x)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if c.isViewExpr(e) {
					c.pass.Reportf(e.Pos(),
						"req:viewlifetime: *View stored in composite literal outlives its validity window (valid only until the next write to the sketch)")
				}
			}
		case *ast.SendStmt:
			if c.isViewExpr(x.Value) {
				c.pass.Reportf(x.Value.Pos(),
					"req:viewlifetime: *View sent on channel escapes its validity window")
			}
		case *ast.ReturnStmt:
			if viewpass {
				break
			}
			for _, r := range x.Results {
				if c.isViewExpr(r) {
					c.pass.Reportf(r.Pos(),
						"req:viewlifetime: returning a *View extends it beyond its validity window (annotate //req:viewpass if the caller consumes it before the next write)")
				}
			}
		case *ast.Ident:
			if !lhsPos[x.Pos()] {
				c.checkUseAfterPoison(x, bindings)
			}
		}
		return true
	})
}

// producerOwner reports whether call is owner.SortedView() and resolves the
// owner expression's root object.
func (c *checker) producerOwner(call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !producers[sel.Sel.Name] {
		return nil, false
	}
	if t := c.pass.TypesInfo.TypeOf(call); t == nil || !isViewPtr(t) {
		return nil, false
	}
	return rootObject(c.pass.TypesInfo, sel.X), true
}

// rootObject returns the variable at the root of a selector chain, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// maybePoison marks bindings stale when call can write to their owner:
// either a mutator method on the owner, or the owner passed as an argument.
func (c *checker) maybePoison(call *ast.CallExpr, bindings []*binding) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if mutators[sel.Sel.Name] {
			if root := rootObject(c.pass.TypesInfo, sel.X); root != nil {
				for _, b := range bindings {
					if b.owner == root && b.poisonedAt == token.NoPos && call.Pos() > b.takenAt {
						b.poisonedAt = call.Pos()
						b.poisonedBy = sel.Sel.Name
					}
				}
			}
			return
		}
		// Reads (Rank, Quantile, ...) on the owner are fine.
		if _, isProducer := c.producerOwner(call); isProducer {
			return
		}
	}
	// Owner escaping as a call argument: the callee may write to it.
	if fn, _ := typeutil.Callee(c.pass.TypesInfo, call).(*types.Func); fn != nil {
		if pkg := fn.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "fmt", "strings", "strconv", "errors", "testing":
				return // well-known read-only consumers
			}
		}
	}
	for _, arg := range call.Args {
		root := rootObject(c.pass.TypesInfo, arg)
		if root == nil {
			continue
		}
		// Only pointer-typed owners can be written through.
		if t := c.pass.TypesInfo.TypeOf(arg); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
				continue
			}
		}
		for _, b := range bindings {
			if b.owner == root && b.poisonedAt == token.NoPos && call.Pos() > b.takenAt {
				b.poisonedAt = call.Pos()
				b.poisonedBy = "passing the sketch to " + calleeName(c.pass.TypesInfo, call)
			}
		}
	}
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn, _ := typeutil.Callee(info, call).(*types.Func); fn != nil {
		return fn.Name()
	}
	return "a function"
}

// checkStores flags assignments that store a view anywhere longer-lived
// than a local variable.
func (c *checker) checkStores(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil || !c.isViewExpr(rhs) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[l]; obj != nil {
				if v, ok := obj.(*types.Var); ok && isGlobal(v) {
					c.pass.Reportf(lhs.Pos(),
						"req:viewlifetime: *View stored in package-level variable %s outlives its validity window", v.Name())
				}
			}
		case *ast.SelectorExpr:
			c.pass.Reportf(lhs.Pos(),
				"req:viewlifetime: *View stored in field %s outlives its validity window (valid only until the next write to the sketch)", l.Sel.Name)
		case *ast.IndexExpr:
			c.pass.Reportf(lhs.Pos(),
				"req:viewlifetime: *View stored in a container element outlives its validity window")
		case *ast.StarExpr:
			c.pass.Reportf(lhs.Pos(),
				"req:viewlifetime: *View stored through a pointer outlives its validity window")
		}
	}
}

func isGlobal(v *types.Var) bool {
	return v.Parent() == v.Pkg().Scope()
}

// isViewExpr reports whether e has type *core.View.
func (c *checker) isViewExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	return t != nil && isViewPtr(t)
}

// checkUseAfterPoison reports a use of a view local after its owner was
// written to.
func (c *checker) checkUseAfterPoison(id *ast.Ident, bindings []*binding) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	// The governing binding is the latest take of this variable before the
	// use; an earlier poisoned binding is superseded by a re-take.
	var govern *binding
	for _, b := range bindings {
		if b.view == obj && b.takenAt < id.Pos() && (govern == nil || b.takenAt > govern.takenAt) {
			govern = b
		}
	}
	if govern != nil && govern.poisonedAt != token.NoPos && id.Pos() > govern.poisonedAt {
		c.pass.Reportf(id.Pos(),
			"req:viewlifetime: view %s used after %s invalidated it (views are valid only until the next write to the sketch; re-take SortedView())",
			id.Name, govern.poisonedBy)
	}
}
