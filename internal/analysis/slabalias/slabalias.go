// Package slabalias defines an analyzer guarding the level-buffer contract
// of internal/core: every compactor owns its buf, a slice that grows by
// append, so
//
//   - scratch and mergeBuf must never be assigned level-buffer storage
//     (runtime debug.go checks this with unsafe.SliceData overlap; this
//     analyzer rejects the assignment shapes that could create overlap);
//   - a local aliasing a level buffer (tail := s.levels[0].buf[...], also
//     when bound in a multi-value assignment) must not be used after a
//     call that can grow the levels slice or that buffer (resizeLevels,
//     compactions, slices.Grow or append on the buffer, whether through
//     the sketch or through a *compactor local) — the buffer may have
//     been reallocated under it;
//   - a *compactor pointer (c := &s.levels[h]) must be re-taken after any
//     call that can grow the levels slice, matching the re-take idiom the
//     code already uses.
//
// The analyzer activates only in packages that declare a compactor type
// (internal/core and test fixtures), and uses textual-position tracking:
// exact for straight-line code, conservative for loops.
package slabalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer guards the level-buffer aliasing contract.
var Analyzer = &analysis.Analyzer{
	Name:     "slabalias",
	Doc:      "report level-buffer aliases used after the buffer may have grown, and scratch buffers aliased to a level",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// levelGrowers can grow/reorder the levels slice, invalidating *compactor
// pointers taken from it.
var levelGrowers = map[string]bool{
	"resizeLevels": true, "emitHalf": true,
	"compactCascade": true, "compactLevel": true, "specialCompactLevel": true,
	"growTo": true, "insertAtLevel": true, "Reset": true, "CopyFrom": true,
}

// bufGrowers can also grow (reallocate) a level buffer, invalidating
// locals that alias one. append and slices.Grow count only when their
// first argument is a level buffer.
var bufGrowers = map[string]bool{
	"append": true, "Grow": true,
	"update": true, "updateBatch": true, "Update": true, "UpdateBatch": true,
	"UpdateWeighted": true, "IngestRun": true, "Merge": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Activate only where the contract lives: packages declaring compactor.
	if pass.Pkg.Scope().Lookup("compactor") == nil {
		return nil, nil
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

type checker struct {
	pass *analysis.Pass
}

// isLevelBuf reports whether e denotes level-buffer storage: <x>.buf where
// x's type is a (pointer to) struct named compactor, or a slice expression
// over one.
func (c *checker) isLevelBuf(e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		return c.isLevelBuf(sl.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "buf" {
		return false
	}
	return typeNamed(c.pass.TypesInfo.TypeOf(sel.X), "compactor")
}

func typeNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// poison is one growing call that invalidates a local: it taints uses in
// (pos, end]. end is the function end by default, or the enclosing block's
// end when the block cannot fall through (it ends in continue/break/
// return), since code after such a block is unreachable from the call.
type poison struct {
	pos token.Pos
	end token.Pos
	by  string
}

// bufLocal tracks a local variable aliasing a level buffer, or a
// *compactor pointer into the levels slice. root is the variable the
// owning sketch expression is rooted at (src in src.levels[h].buf), seen
// through *compactor locals (s, not lv, in lv.buf after lv := &s.levels[0]):
// only growth through the same root invalidates the local.
type bufLocal struct {
	obj     types.Object
	root    types.Object
	kind    string // "buffer" or "compactor"
	takenAt token.Pos
	poisons []poison
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	// Poison scope per call: the function end, narrowed to the enclosing
	// block's end when the block ends in a terminator (continue/break/
	// return), since the code after it never sees the call's effects.
	callEnds := make(map[*ast.CallExpr]token.Pos)
	markCallEnds(fd.Body, fd.Body.End(), callEnds)

	// Phase 1: find locals that alias level buffers or point into levels.
	var locals []*bufLocal
	lhsPos := make(map[token.Pos]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		x, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range x.Lhs {
			if id, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
				lhsPos[id.Pos()] = true
			}
		}
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Lhs {
				locals = c.trackLocal(x.Lhs[i], x.Rhs[i], x.Pos(), locals)
			}
		}
		return true
	})

	// Phase 2: single source-order walk applying the rules.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			c.poisonLocals(x, locals, callEnds)
		case *ast.AssignStmt:
			c.checkScratchAssign(x, locals)
		case *ast.Ident:
			if !lhsPos[x.Pos()] {
				c.checkUseAfterPoison(x, locals)
			}
		}
		return true
	})
}

// trackLocal appends a bufLocal for lhs when rhs aliases a level buffer or
// points at a compactor, and returns locals unchanged otherwise.
func (c *checker) trackLocal(lhs, rhs ast.Expr, at token.Pos, locals []*bufLocal) []*bufLocal {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return locals
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return locals
	}
	rhs = ast.Unparen(rhs)
	kind, from := "buffer", rhs
	if u, isUnary := rhs.(*ast.UnaryExpr); isUnary && u.Op == token.AND && typeNamed(c.pass.TypesInfo.TypeOf(rhs), "compactor") {
		kind, from = "compactor", u.X
	} else if !c.isLevelBuf(rhs) {
		return locals
	}
	root := resolveRoot(rootObject(c.pass.TypesInfo, from), at, locals)
	return append(locals, &bufLocal{obj: obj, root: root, kind: kind, takenAt: at})
}

// resolveRoot sees a root through a *compactor local: when root is such a
// local (lv after lv := &s.levels[0]), it returns that local's own root
// (s) as of its latest take before pos, so an alias and a growth meet
// whether each goes through lv or through s.
func resolveRoot(root types.Object, pos token.Pos, locals []*bufLocal) types.Object {
	var govern *bufLocal
	for _, l := range locals {
		if l.kind == "compactor" && l.obj == root && l.takenAt < pos && (govern == nil || l.takenAt > govern.takenAt) {
			govern = l
		}
	}
	if govern == nil {
		return root
	}
	return govern.root
}

// calleeName extracts the bare method/function name of a call.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	case *ast.Ident:
		return f.Name, true
	}
	return "", false
}

// markCallEnds records, for every call in the statement tree, the position
// after which the call's effects are unreachable: inherited from the
// enclosing scope, narrowed to a block's end when that block ends in a
// terminator statement.
func markCallEnds(n ast.Node, end token.Pos, out map[*ast.CallExpr]token.Pos) {
	if n == nil {
		return
	}
	if b, ok := n.(*ast.BlockStmt); ok {
		inner := end
		if len(b.List) > 0 {
			switch last := b.List[len(b.List)-1].(type) {
			case *ast.BranchStmt:
				if last.Tok == token.CONTINUE || last.Tok == token.BREAK {
					inner = b.End()
				}
			case *ast.ReturnStmt:
				inner = b.End()
			}
		}
		for _, st := range b.List {
			markCallEnds(st, inner, out)
		}
		return
	}
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		switch x := child.(type) {
		case *ast.BlockStmt:
			markCallEnds(x, end, out)
			return false
		case *ast.CallExpr:
			out[x] = end
			return true // nested calls inherit the same end
		}
		return true
	})
}

// growerRoot resolves the variable whose levels a growing call can touch:
// the root of the receiver chain for a method (s for s.compactCascade),
// the root of the first argument for a function (append, slices.Grow).
// ok is false when the call cannot grow a level: append or a package
// function whose first argument is not a level buffer.
func (c *checker) growerRoot(call *ast.CallExpr) (root types.Object, ok bool) {
	fun := ast.Unparen(call.Fun)
	if sel, isSel := fun.(*ast.SelectorExpr); isSel {
		id, isIdent := ast.Unparen(sel.X).(*ast.Ident)
		if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); !isIdent || !isPkg {
			return rootObject(c.pass.TypesInfo, sel.X), true
		}
	} else if _, isIdent := fun.(*ast.Ident); !isIdent {
		return nil, true
	}
	if len(call.Args) == 0 || !c.isLevelBuf(call.Args[0]) {
		return nil, false
	}
	return rootObject(c.pass.TypesInfo, call.Args[0]), true
}

// poisonLocals marks buffer/compactor locals stale after growing calls on
// the same sketch root.
func (c *checker) poisonLocals(call *ast.CallExpr, locals []*bufLocal, callEnds map[*ast.CallExpr]token.Pos) {
	name, ok := calleeName(call)
	if !ok || !levelGrowers[name] && !bufGrowers[name] {
		return
	}
	root, grows := c.growerRoot(call)
	if !grows {
		return
	}
	root = resolveRoot(root, call.Pos(), locals)
	end := callEnds[call]
	if end == token.NoPos {
		end = token.Pos(1 << 30)
	}
	for _, l := range locals {
		if call.Pos() <= l.takenAt {
			continue
		}
		// Growth through a different sketch root leaves this local's
		// buffer untouched. Unresolvable roots poison conservatively.
		if root != nil && l.root != nil && root != l.root {
			continue
		}
		if levelGrowers[name] || l.kind == "buffer" {
			l.poisons = append(l.poisons, poison{pos: call.Pos(), end: end, by: name})
		}
	}
}

// checkScratchAssign rejects assigning level-buffer storage to scratch or
// mergeBuf directly (append-copies like append(s.scratch[:0], w...) copy
// out of the level and are fine).
func (c *checker) checkScratchAssign(as *ast.AssignStmt, locals []*bufLocal) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "scratch" && sel.Sel.Name != "mergeBuf") || rhs == nil {
			continue
		}
		if c.isLevelBuf(rhs) || c.isBufLocalExpr(rhs, locals) {
			c.pass.Reportf(lhs.Pos(),
				"req:slabalias: assigning level-buffer storage to %s; scratch buffers must never alias a level (copy with append(%s[:0], ...) instead)",
				sel.Sel.Name, sel.Sel.Name)
		}
	}
}

// isBufLocalExpr reports whether e is (a slice of) a local known to alias
// a level buffer.
func (c *checker) isBufLocalExpr(e ast.Expr, locals []*bufLocal) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		return c.isBufLocalExpr(sl.X, locals)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.TypesInfo.Uses[id]
	for _, l := range locals {
		if l.obj == obj && l.kind == "buffer" {
			return true
		}
	}
	return false
}

// rootObject returns the variable at the root of a selector/index chain,
// or nil.
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
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkUseAfterPoison reports buffer/compactor locals used after the
// levels or the buffer may have grown.
func (c *checker) checkUseAfterPoison(id *ast.Ident, locals []*bufLocal) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	// The governing binding is the latest take before the use; a re-take
	// (tail = s.levels[0].buf[...] again, lv = &s.levels[0]) supersedes
	// earlier poisons.
	var govern *bufLocal
	for _, l := range locals {
		if l.obj == obj && l.takenAt < id.Pos() && (govern == nil || l.takenAt > govern.takenAt) {
			govern = l
		}
	}
	if govern == nil {
		return
	}
	for _, p := range govern.poisons {
		if id.Pos() <= p.pos || id.Pos() > p.end {
			continue
		}
		switch govern.kind {
		case "buffer":
			c.pass.Reportf(id.Pos(),
				"req:slabalias: %s aliases a level buffer but is used after %s may have reallocated it; re-slice after the call",
				id.Name, p.by)
		case "compactor":
			c.pass.Reportf(id.Pos(),
				"req:slabalias: %s points into the levels slice but is used after %s may have grown it; re-take the pointer (c = &s.levels[h])",
				id.Name, p.by)
		}
		return
	}
}
