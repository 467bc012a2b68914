// Package maporder flags range-over-map loops that can leak Go's
// randomized map iteration order into output that must be
// deterministic. It encodes the contract behind the PR 6 wavelet bug:
// coefficient sums were accumulated by ranging over a
// map[uint64]float64, so two servers holding bit-identical summaries
// returned different floats for the same query (float addition is not
// associative) and bit-for-bit serving broke.
//
// The analyzer runs only in packages annotated //sasvet:deterministic.
// A map range there is flagged when its body is order-sensitive —
// floating-point accumulation, a serialization/encoding call, or an
// append whose slice is not sorted by its elements later in the function —
// or when the loop sits anywhere on a call path from an Estimate* or
// Marshal* function of the package, unless the body is one of the blessed
// order-insensitive shapes (collect-keys-then-sort, map-to-map rebuild,
// integer counting). The escape hatch is //sasvet:ok <reason>, reason
// required.
//
// Collect-then-sort is blessed only when the sort orders the collected
// elements themselves: a natural-order sort (sort.Ints, slices.Sort,
// xsort.Ints, ...) or a sort.Slice, sort.SliceStable or slices.SortFunc
// comparator that compares the two elements, possibly after derived keys.
// A sort by a derived key alone (a depth, a relevance score) leaves tied
// elements in map order, which is how two-pass hierarchy sampling drew a
// different sample on every run.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"structaware/internal/analysis/sasdir"
)

var Analyzer = &analysis.Analyzer{
	Name:     "maporder",
	Doc:      "flag nondeterministic map iteration feeding deterministic output (estimates, serialization)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if !sasdir.PackageMarked(pass.Files, "deterministic") {
		return nil, nil
	}
	sup := sasdir.Index(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	reach := reachable(pass)

	// Visit every function body once so each range statement is
	// attributed to its innermost enclosing named function.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := classify(pass, fd, rs, obj, reach); reason != "" {
				sup.Report(pass, analysis.Diagnostic{
					Pos: rs.Pos(),
					End: rs.X.End(),
					Message: "map iteration order is nondeterministic and this loop " + reason +
						"; iterate sorted keys instead (the PR 6 wavelet estimate bug), or suppress with //sasvet:ok <reason>",
				})
			}
			return true
		})
	})
	return nil, nil
}

// classify decides whether a map-range loop can leak iteration order,
// returning a human-readable reason or "".
func classify(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj *types.Func, reach map[*types.Func]string) string {
	if r := orderSensitive(pass, fd, rs); r != "" {
		return r
	}
	if root, ok := reach[obj]; ok && !benignBody(pass, fd, rs) {
		return "is reachable from " + root + " (a deterministic-output entry point)"
	}
	return ""
}

// orderSensitive reports the first order-sensitive construct in the
// loop body: float accumulation, serialization calls, or appends whose
// slice is never sorted afterwards.
func orderSensitive(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) string {
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if isFloatAccumulation(pass, n) {
				reason = "accumulates floating-point values (addition order changes the bits)"
				return false
			}
			for _, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isAppend(pass, call) {
					target := assignTarget(pass, n)
					if target == nil {
						continue
					}
					switch sortedLater(pass, fd, rs, target) {
					case unsorted:
						reason = "appends to " + target.Name() + " which is never sorted afterwards"
					case sortedByDerivedKey:
						reason = "appends to " + target.Name() + " which is sorted by a derived key that can tie"
					}
					if reason != "" {
						return false
					}
				}
			}
		case *ast.CallExpr:
			if name := calleeName(n); serializing(name) {
				reason = "feeds serialization via " + name
				return false
			}
		}
		return true
	})
	return reason
}

// isFloatAccumulation matches `x += expr` / `x -= ...` etc. and
// `x = x + expr` where x is floating point.
func isFloatAccumulation(pass *analysis.Pass, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return len(as.Lhs) == 1 && isFloat(pass.TypesInfo.TypeOf(as.Lhs[0]))
	case token.ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloat(pass.TypesInfo.TypeOf(as.Lhs[0])) {
			return false
		}
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL) {
			return false
		}
		lobj := exprObj(pass, as.Lhs[0])
		return lobj != nil && (exprObj(pass, bin.X) == lobj || exprObj(pass, bin.Y) == lobj)
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
	}
	return b.Info()&types.IsFloat != 0
}

// serializing matches callee names that write bytes out in call order.
func serializing(name string) bool {
	for _, p := range []string{"Write", "Marshal", "Encode", "Fprint", "Print", "Sprint", "Append"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// calleeName extracts the bare name of a call's callee ("WriteAxis",
// "Encode"), or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// assignTarget resolves the variable an append assignment grows, when
// it is a plain identifier.
func assignTarget(pass *analysis.Pass, as *ast.AssignStmt) *types.Var {
	if len(as.Lhs) != 1 {
		return nil
	}
	v, _ := exprObj(pass, as.Lhs[0]).(*types.Var)
	return v
}

func exprObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if o := pass.TypesInfo.Uses[e]; o != nil {
			return o
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// sortKind is how a function orders a slice collected from a map range.
type sortKind int

const (
	unsorted           sortKind = iota
	sortedByDerivedKey          // a sort whose ties keep map order
	sortedByElements            // a total order on the elements themselves
)

// sortedLater reports how, after the range loop, the function sorts v: the
// best order among the sorting calls (sort.*, slices.*, xsort.*, or any
// *Sort* method) that mention v. An unsorted escape (plain return) does
// not count.
func sortedLater(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, v *types.Var) sortKind {
	best := unsorted
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if best == sortedByElements || n == nil || n.Pos() <= rs.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !sortingCall(call) {
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && exprObj(pass, id) == v {
					mentioned = true
				}
				return !mentioned
			})
			if mentioned {
				best = max(best, sortOrder(pass, call, v))
				return false
			}
		}
		return true
	})
	return best
}

// sortingCall matches sort.X(...), slices.SortX(...), xsort.X(...) and
// method calls whose name contains "Sort".
func sortingCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		switch id.Name {
		case "sort", "slices", "xsort":
			return true
		}
	}
	return strings.Contains(sel.Sel.Name, "Sort")
}

// sortOrder classifies a sorting call that mentions v: natural-order sorts
// of v, and comparator sorts of v whose comparator compares the two
// elements, order by elements; every other sort orders by a derived key.
func sortOrder(pass *analysis.Pass, call *ast.CallExpr, v *types.Var) sortKind {
	sel := call.Fun.(*ast.SelectorExpr)
	pkg, _ := sel.X.(*ast.Ident)
	if pkg == nil || exprObj(pass, ast.Unparen(call.Args[0])) != v {
		return sortedByDerivedKey
	}
	switch pkg.Name + "." + sel.Sel.Name {
	case "sort.Ints", "sort.Strings", "sort.Float64s", "slices.Sort", "xsort.Ints":
		return sortedByElements
	case "sort.Slice", "sort.SliceStable", "slices.SortFunc", "slices.SortStableFunc":
		// sort.Slice's less(i, j) compares v[i] and v[j]; slices.SortFunc's
		// cmp(a, b) compares a and b themselves.
		lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
		if !ok {
			break
		}
		var params []types.Object
		for _, f := range lit.Type.Params.List {
			for _, id := range f.Names {
				params = append(params, pass.TypesInfo.Defs[id])
			}
		}
		elem := func(e ast.Expr, param types.Object) bool {
			e = ast.Unparen(e)
			if pkg.Name == "sort" {
				ix, ok := e.(*ast.IndexExpr)
				if !ok || exprObj(pass, ast.Unparen(ix.X)) != v {
					return false
				}
				e = ast.Unparen(ix.Index)
			}
			return exprObj(pass, e) == param
		}
		if len(params) == 2 && comparesPair(lit, func(x, y ast.Expr) bool {
			return elem(x, params[0]) && elem(y, params[1]) || elem(x, params[1]) && elem(y, params[0])
		}) {
			return sortedByElements
		}
	}
	return sortedByDerivedKey
}

// comparesPair reports whether lit's body orders one element against the
// other: an ordering comparison (<, <=, >, >=) or a Compare/Less call whose
// operands are the pair.
func comparesPair(lit *ast.FuncLit, pair func(x, y ast.Expr) bool) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = found || pair(n.X, n.Y)
			}
		case *ast.CallExpr:
			if name := calleeName(n); (name == "Compare" || name == "Less") && len(n.Args) == 2 {
				found = found || pair(n.Args[0], n.Args[1])
			}
		}
		return !found
	})
	return found
}

// benignBody reports whether a map-range body is one of the blessed
// order-insensitive shapes: every statement either collects keys into a
// slice that IS sorted later, rebuilds another map (m[k] = v), deletes
// from a map, or bumps an integer. Any call (other than append/delete
// builtins), float write, or other side effect disqualifies it.
func benignBody(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	benign := true
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if !benign {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch l := lhs.(type) {
				case *ast.IndexExpr:
					// m[k] = v into a map is order-insensitive.
					t := pass.TypesInfo.TypeOf(l.X)
					if t == nil {
						benign = false
					} else if _, isMap := t.Underlying().(*types.Map); !isMap {
						benign = false
					}
				case *ast.Ident:
					if isFloat(pass.TypesInfo.TypeOf(l)) {
						benign = false
						break
					}
					// keys = append(keys, k) is fine iff sorted later.
					if i < len(n.Rhs) {
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok && isAppend(pass, call) {
							if v := assignTarget(pass, n); v == nil || sortedLater(pass, fd, rs, v) != sortedByElements {
								benign = false
							}
							break
						}
					}
					if n.Tok == token.ADD_ASSIGN || n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						// integer counters and scalar bookkeeping are
						// commutative; anything else is suspect
						if !isInteger(pass.TypesInfo.TypeOf(l)) && n.Tok != token.DEFINE {
							benign = false
						}
					}
				default:
					benign = false
				}
			}
		case *ast.IncDecStmt:
			if !isInteger(pass.TypesInfo.TypeOf(n.X)) {
				benign = false
			}
		case *ast.CallExpr:
			switch name := calleeName(n); name {
			case "append", "delete", "len", "cap", "max", "min":
			default:
				benign = false
			}
			return false
		}
		return true
	})
	return benign
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// reachable builds the package-internal call graph and returns every
// function reachable from an Estimate* or Marshal* entry point, mapped
// to the name of one such root.
func reachable(pass *analysis.Pass) map[*types.Func]string {
	callees := make(map[*types.Func][]*types.Func)
	decls := make(map[*types.Func]bool)
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = true
			if strings.HasPrefix(fd.Name.Name, "Estimate") || strings.HasPrefix(fd.Name.Name, "Marshal") {
				roots = append(roots, obj)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee, ok := exprObj(pass, call.Fun).(*types.Func); ok && callee.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], callee)
				}
				return true
			})
		}
	}
	reach := make(map[*types.Func]string)
	var visit func(fn *types.Func, root string)
	visit = func(fn *types.Func, root string) {
		if _, seen := reach[fn]; seen || !decls[fn] {
			return
		}
		reach[fn] = root
		for _, c := range callees[fn] {
			visit(c, root)
		}
	}
	for _, r := range roots {
		visit(r, r.Name())
	}
	return reach
}
