// Package poolreturn enforces the pool-ownership contract (DESIGN.md §9)
// on every sync.Pool in the tree — in this repo: logstore's loader pool
// (a collapser and its read buffer) and the campaign nodeScratch pool.
// A pooled value is owned by exactly one goroutine between Get and Put;
// breaking the discipline corrupts a *later, unrelated* campaign, which
// is the hardest class of nondeterminism to bisect.
//
// Within the function that calls Get or Put, the analyzer enforces:
//
//   - Reset before Put: if the pooled value's type has a Reset method,
//     the function must call it before the Put — textually before a
//     plain Put, or anywhere in the function for a deferred Put (defer
//     runs at function exit). Types without Reset — deliberately dirty
//     scratch like campaign's nodeScratch, whose grown buffers ARE the
//     point — are exempt from this clause.
//   - No use after Put: after a non-deferred Put(x), x must not be used
//     again until reassigned.
//   - No escape: a value obtained from a pool must not leave the
//     function via return or channel send, in any package.
//
// The analysis is intraprocedural and identifier-based: it follows the
// variable a Get result is bound to, not arbitrary aliases. That is
// exactly the shape of every pool use in this repo, and the limitation
// is the price of running without SSA.
package poolreturn

import (
	"go/ast"
	"go/types"

	"unprotectedlint/analysis"
	"unprotectedlint/astwalk"
)

// Analyzer enforces Reset-before-Put, no-use-after-Put and no-escape for
// sync.Pool values.
var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc: "enforce the pool-ownership contract on sync.Pool values: Reset() before Put when the type has one, " +
		"no use after Put, and no escape via return or channel send",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Analyze each top-level function once; nested closures are
		// covered by the enclosing function's walk (with deferredness
		// tracked through the stack), so a Put inside a deferred cleanup
		// closure is judged in its defer context, not re-judged as a
		// standalone function.
		astwalk.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				// Reached only outside any FuncDecl (package-level
				// initializer expressions).
				checkFunc(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

type putSite struct {
	call     *ast.CallExpr
	obj      types.Object
	deferred bool
}

// poolCall matches `pool.Get()` / `pool.Put(x)` where pool has type
// sync.Pool or *sync.Pool, returning the method name.
func poolCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
		return ""
	}
	if !astwalk.IsSyncPoolExpr(info, sel.X) {
		return ""
	}
	return sel.Sel.Name
}

// checkFunc applies the three clauses to one function body, nested
// closures included.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1: collect pooled variables (bound Get results and Put
	// arguments), Put sites with their defer context, and Reset sites.
	pooled := make(map[types.Object]bool)
	var puts []putSite
	resets := make(map[types.Object][]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			switch poolCall(info, n) {
			case "Put":
				if len(n.Args) == 1 {
					if obj := astwalk.UsedObject(info, n.Args[0]); obj != nil {
						pooled[obj] = true
						puts = append(puts, putSite{call: n, obj: obj, deferred: inDefer(stack)})
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reset" && len(n.Args) == 0 {
				if obj := astwalk.UsedObject(info, sel.X); obj != nil {
					resets[obj] = append(resets[obj], n)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				rhs := n.Rhs[0]
				if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
					rhs = ta.X
				}
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && poolCall(info, call) == "Get" {
					if obj := astwalk.UsedObject(info, n.Lhs[0]); obj != nil {
						pooled[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}

	// Clause 1: Reset before Put for resettable types.
	for _, p := range puts {
		if !astwalk.HasMethod(p.obj.Type(), "Reset") {
			continue
		}
		ok := false
		for _, r := range resets[p.obj] {
			// A deferred Put runs at function exit, after every
			// non-deferred statement: any Reset in the function precedes
			// it dynamically.
			if p.deferred || r.Pos() < p.call.Pos() {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(p.call.Pos(),
				"pooled %s returned to its pool without %s.Reset(): the next Get sees stale state (pool-ownership contract, DESIGN.md §9)",
				p.obj.Name(), p.obj.Name())
		}
	}

	// Clause 2: no use after a non-deferred Put until reassignment.
	for _, p := range puts {
		if !p.deferred {
			checkUseAfterPut(pass, body, p)
		}
	}

	// Clause 3: no escape via return or channel send.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := astwalk.UsedObject(info, res); obj != nil && pooled[obj] {
					pass.Reportf(res.Pos(),
						"pooled %s escapes via return: ownership leaves the Get/Put scope, so the pool can recycle it while the caller still holds it",
						obj.Name())
				}
			}
		case *ast.SendStmt:
			if obj := astwalk.UsedObject(info, n.Value); obj != nil && pooled[obj] {
				pass.Reportf(n.Value.Pos(),
					"pooled %s escapes via channel send: the receiver and the pool would own it concurrently",
					obj.Name())
			}
		}
		return true
	})
}

// inDefer reports whether the innermost node of stack is inside a defer
// statement (directly, or via the deferred call's function literal).
func inDefer(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// checkUseAfterPut flags uses of p.obj in the statements following the
// Put within its enclosing block, stopping at reassignment.
func checkUseAfterPut(pass *analysis.Pass, body *ast.BlockStmt, p putSite) {
	block, idx := enclosingBlockStmt(body, p.call)
	if block == nil {
		return
	}
	for _, stmt := range block.List[idx+1:] {
		reassigned := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if reassigned {
				return false
			}
			if assign, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if astwalk.UsedObject(pass.TypesInfo, lhs) == p.obj {
						reassigned = true
						return false
					}
				}
			}
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == p.obj {
				pass.Reportf(id.Pos(),
					"use of pooled %s after Put: another goroutine may already have Got it (pool-ownership contract, DESIGN.md §9)",
					p.obj.Name())
			}
			return true
		})
		if reassigned {
			return
		}
	}
}

// enclosingBlockStmt finds the innermost block whose statement list
// directly contains the expression statement of the Put call, returning
// the block and the statement's index.
func enclosingBlockStmt(body *ast.BlockStmt, call *ast.CallExpr) (*ast.BlockStmt, int) {
	var found *ast.BlockStmt
	foundIdx := -1
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range b.List {
			if es, ok := stmt.(*ast.ExprStmt); ok && es.X == call {
				found, foundIdx = b, i
				return false
			}
		}
		return true
	})
	return found, foundIdx
}
