package lint

import (
	"go/ast"
	"go/types"
)

// detFlowAnalyzer lifts noclock from per-package syntax to an
// interprocedural taint check: no function transitively reachable from
// the tick-loop entry points — Simulator methods, Scheduler interface
// implementations, trace-Source implementations — may reach time.Now
// (or Since/Until), the global math/rand source, or process-environment
// reads. noclock draws the fence around whole deterministic packages;
// detflow follows the actual call graph, so a helper in a
// non-deterministic package (metrics, a future util package)
// called from the tick loop is caught too, and package membership alone
// is no longer a way to smuggle nondeterminism in.
//
// The existing exemptions carry over: methods on an injected *rand.Rand
// and the rand constructors (rand.New, NewSource, ...) are the
// sanctioned way to consume seeded randomness, and a deliberate
// telemetry read is suppressed with //mlfs:allow detflow at the call
// site. Call-graph precision (named-interface dispatch, closure
// handling) is documented in callgraph.go.
var detFlowAnalyzer = &Analyzer{
	Name:      "detflow",
	Doc:       "wall-clock, global math/rand or environment reads reachable from the tick loop",
	RunModule: runDetFlow,
}

// envFuncs are the os package's ambient-environment reads. File-system
// access is not banned: snapshot persistence legitimately writes from
// the tick loop, and path handling is deterministic given the inputs.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Getwd": true, "Hostname": true, "UserHomeDir": true,
	"UserConfigDir": true, "UserCacheDir": true,
}

func runDetFlow(p *ModulePass) {
	ix := indexModule(p.Pkgs)
	roots := runtimeRoots(ix)
	if len(roots) == 0 {
		return
	}
	seen, parent := ix.closure(roots, true, nil)

	// Iterate packages in load order and declarations in file order so
	// report order is deterministic before the framework's final sort.
	for _, pkg := range p.Pkgs {
		forEachFunc(pkg, func(fd *ast.FuncDecl) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !seen[fn.Origin()] {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg.Info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				path := callee.Pkg().Path()
				sig, _ := callee.Type().(*types.Signature)
				var what string
				switch {
				case path == "time" && clockFuncs[callee.Name()]:
					what = "wall-clock read time." + callee.Name()
				case (path == "math/rand" || path == "math/rand/v2") &&
					sig != nil && sig.Recv() == nil && !randConstructors[callee.Name()]:
					what = "global " + path + "." + callee.Name()
				case path == "os" && sig != nil && sig.Recv() == nil && envFuncs[callee.Name()]:
					what = "environment read os." + callee.Name()
				default:
					return true
				}
				p.Reportf(call.Pos(), "%s is reachable from the tick loop (%s): nondeterminism breaks replayability; inject the value or suppress with //mlfs:allow detflow for pure telemetry",
					what, callChain(parent, fn.Origin(), 5))
				return true
			})
		})
	}
}
