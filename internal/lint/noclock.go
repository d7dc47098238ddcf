package lint

import (
	"go/ast"
	"go/types"
)

// noClockAnalyzer forbids wall-clock reads and the global math/rand
// source inside deterministic packages. time.Now/Since/Until leak host
// timing into simulation state, and the package-level math/rand
// functions share one mutable, impossible-to-seed-per-run source —
// either breaks replayability. Methods on an injected *rand.Rand (and the
// constructors rand.New/NewZipf/...) remain fine: that is the
// sanctioned way to consume seeded randomness. rand.NewSource is flagged
// too: deterministic code builds its streams with snapshot.NewSource,
// which emits the same stream, seeds in O(1) and has a restorable
// position, so there is one way to build a stream.
var noClockAnalyzer = &Analyzer{
	Name:              "noclock",
	Doc:               "time.Now/Since/Until or global math/rand calls in deterministic packages",
	DeterministicOnly: true,
	Run:               runNoClock,
}

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors build sources and generators rather than drawing from
// the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoClock(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			sig, _ := fn.Type().(*types.Signature)
			switch {
			case path == "time" && clockFuncs[fn.Name()]:
				p.Reportf(call.Pos(), "time.%s in deterministic package %s: wall-clock reads break replayability; derive times from simulation state or suppress for pure telemetry", fn.Name(), p.Pkg.Types.Name())
			case path == "math/rand" && fn.Name() == "NewSource":
				p.Reportf(call.Pos(), "rand.NewSource in deterministic package %s: build the stream with snapshot.NewSource (the same stream, seeded in O(1), with a restorable position)", p.Pkg.Types.Name())
			case (path == "math/rand" || path == "math/rand/v2") &&
				sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()]:
				p.Reportf(call.Pos(), "global %s.%s in deterministic package %s: the shared source cannot be seeded per run; draw from an injected *rand.Rand", path, fn.Name(), p.Pkg.Types.Name())
			}
			return true
		})
	}
}
