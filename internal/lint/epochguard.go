package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// epochGuardAnalyzer protects the epoch-cache contract of
// internal/cluster: every piece of load state that derived-value caches
// key on (server used-vectors, device loads, placement sets) must only
// change inside the designated mutators — Place, Remove, UpdateDemand,
// plus the snapshot overlay RestoreState — because those are the
// functions that bump the server/cluster epoch. A write anywhere else
// would leave stale iteration-cost and utilisation caches serving wrong
// values with no failing test to show for it.
//
// Guarded fields are marked at their declaration with an //mlfs:guarded
// line comment; fields named epoch may additionally only be written by
// the bump methods that own the invalidation protocol.
var epochGuardAnalyzer = &Analyzer{
	Name: "epochguard",
	Doc:  "writes to //mlfs:guarded (epoch-cached) struct fields outside the designated mutators Place/Remove/UpdateDemand/RestoreState",
	Run:  runEpochGuard,
}

// epochMutators are the functions allowed to change guarded load state.
// bump is included because the designated mutators delegate the epoch
// advance to it; place is the body of Place and Move and bumps like
// them; RestoreState
// overwrites the load accumulators with the exact snapshotted values
// and owns its own bump calls.
var epochMutators = map[string]bool{
	"Place": true, "place": true, "Remove": true, "UpdateDemand": true, "bump": true,
	"RestoreState": true,
}

// epochWriters are the only functions allowed to advance an epoch field.
var epochWriters = map[string]bool{"bump": true}

func runEpochGuard(p *Pass) {
	guarded, epochs := collectGuardedFields(p.Pkg)
	if len(guarded) == 0 && len(epochs) == 0 {
		return
	}
	info := p.Pkg.Info
	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		name := fd.Name.Name
		report := func(pos ast.Node, field *types.Var) {
			if epochs[field] {
				if !epochWriters[name] {
					p.Reportf(pos.Pos(), "write to epoch field %s.%s in %s: epochs may only advance through bump, which owns cache invalidation", fieldOwner(field), field.Name(), name)
				}
				return
			}
			if !epochMutators[name] {
				p.Reportf(pos.Pos(), "write to epoch-guarded field %s.%s in %s: load state must change only inside Place/Remove/UpdateDemand so the epoch bump keeps derived caches honest", fieldOwner(field), field.Name(), name)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				if stmt.Tok.String() == ":=" {
					return true
				}
				for _, lhs := range stmt.Lhs {
					if f := writtenField(info, lhs, guarded, epochs); f != nil {
						report(lhs, f)
					}
				}
			case *ast.IncDecStmt:
				if f := writtenField(info, stmt.X, guarded, epochs); f != nil {
					report(stmt.X, f)
				}
			case *ast.CallExpr:
				// delete(s.tasks, k) mutates the guarded map in place.
				if isBuiltin(info, stmt, "delete") && len(stmt.Args) > 0 {
					if f := writtenField(info, stmt.Args[0], guarded, epochs); f != nil {
						report(stmt, f)
					}
				}
			}
			return true
		})
	})
}

// collectGuardedFields gathers the struct fields marked //mlfs:guarded
// and the fields named epoch.
func collectGuardedFields(pkg *Package) (guarded, epochs map[*types.Var]bool) {
	guarded = make(map[*types.Var]bool)
	epochs = make(map[*types.Var]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mark := commentHasDirective(field.Doc, "//mlfs:guarded") ||
					commentHasDirective(field.Comment, "//mlfs:guarded")
				for _, name := range field.Names {
					v, _ := pkg.Info.Defs[name].(*types.Var)
					if v == nil {
						continue
					}
					if mark {
						guarded[v] = true
					}
					if name.Name == "epoch" {
						epochs[v] = true
					}
				}
			}
			return true
		})
	}
	return guarded, epochs
}

func commentHasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// writtenField resolves the struct field a write to expr stores into
// (unwrapping map/slice indexing: s.tasks[t] = p writes field tasks) and
// returns it when it is guarded or an epoch field.
func writtenField(info *types.Info, expr ast.Expr, guarded, epochs map[*types.Var]bool) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && (guarded[v] || epochs[v]) {
					return v
				}
			}
			return nil
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// fieldOwner names the struct type a field belongs to, for messages.
func fieldOwner(f *types.Var) string {
	// The origin type name is not directly recorded on the field; walk
	// the package scope for a named struct containing it.
	if f.Pkg() == nil {
		return "?"
	}
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name()
			}
		}
	}
	return "?"
}
