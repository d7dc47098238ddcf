package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// snapStateAnalyzer verifies snapshot completeness and encode/decode
// symmetry for every struct participating in the snapshot protocol
// (DESIGN.md §8). The bit-identical-resume guarantee rests on a
// convention no compiler checks: every field of simulation state must be
// serialised by the encode path, recomputed on restore, or deliberately
// excluded. A field added to Simulator or a Snapshotter implementation
// and forgotten in the codec silently diverges after resume.
//
// The analysis is whole-program:
//
//  1. Snapshotting types are discovered structurally: a named struct
//     with an encode-side method (EncodeState or Snapshot) and a
//     decode-side method (DecodeState, Restore or RestoreState).
//  2. The codec surface is the set of carrier functions: those
//     encode/decode roots plus every function taking a snapshot
//     writer/reader parameter (the writer/reader types are themselves
//     discovered as the parameter types of EncodeState/DecodeState
//     methods). A struct field is "encoded" when an encode-side
//     carrier mentions it directly, or when a function directly called
//     from one does (one level — w.Uint64(src.Draws()) encodes the
//     draw counter Draws reads); "restored" symmetrically on the
//     decode side. Reconstruction plumbing deeper in the decode path —
//     placement replay, job rematerialisation, scheduler-context
//     rebuilds — deliberately does not count: rebuilding a fresh value
//     is deriving state, not decoding it, and such fields carry
//     //mlfs:derived annotations instead.
//  3. A type with encoded fields participates in the protocol even
//     without its own Encode/Decode pair (job.Job, metrics.Tally).
//     Participating-struct fields are then checked: encoded but never
//     restored (or vice versa) is an asymmetry diagnostic; a field
//     mutated by tick-loop-reachable code (Simulator methods,
//     Scheduler/Source implementations) but neither encoded nor
//     annotated is a completeness diagnostic. //mlfs:derived and
//     //mlfs:transient annotations exempt a field (annotations.go).
//
// Known precision limits, accepted and pinned by the golden fixtures:
// fields only mutated through constructor-built locals are treated as
// construction-time state; calls through function values are not
// followed; a field encoded at two call sites stays "encoded" if one
// site is deleted (the seeded-mutation self-test therefore targets
// single-site fields, which is nearly all of them).
var snapStateAnalyzer = &Analyzer{
	Name:      "snapstate",
	Doc:       "snapshot-protocol structs: unencoded mutable fields and encode/decode asymmetry",
	RunModule: runSnapState,
}

// fieldInfo locates one declared struct field.
type fieldInfo struct {
	owner *types.Named
	decl  *ast.Field
	name  string
	pkg   *Package
}

// snapClasses is snapstate's classification of the loaded module: the
// fields each side of the snapshot codec touches and the structs that
// take part in the protocol.
type snapClasses struct {
	ix            *moduleIndex
	fields        map[*types.Var]*fieldInfo
	carrier       map[*types.Named]bool // writer/reader plumbing types
	participating map[*types.Named]bool
	encoded       map[*types.Var]bool
	restored      map[*types.Var]bool
}

// classifySnapState builds the classification, or returns nil when the
// loaded packages contain no snapshotting type.
func classifySnapState(pkgs []*Package) *snapClasses {
	ix := indexModule(pkgs)

	// Writer/reader carrier types: the sole-parameter types of
	// EncodeState/DecodeState methods. Their own internals (buffers,
	// error latches) are plumbing, not simulation state — they neither
	// participate nor have their methods' mentions counted.
	writerTypes := make(map[*types.Named]bool)
	readerTypes := make(map[*types.Named]bool)
	for fn := range ix.funcs {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || sig.Params().Len() != 1 {
			continue
		}
		named := derefNamed(sig.Params().At(0).Type())
		if named == nil {
			continue
		}
		switch fn.Name() {
		case "EncodeState":
			writerTypes[named] = true
		case "DecodeState":
			readerTypes[named] = true
		}
	}
	carrier := make(map[*types.Named]bool, len(writerTypes)+len(readerTypes))
	for n := range writerTypes {
		carrier[n] = true
	}
	for n := range readerTypes {
		carrier[n] = true
	}
	// Root pairs: encode+decode method pairs on one named type.
	var encodeRoots, decodeRoots []*types.Func
	rootTypes := make(map[*types.Named]bool)
	for _, named := range ix.named {
		if carrier[named] {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		enc := methodsNamed(ix, named, "EncodeState", "Snapshot")
		dec := methodsNamed(ix, named, "DecodeState", "Restore", "RestoreState")
		if len(enc) > 0 && len(dec) > 0 {
			rootTypes[named] = true
			encodeRoots = append(encodeRoots, enc...)
			decodeRoots = append(decodeRoots, dec...)
		}
	}
	if len(encodeRoots) == 0 {
		return nil
	}

	c := &snapClasses{ix: ix, fields: fieldTable(pkgs), carrier: carrier}
	c.encoded = carrierMentions(ix, encodeRoots, writerTypes, carrier, c.fields)
	c.restored = carrierMentions(ix, decodeRoots, readerTypes, carrier, c.fields)

	// Participation: root-pair types plus every type with an encoded
	// field. Types mentioned only on the decode side (sched.Context,
	// rebuilt indexes) are reconstruction plumbing, not snapshot state.
	c.participating = make(map[*types.Named]bool)
	for named := range rootTypes {
		c.participating[named] = true
	}
	for v := range c.encoded {
		if fi := c.fields[v]; fi != nil {
			c.participating[fi.owner] = true
		}
	}
	return c
}

// eachField calls fn for every unannotated declared field of every
// participating struct, in (package, type, field) order.
func (c *snapClasses) eachField(fn func(named *types.Named, f *types.Var, fi *fieldInfo)) {
	for _, named := range c.ix.named {
		if !c.participating[named] || c.carrier[named] {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fi := c.fields[f]
			if fi == nil || f.Name() == "_" || fieldAnnotation(fi.decl) != "" {
				continue
			}
			fn(named, f, fi)
		}
	}
}

// SnapshotSchema returns the snapshot payload's field schema: one line
// "pkg.Type.field type" for every unannotated field of a participating
// struct that the encode or decode path touches, sorted. Renaming,
// retyping, adding or removing such a field changes the schema; a field
// the codec never touches (scratch, caches, //mlfs:derived state) does
// not. The snapshot version guard pins a hash of it per FormatVersion.
func SnapshotSchema(pkgs []*Package) []string {
	c := classifySnapState(pkgs)
	if c == nil {
		return nil
	}
	var lines []string
	c.eachField(func(named *types.Named, f *types.Var, _ *fieldInfo) {
		if c.encoded[f] || c.restored[f] {
			lines = append(lines, named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+f.Name()+" "+types.TypeString(f.Type(), nil))
		}
	})
	sort.Strings(lines)
	return lines
}

func runSnapState(p *ModulePass) {
	c := classifySnapState(p.Pkgs)
	if c == nil {
		return
	}
	// Runtime-mutable fields: assigned in code reachable from the
	// tick-loop roots, excluding writes through constructor-built
	// locals (T{...} / &T{...} / new(T) initialisation).
	runtime, _ := c.ix.closure(runtimeRoots(c.ix), true, nil)
	mutable := mutatedFields(c.ix, runtime, c.fields)

	c.eachField(func(named *types.Named, f *types.Var, fi *fieldInfo) {
		enc, dec := c.encoded[f], c.restored[f]
		switch {
		case enc && dec:
		case enc && !dec:
			p.Reportf(fi.decl.Pos(), "field %s.%s is written by the snapshot encode path but never read back by the decode path; restore it or annotate //mlfs:derived or //mlfs:transient", named.Obj().Name(), f.Name())
		case !enc && dec:
			p.Reportf(fi.decl.Pos(), "field %s.%s is restored by the snapshot decode path but never encoded; encode it or annotate //mlfs:derived (recomputed on restore) or //mlfs:transient", named.Obj().Name(), f.Name())
		case mutable[f]:
			p.Reportf(fi.decl.Pos(), "mutable field %s.%s is not reachable from the snapshot encode path; encode it, or annotate //mlfs:derived (recomputed on restore) or //mlfs:transient (excluded, with reason)", named.Obj().Name(), f.Name())
		}
	})
}

// derefNamed unwraps one pointer level and returns the named type, or
// nil.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// methodsNamed returns the declared methods of named matching any of the
// given names, restricted to those with bodies in the loaded set.
func methodsNamed(ix *moduleIndex, named *types.Named, names ...string) []*types.Func {
	var out []*types.Func
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i).Origin()
		if _, ok := ix.funcs[m]; !ok {
			continue
		}
		for _, want := range names {
			if m.Name() == want {
				out = append(out, m)
			}
		}
	}
	return out
}

// runtimeRoots collects the tick-loop entry points shared by snapstate's
// mutability scan and detflow: every method of a type named Simulator,
// and the interface methods of each loaded implementation of a module
// interface named Scheduler or Source.
func runtimeRoots(ix *moduleIndex) []*types.Func {
	var roots []*types.Func
	for _, named := range ix.named {
		switch named.Obj().Name() {
		case "Simulator":
			if !types.IsInterface(named.Underlying()) {
				roots = append(roots, methodsNamed(ix, named, allMethodNames(named)...)...)
			}
		case "Scheduler", "Source":
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					roots = append(roots, ix.impls[named][it.Method(i).Name()]...)
				}
			}
		}
	}
	return roots
}

func allMethodNames(named *types.Named) []string {
	names := make([]string, named.NumMethods())
	for i := range names {
		names[i] = named.Method(i).Name()
	}
	return names
}

// fieldTable maps every struct-field object declared in the loaded
// packages to its declaration site and owning named type.
func fieldTable(pkgs []*Package) map[*types.Var]*fieldInfo {
	table := make(map[*types.Var]*fieldInfo)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					return true
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					return true
				}
				astStruct, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				tStruct, ok := named.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				// Walk AST fields and type-checker fields in lockstep:
				// an embedded field contributes one object, a named
				// group one per identifier.
				idx := 0
				for _, fd := range astStruct.Fields.List {
					n := len(fd.Names)
					if n == 0 {
						n = 1 // embedded
					}
					for i := 0; i < n && idx < tStruct.NumFields(); i++ {
						v := tStruct.Field(idx)
						idx++
						table[v] = &fieldInfo{owner: named, decl: fd, name: v.Name(), pkg: pkg}
					}
				}
				return true
			})
		}
	}
	return table
}

// carrierMentions collects the fields a codec side touches: direct
// mentions inside the side's carrier functions (the given roots plus
// every loaded function with a parameter of one of the side's carrier
// types), widened one call level — a function directly called from a
// carrier contributes its own direct mentions, so accessor idioms like
// w.Uint64(src.Draws()) or replay calls like src.AdvanceTo(n) count the
// stream-position field they read or write. The widening is exactly one
// level deep: reconstruction plumbing further down does not count.
func carrierMentions(ix *moduleIndex, roots []*types.Func, sideTypes, carrierTypes map[*types.Named]bool, fields map[*types.Var]*fieldInfo) map[*types.Var]bool {
	carriers := make(map[*types.Func]bool)
	for _, r := range roots {
		carriers[r] = true
	}
	for fn := range ix.funcs {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil {
			continue
		}
		if sig.Recv() != nil && carrierTypes[derefNamed(sig.Recv().Type())] {
			continue // writer/reader internals are plumbing
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sideTypes[derefNamed(sig.Params().At(i).Type())] {
				carriers[fn] = true
				break
			}
		}
	}

	memo := make(map[*types.Func]map[*types.Var]bool)
	direct := func(fn *types.Func) map[*types.Var]bool {
		if m, ok := memo[fn]; ok {
			return m
		}
		m := directFieldMentions(ix.funcs[fn], fields)
		memo[fn] = m
		return m
	}

	out := make(map[*types.Var]bool)
	for fn := range carriers {
		node := ix.funcs[fn]
		if node == nil {
			continue
		}
		for v := range direct(fn) {
			out[v] = true
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(node.pkg.Info, call)
			if callee == nil {
				return true
			}
			callee = callee.Origin()
			if carriers[callee] || ix.funcs[callee] == nil {
				return true
			}
			if sig, _ := callee.Type().(*types.Signature); sig != nil && sig.Recv() != nil && carrierTypes[derefNamed(sig.Recv().Type())] {
				return true
			}
			for v := range direct(callee) {
				out[v] = true
			}
			return true
		})
	}
	return out
}

// directFieldMentions collects every declared struct field selected or
// keyed in a composite literal within one function body.
func directFieldMentions(node *funcNode, fields map[*types.Var]*fieldInfo) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if node == nil {
		return out
	}
	info := node.pkg.Info
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && fields[v] != nil {
					out[v] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && fields[v] != nil {
						out[v] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// mutatedFields collects fields assigned (or ++/--'d) inside the given
// functions, skipping writes whose base variable was freshly constructed
// in the same function — those are initialisation, not tick-loop
// mutation.
func mutatedFields(ix *moduleIndex, funcs map[*types.Func]bool, fields map[*types.Var]*fieldInfo) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for fn := range funcs {
		node := ix.funcs[fn]
		info := node.pkg.Info
		fresh := freshLocals(info, node.decl.Body)
		record := func(lhs ast.Expr) {
			sel := outerSelector(lhs)
			if sel == nil {
				return
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return
			}
			v, ok := s.Obj().(*types.Var)
			if !ok || fields[v] == nil {
				return
			}
			if root := rootIdentObj(info, sel); root != nil && fresh[root] {
				return
			}
			out[v] = true
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					record(lhs)
				}
			case *ast.IncDecStmt:
				record(s.X)
			}
			return true
		})
	}
	return out
}

// outerSelector strips index, deref and paren wrappers from an
// assignment target down to the selector naming the written field
// (x.f for x.f[i] = v), or nil when the target is not field-rooted.
func outerSelector(expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			return e
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// freshLocals returns the objects of local variables bound directly to a
// composite literal, &composite-literal or new(T) within body — the
// constructor idiom whose field writes are initialisation.
func freshLocals(info *types.Info, body ast.Node) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	bind := func(id *ast.Ident, rhs ast.Expr) {
		if !isFreshExpr(info, rhs) {
			return
		}
		if obj, ok := info.Defs[id]; ok && obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					bind(id, s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) != len(s.Values) {
				return true
			}
			for i, id := range s.Names {
				bind(id, s.Values[i])
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether expr constructs a brand-new value:
// T{...}, &T{...} or new(T).
func isFreshExpr(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		return isBuiltin(info, e, "new")
	}
	return false
}
