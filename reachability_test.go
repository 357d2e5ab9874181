package fesplit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Why an exported declaration that no non-test code reads may stay.
const (
	assertsLayer    = "a test asserts other code's behaviour through it"
	backsExperiment = "it backs a decided experiment (EXPERIMENTS.md)"
	stdlibCalls     = "only the standard library calls it"
	frozenHarness   = "the frozen harness reads it; drop at the next benchmark change"
)

// reachableByTest lists the exported declarations that no non-test code
// reads but that stay, each with the reason it stays. Every other
// exported declaration must have a non-test reader, and every entry must
// name a declaration that exists and has none.
var reachableByTest = map[string]string{
	"internal/backend.DataCenter.CacheHits":       assertsLayer,
	"internal/backend.DataCenter.Served":          assertsLayer,
	"internal/capture.Recorder.SACK":              assertsLayer,
	"internal/capture.Trace.Payloads":             assertsLayer,
	"internal/cdn.Deployment.BEOf":                assertsLayer,
	"internal/core.DeltaThresholdRTT":             assertsLayer,
	"internal/core.Prediction.T3":                 assertsLayer,
	"internal/emulator.OpenLoopOptions.FE":        assertsLayer,
	"internal/emulator.Options.ClientTCP":         assertsLayer,
	"internal/frontend.Server.Rejected":           assertsLayer,
	"internal/frontend.Server.Served":             assertsLayer,
	"internal/httpsim.ResponseCallbacks.OnHeader": assertsLayer,
	"internal/obs.TailSampler.Offered":            assertsLayer,
	"internal/simnet.GilbertParams.MeanLossRate":  assertsLayer,
	"internal/simnet.PathParams.Bandwidth":        assertsLayer,
	"internal/simnet.PathParams.Gilbert":          assertsLayer,
	"internal/simnet.WirelessGilbert":             assertsLayer,
	"internal/stats.AR1.StationaryStdDev":         assertsLayer,
	"internal/stats.Zipf.Prob":                    assertsLayer,
	"internal/tcpsim.Config.DelayedAck":           assertsLayer,
	"internal/tcpsim.Conn.Closed":                 assertsLayer,
	"internal/tcpsim.Conn.Metrics":                assertsLayer,
	"internal/tcpsim.Endpoint.FreeConns":          assertsLayer,
	"internal/tcpsim.Endpoint.OpenConns":          assertsLayer,
	"internal/vantage.Node.Metro":                 assertsLayer,

	"internal/analysis.BoundaryCrossCheck":   backsExperiment,
	"internal/analysis.EstimateProcPerFE":    backsExperiment,
	"internal/analysis.ProcSpread":           backsExperiment,
	"internal/cdn.Config.DisableSplitTCP":    backsExperiment,
	"internal/cdn.Config.FETCP":              backsExperiment,
	"internal/cdn.Config.Gzip":               backsExperiment,
	"internal/dns.Config.Policy":             backsExperiment,
	"internal/dns.Config.Seed":               backsExperiment,
	"internal/dns.New":                       backsExperiment,
	"internal/dns.PolicyNearest":             backsExperiment,
	"internal/dns.Resolver.CacheHits":        backsExperiment,
	"internal/dns.Resolver.Flush":            backsExperiment,
	"internal/dns.Resolver.Lookups":          backsExperiment,
	"internal/dns.Resolver.Resolve":          backsExperiment,
	"internal/emulator.AOptions.Resolver":    backsExperiment,
	"internal/emulator.Runner.RunKeepAliveA": backsExperiment,
	"internal/frontend.Config.Workers":       backsExperiment,
	"internal/frontend.GunzipAll":            backsExperiment,
	"internal/tcpsim.Config.SACK":            backsExperiment,

	"fesplit.CachingData.Service":             frozenHarness,
	"fesplit.Fig3Data.Service":                frozenHarness,
	"internal/analysis.Params.Coalesced":      frozenHarness,
	"internal/emulator.FleetResult.ArenaCap":  frozenHarness,
	"internal/emulator.FleetResult.PeakFELog": frozenHarness,
	"internal/stats.BootstrapCI.Level":        frozenHarness,
	"internal/stats.LinFit.N":                 frozenHarness,

	"internal/backend.LBPolicy.String": stdlibCalls,
	"internal/dns.Resolver.String":     stdlibCalls,
	"internal/simnet.Network.String":   stdlibCalls,
	"internal/simnet.Sim.String":       stdlibCalls,
	"internal/tcpsim.Dir.String":       stdlibCalls,
	"internal/tcpsim.Segment.String":   stdlibCalls,
	"internal/trace.Session.String":    stdlibCalls,
}

// TestExportedFunctionsHaveReaders holds the reachability rule: every
// exported package-level function, method, type, constant and variable
// declared in a non-test file outside benchmark/ is used by some
// non-test file of the module (benchmark/ included) outside its own
// declaration, or is listed in reachableByTest with its reason. A
// declaration only its own unit test reads is dead code with a test
// attached; delete both. The same holds one level down, for every field
// of a package-level struct type declared there: non-test code reads
// it, and non-test code sets it — a field only tests set is a branch
// production never takes.
//
// Uses are matched by types.Object, so a dead method sharing a live
// name is found. A method also counts as read where a value of its type
// is passed, assigned or returned as an interface whose method set
// includes it, or is asserted to one after being boxed; a method that
// only reflection or a type assertion inside the standard library
// reaches (fmt calling String on an any) is not read. A generic's
// instances are not mapped to its declaration, so an exported generic
// function or type is reported.
//
// A field is set by an assignment to it, an inc/dec, a composite
// literal's key or position, and by writing into it when it holds a
// struct or array value; every other use reads it. Comparing or hashing
// a struct reads all its fields. Three things read and set a field: a
// JSON tag (encoding/json reaches the field by reflection), taking its
// address (&, a pointer method called on it, a slice of an array), and
// converting its struct whole. A struct that only allowlisted functions
// return takes their reasons for its fields. Reflection that reaches an
// untagged field (the frozen harness's JSON digests) is not seen: such
// a field is listed.
func TestExportedFunctionsHaveReaders(t *testing.T) {
	found, err := checkReachability(".", "fesplit", []string{"benchmark"}, reachableByTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestReachabilityFixture holds the checker to its cases on the fixture
// module under testdata/reach: a dead method sharing a live function's
// name is reported, a method reached only through an interface
// conversion (a call argument, an assignment, a return) or a type
// assertion is not, an allowlisted entry that has a reader (or no
// declaration) is reported, and so is an exported generic. Each way a
// field is read or set has a field set or read only that way
// (testdata/reach/a/fields.go): dropping any rule reports it.
func TestReachabilityFixture(t *testing.T) {
	found, err := checkReachability(filepath.Join("testdata", "reach"), "reach", nil, map[string]string{
		"a.Listed":       stdlibCalls,
		"a.Gone":         stdlibCalls,
		"a.Report":       assertsLayer,
		"a.Flags.Listed": assertsLayer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.kind+" "+f.key+" "+f.where)
	}
	want := []string{
		"unset a.Flags.Unset a/fields.go:16",
		"unread a.Flags.Unread a/fields.go:16",
		"unread a.T.Live a/a.go:12",
		"listed-but-read a.Flags.Listed main.go:19",
		"listed-but-read a.Listed main.go:9",
		"listed-but-gone a.Gone ",
		"generic a.Map a/fields.go:45",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}

// A reachability finding: an unread declaration or field, an unset
// field, an exported generic, or an allowlist entry whose declaration
// has a reader (a field: a reader and a setter) or is gone.
type reachFinding struct {
	kind, key, where string
}

func (f reachFinding) String() string {
	switch f.kind {
	case "unread":
		return fmt.Sprintf("%s (%s): read by no non-test code; delete it and what computes it, or list it in reachableByTest with the reason it stays", f.key, f.where)
	case "unset":
		return fmt.Sprintf("%s (%s): read by non-test code but set only by tests; delete it and the branch that reads it, or list it in reachableByTest with the reason it stays", f.key, f.where)
	case "generic":
		return fmt.Sprintf("%s (%s): exported generic; the checker does not map an instance's uses to it, so make it unexported or teach the checker", f.key, f.where)
	case "listed-but-read":
		return fmt.Sprintf("reachableByTest lists %s, which %s reads; drop the entry", f.key, f.where)
	}
	return fmt.Sprintf("reachableByTest lists %s, which no longer exists; drop the entry", f.key)
}

// checkReachability type-checks every package under root (import path
// module/<dir>) from its non-test files, the standard library through
// importer.Default, and reports each exported package-level declaration
// outside the readOnly directories that nothing outside its own
// declaration uses, each field there that nothing reads or nothing
// sets, and each allow entry that is read or gone. A key is the
// package's directory ("module" for root), then the receiver's or the
// struct's type name for a method or a field, then the name:
// "internal/stats.Sketch.Add".
func checkReachability(root, module string, readOnly []string, allow map[string]string) ([]reachFinding, error) {
	c := &reachChecker{
		root: root, module: module, fset: token.NewFileSet(), std: importer.Default(),
		pkgs: map[string]*types.Package{}, uses: map[types.Object][]token.Pos{}, recv: map[token.Pos]bool{},
		boxed: map[string]types.Type{}, access: map[token.Pos]fieldAccess{}, sets: map[types.Object][]token.Pos{},
		reads: map[types.Object][]token.Pos{}, whole: map[*types.Struct]fieldAccess{}, returns: map[types.Object][]string{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		if names, _ := filepath.Glob(filepath.Join(path, "*.go")); len(names) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		_, err = c.Import(pathJoin(module, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, err
	}
	// A boxed value asserted to an interface it implements reaches that
	// interface's methods.
	for _, v := range c.boxed {
		for _, a := range c.asserted {
			if types.Implements(v, a.iface.Underlying().(*types.Interface)) {
				c.toInterface(v, a.iface, a.at)
			}
		}
	}
	var found []reachFinding
	declared := map[string]bool{}
	for _, d := range c.decls {
		if dir := strings.SplitN(d.key, ".", 2)[0]; hasDirPrefix(dir, readOnly) {
			continue
		}
		declared[d.key] = true
		if d.owner != nil {
			found = append(found, c.checkField(d, allow)...)
			continue
		}
		if generic(d.obj) {
			found = append(found, reachFinding{"generic", d.key, c.where(d.start)})
		}
		var reader token.Pos
		for _, p := range c.uses[d.obj] {
			if (p < d.start || p >= d.end) && !c.recv[p] && (reader == token.NoPos || p < reader) {
				reader = p
			}
		}
		_, listed := allow[d.key]
		switch {
		case reader == token.NoPos && !listed:
			found = append(found, reachFinding{"unread", d.key, c.where(d.start)})
		case reader != token.NoPos && listed:
			found = append(found, reachFinding{"listed-but-read", d.key, c.where(reader)})
		}
	}
	for key := range allow {
		if !declared[key] {
			found = append(found, reachFinding{"listed-but-gone", key, ""})
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		if found[i].kind != found[j].kind {
			return found[i].kind > found[j].kind
		}
		return found[i].key < found[j].key
	})
	return found, nil
}

type reachDecl struct {
	key        string
	obj        types.Object
	start, end token.Pos
	owner      *types.TypeName // the struct type that declares obj, for a field
}

type reachChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	decls        []reachDecl
	uses         map[types.Object][]token.Pos  // object → where non-test code uses it
	recv         map[token.Pos]bool            // receiver type names, which use nothing
	boxed        map[string]types.Type         // concrete types converted to an interface
	asserted     []reachAssert                 // assertions to an interface type
	access       map[token.Pos]fieldAccess     // field uses that set the field
	reads, sets  map[types.Object][]token.Pos  // field → where non-test code reads, sets it
	whole        map[*types.Struct]fieldAccess // structs compared, hashed or converted whole
	returns      map[types.Object][]string     // type name → the functions returning it
}

// How a use touches a field; a use not recorded reads it.
type fieldAccess int

const (
	readsField   fieldAccess = iota + 1 // its struct is compared or hashed whole
	setsField                           // an assignment's target, an inc/dec, a literal's key
	readsAndSets                        // its address is taken, or its struct converted whole
)

type reachAssert struct {
	iface types.Type
	at    token.Pos
}

func pathJoin(module, rel string) string {
	if rel == "." {
		return module
	}
	return module + "/" + rel
}

func hasDirPrefix(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

func (c *reachChecker) where(p token.Pos) string {
	pos := c.fset.Position(p)
	rel, _ := filepath.Rel(c.root, pos.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
}

// parse reads dir's non-test .go files that the build constraints keep.
func (c *reachChecker) parse(dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import type-checks a package of the module once, recording its
// exported declarations and its uses; any other path is the standard
// library's.
func (c *reachChecker) Import(path string) (*types.Package, error) {
	if path != c.module && !strings.HasPrefix(path, c.module+"/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")
	files, err := c.parse(filepath.Join(c.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},

		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	key := rel
	if key == "" {
		key = c.module
	}
	for _, f := range files {
		c.declare(key, f, info)
		c.convert(f, info)
		c.touch(f, info)
	}
	for id, obj := range info.Uses {
		c.uses[obj] = append(c.uses[obj], id.Pos())
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			c.touchField(v, c.access[id.Pos()], id.Pos())
		}
	}
	return pkg, nil
}

// declare records f's exported package-level declarations, the fields
// of its struct types and the named types its functions return, and
// marks its receiver type names, which are not uses of the type.
func (c *reachChecker) declare(key string, f *ast.File, info *types.Info) {
	keyOf := func(recv, name string) string {
		if recv != "" {
			return key + "." + recv + "." + name
		}
		return key + "." + name
	}
	add := func(name *ast.Ident, recv string, node ast.Node) {
		if name.IsExported() {
			c.decls = append(c.decls, reachDecl{keyOf(recv, name.Name), info.Defs[name], node.Pos(), node.End(), nil})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if _, ok := info.Uses[id].(*types.TypeName); ok && recv == "" {
							recv = id.Name
							c.recv[id.Pos()] = true
						}
					}
					return true
				})
			}
			add(d.Name, recv, d)
			res := info.Defs[d.Name].Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if n := named(res.At(i).Type()); n != nil {
					c.returns[n.Obj()] = append(c.returns[n.Obj()], keyOf(recv, d.Name.Name))
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "", s)
					if _, ok := s.Type.(*ast.StructType); ok {
						owner := info.Defs[s.Name].(*types.TypeName)
						st := owner.Type().Underlying().(*types.Struct)
						for i := 0; i < st.NumFields(); i++ {
							f := st.Field(i)
							c.decls = append(c.decls, reachDecl{keyOf(s.Name.Name, f.Name()), f, f.Pos(), f.Pos(), owner})
						}
					}
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								add(n, s.Name.Name, m)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, "", s)
					}
				}
			}
		}
	}
}

// convert finds where f converts a value to an interface type as a
// call argument, an assignment or a return, and where it asserts one to
// an interface type. The other forms (an explicit conversion, a typed
// declaration, a composite-literal element, a channel send, a
// comparison, a constraint's instantiation, a multi-valued call spread
// over arguments or results) reach no method of this module that these
// do not, so they are not followed: a method reached only through one
// of them is reported as unread, never passed.
func (c *reachChecker) convert(f *ast.File, info *types.Info) {
	typeOf := func(e ast.Expr) types.Type {
		if e == nil {
			return nil
		}
		return info.Types[e].Type
	}
	var results []*types.Tuple // result types of the enclosing functions
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				results = results[:len(results)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
		case *ast.FuncLit:
			results = append(results, typeOf(n).(*types.Signature).Results())
		case *ast.CallExpr:
			t := typeOf(n.Fun)
			if t == nil || info.Types[n.Fun].IsType() {
				break
			}
			sig, ok := t.Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			for i, a := range n.Args {
				if i < params.Len() {
					c.toInterface(typeOf(a), params.At(i).Type(), n.Pos())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for i, v := range n.Rhs {
					if i < len(n.Lhs) {
						c.toInterface(typeOf(v), typeOf(n.Lhs[i]), n.Pos())
					}
				}
			}
		case *ast.ReturnStmt:
			if len(results) > 0 {
				res := results[len(results)-1]
				for i, v := range n.Results {
					if i < res.Len() {
						c.toInterface(typeOf(v), res.At(i).Type(), n.Pos())
					}
				}
			}
		case *ast.TypeAssertExpr:
			if t := typeOf(n.Type); t != nil && types.IsInterface(t) {
				c.asserted = append(c.asserted, reachAssert{t, n.Pos()})
			}
		}
		return true
	})
}

// toInterface records, when a value of type v is converted to the
// interface type t at at, a use of each of v's methods that t's method
// set includes.
func (c *reachChecker) toInterface(v, t types.Type, at token.Pos) {
	if v == nil || t == nil || types.IsInterface(v) {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	c.boxed[types.TypeString(v, nil)] = v
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name()); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				c.uses[obj] = append(c.uses[obj], at)
			}
		}
	}
}

// touch records how f's field uses touch their fields beyond a read,
// and which structs f compares, hashes or converts whole. A selector
// through embedded fields reads each of them, and a pointer method
// called on a value takes its address.
func (c *reachChecker) touch(f *ast.File, info *types.Info) {
	typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }
	// mark records a as the access of the field e selects; writing into
	// a struct or array value writes the field holding it.
	var mark func(e ast.Expr, a fieldAccess)
	mark = func(e ast.Expr, a fieldAccess) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				c.access[e.Sel.Pos()] = a
				if !isPointer(typeOf(e.X)) {
					mark(e.X, a)
				}
			}
		case *ast.IndexExpr:
			if _, ok := typeOf(e.X).Underlying().(*types.Array); ok {
				mark(e.X, a)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				mark(l, setsField)
			}
		case *ast.IncDecStmt:
			mark(n.X, setsField)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X, readsAndSets)
			}
		case *ast.SliceExpr:
			if _, ok := typeOf(n.X).Underlying().(*types.Array); ok {
				mark(n.X, readsAndSets)
			}
		case *ast.CompositeLit:
			t := typeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem() // an element of a []*T literal
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						c.access[kv.Key.Pos()] = setsField
					} else {
						c.touchField(st.Field(i), setsField, e.Pos())
					}
				}
			}
		case *ast.SelectorExpr:
			s := info.Selections[n]
			if s == nil {
				break
			}
			var path []*types.Var // the embedded fields the selector passes
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				path = append(path, t.Underlying().(*types.Struct).Field(i))
				t = path[len(path)-1].Type()
			}
			// A pointer method takes the address of the values that hold
			// its receiver, back to the first pointer.
			addr := false
			if m, ok := s.Obj().(*types.Func); ok && s.Kind() == types.MethodVal {
				addr = isPointer(m.Type().(*types.Signature).Recv().Type())
			}
			for i := len(path) - 1; i >= 0; i-- {
				addr = addr && !isPointer(path[i].Type())
				if addr {
					c.touchField(path[i], readsAndSets, n.Sel.Pos())
				} else {
					c.touchField(path[i], readsField, n.Sel.Pos())
				}
			}
			if addr && !isPointer(typeOf(n.X)) {
				mark(n.X, readsAndSets)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.wholeStruct(typeOf(n.X), readsField)
			}
		case *ast.MapType:
			c.wholeStruct(typeOf(n.Key), readsField)
		case *ast.CallExpr:
			if info.Types[n.Fun].IsType() && len(n.Args) == 1 {
				if _, ok := typeOf(n.Args[0]).Underlying().(*types.Struct); ok {
					c.wholeStruct(typeOf(n.Fun), readsAndSets)
					c.wholeStruct(typeOf(n.Args[0]), readsAndSets)
				}
			}
		}
		return true
	})
}

// touchField records a use of field v at p: a read unless a is
// setsField, a set if a is setsField or readsAndSets.
func (c *reachChecker) touchField(v *types.Var, a fieldAccess, p token.Pos) {
	v = v.Origin()
	if a != setsField {
		c.reads[v] = append(c.reads[v], p)
	}
	if a >= setsField {
		c.sets[v] = append(c.sets[v], p)
	}
}

// wholeStruct records that a value of type t is read (a is readsField),
// or read and set, whole: every field of it and of the structs it holds
// by value.
func (c *reachChecker) wholeStruct(t types.Type, a fieldAccess) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if c.whole[u] < a {
			c.whole[u] = a
			for i := 0; i < u.NumFields(); i++ {
				c.wholeStruct(u.Field(i).Type(), a)
			}
		}
	case *types.Array:
		c.wholeStruct(u.Elem(), a)
	}
}

// checkField reports a field no non-test code reads, a field non-test
// code reads but does not set, and an allowlisted field that non-test
// code both reads and sets.
func (c *reachChecker) checkField(d reachDecl, allow map[string]string) []reachFinding {
	reads, sets := c.reads[d.obj], c.sets[d.obj]
	st := d.owner.Type().Underlying().(*types.Struct)
	if c.whole[st] != 0 {
		reads = append(reads, d.start)
	}
	if c.whole[st] == readsAndSets || jsonTagged(st, d.obj) || c.returnedOnlyBy(d.owner, allow) {
		reads, sets = append(reads, d.start), append(sets, d.start)
	}
	_, listed := allow[d.key]
	switch {
	case listed && len(reads) > 0 && len(sets) > 0:
		return []reachFinding{{"listed-but-read", d.key, c.where(slices.Min(reads))}}
	case listed:
	case len(reads) == 0:
		return []reachFinding{{"unread", d.key, c.where(d.start)}}
	case len(sets) == 0:
		return []reachFinding{{"unset", d.key, c.where(d.start)}}
	}
	return nil
}

func jsonTagged(st *types.Struct, f types.Object) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
			return ok && tag != "-"
		}
	}
	return false
}

// returnedOnlyBy reports whether some function returns t and every
// function returning it is allowlisted.
func (c *reachChecker) returnedOnlyBy(t *types.TypeName, allow map[string]string) bool {
	for _, k := range c.returns[t] {
		if _, ok := allow[k]; !ok {
			return false
		}
	}
	return len(c.returns[t]) > 0
}

// named is the named type t is, or points to or holds in a slice.
func named(t types.Type) *types.Named {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// generic reports whether obj is a generic function or type.
func generic(obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Func:
		return o.Type().(*types.Signature).TypeParams().Len() > 0
	case *types.TypeName:
		n, ok := o.Type().(*types.Named)
		return ok && n.TypeParams().Len() > 0
	}
	return false
}
