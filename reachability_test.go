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
	"sort"
	"strings"
	"testing"
)

// Why an exported declaration that no non-test code reads may stay.
const (
	assertsLayer    = "a test asserts other code's behaviour through it"
	backsExperiment = "it backs a decided experiment (EXPERIMENTS.md)"
	stdlibCalls     = "only the standard library calls it"
)

// reachableByTest lists the exported declarations that no non-test code
// reads but that stay, each with the reason it stays. Every other
// exported declaration must have a non-test reader, and every entry must
// name a declaration that exists and has none.
var reachableByTest = map[string]string{
	"internal/backend.Cluster.BusyTime":          assertsLayer,
	"internal/backend.DataCenter.CacheHits":      assertsLayer,
	"internal/backend.DataCenter.Served":         assertsLayer,
	"internal/capture.Recorder.SACK":             assertsLayer,
	"internal/capture.Trace.Payloads":            assertsLayer,
	"internal/cdn.Deployment.BEOf":               assertsLayer,
	"internal/core.DeltaThresholdRTT":            assertsLayer,
	"internal/frontend.Server.DialedBEConns":     assertsLayer,
	"internal/frontend.Server.MaxPoolWaiters":    assertsLayer,
	"internal/frontend.Server.PoolInflight":      assertsLayer,
	"internal/frontend.Server.Rejected":          assertsLayer,
	"internal/frontend.Server.Served":            assertsLayer,
	"internal/httpsim.PersistentConn.QueueLen":   assertsLayer,
	"internal/obs.TailSampler.Offered":           assertsLayer,
	"internal/simnet.GilbertParams.MeanLossRate": assertsLayer,
	"internal/simnet.WirelessGilbert":            assertsLayer,
	"internal/stats.AR1.StationaryStdDev":        assertsLayer,
	"internal/stats.Zipf.Prob":                   assertsLayer,
	"internal/tcpsim.Conn.Closed":                assertsLayer,
	"internal/tcpsim.Conn.Established":           assertsLayer,
	"internal/tcpsim.Conn.Metrics":               assertsLayer,
	"internal/tcpsim.Endpoint.FreeConns":         assertsLayer,
	"internal/tcpsim.Endpoint.OpenConns":         assertsLayer,

	"internal/analysis.BoundaryCrossCheck":   backsExperiment,
	"internal/analysis.EstimateProcPerFE":    backsExperiment,
	"internal/analysis.ProcSpread":           backsExperiment,
	"internal/dns.New":                       backsExperiment,
	"internal/dns.PolicyNearest":             backsExperiment,
	"internal/dns.Resolver.CacheHits":        backsExperiment,
	"internal/dns.Resolver.Flush":            backsExperiment,
	"internal/dns.Resolver.Lookups":          backsExperiment,
	"internal/dns.Resolver.Resolve":          backsExperiment,
	"internal/emulator.Runner.RunKeepAliveA": backsExperiment,
	"internal/frontend.GunzipAll":            backsExperiment,

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
// attached; delete both.
//
// Uses are matched by types.Object, so a dead method sharing a live
// name is found. A method also counts as read where a value of its type
// is passed, assigned or returned as an interface whose method set
// includes it, or is asserted to one after being boxed; a method that
// only reflection or a type assertion inside the standard library
// reaches (fmt calling String on an any) is not read, nor is a generic
// declaration through its instances (the module exports none).
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
// assertion is not, and an allowlisted entry that has a reader (or no
// declaration) is reported.
func TestReachabilityFixture(t *testing.T) {
	found, err := checkReachability(filepath.Join("testdata", "reach"), "reach", nil, map[string]string{
		"a.Listed": stdlibCalls,
		"a.Gone":   stdlibCalls,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.kind+" "+f.key+" "+f.where)
	}
	want := []string{
		"unread a.T.Live a/a.go:12",
		"listed-but-read a.Listed main.go:9",
		"listed-but-gone a.Gone ",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}

// A reachability finding: an unread declaration, or an allowlist entry
// whose declaration has a reader or is gone.
type reachFinding struct {
	kind, key, where string
}

func (f reachFinding) String() string {
	switch f.kind {
	case "unread":
		return fmt.Sprintf("%s (%s): exported but read by no non-test code; delete it and its test, or list it in reachableByTest with the reason it stays", f.key, f.where)
	case "listed-but-read":
		return fmt.Sprintf("reachableByTest lists %s, which %s reads; drop the entry", f.key, f.where)
	}
	return fmt.Sprintf("reachableByTest lists %s, which no longer exists; drop the entry", f.key)
}

// checkReachability type-checks every package under root (import path
// module/<dir>) from its non-test files, the standard library through
// importer.Default, and reports each exported package-level declaration
// outside the readOnly directories that nothing outside its own
// declaration uses, and each allow entry that is read or gone. A key is
// the package's directory ("module" for root), then the receiver's type
// name for a method, then the name: "internal/stats.Sketch.Add".
func checkReachability(root, module string, readOnly []string, allow map[string]string) ([]reachFinding, error) {
	c := &reachChecker{
		root: root, module: module, fset: token.NewFileSet(), std: importer.Default(),
		pkgs: map[string]*types.Package{}, uses: map[types.Object][]token.Pos{}, recv: map[token.Pos]bool{},
		boxed: map[string]types.Type{},
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
}

type reachChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	decls        []reachDecl
	uses         map[types.Object][]token.Pos // object → where non-test code uses it
	recv         map[token.Pos]bool           // receiver type names, which use nothing
	boxed        map[string]types.Type        // concrete types converted to an interface
	asserted     []reachAssert                // assertions to an interface type
}

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
	}
	for id, obj := range info.Uses {
		c.uses[obj] = append(c.uses[obj], id.Pos())
	}
	return pkg, nil
}

// declare records f's exported package-level declarations and marks
// its receiver type names, which are not uses of the type.
func (c *reachChecker) declare(key string, f *ast.File, info *types.Info) {
	add := func(name *ast.Ident, recv string, node ast.Node) {
		if name.IsExported() {
			k := key + "." + name.Name
			if recv != "" {
				k = key + "." + recv + "." + name.Name
			}
			c.decls = append(c.decls, reachDecl{k, info.Defs[name], node.Pos(), node.End()})
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
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "", s)
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
